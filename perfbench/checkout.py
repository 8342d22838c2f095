"""Where the benchmark finds the package and writes its outputs.

The benchmark always measures the varwass sources of the checkout it sits
in (``<root>/src``), never an installed copy, and writes only below
``<root>/.bench_out``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """One BLAS thread, whatever the caller's shell sets.

    Must run before numpy is imported; child processes inherit the setting.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_src() -> None:
    """Import varwass from this checkout's src/, or exit with an error."""
    if not (SRC / "varwass" / "__init__.py").is_file():
        sys.exit(f"benchmark: no varwass sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import varwass

    where = Path(varwass.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"benchmark: imported varwass from {where}, not from {SRC}")


def src_digest() -> str:
    """sha256 over the package sources, naming the code that was measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "varwass").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc(),
        "machine": platform.machine(),
    }
