"""The package's one monotone root finder and its shifted log-sum-exp.

They import nothing from the package but its errors, so varexp, transport
and jko all can.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalBlowupError

#: Growth step of each bracket end.
_STEP = 1.0

#: Most growth steps of each bracket end.
_GROWTH = 200

#: Most refinement steps per call, far more than a bracket of width 2 needs.
_CAP = 120


def bisect(f, lo, hi):
    """Brackets (lo, hi) of the root of each entry of an increasing vectorized f.

    f returns the pair (f(x), f'(x)). Each bracket is first widened by
    _STEP, up to _GROWTH times per side, until f(lo) <= 0 <= f(hi), and
    NumericalBlowupError is raised where that does not bracket the root:
    a silent non-bracket would pass for a root. Then each bracket is
    refined at most _CAP times, by safeguarded Newton steps started at the
    midpoint of the grown bracket. Each evaluation moves the bracket end on
    its side of the root to the trial point. A Newton point is pushed one
    ulp further, so that once it has converged the next trial lands across
    the root and closes the bracket to adjacent doubles: the same pair, and
    so the same midpoint 0.5 * (lo + hi), that plain halving finds wherever
    f is monotone in floating point. The loop stops once every bracket is
    that narrow, as from then on no step can move the midpoint. A root on
    an end would push the converged point onto or past it, so a Newton
    point in the closed bracket that the push takes out of the open one
    becomes the end's inner neighbour, which closes the bracket there (by
    halving, a root at 0 takes the cap). So does a Newton target
    x - f(x) / f'(x) that lies past an end by at most the spacing of x:
    there it cancelled (x - (x - c) rounds to 0 for a root c far below x
    in size), and halving from x down to c would take the cap. The
    midpoint replaces a Newton point that is not strictly inside the
    bracket (a point on an end was evaluated already), or whose step is
    more than half the step before last, as in Numerical Recipes' rtsafe:
    far out on a convex branch Newton crawls by a fixed amount per step.
    Where f is exactly 0 over a run of doubles, one-ulp pushes would each
    land on another zero and leave the far end of the bracket where it is;
    so after two zeros in a row the push is twice the last one, and at
    least one ulp of the bracket width, which crosses the run in a few
    steps even among the dense doubles near 0. A Newton step that is not
    finite (an infinite value or slope, a zero slope, or a quotient that
    overflows) is rejected silently, and the trial is the midpoint.
    """
    lo, hi = _grow(f, lo, -1.0), _grow(f, hi, 1.0)
    x = x_before = 0.5 * (lo + hi)
    last = before = hi - lo
    zero = False
    for _ in range(_CAP):
        mid = 0.5 * (lo + hi)
        if ((mid == lo) | (mid == hi)).all():
            break
        fx, slope = f(x)
        up = fx >= 0.0
        hi = np.where(up, x, hi)
        lo = np.where(up, lo, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = fx / slope
        target = x - newton
        trial = np.nextafter(target, np.where(up, -np.inf, np.inf))
        inner = np.clip(trial, np.nextafter(lo, hi), np.nextafter(hi, lo))
        # a target that cancelled to just past an end, by at most the
        # spacing of x, counts as on it
        slack = np.spacing(np.abs(x))
        trial = np.where((lo - slack <= target) & (target <= hi + slack), inner, trial)
        zero, was_zero = fx == 0.0, zero
        again = zero & was_zero
        if np.count_nonzero(again):
            push = np.maximum(2.0 * (x_before - x), np.spacing(hi - lo))
            trial = np.where(again, x - push, trial)
        ok = (lo < trial) & (trial < hi) & (2.0 * np.abs(newton) <= before)
        before, last = last, np.where(ok, np.abs(newton), 0.5 * (hi - lo))
        x, x_before = np.where(ok, trial, 0.5 * (lo + hi)), x
    return lo, hi


def _grow(f, x, side):
    """x moved by _STEP toward side (-1 or 1) where side * f(x) < 0, at most
    _GROWTH times; raises NumericalBlowupError where that is not enough."""
    for k in range(_GROWTH + 1):
        bad = side * f(x)[0] < 0.0
        if not bad.any():
            return x
        if k < _GROWTH:
            x = np.where(bad, x + side * _STEP, x)
    raise NumericalBlowupError(
        f"root bracket did not close within {_GROWTH} steps of {_STEP} "
        f"on {np.count_nonzero(bad)} entries, ending at {np.asarray(x)[bad][:3]}")


def logsumexp(a: np.ndarray, axis: int, weights: bool = False):
    """log(sum(exp(a))) along axis, shifted by the maximum; all -inf slices give -inf.

    With weights set, also returns the softmax exp(a - logsumexp) along
    axis, taken from the same exponentials.
    """
    mx = np.max(a, axis=axis, keepdims=True)
    mx_safe = np.where(np.isfinite(mx), mx, 0.0)
    z = np.exp(a - mx_safe)
    total = np.sum(z, axis=axis)
    with np.errstate(divide="ignore"):
        lse = np.log(total) + np.squeeze(mx_safe, axis=axis)
    if not weights:
        return lse
    return lse, z / np.expand_dims(total, axis)
