"""Static transport problems with the position-dependent power cost.

The cost of sending unit mass from center x_i to center x_j on a time scale
h is |x_i - x_j|^p(x_i) / (h^(p(x_i)-1) p(x_i)): the exponent is read at the
source point, so the matrix is asymmetric whenever p varies.

Three solvers live here: an exact dense revised simplex (the workhorse for
small n, with Bland-rule fallback against cycling), a log-domain entropic
scaling loop, and the closed-form quantile evaluation of the constant-exponent
1-D Wasserstein distance. A brute-force vertex enumeration is included as an
independent reference for tiny instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import logsumexp
from .errors import (
    MarginalMismatchError,
    NonpositiveParameterError,
    NumericalBlowupError,
    SizeMismatchError,
)
from .grid import Grid
from .varexp import ExponentField, DensityField

#: Marginals of a coupling may deviate from their targets by at most this much.
MARGINAL_TOL = 1e-9


@dataclass(frozen=True)
class CostMatrix:
    """Dense n-by-n cost values together with the scale h and exponent used."""

    values: np.ndarray
    h: float
    exponents: ExponentField

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise SizeMismatchError(f"cost matrix must be square, got {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Coupling:
    """Transport plan with recorded marginals.

    gamma[i, j] is the mass moved from cell i to cell j. On construction the
    row and column sums are checked against the stored marginals to within
    MARGINAL_TOL (skipped with check=False for reporting unconverged
    iterates).
    """

    gamma: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    check: bool = True

    def __post_init__(self):
        gam = np.asarray(self.gamma, dtype=float)
        mu = np.asarray(self.row_marginal, dtype=float)
        nu = np.asarray(self.col_marginal, dtype=float)
        if gam.ndim != 2 or gam.shape != (mu.size, nu.size):
            raise SizeMismatchError(
                f"coupling shape {gam.shape} does not match marginals "
                f"({mu.size}, {nu.size})"
            )
        object.__setattr__(self, "gamma", gam)
        object.__setattr__(self, "row_marginal", mu)
        object.__setattr__(self, "col_marginal", nu)
        if self.check:
            if gam.min() < -MARGINAL_TOL:
                raise ValueError(f"coupling has negative entries, min {gam.min()}")
            row_err = np.abs(gam.sum(axis=1) - mu).max()
            col_err = np.abs(gam.sum(axis=0) - nu).max()
            if row_err > MARGINAL_TOL or col_err > MARGINAL_TOL:
                raise MarginalMismatchError(
                    f"coupling marginals off by (rows {row_err:.2e}, cols {col_err:.2e})"
                )

    def marginal_error(self) -> float:
        row_err = np.abs(self.gamma.sum(axis=1) - self.row_marginal).max()
        col_err = np.abs(self.gamma.sum(axis=0) - self.col_marginal).max()
        return float(max(row_err, col_err))


def build_cost(g: Grid, p: ExponentField, h: float) -> CostMatrix:
    """Cost matrix c[i][j] = |x_i - x_j|^p(x_i) / (h^(p(x_i)-1) p(x_i)).

    The diagonal is exactly zero; h must be positive.
    """
    if h <= 0.0:
        raise NonpositiveParameterError(f"time scale h must be positive, got {h}")
    g.check_cell_field(p.values, "exponent field")
    x = g.centers
    pi = p.values[:, None]
    dist = np.abs(x[:, None] - x[None, :])
    vals = dist**pi / (h ** (pi - 1.0) * pi)
    np.fill_diagonal(vals, 0.0)
    return CostMatrix(vals, float(h), p)


def _check_marginals(cost: CostMatrix, mu: np.ndarray, nu: np.ndarray):
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    n = cost.n
    if mu.shape != (n,) or nu.shape != (n,):
        raise SizeMismatchError(
            f"marginals must have shape ({n},), got {mu.shape} and {nu.shape}"
        )
    if mu.min() < 0.0 or nu.min() < 0.0:
        raise MarginalMismatchError("marginals must be nonnegative")
    if abs(mu.sum() - nu.sum()) > MARGINAL_TOL:
        raise MarginalMismatchError(
            f"total masses differ: {mu.sum()!r} vs {nu.sum()!r}"
        )
    return mu, nu


@dataclass(frozen=True)
class ExactResult:
    coupling: Coupling
    value: float
    row_potential: np.ndarray
    col_potential: np.ndarray
    pivots: int


def _northwest_corner(mu: np.ndarray, nu: np.ndarray):
    """Initial basic feasible staircase with exactly 2n-1 cells."""
    n = len(mu)
    a = mu.copy()
    b = nu.copy()
    alloc = {}
    basis = []
    i = j = 0
    while True:
        t = min(a[i], b[j])
        basis.append(i * n + j)
        alloc[i * n + j] = t
        a[i] -= t
        b[j] -= t
        if i == n - 1 and j == n - 1:
            break
        if i == n - 1:
            j += 1
        elif j == n - 1:
            i += 1
        elif a[i] <= b[j]:
            i += 1
        else:
            j += 1
    return basis, alloc


def _constraint_column(k: int, n: int) -> np.ndarray:
    """Column of the (2n-1)-row constraint matrix for variable k = i*n + j."""
    col = np.zeros(2 * n - 1)
    i, j = divmod(k, n)
    col[i] = 1.0
    if j < n - 1:
        col[n + j] = 1.0
    return col


def _equality_rhs(mu: np.ndarray, nu: np.ndarray):
    """nu with any sub-tolerance total-mass gap folded in, so the equalities
    are exactly consistent, and the right-hand side of the 2n-1 equalities."""
    nu_eff = nu * (mu.sum() / nu.sum()) if nu.sum() > 0 else nu.copy()
    return nu_eff, np.concatenate([mu, nu_eff[:-1]])


def solve_exact(cost: CostMatrix, mu: np.ndarray, nu: np.ndarray,
                max_pivots: int = 50_000) -> ExactResult:
    """Exact transport plan by a dense revised simplex.

    Starts from the northwest-corner staircase, prices with Dantzig's rule
    (deterministic smallest-index tie break) and switches permanently to
    Bland's rule once degenerate pivots pile up, which rules out cycling.
    Returns the optimal plan, its cost, and the dual potentials (u, v) with
    v[n-1] = 0; complementary slackness against those potentials certifies
    optimality.

    Intended for n <= 64; raises for mismatched marginals.
    """
    mu, nu = _check_marginals(cost, mu, nu)
    n = cost.n
    if n > 64:
        raise SizeMismatchError(f"exact solver is limited to n <= 64, got {n}")
    C = cost.values
    nu_eff, b_vec = _equality_rhs(mu, nu)
    basis, alloc = _northwest_corner(mu, nu_eff)
    basis = list(basis)
    B = np.column_stack([_constraint_column(k, n) for k in basis])
    x_b = np.array([alloc[k] for k in basis])

    c_flat = C.ravel()
    tol_opt = 1e-10 * (1.0 + np.abs(C).max())
    tol_piv = 1e-12
    bland = False
    degenerate_run = 0
    pivots = 0
    in_basis = np.zeros(n * n, dtype=bool)
    in_basis[basis] = True

    while True:
        c_b = c_flat[basis]
        y = np.linalg.solve(B.T, c_b)
        u = y[:n]
        v = np.concatenate([y[n:], [0.0]])
        reduced = C - u[:, None] - v[None, :]
        red_flat = reduced.ravel().copy()
        red_flat[in_basis] = 0.0
        if bland:
            negs = np.nonzero(red_flat < -tol_opt)[0]
            if negs.size == 0:
                break
            enter = int(negs[0])
        else:
            enter = int(np.argmin(red_flat))
            if red_flat[enter] >= -tol_opt:
                break
        if pivots >= max_pivots:
            raise NumericalBlowupError(
                f"simplex did not terminate within {max_pivots} pivots"
            )
        a_col = _constraint_column(enter, n)
        d = np.linalg.solve(B, a_col)
        positive = d > tol_piv
        if not np.any(positive):
            raise NumericalBlowupError("transport polytope direction unbounded")
        ratios = np.where(positive, x_b / np.where(positive, d, 1.0), np.inf)
        theta = ratios.min()
        # Bland-style leaving choice: among the minimizing slots take the one
        # holding the smallest variable index.
        tie = np.nonzero(ratios <= theta + 1e-13 * (1.0 + theta))[0]
        leave_slot = int(min(tie, key=lambda s: basis[s]))
        x_b = x_b - theta * d
        x_b[leave_slot] = theta
        x_b = np.maximum(x_b, 0.0)
        in_basis[basis[leave_slot]] = False
        in_basis[enter] = True
        basis[leave_slot] = enter
        B[:, leave_slot] = a_col
        pivots += 1
        if theta <= 1e-13:
            degenerate_run += 1
            if degenerate_run > 25:
                bland = True
        else:
            degenerate_run = 0

    # One clean re-solve removes drift accumulated by the updates.
    x_b = np.linalg.solve(B, b_vec)
    if x_b.min() < -1e-8:
        raise NumericalBlowupError(
            f"simplex basis lost feasibility (min {x_b.min():.2e})"
        )
    x_b = np.maximum(x_b, 0.0)
    gamma = np.zeros(n * n)
    gamma[basis] = x_b
    gamma = gamma.reshape(n, n)
    value = float((C * gamma).sum())
    coupling = Coupling(gamma, mu, nu_eff)
    return ExactResult(coupling, value, u, v, pivots)


def solve_brute_force(cost: CostMatrix, mu: np.ndarray, nu: np.ndarray):
    """Minimize over every vertex of the transport polytope (n <= 4).

    Enumerates all candidate bases (supports of size 2n-1), solves each
    square system, and keeps the best feasible basic solution. Exponential in
    n; used as the independent optimality reference for the simplex.
    """
    from itertools import combinations

    mu, nu = _check_marginals(cost, mu, nu)
    n = cost.n
    if n > 4:
        raise SizeMismatchError(f"brute force is limited to n <= 4, got {n}")
    nu_eff, b_vec = _equality_rhs(mu, nu)
    cols = np.column_stack([_constraint_column(k, n) for k in range(n * n)])
    c_flat = cost.values.ravel()
    best_val = np.inf
    best_x = None
    m_rows = 2 * n - 1
    for support in combinations(range(n * n), m_rows):
        A = cols[:, support]
        try:
            x = np.linalg.solve(A, b_vec)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.abs(A @ x - b_vec).max() > 1e-9:
            continue
        if x.min() < -1e-10:
            continue
        val = float(c_flat[list(support)] @ x)
        if val < best_val - 1e-15:
            best_val = val
            best_x = (support, np.maximum(x, 0.0))
    if best_x is None:
        raise NumericalBlowupError("vertex enumeration found no feasible basis")
    gamma = np.zeros(n * n)
    support, x = best_x
    gamma[list(support)] = x
    return gamma.reshape(n, n), best_val


@dataclass(frozen=True)
class EntropicResult:
    coupling: Coupling
    value: float
    iterations: int
    converged: bool
    marginal_violation: float


def solve_entropic(cost: CostMatrix, mu: np.ndarray, nu: np.ndarray, eps: float,
                   max_iters: int = 100_000, tol: float = 1e-10) -> EntropicResult:
    """Entropically regularized plan by log-domain alternating scaling.

    Stops when the L1 violation of the unconstrained marginal drops below
    tol. The reported value is <c, gamma> without the entropy term. On
    nonconvergence the best iterate is returned with converged=False instead
    of raising.
    """
    if eps <= 0.0:
        raise NonpositiveParameterError(f"eps must be positive, got {eps}")
    mu, nu = _check_marginals(cost, mu, nu)
    C = cost.values
    with np.errstate(divide="ignore"):
        log_mu = np.log(mu)
        log_nu = np.log(nu)
    f = np.where(np.isfinite(log_mu), 0.0, -np.inf)
    gp = np.where(np.isfinite(log_nu), 0.0, -np.inf)
    violation = np.inf
    it = 0
    for it in range(1, max_iters + 1):
        with np.errstate(invalid="ignore"):
            f = eps * (log_mu - logsumexp((gp[None, :] - C) / eps, axis=1))
            f = np.where(np.isfinite(log_mu), f, -np.inf)
            gp = eps * (log_nu - logsumexp((f[:, None] - C) / eps, axis=0))
            gp = np.where(np.isfinite(log_nu), gp, -np.inf)
        with np.errstate(invalid="ignore"):
            gamma = np.exp((f[:, None] + gp[None, :] - C) / eps)
        gamma = np.nan_to_num(gamma, nan=0.0, posinf=0.0)
        violation = float(np.abs(gamma.sum(axis=1) - mu).sum())
        if violation < tol:
            break
    converged = violation < tol
    value = float((C * gamma).sum())
    coupling = Coupling(gamma, mu, nu, check=converged and violation <= MARGINAL_TOL)
    return EntropicResult(coupling, value, it, converged, violation)


def _quantile_segments(a: np.ndarray, b: np.ndarray):
    """Merge the normalized CDFs of cell masses a and b into quantile segments.

    Returns (seg, i, j): on each segment of positive length seg the quantile
    functions of a and b sit in cells i and j. The sweep stops at the
    smaller of the two CDF ends. Repeated CDF values (vacuum cells, or a
    value both CDFs share) give zero-length segments, which are dropped.
    """
    ca = np.cumsum(a) / a.sum()
    cb = np.cumsum(b) / b.sum()
    s = np.sort(np.concatenate([ca, cb]))
    s = s[s <= min(ca[-1], cb[-1])]
    seg = np.diff(s, prepend=0.0)
    s, seg = s[seg > 0.0], seg[seg > 0.0]
    return seg, np.searchsorted(ca, s), np.searchsorted(cb, s)


def wasserstein_1d(p_const: float, mu: DensityField, nu: DensityField, g: Grid) -> float:
    """Constant-exponent Wasserstein distance through quantile functions.

    Both measures live on the cell centers of g; the distance is
    (integral over s in (0,1) of |Q_mu(s) - Q_nu(s)|^p ds)^(1/p) with
    piecewise-constant quantiles, which is the exact optimal-transport value
    for the convex cost |x - y|^p in one dimension.
    """
    if p_const < 1.0:
        raise NonpositiveParameterError(f"exponent must be >= 1, got {p_const}")
    a = g.check_cell_field(mu.mass, "mu mass")
    b = g.check_cell_field(nu.mass, "nu mass")
    ta, tb = a.sum(), b.sum()
    if abs(ta - tb) > MARGINAL_TOL:
        raise MarginalMismatchError(f"total masses differ: {ta!r} vs {tb!r}")
    if ta <= 0.0:
        return 0.0
    seg, i, j = _quantile_segments(a, b)
    x = g.centers
    acc = float(np.sum(seg * np.abs(x[i] - x[j]) ** p_const))
    return float((ta * acc) ** (1.0 / p_const))


def displacement_interpolant(mu: DensityField, nu: DensityField, t: float,
                             g: Grid) -> DensityField:
    """Point on the constant-speed quantile path between mu and nu.

    Each quantile segment becomes a particle at (1-t) Q_mu + t Q_nu, and the
    particles are deposited back onto the grid with linear (two-cell) weights,
    so mass is conserved exactly and t=0, t=1 reproduce mu, nu up to one cell
    of smearing.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"interpolation parameter must lie in [0, 1], got {t}")
    a = g.check_cell_field(mu.mass, "mu mass")
    b = g.check_cell_field(nu.mass, "nu mass")
    seg, i, j = _quantile_segments(a, b)
    x = g.centers
    n = g.n_cells
    pos = (1.0 - t) * x[i] + t * x[j]
    # linear deposit between the two neighboring cell centers; a particle
    # beyond an outer center goes entirely to the end cell
    ratio = np.clip((pos - g.a) / g.dx - 0.5, 0.0, n - 1)
    left = np.minimum(np.floor(ratio), n - 2).astype(int)
    frac = ratio - left
    masses = np.bincount(left, seg * (1.0 - frac), n) + np.bincount(left + 1, seg * frac, n)
    masses /= masses.sum()
    return DensityField(masses)
