"""Static transport problems with the position-dependent power cost.

The cost of sending unit mass from center x_i to center x_j on a time scale
h is |x_i - x_j|^p(x_i) / (h^(p(x_i)-1) p(x_i)): the exponent is read at the
source point, so the matrix is asymmetric whenever p varies.

Three solvers live here: an exact transportation simplex that keeps its
basis as a spanning tree on the row and column nodes, built straight from
the northwest-corner staircase, with per-node lists and a potential array
that numpy prices against in place (the workhorse for n up to a few
hundred, with Bland-rule fallback against cycling; a pivot costs one n^2
pricing pass plus a walk of about 20 tree nodes at n=64), a log-domain
entropic scaling loop, and the closed-form quantile evaluation of the
constant-exponent 1-D Wasserstein distance. A brute-force vertex
enumeration is included as an independent reference for tiny instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import logsumexp
from .errors import (
    InvalidParameterError,
    MarginalMismatchError,
    NegativeCouplingError,
    NonpositiveParameterError,
    NumericalBlowupError,
    SizeMismatchError,
    check_positive,
)
from .grid import Grid
from .varexp import ExponentField, DensityField, _check_masses

#: Marginals of a coupling may deviate from their targets by at most this much.
MARGINAL_TOL = 1e-9

#: Largest number of cells per marginal that solve_exact accepts.
EXACT_MAX_N = 256

#: solve_exact raises NumericalBlowupError rather than take more pivots.
MAX_PIVOTS = 50_000

#: solve_entropic stops once its row marginals are this close in L1 ...
ENTROPIC_TOL = 1e-10

#: ... or after this many iterations, and then reports converged=False.
ENTROPIC_MAX_ITERS = 100_000


@dataclass(frozen=True)
class CostMatrix:
    """Dense n-by-n transport cost values, square, nonempty and finite."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.size == 0:
            raise SizeMismatchError(f"cost matrix must be square and nonempty, got {v.shape}")
        if not np.isfinite(v).all():
            raise InvalidParameterError("cost matrix entries must be finite")
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
    iterates; of_plan checks the rows only, where the column marginal is
    the plan's own column sums).
    """

    gamma: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    check: bool = True

    def __post_init__(self):
        gam = np.asarray(self.gamma, dtype=float)
        mu = np.asarray(self.row_marginal, dtype=float)
        nu = np.asarray(self.col_marginal, dtype=float)
        if gam.ndim != 2 or gam.shape != (mu.size, nu.size) or gam.size == 0:
            raise SizeMismatchError(
                f"coupling shape {gam.shape} is empty or does not match marginals "
                f"({mu.size}, {nu.size})"
            )
        object.__setattr__(self, "gamma", gam)
        object.__setattr__(self, "row_marginal", mu)
        object.__setattr__(self, "col_marginal", nu)
        if self.check:
            self._verify(columns=True)

    def _verify(self, columns: bool):
        """Raise on a negative or NaN entry, then on a row sum (and with
        columns, a column sum) off its marginal by more than MARGINAL_TOL."""
        gam = self.gamma
        # written so that a NaN entry or marginal fails them
        if not gam.min() >= -MARGINAL_TOL:
            raise NegativeCouplingError(
                f"coupling has negative or NaN entries, min {gam.min()}")
        err = self.marginal_error() if columns else float(self._row_error())
        if not err <= MARGINAL_TOL:
            raise MarginalMismatchError(f"coupling marginals off by {err:.2e}")

    @classmethod
    def of_plan(cls, gamma: np.ndarray, row_marginal: np.ndarray,
                col_sums: np.ndarray) -> "Coupling":
        """The checked coupling of a plan whose column marginal is its own
        column sums col_sums, gamma.sum(axis=0) as the caller took them.

        Re-summing the columns would compare col_sums with themselves, so
        only the sign of the entries and the row sums are checked.
        """
        coupling = cls(gamma, row_marginal, col_sums, check=False)
        coupling._verify(columns=False)
        object.__setattr__(coupling, "check", True)
        return coupling

    def _row_error(self):
        return np.abs(self.gamma.sum(axis=1) - self.row_marginal).max()

    def marginal_error(self) -> float:
        """Largest gap of a row or column sum to its marginal; NaN stays NaN."""
        col_err = np.abs(self.gamma.sum(axis=0) - self.col_marginal).max()
        return float(np.maximum(self._row_error(), col_err))


def _power_cost(d, p, h: float, t=1.0):
    """|d|^p / (h^(p-1) p t): the cost of a displacement d from a point of
    exponent p, over a Gibbs kernel's temperature t. Every cost is this."""
    return np.abs(d) ** p / (h ** (p - 1.0) * p * t)


def build_cost(g: Grid, p: ExponentField, h: float) -> CostMatrix:
    """Cost matrix c[i][j] = |x_i - x_j|^p(x_i) / (h^(p(x_i)-1) p(x_i)).

    The diagonal is exactly zero; h must be positive and finite. Every other
    entry must come out positive and finite: an h whose power h^(p-1)
    underflows to 0 would give infinite costs, and one whose power
    overflows zero costs, so either raises InvalidParameterError.
    """
    check_positive(h, "time scale h")
    g.check_cell_field(p.values, "exponent field")
    x = g.centers
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals = _power_cost(x[:, None] - x[None, :], p.values[:, None], h)
    np.fill_diagonal(vals, 0.0)
    off = vals[~np.eye(g.n_cells, dtype=bool)]
    check_positive(np.array([off.min(), off.max()]),
                   f"smallest and largest cost at time scale h={h!r}",
                   InvalidParameterError)
    return CostMatrix(vals)


def _check_marginals(n: int, mu: np.ndarray, nu: np.ndarray):
    """mu and nu as float arrays: n masses each, with totals within MARGINAL_TOL."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if mu.shape != (n,) or nu.shape != (n,):
        raise SizeMismatchError(
            f"marginals must have shape ({n},), got {mu.shape} and {nu.shape}"
        )
    _check_masses(mu, False)
    _check_masses(nu, False)
    if not abs(mu.sum() - nu.sum()) <= MARGINAL_TOL:
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
    """Initial basic feasible staircase: its 2n-1 cells (i, j, mass) in
    order from (0, 0) to (n-1, n-1), each a step right or down from the last."""
    a = mu.tolist()
    b = nu.tolist()
    last = len(a) - 1
    stair = []
    i = j = 0
    row, col = a[0], b[0]  # the mass row i and column j have left
    while True:
        t = min(row, col)
        stair.append((i, j, t))
        row -= t
        col -= t
        if i == last:
            if j == last:
                return stair
            j += 1
            col = b[j]
        elif j == last or row <= col:
            i += 1
            row = a[i]
        else:
            j += 1
            col = b[j]


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


class _BasisTree:
    """Spanning-tree basis of the n-by-n transport simplex.

    Node i < n is row i and node n + j is column j; the tree hangs from
    column n - 1, whose potential is pinned at 0. Every other node w keeps,
    in lists indexed by node, its parent, its depth, and the basic variable
    k = i*n + j of the arc to its parent with that arc's cost and flow;
    pot[w] is u_i or v_j, set from u_i + v_j = C_ij on each arc to the root.
    pot is a memoryview of a float array, so numpy prices against it in place.
    """

    def __init__(self, C: np.ndarray, stair: list):
        """The tree of the northwest staircase stair (_northwest_corner).

        Walking back from cell (n-1, n-1), each cell adds the one node it
        does not share with the cell after it and hangs it from the node
        they share, so a parent's depth and potential are set first.
        """
        n = len(C)
        self.root = root = 2 * n - 1
        self.parent = parent = [root] * (2 * n)
        self.arc = arc = [-1] * (2 * n)
        self.cost = cost = [0.0] * (2 * n)
        self.flow = flow = [0.0] * (2 * n)
        self.depth = depth = [0] * (2 * n)
        self.pot = pot = memoryview(np.zeros(2 * n))
        self.children = children = [[] for _ in range(2 * n)]
        next_row = -1
        for i, j, mass in reversed(stair):
            if i == next_row:
                w, up = n + j, i
            else:
                w, up = i, n + j
                next_row = i
            c = C.item(i, j)
            parent[w] = up
            arc[w] = i * n + j
            cost[w] = c
            flow[w] = mass
            depth[w] = depth[up] + 1
            pot[w] = c - pot[up]
            children[up].append(w)

    def cycle(self, a: int, b: int):
        """Nodes whose parent arcs close the cycle of arc (a, b), walked up from each end.

        The first arc from either end and every second one after it lose
        flow when flow enters on (a, b).
        """
        parent, depth = self.parent, self.depth
        from_a, from_b = [], []
        while depth[a] > depth[b]:
            from_a.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            from_b.append(b)
            b = parent[b]
        while a != b:
            from_a.append(a)
            from_b.append(b)
            a, b = parent[a], parent[b]
        return from_a, from_b

    def exchange(self, k: int, c: float, theta: float, inner: int, outer: int, cut: int):
        """Drop the arc from cut to its parent and hang cut's subtree from
        arc k, of cost c, carrying flow theta.

        inner is the end of arc k inside that subtree and outer the other
        end. The path from inner up to cut turns over, each node on it
        taking the arc, cost and flow of the node below; then the
        subtree's depths and potentials are recomputed from the top down.
        """
        parent, arc, cost, flow, children = (
            self.parent, self.arc, self.cost, self.flow, self.children)
        w, up = inner, outer
        while True:
            old_up = parent[w]
            children[old_up].remove(w)
            parent[w] = up
            children[up].append(w)
            # w takes the carried arc and hands its own on to old_up
            arc[w], k = k, arc[w]
            cost[w], c = c, cost[w]
            flow[w], theta = theta, flow[w]
            if w == cut:
                break
            w, up = old_up, w
        depth, pot = self.depth, self.pot
        order = [inner]
        for w in order:
            up = parent[w]
            depth[w] = depth[up] + 1
            pot[w] = cost[w] - pot[up]
            order += children[w]

    def peel(self, supply: list) -> list:
        """Flow on every node's arc that meets the node supplies, leaves first."""
        rest = list(supply)
        parent = self.parent
        for w in sorted(range(self.root), key=self.depth.__getitem__, reverse=True):
            rest[parent[w]] -= rest[w]
        return rest


def solve_exact(cost: CostMatrix, mu: np.ndarray, nu: np.ndarray) -> ExactResult:
    """Exact transport plan by the transportation simplex on a spanning tree.

    Starts from the northwest-corner staircase, prices with Dantzig's rule
    (deterministic smallest-index tie break) and switches permanently to
    Bland's rule once degenerate pivots pile up, which rules out cycling.
    The basis is a spanning tree on the row and column nodes, built
    straight from the staircase: a pivot prices all n^2 arcs at once, walks
    the entering arc's cycle up the tree and recomputes the potentials of
    the subtree it moves, so it solves no linear system. Returns the
    optimal plan, its cost, and the dual potentials (u, v) with v[n-1] = 0;
    complementary slackness against those potentials certifies optimality.

    At most EXACT_MAX_N cells and MAX_PIVOTS pivots; raises for bad
    marginals, and raises NumericalBlowupError when a reduced cost or its
    tolerance overflows on the final pricing, where no certificate can be
    read.
    """
    mu, nu = _check_marginals(cost.n, mu, nu)
    n = cost.n
    if n > EXACT_MAX_N:
        raise SizeMismatchError(
            f"exact solver is limited to n <= {EXACT_MAX_N}, got {n}")
    C = cost.values
    nu_eff, _ = _equality_rhs(mu, nu)
    tree = _BasisTree(C, _northwest_corner(mu, nu_eff))
    pot, flow, arc = tree.pot, tree.flow, tree.arc
    # u and v are views of the tree's potentials and follow every pivot
    uv = np.asarray(pot)
    u, v = uv[:n], uv[n:]

    # An arc improves when its reduced cost C_ij - u_i - v_j is below -1e-10
    # times 1 + |C_ij| + |u_i| + |v_j|, the magnitudes it is computed from.
    # A tolerance set by the largest cost (about 5e6 for far arcs at small h)
    # would stop while near arcs still improve.
    scale = 1.0 + np.abs(C)
    red = np.empty_like(C)
    red_flat = red.ravel()
    bland = False
    degenerate_run = 0
    pivots = 0
    in_basis = np.zeros(n * n, dtype=bool)
    in_basis[arc[:tree.root]] = True

    # overflowing reduced costs are caught once, on the final pricing
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            np.subtract(C, u[:, None], out=red)
            np.subtract(red, v, out=red)
            # Dantzig's arc is the most negative reduced cost overall whenever
            # that one improves, so the full tolerance test runs only under
            # Bland's rule and on the final pricing.
            enter = red.argmin().item()
            i, j = divmod(enter, n)
            if (bland or in_basis[enter] or not red.item(enter) < -1e-10 * (
                    scale.item(enter) + abs(pot[i]) + abs(pot[n + j]))):
                tol = 1e-10 * (scale + np.abs(u)[:, None] + np.abs(v))
                improving = (red < -tol).ravel()
                improving[in_basis] = False
                negs = np.flatnonzero(improving)
                if negs.size == 0:
                    if not (np.isfinite(red).all() and np.isfinite(tol).all()):
                        raise NumericalBlowupError(
                            "simplex reduced costs overflow; optimality cannot be certified")
                    break
                enter = int(negs[0] if bland else negs[np.argmin(red_flat[negs])])
                i, j = divmod(enter, n)
            if pivots >= MAX_PIVOTS:
                raise NumericalBlowupError(
                    f"simplex did not terminate within {MAX_PIVOTS} pivots"
                )
            from_row, from_col = tree.cycle(i, n + j)
            losing = from_row[::2] + from_col[::2]
            lost = [flow[w] for w in losing]
            theta = min(lost)
            # Bland-style leaving choice: among the minimizing arcs take the
            # smallest variable index.
            tie = theta + 1e-13 * (1.0 + theta)
            cut = min([w for w, f in zip(losing, lost) if f <= tie], key=arc.__getitem__)
            for w, f in zip(losing, lost):
                f -= theta
                flow[w] = 0.0 if f < 0.0 else f  # max(f, 0.0), without the call
            for w in from_row[1::2] + from_col[1::2]:
                flow[w] += theta
            in_basis[arc[cut]] = False
            in_basis[enter] = True
            if cut in from_row:
                tree.exchange(enter, C.item(enter), theta, i, n + j, cut)
            else:
                tree.exchange(enter, C.item(enter), theta, n + j, i, cut)
            pivots += 1
            if theta <= 1e-13:
                degenerate_run += 1
                if degenerate_run > 25:
                    bland = True
            else:
                degenerate_run = 0

    # One clean pass from the leaves removes drift accumulated by the updates.
    rest = tree.peel(mu.tolist() + nu_eff.tolist())
    gamma = np.zeros(n * n)
    gamma[arc[:tree.root]] = rest[:tree.root]
    if gamma.min() < -1e-8:
        raise NumericalBlowupError(
            f"simplex basis lost feasibility (min {gamma.min():.2e})"
        )
    gamma = np.maximum(gamma, 0.0).reshape(n, n)
    value = float((C * gamma).sum())
    coupling = Coupling(gamma, mu, nu_eff)
    return ExactResult(coupling, value, u, v, pivots)


def solve_brute_force(cost: CostMatrix, mu: np.ndarray, nu: np.ndarray):
    """Minimize over every vertex of the transport polytope (n <= 4).

    Enumerates all candidate bases (supports of size 2n-1) and solves their
    square systems in one stacked call. The constraint matrix is totally
    unimodular, so every support's determinant is 0 or +-1 and the
    supports with |det| > 0.5 are exactly the bases. Keeps the best
    feasible basic solution, the lowest-index support on ties. Exponential
    in n; used as the independent optimality reference for the simplex.
    """
    from itertools import combinations

    mu, nu = _check_marginals(cost.n, mu, nu)
    n = cost.n
    if n > 4:
        raise SizeMismatchError(f"brute force is limited to n <= 4, got {n}")
    nu_eff, b_vec = _equality_rhs(mu, nu)
    cols = np.column_stack([_constraint_column(k, n) for k in range(n * n)])
    supports = np.array(list(combinations(range(n * n), 2 * n - 1)))
    A = np.moveaxis(cols[:, supports], 1, 0)
    bases = np.abs(np.linalg.det(A)) > 0.5
    supports, A = supports[bases], A[bases]
    x = np.linalg.solve(A, np.broadcast_to(b_vec, (len(A), len(b_vec)))[..., None])[..., 0]
    residual = np.abs(np.einsum("sij,sj->si", A, x) - b_vec).max(axis=1)
    feasible = np.isfinite(x).all(axis=1) & (residual <= 1e-9) & (x.min(axis=1) >= -1e-10)
    if not feasible.any():
        raise NumericalBlowupError("vertex enumeration found no feasible basis")
    values = np.where(feasible, np.einsum("si,si->s", cost.values.ravel()[supports], x), np.inf)
    best = int(np.argmin(values))
    gamma = np.zeros(n * n)
    gamma[supports[best]] = np.maximum(x[best], 0.0)
    return gamma.reshape(n, n), float(values[best])


@dataclass(frozen=True)
class EntropicResult:
    coupling: Coupling
    value: float
    iterations: int
    converged: bool
    marginal_violation: float


def solve_entropic(cost: CostMatrix, mu: np.ndarray, nu: np.ndarray,
                   eps: float) -> EntropicResult:
    """Entropically regularized plan by log-domain alternating scaling.

    The loop runs on the marginals' support, the rows with mu > 0 and the
    columns with nu > 0 (masses a and b, cost C there); the plan is zero
    elsewhere. Each iteration makes two passes,
    f = eps (log a - lse_row((g - C)/eps)) and
    g = eps (log b - lse_col((f - C)/eps)), then reads its stop from the
    next iteration's row log-sums: the plan exp((f + g - C)/eps) has row
    sums exp(f/eps + lse_row((g - C)/eps)). It stops once their L1 distance
    to a is below ENTROPIC_TOL, or after ENTROPIC_MAX_ITERS iterations, and
    builds the plan once, after the loop. On the support every potential is
    finite, and after a column update each plan entry is at most its column
    mass, so no guard against empty cells or overflow is needed. An empty
    support (zero total mass) gives the zero plan, 1 iteration and
    violation sum(mu) without entering the loop.

    The reported value is <c, gamma> without the entropy term. On
    nonconvergence the last iterate is returned with converged=False instead
    of raising. eps must be positive and finite.
    """
    check_positive(eps, "eps")
    mu, nu = _check_marginals(cost.n, mu, nu)
    C = cost.values
    gamma = np.zeros_like(C)
    rows, cols = np.flatnonzero(mu > 0.0), np.flatnonzero(nu > 0.0)
    it, violation = 1, float(mu.sum())
    if rows.size and cols.size:
        support = np.ix_(rows, cols)
        Cs, a = C[support], mu[rows]
        log_a, log_b = np.log(a), np.log(nu[cols])
        g = np.zeros(cols.size)
        lse = logsumexp((g[None, :] - Cs) / eps, axis=1)
        for it in range(1, ENTROPIC_MAX_ITERS + 1):
            f = eps * (log_a - lse)
            g = eps * (log_b - logsumexp((f[:, None] - Cs) / eps, axis=0))
            lse = logsumexp((g[None, :] - Cs) / eps, axis=1)
            violation = float(np.abs(np.exp(f / eps + lse) - a).sum())
            if violation < ENTROPIC_TOL:
                break
        gamma[support] = np.exp((f[:, None] + g[None, :] - Cs) / eps)
    converged = violation < ENTROPIC_TOL
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
    for the convex cost |x - y|^p in one dimension. It is 0 where either
    total is 0.
    """
    if not 1.0 <= p_const < math.inf:
        raise NonpositiveParameterError(f"exponent must be finite and >= 1, got {p_const}")
    a, b = _check_marginals(g.n_cells, mu.mass, nu.mass)
    ta = a.sum()
    if min(ta, b.sum()) <= 0.0:
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
    of smearing. The totals of mu and nu must agree; the result carries
    that of mu, and requires unit mass when both inputs do. Where either
    total is 0, it is mu itself.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidParameterError(
            f"interpolation parameter must lie in [0, 1], got {t}")
    a, b = _check_marginals(g.n_cells, mu.mass, nu.mass)
    total = a.sum()
    if min(total, b.sum()) <= 0.0:
        return mu
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
    unit = mu.require_unit_mass and nu.require_unit_mass
    return DensityField(masses if unit else masses * total, require_unit_mass=unit)
