"""Minimizing-movement time stepping driven by the transport cost.

One step solves the joint convex program

    min over gamma >= 0 with row sums m_prev:
        <c, gamma> + sum_j dx * G(colsum_j / dx)

whose column sums define the new density. Three backends are available:

``mirror``     multiplicative (entropic mirror) updates on the rows, the
               default; deterministic from a uniform-row start. Its trials
               run on the plan entries that have not underflowed to 0.0.
``projected``  projected gradient with exact per-row simplex projection, a
               slower independent check of the same program.
``entropic``   adds an eps * KL(gamma | uniform-row) smoothing and solves the
               dual by block ascent. The smoothing lets mass leave its cell
               even when every discrete move costs more than the energy gain,
               which is the regime h * |grad G'(rho)|^(q-1) << dx where the
               unregularized optimum is the stay-put plan and the discrete
               flow would freeze. The price is a diffusive bias of order eps.

The mirror and projected backends run the same Armijo descent driver and
differ only in the trial map that the loop gets from them once per
iteration. A trial returns the candidate plan, in the backend's own form,
with its column sums and cost, which is all the driver reads of it; the
backend hands back the dense plan at the end. Both finish with a
stay-put comparison: if the diagonal plan beats the iterate, the diagonal
is returned, so the energy can never increase across a step.

The entropic backend's column equation is the proximal map of the energy
(Peyre, SIAM J. Imaging Sci. 2015). With uniform temperatures and the
builtin entropy it has a closed form, which the energy model carries as
log_prox. Every other energy, and every solve with per-row temperatures,
takes safeguarded Newton steps in the shared root finder _kernels.bisect,
which closes each bracket to the adjacent doubles that plain halving would
reach. The cost, the per-row temperatures, the reflected log kernel and the
kernel itself depend only on the grid, p, h, eps and smoothing, so
_step_plan builds them once and a flow reuses them for every step.

With one temperature for every row, the row and column log-sums of the
dual ascent are products of that kernel with a vector, shifted by the
vector's maximum (the scaling form of stabilized Sinkhorn, Schmitzer, SIAM
J. Sci. Comput. 2019), instead of two n-by-n log-sum-exps. A product is
used only when each of its sums is at least e^-600; the terms it loses to
underflow are below about e^-708, so its relative error is at most
n e^-108. Otherwise that half-iteration takes the log-sum-exp.

Each dual iteration is one application of a fixed-point map phi -> T(phi)
on the column potential, with or without the kernel products. The loop
does not iterate T plainly; it takes Anderson (type-II) steps, which
extrapolate from the last five differences of T and of the residual
T(phi) - phi (Walker & Ni, SIAM J. Numer. Anal. 2011). A residual that
grows tenfold clears that history, and an extrapolation that is not
finite gives way to the plain step. The loop stops on the plain residual,
max |T(phi) - phi| <= 3e-14 (1 + max |T(phi)|), and returns the plain
iterate T(phi). On the README compare flow this takes 800 dual iterations
where the plain loop took 6678.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import transport
from ._kernels import bisect, logsumexp
from .energy import RHO_FLOOR, EnergyModel, total_energy
from .errors import (InvalidParameterError, NumericalBlowupError, SizeMismatchError,
                     check_count, check_nonnegative, check_positive)
from .grid import Grid, gradient, neighbor_mean
from .varexp import DensityField, ExponentField, conjugate

VALID_BACKENDS = ("mirror", "projected", "entropic")


@dataclass(frozen=True)
class JkoOptions:
    """Solver knobs for a single step.

    max_iters caps every backend's iterations. tol is read only by the
    Armijo stop of the mirror and projected backends; the entropic backend
    stops on its own relative dual residual (_DUAL_RTOL) and ignores it.
    eps and smoothing only matter for the entropic backend. eps is a uniform
    temperature; smoothing, when set, is a length: the standard deviation of
    the blur each row's Gibbs kernel applies per step, measured on the
    displacement lattice. Each row gets its own temperature chosen so its
    kernel hits that moment exactly, so the per-step blur is uniform even
    when p varies. Without this, rows with larger exponents have much
    narrower kernels and the uneven blur drifts mass sideways.

    With exact_coupling=True the returned coupling is re-derived by the exact
    transport solver between the previous masses and the new ones, which is
    what the step's el_residual expects.
    """

    backend: str = "mirror"
    eps: float = 0.5
    smoothing: float | None = None
    max_iters: int = 20_000
    tol: float = 1e-9
    exact_coupling: bool = True

    def __post_init__(self):
        if self.backend not in VALID_BACKENDS:
            raise InvalidParameterError(
                f"backend must be one of {VALID_BACKENDS}, got {self.backend!r}"
            )
        check_positive(self.eps, "eps")
        if self.smoothing is not None:
            check_positive(self.smoothing, "smoothing length")
        check_count(self.max_iters, "max_iters")
        check_positive(self.tol, "tol")


@dataclass(frozen=True)
class JkoStepResult:
    rho_next: DensityField
    coupling: transport.Coupling
    transport_cost: float
    energy_before: float
    energy_after: float
    el_residual: float
    iterations: int
    converged: bool
    coupling_is_exact: bool
    mass_error: float


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-constant-in-time sequence of density states.

    times[k] is the left endpoint of the k-th interval, a finite step after
    times[k-1], and every time is finite; states[k] the density there.
    steps holds the per-step diagnostics when the trajectory came from
    run_flow (None for externally assembled trajectories).
    """

    times: np.ndarray
    states: list
    steps: list | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size != len(self.states):
            raise SizeMismatchError(
                f"times (len {t.size}) and states (len {len(self.states)}) disagree"
            )
        if not self.states:
            raise SizeMismatchError("trajectory is empty")
        check_positive(np.diff(t), "trajectory time steps")
        # finite steps from a finite start keep every time finite
        if not abs(t[0]) < math.inf:
            raise InvalidParameterError(f"trajectory start time must be finite, got {t[0]}")
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def final(self) -> DensityField:
        return self.states[-1]


def _uniform_rows(mu: np.ndarray) -> np.ndarray:
    n = mu.size
    return np.outer(mu, np.full(n, 1.0 / n))


def _rescale_rows(gam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """gam with its rows scaled to the masses mu, empty rows left at 0."""
    rs = gam.sum(axis=1)
    return gam * np.divide(mu, rs, out=np.zeros_like(rs), where=rs > 0.0)[:, None]


def _armijo_descent(C, mu, e, dx, opts, direction):
    """Armijo-checked descent on <C, gam> + dx sum_j G(col_j / dx) from the
    uniform-row start.

    direction(C, gam, mu) takes the start and returns (plan, trials,
    dense): the start in the direction's own form, trials(plan, slope),
    run once per iteration with the slope G'(col / dx) of the current plan,
    and dense(plan), the n-by-n array of a plan. trials returns trial(eta)
    -> (candidate plan, its column sums, its cost <C, cand>) for step size
    eta. A candidate is accepted once it gains at least 1e-4 of its
    linearized decrease <gam - cand, grad>, otherwise eta is halved. The
    run counts as converged when no step size down to 1e-16 is accepted,
    or after three consecutive steps whose drop is below opts.tol relative
    to the objective.

    The accepted plan's column sums give the next gradient C + G'(col / dx)
    without another pass over the plan, and with its cost they give
    <gam, grad> = <C, gam> + col . G'. So a trial's work is the candidate,
    its column sums and its cost. Returns the dense plan, its objective, the
    iteration count and the converged flag.
    """
    gam = _uniform_rows(mu)
    col = gam.sum(axis=0)
    cost = float(np.vdot(C, gam))
    f_cur = cost + float(dx * e.value(col / dx).sum())
    plan, trials, dense = direction(C, gam, mu)
    eta = 1.0 / (1.0 + np.abs(C).max())
    quiet = 0
    converged = False
    it = 0
    for it in range(1, opts.max_iters + 1):
        slope = e.deriv(col / dx)
        lin_cur = cost + float(col @ slope)
        trial = trials(plan, slope)
        accepted = False
        while eta >= 1e-16:
            cand, cand_col, cand_cost = trial(eta)
            f_cand = cand_cost + float(dx * e.value(cand_col / dx).sum())
            lin_gain = lin_cur - (cand_cost + float(cand_col @ slope))
            if f_cand <= f_cur - 1e-4 * max(lin_gain, 0.0) + 1e-15 * (1.0 + abs(f_cur)):
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            converged = True
            break
        drop = f_cur - f_cand
        plan, col, cost, f_cur = cand, cand_col, cand_cost, f_cand
        eta = min(eta * 1.3, 1e6)
        if drop <= opts.tol * max(1.0, abs(f_cur)):
            quiet += 1
            if quiet >= 3:
                converged = True
                break
        else:
            quiet = 0
    return dense(plan), f_cur, it, converged


def _mirror_direction(C, gam, mu):
    """Multiplicative (entropic mirror) steps on each row, on the plan's
    live support.

    A trial is gam * exp(-eta z) rescaled to the row masses, z >= 0 being
    the gradient shifted to a zero minimum in each row. An entry that
    reaches 0.0 stays 0.0 for the rest of the step, so a plan is kept as
    its live entries: the nonzero ones, row-major, with their flat indices,
    columns, costs and row segments. Row sums are segment sums, column sums
    a weighted count over the columns (in row order, as gam.sum(axis=0)
    adds them), and the cost a dot with the live costs.

    z is built once per iteration and shifted by the minimum over each
    row's live entries, the dead ones reading +inf. Where a row's minimizer
    is live this is the full-row z bit for bit; elsewhere the two differ by
    a row constant that the rescale cancels. Either way each row keeps a
    factor of exactly 1, so its sum is positive and a positive row cannot
    underflow to empty. Dead entries are dropped once more than 1/8 of the
    kept ones are dead, and dense scatters a plan into an n-by-n array.
    """
    shape = gam.shape
    C = C.ravel()

    def live(idx, vals):
        rows = idx // shape[1]
        first = np.ones(idx.size, dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        starts = np.flatnonzero(first)
        return vals, (idx, idx % shape[1], C[idx], starts, np.cumsum(first) - 1,
                      mu[rows[starts]])

    def trials(plan, slope):
        vals, sup = plan
        dead = vals.size - np.count_nonzero(vals)
        if 8 * dead > vals.size:
            keep = np.flatnonzero(vals)
            vals, sup = live(sup[0][keep], vals[keep])
            dead = 0
        _, cols, c, starts, seg, mu_seg = sup
        z = c + slope[cols]
        if dead:
            z[vals == 0.0] = np.inf
        z -= np.minimum.reduceat(z, starts)[seg]

        def trial(eta):
            w = np.multiply(z, -eta)
            np.exp(w, out=w)
            w *= vals
            w *= (mu_seg / np.add.reduceat(w, starts))[seg]
            col = np.bincount(cols, weights=w, minlength=shape[1])
            return (w, sup), col, float(c @ w)

        return trial

    def dense(plan):
        vals, sup = plan
        out = np.zeros(shape)
        np.put(out, sup[0], vals)
        return out

    idx = np.flatnonzero(gam)
    return live(idx, gam.ravel()[idx]), trials, dense


def _projected_direction(C, gam, mu):
    """Gradient steps, each followed by the Euclidean projection of each row
    onto the scaled simplex of mass mu[i], on the dense plan.

    The column sums are out.sum(axis=0), not a product with a ones vector.
    They set the next gradient, and the projection's support follows its
    last bits: with the product, some of the reference tests' iteration
    counts change.
    """
    n = gam.shape[1]
    pos = mu > 0.0
    mp = mu[pos]
    rows = np.arange(mp.size)
    k = np.arange(1, n + 1)

    def trials(gam, slope):
        grad = C + slope[None, :]

        def trial(eta):
            y = gam - eta * grad
            out = np.zeros_like(y)
            if mp.size:
                yp = y[pos]
                u = np.sort(yp, axis=1)[:, ::-1]
                css = np.cumsum(u, axis=1) - mp[:, None]
                rho_idx = np.count_nonzero(u - css / k > 0.0, axis=1)
                tau = css[rows, rho_idx - 1] / rho_idx
                out[pos] = np.maximum(yp - tau[:, None], 0.0)
            return out, out.sum(axis=0), float(np.vdot(C, out))

        return trial

    return gam, trials, lambda gam: gam


def _solve_column_scalar(log_target: np.ndarray, e: EnergyModel, dx: float,
                         eps: float, start: np.ndarray | None = None) -> np.ndarray:
    """Solve sigma + G'(exp(sigma)/dx)/eps = log_target per column, in sigma = log s.

    An energy whose closed-form root is known (e.log_prox, for the
    builtin entropy, where the equation is linear in sigma on each side of
    the RHO_FLOOR clamp) returns it directly. For every other energy the
    left side is strictly increasing in sigma (G is convex), with slope
    1 + G''(t) t / eps at t = exp(sigma)/dx, so the safeguarded Newton steps
    of bisect converge unconditionally. The bracket starts at start +- 1,
    by default log_target +- 1; the dual ascent passes the previous
    iteration's roots, which saves the bracket growth when the default
    start is far from the root. Far above the root exp(sigma)/dx or G'
    overflows silently; the value is then +inf, read as above the root, and
    the finder halves where the Newton step is not finite.
    """
    if e.log_prox is not None:
        return e.log_prox(log_target, dx, eps)

    def f(sig):
        t = np.exp(sig) / dx
        return (sig + e.deriv(t) / eps - log_target,
                1.0 + _clamped_curvature(e, t) / eps)

    start = log_target if start is None else start
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = bisect(f, start - 1.0, start + 1.0)
    return 0.5 * (lo + hi)


def _clamped_curvature(e: EnergyModel, t: np.ndarray) -> np.ndarray:
    """d G'(t) / d log t of the clamped slope: G''(t) t, and 0 at or below RHO_FLOOR."""
    return np.where(t > RHO_FLOOR, e.second(t) * t, 0.0)


def _solve_columns_mixed(W: np.ndarray, eps_vec: np.ndarray, e: EnergyModel,
                         dx: float, start: np.ndarray | None = None) -> np.ndarray:
    """Solve sigma_j = log sum_i exp(W_ij - G'(exp(sigma_j)/dx)/eps_i) per column.

    This is the column stationarity condition when rows carry individual
    temperatures. The left-minus-right function is strictly increasing in
    sigma_j, with slope 1 + (sum_i w_ij / eps_i) G''(t_j) t_j, where w is
    the column softmax of W_ij - G'(t_j)/eps_i. One n-by-n pass gives the
    value and, from the same exponentials, that slope, so bisect takes
    safeguarded Newton steps over all columns at once. The bracket starts
    at start +- 1, by default at the column log-sum-exp of W.
    """
    inv_eps = 1.0 / eps_vec

    def f(sig):
        t = np.exp(sig) / dx
        lse, w = logsumexp(W - e.deriv(t)[None, :] / eps_vec[:, None],
                                      axis=0, weights=True)
        return sig - lse, 1.0 + (inv_eps @ w) * _clamped_curvature(e, t)

    start = logsumexp(W.T, axis=1) if start is None else start
    lo, hi = bisect(f, start - 1.0, start + 1.0)
    return 0.5 * (lo + hi)


def _entropic_temperatures(opts: JkoOptions, p: ExponentField, h: float,
                           n: int, dx: float) -> np.ndarray:
    """Per-row temperatures for the entropic backend.

    Without smoothing every row shares opts.eps. With smoothing set, each
    row's temperature is chosen so that its untilted Gibbs kernel
    exp(-|k dx|^p_i / (p_i h^(p_i-1) eps_i)) has second moment smoothing^2
    on the displacement lattice k in (1-n, n). Matching the measured moment
    rather than a nominal width keeps the per-step blur uniform across rows
    whose exponents, and hence kernel shapes, differ; unequal blur acts as a
    spurious drift toward the wider-kernel side and can push mass uphill.
    """
    if opts.smoothing is None:
        return np.full(n, opts.eps)
    target = opts.smoothing**2
    disp = dx * np.arange(1 - n, n)
    d2 = disp * disp
    cap = float(d2.mean())
    if target >= 0.9 * cap:
        raise NumericalBlowupError(
            f"smoothing {opts.smoothing:g} is too wide for this grid: the "
            f"kernel second moment saturates at {cap:g}"
        )
    pv = p.values[:, None]
    # Cost of each lattice displacement, per row. eps enters only as a divisor,
    # so the moment increases in log eps, with slope Cov_w(d2, a) / eps.
    a = np.abs(disp)[None, :] ** pv / (pv * h ** (pv - 1.0))

    def excess(log_eps: np.ndarray):
        eps = np.exp(log_eps)
        w = np.exp(-a / eps[:, None])
        total = w.sum(axis=1)
        moment = (d2[None, :] * w).sum(axis=1) / total
        return (moment - target,
                ((d2 - moment[:, None]) * a * w).sum(axis=1) / (total * eps))

    # Continuum width sqrt(target) is the right scale; bracket around it in
    # log eps and return the geometric midpoint of the final eps bracket.
    guess = np.log(opts.smoothing ** pv[:, 0] / (pv[:, 0] * h ** (pv[:, 0] - 1.0)))
    lo, hi = bisect(excess, guess - 1.0, guess + 1.0)
    return np.sqrt(np.exp(lo) * np.exp(hi))


def _log_reference(g: Grid, p: ExponentField, h: float,
                   eps_vec: np.ndarray) -> np.ndarray:
    """Log of the wall-reflected Gibbs reference kernel, row-scaled by eps.

    The free-space kernel exp(-c_ij / eps_i) loses the mass of displacements
    that land outside the domain. Near a wall that loss is one-sided, and at
    temperatures where the energy term is weak (wide kernels, large p) the
    potentials cannot compensate, so mass piles up a cell or two inside the
    wall. Folding each out-of-domain displacement back through the wall, the
    image construction for reflecting boundaries, restores a kernel whose
    untilted action preserves uniform densities. Entry ij sums the direct
    path and one image through each wall.
    """
    x = g.centers
    pv = p.values[:, None]
    denom = pv * h ** (pv - 1.0) * eps_vec[:, None]
    d0 = np.abs(x[None, :] - x[:, None])
    d_left = (x[:, None] - g.a) + (x[None, :] - g.a)
    d_right = (g.b - x[:, None]) + (g.b - x[None, :])
    t0 = -(d0**pv) / denom
    t_left = -(d_left**pv) / denom
    t_right = -(d_right**pv) / denom
    return np.logaddexp(t0, np.logaddexp(t_left, t_right))


#: Step plans by content key, least recently used first; see _step_plan.
_PLANS: dict = {}
_PLAN_SLOTS = 4

#: Smallest kernel-product sum the uniform dual ascent accepts; see
#: _entropic_backend.
_SUM_FLOOR = math.exp(-600.0)


def _step_plan(g: Grid, p: ExponentField, h: float, opts: JkoOptions):
    """(cost, eps_vec, log_ref, kernel) of a step: what stays fixed through a flow.

    The cost depends only on the grid, p and h; the entropic temperatures,
    the reflected log kernel and the kernel exp(log_ref) itself also on eps
    and smoothing (for the other backends the last three are None). The
    uniform-temperature dual ascent multiplies by the kernel; its entries
    below about e^-708 underflow, which the e^-600 sum floor of that
    product keeps at rounding level. A plan is kept under the content of
    those inputs, not their identity, so an in-place edit of p.values gets
    a fresh plan. The _PLAN_SLOTS most recently used plans are kept, enough
    for callers that alternate backends or step sizes on one grid. The
    arrays are shared by every step that uses the plan, so they are
    read-only.
    """
    entropic = opts.backend == "entropic"
    key = (g.a, g.b, g.n_cells, h, p.values.tobytes(),
           (opts.eps, opts.smoothing) if entropic else None)
    plan = _PLANS.pop(key, None)
    if plan is None:
        cost = transport.build_cost(g, p, h)
        eps_vec = log_ref = kernel = None
        if entropic:
            eps_vec = _entropic_temperatures(opts, p, h, g.n_cells, g.dx)
            log_ref = _log_reference(g, p, h, eps_vec)
            kernel = np.exp(log_ref)
        for arr in (cost.values, eps_vec, log_ref, kernel):
            if arr is not None:
                arr.setflags(write=False)
        plan = (cost, eps_vec, log_ref, kernel)
    _PLANS[key] = plan
    while len(_PLANS) > _PLAN_SLOTS:
        del _PLANS[next(iter(_PLANS))]
    return plan


def _log_kernel_product(kernel: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """log(kernel @ exp(x)), shifted by the largest finite x; None on underflow.

    Entries of x at -inf contribute exactly 0. None, which sends the caller
    to the log-sum-exp, means that some sum is not finite or is below
    _SUM_FLOOR, where the terms lost to underflow could show.
    """
    shift = x.max(where=np.isfinite(x), initial=-np.inf)
    sums = kernel @ np.exp(x - shift)
    if not (sums.min() >= _SUM_FLOOR and sums.max() < math.inf):
        return None
    return np.log(sums) + shift


#: Anderson mixing of the dual fixed point; see _AndersonMixer. The number
#: of differences kept, the residual growth that clears them, and the share
#: of a difference that must lie outside the span of the newer ones.
_MIX_DEPTH = 5
_MIX_RESTART = 10.0
_MIX_KEEP = 1e-6

#: The dual ascent stops once max |T(phi) - phi| <= _DUAL_RTOL (1 + max |T(phi)|).
_DUAL_RTOL = 3e-14


class _AndersonMixer:
    """Type-II Anderson mixing of a fixed-point iteration x -> T(x) in R^n.

    Walker & Ni, SIAM J. Numer. Anal. 2011. Each call takes T(x) and the
    residual f = T(x) - x and returns the next x, T(x) - dG^T gamma: the
    rows of dF and dG are the differences of the last _MIX_DEPTH + 1
    residuals and T values, newest first, and gamma minimizes
    |f - dF^T gamma|. The least squares is Gram-Schmidt in matrix form: a
    Cholesky factorization, in plain Python, of the at most 5-by-5 Gram
    matrix of dF. Its pivots are the squared parts of each difference
    outside the span of the newer ones; a difference with less than
    _MIX_KEEP of its norm there is dropped with every older one. A residual
    that is not finite or grows by more than _MIX_RESTART clears the
    history, and the plain step T(x) is taken then and whenever the
    extrapolation is not finite.
    """

    def __init__(self, n: int):
        self.diffs = np.zeros((_MIX_DEPTH, 2, n))  # [k] = (dF row k, dG row k)
        self.depth = 0
        self.prev = None

    def __call__(self, gx, f, size):
        """The next iterate from gx = T(x), f = T(x) - x and size = max |f|."""
        prev, self.prev = self.prev, (gx, f, size)
        if prev is None or not size <= _MIX_RESTART * prev[2]:
            self.depth = 0
            return gx
        diffs = self.diffs
        diffs[1:] = diffs[:-1]
        k = min(self.depth + 1, _MIX_DEPTH)
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(f, prev[1], out=diffs[0, 0])
            np.subtract(gx, prev[0], out=diffs[0, 1])
            low = []
            for row in (diffs[:k, 0] @ diffs[:k, 0].T).tolist():
                j = len(low)
                pivot = row[j]
                for v in _forward(row, low)[:j]:
                    pivot -= v * v
                if not pivot > _MIX_KEEP**2 * row[j]:
                    break
                row[j] = math.sqrt(pivot)
                low.append(row)
            k = self.depth = len(low)
            if k == 0:
                return gx
            gamma = _forward((diffs[:k, 0] @ f).tolist(), low)
            for j in reversed(range(k)):
                for i in range(j + 1, k):
                    gamma[j] -= low[i][j] * gamma[i]
                gamma[j] /= low[j][j]
            x = gx - np.dot(gamma, diffs[:k, 1])
        return x if np.isfinite(x).all() else gx


def _forward(row: list, low: list) -> list:
    """Solve L y = row[:len(low)] in place, the rows of lower triangular L being low."""
    for i, above in enumerate(low):
        v = row[i]
        for t in range(i):
            v -= row[t] * above[t]
        row[i] = v / above[i]
    return row


def _entropic_backend(log_ref, kernel, mu, e, dx, opts, eps_vec):
    """Dual block ascent for the KL-smoothed joint program.

    Maximizes the regularized dual by alternating the closed-form row
    potential update with a per-column scalar equation for the new masses.
    The primal iterate gamma_ij = exp(u_i / eps_i + log_ref_ij - G'(s_j/dx)
    / eps_i) has exact row marginals after each row update, log_ref being
    the wall-reflected reference from _log_reference.

    With one temperature eps for every row the Gibbs tilt is rank one, so
    both half-iterations are products of the fixed kernel exp(log_ref)
    with a vector: the row log-sums are log(K @ exp(-phi/eps)) and the
    column ones log(K.T @ exp(u/eps)), the scaling form of stabilized
    Sinkhorn (Schmitzer, SIAM J. Sci. Comput. 2019). A half-iteration
    whose product has a sum below e^-600, the underflow guard of
    _log_kernel_product, takes the n-by-n log-sum-exp instead; above it,
    the terms lost to underflow move a log by at most n e^-108 relative.
    The column equation is then separable, closed form when the energy
    provides it. Per-row temperatures make exp(log_ref_ij - phi_j/eps_i) a
    full-rank tilt, so they stay in the log domain, with the mixed column
    solve.

    One iteration maps the column potential phi to T(phi), G' at the new
    column masses. The next phi is not T(phi) but the _AndersonMixer step
    from it: an extrapolation over the last _MIX_DEPTH differences of T
    and of the residual T(phi) - phi, the plain T(phi) after a restart
    (a residual that is not finite or grew more than _MIX_RESTART-fold)
    or when the extrapolation is not finite. Any finite phi is a valid
    input of T. The stop test is on the plain residual, max |T(phi) - phi|
    <= _DUAL_RTOL (1 + max |T(phi)|), and the plan is built from the plain
    iterate T(phi), with the row potential of the phi it came from, and
    rescaled to the exact row masses. The relative stop is 3e-14 rather
    than the 1e-12 of the plain loop: it puts the test suite's sweep,
    vacuum and README flows within 2.3e-13 of the same flows converged to
    1e-15, where 1e-13 left the eps=0.005 vacuum flow 1.3e-12 off.

    Each Newton column solve starts from the previous iteration's roots.
    The start does not change the answer wherever the column function is
    monotone in floating point: the finder closes on the same adjacent
    doubles from any bracket that holds the root. Zero total mass has only
    the zero plan, returned without entering the dual loop, whose
    potentials are all -inf there.
    """
    n = mu.size
    if mu.sum() == 0.0:
        return np.zeros((n, n)), 0, True
    uniform = bool(np.all(eps_vec == eps_vec[0]))
    eps0 = float(eps_vec[0])
    epsr = eps_vec[:, None]
    with np.errstate(divide="ignore"):
        log_mu = np.log(mu)
    phi = e.deriv(mu / dx)  # G' at the previous density, a natural warm start
    neg_c = log_ref
    u = np.zeros(n)
    sigma = None
    mix = _AndersonMixer(n)
    plain = phi
    converged = False
    it = 0
    for it in range(1, opts.max_iters + 1):
        lse = _log_kernel_product(kernel, -phi / eps0) if uniform else None
        if lse is None:
            lse = logsumexp(neg_c - phi[None, :] / epsr, axis=1)
        u = eps_vec * (log_mu - lse)
        u = np.where(np.isfinite(log_mu), u, -np.inf)
        if uniform:
            log_col = _log_kernel_product(kernel.T, u / eps0)
            if log_col is None:
                with np.errstate(invalid="ignore"):
                    w_log = u[:, None] / epsr + neg_c
                log_col = logsumexp(w_log.T, axis=1)
            sigma = _solve_column_scalar(log_col, e, dx, eps0, sigma)
        else:
            with np.errstate(invalid="ignore"):
                w_log = u[:, None] / epsr + neg_c
            sigma = _solve_columns_mixed(w_log, eps_vec, e, dx, sigma)
        plain = e.deriv(np.exp(sigma) / dx)
        res = plain - phi
        delta = float(np.abs(res).max())
        if delta <= _DUAL_RTOL * (1.0 + float(np.abs(plain).max())):
            converged = True
            break
        phi = mix(plain, res, delta)
    with np.errstate(invalid="ignore"):
        gam = np.exp(u[:, None] / epsr + neg_c - plain[None, :] / epsr)
    gam = np.nan_to_num(gam, nan=0.0)
    gam = _rescale_rows(gam, mu)
    return gam, it, converged


def jko_step(rho_prev: DensityField, e: EnergyModel, p: ExponentField, h: float,
             g: Grid, opts: JkoOptions | None = None) -> JkoStepResult:
    """One implicit step of the minimizing-movement scheme.

    Solves the joint program for the chosen backend, reads the new density
    off the column sums, and packages diagnostics. The reported coupling is
    the exact plan between the old and new masses when opts.exact_coupling
    is set (the default), otherwise the solver iterate itself.
    """
    check_positive(h, "step size h")
    opts = opts or JkoOptions()
    mu = g.check_cell_field(rho_prev.mass, "previous mass")
    cost, eps_vec, log_ref, kernel = _step_plan(g, p, h, opts)
    C = cost.values
    dx = g.dx
    e_before = total_energy(rho_prev, e, g)

    if opts.backend == "entropic":
        gam, iters, converged = _entropic_backend(log_ref, kernel, mu, e, dx,
                                                  opts, eps_vec)
    else:
        direction = (_mirror_direction if opts.backend == "mirror"
                     else _projected_direction)
        gam, f_iter, iters, converged = _armijo_descent(C, mu, e, dx, opts,
                                                        direction)
        # Stay-put comparison: the diagonal plan costs nothing and keeps the
        # old energy, so accepting the better of the two makes the step
        # objective, and with it the energy, provably nonincreasing. Its
        # objective dx * sum G(mu / dx) has the bits of e_before.
        if e_before < f_iter:
            gam = np.diag(mu)

    m_next = gam.sum(axis=0)
    mass_error = float(abs(m_next.sum() - mu.sum()))
    if m_next.sum() > 0.0:
        m_next = m_next * (mu.sum() / m_next.sum())
    rho_next = DensityField(m_next, require_unit_mass=rho_prev.require_unit_mass)

    if opts.exact_coupling:
        exact = transport.solve_exact(cost, mu, m_next)
        coupling = exact.coupling
        cost_value = exact.value
        is_exact = True
    else:
        coupling = transport.Coupling(gam, mu, gam.sum(axis=0))
        cost_value = float((C * gam).sum())
        is_exact = False

    e_after = total_energy(rho_next, e, g)
    residual = _residual_of(coupling, rho_next, e, p, h, g)
    return JkoStepResult(
        rho_next=rho_next,
        coupling=coupling,
        transport_cost=cost_value,
        energy_before=e_before,
        energy_after=e_after,
        el_residual=residual,
        iterations=iters,
        converged=converged,
        coupling_is_exact=is_exact,
        mass_error=mass_error,
    )


def run_flow(rho0: DensityField, e: EnergyModel, p: ExponentField, h: float,
             t_end: float, g: Grid, opts: JkoOptions | None = None) -> Trajectory:
    """ceil(t_end / h) successive steps from rho0.

    t_end = 0 yields the single-state trajectory. A failing step re-raises
    its own exception, with "step k: " prepended to the message when the
    first argument is a string; type, attributes and traceback are kept.
    jko_step is a deterministic function of its inputs, so once a step
    returns its input masses bit for bit (the stay-put plan won), that step
    result is reused for every remaining step instead of being solved again.
    """
    check_nonnegative(t_end, "t_end")
    check_positive(h, "step size h")
    n_steps = max(0, math.ceil(t_end / h - 1e-9))
    states = [rho0]
    steps = []
    previous, current = None, rho0
    for k in range(1, n_steps + 1):
        if previous is None or current.mass.tobytes() != previous.mass.tobytes():
            try:
                step = jko_step(current, e, p, h, g, opts)
            except Exception as exc:
                if exc.args and isinstance(exc.args[0], str):
                    exc.args = (f"step {k}: {exc.args[0]}",) + exc.args[1:]
                raise
        previous, current = current, step.rho_next
        states.append(current)
        steps.append(step)
    times = h * np.arange(n_steps + 1, dtype=float)
    return Trajectory(times=times, states=states, steps=steps)


def _cell_slope(rho: DensityField, e: EnergyModel, g: Grid) -> np.ndarray:
    """Face slopes of G'(rho), zero on the walls, averaged onto the cells."""
    return neighbor_mean(gradient(e.deriv(rho.density(g)), g))


def _predicted_displacement(rho_next: DensityField, e: EnergyModel,
                            p: ExponentField, h: float, g: Grid) -> np.ndarray:
    """Cell-averaged displacement -h |grad G'(rho)|^(q-2) grad G'(rho).

    The sign makes the prediction point down the slope of G'(rho), which is
    the direction the optimality condition of the step problem moves mass.
    q is the pointwise conjugate of p.
    """
    s_cell = _cell_slope(rho_next, e, g)
    q = conjugate(p).values
    mag = np.abs(s_cell)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_hat = np.where(mag > 0.0, -h * mag ** (q - 2.0) * s_cell, 0.0)
    return d_hat


def _residual_of(coupling: transport.Coupling, rho_next: DensityField,
                 e: EnergyModel, p: ExponentField, h: float, g: Grid) -> float:
    """A step's el_residual: sum_i m[i] |d[i] - d_hat[i]| over source cells
    with mass, d[i] the barycentric displacement of the coupling's row i and
    d_hat[i] the optimality-condition prediction from the post-step density.
    Meaningful for an exact coupling (the step's coupling_is_exact)."""
    gam = coupling.gamma
    mu = coupling.row_marginal
    x = g.centers
    moved = (gam * (x[None, :] - x[:, None])).sum(axis=1)
    d = np.where(mu > 0.0, moved / np.where(mu > 0.0, mu, 1.0), 0.0)
    d_hat = _predicted_displacement(rho_next, e, p, h, g)
    return float(np.sum(mu * np.abs(d - d_hat)))


def dissipation_rate(rho: DensityField, e: EnergyModel, p: ExponentField,
                     g: Grid) -> float:
    """Integral of |grad G'(rho)|^q(x) / p(x) * rho, the step dissipation bound."""
    g.check_cell_field(p.values, "exponent field")
    s_cell = _cell_slope(rho, e, g)
    q = conjugate(p).values
    rate = np.abs(s_cell) ** q / p.values * rho.density(g)
    return float(rate.sum() * g.dx)


@dataclass(frozen=True)
class DissipationReport:
    """Per-step and cumulative slack of the energy-dissipation inequality.

    per_step_slack[k] = (E(rho^k) - E(rho^{k+1})) - dt_k * dissipation_rate(rho^{k+1});
    cumulative_slack compares the total dissipation against the energy
    headroom E(rho_0) - |domain| G(M / |domain|). Nonnegative slacks (up to
    tolerance) are what the scheme promises. energies[k] = E(rho^k).
    """

    per_step_slack: np.ndarray
    worst_step_slack: float
    cumulative_slack: float
    total_dissipation: float
    energies: np.ndarray


def dissipation_check(traj: Trajectory, e: EnergyModel, p: ExponentField,
                      g: Grid) -> DissipationReport:
    """Dissipation slacks along traj, each interval with its own time step."""
    g.check_cell_field(p.values, "exponent field")
    dt = np.diff(traj.times)
    energies = np.array([total_energy(s, e, g) for s in traj.states])
    rates = np.array([dissipation_rate(s, e, p, g) for s in traj.states[1:]])
    dissipated = dt * rates
    slacks = (energies[:-1] - energies[1:]) - dissipated
    mass = traj.states[0].total_mass
    floor = g.length * float(e.value(np.asarray(mass / g.length)))
    total_rate = float(np.sum(dissipated))
    return DissipationReport(
        per_step_slack=slacks,
        worst_step_slack=float(slacks.min()) if slacks.size else 0.0,
        cumulative_slack=float((energies[0] - floor) - total_rate),
        total_dissipation=total_rate,
        energies=energies,
    )
