"""Minimizing-movement time stepping driven by the transport cost.

One step solves the joint convex program

    min over gamma >= 0 with row sums m_prev:
        <c, gamma> + sum_j dx * G(colsum_j / dx)

whose column sums define the new density. Two backends are available:

``mirror``     the default, exact where it can certify it. It first solves
               the step on the monotone plan by active-set Newton on the
               column breakpoints (_monotone_newton) and returns that plan
               once its duality gap is at rounding level. Otherwise it runs
               multiplicative (entropic mirror) updates on the rows under
               an Armijo line search, deterministic from a uniform-row
               start, and keeps the lower of the two plans. It finishes
               with a stay-put comparison: if the diagonal plan beats the
               one kept, the diagonal is returned, so the energy can never
               increase across a step.
``entropic``   adds an eps * KL(gamma | uniform-row) smoothing and solves the
               dual by damped Newton steps. The smoothing lets mass leave its cell
               even when every discrete move costs more than the energy gain,
               which is the regime h * |grad G'(rho)|^(q-1) << dx where the
               unregularized optimum is the stay-put plan and the discrete
               flow would freeze. The price is a diffusive bias of order eps.

For any potential phi, weak duality bounds the program from below by
sum_i m_prev_i min_j (c_ij + phi_j) - dx sum_j G*(phi_j); at phi = G'(rho)
of a step's new density, the step objective minus that bound, the
duality gap, bounds how far the step lies above the optimum. The mirror
backend's Newton step certifies itself with it, and ``varwass oracle``
reports it.

The entropic backend's unknowns are the log column masses; the row
potentials are eliminated, so every iterate has exact row masses. The
Newton matrix is a dense n-by-n Jacobian built from the row softmax of the
plan and its column softmax; with one temperature for every row both come
from products of a fixed kernel with a vector (the scaling form of
stabilized Sinkhorn, Schmitzer, SIAM J. Sci. Comput. 2019), and otherwise,
or where such a sum would underflow, from log-sum-exps. The loop stops on
the column-mass error of the plan it returns, not on the change of the
potential. run_flow starts each step after the first from the masses
extrapolated from the last two states, and carries the inverse of the
last Newton matrix from step to step: each update first tries the chord
step from it and builds a fresh matrix only when that does not contract.
The README compare flow builds one matrix for its 100 steps and takes two
updates per step, 200 in all, each a chord step but the first. The cost,
the per-row temperatures, the reflected log kernel, the kernel itself
(where every row has the same temperature) and the conjugate exponents
that the residual reads depend only on the grid, p, h, eps and
smoothing, so _step_plan builds them once and a flow reuses them for
every step.

Trajectories come from varexp, and the slope of G'(rho) from finsler,
which also checks a flow's dissipation; neither module imports this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import transport
from ._kernels import bisect, logsumexp
from .energy import RHO_FLOOR, EnergyModel, total_energy
from .errors import (InvalidParameterError, NumericalBlowupError, check_nonnegative,
                     check_positive)
from .finsler import _cell_slope
from .grid import Grid
from .varexp import DensityField, ExponentField, Trajectory, _put_row, conjugate

VALID_BACKENDS = ("mirror", "entropic")

#: Most iterations of one step, on every backend.
MAX_ITERS = 20_000

#: Relative objective drop that counts as quiet in the Armijo descent.
DESCENT_TOL = 1e-9

#: The monotone Newton step is returned once its duality gap is at most
#: GAP_TOL (1 + |objective|).
GAP_TOL = 1e-12


@dataclass(frozen=True)
class JkoOptions:
    """Solver knobs for a single step.

    Every backend runs at most MAX_ITERS iterations. The mirror backend's
    Newton step returns once its duality gap is within GAP_TOL, and the
    descent it falls back on stops on DESCENT_TOL; the entropic backend
    stops on its own bound of the column-mass error (_MASS_RTOL). Each is
    read at call time.
    eps and smoothing only matter for the entropic backend. eps is a uniform
    temperature; smoothing, when set, is a length: the standard deviation of
    the blur each row's Gibbs kernel applies per step, measured on the
    displacement lattice. Each row gets its own temperature chosen so its
    kernel hits that moment exactly, so the per-step blur is uniform even
    when p varies. Without this, rows with larger exponents have much
    narrower kernels and the uneven blur drifts mass sideways.

    With exact_coupling=True the returned coupling is re-derived by the exact
    transport solver between the previous masses and the new ones, and the
    step measures its el_residual on it; otherwise el_residual is NaN.
    """

    backend: str = "mirror"
    eps: float = 0.5
    smoothing: float | None = None
    exact_coupling: bool = True

    def __post_init__(self):
        if self.backend not in VALID_BACKENDS:
            raise InvalidParameterError(
                f"backend must be one of {VALID_BACKENDS}, got {self.backend!r}"
            )
        check_positive(self.eps, "eps")
        if self.smoothing is not None:
            check_positive(self.smoothing, "smoothing length")


@dataclass(frozen=True)
class JkoStepResult:
    """One step's new density, its coupling and diagnostics.

    transport_cost is <c, coupling>. el_residual (see _residual_of) is
    measured on an exact coupling only; with coupling_is_exact False it is
    NaN. mass_error is the gap between the plan's total column mass and
    the previous total, before rho_next is scaled back to that total.
    rho_next and coupling are None on the steps of run_flow, which hold
    diagnostics only: each such step forms and checks its n-by-n plan and
    measures the step on it, but does not keep it, and its new state is
    the trajectory's next row, so a flow holds O(K n) and each state once.
    jko_step called on its own returns both.
    """

    rho_next: DensityField | None
    coupling: transport.Coupling | None
    transport_cost: float
    energy_before: float
    energy_after: float
    el_residual: float
    iterations: int
    converged: bool
    coupling_is_exact: bool
    mass_error: float


def _uniform_rows(mu: np.ndarray) -> np.ndarray:
    n = mu.size
    return np.outer(mu, np.full(n, 1.0 / n))


def _armijo_descent(C, mu, e, dx):
    """Entropic mirror descent with an Armijo line search on
    <C, gam> + dx sum_j G(col_j / dx), from the uniform-row start.

    Each iteration takes the slope G'(col / dx) of the current plan. A trial
    for step size eta is gam * exp(-eta z) rescaled to the row masses, z >= 0
    being the gradient C + G'(col / dx) shifted by its minimum over the
    row's positive entries, the entries at 0.0 reading +inf: each row keeps
    a factor of exactly 1, so a positive row cannot underflow to empty.
    Rows without mass stay at 0 and are left out of the loop. A trial is
    accepted once it gains at least 1e-4 of its linearized decrease
    <gam - cand, grad>, otherwise eta is halved. The run counts as converged
    when it tries step sizes down to 1e-16 and accepts none, or after three
    consecutive steps whose drop is below DESCENT_TOL relative to the
    objective. It stops unconverged after MAX_ITERS, and after one
    iteration where the first step size 1 / (1 + max |C|) already lies
    below 1e-16, as then no step is tried.

    The accepted plan's column sums give the next gradient without another
    pass over the plan, and with its cost they give <gam, grad> = <C, gam>
    + col . G'. So a trial's work is the candidate, its column sums and its
    cost. Returns the dense plan, its objective, the iteration count and
    the converged flag.
    """
    out = _uniform_rows(mu)
    eta = 1.0 / (1.0 + np.abs(C).max())
    rows = mu > 0.0
    C, m, gam = C[rows], mu[rows, None], out[rows]
    col = gam.sum(axis=0)
    cost = float(np.vdot(C, gam))
    f_cur = cost + float(dx * e.value(col / dx).sum())
    quiet, converged, it = 0, False, 0
    for it in range(1, MAX_ITERS + 1):
        slope = e.deriv(col / dx)
        lin_cur = cost + float(col @ slope)
        z = np.where(gam > 0.0, C + slope, np.inf)
        z -= z.min(axis=1, keepdims=True)
        accepted = tried = False
        while eta >= 1e-16:
            tried = True
            cand = np.multiply(z, -eta)
            np.exp(cand, out=cand)
            cand *= gam
            cand *= m / cand.sum(axis=1, keepdims=True)
            cand_col = cand.sum(axis=0)
            cand_cost = float(np.vdot(C, cand))
            f_cand = cand_cost + float(dx * e.value(cand_col / dx).sum())
            lin_gain = lin_cur - (cand_cost + float(cand_col @ slope))
            if f_cand <= f_cur - 1e-4 * max(lin_gain, 0.0) + 1e-15 * (1.0 + abs(f_cur)):
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            converged = tried
            break
        drop = f_cur - f_cand
        gam, col, cost, f_cur = cand, cand_col, cand_cost, f_cand
        eta = min(eta * 1.3, 1e6)
        if drop <= DESCENT_TOL * max(1.0, abs(f_cur)):
            quiet += 1
            if quiet >= 3:
                converged = True
                break
        else:
            quiet = 0
    out[rows] = gam
    return out, f_cur, it, converged


def _tridiagonal_solve(diag, off, rhs):
    """x with T x = rhs, T symmetric tridiagonal: diagonal diag, off[i] at
    (i, i+1) and (i+1, i). Elimination without pivoting, in Python floats:
    T is positive definite where it is used. A zero pivot raises
    ZeroDivisionError."""
    b, c, x = diag.tolist(), off.tolist(), rhs.tolist()
    for i in range(1, len(b)):
        w = c[i - 1] / b[i - 1]
        b[i] -= w * c[i - 1]
        x[i] -= w * x[i - 1]
    x[-1] /= b[-1]
    for i in range(len(b) - 2, -1, -1):
        x[i] = (x[i] - c[i] * x[i + 1]) / b[i]
    return np.array(x)


def dual_bound(C, mu, phi, e, dx) -> float:
    """The weak-duality lower bound of the step from masses mu under cost
    values C, at a potential phi on the columns: sum_i mu_i min_j (C_ij +
    phi_j) - dx sum_j G*(phi_j), G* being e.legendre. A step objective
    minus it, at phi = G' of the step's new density, is the duality gap."""
    return float(mu @ (C + phi).min(axis=1) - dx * e.legendre(phi).sum())


def _monotone_newton(C, mu, e, dx):
    """The step on the monotone plan, by active-set Newton on the column
    breakpoints, certified by its duality gap.

    Row i holds the quantiles between the row ends M_(i-1) and M_i of the
    cumulative masses mu; the unknowns are the column ends N_0 <= ... <=
    N_(n-2), with N_(-1) = 0 and N_(n-1) = M_(n-1), so column j holds nu_j
    = N_j - N_(j-1). On the monotone plan the cost is const + sum_j
    w_j(N_j), w_j piecewise linear with slope A_ij = C_ij - C_i,j+1 while
    N_j lies in row i: its kinks are the row ends. The step minimizes J(N)
    = sum_j w_j(N_j) + dx sum_j G(nu_j / dx), convex where C is Monge (A
    nondecreasing down each column); in one dimension this is the grid
    form of the Lagrangian step of Matthes & Osberger (ESAIM M2AN 48,
    2014). With phi = G'(nu / dx) and d_j = phi_(j+1) - phi_j, a
    breakpoint inside row i is optimal at A_ij = d_j, one on a row end when
    d_j lies between the slopes of the rows on either side of it.

    The start is the stay-put plan, N = M, every breakpoint on a kink.
    Each iteration classifies the breakpoints: inside a row, pinned on a
    kink, or leaving it toward the row that d_j points to. The free ones
    take a Newton step under the tridiagonal Hessian of the energy term
    (the transport term is linear within a row), each clipped to its row's
    ends, and the step is halved until J falls by 1e-4 of its linearized
    decrease, up to a rounding slack of 1e-15 (1 + |J|). J is tracked by
    differences: the transport part gains A_ij times each move, which is
    exact within a row, so the objective carries no cancellation of the
    cost's large far-off entries.

    Every iteration evaluates phi once and measures the duality gap f -
    dual_bound(phi) of the plan, f its objective; the loop returns once
    the gap is at most GAP_TOL (1 + |f|). It stops uncertified on a stall:
    when a step moves nothing, when 60 halvings find no decrease, or when
    a step lowers J by no more than the rounding slack and the gap did
    not halve since the iteration before. It also stops at MAX_ITERS. The
    gap does not certify where C breaks the Monge condition near the plan
    (there the monotone plan can lose to another one), nor where the
    RHO_FLOOR clamp of G' leaves columns at vacuum under the entropy.

    Returns the column masses (mu itself when no breakpoint moved, so a
    stay-put step keeps its bits), the objective, the iteration count and
    whether the gap certified the answer.
    """
    n = mu.size
    ends = np.concatenate(([0.0], np.cumsum(mu)))
    total = ends[-1]
    A = C[:, :-1] - C[:, 1:]
    j = np.arange(n - 1)
    N, nu, g_val, W = ends, mu, e.value(mu / dx), 0.0
    last, quiet = math.inf, False
    for it in range(1, MAX_ITERS + 1):
        phi = e.deriv(nu / dx)
        f = W + dx * float(g_val.sum())
        gap = f - dual_bound(C, mu, phi, e, dx)
        if gap <= GAP_TOL * (1.0 + abs(f)):
            return nu, f, it, True
        if quiet and not gap <= 0.5 * last:
            break
        last, inner = gap, N[1:-1]
        # the rows reaching each breakpoint from below and from above: the
        # same row inside it, neighbours on a kink
        below = np.searchsorted(ends[1:], inner)
        above = np.searchsorted(ends[1:], inner, "right")
        d = phi[1:] - phi[:-1]
        up = (inner < total) & (d > A[np.minimum(above, n - 1), j])
        free = (below == above) | up | ((inner > 0.0) & (d < A[below, j]))
        row = np.where(up, above, below)
        slope = A[row, j]
        grad = np.where(free, slope - d, 0.0)
        k = e.second(nu / dx) / dx
        try:
            step = _tridiagonal_solve(np.where(free, k[:-1] + k[1:], 1.0),
                                      -k[1:-1] * (free[:-1] & free[1:]), -grad)
        except ZeroDivisionError:
            break
        slack, alpha, trial = 1e-15 * (1.0 + abs(f)), 1.0, N.copy()
        for _ in range(60):
            trial[1:-1] = np.clip(inner + alpha * step, ends[row], ends[row + 1])
            nu_t = trial[1:] - trial[:-1]
            if nu_t.min() >= 0.0:
                g_t = e.value(nu_t / dx)
                moved = trial[1:-1] - inner
                dW = float(slope @ moved)
                change = dW + dx * float((g_t - g_val).sum())
                if change <= 1e-4 * float(grad @ moved) + slack:
                    break
            alpha *= 0.5
        else:
            break
        if not moved.any():
            break
        quiet = change > -slack
        N, nu, g_val, W = trial, nu_t, g_t, W + dW
    return nu, W + dx * float(g_val.sum()), it, False


def _clamped_curvature(e: EnergyModel, t: np.ndarray) -> np.ndarray:
    """d G'(t) / d log t of the clamped slope: G''(t) t, and 0 at or below RHO_FLOOR."""
    return np.where(t > RHO_FLOOR, e.second(t) * t, 0.0)


def _entropic_temperatures(opts: JkoOptions, p: ExponentField, h: float,
                           g: Grid) -> np.ndarray:
    """Per-row temperatures for the entropic backend.

    Without smoothing every row shares opts.eps. With smoothing set, each
    row's temperature is chosen so that its untilted Gibbs kernel
    exp(-|k dx|^p_i / (p_i h^(p_i-1) eps_i)) has second moment smoothing^2
    on the displacement lattice k in (1-n, n). Matching the measured moment
    rather than a nominal width keeps the per-step blur uniform across rows
    whose exponents, and hence kernel shapes, differ; unequal blur acts as a
    spurious drift toward the wider-kernel side and can push mass uphill.
    """
    n = g.n_cells
    if opts.smoothing is None:
        return np.full(n, opts.eps)
    target = opts.smoothing**2
    disp = g.dx * np.arange(1 - n, n)
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
    a = transport._power_cost(disp[None, :], pv, h)

    def excess(log_eps: np.ndarray):
        eps = np.exp(log_eps)
        w = np.exp(-a / eps[:, None])
        total = w.sum(axis=1)
        moment = (d2[None, :] * w).sum(axis=1) / total
        return (moment - target,
                ((d2 - moment[:, None]) * a * w).sum(axis=1) / (total * eps))

    # Continuum width sqrt(target) is the right scale; bracket around it in
    # log eps and return the geometric midpoint of the final eps bracket.
    guess = np.log(transport._power_cost(opts.smoothing, p.values, h))
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
    t = eps_vec[:, None]
    t0 = -transport._power_cost(x[None, :] - x[:, None], pv, h, t)
    t_left = -transport._power_cost((x[:, None] - g.a) + (x[None, :] - g.a), pv, h, t)
    t_right = -transport._power_cost((g.b - x[:, None]) + (g.b - x[None, :]), pv, h, t)
    return np.logaddexp(t0, np.logaddexp(t_left, t_right))


#: Step plans by content key, least recently used first; see _step_plan.
_PLANS: dict = {}
_PLAN_SLOTS = 4

#: Smallest kernel-product sum the uniform-temperature plan accepts; see
#: _column_picture.
_SUM_FLOOR = math.exp(-600.0)


class _StepPlan(NamedTuple):
    """What stays fixed through a flow; see _step_plan. kernel is None
    unless every row has the same temperature."""

    cost: transport.CostMatrix
    eps_vec: np.ndarray | None
    log_ref: np.ndarray | None
    kernel: np.ndarray | None
    q: np.ndarray


def _step_plan(g: Grid, p: ExponentField, h: float, opts: JkoOptions) -> _StepPlan:
    """(cost, eps_vec, log_ref, kernel, q) of a step: what stays fixed
    through a flow.

    The cost depends only on the grid, p and h; the entropic temperatures
    and the reflected log kernel also on eps and smoothing (for the mirror
    backend the three are None). q holds the values of conjugate(p), read
    by the step's el_residual. The kernel exp(log_ref) is built only where
    every row has the same temperature, so the plan decides once whether
    the dual loop runs on kernel products. It holds 0.0 where exp(log_ref)
    is subnormal, below about e^-708, which the e^-600 sum floor of its
    products keeps at rounding level: a subnormal operand slows every
    product that touches it several-fold. A plan is kept under the content
    of those inputs, not their identity, so an in-place edit of p.values
    gets a fresh plan. The _PLAN_SLOTS most recently used plans are kept,
    enough for callers that alternate backends or step sizes on one grid.
    The arrays are shared by every step that uses the plan, so they are
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
            eps_vec = _entropic_temperatures(opts, p, h, g)
            log_ref = _log_reference(g, p, h, eps_vec)
            if np.all(eps_vec == eps_vec[0]):
                kernel = np.exp(log_ref)
                kernel[kernel < np.finfo(float).tiny] = 0.0
        plan = _StepPlan(cost, eps_vec, log_ref, kernel, conjugate(p).values)
        for arr in (cost.values,) + plan[1:]:
            if arr is not None:
                arr.setflags(write=False)
    _PLANS[key] = plan
    while len(_PLANS) > _PLAN_SLOTS:
        del _PLANS[next(iter(_PLANS))]
    return plan


#: The Newton loop stops once every column sum of the plan is within
#: _MASS_RTOL times the step's total mass of its column mass exp(sigma).
_MASS_RTOL = 1e-14

#: Entries of P and Q below this are left out of the Newton matrix, so that
#: none of its products is subnormal.
_FLUSH = 1e-150

#: Most halvings of one Newton step.
_HALVINGS = 30

#: A chord step from the carried inverse Newton matrix is kept only when it
#: cuts the column-mass error to at most this share of its value (or meets
#: the stop). On the 16 vacuum sweep flows of the tests 1e-3 ran faster
#: than 1e-4, 1e-2 or 0.1: a looser bound keeps slow chords going, a
#: tighter one builds more matrices.
_REUSE_RATE = 1e-3


@dataclass(slots=True)
class _Warm:
    """What a step of run_flow carries over from the steps before it.

    guess is the predicted new masses that an entropic step's dual loop may
    start from; jinv the inverse Newton matrix that the loop tries first,
    which _entropic_backend replaces with the one it ends with (None once
    it dropped it); energy the energy of the step's input state, which is
    the previous step's energy_after; state the new state, which jko_step
    hands back. None carries nothing.
    """

    guess: np.ndarray | None = None
    jinv: np.ndarray | None = None
    energy: float | None = None
    state: DensityField | None = None


def _column_picture(sigma, e, dx, log_ref, kernel, mu, log_mu, w):
    """The step's plan at the column log masses sigma.

    phi = G'(exp(sigma)/dx) tilts the reference: P is the row softmax of
    log_ref_ij - w_i phi_j, w = 1/eps, and the plan mu_i P_ij has the row
    masses mu to rounding. Returns (log col, exp(sigma), phi, softmaxes,
    plan): the log column sums of the plan, the column masses sigma stands
    for, phi, and two functions that build (P, Q), Q the column softmax of
    the plan, and the plan itself, each as a fresh array.

    With one temperature (kernel given) P = diag(1/K b) K diag(b) with
    b = exp(-w phi) shifted by its maximum, and Q = diag(a) K diag(1/K^T a)
    with a = mu / K b: kernel products, the scaling form of stabilized
    Sinkhorn (Schmitzer, SIAM J. Sci. Comput. 2019). They are used when
    every sum, with b and a scaled to a maximum of 1, is at least
    _SUM_FLOOR; the terms lost to underflow are below about e^-708, so a
    log moves by at most n e^-108 relative. Otherwise, and with per-row
    temperatures, both softmaxes are n-by-n log-sum-exps.
    """
    s = np.exp(sigma)
    phi = e.deriv(s / dx)
    if kernel is not None:
        x = -w[0] * phi
        x -= x.max()
        b = np.exp(x)
        kb = kernel @ b
        if kb.min() >= _SUM_FLOOR:
            a = mu / kb
            top = a.max()
            kta = kernel.T @ (a / top)
            if kta.min() >= _SUM_FLOOR:
                return (np.log(kta) + math.log(top) + x, s, phi,
                        lambda: (kernel * b / kb[:, None], a[:, None] * kernel / (top * kta)),
                        lambda: a[:, None] * kernel * b)
    tilt = log_ref - w[:, None] * phi
    lse, P = logsumexp(tilt, axis=1, weights=True)
    log_plan = tilt + (log_mu - lse)[:, None]
    log_col, Q = logsumexp(log_plan, axis=0, weights=True)
    return log_col, s, phi, lambda: (P, Q), lambda: np.exp(log_plan)


def _entropic_backend(plan: _StepPlan, mu, e, dx, warm):
    """Damped Newton on the dual of the KL-smoothed joint program.

    The plan gamma_ij = mu_i P_ij, P the row softmax of log_ref_ij -
    phi_j/eps_i (eps_vec, log_ref and kernel read from the _StepPlan
    plan), has exact row masses for any column potential phi. The step's
    plan is the one whose column sums col_j are the masses s_j with
    G'(s_j/dx) = phi_j, the maximizer of the concave dual with the row
    potentials eliminated (Brauer, Clason, Lorenz & Wirth,
    arXiv:1710.06635, for fixed marginals). The unknowns are sigma = log
    s: phi = G'(exp(sigma)/dx) then covers the RHO_FLOOR clamp, where phi
    stays put while the mass moves, and R(sigma) = sigma - log col(sigma)
    = 0 stays well scaled for columns of any mass, vacuum ones too.

    With M = sum_i (mu_i/eps_i) (diag P_i - P_i^T P_i) and c = dphi/dsigma
    (_clamped_curvature), d col/d sigma = -M diag(c), so R has the Jacobian
    I + diag(1/col) M diag(c) = I + (diag(Q^T w) - Q^T diag(w) P) diag(c),
    where w = 1/eps and Q is the column softmax of the plan: no column
    mass, however small, is divided by. Where every c > 0 the Jacobian is
    diag(1/col) (diag(col/c) + M) diag(c), a positive definite matrix
    between two positive diagonals; a column with c = 0 is a column of the
    identity. So it is invertible. The P and Q entries below _FLUSH are
    left out of it: they are rounding there, and subnormal operands slow
    the product and the inverse several-fold. The residual and the plan
    keep every entry.

    The loop keeps the inverse of the last Jacobian it built and first
    tries the chord step sigma - J^-1 R from it (Shamanskii's method;
    Kelley, Solving Nonlinear Equations with Newton's Method, SIAM 2003).
    That point is kept when its column-mass error is at most _REUSE_RATE
    times the current one, or meets the stop. Otherwise the inverse is
    dropped, and a fresh Jacobian at the current point gives a damped
    Newton step: it is halved until |R|^2 falls by 2e-4 of itself per unit
    step (Armijo on the residual norm), at most _HALVINGS times. c is
    computed only for a point a fresh Jacobian is built at. Every kept
    point, chord or fresh, counts as one iteration; a failed try costs one
    column picture. Where a chord cannot contract, no try is made: a fresh
    step that neither cuts the error to _REUSE_RATE of itself nor meets
    the stop drops its own inverse (far from the root Newton contracts
    little, and its chord less), and so does a step whose guess misses
    (the flow turned since the inverse was built). warm (a _Warm) hands
    in the inverse an earlier step of the flow ended with and takes
    back the one this step ends with, so in a flow whose steps move little
    one Jacobian serves every step.

    The loop stops once max |exp(sigma) - col| <= _MASS_RTOL mu.sum(),
    a bound on the column-mass error of the plan it returns. Where the
    tilt w phi is large that bound can lie below rounding: the error then
    floors near eps_machine mu.sum() (1 + max w |phi|) (below a fifth of
    it on 412 measured steps). Once the error is below that floor
    and a full Newton step no longer halves it, the loop stops there too;
    either way the step counts as converged. The floor is evaluated only
    where one of these tests reads it. At most MAX_ITERS iterations run.

    The cold start is the previous masses floored at the clamp point, so
    phi starts at G' of the previous density. A guess of the column masses
    (warm.guess), floored the same way, is evaluated first and kept when
    its column-mass error is at most half of max |guess - mu|, the change
    it predicts; otherwise the loop begins from whichever of the two has
    the smaller |R|^2. The plan is returned as built, mu_i P_ij, whose rows
    hold mu_i to a few ulps. Zero total mass has only the zero plan,
    returned without entering the loop.
    """
    n = mu.size
    total = mu.sum()
    if total == 0.0:
        return np.zeros((n, n)), 0, True
    log_ref, kernel = plan.log_ref, plan.kernel
    w = 1.0 / plan.eps_vec
    with np.errstate(divide="ignore"):
        log_mu = np.log(mu)
    tol = _MASS_RTOL * total
    unit = np.finfo(float).eps * total
    w_max = float(w.max())
    guess, jinv = warm.guess, warm.jinv

    def evaluate(sigma):
        """(sigma, its picture, R, |R|^2, column-mass error)."""
        pic = _column_picture(sigma, e, dx, log_ref, kernel, mu, log_mu, w)
        res = sigma - pic[0]
        return (sigma, pic, res, float(res @ res),
                float(np.abs(pic[1] - np.exp(pic[0])).max()))

    def floor(phi):
        """The rounding floor of the column-mass error at the potential phi."""
        return unit * (1.0 + w_max * float(np.abs(phi).max()))

    # A trial far from the root can overflow; it then reads as no decrease.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        clamp = RHO_FLOOR * dx
        cur = evaluate(np.log(np.maximum(mu if guess is None else guess, clamp)))
        if guess is not None and not cur[4] <= 0.5 * float(np.abs(guess - mu).max()):
            # the flow turned, so the last step's matrix would not contract
            jinv = None
            cold = evaluate(np.log(np.maximum(mu, clamp)))
            if not cur[3] <= cold[3]:
                cur = cold
        it = 0
        while not cur[4] <= tol and it < MAX_ITERS:
            it += 1
            sigma, (_, s, phi, softmaxes, _), res, size, err = cur
            if jinv is not None:
                trial = evaluate(sigma - jinv @ res)
                if trial[4] <= max(_REUSE_RATE * err, tol):
                    cur = trial
                    continue
            P, Q = softmaxes()
            P[P < _FLUSH] = 0.0
            Q[Q < _FLUSH] = 0.0
            jac = Q.T @ (w[:, None] * P)
            np.subtract(np.diag(Q.T @ w), jac, out=jac)
            jac *= _clamped_curvature(e, s / dx)
            jac[np.abs(jac) < _FLUSH] = 0.0
            jac.flat[::n + 1] += 1.0
            jinv = np.linalg.inv(jac)
            step = -(jinv @ res)
            t = 1.0
            for _ in range(_HALVINGS):
                trial = evaluate(sigma + t * step)
                if trial[3] <= (1.0 - 2e-4 * t) * size or err <= floor(phi):
                    break
                t *= 0.5
            else:
                jinv = None
                break
            if not trial[4] < 0.5 * err and err <= floor(phi):
                break
            if not trial[4] <= max(_REUSE_RATE * err, tol):
                jinv = None
            cur = trial
    warm.jinv = jinv
    return cur[1][4](), it, bool(cur[4] <= tol or cur[4] <= floor(cur[1][2]))


def jko_step(rho_prev: DensityField, e: EnergyModel, p: ExponentField, h: float,
             g: Grid, opts: JkoOptions | None = None, *,
             _warm: _Warm | None = None) -> JkoStepResult:
    """One implicit step of the minimizing-movement scheme.

    Solves the joint program for the chosen backend, reads the new density
    off the column sums, and packages diagnostics. On the mirror backend
    the monotone Newton step (_monotone_newton) comes first; where its
    duality gap does not certify it, _armijo_descent runs, and the lowest
    objective of three plans wins: the Newton plan, the descent's and the
    stay-put diagonal. iterations and converged are those of the solver
    whose plan is returned, or, where the diagonal wins, of the solver it
    beat; on the Newton plan, converged means certified. Both solvers
    share the cap MAX_ITERS. The reported coupling is the exact plan
    between the old and new masses when opts.exact_coupling is set (the
    default), otherwise the solver's plan itself (the Newton step's
    monotone plan, built from transport._quantile_segments, is made dense
    only then), which records the same marginals as the exact plan, the
    previous masses and the new ones; el_residual is computed only for the
    exact plan and is NaN otherwise. _warm is what run_flow carries from
    step to step (see _Warm): the energy of rho_prev, and for entropic
    steps the guess and the inverse Newton matrix that the dual loop starts
    from and hands back (see _entropic_backend). Only run_flow passes it,
    and a step given _warm hands its new state back as _warm.state and
    returns rho_next and coupling None: the plan is still formed, checked
    and measured (transport_cost, el_residual), but the flow does not keep
    it.
    """
    check_positive(h, "step size h")
    opts = opts or JkoOptions()
    warm = _Warm() if _warm is None else _warm
    mu = g.check_cell_field(rho_prev.mass, "previous mass")
    plan = _step_plan(g, p, h, opts)
    C = plan.cost.values
    dx = g.dx
    e_before = total_energy(rho_prev, e, g) if warm.energy is None else warm.energy

    if opts.backend == "entropic":
        gam, iters, converged = _entropic_backend(plan, mu, e, dx, warm)
    else:
        # gam stays None while the monotone plan with columns col is kept
        gam = None
        col, f_step, iters, converged = _monotone_newton(C, mu, e, dx)
        if not converged:
            descent = _armijo_descent(C, mu, e, dx)
            if descent[1] <= f_step:
                gam, f_step, iters, converged = descent
        # Stay-put comparison: the diagonal plan costs nothing and keeps the
        # old energy, so accepting it where it is lower makes the step
        # objective, and with it the energy, provably nonincreasing. Its
        # objective dx * sum G(mu / dx) has the bits of e_before.
        if e_before < f_step:
            gam = np.diag(mu)
        elif gam is None and not opts.exact_coupling:
            # the monotone plan is made dense only to be the coupling
            if col is mu:
                gam = np.diag(mu)
            else:
                seg, rows, cols = transport._quantile_segments(mu, col, mu.sum(), col.sum())
                gam = np.zeros(C.shape)
                gam[rows, cols] = seg * mu.sum()

    if gam is not None:
        col = gam.sum(axis=0)
    col_total, mu_total = col.sum(), mu.sum()
    mass_error = float(abs(col_total - mu_total))
    m_next = col * (mu_total / col_total) if col_total > 0.0 else col
    rho_next = DensityField(m_next, require_unit_mass=rho_prev.require_unit_mass)

    if opts.exact_coupling:
        exact = transport.solve_exact(plan.cost, mu, m_next)
        coupling, cost_value = exact.coupling, exact.value
        residual = _residual_of(coupling, rho_next, e, plan.q, h, g)
    else:
        coupling = transport.Coupling(gam, mu, m_next)
        cost_value = float(np.vdot(C, gam))
        residual = math.nan

    e_after = total_energy(rho_next, e, g)
    warm.state = rho_next
    return JkoStepResult(
        rho_next=rho_next if _warm is None else None,
        coupling=coupling if _warm is None else None,
        transport_cost=cost_value,
        energy_before=e_before,
        energy_after=e_after,
        el_residual=residual,
        iterations=iters,
        converged=converged,
        coupling_is_exact=opts.exact_coupling,
        mass_error=mass_error,
    )


def _step_count(t_end: float, h: float) -> int:
    """ceil(t_end / h), up to a 1e-9 slack: the steps of a flow.

    Raises InvalidParameterError for a t_end that is negative or not finite
    and for a ratio t_end / h that overflows, NonpositiveParameterError for
    an h that is not positive and finite. Config validation runs it too.
    """
    check_nonnegative(t_end, "t_end")
    check_positive(h, "step size h")
    ratio = t_end / h
    if ratio == math.inf:
        raise InvalidParameterError(f"step count t_end / h = {t_end} / {h} overflows")
    return max(0, math.ceil(ratio - 1e-9))


def run_flow(rho0: DensityField, e: EnergyModel, p: ExponentField, h: float,
             t_end: float, g: Grid, opts: JkoOptions | None = None) -> Trajectory:
    """ceil(t_end / h) successive jko_step calls from rho0.

    t_end = 0 yields the single-state trajectory. A step count t_end / h
    that overflows raises InvalidParameterError. A failing step re-raises
    its own exception, with "step k: " prepended to the message when the
    first argument is a string; type, attributes and traceback are kept.

    Consecutive states differ by O(h), so from the second step on an
    entropic step gets the extrapolation 2 m_k - m_{k-1} of the last two
    masses as the guess its dual loop may start from. The flow also carries
    the inverse Newton matrix from step to step: each entropic step starts
    from the one the steps before it built last and hands on the one it
    builds, so a step depends on the steps before its input too. The mirror
    backend gets neither. Every step after the first takes its energy_before
    from the previous step's energy_after, the energy of the same state.
    Each new state's masses are written into the next row of the
    trajectory's stack as the flow goes, and traj.steps holds each step's
    diagnostics only, with rho_next and coupling None: the flow keeps no
    n-by-n plan and each state once, in its stack. jko_step, called on its
    own, returns a step's plan and new state.
    """
    n_steps = _step_count(t_end, h)
    entropic = opts is not None and opts.backend == "entropic"
    warm = _Warm()
    masses = np.empty((min(n_steps + 1, 16), rho0.mass.size))
    masses[0] = rho0.mass
    steps = []
    previous, current = None, rho0
    for k in range(1, n_steps + 1):
        if entropic and previous is not None:
            warm.guess = 2.0 * current.mass - previous.mass
        try:
            step = jko_step(current, e, p, h, g, opts, _warm=warm)
        except Exception as exc:
            if exc.args and isinstance(exc.args[0], str):
                exc.args = (f"step {k}: {exc.args[0]}",) + exc.args[1:]
            raise
        warm.energy = step.energy_after
        previous, current = current, warm.state
        _put_row(masses, k, current.mass)
        steps.append(step)
    times = h * np.arange(n_steps + 1, dtype=float)
    return Trajectory._of_stack(times, masses, rho0.require_unit_mass, steps)


def _residual_of(coupling: transport.Coupling, rho_next: DensityField,
                 e: EnergyModel, q: np.ndarray, h: float, g: Grid) -> float:
    """A step's el_residual: sum_i m[i] |d[i] - d_hat[i]| over source cells
    with mass, d[i] the barycentric displacement of the coupling's row i and
    d_hat[i] = -h |s|^(q-2) s the optimality-condition prediction, s the
    cell slope of G' of the post-step density: it points down that slope,
    where the step moves mass. q holds the step plan's conjugate exponents.
    Row i's mass-weighted move sum_j gam_ij (x_j - x_i), x the cell centres,
    is taken as the matvec (gam x)_i - x_i m[i], equal to it while the row
    sums are the marginal m. jko_step calls it for exact couplings only
    (the step's coupling_is_exact)."""
    gam = coupling.gamma
    mu = coupling.row_marginal
    x = g.centers
    moved = gam @ x - x * mu
    d = np.where(mu > 0.0, moved / np.where(mu > 0.0, mu, 1.0), 0.0)
    s_cell = _cell_slope(rho_next.mass, e, g)
    mag = np.abs(s_cell)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_hat = np.where(mag > 0.0, -h * mag ** (q - 2.0) * s_cell, 0.0)
    return float(np.sum(mu * np.abs(d - d_hat)))
