"""Minimizing-movement time stepping driven by the transport cost.

One step solves the joint convex program

    min over gamma >= 0 with row sums m_prev:
        <c, gamma> + sum_j dx * G(colsum_j / dx)

whose column sums define the new density. Three backends are available:

``mirror``     multiplicative (entropic mirror) updates on the rows, the
               default; deterministic from a uniform-row start.
``projected``  projected gradient with exact per-row simplex projection, a
               slower independent check of the same program.
``entropic``   adds an eps * KL(gamma | uniform-row) smoothing and solves the
               dual by block ascent. The smoothing lets mass leave its cell
               even when every discrete move costs more than the energy gain,
               which is the regime h * |grad G'(rho)|^(q-1) << dx where the
               unregularized optimum is the stay-put plan and the discrete
               flow would freeze. The price is a diffusive bias of order eps.

The mirror and projected backends run the same Armijo descent driver and
differ only in the candidate update it is given. Both finish with a stay-put
comparison: if the diagonal plan beats the iterate, the diagonal is returned,
so the energy can never increase across a step.

The entropic backend's column equation is the proximal map of the energy
(Peyre, SIAM J. Imaging Sci. 2015). It is solved by safeguarded Newton steps
in the shared root finder _kernels.bisect, which closes each bracket to the
adjacent doubles that plain halving would reach. The cost, the per-row
temperatures and the reflected kernel depend only on the grid, p, h, eps and
smoothing, so _step_plan builds them once and a flow reuses them for every
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import transport
from ._kernels import bisect, logsumexp
from .energy import RHO_FLOOR, EnergyModel, total_energy
from .errors import NonpositiveParameterError, NumericalBlowupError, SizeMismatchError
from .grid import Grid, gradient, neighbor_mean
from .varexp import DensityField, ExponentField, conjugate

VALID_BACKENDS = ("mirror", "projected", "entropic")


@dataclass(frozen=True)
class JkoOptions:
    """Solver knobs for a single step.

    eps and smoothing only matter for the entropic backend. eps is a uniform
    temperature; smoothing, when set, is a length: the standard deviation of
    the blur each row's Gibbs kernel applies per step, measured on the
    displacement lattice. Each row gets its own temperature chosen so its
    kernel hits that moment exactly, so the per-step blur is uniform even
    when p varies. Without this, rows with larger exponents have much
    narrower kernels and the uneven blur drifts mass sideways.

    With exact_coupling=True the returned coupling is re-derived by the exact
    transport solver between the previous masses and the new ones, which is
    what el_residual expects.
    """

    backend: str = "mirror"
    eps: float = 0.5
    smoothing: float | None = None
    max_iters: int = 20_000
    tol: float = 1e-9
    exact_coupling: bool = True

    def __post_init__(self):
        if self.backend not in VALID_BACKENDS:
            raise ValueError(
                f"backend must be one of {VALID_BACKENDS}, got {self.backend!r}"
            )
        if not _positive(self.eps):
            raise NonpositiveParameterError(
                f"eps must be positive and finite, got {self.eps}")
        if self.smoothing is not None and not _positive(self.smoothing):
            raise NonpositiveParameterError(
                f"smoothing length must be positive and finite, got {self.smoothing}"
            )
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be at least 1")
        if not _positive(self.tol):
            raise NonpositiveParameterError(
                f"tol must be positive and finite, got {self.tol}")


def _positive(x: float) -> bool:
    """x is a finite number above 0 (NaN is not)."""
    return math.isfinite(x) and x > 0.0


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

    times[k] is the left endpoint of the k-th interval; states[k] the density
    there. steps holds the per-step diagnostics when the trajectory came from
    run_flow (None for externally assembled trajectories).
    """

    times: np.ndarray
    states: list
    steps: list | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size != len(self.states):
            raise ValueError(
                f"times (len {t.size}) and states (len {len(self.states)}) disagree"
            )
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def final(self) -> DensityField:
        return self.states[-1]


def _objective(gam: np.ndarray, C: np.ndarray, e: EnergyModel, dx: float) -> float:
    col = gam.sum(axis=0)
    return float((C * gam).sum() + dx * e.value(col / dx).sum())


def _objective_gradient(gam: np.ndarray, C: np.ndarray, e: EnergyModel,
                        dx: float) -> np.ndarray:
    col = gam.sum(axis=0)
    return C + e.deriv(col / dx)[None, :]


def _uniform_rows(mu: np.ndarray) -> np.ndarray:
    n = mu.size
    return np.outer(mu, np.full(n, 1.0 / n))


def _rescale_rows(gam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    rs = gam.sum(axis=1)
    scale = np.where(rs > 0.0, mu / np.where(rs > 0.0, rs, 1.0), 0.0)
    return gam * scale[:, None]


def _armijo_descent(C, mu, e, dx, opts, update):
    """Armijo-checked descent from the uniform-row start.

    update(gam, grad, eta, mu) proposes the next plan for step size eta; a
    candidate is accepted once it gains at least 1e-4 of its linearized
    decrease, otherwise eta is halved. The run counts as converged when no
    step size down to 1e-16 is accepted, or after three consecutive steps
    whose drop is below opts.tol relative to the objective.
    """
    gam = _uniform_rows(mu)
    f_cur = _objective(gam, C, e, dx)
    eta = 1.0 / (1.0 + np.abs(C).max())
    quiet = 0
    converged = False
    it = 0
    for it in range(1, opts.max_iters + 1):
        grad = _objective_gradient(gam, C, e, dx)
        accepted = False
        while eta >= 1e-16:
            cand = update(gam, grad, eta, mu)
            f_cand = _objective(cand, C, e, dx)
            lin_gain = float(((gam - cand) * grad).sum())
            if f_cand <= f_cur - 1e-4 * max(lin_gain, 0.0) + 1e-15 * (1.0 + abs(f_cur)):
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            converged = True
            break
        drop = f_cur - f_cand
        gam, f_cur = cand, f_cand
        eta = min(eta * 1.3, 1e6)
        if drop <= opts.tol * max(1.0, abs(f_cur)):
            quiet += 1
            if quiet >= 3:
                converged = True
                break
        else:
            quiet = 0
    return gam, it, converged


def _mirror_update(gam, grad, eta, mu):
    """Multiplicative (entropic mirror) step on each row."""
    z = grad - grad.min(axis=1, keepdims=True)
    return _rescale_rows(gam * np.exp(-eta * z), mu)


def _projected_update(gam, grad, eta, mu):
    """Gradient step, then Euclidean projection of each row onto the scaled
    simplex of mass mu[i]."""
    y = gam - eta * grad
    n = y.shape[1]
    out = np.zeros_like(y)
    pos = mu > 0.0
    if np.any(pos):
        yp = y[pos]
        mp = mu[pos]
        u = np.sort(yp, axis=1)[:, ::-1]
        css = np.cumsum(u, axis=1) - mp[:, None]
        k = np.arange(1, n + 1)
        cond = u - css / k > 0.0
        rho_idx = np.count_nonzero(cond, axis=1)
        tau = css[np.arange(len(mp)), rho_idx - 1] / rho_idx
        out[pos] = np.maximum(yp - tau[:, None], 0.0)
    return out


def _solve_column_scalar(log_target: np.ndarray, e: EnergyModel, dx: float,
                         eps: float, start: np.ndarray | None = None) -> np.ndarray:
    """Solve sigma + G'(exp(sigma)/dx)/eps = log_target per column, in sigma = log s.

    The left side is strictly increasing in sigma (G is convex), with slope
    1 + G''(t) t / eps at t = exp(sigma)/dx, so the safeguarded Newton steps
    of bisect converge unconditionally. For the entropy G'' t = 1 and the
    equation is linear away from the RHO_FLOOR clamp: one step lands. The
    bracket starts at start +- 1, by default log_target +- 1; the dual
    ascent passes the previous iteration's roots, which saves the bracket
    growth when the default start is far from the root.
    """

    def f(sig):
        t = np.exp(sig) / dx
        return (sig + e.deriv(t) / eps - log_target,
                1.0 + _clamped_curvature(e, t) / eps)

    start = log_target if start is None else start
    lo, hi = bisect(f, start - 1.0, start + 1.0, 1.0, 120, with_slope=True)
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
    lo, hi = bisect(f, start - 1.0, start + 1.0, 1.0, 80, with_slope=True)
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
    # Cost of each lattice displacement, per row. eps enters only as a
    # divisor, so the moment is increasing in eps and bisection applies.
    a = np.abs(disp)[None, :] ** pv / (pv * h ** (pv - 1.0))

    def excess(log_eps: np.ndarray) -> np.ndarray:
        w = np.exp(-a / np.exp(log_eps)[:, None])
        return (d2[None, :] * w).sum(axis=1) / w.sum(axis=1) - target

    # Continuum width sqrt(target) is the right scale; bracket around it in
    # log eps and return the geometric midpoint of the final eps bracket.
    guess = np.log(opts.smoothing ** pv[:, 0] / (pv[:, 0] * h ** (pv[:, 0] - 1.0)))
    lo, hi = bisect(excess, guess, guess, math.log(4.0), 100)
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


def _step_plan(g: Grid, p: ExponentField, h: float, opts: JkoOptions):
    """(cost, eps_vec, log_ref) of a step: what stays fixed through a flow.

    The cost depends only on the grid, p and h; the entropic temperatures
    and the reflected kernel also on eps and smoothing (for the other
    backends eps_vec and log_ref are None). A plan is kept under the content
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
        eps_vec = log_ref = None
        if entropic:
            eps_vec = _entropic_temperatures(opts, p, h, g.n_cells, g.dx)
            log_ref = _log_reference(g, p, h, eps_vec)
        for arr in (cost.values, eps_vec, log_ref):
            if arr is not None:
                arr.setflags(write=False)
        plan = (cost, eps_vec, log_ref)
    _PLANS[key] = plan
    while len(_PLANS) > _PLAN_SLOTS:
        del _PLANS[next(iter(_PLANS))]
    return plan


def _entropic_backend(log_ref, mu, e, dx, opts, eps_vec):
    """Dual block ascent for the KL-smoothed joint program.

    Maximizes the regularized dual by alternating the closed-form row
    potential update with a per-column scalar equation for the new masses.
    The primal iterate gamma_ij = exp(u_i / eps_i + log_ref_ij - G'(s_j/dx)
    / eps_i) has exact row marginals after each row update, log_ref being
    the wall-reflected reference from _log_reference. Uniform temperatures
    take a cheaper separable path for the column equation. Each column
    solve starts from the previous iteration's roots. The start does not
    change the answer wherever the column function is monotone in floating
    point: the finder closes on the same adjacent doubles from any bracket
    that holds the root. Zero total mass has only the zero plan, returned
    without entering the dual loop, whose potentials are all -inf there.
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
    converged = False
    it = 0
    for it in range(1, opts.max_iters + 1):
        u = eps_vec * (log_mu - logsumexp(neg_c - phi[None, :] / epsr, axis=1))
        u = np.where(np.isfinite(log_mu), u, -np.inf)
        with np.errstate(invalid="ignore"):
            w_log = u[:, None] / epsr + neg_c
        if uniform:
            log_col = logsumexp(w_log.T, axis=1)
            sigma = _solve_column_scalar(log_col, e, dx, eps0, sigma)
        else:
            sigma = _solve_columns_mixed(w_log, eps_vec, e, dx, sigma)
        phi_new = e.deriv(np.exp(sigma) / dx)
        delta = float(np.max(np.abs(phi_new - phi)))
        phi = phi_new
        if delta <= 1e-12 * (1.0 + float(np.max(np.abs(phi)))):
            converged = True
            break
    with np.errstate(invalid="ignore"):
        gam = np.exp(u[:, None] / epsr + neg_c - phi[None, :] / epsr)
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
    if not _positive(h):
        raise NonpositiveParameterError(
            f"step size h must be positive and finite, got {h}")
    opts = opts or JkoOptions()
    mu = g.check_cell_field(rho_prev.mass, "previous mass")
    cost, eps_vec, log_ref = _step_plan(g, p, h, opts)
    C = cost.values
    dx = g.dx

    if opts.backend == "entropic":
        gam, iters, converged = _entropic_backend(log_ref, mu, e, dx, opts, eps_vec)
    else:
        update = _mirror_update if opts.backend == "mirror" else _projected_update
        gam, iters, converged = _armijo_descent(C, mu, e, dx, opts, update)
        # Stay-put comparison: the diagonal plan costs nothing and keeps the
        # old energy, so accepting the better of the two makes the step
        # objective, and with it the energy, provably nonincreasing.
        f_iter = _objective(gam, C, e, dx)
        f_stay = float(dx * e.value(mu / dx).sum())
        if f_stay < f_iter:
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

    e_before = total_energy(rho_prev, e, g)
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
    """
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be nonnegative and finite, got {t_end}")
    if not _positive(h):
        raise NonpositiveParameterError(
            f"step size h must be positive and finite, got {h}")
    n_steps = max(0, math.ceil(t_end / h - 1e-9))
    states = [rho0]
    steps = []
    current = rho0
    for k in range(1, n_steps + 1):
        try:
            step = jko_step(current, e, p, h, g, opts)
        except Exception as exc:
            if exc.args and isinstance(exc.args[0], str):
                exc.args = (f"step {k}: {exc.args[0]}",) + exc.args[1:]
            raise
        current = step.rho_next
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
    gam = coupling.gamma
    mu = coupling.row_marginal
    x = g.centers
    moved = (gam * (x[None, :] - x[:, None])).sum(axis=1)
    d = np.where(mu > 0.0, moved / np.where(mu > 0.0, mu, 1.0), 0.0)
    d_hat = _predicted_displacement(rho_next, e, p, h, g)
    return float(np.sum(mu * np.abs(d - d_hat)))


def el_residual(step: JkoStepResult, e: EnergyModel, p: ExponentField, h: float,
                g: Grid) -> float:
    """Mass-weighted gap between plan displacements and the predicted ones.

    For each source cell with mass, d[i] is the barycentric displacement of
    the coupling's row i and d_hat[i] the optimality-condition prediction
    from the post-step density; the residual is sum_i m[i] |d[i] - d_hat[i]|.
    Meaningful when the step carries an exact coupling; for approximate
    couplings the value is still computed and the step's coupling_is_exact
    flag tells the two apart.
    """
    return _residual_of(step.coupling, step.rho_next, e, p, h, g)


def dissipation_rate(rho: DensityField, e: EnergyModel, p: ExponentField,
                     g: Grid) -> float:
    """Integral of |grad G'(rho)|^q(x) / p(x) * rho, the step dissipation bound."""
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
                      h, g: Grid) -> DissipationReport:
    """Dissipation slacks along traj; h is one step or an array of len(traj) - 1."""
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    dt = np.asarray(h, dtype=float)
    if dt.ndim and dt.shape != (len(traj) - 1,):
        raise SizeMismatchError(
            f"need one step per interval ({len(traj) - 1}), got shape {dt.shape}"
        )
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
