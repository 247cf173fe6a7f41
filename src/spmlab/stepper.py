"""Semi-implicit Euler-Maruyama integration of the regularized equation.

Each step applies the multiplicative noise explicitly and then solves the
stiff monotone drift implicitly (backward Euler), which is unconditionally
stable. The implicit stage

    Y - dt * Laplacian(G(Y)) = B,    G(r) = yosida(r) + (lam + aux_slope)*r,

is solved by damped Newton for the pressure w = yosida(Y), not for Y. Y and
G are explicit in w (ModelParams.pressure_values, one power per trial point)
and so are their slopes (ModelParams.pressure_slopes, evaluated only where a
Newton step is taken), so a Newton step needs no nested per-node resolvent
solve. With k = dt/h^2 and T = tridiag(-1, 2, -1) the Newton matrix is M =
diag(Y') + k*T*diag(G'), and M*diag(G')^-1 = S = diag(Y'/G') + k*T is
symmetric positive definite (Y' >= lam > 0, G' >= 1). So a step solves
S z = res, one symmetric tridiagonal solve (LAPACK ptsv, through
operators.solve_banded), and is delta = z/G'. Convergence is tested on the
residual above. Newton starts from psi0(b) at a path's first step and from
then on from a prediction of the pressure, the last stage's pressure and
drift increment scaled by the noise kick (run_path), whose error is O(dt^2)
where psi0(b)'s is O(dt): most stages then take one Newton iteration. The
drift is maximal monotone, so the stage has exactly one solution; if
Newton's line search gives up or its budget runs out, the stage raises
ImplicitStepError. A predicted start that fails is retried once from
psi0(b), and if that fails too the caller halves the step locally, the one
recovery path. If the tolerance or the starting residual is not finite, it
raises NonFiniteStageError, which no halving can mend, and the caller
re-raises it at once. run_path returns one record per path, its Trajectory,
which also counts the path's Newton iterations, line-search halvings and
dt-halvings and keeps its worst accepted residual (SolverCounts).

Extinction is detected on the H^-1 norm against a small threshold, after
which the state is clamped to exactly zero and held (zero is absorbing for
both drift and noise).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .nonlinearity import ModelParams, psi0
from .noise import NoiseSpec, kick_factor, make_stream, sample_increments
from .operators import (
    GridError,
    _spacing,
    laplacian_array,
    norm_hm1_array,
    norm_l2_array,
    norm_lp_array,
    poisson_solve_array,
    require_integer,
    solve_banded,
)

# Unused here since the stage is pure Newton, but perfbench/tracing.py binds
# these three names in this module when it starts (its resolvent and Picard
# layers, which therefore read 0).
from scipy.linalg import cho_solve_banded, cholesky_banded  # noqa: F401
from .nonlinearity import resolvent  # noqa: F401

# the implicit stage is solved once its residual is <= _NEWTON_TOL * max(1, |b|_L2)
_NEWTON_TOL = 1e-10
# Newton iterations before the stage gives up and the caller halves dt
_NEWTON_MAX_ITER = 50


class ImplicitStepError(RuntimeError):
    """Implicit drift solve failed within its budget; caller should halve dt."""

    def __init__(self, residual: float):
        # residual is the only argument, so that unpickling rebuilds the error
        self.residual = residual
        super().__init__(residual)

    def __str__(self):
        return f"implicit solve stalled at residual {self.residual:.3e}"


class NonFiniteStageError(ImplicitStepError):
    """The stage's tolerance or starting residual is not finite; a smaller dt
    keeps the same right-hand side, so the caller must not halve."""

    def __str__(self):
        return (
            f"implicit stage has a non-finite right-hand side norm "
            f"(starting residual {self.residual:.3e})"
        )


class PathFailedError(RuntimeError):
    """A numerical failure: a path could not be completed even after repeated
    step halving, or more than 1% of an ensemble's paths failed
    (harness.run_ensemble's cap)."""


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_final: float
    record_every: int = 1
    extinction_eps: float = 1e-6
    store_states: bool = False

    def __post_init__(self):
        if not (0 < self.dt < self.t_final and np.isfinite(self.t_final)):
            raise ValueError(f"need 0 < dt < t_final < inf, got dt={self.dt}, T={self.t_final}")
        # run_path takes n_steps steps, so any other dt would end elsewhere
        if abs(self.n_steps * self.dt - self.t_final) > 1e-9 * self.t_final:
            raise ValueError(f"dt={self.dt} must divide t_final={self.t_final}")
        if not (self.extinction_eps > 0 and np.isfinite(self.extinction_eps)):
            raise ValueError(
                f"extinction_eps must be positive and finite, got {self.extinction_eps}"
            )
        # record_times strides over the step indices: a stride of 2.5 would
        # record every fifth step, and a bool is no stride
        require_integer("record_every", self.record_every)
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    @property
    def n_steps(self) -> int:
        """The number of steps run_path takes, round(t_final/dt)."""
        return int(round(self.t_final / self.dt))

    @property
    def record_times(self) -> np.ndarray:
        """The one recording grid: every record_every-th step and the last,
        at i*dt, the bits of run_path's step times. Every path of a config
        shares it; row r of a Trajectory is at record_times[r]."""
        return np.append(np.arange(0, self.n_steps, self.record_every), self.n_steps) * self.dt

    def step_time(self, t: float) -> float:
        """The time run_path writes for its last step at or before t,
        floor(t/dt)*dt, with t/dt read to the 1e-9 tolerance of t_final's
        check. The one reader of a checkpoint t: a path is extinct by t iff
        tau_hat <= step_time(t), and its state at t is its last row at or
        before step_time(t). Neither compares with t itself, which a step
        time can pass by an ulp (1050*1e-4 = 0.10500000000000001)."""
        return math.floor(t / self.dt * (1.0 + 1e-9)) * self.dt


@dataclass
class SolverCounts:
    """Work of the implicit drift stage: Newton iterations (one tridiagonal
    solve each, failed attempts included), line-search step halvings
    (backtracks) and dt-halvings, and the largest residual of an accepted
    stage as a fraction of its tolerance, rnorm / (_NEWTON_TOL * scale) <= 1."""

    newton_iters: int = 0
    halvings: int = 0
    backtracks: int = 0
    worst_residual: float = 0.0


@dataclass
class Trajectory:
    """One path: what run_path measured, and its outcome.

    Row r holds the H^-1 and L^p norms and the extremes of the state at
    record_times[r] of the solver config, which the caller holds. The
    discounted norm M(t) is not stored but evaluated where it is used.
    tau_hat is the extinction time, None if the path is alive at t_final or
    failed; every row from tau_hat on is exactly 0. failure is None for a
    completed path and otherwise says why the implicit stage gave up (the
    path is then held at its last noise kick, and its rows record that
    state). seed names the path. coercivity_violations is None when
    run_path checked no gamma. states is populated only when the solver
    config asks for it (weak-form residual, convergence studies).
    """

    hm1_norms: np.ndarray
    lp_norms: np.ndarray
    min_values: np.ndarray
    max_values: np.ndarray
    seed: tuple[int, int]
    tau_hat: Optional[float] = None
    failure: Optional[str] = None
    coercivity_violations: Optional[int] = None
    solver_counts: SolverCounts = field(default_factory=SolverCounts)
    states: Optional[np.ndarray] = None  # one per row


def _solve_implicit_array(
    b: np.ndarray,
    dt: float,
    model: ModelParams,
    counts: SolverCounts,
    start: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve Y - dt*Laplacian(G(Y)) = b by Newton in the pressure w = yosida(Y).

    Newton starts from the pressure start, or from psi0(b) when start is
    None, and returns (Y, w) at the accepted iterate. Adds the Newton
    iterations and line-search halvings to counts and, on success, keeps the
    largest accepted residual in counts.worst_residual.
    Raises ImplicitStepError when the line search gives up or the
    _NEWTON_MAX_ITER budget runs out, and NonFiniteStageError at once when the
    tolerance or the starting residual is not finite (b too large or not
    finite), which no iteration could meet.
    """
    k = dt / _spacing(b.size) ** 2
    scale = max(1.0, norm_l2_array(b))
    target = _NEWTON_TOL * scale
    off = np.full(b.size - 1, -k)  # the off-diagonal of S (module docstring)

    def evaluate(w):
        y, g, q = model.pressure_values(w)
        # y - dt*Laplacian(g) - b as (y - b) + 2k*g - k*g[i-1] - k*g[i+1]
        kg = k * g
        res = y - b
        res += 2.0 * kg
        res[1:] -= kg[:-1]
        res[:-1] -= kg[1:]
        return w, y, q, res, norm_l2_array(res)

    w, y, q, res, rnorm = evaluate(psi0(b, model.diffusion) if start is None else start)
    if not (math.isfinite(target) and math.isfinite(rnorm)):
        raise NonFiniteStageError(residual=float(rnorm))
    for _ in range(_NEWTON_MAX_ITER):
        if rnorm <= target:
            break
        # M delta = res as S z = res, delta = z/G' (module docstring)
        yp, gp = model.pressure_slopes(q)
        counts.newton_iters += 1
        delta = solve_banded(yp / gp + 2.0 * k, off, res) / gp
        s, step = 1.0, delta
        for _ in range(9):
            trial = evaluate(w - step)
            if trial[-1] < rnorm:
                w, y, q, res, rnorm = trial
                break
            counts.backtracks += 1
            s *= 0.5
            step = s * delta
        else:
            break  # the line search gave up
    if not rnorm <= target:  # NaN included
        raise ImplicitStepError(residual=float(rnorm))
    counts.worst_residual = max(counts.worst_residual, float(rnorm / target))
    return y, w


def _drift_substeps(
    b: np.ndarray,
    dt: float,
    model: ModelParams,
    counts: SolverCounts,
    start: Optional[np.ndarray] = None,
    max_halvings: int = 5,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward-Euler over dt, recursively halving the step on failure: the
    drift stage that run_path solves after each noise kick. Returns (Y, w)
    as _solve_implicit_array does.

    Newton starts from the pressure start when one is given; if that attempt
    fails, the full step is solved again once from psi0(b) before any
    halving, and half steps always start from psi0. Newton iterations and
    halvings, failed attempts included, are added to counts. A
    NonFiniteStageError from the psi0 start is raised at once: halving
    leaves b as it is.
    """
    if start is not None:
        try:
            return _solve_implicit_array(b, dt, model, counts, start)
        except ImplicitStepError:
            pass  # a poor start can stall Newton; psi0(b) below may not
    try:
        return _solve_implicit_array(b, dt, model, counts)
    except ImplicitStepError as exc:
        if max_halvings == 0 or isinstance(exc, NonFiniteStageError):
            raise
        counts.halvings += 1
        rest = (dt / 2, model, counts, None, max_halvings - 1)
        half, _ = _drift_substeps(b, *rest)
        return _drift_substeps(half, *rest)


# a kick past the float range fails the stage's finiteness check, not a warning
@np.errstate(over="ignore", invalid="ignore")
def run_path(
    x0: np.ndarray,
    config: SolverConfig,
    model: ModelParams,
    noise: NoiseSpec,
    seed: tuple[int, int],
    gamma_check: Optional[float] = None,
) -> Trajectory:
    """Integrate one path from the state x0 to t_final, clamping to zero once
    |X|_{-1} <= eps. x0 is left unchanged.

    Each step applies the explicit noise kick X*f, f = 1 + sum_k mu_k e_k
    dbeta_k (kick_factor), and then solves the drift stage implicitly (see
    _drift_substeps). From the second step on, the stage's Newton starts from
    a prediction of its pressure: the last stage's pressure w plus its drift
    increment d, both scaled by the kick as psi0 scales, w*s + d*s with s =
    sign(f)*|f|^alpha, since psi0(X*f) = psi0(X)*s. The increment is d =
    w_new - w*s, the last stage's own move (none yet at step 2). The
    prediction's error is O(dt^2), where psi0(X*f)'s is O(dt), so most
    stages take one Newton iteration.

    The stream is keyed by (master_seed, path_index) and step i takes the
    i-th draw. The loop stops after the step that ends the path (extinction
    or a failed stage), and its final state fills every later row. The
    path's one record is its Trajectory: the observables at
    config.record_times, tau_hat or the failure, and the solver work in
    solver_counts. Its coercivity_violations counts the live steps with
    |X|_{1+alpha} < gamma_check*|X|_-1, and is None without gamma_check.
    """
    alpha = model.diffusion.alpha
    p = alpha + 1.0
    stream = make_stream(*seed)
    record_times = config.record_times
    scaled_modes = noise.scaled_modes()
    if x0.shape != scaled_modes.shape[1:]:
        raise GridError("state and noise basis live on different grids")

    rows = []  # (hm1, lp, min, max) at each time of record_times
    states = [] if config.store_states else None
    coercivity_violations = None if gamma_check is None else 0
    counts = SolverCounts()

    x = x0.copy()
    w = d = None  # the last stage's pressure and drift increment, once known
    tau_hat: Optional[float] = None
    failure: Optional[str] = None
    for i in range(config.n_steps + 1):
        t = i * config.dt
        if i > 0:
            dbeta = sample_increments(config.dt, noise.n_modes, stream)
            f = kick_factor(dbeta, scaled_modes)
            perturbed = x * f
            start = None
            if w is not None:
                s = np.sign(f) * np.abs(f) ** alpha
                kicked = w * s
                start = kicked if d is None else kicked + d * s
            try:
                x, w_new = _drift_substeps(perturbed, config.dt, model, counts, start)
            except ImplicitStepError as exc:
                failure = str(exc)
                x = perturbed
            else:
                if start is not None:
                    d = w_new - kicked
                w = w_new
        lp = float(norm_lp_array(x, p))
        # this module's solve, which the tracer counts: one at t = 0 and
        # one per live step, a failed one included (the held kick's norm)
        hm1 = float(norm_hm1_array(x, poisson_solve_array(x)))
        if failure is None:
            if i > 0 and gamma_check is not None:
                if lp < gamma_check * hm1 * (1.0 - 1e-9) - 1e-14:
                    coercivity_violations += 1
            if hm1 <= config.extinction_eps:
                tau_hat = t
                x = np.zeros_like(x)
                hm1 = lp = 0.0
        ended = tau_hat is not None or failure is not None
        # t and record_times[r] are the same product i*dt; an ended path
        # holds its final state, which every row from here on records
        if ended or t == record_times[len(rows)]:
            n = record_times.size - len(rows) if ended else 1
            rows += [(hm1, lp, float(x.min()), float(x.max()))] * n
            if states is not None:
                states += [x.copy()] * n
        if ended:
            break

    hm1s, lps, mins, maxs = np.array(rows).T.copy()  # contiguous columns
    return Trajectory(
        hm1_norms=hm1s,
        lp_norms=lps,
        min_values=mins,
        max_values=maxs,
        seed=seed,
        tau_hat=tau_hat,
        failure=failure,
        coercivity_violations=coercivity_violations,
        solver_counts=counts,
        states=np.array(states) if states is not None else None,
    )


def weak_form_residual(
    traj: Trajectory, config: SolverConfig, j: int, model: ModelParams, noise: NoiseSpec
) -> float:
    """Max defect of the weak identity tested against mode j of the noise's
    basis, along one stored path run under config.

    The drift integrand uses the unregularized power law, so the defect also
    absorbs the lam-regularization error on top of the time-stepping error.
    The Ito sums take the path's Wiener increments, which its seed fixes:
    they are drawn again from make_stream(*traj.seed), one draw per step,
    exactly as run_path drew them (rows after extinction meet a zero state).
    Requires the config the path ran under, with store_states=True and
    record_every=1; the row check catches another step count only.
    """
    if traj.states is None or config.record_every != 1:
        raise ValueError("weak-form residual needs store_states and record_every=1")
    if not traj.hm1_norms.size == traj.states.shape[0] == config.n_steps + 1:
        raise ValueError(f"the path's rows are not the {config.n_steps + 1} steps of config")
    basis = noise.basis
    dt = config.dt
    ej = basis.mode(j)
    lap_ej = laplacian_array(ej)
    states = traj.states  # (n_steps+1, n)
    h = _spacing(ej.size)

    lhs = h * states @ ej
    drift_vals = h * (psi0(states, model.diffusion) + model.aux_slope * states) @ lap_ej
    cum_drift = np.zeros(states.shape[0])
    cum_drift[1:] = dt * (np.cumsum(drift_vals[1:]) + np.cumsum(drift_vals[:-1])) / 2.0

    mu = noise.mu
    modes = basis.modes[: noise.n_modes]
    stream = make_stream(*traj.seed)
    dbeta = np.array([
        sample_increments(dt, noise.n_modes, stream) for _ in range(config.n_steps)
    ])  # (n_steps, K)
    # left-point Ito sums: <X_i * e_k, e_j> per step and mode
    proj = h * states[:-1] @ (modes * ej).T  # (n_steps, K)
    stoch_steps = np.sum(proj * (mu * dbeta), axis=1)
    cum_stoch = np.zeros(states.shape[0])
    cum_stoch[1:] = np.cumsum(stoch_steps)

    defect = np.abs(lhs - (lhs[0] + cum_drift + cum_stoch))
    return float(defect.max())


@dataclass
class ConvergenceRow:
    """Row i of convergence_study: the runs at lambdas[i] and lambdas[i+1]."""

    sup_hm1: float
    l2l2: float


def convergence_study(
    x0: np.ndarray,
    config: SolverConfig,
    model: ModelParams,
    noise: NoiseSpec,
    lambdas,
    seed: tuple[int, int],
) -> list[ConvergenceRow]:
    """Distances between runs at successive regularization levels.

    All runs share the same stream key, hence the same Brownian path. Reports
    sup-in-time H^-1 distance and the L^2(0,T;L^2) distance for each
    consecutive pair of regularization parameters.
    """
    cfg = replace(config, store_states=True)
    runs = []
    for lam in lambdas:
        m = replace(model, lam=float(lam))
        traj = run_path(x0, cfg, m, noise, seed)
        if traj.failure is not None:
            raise PathFailedError(f"lambda={lam}: {traj.failure}")
        runs.append(traj)

    rows = []
    for a, b in zip(runs, runs[1:]):
        diff = a.states - b.states
        sup_hm1 = norm_hm1_array(diff, poisson_solve_array(diff)).max()
        l2sq = norm_l2_array(diff) ** 2
        # trapezoid rule, written out: np.trapezoid needs numpy >= 2.0
        l2l2 = float(np.sqrt(np.sum(np.diff(cfg.record_times) * (l2sq[1:] + l2sq[:-1]) / 2.0)))
        rows.append(ConvergenceRow(sup_hm1=float(sup_hm1), l2l2=l2l2))
    return rows
