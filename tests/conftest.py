import numpy as np
import pytest
import scipy.linalg
from scipy.special import beta

from spmlab import (
    DiffusionLaw,
    GridSpec,
    ModelParams,
    NoiseSpec,
    build_basis,
    estimate_gamma,
    make_stream,
    norm_hm1,
    psi0,
    sample_increments,
)
from spmlab.operators import poisson_solve_array


@pytest.fixture(scope="session")
def grid():
    return GridSpec(63)


@pytest.fixture(scope="session")
def basis(grid):
    return build_basis(grid, 8)


@pytest.fixture(scope="session")
def quiet_noise(basis):
    return NoiseSpec(mu=np.zeros(2), basis=basis)


@pytest.fixture(scope="session")
def small_noise(basis):
    return NoiseSpec(mu=np.array([0.05, 0.02]), basis=basis)


@pytest.fixture
def model():
    return ModelParams(DiffusionLaw(rho=1.0, alpha=0.5), lam=1e-4)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_field(grid, rng, scale=1.0):
    return scale * rng.standard_normal(grid.n_interior)


def inner_hm1(u, v):
    """The H^-1 inner product h * u . A^-1 v of two states, h = 1/(n+1)."""
    return 1.0 / (u.size + 1) * float(np.dot(u, poisson_solve_array(v)))


def gamma_continuum(alpha):
    """The continuum coercivity constant inf |u|_{L^{1+alpha}} / |u|_{-1} on (0, 1).

    By duality it is 1 over the Sobolev constant of H^1_0 in L^q, q =
    (1+alpha)/alpha, whose extremal solves the Lane-Emden problem
    v'' + v^(q-1) = 0; its first integral gives the constant in Beta
    functions (cf. E. Schmidt, Math. Ann. 117, 1940).
    """
    q = (1.0 + alpha) / alpha
    i = beta(1.0 / q, 0.5) / q
    j = beta(1.0 + 1.0 / q, 0.5) / q
    c = np.sqrt(2.0 * q) * i
    m = c ** (2.0 / (q - 2.0))
    n = c * (j / i) * m ** (1.0 + q / 2.0)
    return n ** (0.5 - 1.0 / q)


def extremal_start(grid, alpha, target):
    """The discrete extremal of gamma, scaled to |u|_-1 = target.

    estimate_gamma's minimizer, taken 10 more dual-power steps (v = A^-1 u,
    v /= max|v|, u = |v|^(q-2) v, q = (1+alpha)/alpha) towards the fixed
    point A v = kappa u. There psi0(u) is a multiple of v, so Laplacian(
    psi0(a*u)) = -rho*gamma^(1+alpha)*a^alpha*u when |u|_-1 = 1: as lam -> 0
    the noise-free equation keeps the shape and moves only its amplitude
    a = |X|_-1, and so does its backward-Euler scheme
    (scheme_extinction_time). The paper's coercivity estimate is then an
    equality, d/dt a^(1-alpha) = -(1-alpha)*rho*gamma^(1+alpha).
    """
    q = (1.0 + alpha) / alpha
    u = estimate_gamma(grid, alpha).minimizer
    for _ in range(10):
        v = poisson_solve_array(u)
        v = v / np.abs(v).max()
        u = np.abs(v) ** (q - 2.0) * v
    return u * (target / norm_hm1(u))


def scheme_extinction_time(gamma, alpha, rho, dt, a0, eps):
    """T_dt(eps) of the backward-Euler amplitude of an extremal start.

    Each step solves a + dt*rho*gamma^(1+alpha)*a^alpha = a_prev for a
    (amplitude_stage), starting from a0; returns the number of steps until
    a <= eps, times dt.
    """
    c = dt * rho * gamma ** (1.0 + alpha)
    a, steps = a0, 0
    while a > eps:
        a, steps = amplitude_stage(a, c, alpha), steps + 1
    return steps * dt


def amplitude_stage(a_prev, c, alpha):
    """The a with a + c*a^alpha = a_prev, by bisection on [0, a_prev] to
    adjacent floats (the left side increases in a)."""
    lo, hi = 0.0, a_prev
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if mid + c * mid**alpha > a_prev:
            hi = mid
        else:
            lo = mid


def frozen_shape_moments(x0, noise):
    """|u|_-1 of the shape u = x0, and the noise's moments on it: a_k = <u,
    u e_k>_-1/|u|_-1^2 and G_jk = <u e_j, u e_k>_-1/|u|_-1^2, from one
    cached Poisson solve of the block (u, u e_1, ..., u e_K)."""
    h = 1.0 / (x0.size + 1)
    block = np.vstack([x0, x0 * noise.basis.modes[: noise.n_modes]])
    gram = h * block @ poisson_solve_array(block).T
    return float(np.sqrt(gram[0, 0])), gram[0, 1:] / gram[0, 0], gram[1:, 1:] / gram[0, 0]


def frozen_shape_tau(x0, noise, gamma, alpha, rho, config, seed):
    """tau of the frozen-shape scalar model of run_path from x0 = extremal_start,
    driven by the path's own increments; None if it outlives config.t_final.

    The shape is held at u = x0 and only the amplitude N = |X|_-1 moves. Per
    step, the noise kick u*f, f = 1 + sum_k m_k e_k with m_k = mu_k*dbeta_k,
    has |u*f|_-1 = N*sqrt(1 + 2*sum_k a_k m_k + sum_jk G_jk m_j m_k), with a
    and G from frozen_shape_moments, and the drift stage on gamma's
    extremal shape is a + dt*rho*gamma^(1+alpha)*a^alpha = N_kick
    (amplitude_stage, as in scheme_extinction_time). Step i takes the i-th
    sample_increments of make_stream(*seed), as run_path does, and tau is the
    first step time with N <= config.extinction_eps.
    """
    amplitude, a, g = frozen_shape_moments(x0, noise)
    c = config.dt * rho * gamma ** (1.0 + alpha)
    stream = make_stream(*seed)
    for i in range(1, config.n_steps + 1):
        m = noise.mu * sample_increments(config.dt, noise.n_modes, stream)
        kicked = amplitude * float(np.sqrt(1.0 + 2.0 * a @ m + m @ g @ m))
        amplitude = amplitude_stage(kicked, c, alpha)
        if amplitude <= config.extinction_eps:
            return i * config.dt
    return None


def resolvent_half(r, rho, lam):
    """Closed-form resolvent at alpha = 1/2.

    y + c*sqrt(y) = |r| with c = lam*rho is a quadratic in sqrt(y), so
    y = ((sqrt(c^2 + 4|r|) - c)/2)^2, written here without the cancellation.
    """
    a = np.abs(np.asarray(r, dtype=float))
    c = lam * rho
    return np.sign(r) * (2.0 * a / (np.sqrt(c * c + 4.0 * a) + c)) ** 2


def resolvent_bisect(r, rho, alpha, lam):
    """Resolvent by vectorized bisection on [0, |r|], run until adjacent floats."""
    a = np.abs(np.asarray(r, dtype=float))
    lo, hi = np.zeros_like(a), a.copy()
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            return np.sign(r) * mid
        above = mid + lam * rho * mid**alpha > a
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)


def drift_oracle(r, model):
    """(G, G') at r, with the resolvent J by resolvent_bisect.

    G(r) = psi0(J(r)) + (lam + slope)*r. Implicit differentiation of
    J + lam*psi0(J) = r gives psi0(J)' = psi0'(J) / (1 + lam*psi0'(J)), written
    as 1 / (|J|^(1-alpha)/(alpha*rho) + lam) so that it is 1/lam at J = 0.
    """
    law, lam = model.diffusion, model.lam
    j = resolvent_bisect(r, law.rho, law.alpha, lam)
    linear = lam + model.aux_slope
    g = psi0(j, law) + linear * np.asarray(r, dtype=float)
    gp = 1.0 / (np.abs(j) ** (1.0 - law.alpha) / (law.alpha * law.rho) + lam)
    return g, gp + linear


def padded_laplacian(v, h):
    """The three-point stencil on the zero-padded vector, as first written."""
    padded = np.zeros(v.size + 2)
    padded[1:-1] = v
    return (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) / h**2


def scipy_poisson_solve(f, h):
    """-Laplacian(u) = f by scipy's solveh_banded on the two-row Poisson band."""
    band = np.zeros((2, f.shape[0]))  # upper form
    band[0, 1:], band[1] = -1.0 / h**2, 2.0 / h**2
    return scipy.linalg.solveh_banded(band, f)


def reference_stage(b, h, dt, model, tol, max_iter):
    """The implicit stage written plainly, kept as an oracle for the tuned one.

    Damped Newton in the pressure w for Y - dt*Laplacian(G(Y)) = b. Y, Y', G
    and G' are evaluated together at every trial from the one power q =
    |w|^(1/alpha - 1) * rho^(-1/alpha); the residual is (Y - b) + 2k*G -
    k*G[i-1] - k*G[i+1] on the zero-padded k*G, k = dt/h^2, and its norm is
    np.linalg.norm. A Newton step solves S z = res with the symmetric S =
    diag(Y'/G') + k*tridiag(-1, 2, -1) by scipy's solveh_banded and is z/G'.
    Returns (Y or None on a stall, Newton iterations, rejected line-search
    trials).
    """
    law, lam, c = model.diffusion, model.lam, model.linear_coeff
    k = dt / h**2
    n = b.size
    scale = max(1.0, np.sqrt(h) * np.linalg.norm(b))

    def evaluate(w):
        q = np.abs(w) ** (1.0 / law.alpha - 1.0) * law.rho ** (-1.0 / law.alpha)
        y = w * q + lam * w
        yp = q / law.alpha + lam
        g, gp = w + c * y, 1.0 + c * yp
        kg = np.zeros(n + 2)
        kg[1:-1] = k * g
        res = (y - b) + 2.0 * kg[1:-1] - kg[:-2] - kg[2:]
        return w, y, yp, gp, res, np.sqrt(h) * np.linalg.norm(res)

    def newton_step(yp, gp, res):
        band = np.zeros((2, n))  # upper form: band[0, 1:] is the off-diagonal
        band[0, 1:] = -k
        band[1] = yp / gp + 2.0 * k
        return scipy.linalg.solveh_banded(band, res) / gp

    return _damped_newton(evaluate, newton_step, psi0(b, law), tol * scale, max_iter)


def gtsv_reference_stage(b, h, dt, model, tol, max_iter):
    """The implicit stage as first written: the Newton matrix diag(Y') -
    dt*Laplacian*diag(G') as three diagonals, solved by scipy's solve_banded
    (LAPACK gtsv), with Y from sign(w)*(|w|/rho)^(1/alpha), Y' from a second
    power and the residual from the padded Laplacian. Same returns as
    reference_stage.
    """
    law, lam, c = model.diffusion, model.lam, model.linear_coeff
    k = dt / h**2
    scale = max(1.0, np.sqrt(h) * np.linalg.norm(b))

    def evaluate(w):
        y = np.sign(w) * (np.abs(w) / law.rho) ** (1.0 / law.alpha) + lam * w
        yp = (np.abs(w) / law.rho) ** (1.0 / law.alpha - 1.0) / (law.alpha * law.rho) + lam
        g, gp = w + c * y, 1.0 + c * yp
        res = y - dt * padded_laplacian(g, h) - b
        return w, y, yp, gp, res, np.sqrt(h) * np.linalg.norm(res)

    def newton_step(yp, gp, res):
        ab = np.zeros((3, b.size))
        ab[0, 1:], ab[1], ab[2, :-1] = -k * gp[1:], yp + 2.0 * k * gp, -k * gp[:-1]
        return scipy.linalg.solve_banded((1, 1), ab, res)

    return _damped_newton(evaluate, newton_step, psi0(b, law), tol * scale, max_iter)


def _damped_newton(evaluate, newton_step, w0, target, max_iter):
    """The stage's Newton iteration and its line search of nine halvings."""
    iters = rejected = 0
    w, y, yp, gp, res, rnorm = evaluate(w0)
    for _ in range(max_iter):
        if rnorm <= target:
            return y, iters, rejected
        iters += 1
        delta = newton_step(yp, gp, res)
        s = 1.0
        for _ in range(9):
            trial = evaluate(w - s * delta)
            if trial[-1] < rnorm:
                w, y, yp, gp, res, rnorm = trial
                break
            rejected += 1
            s *= 0.5
        else:
            break
    return (y if rnorm <= target else None), iters, rejected


def absorption_fault(traj, config):
    """Why the record of a path run under config contradicts its tau_hat, or
    None (criterion 8).

    Every recorded row before tau_hat (every row, if the path did not die)
    must have |X|_-1 above config.extinction_eps, and every row from tau_hat
    on must be exactly 0 in the H^-1 and L^p norms, the minimum and the
    maximum. Row r is at config.record_times[r]; a path with another number
    of rows raises ValueError.
    """
    before = config.record_times < (np.inf if traj.tau_hat is None else traj.tau_hat)
    if traj.hm1_norms.size != before.size:
        raise ValueError(f"a path's rows are not the {before.size} of config.record_times")
    eps = config.extinction_eps
    if not np.all(traj.hm1_norms[before] > eps):
        return f"a row before tau_hat={traj.tau_hat} has |X|_-1 <= {eps:g}"
    rows = (traj.hm1_norms, traj.lp_norms, traj.min_values, traj.max_values)
    if any(np.any(column[~before] != 0.0) for column in rows):
        return f"a row from tau_hat={traj.tau_hat} on is not exactly 0"
    return None
