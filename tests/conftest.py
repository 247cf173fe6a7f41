import numpy as np
import pytest
import scipy.linalg
from scipy.special import beta

from spmlab import (
    DiffusionLaw,
    Field,
    GridSpec,
    ModelParams,
    NoiseSpec,
    build_basis,
    psi0,
)


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
    return Field(scale * rng.standard_normal(grid.n_interior), grid)


def gamma_continuum(alpha, length=1.0):
    """The continuum coercivity constant inf |u|_{L^{1+alpha}} / |u|_{-1} on (0, L).

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
    return n ** (0.5 - 1.0 / q) * length ** (1.0 / (1.0 + alpha) - 1.5)


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
