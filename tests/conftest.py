import numpy as np
import pytest
from scipy.special import beta

from spmlab import (
    DiffusionLaw,
    Field,
    GridSpec,
    ModelParams,
    NoiseSpec,
    RegularizationParams,
    build_basis,
    psi0,
)
from spmlab.operators import solve_banded


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
    return ModelParams(DiffusionLaw(rho=1.0, alpha=0.5), reg=RegularizationParams(1e-4))


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


def padded_laplacian(v, h):
    """The three-point stencil on the zero-padded vector, as first written."""
    padded = np.zeros(v.size + 2)
    padded[1:-1] = v
    return (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) / h**2


def reference_stage(b, h, dt, model, tol, max_iter):
    """The implicit stage as first written, kept as an oracle for the tuned one.

    Damped Newton in the pressure w for Y - dt*Laplacian(G(Y)) = b, with Y,
    Y', G and G' evaluated together at every trial and the residual norm by
    np.linalg.norm. Returns (Y or None on a stall, Newton iterations,
    rejected line-search trials).
    """
    law, lam, c = model.diffusion, model.reg.lam, model.linear_coeff
    k = dt / h**2
    scale = max(1.0, np.sqrt(h) * np.linalg.norm(b))

    def evaluate(w):
        y = np.sign(w) * (np.abs(w) / law.rho) ** (1.0 / law.alpha) + lam * w
        yp = (np.abs(w) / law.rho) ** (1.0 / law.alpha - 1.0) / (law.alpha * law.rho) + lam
        g, gp = w + c * y, 1.0 + c * yp
        res = y - dt * padded_laplacian(g, h) - b
        return w, y, yp, gp, res, np.sqrt(h) * np.linalg.norm(res)

    iters = rejected = 0
    w, y, yp, gp, res, rnorm = evaluate(psi0(b, law))
    for _ in range(max_iter):
        if rnorm <= tol * scale:
            return y, iters, rejected
        iters += 1
        delta = solve_banded(-k * gp[:-1], yp + 2.0 * k * gp, -k * gp[1:], res)
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
    return (y if rnorm <= tol * scale else None), iters, rejected
