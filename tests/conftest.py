import numpy as np
import pytest

from spmlab import (
    DiffusionLaw,
    Field,
    GridSpec,
    ModelParams,
    NoiseSpec,
    RegularizationParams,
    build_basis,
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
    return ModelParams(DiffusionLaw(rho=1.0, alpha=0.5), reg=RegularizationParams(1e-4))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_field(grid, rng, scale=1.0):
    return Field(scale * rng.standard_normal(grid.n_interior), grid)


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
