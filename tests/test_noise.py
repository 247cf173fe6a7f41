import numpy as np
import pytest

from spmlab import (
    GridSpec,
    NoiseSpec,
    build_basis,
    c_star,
    make_stream,
    sample_increments,
)
from spmlab.noise import kick_factor

from conftest import random_field


class TestCStar:
    def test_all_zero_mu(self, basis):
        assert c_star(NoiseSpec(mu=np.zeros(3), basis=basis)) == 0.0

    def test_single_mode_near_continuum(self):
        # fine grid: lam1^h ~ pi^2, so 0.1^2 * lam1^2 ~ 0.01 * pi^4
        basis = build_basis(GridSpec(1023), 1)
        spec = NoiseSpec(mu=np.array([0.1]), basis=basis)
        assert c_star(spec) == pytest.approx(0.01 * np.pi**4, rel=1e-4)
        # exact against the discrete eigenvalue
        assert c_star(spec) == pytest.approx(0.01 * basis.eigenvalues[0] ** 2, rel=1e-14)

    def test_two_modes_direct_sum(self):
        basis = build_basis(GridSpec(1023), 2)
        spec = NoiseSpec(mu=np.array([0.1, 0.05]), basis=basis)
        expected = 0.01 * basis.eigenvalues[0] ** 2 + 0.0025 * basis.eigenvalues[1] ** 2
        assert c_star(spec) == pytest.approx(expected, rel=1e-14)
        assert c_star(spec) == pytest.approx(0.05 * np.pi**4, rel=1e-3)

    def test_too_many_modes(self, basis):
        with pytest.raises(ValueError):
            NoiseSpec(mu=np.zeros(basis.size + 1), basis=basis)

    def test_nan_mu(self, basis):
        with pytest.raises(ValueError, match="non-finite"):
            NoiseSpec(mu=np.array([0.05, np.nan]), basis=basis)


class TestIncrements:
    def test_moments(self):
        stream = make_stream(123, 0)
        dt = 0.01
        draws = np.concatenate(
            [sample_increments(dt, 5, stream) for _ in range(20000)]
        )
        n = draws.size
        se_mean = np.sqrt(dt / n)
        assert abs(draws.mean()) < 3 * se_mean
        se_var = dt * np.sqrt(2.0 / n)
        assert abs(draws.var() - dt) < 3 * se_var

    def test_reproducible_stream(self):
        a = sample_increments(0.1, 4, make_stream(9, 3))
        b = sample_increments(0.1, 4, make_stream(9, 3))
        np.testing.assert_array_equal(a, b)

    def test_paths_are_independent_streams(self):
        a = sample_increments(0.1, 4, make_stream(9, 0))
        b = sample_increments(0.1, 4, make_stream(9, 1))
        assert not np.array_equal(a, b)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            sample_increments(0.0, 3, make_stream(1, 0))


class TestNoiseField:
    """The explicit noise step x * kick_factor(dbeta, scaled_modes), the
    product run_path takes, with kick_factor = 1 + sum_k mu_k e_k dbeta_k."""

    def test_zero_state_absorbing(self, grid, small_noise):
        inc = sample_increments(0.1, 2, make_stream(5, 0))
        out = np.zeros(grid.n_interior) * kick_factor(inc, small_noise.scaled_modes())
        assert np.all(out == 0)

    def test_zero_increments(self, grid, rng, small_noise):
        X = random_field(grid, rng)
        out = X * kick_factor(np.zeros(2), small_noise.scaled_modes())
        np.testing.assert_array_equal(out, X)

    def test_single_mode_cross_check(self, grid, rng, basis):
        spec = NoiseSpec(mu=np.array([0.7]), basis=basis)
        X = random_field(grid, rng)
        out = X * kick_factor(np.array([0.35]), spec.scaled_modes())
        direct = X * (1.0 + 0.7 * 0.35 * basis.mode(1))
        np.testing.assert_allclose(out, direct, rtol=1e-14)

    def test_bilinearity(self, grid, rng, small_noise):
        """kick - X is linear in the state and in the increments."""
        modes = small_noise.scaled_modes()

        def term(x, inc):
            return x * kick_factor(inc, modes) - x

        X, Y = random_field(grid, rng), random_field(grid, rng)
        i1 = rng.standard_normal(2)
        i2 = rng.standard_normal(2)
        both = i1 + i2
        # linear in the state
        np.testing.assert_allclose(
            term(X + 2 * Y, i1), term(X, i1) + 2 * term(Y, i1), rtol=1e-12, atol=1e-14
        )
        # linear in the increments
        np.testing.assert_allclose(
            term(X, both), term(X, i1) + term(X, i2), rtol=1e-12, atol=1e-14
        )

    def test_shape_mismatch(self, small_noise):
        """Increments must match the modes; a state on another grid is
        refused by run_path (test_noise_on_another_grid_rejected)."""
        with pytest.raises(ValueError, match="3 increments for 2 noise modes"):
            kick_factor(np.zeros(3), small_noise.scaled_modes())
