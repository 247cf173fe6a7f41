import numpy as np
import pytest

from spmlab import (
    GridSpec,
    NoiseSpec,
    WienerIncrements,
    build_basis,
    c_star,
    make_stream,
    noise_kick,
    sample_increments,
)
from spmlab.operators import GridError

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


class TestIncrements:
    def test_moments(self):
        stream = make_stream(123, 0)
        dt = 0.01
        draws = np.concatenate(
            [sample_increments(dt, 5, stream).dbeta for _ in range(20000)]
        )
        n = draws.size
        se_mean = np.sqrt(dt / n)
        assert abs(draws.mean()) < 3 * se_mean
        se_var = dt * np.sqrt(2.0 / n)
        assert abs(draws.var() - dt) < 3 * se_var

    def test_reproducible_stream(self):
        a = sample_increments(0.1, 4, make_stream(9, 3)).dbeta
        b = sample_increments(0.1, 4, make_stream(9, 3)).dbeta
        np.testing.assert_array_equal(a, b)

    def test_paths_are_independent_streams(self):
        a = sample_increments(0.1, 4, make_stream(9, 0)).dbeta
        b = sample_increments(0.1, 4, make_stream(9, 1)).dbeta
        assert not np.array_equal(a, b)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            sample_increments(0.0, 3, make_stream(1, 0))


class TestNoiseField:
    """noise_kick, the explicit noise step x * (1 + sum_k mu_k e_k dbeta_k)."""

    def test_zero_state_absorbing(self, grid, small_noise):
        inc = sample_increments(0.1, 2, make_stream(5, 0))
        out = noise_kick(np.zeros(grid.n_interior), inc, small_noise.scaled_modes())
        assert np.all(out == 0)

    def test_zero_increments(self, grid, rng, small_noise):
        X = random_field(grid, rng).values
        out = noise_kick(X, WienerIncrements(np.zeros(2), 0.1), small_noise.scaled_modes())
        np.testing.assert_array_equal(out, X)

    def test_single_mode_cross_check(self, grid, rng, basis):
        spec = NoiseSpec(mu=np.array([0.7]), basis=basis)
        X = random_field(grid, rng).values
        inc = WienerIncrements(np.array([0.35]), 0.1)
        out = noise_kick(X, inc, spec.scaled_modes())
        direct = X * (1.0 + 0.7 * 0.35 * basis.mode(1).values)
        np.testing.assert_allclose(out, direct, rtol=1e-14)

    def test_bilinearity(self, grid, rng, small_noise):
        """kick - X is linear in the state and in the increments."""
        modes = small_noise.scaled_modes()

        def term(x, inc):
            return noise_kick(x, inc, modes) - x

        X, Y = random_field(grid, rng).values, random_field(grid, rng).values
        d1 = rng.standard_normal(2)
        d2 = rng.standard_normal(2)
        i1, i2 = WienerIncrements(d1, 0.1), WienerIncrements(d2, 0.1)
        both = WienerIncrements(d1 + d2, 0.1)
        # linear in the state
        np.testing.assert_allclose(
            term(X + 2 * Y, i1), term(X, i1) + 2 * term(Y, i1), rtol=1e-12, atol=1e-14
        )
        # linear in the increments
        np.testing.assert_allclose(
            term(X, both), term(X, i1) + term(X, i2), rtol=1e-12, atol=1e-14
        )

    def test_shape_mismatch(self, grid, rng, small_noise):
        X = random_field(grid, rng).values
        modes = small_noise.scaled_modes()
        with pytest.raises(ValueError):
            noise_kick(X, WienerIncrements(np.zeros(3), 0.1), modes)
        with pytest.raises(GridError):
            noise_kick(X[:-1], WienerIncrements(np.zeros(2), 0.1), modes)
