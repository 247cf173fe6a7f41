import itertools

import numpy as np
import pytest

from spmlab import (
    BoundInputs,
    deterministic_extinction_time,
    extinction_bound,
    integral_factor,
    positive_probability_condition,
    time_to_reach_bound,
)
from spmlab.theory import discounted_norm


class TestIntegralFactor:
    def test_zero_noise_limit(self):
        assert integral_factor(7.0, 0.5, 0.0) == 7.0

    def test_infinite_horizon_closed_form(self):
        # limit is 1/((1-alpha)*c) = 2 for alpha=0.5, c=1
        assert integral_factor(1e9, 0.5, 1.0) == pytest.approx(2.0)

    def test_finite_value(self):
        assert integral_factor(1.0, 0.5, 2.0) == pytest.approx(
            (1.0 - np.exp(-1.0)) / 1.0
        )

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            integral_factor(-1.0, 0.5, 1.0)

    def test_quadrature_oracle(self):
        # midpoint quadrature of the integrand as an independent check
        alpha, c, t = 0.3, 1.7, 2.5
        s = (np.arange(100000) + 0.5) * (t / 100000)
        quad = np.sum(np.exp(-(1 - alpha) * c * s)) * (t / 100000)
        assert integral_factor(t, alpha, c) == pytest.approx(quad, rel=1e-8)


class TestDiscountedNorm:
    def test_initial_value(self):
        m = discounted_norm(np.array([0.0, 1.0]), np.array([0.25, 0.1]), c_star=0.5, alpha=0.5)
        assert m[0] == pytest.approx(0.25**0.5)

    def test_zero_after_extinction(self):
        m = discounted_norm(np.arange(4.0), np.array([0.5, 0.0, 0.0, 0.0]), c_star=1.0, alpha=0.5)
        assert np.all(m[1:] == 0.0)

    def test_quiet_noise_reduces_to_norm_power(self):
        hm1 = np.array([0.4, 0.3, 0.2, 0.1])
        m = discounted_norm(np.arange(4.0), hm1, c_star=0.0, alpha=0.5)
        np.testing.assert_allclose(m, hm1**0.5)
        assert np.all(np.diff(m) < 0)


class TestExtinctionBound:
    def test_zero_initial_norm(self):
        inp = BoundInputs(x_norm_hm1=0.0, alpha=0.5, rho=1.0, gamma=1.0)
        assert extinction_bound(0.5, inp) == 1.0

    def test_huge_norm_clamps_to_zero(self):
        inp = BoundInputs(x_norm_hm1=1e6, alpha=0.5, rho=1.0, gamma=1.0)
        assert extinction_bound(0.01, inp) == 0.0

    def test_noise_free_half_at_double_tdet(self):
        inp = BoundInputs(x_norm_hm1=0.25, alpha=0.5, rho=1.0, gamma=1.0, c_star=0.0)
        t_det = deterministic_extinction_time(inp)
        assert extinction_bound(2.0 * t_det, inp) == pytest.approx(0.5)

    def test_monotone_in_t_and_parameters(self):
        base = dict(x_norm_hm1=0.2, alpha=0.4, rho=1.0, gamma=1.5, c_star=0.5)
        inp = BoundInputs(**base)
        ts = np.linspace(0.01, 5.0, 50)
        vals = [extinction_bound(float(t), inp) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        bigger_rho = BoundInputs(**{**base, "rho": 2.0})
        bigger_gamma = BoundInputs(**{**base, "gamma": 2.0})
        smaller_x = BoundInputs(**{**base, "x_norm_hm1": 0.1})
        for t in (0.5, 1.0, 3.0):
            assert extinction_bound(t, bigger_rho) >= extinction_bound(t, inp)
            assert extinction_bound(t, bigger_gamma) >= extinction_bound(t, inp)
            assert extinction_bound(t, smaller_x) >= extinction_bound(t, inp)

    def test_rejects_nonpositive_t(self):
        inp = BoundInputs(x_norm_hm1=0.1, alpha=0.5, rho=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            extinction_bound(0.0, inp)

    def test_limit_matches_condition(self):
        yes = BoundInputs(x_norm_hm1=0.16, alpha=0.5, rho=1.0, gamma=1.0, c_star=2.0)
        assert positive_probability_condition(yes)
        assert extinction_bound(1e9, yes) == pytest.approx(1.0 - 0.4 / 0.5, rel=1e-6)
        no = BoundInputs(x_norm_hm1=0.36, alpha=0.5, rho=1.0, gamma=1.0, c_star=2.0)
        assert not positive_probability_condition(no)
        assert extinction_bound(1e9, no) == 0.0


class TestDeterministicTime:
    def test_zero_start(self):
        inp = BoundInputs(x_norm_hm1=0.0, alpha=0.5, rho=1.0, gamma=1.0)
        assert deterministic_extinction_time(inp) == 0.0

    def test_direct_arithmetic(self):
        inp = BoundInputs(x_norm_hm1=0.25, alpha=0.5, rho=1.0, gamma=1.0)
        assert deterministic_extinction_time(inp) == pytest.approx(1.0)

    def test_scaling_in_initial_norm(self):
        base = BoundInputs(x_norm_hm1=0.2, alpha=0.3, rho=2.0, gamma=1.1)
        scaled = BoundInputs(x_norm_hm1=0.2 * 5, alpha=0.3, rho=2.0, gamma=1.1)
        assert deterministic_extinction_time(scaled) == pytest.approx(
            5 ** (1 - 0.3) * deterministic_extinction_time(base)
        )

    def test_requires_quiet_noise(self):
        inp = BoundInputs(x_norm_hm1=0.1, alpha=0.5, rho=1.0, gamma=1.0, c_star=0.5)
        with pytest.raises(ValueError):
            deterministic_extinction_time(inp)

    def test_bound_reaches_any_level_after_tdet(self):
        inp = BoundInputs(x_norm_hm1=0.1, alpha=0.5, rho=1.0, gamma=1.0, c_star=0.0)
        t_det = deterministic_extinction_time(inp)
        for q in (0.0, 0.3, 0.9, 0.99):
            assert extinction_bound(t_det / (1 - q) * 1.0000001, inp) >= q


class TestPositiveProbability:
    def test_quiet_noise_always_true(self):
        inp = BoundInputs(x_norm_hm1=5.0, alpha=0.5, rho=1.0, gamma=1.0, c_star=0.0)
        assert positive_probability_condition(inp)

    def test_zero_norm_true(self):
        inp = BoundInputs(x_norm_hm1=0.0, alpha=0.5, rho=1.0, gamma=1.0, c_star=9.0)
        assert positive_probability_condition(inp)

    def test_threshold_example(self):
        inp = BoundInputs(x_norm_hm1=0.16, alpha=0.5, rho=1.0, gamma=1.0, c_star=2.0)
        assert positive_probability_condition(inp)  # 0.4 < 0.5


class TestTimeToReachBound:
    def test_inverts_bound(self):
        inp = BoundInputs(x_norm_hm1=0.1, alpha=0.5, rho=1.0, gamma=2.9, c_star=0.8)
        for q in (0.1, 0.5, 0.8):
            t = time_to_reach_bound(q, inp)
            assert extinction_bound(t, inp) == pytest.approx(q, abs=1e-10)

    def test_unreachable_level(self):
        inp = BoundInputs(x_norm_hm1=0.36, alpha=0.5, rho=1.0, gamma=1.0, c_star=2.0)
        assert time_to_reach_bound(0.5, inp) == np.inf

    def test_rejects_level_one(self):
        inp = BoundInputs(x_norm_hm1=0.1, alpha=0.5, rho=1.0, gamma=1.0)
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\)"):
            time_to_reach_bound(1.0, inp)


class TestBoundInputs:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["x_norm_hm1", "rho", "gamma", "c_star"])
    def test_rejects_non_finite(self, name, value):
        # a NaN gamma would pass every sign check and give a bound of 0 at every t
        base = dict(x_norm_hm1=0.1, alpha=0.5, rho=1.0, gamma=1.0, c_star=0.5)
        with pytest.raises(ValueError, match="finite"):
            BoundInputs(**{**base, name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("alpha", 1.0, "alpha must lie in"),
        ("rho", 0.0, "rho and gamma must be positive"),
        ("x_norm_hm1", -1.0, "x_norm_hm1 and c_star must be nonnegative"),
    ])
    def test_rejects_out_of_range(self, name, value, message):
        base = dict(x_norm_hm1=0.1, alpha=0.5, rho=1.0, gamma=1.0, c_star=0.5)
        with pytest.raises(ValueError, match=message):
            BoundInputs(**{**base, name: value})


class TestFloatRange:
    """T where (1-alpha)*rho*gamma^(1+alpha) leaves the float range, for a
    positive, finite gamma that BoundInputs accepts."""

    @pytest.mark.parametrize("c_star", [0.0, 1.0])
    def test_underflow_gives_infinite_time(self, c_star):
        # 1e-250^1.5 underflows to 0, which the division raised on
        inp = BoundInputs(x_norm_hm1=0.1, alpha=0.5, rho=1.0, gamma=1e-250, c_star=c_star)
        assert extinction_bound(0.1, inp) == 0.0
        assert time_to_reach_bound(0.5, inp) == np.inf
        assert not positive_probability_condition(inp)

    def test_underflow_at_zero_start(self):
        inp = BoundInputs(x_norm_hm1=0.0, alpha=0.5, rho=1.0, gamma=1e-250)
        assert deterministic_extinction_time(inp) == 0.0
        assert extinction_bound(0.1, inp) == 1.0

    def test_overflow_gives_zero_time(self):
        # 1e200^1.9 overflows, which the power raised on
        inp = BoundInputs(x_norm_hm1=0.1, alpha=0.9, rho=1.0, gamma=1e200, c_star=1.0)
        assert extinction_bound(0.1, inp) == 1.0
        assert time_to_reach_bound(0.5, inp) == 0.0
        assert positive_probability_condition(inp)


class TestIdentities:
    """The identities the closed form in T and k gives, on a grid with x0 = 0,
    c_star = 0, k*T on both sides of 1, and a gamma^(1+alpha) that underflows
    (T = +inf, or 0 at x0 = 0)."""

    GRID = [
        BoundInputs(x_norm_hm1=x, alpha=alpha, rho=1.0, gamma=gamma, c_star=c)
        for x, alpha, gamma, c in itertools.product(
            (0.0, 0.16, 0.36, 2.0), (0.3, 0.5), (1.0, 2.9), (0.0, 0.8, 2.0)
        )
    ] + [
        BoundInputs(x_norm_hm1=x, alpha=0.5, rho=1.0, gamma=1e-250, c_star=c)
        for x, c in itertools.product((0.0, 0.16), (0.0, 0.8))
    ]

    def test_grid_has_both_sides_of_the_condition(self):
        noisy = [positive_probability_condition(i) for i in self.GRID if i.c_star > 0]
        assert any(noisy) and not all(noisy)

    @pytest.mark.parametrize("inputs", GRID)
    def test_condition_iff_finite_time(self, inputs):
        assert positive_probability_condition(inputs) == np.isfinite(
            time_to_reach_bound(0.0, inputs)
        )

    @pytest.mark.parametrize("inputs", [i for i in GRID if i.c_star == 0.0])
    def test_quiet_noise_time_is_deterministic_time(self, inputs):
        assert deterministic_extinction_time(inputs) == time_to_reach_bound(0.0, inputs)

    @pytest.mark.parametrize("inputs", GRID)
    def test_bound_reaches_q_at_its_time(self, inputs):
        for q in (0.0, 0.3, 0.9, 0.99):
            t = time_to_reach_bound(q, inputs)
            if inputs.x_norm_hm1 == 0.0:
                # T = 0: the time is +0.0, where the bound (t > 0) is not defined
                assert t == 0.0 and np.copysign(1.0, t) == 1.0
            elif np.isfinite(t):
                assert extinction_bound(t, inputs) >= q - 1e-12
