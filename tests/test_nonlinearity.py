import itertools
import warnings

import numpy as np
import pytest

from spmlab import (
    DiffusionLaw,
    ModelParams,
    psi0,
    psi0_inverse,
    resolvent,
    yosida,
)

from conftest import drift_oracle, resolvent_bisect, resolvent_half


LAW = DiffusionLaw(rho=1.0, alpha=0.5)
LAM = 1.0


class TestPsi0:
    def test_closed_form(self):
        assert psi0(4.0, DiffusionLaw(rho=2.0, alpha=0.5)) == pytest.approx(4.0)

    def test_zero(self):
        assert psi0(0.0, LAW) == 0.0

    def test_odd(self):
        assert psi0(-9.0, LAW) == pytest.approx(-3.0)

    def test_monotone(self):
        rng = np.random.default_rng(0)
        r = np.sort(rng.uniform(-5, 5, 100))
        v = psi0(r, LAW)
        assert np.all(np.diff(v) >= 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DiffusionLaw(rho=0.0, alpha=0.5)
        with pytest.raises(ValueError):
            DiffusionLaw(rho=1.0, alpha=1.0)


class TestResolvent:
    def test_closed_form(self):
        # 1 + sqrt(1) = 2
        assert resolvent(2.0, LAW, LAM) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        assert resolvent(0.0, LAW, LAM) == 0.0

    def test_odd(self):
        assert resolvent(-2.0, LAW, LAM) == pytest.approx(-1.0, abs=1e-12)

    def test_against_bisection_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            r = rng.uniform(-10, 10)
            rho = rng.uniform(0.1, 5)
            alpha = rng.uniform(0.05, 0.95)
            lam = 10.0 ** rng.uniform(-3, 1)
            law = DiffusionLaw(rho, alpha)
            expected = resolvent_bisect(r, rho, alpha, lam)
            assert resolvent(r, law, lam) == pytest.approx(expected, abs=1e-10)

    def test_contraction(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-10, 10, 1000)
        b = rng.uniform(-10, 10, 1000)
        ra, rb = resolvent(a, LAW, 0.3), resolvent(b, LAW, 0.3)
        assert np.all(np.abs(ra - rb) <= np.abs(a - b) + 1e-12)

    def test_monotone_in_r(self):
        r = np.linspace(-5, 5, 500)
        v = resolvent(r, LAW, 0.1)
        assert np.all(np.diff(v) >= 0)

    def test_against_closed_form_half(self):
        rng = np.random.default_rng(11)
        r = np.concatenate([rng.uniform(-10, 10, 500), 10.0 ** rng.uniform(-12, 2, 500)])
        for lam in (1.0, 1e-2, 1e-4):
            expected = resolvent_half(r, LAW.rho, lam)
            got = resolvent(r, LAW, lam)
            assert np.all(np.abs(got - expected) <= 1e-15 * np.maximum(1.0, np.abs(r)))

    def test_extreme_grid(self):
        """Y(w) = |r| to 1e-14 relative over lam in [1e-12, 1], |r| in {0} and
        [1e-300, 1e12], alpha in [0.05, 0.95], with no overflow or invalid value."""
        a = np.concatenate([[0.0], 10.0 ** np.linspace(-300, 12, 157)])
        r = np.concatenate([a, -a[1:]])
        for lam, alpha, rho in itertools.product(
            10.0 ** np.linspace(-12, 0, 7), np.linspace(0.05, 0.95, 7), (0.2, 1.0, 3.0)
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                w = yosida(r, DiffusionLaw(rho, alpha), lam)
            v = np.abs(w)
            assert np.all(np.sign(w) == np.sign(r))
            assert w[0] == 0.0
            residual = np.abs((v / rho) ** (1.0 / alpha) + lam * v - np.abs(r))
            assert np.all(residual <= 1e-14 * np.abs(r))


class TestYosida:
    def test_closed_form(self):
        assert yosida(2.0, LAW, LAM) == pytest.approx(1.0, abs=1e-10)

    def test_zero(self):
        assert yosida(0.0, LAW, LAM) == 0.0

    @pytest.mark.parametrize("lam", [0.0, -1e-4, np.inf, np.nan])
    def test_lambda_validation(self, lam):
        """A lam that is not positive and finite raises instead of giving a wrong w."""
        with pytest.raises(ValueError, match="lambda"):
            yosida(1.0, LAW, lam)
        with pytest.raises(ValueError, match="lambda"):
            resolvent(1.0, LAW, lam)

    def test_two_formula_agreement(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(-20, 20, 1000)
        lam = 0.05
        y = resolvent(r, LAW, lam)
        via_diff = (r - y) / lam
        via_psi = yosida(r, LAW, lam)
        np.testing.assert_allclose(via_psi, via_diff, rtol=1e-8, atol=1e-8)
        # resolvent is r - lam*yosida, so only this one shows the equation solved
        np.testing.assert_allclose(psi0(y, LAW), via_psi, rtol=1e-12, atol=1e-12)

    def test_monotone_pairs(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-10, 10, 1000)
        b = rng.uniform(-10, 10, 1000)
        assert np.all(
            (yosida(a, LAW, 0.2) - yosida(b, LAW, 0.2)) * (a - b) >= -1e-12
        )

    def test_dominated_by_psi0(self):
        rng = np.random.default_rng(6)
        r = rng.uniform(-10, 10, 1000)
        for lam in (1.0, 0.1, 0.01):
            v = yosida(r, LAW, lam)
            assert np.all(np.abs(v) <= np.abs(psi0(r, LAW)) + 1e-12)

    def test_pointwise_convergence_to_psi0(self):
        # lam = 2^-j gives decreasing error toward rho*|r|^alpha
        r = 1.0
        errors = [
            abs(yosida(r, LAW, 2.0**-j) - psi0(r, LAW))
            for j in range(1, 10)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-2

    def test_monotone_increasing_in_shrinking_lambda(self):
        values = [
            yosida(1.0, LAW, lam) for lam in (1e-1, 1e-2, 1e-3)
        ]
        assert values[0] < values[1] < values[2] < psi0(1.0, LAW) + 1e-12

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(8)
        lam = 0.25
        a = rng.uniform(-5, 5, 500)
        b = rng.uniform(-5, 5, 500)
        assert np.all(
            np.abs(yosida(a, LAW, lam) - yosida(b, LAW, lam))
            <= np.abs(a - b) / lam + 1e-12
        )


class TestPressureState:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_psi0_inverse_roundtrip(self, alpha):
        law = DiffusionLaw(rho=1.7, alpha=alpha)
        r = np.random.default_rng(12).uniform(-3, 3, 200)
        np.testing.assert_allclose(psi0_inverse(psi0(r, law), law), r, rtol=1e-13)
        assert psi0_inverse(0.0, law) == 0.0

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_parametrizes_the_drift(self, alpha):
        model = ModelParams(
            DiffusionLaw(rho=1.3, alpha=alpha), lam=0.05, aux_slope=0.4
        )
        r = np.random.default_rng(13).uniform(-4, 4, 200)
        w = yosida(r, model.diffusion, model.lam)
        y, g, ratio = model.pressure_values(w)
        yp, gp = model.pressure_slopes(ratio)
        np.testing.assert_array_equal(y, psi0_inverse(w, model.diffusion) + model.lam * w)
        np.testing.assert_allclose(y, r, rtol=1e-12, atol=1e-12)
        g_exact, gp_exact = drift_oracle(r, model)
        np.testing.assert_allclose(g, g_exact, rtol=1e-10, atol=1e-10)
        # chain rule: dG/dr = G'(w) / Y'(w)
        np.testing.assert_allclose(gp / yp, gp_exact, rtol=1e-10)

    def test_derivatives_match_finite_differences(self):
        model = ModelParams(DiffusionLaw(rho=1.0, alpha=0.3), lam=1e-3)
        w = np.array([-2.0, -0.3, 0.0, 1e-3, 0.7, 3.0])
        eps = 1e-6
        up, down = model.pressure_values(w + eps), model.pressure_values(w - eps)
        yp, gp = model.pressure_slopes(model.pressure_values(w)[2])
        np.testing.assert_allclose(yp, (up[0] - down[0]) / (2 * eps), rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(gp, (up[1] - down[1]) / (2 * eps), rtol=1e-6, atol=1e-9)
        assert yp[2] == model.lam



class TestModelParams:
    def test_defaults(self):
        model = ModelParams(LAW)
        assert (model.lam, model.aux_slope, model.linear_coeff) == (1e-4, 0.0, 1e-4)

    @pytest.mark.parametrize("fields", [
        dict(lam=0.0), dict(lam=-1e-4), dict(lam=np.inf), dict(lam=np.nan),
        dict(aux_slope=-0.1), dict(aux_slope=np.inf), dict(aux_slope=np.nan),
    ])
    def test_parameter_validation(self, fields):
        with pytest.raises(ValueError):
            ModelParams(LAW, **fields)
