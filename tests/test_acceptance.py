"""Acceptance gate: the ten quantitative criteria the laboratory must meet.

Each test prints a single machine-greppable PASS/FAIL line. The noisy
400-path ensemble is shared by criteria 2, 3, 7, 8 and 10; everything else
runs standalone. Expect a few minutes of wall time for the whole module.
"""
import numpy as np
import pytest

from spmlab import (
    DiffusionLaw,
    GridSpec,
    InitialSpec,
    ModelParams,
    NoiseSpec,
    SolverConfig,
    build_basis,
    config_from_dict,
    convergence_study,
    estimate_gamma,
    make_initial,
    norm_hm1,
    psi0,
    resolvent,
    run_ensemble,
    run_path,
    weak_form_residual,
    yosida,
)
from spmlab.harness import _build_context, build_bound_inputs
from spmlab.operators import laplacian_array, poisson_solve_array
from spmlab.theory import (
    BoundInputs,
    deterministic_extinction_time,
    extinction_bound,
    time_to_reach_bound,
)

from conftest import absorption_fault, inner_hm1

ALPHA = 0.5
RHO = 1.0
LAM = 1e-4
X0_HM1 = 0.1
MU = (0.05, 0.02)
MASTER_SEED = 17
T_FINAL = 0.278  # bound reaches 0.5 at ~0.265 for this setup (checked below)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def gamma_255():
    return estimate_gamma(GridSpec(255), alpha=ALPHA)


def ensemble_config(gamma_value: float) -> dict:
    return dict(
        grid=dict(n_interior=255),
        K=2,
        model={"rho": RHO, "alpha": ALPHA, "lambda": LAM},
        noise=dict(mu=list(MU)),
        solver=dict(dt=1e-4, t_final=T_FINAL, record_every=5),
        initial=dict(kind="eigenmode", mode=1, target_hm1_norm=X0_HM1),
        n_paths=400,
        master_seed=MASTER_SEED,
        checkpoints=[0.035, 0.070, 0.105, 0.140, 0.175, 0.210, 0.245, T_FINAL],
        gamma=gamma_value,
    )


@pytest.fixture(scope="module")
def noisy_ensemble(gamma_255):
    cfg = config_from_dict(ensemble_config(gamma_255.value))
    return cfg, run_ensemble(cfg, workers=4)


class TestCriterion1:
    def test_deterministic_extinction(self, gamma_255):
        grid = GridSpec(255)
        basis = build_basis(grid, 1)
        x0 = make_initial(
            InitialSpec(kind="eigenmode", mode=1, target_hm1_norm=X0_HM1), grid, basis
        )
        model = ModelParams(DiffusionLaw(RHO, ALPHA), lam=LAM)
        noise = NoiseSpec(mu=np.zeros(1), basis=basis)
        cfg = SolverConfig(dt=1e-4, t_final=0.16, record_every=10)
        res = run_path(x0, cfg, model, noise, seed=(MASTER_SEED, 0))
        t_det = deterministic_extinction_time(
            BoundInputs(
                x_norm_hm1=X0_HM1, alpha=ALPHA, rho=RHO, gamma=gamma_255.value
            )
        )
        ok = res.tau_hat is not None and res.tau_hat <= 1.10 * t_det
        report(
            1,
            ok,
            f"noise-free path extinct at tau_hat={res.tau_hat:.5f}, "
            f"deterministic bound {t_det:.5f}, ratio "
            f"{res.tau_hat / t_det:.4f} <= 1.10",
        )


class TestCriterion2:
    def test_bound_holds_at_every_checkpoint(self, noisy_ensemble):
        cfg, summary = noisy_ensemble
        _, x0, cs = _build_context(cfg)
        inputs = build_bound_inputs(cfg, x0, cs, summary.gamma_used)
        # the horizon must reach the 50% regime of the theoretical bound
        assert time_to_reach_bound(0.5, inputs) <= T_FINAL
        assert extinction_bound(T_FINAL, inputs) >= 0.5
        # the comparison summary.json carries, row i at checkpoint i
        rep = summary.comparison
        assert len(rep.rows) == len(summary.empirical_cdf) == 8
        # where the bound is 0 the margin is the CDF itself and says nothing
        margins = [
            emp - r.bound for r, emp in zip(rep.rows, summary.empirical_cdf) if r.bound > 0
        ]
        margin = f"{min(margins):+.4f}" if margins else "n/a"
        report(
            2,
            rep.overall_pass and summary.n_failed == 0,
            f"400-path CDF >= bound at all 8 checkpoints "
            f"(min empirical-bound margin {margin} over the {len(margins)} "
            f"checkpoints with a positive bound, "
            f"bound({T_FINAL})={rep.rows[-1].bound:.3f})",
        )


class TestCriterion3:
    def test_supermartingale_mean_decrease(self, noisy_ensemble):
        _, summary = noisy_ensemble
        rep = summary.supermartingale_report
        report(
            3,
            rep is not None and rep.overall_pass,
            f"discounted-norm means nonincreasing (2-SE slack) over "
            f"{len(rep.pair_pass)} checkpoint pairs, "
            f"means {rep.means[0]:.4f} -> {rep.means[-1]:.4f}",
        )


class TestCriterion4:
    def test_lambda_convergence(self):
        grid = GridSpec(127)
        basis = build_basis(grid, 2)
        noise = NoiseSpec(mu=np.array(MU), basis=basis)
        model = ModelParams(DiffusionLaw(1.0, 0.2), lam=LAM)
        x0 = make_initial(
            InitialSpec(kind="eigenmode", mode=1, target_hm1_norm=X0_HM1), grid, basis
        )
        cfg = SolverConfig(dt=5e-4, t_final=0.05, record_every=5)
        rows = convergence_study(
            x0, cfg, model, noise, (1e-1, 5e-2, 2.5e-2, 1.25e-2), seed=(42, 0)
        )
        d = [r.sup_hm1 for r in rows]
        decreasing = all(a > b for a, b in zip(d, d[1:]))
        contraction = d[-1] <= 0.25 * d[0]
        report(
            4,
            decreasing and contraction,
            f"sup-H^-1 distances {[f'{v:.2e}' for v in d]} strictly decreasing, "
            f"last/first = {d[-1] / d[0]:.3f} <= 0.25",
        )


class TestCriterion5:
    def test_weak_form_residual_contracts_with_dt(self):
        grid = GridSpec(127)
        basis = build_basis(grid, 3)
        noise = NoiseSpec(mu=np.zeros(3), basis=basis)
        model = ModelParams(DiffusionLaw(RHO, ALPHA), lam=1e-5)
        mix = basis.modes[0] + 0.5 * basis.modes[1] + 0.3 * basis.modes[2]
        x0 = mix * (X0_HM1 / norm_hm1(mix))
        all_ok = True
        details = []
        for j in (1, 2, 3):
            residuals = []
            for dt in (4e-3, 2e-3, 1e-3, 5e-4):
                cfg = SolverConfig(dt=dt, t_final=0.048, record_every=1, store_states=True)
                res = run_path(x0, cfg, model, noise, seed=(1, 0))
                residuals.append(weak_form_residual(res, cfg, j, model, noise))
            ratios = [a / b for a, b in zip(residuals, residuals[1:])]
            ok = all(1.2 <= r <= 4.0 for r in ratios)
            all_ok &= ok
            details.append(f"j={j}: {[f'{r:.2f}' for r in ratios]}")
        report(
            5,
            all_ok,
            "halving dt contracts the residual, ratios in [1.2, 4] -- "
            + "; ".join(details),
        )


class TestCriterion6:
    def test_regularization_property_suite(self):
        rng = np.random.default_rng(606)
        failures = 0
        for _ in range(1000):
            law = DiffusionLaw(
                rho=float(rng.uniform(0.2, 3.0)), alpha=float(rng.uniform(0.05, 0.95))
            )
            lam = float(10.0 ** rng.uniform(-5, -0.5))
            r1, r2 = rng.uniform(-10, 10, size=2)
            y1, y2 = resolvent(r1, law, lam), resolvent(r2, law, lam)
            p1 = yosida(r1, law, lam)
            contraction = abs(y1 - y2) <= abs(r1 - r2) * (1 + 1e-12) + 1e-12
            monotone = (y1 - y2) * (r1 - r2) >= -1e-12
            # (r1 - y1)/lam equals p1 by construction, since resolvent is
            # r - lam*yosida; psi0(y1) equals it only if y1 solves the equation
            via_psi0 = psi0(y1, law)
            scale = max(1.0, abs(p1), abs(via_psi0))
            agreement = abs(p1 - via_psi0) <= 1e-8 * scale
            dominated = abs(p1) <= abs(psi0(r1, law)) + 1e-12
            # pointwise lam -> 0 convergence at the same sample point
            tight = 1e-9
            converged = abs(yosida(r1, law, tight) - psi0(r1, law)) <= 1e-4 * max(
                1.0, abs(psi0(r1, law))
            )
            if not (contraction and monotone and agreement and dominated and converged):
                failures += 1
        report(
            6,
            failures == 0,
            f"1000 randomized resolvent/regularization checks, {failures} failures",
        )


class TestCriterion7:
    def test_positivity_preserved(self, noisy_ensemble):
        _, summary = noisy_ensemble
        report(
            7,
            len(summary.tau_hats) >= 100 and summary.positivity_violations == 0,
            f"{len(summary.tau_hats)} noisy paths from a nonnegative start, "
            f"{summary.positivity_violations} paths with a node below -1e-8*max(1,|x0|_L2)",
        )


class TestCriterion8:
    def test_absorption_after_extinction(self, noisy_ensemble):
        cfg, summary = noisy_ensemble
        trajs = summary.trajectories
        n_extinct = sum(traj.tau_hat is not None for traj in trajs)
        bad = sum(absorption_fault(traj, cfg.solver) is not None for traj in trajs)
        report(
            8,
            n_extinct >= 100 and bad == 0,
            f"{n_extinct} of {len(trajs)} paths extinct; {bad} paths with a row before "
            f"tau_hat at |X|_-1 <= eps={cfg.solver.extinction_eps:g} or a row from "
            f"tau_hat on not exactly 0 (norms and extremes)",
        )


class TestCriterion9:
    def test_operator_identities(self):
        rng = np.random.default_rng(909)
        grid = GridSpec(127)
        basis = build_basis(grid, 8)
        ok_roundtrip = True
        fields = []
        for _ in range(50):
            u = rng.standard_normal(grid.n_interior)
            fields.append(u)
            back = laplacian_array(poisson_solve_array(u))
            err = np.max(np.abs(back + u)) / max(1.0, np.max(np.abs(u)))
            ok_roundtrip &= err <= 1e-10
        ok_eigen = True
        for k in range(1, basis.size + 1):
            e = basis.mode(k)
            res = laplacian_array(e) + basis.eigenvalues[k - 1] * e
            rel = np.linalg.norm(res) / (basis.eigenvalues[k - 1] * np.linalg.norm(e))
            ok_eigen &= rel <= 1e-10
        G = np.array([[inner_hm1(a, b) for b in fields[:10]] for a in fields[:10]])
        try:
            np.linalg.cholesky(G)
            ok_gram = True
        except np.linalg.LinAlgError:
            ok_gram = False
        report(
            9,
            ok_roundtrip and ok_eigen and ok_gram,
            "Laplacian/Poisson round-trip <= 1e-10 (50 fields), eigen-residuals "
            "<= 1e-10 (8 modes), H^-1 Gram positive definite",
        )


class TestCriterion10:
    def test_worker_count_invariance(self, noisy_ensemble):
        cfg, summary = noisy_ensemble
        rerun = run_ensemble(cfg, workers=2)
        a, b = summary.to_json(), rerun.to_json()
        report(
            10,
            a == b,
            f"summary JSON byte-identical across 4 vs 2 workers ({len(a)} bytes)",
        )
