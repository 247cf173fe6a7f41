import dataclasses
import itertools
import pickle
import warnings

import numpy as np
import pytest
import scipy.linalg

import spmlab.stepper as stepper_mod
from spmlab import (
    DiffusionLaw,
    Field,
    GridSpec,
    ModelParams,
    NoiseSpec,
    SolverConfig,
    build_basis,
    convergence_study,
    estimate_gamma,
    norm_hm1,
    psi0,
    run_path,
    weak_form_residual,
)
from spmlab.harness import InitialSpec, make_initial
from spmlab.operators import (
    GridError,
    laplacian_array,
    norm_hm1_array,
    norm_l2,
    norm_lp_array,
    poisson_solve_array,
)
from spmlab.stepper import ImplicitStepError, NonFiniteStageError, SolverCounts, Trajectory
from spmlab.cli import _write_csv
from spmlab.theory import BoundInputs, deterministic_extinction_time, discounted_norm

from conftest import (
    drift_oracle,
    gtsv_reference_stage,
    reference_stage,
    random_field,
    resolvent_bisect,
    resolvent_half,
    scipy_poisson_solve,
)


def stress_grid(grid, basis, rng):
    """243 stages (b, dt, model): 3 data shapes (dense and half-sparse
    sign-changing, first eigenmode) x alpha x lam x dt x amplitude, three
    values each."""
    dense = rng.standard_normal(grid.n_interior)
    sparse = rng.standard_normal(grid.n_interior)
    sparse[::2] = 0.0
    return [
        (amplitude * data, dt, ModelParams(DiffusionLaw(1.0, alpha), lam=lam))
        for data in (dense, sparse, basis.modes[0])
        for alpha, lam, dt, amplitude in itertools.product(
            (0.2, 0.5, 0.8), (1e-2, 1e-4, 1e-6), (1e-4, 1e-2, 1.0), (1.0, 1e-4, 1e-8)
        )
    ]


def oracle_cases(grid, basis, rng):
    """The stress grid, plus alpha x (amplitude 0.3, 1e3) with rho = 1.3 and
    a linear auxiliary slope of 0.4: 249 stages, and the 1e3 ones halve
    line-search steps."""
    cases = stress_grid(grid, basis, rng)
    dense = cases[0][0]  # amplitude 1
    for alpha in (0.2, 0.5, 0.8):
        aux = ModelParams(DiffusionLaw(1.3, alpha), lam=1e-4, aux_slope=0.4)
        cases += [(0.3 * dense, 1e-3, aux), (1e3 * dense, 1e-3, aux)]
    return cases


class TestImplicitSolve:
    def test_zero_rhs(self, grid, model):
        zero = np.zeros(grid.n_interior)
        out, _ = stepper_mod._drift_substeps(zero, grid.spacing, 1e-3, model, SolverCounts())
        assert np.all(out == 0)

    def test_nonlinear_residual_small(self, grid, model, rng, monkeypatch):
        monkeypatch.setattr(stepper_mod, "_NEWTON_TOL", 1e-11)
        B = random_field(grid, rng, scale=0.1)
        dt = 1e-3
        Y, _ = stepper_mod._drift_substeps(B.values, grid.spacing, dt, model, SolverCounts())
        g, _ = drift_oracle(Y, model)
        res = Y - dt * laplacian_array(g, grid.spacing) - B.values
        assert np.sqrt(grid.spacing) * np.linalg.norm(res) <= 1e-11 * max(
            1.0, norm_l2(B)
        )

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("amplitude", [1.0, 0.1, 1e-4, 1e-7])
    def test_residual_against_exact_drift(self, grid, basis, rng, alpha, amplitude):
        """The returned Y solves the stage with G from an exact resolvent.

        Both data sets change sign. A Newton iteration in Y that evaluates G
        through the iterative resolvent stalls above the tolerance on some of
        these cases and meets it on others only against its own inexact G.
        """
        lam, dt, tol = 1e-4, 1e-3, 1e-10
        law = DiffusionLaw(1.0, alpha)
        model = ModelParams(law, lam=lam)
        h = grid.spacing
        for data in (rng.standard_normal(grid.n_interior), basis.modes[1]):
            B = Field(amplitude * data, grid)
            Y, _ = stepper_mod._drift_substeps(B.values, h, dt, model, SolverCounts())
            if alpha == 0.5:
                J = resolvent_half(Y, law.rho, lam)
            else:
                J = resolvent_bisect(Y, law.rho, alpha, lam)
            G = psi0(J, law) + lam * Y
            res = Y - dt * laplacian_array(G, h) - B.values
            assert np.sqrt(h) * np.linalg.norm(res) <= tol * max(1.0, norm_l2(B))

    def test_stress_grid_converges(self, grid, basis, rng):
        """Newton alone solves every stage of a 243-case grid, quickly."""
        worst = 0
        for b, dt, model in stress_grid(grid, basis, rng):
            counts = SolverCounts()
            stepper_mod._solve_implicit_array(b, grid.spacing, dt, model, counts)
            worst = max(worst, counts.newton_iters)
        assert worst <= 12

    def test_matches_reference_stage(self, grid, basis, rng):
        """The stage equals the plainly written oracle in conftest bit for
        bit, with the same Newton iterations and line-search halvings: on the
        stress grid, which never halves a step, and with rho = 1.3 and a
        linear auxiliary slope of 0.4, where data of amplitude 1e3 does."""
        h = grid.spacing
        backtracked = 0
        for b, dt, model in oracle_cases(grid, basis, rng):
            counts = SolverCounts()
            y, _ = stepper_mod._solve_implicit_array(b, h, dt, model, counts)
            ref_y, ref_iters, ref_rejected = reference_stage(b, h, dt, model, 1e-10, 50)
            assert np.array_equal(y, ref_y)
            assert (counts.newton_iters, counts.backtracks) == (ref_iters, ref_rejected)
            assert 0.0 < counts.worst_residual <= 1.0
            backtracked += counts.backtracks
        assert backtracked > 0  # the halved steps are compared too

    def test_matches_gtsv_reference_stage(self, grid, basis, rng):
        """The stage as first written (the nonsymmetric Newton matrix by
        gtsv, two powers per point) takes the same Newton iterations and
        halvings on the same cases, and its Y is within the stage tolerance
        of the stage's."""
        h = grid.spacing
        for b, dt, model in oracle_cases(grid, basis, rng):
            counts = SolverCounts()
            y, _ = stepper_mod._solve_implicit_array(b, h, dt, model, counts)
            ref_y, ref_iters, ref_rejected = gtsv_reference_stage(b, h, dt, model, 1e-10, 50)
            assert (counts.newton_iters, counts.backtracks) == (ref_iters, ref_rejected)
            scale = max(1.0, np.sqrt(h) * np.linalg.norm(b))
            assert np.sqrt(h) * np.linalg.norm(y - ref_y) <= 1e-10 * scale

    def test_newton_step_solves_the_newton_system(self, grid, basis, rng, monkeypatch):
        """Every Newton step delta = z/G' of the symmetric solve S z = res
        satisfies the Newton system (diag(Y') + k*T*diag(G')) delta = res, T =
        tridiag(-1, 2, -1), to 1e-12 relative, checked against the dense
        matrix on the stress grid and the auxiliary-slope cases."""
        h, n = grid.spacing, grid.n_interior
        tri = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        slopes, solves = [], []
        pressure_slopes, solve_banded = ModelParams.pressure_slopes, stepper_mod.solve_banded

        def recording_slopes(self, q):
            slopes.append(pressure_slopes(self, q))
            return slopes[-1]

        def recording_solve(d, e, res):
            solves.append((res.copy(), solve_banded(d, e, res)))
            return solves[-1][1]

        monkeypatch.setattr(ModelParams, "pressure_slopes", recording_slopes)
        monkeypatch.setattr(stepper_mod, "solve_banded", recording_solve)
        checked = 0
        for b, dt, model in oracle_cases(grid, basis, rng):
            slopes.clear()
            solves.clear()
            stepper_mod._solve_implicit_array(b, h, dt, model, SolverCounts())
            assert len(slopes) == len(solves) > 0
            k = dt / h**2
            for (yp, gp), (res, z) in zip(slopes, solves):
                newton = np.diag(yp) + k * tri @ np.diag(gp)
                defect = newton @ (z / gp) - res
                assert np.linalg.norm(defect) <= 1e-12 * np.linalg.norm(res)
                checked += 1
        assert checked > 243

    def test_stall_raises_at_once(self, grid, model, rng, monkeypatch):
        """A line search that gives up ends the stage after that one solve,
        and _drift_substeps recovers by one halving."""
        b = random_field(grid, rng, scale=0.1).values
        h, dt = grid.spacing, 1e-3
        original = stepper_mod.solve_banded
        solves = []

        def stall_first(*args):
            solves.append(None)
            if len(solves) == 1:
                return np.zeros_like(args[-1])  # no descent: every trial is rejected
            return original(*args)

        monkeypatch.setattr(stepper_mod, "solve_banded", stall_first)
        counts = SolverCounts()
        with pytest.raises(ImplicitStepError) as err:
            stepper_mod._solve_implicit_array(b, h, dt, model, counts)
        assert len(solves) == counts.newton_iters == 1
        assert counts.backtracks == 9
        # the reported residual is the one of the starting guess: nothing ran after
        y, g, _ = model.pressure_values(psi0(b, model.diffusion))
        kg = np.zeros(b.size + 2)  # the stage's stencil on the zero-padded k*g
        kg[1:-1] = dt / h**2 * g
        start = np.sqrt(h) * np.linalg.norm((y - b) + 2.0 * kg[1:-1] - kg[:-2] - kg[2:])
        assert err.value.residual == start

        solves.clear()
        counts = SolverCounts()
        y, _ = stepper_mod._drift_substeps(b, h, dt, model, counts)
        assert counts.halvings == 1
        assert counts.newton_iters == len(solves) > 1
        assert np.all(np.isfinite(y))

    def test_non_finite_tolerance_or_start_raises(self, grid, basis, model):
        """A right-hand side whose norm overflows (tolerance inf) or that holds
        an inf (starting residual not finite) raises before any Newton solve,
        instead of passing its starting guess or reaching the tridiagonal
        solve's finiteness check. Halving dt leaves the right-hand side as it
        is, so _drift_substeps re-raises at once, with no halving."""
        huge = 1e160 * basis.modes[0]
        with_inf = basis.modes[0].copy()
        with_inf[3] = np.inf
        for b in (huge, with_inf):
            # both overflow on purpose
            with np.errstate(over="ignore", invalid="ignore"):
                counts = SolverCounts()
                with pytest.raises(NonFiniteStageError, match="non-finite right-hand side"):
                    stepper_mod._solve_implicit_array(b, grid.spacing, 1e-3, model, counts)
                assert counts.newton_iters == 0
                counts = SolverCounts()
                with pytest.raises(NonFiniteStageError):
                    stepper_mod._drift_substeps(b, grid.spacing, 1e-3, model, counts)
                assert counts.halvings == counts.newton_iters == 0

    def test_budget_exhausted_raises(self, grid, model, rng, monkeypatch):
        monkeypatch.setattr(stepper_mod, "_NEWTON_MAX_ITER", 1)
        b = random_field(grid, rng, scale=0.1).values
        counts = SolverCounts()
        with pytest.raises(ImplicitStepError):
            stepper_mod._solve_implicit_array(b, grid.spacing, 1e-3, model, counts)
        assert counts.newton_iters == 1

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_stalled_start_falls_back_to_psi0(self, grid, basis, alpha):
        """Newton from the pressure w = 0 stalls on the first eigenmode at
        dt = 1e-4 (its line search gives up), so the full step is solved
        again from psi0(b): the start-free stage's Y and w bit for bit, with
        no halving, and counts that hold both attempts."""
        model = ModelParams(DiffusionLaw(1.0, alpha), lam=1e-4)
        b, h, dt = basis.modes[0], grid.spacing, 1e-4
        zero = np.zeros_like(b)
        stalled = SolverCounts()
        with pytest.raises(ImplicitStepError):
            stepper_mod._solve_implicit_array(b, h, dt, model, stalled, zero)
        cold = SolverCounts()
        y_cold, w_cold = stepper_mod._drift_substeps(b, h, dt, model, cold)
        counts = SolverCounts()
        y, w = stepper_mod._drift_substeps(b, h, dt, model, counts, zero)
        assert y.tobytes() == y_cold.tobytes() and w.tobytes() == w_cold.tobytes()
        assert counts.halvings == 0
        assert counts.newton_iters == stalled.newton_iters + cold.newton_iters
        assert counts.backtracks == stalled.backtracks + cold.backtracks

    def test_start_at_converged_pressure_takes_no_iteration(self, grid, model, rng):
        """A stage started from its own converged pressure is already
        solved: no Newton iteration, and the same Y and w."""
        b, h, dt = random_field(grid, rng, scale=0.1).values, grid.spacing, 1e-3
        y, w = stepper_mod._solve_implicit_array(b, h, dt, model, SolverCounts())
        counts = SolverCounts()
        y2, w2 = stepper_mod._drift_substeps(b, h, dt, model, counts, w)
        assert counts.newton_iters == counts.backtracks == counts.halvings == 0
        assert y2.tobytes() == y.tobytes() and w2.tobytes() == w.tobytes()

    @pytest.mark.parametrize("error", [ImplicitStepError, NonFiniteStageError])
    def test_stage_errors_pickle(self, error):
        """A stage error that leaves a pool worker arrives whole in the parent."""
        exc = error(1.0)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is error
        assert (back.residual, str(back)) == (exc.residual, str(exc))


class TestStep:
    def test_zero_absorbing(self, grid, model, small_noise):
        """Zero is a fixed point of the noise factor and of the drift stage."""
        cfg = SolverConfig(dt=1e-3, t_final=5e-3, store_states=True)
        zero = np.zeros(grid.n_interior)
        stage, _ = stepper_mod._drift_substeps(zero, grid.spacing, cfg.dt, model, SolverCounts())
        assert np.all(stage == 0)
        res = run_path(Field.zero(grid), cfg, model, small_noise, seed=(1, 0))
        assert np.all(res.states == 0)

    def test_quiet_noise_is_backward_euler(self, grid, model, quiet_noise, rng):
        """With mu = 0 the first step of run_path is exactly the drift stage."""
        dt = 1e-3
        cfg = SolverConfig(dt=dt, t_final=2 * dt, store_states=True)
        x0 = random_field(grid, rng, scale=0.1)
        res = run_path(x0, cfg, model, quiet_noise, seed=(1, 0))
        direct, _ = stepper_mod._drift_substeps(x0.values, grid.spacing, dt, model, SolverCounts())
        np.testing.assert_array_equal(res.states[1], direct)

    def test_seed_replay(self, grid, model, small_noise, rng):
        """One noisy step replays bit for bit under the same (master, path) key."""
        dt = 1e-3
        cfg = SolverConfig(dt=dt, t_final=2 * dt, store_states=True)
        x0 = random_field(grid, rng, scale=0.1)
        a = run_path(x0, cfg, model, small_noise, seed=(4, 2))
        b = run_path(x0, cfg, model, small_noise, seed=(4, 2))
        assert not np.array_equal(a.states[1], x0.values)
        np.testing.assert_array_equal(a.states[1], b.states[1])


@pytest.fixture(scope="module")
def det_extinct_path():
    grid = GridSpec(63)
    basis = build_basis(grid, 2)
    noise = NoiseSpec(mu=np.zeros(2), basis=basis)
    model = ModelParams(DiffusionLaw(1.0, 0.5), lam=1e-4)
    e1 = basis.mode(1)
    x0 = e1.with_values(e1.values * (0.1 / norm_hm1(e1)))
    cfg = SolverConfig(dt=2e-4, t_final=0.16, record_every=10)
    res = run_path(x0, cfg, model, noise, seed=(1, 0))
    return grid, res


class TestRunPath:
    def test_zero_start(self, grid, model, small_noise):
        cfg = SolverConfig(dt=1e-3, t_final=0.01)
        res = run_path(Field.zero(grid), cfg, model, small_noise, seed=(1, 0))
        assert res.tau_hat == 0.0
        assert np.all(res.hm1_norms == 0)

    def test_deterministic_extinction(self, det_extinct_path):
        grid, res = det_extinct_path
        assert res.tau_hat is not None
        gamma = estimate_gamma(grid, 0.5).value
        t_det = deterministic_extinction_time(
            BoundInputs(x_norm_hm1=0.1, alpha=0.5, rho=1.0, gamma=gamma, c_star=0.0)
        )
        assert res.tau_hat <= 1.1 * t_det

    def test_noise_free_hm1_monotone(self, det_extinct_path):
        _, res = det_extinct_path
        assert np.all(np.diff(res.hm1_norms) <= 1e-12)

    def test_absorption_exact_zero(self, det_extinct_path):
        _, res = det_extinct_path
        after = res.hm1_norms[res.times > res.tau_hat]
        assert after.size > 0 and np.all(after == 0.0)

    def test_positivity_from_nonnegative_start(self, grid, model, small_noise, basis):
        e1 = basis.mode(1)
        x0 = e1.with_values(e1.values * (0.1 / norm_hm1(e1)))
        cfg = SolverConfig(dt=1e-3, t_final=0.05, record_every=5)
        for idx in range(5):
            res = run_path(x0, cfg, model, small_noise, seed=(77, idx))
            floor = -1e-8 * max(1.0, norm_l2(x0))
            assert res.min_values.min() >= floor

    def test_bitwise_determinism(self, grid, model, small_noise, basis):
        x0 = basis.mode(1)
        cfg = SolverConfig(dt=1e-3, t_final=0.02, record_every=2)
        a = run_path(x0, cfg, model, small_noise, seed=(5, 9))
        b = run_path(x0, cfg, model, small_noise, seed=(5, 9))
        np.testing.assert_array_equal(a.hm1_norms, b.hm1_norms)
        np.testing.assert_array_equal(a.max_values, b.max_values)

    def test_failure_reporting(self, grid, model, small_noise, monkeypatch, rng):
        def always_fail(*args, **kwargs):
            raise ImplicitStepError(residual=1.0)

        monkeypatch.setattr(stepper_mod, "_solve_implicit_array", always_fail)
        cfg = SolverConfig(dt=1e-3, t_final=0.01)
        res = run_path(random_field(grid, rng), cfg, model, small_noise, seed=(1, 0))
        assert res.failure is not None and "residual" in res.failure

    def test_failed_path_records_the_held_state(self, model, basis, monkeypatch):
        """When the stage fails at step 3 the path holds its kicked state,
        and every row records the norms of the state it stores: the held
        state's H^-1 norm, not the last stage's."""
        noise = NoiseSpec(mu=np.array([0.3, 0.1]), basis=basis)
        x0, cfg = self._noisy_extinct_setup(basis, store_states=True)
        stage, calls = stepper_mod._drift_substeps, []

        def fail_third(*args):
            calls.append(None)
            if len(calls) == 3:
                raise ImplicitStepError(residual=1.0)
            return stage(*args)

        monkeypatch.setattr(stepper_mod, "_drift_substeps", fail_third)
        res = run_path(x0, cfg, model, noise, seed=(1, 0))
        assert res.failure is not None and len(calls) == 3 and res.tau_hat is None
        h = basis.grid.spacing
        states = res.states
        np.testing.assert_array_equal(
            res.hm1_norms, norm_hm1_array(states, poisson_solve_array(states, h), h)
        )
        np.testing.assert_array_equal(res.lp_norms, norm_lp_array(states, h, 1.5))
        assert res.hm1_norms[3] != res.hm1_norms[2]

    def test_noise_on_another_grid_rejected(self, model, small_noise, rng):
        """run_path multiplies the state by the noise factor, so it checks
        that both live on one grid, before the first step."""
        coarse = GridSpec(31)
        cfg = SolverConfig(dt=1e-3, t_final=0.01)
        with pytest.raises(GridError, match="different grids"):
            run_path(random_field(coarse, rng), cfg, model, small_noise, seed=(1, 0))

    def test_trajectory_csv(self, det_extinct_path, tmp_path):
        """The recorded rows written by the CLI's CSV writer: the header, one
        line per row, and every value read back exactly, the exact zeros
        after extinction included."""
        _, res = det_extinct_path
        m = discounted_norm(res.times, res.hm1_norms, 0.0, 0.5)
        columns = (res.times, res.hm1_norms, res.lp_norms, res.min_values, res.max_values, m)
        out = tmp_path / "traj.csv"
        _write_csv(
            out, "t,hm1_norm,lp_norm,min,max,supermartingale",
            zip(*(c.tolist() for c in columns)),
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,hm1_norm,lp_norm,min,max,supermartingale"
        assert len(lines) == res.times.size + 1
        np.testing.assert_array_equal(
            np.loadtxt(lines[1:], delimiter=","), np.column_stack(columns)
        )
        assert res.hm1_norms[-1] == 0.0

    @staticmethod
    def _noisy_extinct_setup(basis, **solver):
        e1 = basis.mode(1)
        x0 = e1.with_values(e1.values * (0.1 / norm_hm1(e1)))
        return x0, SolverConfig(dt=1e-3, t_final=0.2, record_every=1, **solver)

    def test_no_increments_drawn_after_extinction(
        self, model, small_noise, basis, monkeypatch
    ):
        x0, cfg = self._noisy_extinct_setup(basis)
        draws = []
        original = stepper_mod.sample_increments

        def counting(*args):
            draws.append(None)
            return original(*args)

        monkeypatch.setattr(stepper_mod, "sample_increments", counting)
        res = run_path(x0, cfg, model, small_noise, seed=(8, 3))
        n_steps = round(cfg.t_final / cfg.dt)
        assert res.tau_hat is not None and len(draws) == round(res.tau_hat / cfg.dt) < n_steps

    def test_paths_match_scipy_wrappers(self, model, small_noise, basis, monkeypatch):
        """The LAPACK kernels give the paths of scipy's solveh_banded bit for
        bit, for the Newton step and for the Poisson solve."""
        x0, cfg = self._noisy_extinct_setup(basis, store_states=True)
        seeds = [(6, 0), (6, 1)]
        shipped = [run_path(x0, cfg, model, small_noise, seed=s) for s in seeds]
        calls = {"newton": 0, "hm1": 0}

        def scipy_newton(d, e, b):
            calls["newton"] += 1
            band = np.zeros((2, d.size))  # upper form
            band[0, 1:], band[1] = e, d
            return scipy.linalg.solveh_banded(band, b)

        def scipy_poisson(f, h):
            calls["hm1"] += 1
            return scipy_poisson_solve(f, h)

        monkeypatch.setattr(stepper_mod, "solve_banded", scipy_newton)
        monkeypatch.setattr(stepper_mod, "poisson_solve_array", scipy_poisson)
        wrapped = [run_path(x0, cfg, model, small_noise, seed=s) for s in seeds]
        assert calls["newton"] > 0 and calls["hm1"] > 0
        for a, b in zip(shipped, wrapped):
            assert a.tau_hat is not None and a.tau_hat == b.tau_hat
            for f in dataclasses.fields(Trajectory):
                np.testing.assert_array_equal(
                    getattr(a, f.name), getattr(b, f.name)
                )

    def test_solver_counts(self, model, small_noise, basis, monkeypatch):
        x0, cfg = self._noisy_extinct_setup(basis)
        newton = []
        original_solve = stepper_mod.solve_banded

        def counting(*args):
            newton.append(None)
            return original_solve(*args)

        monkeypatch.setattr(stepper_mod, "solve_banded", counting)
        res = run_path(x0, cfg, model, small_noise, seed=(2, 5))
        assert res.solver_counts.newton_iters == len(newton) > 0
        assert res.solver_counts.halvings == 0

        # the first full step fails once and is redone as two half steps
        original_stage = stepper_mod._solve_implicit_array
        failures = []

        def fail_first(b, h, dt, *args):
            if not failures:
                failures.append(dt)
                raise ImplicitStepError(residual=1.0)
            return original_stage(b, h, dt, *args)

        monkeypatch.setattr(stepper_mod, "_solve_implicit_array", fail_first)
        halved = run_path(x0, cfg, model, small_noise, seed=(2, 5))
        assert failures == [cfg.dt]
        assert halved.solver_counts.halvings == 1
        assert halved.solver_counts.newton_iters > 0


    def test_predicted_start_keeps_the_path(self, model, small_noise, basis, monkeypatch):
        """Against every stage started from psi0(b), the predicted start
        takes under two thirds of the Newton iterations (about 1.9 per live
        step against 3 at this dt = 1e-3) and gives the same tau_hat,
        with states that differ by no more than the stage tolerance allows."""
        x0, cfg = self._noisy_extinct_setup(basis, store_states=True)
        predicted = run_path(x0, cfg, model, small_noise, seed=(8, 3))
        stage = stepper_mod._drift_substeps

        def cold_stage(b, h, dt, model, counts, start=None):
            return stage(b, h, dt, model, counts)

        monkeypatch.setattr(stepper_mod, "_drift_substeps", cold_stage)
        cold = run_path(x0, cfg, model, small_noise, seed=(8, 3))
        assert predicted.tau_hat == cold.tau_hat is not None
        assert predicted.solver_counts.halvings == cold.solver_counts.halvings == 0
        assert predicted.solver_counts.newton_iters < 2 / 3 * cold.solver_counts.newton_iters
        assert np.abs(predicted.states - cold.states).max() <= 1e-8

    def test_bump_path_with_exact_zeros(self, grid, basis, small_noise):
        """A hat bump, exactly zero on half the grid, at alpha = 0.2: the
        path runs to extinction with no RuntimeWarning and no halving."""
        model = ModelParams(DiffusionLaw(1.0, 0.2), lam=1e-4)
        x0 = make_initial(InitialSpec("bump", target_hm1_norm=0.1), grid, basis)
        assert np.count_nonzero(x0.values == 0.0) >= grid.n_interior // 2
        cfg = SolverConfig(dt=1e-3, t_final=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_path(x0, cfg, model, small_noise, seed=(23, 0))
        assert res.failure is None and res.tau_hat is not None
        assert res.solver_counts.halvings == 0


class TestWeakFormResidual:
    @staticmethod
    def _run(x0, grid, basis, noise, model, dt, t_final=0.02):
        cfg = SolverConfig(dt=dt, t_final=t_final, record_every=1, store_states=True)
        return run_path(x0, cfg, model, noise, seed=(3, 0))

    def test_zero_start_zero_residual(self, grid, basis, model, small_noise):
        res = self._run(Field.zero(grid), grid, basis, small_noise, model, 1e-3)
        assert weak_form_residual(res, 1, model, small_noise) == 0.0

    def test_requires_logs(self, grid, basis, model, small_noise):
        cfg = SolverConfig(dt=1e-3, t_final=0.01)
        res = run_path(Field.zero(grid), cfg, model, small_noise, seed=(3, 0))
        with pytest.raises(ValueError):
            weak_form_residual(res, 1, model, small_noise)

    def test_rejects_recording_stride(self, grid, basis, model, small_noise):
        cfg = SolverConfig(dt=1e-3, t_final=0.01, record_every=5, store_states=True)
        res = run_path(Field.zero(grid), cfg, model, small_noise, seed=(3, 0))
        with pytest.raises(ValueError):
            weak_form_residual(res, 1, model, small_noise)

    def test_pinned_on_noisy_extinct_path(self, basis, model, small_noise):
        """The Ito sums take the increments the path drew, drawn again from its
        seed for all n_steps, the steps after extinction included; the
        residuals are pinned bit for bit."""
        x0, cfg = TestRunPath._noisy_extinct_setup(basis, store_states=True)
        res = run_path(x0, cfg, model, small_noise, seed=(8, 3))
        assert res.tau_hat == 0.128
        assert weak_form_residual(res, 1, model, small_noise) == 0.0026278702602056626
        assert weak_form_residual(res, 2, model, small_noise) == 2.3467807855102147e-05

    def test_halving_ratio_window(self, grid, basis, quiet_noise):
        model = ModelParams(DiffusionLaw(1.0, 0.5), lam=1e-5)
        mix = Field(
            basis.modes[0] + 0.5 * basis.modes[1] + 0.3 * basis.modes[2], grid
        )
        x0 = mix.with_values(mix.values * (0.1 / norm_hm1(mix)))
        defects = []
        for dt in (2e-3, 1e-3, 5e-4):
            res = self._run(x0, grid, basis, quiet_noise, model, dt)
            defects.append(weak_form_residual(res, 1, model, quiet_noise))
        for big, small in zip(defects, defects[1:]):
            assert 1.2 <= big / small <= 4.0


class TestConvergenceStudy:
    def test_identical_lambdas_zero_distance(self, grid, basis, model, small_noise):
        x0 = basis.mode(1)
        cfg = SolverConfig(dt=1e-3, t_final=0.01, record_every=2)
        rows = convergence_study(
            x0, cfg, model, small_noise, (1e-2, 1e-2), seed=(11, 0)
        )
        assert rows[0].sup_hm1 == 0.0
        assert rows[0].l2l2 == 0.0

    def test_cauchy_decrease(self, grid, basis, model, small_noise):
        e1 = basis.mode(1)
        x0 = e1.with_values(e1.values * (0.1 / norm_hm1(e1)))
        cfg = SolverConfig(dt=1e-3, t_final=0.03, record_every=3)
        rows = convergence_study(
            x0, cfg, model, small_noise, (1e-1, 5e-2, 2.5e-2), seed=(11, 0)
        )
        d = [r.sup_hm1 for r in rows]
        assert d[0] > d[1] > 0

    def test_seed_reproducible(self, grid, basis, model, small_noise):
        x0 = basis.mode(1)
        cfg = SolverConfig(dt=1e-3, t_final=0.01, record_every=2)
        a = convergence_study(x0, cfg, model, small_noise, (1e-1, 5e-2), seed=(2, 0))
        b = convergence_study(x0, cfg, model, small_noise, (1e-1, 5e-2), seed=(2, 0))
        assert a[0].sup_hm1 == b[0].sup_hm1


class TestSolverConfig:
    def test_step_time(self):
        """The time run_path writes for its last step at or before t."""
        cfg = SolverConfig(dt=1e-4, t_final=0.278)
        assert cfg.step_time(0.10504) == 1050 * cfg.dt
        assert cfg.step_time(0.10499) == 1049 * cfg.dt
        assert cfg.step_time(0.105) == 1050 * cfg.dt > 0.105
        assert cfg.step_time(cfg.t_final) == 2780 * cfg.dt

    def test_dt_bounds(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=1.0, t_final=0.5)

    @pytest.mark.parametrize("dt", [0.04, 0.06])
    def test_dt_must_divide_t_final(self, dt):
        """run_path takes round(T/dt) steps: at dt = 0.04 it would stop at
        t = 0.08 and at dt = 0.06 run on to t = 0.12, not end at T = 0.1."""
        with pytest.raises(ValueError, match="must divide"):
            SolverConfig(dt=dt, t_final=0.1)

    def test_dt_dividing_t_final_up_to_rounding(self):
        # 0.3 / 0.1 is 2.9999999999999996 and 3 * 0.1 is 0.30000000000000004
        assert SolverConfig(dt=0.1, t_final=0.3).t_final == 0.3

    @pytest.mark.parametrize("eps", [0.0, -1e-6, float("inf")])
    def test_extinction_eps_positive_and_finite(self, eps):
        """run_path's extinction test |X|_-1 <= eps needs 0 < eps < inf."""
        with pytest.raises(ValueError, match="extinction_eps"):
            SolverConfig(dt=0.1, t_final=0.3, extinction_eps=eps)
