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
    GridSpec,
    ModelParams,
    NoiseSpec,
    SolverConfig,
    build_basis,
    convergence_study,
    estimate_gamma,
    norm_hm1,
    psi0,
    run_ensemble,
    run_path,
    weak_form_residual,
)
from spmlab.harness import ExperimentConfig, InitialSpec, make_initial
from spmlab.operators import (
    GridError,
    laplacian_array,
    norm_hm1_array,
    norm_l2_array,
    norm_lp_array,
    poisson_solve_array,
)
from spmlab.stepper import ImplicitStepError, NonFiniteStageError, SolverCounts, Trajectory
from spmlab.cli import _write_csv
from spmlab.noise import kick_factor, make_stream, sample_increments
from spmlab.theory import BoundInputs, deterministic_extinction_time, discounted_norm

from conftest import (
    drift_oracle,
    extremal_start,
    frozen_shape_tau,
    gtsv_reference_stage,
    reference_stage,
    random_field,
    resolvent_bisect,
    resolvent_half,
    scheme_extinction_time,
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
        out, _ = stepper_mod._drift_substeps(zero, 1e-3, model, SolverCounts())
        assert np.all(out == 0)

    def test_nonlinear_residual_small(self, grid, model, rng, monkeypatch):
        monkeypatch.setattr(stepper_mod, "_NEWTON_TOL", 1e-11)
        B = random_field(grid, rng, scale=0.1)
        dt = 1e-3
        Y, _ = stepper_mod._drift_substeps(B, dt, model, SolverCounts())
        g, _ = drift_oracle(Y, model)
        res = Y - dt * laplacian_array(g) - B
        assert np.sqrt(grid.spacing) * np.linalg.norm(res) <= 1e-11 * max(
            1.0, norm_l2_array(B)
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
            B = amplitude * data
            Y, _ = stepper_mod._drift_substeps(B, dt, model, SolverCounts())
            if alpha == 0.5:
                J = resolvent_half(Y, law.rho, lam)
            else:
                J = resolvent_bisect(Y, law.rho, alpha, lam)
            G = psi0(J, law) + lam * Y
            res = Y - dt * laplacian_array(G) - B
            assert np.sqrt(h) * np.linalg.norm(res) <= tol * max(1.0, norm_l2_array(B))

    def test_stress_grid_converges(self, grid, basis, rng):
        """Newton alone solves every stage of a 243-case grid, quickly."""
        worst = 0
        for b, dt, model in stress_grid(grid, basis, rng):
            counts = SolverCounts()
            stepper_mod._solve_implicit_array(b, dt, model, counts)
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
            y, _ = stepper_mod._solve_implicit_array(b, dt, model, counts)
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
            y, _ = stepper_mod._solve_implicit_array(b, dt, model, counts)
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
            stepper_mod._solve_implicit_array(b, dt, model, SolverCounts())
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
        b = random_field(grid, rng, scale=0.1)
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
            stepper_mod._solve_implicit_array(b, dt, model, counts)
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
        y, _ = stepper_mod._drift_substeps(b, dt, model, counts)
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
                    stepper_mod._solve_implicit_array(b, 1e-3, model, counts)
                assert counts.newton_iters == 0
                counts = SolverCounts()
                with pytest.raises(NonFiniteStageError):
                    stepper_mod._drift_substeps(b, 1e-3, model, counts)
                assert counts.halvings == counts.newton_iters == 0

    def test_budget_exhausted_raises(self, grid, model, rng, monkeypatch):
        monkeypatch.setattr(stepper_mod, "_NEWTON_MAX_ITER", 1)
        b = random_field(grid, rng, scale=0.1)
        counts = SolverCounts()
        with pytest.raises(ImplicitStepError):
            stepper_mod._solve_implicit_array(b, 1e-3, model, counts)
        assert counts.newton_iters == 1

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_stalled_start_falls_back_to_psi0(self, grid, basis, alpha):
        """Newton from the pressure w = 0 stalls on the first eigenmode at
        dt = 1e-4 (its line search gives up), so the full step is solved
        again from psi0(b): the start-free stage's Y and w bit for bit, with
        no halving, and counts that hold both attempts."""
        model = ModelParams(DiffusionLaw(1.0, alpha), lam=1e-4)
        b, dt = basis.modes[0], 1e-4
        zero = np.zeros_like(b)
        stalled = SolverCounts()
        with pytest.raises(ImplicitStepError):
            stepper_mod._solve_implicit_array(b, dt, model, stalled, zero)
        cold = SolverCounts()
        y_cold, w_cold = stepper_mod._drift_substeps(b, dt, model, cold)
        counts = SolverCounts()
        y, w = stepper_mod._drift_substeps(b, dt, model, counts, zero)
        assert y.tobytes() == y_cold.tobytes() and w.tobytes() == w_cold.tobytes()
        assert counts.halvings == 0
        assert counts.newton_iters == stalled.newton_iters + cold.newton_iters
        assert counts.backtracks == stalled.backtracks + cold.backtracks

    def test_start_at_converged_pressure_takes_no_iteration(self, grid, model, rng):
        """A stage started from its own converged pressure is already
        solved: no Newton iteration, and the same Y and w."""
        b, dt = random_field(grid, rng, scale=0.1), 1e-3
        y, w = stepper_mod._solve_implicit_array(b, dt, model, SolverCounts())
        counts = SolverCounts()
        y2, w2 = stepper_mod._drift_substeps(b, dt, model, counts, w)
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
        stage, _ = stepper_mod._drift_substeps(zero, cfg.dt, model, SolverCounts())
        assert np.all(stage == 0)
        res = run_path(np.zeros(grid.n_interior), cfg, model, small_noise, seed=(1, 0))
        assert np.all(res.states == 0)

    def test_quiet_noise_is_backward_euler(self, grid, model, quiet_noise, rng):
        """With mu = 0 the first step of run_path is exactly the drift stage."""
        dt = 1e-3
        cfg = SolverConfig(dt=dt, t_final=2 * dt, store_states=True)
        x0 = random_field(grid, rng, scale=0.1)
        res = run_path(x0, cfg, model, quiet_noise, seed=(1, 0))
        direct, _ = stepper_mod._drift_substeps(x0, dt, model, SolverCounts())
        np.testing.assert_array_equal(res.states[1], direct)

    def test_seed_replay(self, grid, model, small_noise, rng):
        """One noisy step replays bit for bit under the same (master, path) key."""
        dt = 1e-3
        cfg = SolverConfig(dt=dt, t_final=2 * dt, store_states=True)
        x0 = random_field(grid, rng, scale=0.1)
        a = run_path(x0, cfg, model, small_noise, seed=(4, 2))
        b = run_path(x0, cfg, model, small_noise, seed=(4, 2))
        assert not np.array_equal(a.states[1], x0)
        np.testing.assert_array_equal(a.states[1], b.states[1])


# the solver config of det_extinct_path
DET_CONFIG = SolverConfig(dt=2e-4, t_final=0.16, record_every=10)


@pytest.fixture(scope="module")
def det_extinct_path():
    grid = GridSpec(63)
    basis = build_basis(grid, 2)
    noise = NoiseSpec(mu=np.zeros(2), basis=basis)
    model = ModelParams(DiffusionLaw(1.0, 0.5), lam=1e-4)
    e1 = basis.mode(1)
    x0 = e1 * (0.1 / norm_hm1(e1))
    res = run_path(x0, DET_CONFIG, model, noise, seed=(1, 0))
    return grid, res


class TestRunPath:
    def test_zero_start(self, grid, model, small_noise):
        cfg = SolverConfig(dt=1e-3, t_final=0.01)
        res = run_path(np.zeros(grid.n_interior), cfg, model, small_noise, seed=(1, 0))
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
        after = res.hm1_norms[DET_CONFIG.record_times > res.tau_hat]
        assert after.size > 0 and np.all(after == 0.0)

    def test_positivity_from_nonnegative_start(self, grid, model, small_noise, basis):
        e1 = basis.mode(1)
        x0 = e1 * (0.1 / norm_hm1(e1))
        cfg = SolverConfig(dt=1e-3, t_final=0.05, record_every=5)
        for idx in range(5):
            res = run_path(x0, cfg, model, small_noise, seed=(77, idx))
            floor = -1e-8 * max(1.0, norm_l2_array(x0))
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
        the state of step 2 times the third draw's kick factor, and every
        row records the norms of the state it stores: the held state's H^-1
        norm, not the last stage's. Every row and state from step 3 on is
        the held kick's."""
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
        states = res.states
        np.testing.assert_array_equal(
            res.hm1_norms, norm_hm1_array(states, poisson_solve_array(states))
        )
        np.testing.assert_array_equal(res.lp_norms, norm_lp_array(states, 1.5))
        assert res.hm1_norms[3] != res.hm1_norms[2]
        stream = make_stream(1, 0)
        for _ in range(3):
            dbeta = sample_increments(cfg.dt, noise.n_modes, stream)
        held = states[2] * kick_factor(dbeta, noise.scaled_modes())
        np.testing.assert_array_equal(states[3:], np.broadcast_to(held, states[3:].shape))
        for column in (res.hm1_norms, res.lp_norms, res.min_values, res.max_values):
            np.testing.assert_array_equal(column[3:], column[3])

    def test_one_row_per_record_time(self, model, small_noise, basis):
        """A path has one row per time of its config's record_times, the last
        step included where the stride passes it over, and each row is the
        row of that step in a run that records every step."""
        cfg = SolverConfig(dt=1e-3, t_final=0.01, record_every=3, store_states=True)
        strided = run_path(basis.mode(1), cfg, model, small_noise, seed=(5, 9))
        every = run_path(
            basis.mode(1), dataclasses.replace(cfg, record_every=1), model, small_noise,
            seed=(5, 9),
        )
        steps = [0, 3, 6, 9, 10]
        assert cfg.record_times.tolist() == [i * cfg.dt for i in steps]
        assert strided.hm1_norms.size == strided.states.shape[0] == len(steps)
        np.testing.assert_array_equal(strided.hm1_norms, every.hm1_norms[steps])
        np.testing.assert_array_equal(strided.states, every.states[steps])

    def test_coercivity_counted_only_when_checked(self, grid, model, small_noise, basis):
        """Without gamma_check run_path checks no step, so it reports no
        count (None), not 0 violations; with it every live step is checked,
        and a gamma far above the estimate fails on some step."""
        x0, cfg = self._noisy_extinct_setup(basis)
        unchecked = run_path(x0, cfg, model, small_noise, seed=(2, 5))
        assert unchecked.coercivity_violations is None
        gamma = estimate_gamma(grid, 0.5).value
        checked = run_path(x0, cfg, model, small_noise, seed=(2, 5), gamma_check=gamma)
        assert checked.coercivity_violations == 0
        inflated = run_path(x0, cfg, model, small_noise, seed=(2, 5), gamma_check=2.0 * gamma)
        assert inflated.coercivity_violations > 0

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
        times = DET_CONFIG.record_times
        m = discounted_norm(times, res.hm1_norms, 0.0, 0.5)
        columns = (times, res.hm1_norms, res.lp_norms, res.min_values, res.max_values, m)
        out = tmp_path / "traj.csv"
        _write_csv(
            out, "t,hm1_norm,lp_norm,min,max,supermartingale",
            zip(*(c.tolist() for c in columns)),
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,hm1_norm,lp_norm,min,max,supermartingale"
        assert len(lines) == times.size + 1
        np.testing.assert_array_equal(
            np.loadtxt(lines[1:], delimiter=","), np.column_stack(columns)
        )
        assert res.hm1_norms[-1] == 0.0

    @staticmethod
    def _noisy_extinct_setup(basis, **solver):
        e1 = basis.mode(1)
        x0 = e1 * (0.1 / norm_hm1(e1))
        return x0, SolverConfig(dt=1e-3, t_final=0.2, record_every=1, **solver)

    def test_no_increments_drawn_after_extinction(
        self, model, small_noise, basis, monkeypatch
    ):
        """A path that dies draws one increment per step up to tau_hat, and
        one alive at t_final draws exactly n_steps."""
        x0, cfg = self._noisy_extinct_setup(basis)
        draws = []
        original = stepper_mod.sample_increments

        def counting(*args):
            draws.append(None)
            return original(*args)

        monkeypatch.setattr(stepper_mod, "sample_increments", counting)
        res = run_path(x0, cfg, model, small_noise, seed=(8, 3))
        assert res.tau_hat is not None
        assert len(draws) == round(res.tau_hat / cfg.dt) < cfg.n_steps
        draws.clear()
        short = dataclasses.replace(cfg, t_final=0.05)
        res = run_path(x0, short, model, small_noise, seed=(8, 3))
        assert res.tau_hat is None and res.failure is None
        assert len(draws) == short.n_steps == 50

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

        def scipy_poisson(f):
            calls["hm1"] += 1
            return scipy_poisson_solve(f, 1.0 / (f.size + 1))

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

        def fail_first(b, dt, *args):
            if not failures:
                failures.append(dt)
                raise ImplicitStepError(residual=1.0)
            return original_stage(b, dt, *args)

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

        def cold_stage(b, dt, model, counts, start=None):
            return stage(b, dt, model, counts)

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
        assert np.count_nonzero(x0 == 0.0) >= grid.n_interior // 2
        cfg = SolverConfig(dt=1e-3, t_final=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_path(x0, cfg, model, small_noise, seed=(23, 0))
        assert res.failure is None and res.tau_hat is not None
        assert res.solver_counts.halvings == 0


class TestExtremalOracle:
    """Noise-free paths from extremal_start (|x0|_-1 = 0.1, n = 255, rho = 1),
    on which the scheme reduces to one scalar recursion in |X|_-1, so gamma
    fixes tau_hat to the step and the norm's decay in closed form."""

    # t_final past the extinction time at each alpha
    CASES = [(0.2, 0.07), (0.5, 0.14), (0.8, 0.4)]

    @staticmethod
    def _run(alpha, t_final, dt, lam):
        grid = GridSpec(255)
        noise = NoiseSpec(mu=np.zeros(1), basis=build_basis(grid, 1))
        model = ModelParams(DiffusionLaw(1.0, alpha), lam=lam)
        cfg = SolverConfig(dt=dt, t_final=t_final, extinction_eps=1e-6)
        x0 = extremal_start(grid, alpha, 0.1)
        return estimate_gamma(grid, alpha).value, cfg, run_path(x0, cfg, model, noise, seed=(0, 0))

    @pytest.mark.parametrize("alpha, t_final", CASES)
    def test_tau_hat_is_the_scalar_schemes(self, alpha, t_final):
        """|tau_hat - T_dt(eps)| is at most one step (0 steps at each alpha:
        T_dt = 0.0617, 0.1249, 0.3743)."""
        dt = 1e-4
        gamma, _, res = self._run(alpha, t_final, dt, lam=1e-4)
        t_dt = scheme_extinction_time(gamma, alpha, 1.0, dt, 0.1, 1e-6)
        assert res.tau_hat is not None
        assert abs(res.tau_hat - t_dt) <= dt * (1.0 + 1e-9)

    @pytest.mark.parametrize("alpha, t_final", CASES)
    def test_first_order_in_dt(self, alpha, t_final):
        """The largest error of |X|_-1^(1-alpha) against |x0|_-1^(1-alpha) -
        D*t, D = (1-alpha)*rho*gamma^(1+alpha), over rows with |X|_-1 > 1e-3,
        halves with dt (ratios 1.99-2.01). At lam = 1e-4 the regularization's
        own error floors it (ratios 1.75-1.89), so lam is 1e-8 here."""
        errors = []
        for dt in (2e-4, 1e-4, 5e-5):
            gamma, cfg, res = self._run(alpha, t_final, dt, lam=1e-8)
            d = (1.0 - alpha) * gamma ** (1.0 + alpha)
            live = res.hm1_norms > 1e-3
            exact = 0.1 ** (1.0 - alpha) - d * cfg.record_times[live]
            errors.append(np.abs(res.hm1_norms[live] ** (1.0 - alpha) - exact).max())
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.8 <= coarse / fine <= 2.2


class TestFrozenShapeOracle:
    """Noisy paths from extremal_start (|x0|_-1 = 0.1, n = 127, dt = 1e-4,
    lam = 1e-4, rho = 1): the shape stays near gamma's extremal profile, so
    each path's tau_hat is the frozen-shape scalar model's (frozen_shape_tau)
    under the same increments, to a few steps, while tau_hat itself spreads
    over up to 722 steps at mu = (1, 0.3)."""

    # (alpha, mu, t_final, steps): 12 paths at master seed 17 differ from
    # the model by -1..1 steps, at alpha = 0.7 and mu = (1, 0.3) by -3..1.
    # These are the bounds of these paths, not of every seed: at seeds 7, 23
    # and 101, mu = (1, 0.3) reaches 3 steps at alpha = 0.5 and 5 at 0.7.
    # The model with gamma 1e-3 larger, or with a_1 0.9 times as large,
    # misses every case (by up to 6 and 33 steps).
    CASES = [
        (0.3, (0.05, 0.02), 0.2, 1),
        (0.3, (1.0, 0.3), 0.2, 1),
        (0.5, (0.05, 0.02), 0.3, 1),
        (0.5, (1.0, 0.3), 0.3, 1),
        (0.7, (0.05, 0.02), 0.5, 1),
        (0.7, (1.0, 0.3), 0.5, 3),
    ]

    @pytest.mark.parametrize("alpha, mu, t_final, steps", CASES)
    def test_tau_hat_is_the_models(self, alpha, mu, t_final, steps):
        dt, n_paths, seed = 1e-4, 12, 17
        grid = GridSpec(127)
        x0 = extremal_start(grid, alpha, 0.1)
        gamma = estimate_gamma(grid, alpha).value
        solver = SolverConfig(dt=dt, t_final=t_final, record_every=round(t_final / dt))
        config = ExperimentConfig(
            grid, 2, ModelParams(DiffusionLaw(1.0, alpha), lam=1e-4), mu, solver,
            InitialSpec("custom", values=tuple(x0)), n_paths=n_paths,
            master_seed=seed, checkpoints=(t_final,), gamma=gamma,
        )
        tau_hats = run_ensemble(config, workers=2).tau_hats
        noise = NoiseSpec(mu=np.array(mu), basis=build_basis(grid, 2))
        for i, tau_hat in enumerate(tau_hats):
            tau = frozen_shape_tau(x0, noise, gamma, alpha, 1.0, solver, (seed, i))
            assert tau_hat is not None and tau is not None
            assert abs(tau_hat - tau) <= steps * dt * (1.0 + 1e-9), f"path {i}"

    def test_strong_antisymmetric_noise_breaks_the_model(self):
        """The model's known limit: at mu = (2, 13), alpha = 1/2 and dt =
        1e-5 the SPDE dies far sooner than the frozen-shape model says, well
        outside the 3 steps allowed above. Path 0 at seed 17 dies at tau_hat =
        0.05242, and the model's tau is 0.13949, 8707 steps later (of 10
        paths, the SPDE's all die by 0.116 and the model leaves 6 alive at
        0.2), so the one path shows it."""
        alpha, mu, dt, t_final, seed = 0.5, (2.0, 13.0), 1e-5, 0.2, (17, 0)
        grid = GridSpec(127)
        x0 = extremal_start(grid, alpha, 0.1)
        gamma = estimate_gamma(grid, alpha).value
        noise = NoiseSpec(mu=np.array(mu), basis=build_basis(grid, 2))
        solver = SolverConfig(dt=dt, t_final=t_final, record_every=round(t_final / dt))
        model = ModelParams(DiffusionLaw(1.0, alpha), lam=1e-4)
        tau_hat = run_path(x0, solver, model, noise, seed=seed).tau_hat
        tau = frozen_shape_tau(x0, noise, gamma, alpha, 1.0, solver, seed)
        assert tau_hat is not None
        assert tau is None or tau - tau_hat > 3 * dt * (1.0 + 1e-9)


class TestWeakFormResidual:
    @staticmethod
    def _run(x0, grid, basis, noise, model, dt, t_final=0.02):
        """The config and the path, stored at every step."""
        cfg = SolverConfig(dt=dt, t_final=t_final, record_every=1, store_states=True)
        return cfg, run_path(x0, cfg, model, noise, seed=(3, 0))

    def test_zero_start_zero_residual(self, grid, basis, model, small_noise):
        cfg, res = self._run(np.zeros(grid.n_interior), grid, basis, small_noise, model, 1e-3)
        assert weak_form_residual(res, cfg, 1, model, small_noise) == 0.0

    def test_requires_logs(self, grid, basis, model, small_noise):
        cfg = SolverConfig(dt=1e-3, t_final=0.01)
        res = run_path(np.zeros(grid.n_interior), cfg, model, small_noise, seed=(3, 0))
        with pytest.raises(ValueError):
            weak_form_residual(res, cfg, 1, model, small_noise)

    def test_rejects_recording_stride(self, grid, basis, model, small_noise):
        cfg = SolverConfig(dt=1e-3, t_final=0.01, record_every=5, store_states=True)
        res = run_path(np.zeros(grid.n_interior), cfg, model, small_noise, seed=(3, 0))
        with pytest.raises(ValueError):
            weak_form_residual(res, cfg, 1, model, small_noise)

    def test_rejects_another_configs_rows(self, grid, basis, model, small_noise):
        """A path read under another solver config than it ran under would
        meet other steps' increments: it must have config.n_steps + 1 rows."""
        x0 = basis.mode(1)
        cfg, res = self._run(x0, grid, basis, small_noise, model, 1e-3, t_final=0.02)
        for other in (dataclasses.replace(cfg, t_final=0.01), dataclasses.replace(cfg, dt=5e-4)):
            with pytest.raises(ValueError, match="rows"):
                weak_form_residual(res, other, 1, model, small_noise)

    def test_pinned_on_noisy_extinct_path(self, basis, model, small_noise):
        """The Ito sums take the increments the path drew, drawn again from its
        seed for all n_steps, the steps after extinction included; the
        residuals are pinned bit for bit."""
        x0, cfg = TestRunPath._noisy_extinct_setup(basis, store_states=True)
        res = run_path(x0, cfg, model, small_noise, seed=(8, 3))
        assert res.tau_hat == 0.128
        assert weak_form_residual(res, cfg, 1, model, small_noise) == 0.0026278702602056626
        assert weak_form_residual(res, cfg, 2, model, small_noise) == 2.3467807855102147e-05

    def test_halving_ratio_window(self, grid, basis, quiet_noise):
        model = ModelParams(DiffusionLaw(1.0, 0.5), lam=1e-5)
        mix = basis.modes[0] + 0.5 * basis.modes[1] + 0.3 * basis.modes[2]
        x0 = mix * (0.1 / norm_hm1(mix))
        defects = []
        for dt in (2e-3, 1e-3, 5e-4):
            cfg, res = self._run(x0, grid, basis, quiet_noise, model, dt)
            defects.append(weak_form_residual(res, cfg, 1, model, quiet_noise))
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
        x0 = e1 * (0.1 / norm_hm1(e1))
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

    @pytest.mark.parametrize("stride, steps", [(1, range(8)), (3, [0, 3, 6, 7]), (7, [0, 7])])
    def test_record_times(self, stride, steps):
        """Every record_every-th step and the last, each at i*dt, the time
        run_path gives step i (3*0.1 is 0.30000000000000004, not 0.3)."""
        cfg = SolverConfig(dt=0.1, t_final=0.7, record_every=stride)
        assert cfg.record_times.tolist() == [i * 0.1 for i in steps]

    @pytest.mark.parametrize("dt", [0.04, 0.06])
    def test_dt_must_divide_t_final(self, dt):
        """run_path takes round(T/dt) steps: at dt = 0.04 it would stop at
        t = 0.08 and at dt = 0.06 run on to t = 0.12, not end at T = 0.1."""
        with pytest.raises(ValueError, match="must divide"):
            SolverConfig(dt=dt, t_final=0.1)

    def test_dt_dividing_t_final_up_to_rounding(self):
        # 0.3 / 0.1 is 2.9999999999999996 and 3 * 0.1 is 0.30000000000000004
        cfg = SolverConfig(dt=0.1, t_final=0.3)
        assert cfg.t_final == 0.3
        assert cfg.n_steps == 3 and cfg.record_times[-1] == 3 * 0.1

    @pytest.mark.parametrize("stride", [2.5, True])
    def test_record_every_is_an_integer(self, stride):
        """run_path records step i when i % record_every == 0: a stride of
        2.5 would record every fifth step, and a bool is no stride."""
        with pytest.raises(ValueError, match="record_every must be an integer"):
            SolverConfig(dt=0.1, t_final=0.3, record_every=stride)

    def test_record_every_at_least_one(self):
        with pytest.raises(ValueError, match="record_every must be >= 1"):
            SolverConfig(dt=0.1, t_final=0.3, record_every=0)

    @pytest.mark.parametrize("stride", [2, np.int64(2), np.int32(2)])
    def test_record_every_takes_python_and_numpy_integers(self, stride):
        assert SolverConfig(dt=0.1, t_final=0.3, record_every=stride).record_every == 2

    @pytest.mark.parametrize("eps", [0.0, -1e-6, float("inf")])
    def test_extinction_eps_positive_and_finite(self, eps):
        """run_path's extinction test |X|_-1 <= eps needs 0 < eps < inf."""
        with pytest.raises(ValueError, match="extinction_eps"):
            SolverConfig(dt=0.1, t_final=0.3, extinction_eps=eps)
