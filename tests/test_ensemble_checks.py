import numpy as np
import pytest

from spmlab import ensemble_supermartingale_test
from spmlab.stepper import SolverConfig, Trajectory
from spmlab.theory import discounted_norm

from conftest import absorption_fault

def unit_rows(n_rows):
    """The solver config of a made-up path with n_rows rows, at t = 0, 1, ...,
    n_rows - 1 (half steps, every second one recorded), extinction at
    |X|_-1 <= 0.001."""
    return SolverConfig(dt=0.5, t_final=n_rows - 1.0, record_every=2, extinction_eps=0.001)


def make_traj(hm1, tau_hat=None, max_values=None):
    hm1 = np.asarray(hm1, dtype=float)
    z = np.zeros_like(hm1)
    top = z if max_values is None else np.asarray(max_values, dtype=float)
    return Trajectory(
        hm1_norms=hm1, lp_norms=z, min_values=z, max_values=top, seed=(0, 0), tau_hat=tau_hat,
    )


def fault(hm1, **kwargs):
    """absorption_fault of a made-up path with these rows at t = 0, 1, ..."""
    return absorption_fault(make_traj(hm1, **kwargs), unit_rows(len(hm1)))


class TestCheckAbsorption:
    """conftest.absorption_fault, the check that criterion 8 makes on each
    path: rows above eps before tau_hat, rows exactly 0 from it on."""

    def test_clamped_path(self):
        assert fault([0.5, 0.0, 0.0, 0.0], tau_hat=1.0) is None

    def test_non_extinct_vacuous(self):
        """A path that did not die has no row to clamp; it must only stay
        above eps."""
        assert fault([0.5, 0.4]) is None
        assert fault([0.5, 0.0005]) is not None

    def test_violating_series(self):
        assert "not exactly 0" in fault([0.5, 0.0, 0.0, 0.2], tau_hat=1.0)

    def test_late_tau_hat(self):
        """tau_hat one row after the series reached 0 contradicts the series."""
        assert "before tau_hat" in fault([0.5, 0.0, 0.0, 0.0], tau_hat=2.0)

    def test_rows_of_another_config_rejected(self):
        """Three rows read under a config that records two raise."""
        with pytest.raises(ValueError, match="rows"):
            absorption_fault(make_traj([0.5, 0.4, 0.3]), unit_rows(2))

    def test_clamp_with_a_nonzero_extreme(self):
        """Zero norms with a non-zero maximum are not an absorbed state."""
        problem = fault([0.5, 0.0, 0.0, 0.0], tau_hat=1.0, max_values=[1, 0, 1e-300, 0])
        assert "not exactly 0" in problem


def series(n, values, alpha=0.5):
    """n trajectories whose discounted norm at c* = 0 takes the given values
    at times 0, 1, ... of unit_rows(len(values)): hm1 = values^(1/(1-alpha))."""
    hm1 = np.asarray(values, dtype=float) ** (1.0 / (1.0 - alpha))
    return [make_traj(hm1) for _ in range(n)]


class TestEnsembleTest:
    def test_requires_enough_paths(self):
        with pytest.raises(ValueError):
            ensemble_supermartingale_test(
                series(50, [1.0, 1.0]), unit_rows(2), [0.5, 1.0], 0.0, 0.5
            )

    def test_constant_series_pass(self):
        rng = np.random.default_rng(0)
        trajs = [make_traj(np.full(3, rng.uniform(0.5, 1.5))) for _ in range(200)]
        rep = ensemble_supermartingale_test(trajs, unit_rows(3), [0.5, 1.0, 2.0], 0.0, 0.5)
        assert rep.overall_pass

    def test_increasing_series_fail(self):
        rep = ensemble_supermartingale_test(
            series(150, [1.0, 2.0, 3.0]), unit_rows(3), [0.5, 1.0, 2.0], 0.0, 0.5
        )
        assert not rep.overall_pass

    def test_strictly_decreasing_deterministic(self):
        rep = ensemble_supermartingale_test(
            series(120, [3.0, 2.0, 1.0]), unit_rows(3), [0.5, 1.0, 2.0], 0.0, 0.5
        )
        assert rep.overall_pass and all(rep.pair_pass)

    def test_discount_evaluated_at_the_checkpoint_rows(self):
        """Each mean is discounted_norm at the last row at or before its
        checkpoint, so a large enough c* turns a rising norm into a passing
        series."""
        trajs = series(100, [1.0, 1.5, 2.0], alpha=0.3)
        rising = ensemble_supermartingale_test(trajs, unit_rows(3), [0.5, 1.0, 2.5], 0.0, 0.3)
        assert not rising.overall_pass
        rep = ensemble_supermartingale_test(trajs, unit_rows(3), [0.5, 1.0, 2.5], 2.0, 0.3)
        expected = discounted_norm(np.arange(3.0), trajs[0].hm1_norms, 2.0, 0.3)
        assert rep.means == pytest.approx(expected.tolist(), rel=1e-14) and rep.overall_pass

    def test_checkpoint_before_the_series(self):
        """A series starts at t = 0, so only a negative checkpoint precedes it."""
        trajs = [make_traj([1.0, 1.0]) for _ in range(100)]
        with pytest.raises(ValueError, match="checkpoint -0.5 precedes"):
            ensemble_supermartingale_test(trajs, unit_rows(2), [-0.5, 1.0], 0.0, 0.5)

    def test_acceptance_checkpoints_read_at_their_steps(self):
        """At dt = 1e-4 and record_every = 5 each acceptance checkpoint is
        read at its own step, also the four (0.105, 0.175, 0.21, 0.245) whose
        step time i*dt lies an ulp above the checkpoint."""
        config = SolverConfig(dt=1e-4, t_final=0.278, record_every=5)
        checkpoints = [0.035, 0.070, 0.105, 0.140, 0.175, 0.210, 0.245, 0.278]
        steps = [350, 700, 1050, 1400, 1750, 2100, 2450, 2780]
        assert 1050 * config.dt > 0.105
        # at c* = 0 and alpha = 1/2, M at a row is its step index
        recorded = np.arange(0, 2781, 5)
        np.testing.assert_array_equal(config.record_times, recorded * config.dt)
        trajs = [make_traj(recorded.astype(float) ** 2) for _ in range(100)]
        rep = ensemble_supermartingale_test(trajs, config, checkpoints, 0.0, 0.5)
        assert rep.means == pytest.approx(steps, rel=1e-15)

    def test_rows_of_another_config_rejected(self):
        """Paths recorded at record_every=5 (dt 2e-3, T 0.2: 21 rows) read
        under record_every=10 (11 rows) would read other steps: it raises."""
        ran = SolverConfig(dt=2e-3, t_final=0.2, record_every=5)
        trajs = [make_traj(np.linspace(1.0, 0.5, ran.record_times.size)) for _ in range(100)]
        read = SolverConfig(dt=2e-3, t_final=0.2, record_every=10)
        with pytest.raises(ValueError, match="rows"):
            ensemble_supermartingale_test(trajs, read, [0.05, 0.1, 0.15, 0.2], 0.0, 0.5)
        rep = ensemble_supermartingale_test(trajs, ran, [0.05, 0.1, 0.15, 0.2], 0.0, 0.5)
        assert rep.overall_pass
