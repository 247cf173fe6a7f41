import numpy as np
import pytest

from spmlab import ensemble_supermartingale_test
from spmlab.stepper import SolverConfig, Trajectory
from spmlab.theory import discounted_norm

from conftest import absorption_fault

# the solver config stamped on every made-up path: unit steps up to t = 4,
# extinction at |X|_-1 <= 0.001
UNIT_STEPS = SolverConfig(dt=1.0, t_final=4.0, extinction_eps=0.001)


def make_traj(times, hm1, tau_hat=None, max_values=None):
    times = np.asarray(times, dtype=float)
    hm1 = np.asarray(hm1, dtype=float)
    z = np.zeros_like(times)
    top = z if max_values is None else np.asarray(max_values, dtype=float)
    return Trajectory(
        times=times, hm1_norms=hm1, lp_norms=z, min_values=z, max_values=top,
        seed=(0, 0), config=UNIT_STEPS, tau_hat=tau_hat,
    )


class TestCheckAbsorption:
    """conftest.absorption_fault, the check that criterion 8 makes on each
    path: rows above eps before tau_hat, rows exactly 0 from it on."""

    def test_clamped_path(self):
        traj = make_traj([0, 1, 2, 3], [0.5, 0.0, 0.0, 0.0], tau_hat=1.0)
        assert absorption_fault(traj) is None

    def test_non_extinct_vacuous(self):
        """A path that did not die has no row to clamp; it must only stay
        above eps."""
        assert absorption_fault(make_traj([0, 1], [0.5, 0.4])) is None
        assert absorption_fault(make_traj([0, 1], [0.5, 0.0005])) is not None

    def test_violating_series(self):
        traj = make_traj([0, 1, 2, 3], [0.5, 0.0, 0.0, 0.2], tau_hat=1.0)
        assert "not exactly 0" in absorption_fault(traj)

    def test_late_tau_hat(self):
        """tau_hat one row after the series reached 0 contradicts the series."""
        traj = make_traj([0, 1, 2, 3], [0.5, 0.0, 0.0, 0.0], tau_hat=2.0)
        assert "before tau_hat" in absorption_fault(traj)

    def test_clamp_with_a_nonzero_extreme(self):
        """Zero norms with a non-zero maximum are not an absorbed state."""
        traj = make_traj(
            [0, 1, 2, 3], [0.5, 0.0, 0.0, 0.0], tau_hat=1.0, max_values=[1, 0, 1e-300, 0]
        )
        assert "not exactly 0" in absorption_fault(traj)


def series(n, values, alpha=0.5):
    """n trajectories whose discounted norm at c* = 0 takes the given values
    at times 0, 1, ...: hm1 = values^(1/(1-alpha))."""
    times = np.arange(len(values))
    hm1 = np.asarray(values, dtype=float) ** (1.0 / (1.0 - alpha))
    return [make_traj(times, hm1) for _ in range(n)]


class TestEnsembleTest:
    def test_requires_enough_paths(self):
        with pytest.raises(ValueError):
            ensemble_supermartingale_test(series(50, [1.0, 1.0]), [0.5, 1.0], 0.0, 0.5)

    def test_constant_series_pass(self):
        rng = np.random.default_rng(0)
        trajs = [
            make_traj([0, 1, 2], np.full(3, rng.uniform(0.5, 1.5)))
            for _ in range(200)
        ]
        rep = ensemble_supermartingale_test(trajs, [0.5, 1.0, 2.0], 0.0, 0.5)
        assert rep.overall_pass

    def test_increasing_series_fail(self):
        rep = ensemble_supermartingale_test(
            series(150, [1.0, 2.0, 3.0]), [0.5, 1.0, 2.0], 0.0, 0.5
        )
        assert not rep.overall_pass

    def test_strictly_decreasing_deterministic(self):
        rep = ensemble_supermartingale_test(
            series(120, [3.0, 2.0, 1.0]), [0.5, 1.0, 2.0], 0.0, 0.5
        )
        assert rep.overall_pass and all(rep.pair_pass)

    def test_discount_evaluated_at_the_checkpoint_rows(self):
        """Each mean is discounted_norm at the last row at or before its
        checkpoint, so a large enough c* turns a rising norm into a passing
        series."""
        trajs = series(100, [1.0, 1.5, 2.0], alpha=0.3)
        rising = ensemble_supermartingale_test(trajs, [0.5, 1.0, 2.5], 0.0, 0.3)
        assert not rising.overall_pass
        rep = ensemble_supermartingale_test(trajs, [0.5, 1.0, 2.5], 2.0, 0.3)
        expected = discounted_norm(np.arange(3.0), trajs[0].hm1_norms, 2.0, 0.3)
        assert rep.means == pytest.approx(expected.tolist(), rel=1e-14) and rep.overall_pass

    def test_checkpoint_before_the_series(self):
        trajs = [make_traj([1, 2], [1.0, 1.0]) for _ in range(100)]
        with pytest.raises(ValueError, match="checkpoint 0.5 precedes"):
            ensemble_supermartingale_test(trajs, [0.5, 2.0], 0.0, 0.5)
