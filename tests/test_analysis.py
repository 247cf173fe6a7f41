import numpy as np
import pytest

from spmlab import check_absorption, detect_extinction, ensemble_supermartingale_test
from spmlab.stepper import SolverConfig, Trajectory

# the solver config stamped on every made-up path: unit steps up to t = 4
UNIT_STEPS = SolverConfig(dt=1.0, t_final=4.0)


def make_traj(times, hm1, supermartingale=None):
    times = np.asarray(times, dtype=float)
    hm1 = np.asarray(hm1, dtype=float)
    z = np.zeros_like(times)
    sm = z if supermartingale is None else np.asarray(supermartingale, dtype=float)
    return Trajectory(
        times=times, hm1_norms=hm1, lp_norms=z, min_values=z, max_values=z,
        supermartingale_values=sm, seed=(0, 0), config=UNIT_STEPS,
    )


class TestDetectExtinction:
    def test_first_crossing(self):
        traj = make_traj([0, 1, 2, 3], [0.5, 0.2, 0.0009, 0.0001])
        assert detect_extinction(traj, 0.001) == 2.0

    def test_never_below(self):
        traj = make_traj([0, 1, 2], [0.5, 0.4, 0.3])
        assert detect_extinction(traj, 0.001) is None

    def test_starts_extinct(self):
        traj = make_traj([0, 1], [0.0, 0.0])
        assert detect_extinction(traj, 0.001) == 0.0

    def test_monotone_in_eps(self):
        traj = make_traj([0, 1, 2, 3, 4], [0.5, 0.3, 0.09, 0.009, 0.0])
        taus = [detect_extinction(traj, eps) for eps in (0.01, 0.1, 0.4)]
        assert taus == sorted(taus, reverse=True)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            detect_extinction(make_traj([0], [1.0]), 0.0)


class TestCheckAbsorption:
    def test_clamped_path(self):
        traj = make_traj([0, 1, 2, 3], [0.5, 0.0005, 0.0, 0.0])
        assert check_absorption(traj, 0.001)

    def test_non_extinct_vacuous(self):
        traj = make_traj([0, 1], [0.5, 0.4])
        assert check_absorption(traj, 0.001)

    def test_violating_series(self):
        traj = make_traj([0, 1, 2, 3], [0.5, 0.0005, 0.0, 0.2])
        assert not check_absorption(traj, 0.001)


def series(n, values):
    """n trajectories that record the same supermartingale values at times 0, 1, ..."""
    times = np.arange(len(values))
    return [make_traj(times, np.zeros(len(values)), values) for _ in range(n)]


class TestEnsembleTest:
    def test_requires_enough_paths(self):
        with pytest.raises(ValueError):
            ensemble_supermartingale_test(series(50, [1.0, 1.0]), [0.5, 1.0])

    def test_constant_series_pass(self):
        rng = np.random.default_rng(0)
        trajs = [
            make_traj([0, 1, 2], [0, 0, 0], np.full(3, rng.uniform(0.5, 1.5)))
            for _ in range(200)
        ]
        rep = ensemble_supermartingale_test(trajs, [0.5, 1.0, 2.0])
        assert rep.overall_pass

    def test_increasing_series_fail(self):
        rep = ensemble_supermartingale_test(series(150, [1.0, 2.0, 3.0]), [0.5, 1.0, 2.0])
        assert not rep.overall_pass

    def test_strictly_decreasing_deterministic(self):
        rep = ensemble_supermartingale_test(series(120, [3.0, 2.0, 1.0]), [0.5, 1.0, 2.0])
        assert rep.overall_pass and all(rep.pair_pass)
