"""Post-processing of trajectories: the ensemble test of the discounted-norm
supermartingale, evaluated on each Trajectory's recorded H^-1 norms."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stepper import Trajectory
from .theory import discounted_norm


@dataclass
class SupermartingaleReport:
    checkpoints: list[float]
    means: list[float]
    standard_errors: list[float]
    pair_pass: list[bool] = field(default_factory=list)
    overall_pass: bool = True


def ensemble_supermartingale_test(
    trajectories: list[Trajectory], checkpoints, c_star: float, alpha: float
) -> SupermartingaleReport:
    """Mean-decrease check on M(t) = discounted_norm(t, |X(t)|_{-1}, c_star,
    alpha), evaluated at the last recorded row at or before each checkpoint:
    at each consecutive checkpoint pair (r, t) require
    mean M(t) <= mean M(r) + 2*SE(t).

    Pathwise supermartingale behavior is not directly assertable from an
    ensemble; the mean inequality is its falsifiable consequence.
    """
    n = len(trajectories)
    if n < 100:
        raise ValueError(f"need at least 100 paths, got {n}")
    checkpoints = [float(t) for t in checkpoints]
    times = np.empty((n, len(checkpoints)))
    hm1 = np.empty_like(times)
    for i, traj in enumerate(trajectories):
        rows = np.searchsorted(traj.times, checkpoints, side="right") - 1
        if rows.min() < 0:
            raise ValueError(f"checkpoint {min(checkpoints)} precedes the recorded series")
        times[i], hm1[i] = traj.times[rows], traj.hm1_norms[rows]
    # on arrays, so numpy takes the kernels that a whole column would (a
    # numpy scalar's power can round differently)
    samples = discounted_norm(times, hm1, c_star, alpha)
    means = samples.mean(axis=0)
    ses = samples.std(axis=0, ddof=1) / np.sqrt(n)
    report = SupermartingaleReport(
        checkpoints=checkpoints,
        means=[float(m) for m in means],
        standard_errors=[float(s) for s in ses],
    )
    for j in range(1, len(checkpoints)):
        ok = bool(means[j] <= means[j - 1] + 2.0 * ses[j])
        report.pair_pass.append(ok)
    report.overall_pass = all(report.pair_pass) if report.pair_pass else True
    return report
