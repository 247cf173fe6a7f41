"""Post-processing of trajectories: extinction detection, absorption checks,
and the ensemble test of the discounted-norm supermartingale that each
Trajectory records."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .stepper import Trajectory


def detect_extinction(traj: Trajectory, eps: float) -> Optional[float]:
    """First recorded time with |X|_{-1} <= eps, or None."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    below = np.flatnonzero(traj.hm1_norms <= eps)
    if below.size == 0:
        return None
    return float(traj.times[below[0]])


def check_absorption(traj: Trajectory, eps: float) -> bool:
    """True iff the norm stays exactly 0 after its first dip below eps.

    Non-extinct paths pass vacuously.
    """
    first = detect_extinction(traj, eps)
    if first is None:
        return True
    after = traj.hm1_norms[traj.times > first]
    return bool(np.all(after == 0.0))


@dataclass
class SupermartingaleReport:
    checkpoints: list[float]
    means: list[float]
    standard_errors: list[float]
    pair_pass: list[bool] = field(default_factory=list)
    overall_pass: bool = True


def ensemble_supermartingale_test(
    trajectories: list[Trajectory], checkpoints
) -> SupermartingaleReport:
    """Mean-decrease check on the recorded M(t) = supermartingale_values: at
    each consecutive checkpoint pair (r, t) require
    mean M(t) <= mean M(r) + 2*SE(t).

    Pathwise supermartingale behavior is not directly assertable from an
    ensemble; the mean inequality is its falsifiable consequence.
    """
    n = len(trajectories)
    if n < 100:
        raise ValueError(f"need at least 100 paths, got {n}")
    checkpoints = [float(t) for t in checkpoints]
    samples = np.empty((n, len(checkpoints)))
    for i, traj in enumerate(trajectories):
        for j, t in enumerate(checkpoints):
            idx = np.searchsorted(traj.times, t, side="right") - 1
            if idx < 0:
                raise ValueError(f"checkpoint {t} precedes the recorded series")
            samples[i, j] = traj.supermartingale_values[idx]
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
