"""Post-processing of trajectories: extinction detection, absorption checks,
and the discounted-norm supermartingale diagnostic."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .stepper import Trajectory
from .theory import discounted_norm


@dataclass(frozen=True)
class SupermartingaleSeries:
    """M(t) = exp(-c*(1-alpha)*t) * |X(t)|_{-1}^(1-alpha) along one path."""

    times: np.ndarray
    values: np.ndarray
    c_star: float
    alpha: float


def detect_extinction(traj: Trajectory, eps: float) -> Optional[float]:
    """First recorded time with |X|_{-1} <= eps, or None."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    below = np.flatnonzero(traj.hm1_norms <= eps)
    if below.size == 0:
        return None
    return float(traj.times[below[0]])


def supermartingale_series(
    traj: Trajectory, c_star: float, alpha: float
) -> SupermartingaleSeries:
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return SupermartingaleSeries(
        times=traj.times.copy(),
        values=discounted_norm(traj.times, traj.hm1_norms, c_star, alpha),
        c_star=c_star,
        alpha=alpha,
    )


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
    series_list: list[SupermartingaleSeries], checkpoints
) -> SupermartingaleReport:
    """Mean-decrease check: at each consecutive checkpoint pair (r, t) require
    mean M(t) <= mean M(r) + 2*SE(t).

    Pathwise supermartingale behavior is not directly assertable from an
    ensemble; the mean inequality is its falsifiable consequence.
    """
    n = len(series_list)
    if n < 100:
        raise ValueError(f"need at least 100 paths, got {n}")
    checkpoints = [float(t) for t in checkpoints]
    samples = np.empty((n, len(checkpoints)))
    for i, s in enumerate(series_list):
        for j, t in enumerate(checkpoints):
            idx = np.searchsorted(s.times, t, side="right") - 1
            if idx < 0:
                raise ValueError(f"checkpoint {t} precedes the recorded series")
            samples[i, j] = s.values[idx]
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
