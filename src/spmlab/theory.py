"""Closed-form extinction bounds for the discounted H^-1 dynamics.

gamma follows the coercivity convention: the largest constant with
|u|_{L^{alpha+1}} >= gamma * |u|_{-1} on the discrete space. The probability
bound is clamped to [0, 1] since a lower bound below 0 is vacuous.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoundInputs:
    x_norm_hm1: float
    alpha: float
    rho: float
    gamma: float
    c_star: float = 0.0

    def __post_init__(self):
        if self.x_norm_hm1 < 0:
            raise ValueError("x_norm_hm1 must be nonnegative")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.rho <= 0 or self.gamma <= 0:
            raise ValueError("rho and gamma must be positive")
        if self.c_star < 0:
            raise ValueError("c_star must be nonnegative")


def integral_factor(t: float, alpha: float, c_star: float) -> float:
    """int_0^t exp(-(1-alpha)*c_star*s) ds, with the c_star -> 0 limit t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    k = (1.0 - alpha) * c_star
    if k == 0.0:
        return float(t)
    return float(-np.expm1(-k * t) / k)


def discounted_norm(t, hm1_norm, c_star: float, alpha: float):
    """exp(-c_star*(1-alpha)*t) * |X(t)|_{-1}^(1-alpha), the supermartingale.

    Takes scalars or arrays of times and H^-1 norms.
    """
    return np.exp(-c_star * (1.0 - alpha) * t) * hm1_norm ** (1.0 - alpha)


def _dissipation(inputs: BoundInputs) -> float:
    return (1.0 - inputs.alpha) * inputs.rho * inputs.gamma ** (1.0 + inputs.alpha)


def extinction_bound(t: float, inputs: BoundInputs) -> float:
    """Lower bound on P(tau <= t), clamped to [0, 1]."""
    if t <= 0:
        raise ValueError("t must be positive")
    if inputs.x_norm_hm1 == 0.0:
        return 1.0
    factor = integral_factor(t, inputs.alpha, inputs.c_star)
    raw = 1.0 - inputs.x_norm_hm1 ** (1.0 - inputs.alpha) / (_dissipation(inputs) * factor)
    return float(min(1.0, max(0.0, raw)))


def deterministic_extinction_time(inputs: BoundInputs) -> float:
    """Noise-free upper bound on tau; requires c_star = 0."""
    if inputs.c_star != 0.0:
        raise ValueError("deterministic bound requires c_star = 0")
    return float(inputs.x_norm_hm1 ** (1.0 - inputs.alpha) / _dissipation(inputs))


def positive_probability_condition(inputs: BoundInputs) -> bool:
    """True iff the t -> infinity limit of the bound is strictly positive."""
    if inputs.c_star == 0.0:
        return True
    return bool(
        inputs.x_norm_hm1 ** (1.0 - inputs.alpha)
        < inputs.rho * inputs.gamma ** (1.0 + inputs.alpha) / inputs.c_star
    )


def time_to_reach_bound(q: float, inputs: BoundInputs) -> float:
    """Smallest t with extinction_bound(t) >= q, or inf if never reached."""
    if not 0 <= q < 1:
        raise ValueError("q must lie in [0, 1)")
    if inputs.x_norm_hm1 == 0.0:
        return 0.0
    need = inputs.x_norm_hm1 ** (1.0 - inputs.alpha) / (_dissipation(inputs) * (1.0 - q))
    k = (1.0 - inputs.alpha) * inputs.c_star
    if k == 0.0:
        return float(need)
    if k * need >= 1.0:
        return float("inf")
    return float(-np.log1p(-k * need) / k)
