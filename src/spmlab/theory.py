"""Closed-form extinction bounds for the discounted H^-1 dynamics.

P(tau <= t) >= 1 - T/int_0^t exp(-k*s) ds, clamped to [0, 1], with the
noise-free time T = |x0|_-1^(1-alpha)/((1-alpha)*rho*gamma^(1+alpha)) and the
discount rate k = (1-alpha)*c_star (_noise_free_time, _rate). The t -> inf
limit is 1 - k*T, so positive_probability_condition (k*T < 1) holds iff
time_to_reach_bound(0) is finite; at c_star = 0, deterministic_extinction_time
= time_to_reach_bound(0) = T; and the bound at a finite time_to_reach_bound(q)
is q. gamma is the largest constant with |u|_{L^{alpha+1}} >= gamma*|u|_{-1}
on the discrete space.
"""
from __future__ import annotations

import math
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
        # a NaN passes every comparison below, and gives a bound of 0
        if not all(map(math.isfinite, (self.x_norm_hm1, self.rho, self.gamma, self.c_star))):
            raise ValueError(f"x_norm_hm1, rho, gamma and c_star must be finite: {self}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.rho <= 0 or self.gamma <= 0:
            raise ValueError("rho and gamma must be positive")
        if self.x_norm_hm1 < 0 or self.c_star < 0:
            raise ValueError("x_norm_hm1 and c_star must be nonnegative")


def _rate(alpha: float, c_star: float) -> float:
    """k = (1-alpha)*c_star, the discount rate."""
    return (1.0 - alpha) * c_star


def _noise_free_time(inputs: BoundInputs) -> float:
    """T = |x0|_-1^(1-alpha) / ((1-alpha)*rho*gamma^(1+alpha)); 0 if gamma^(1+alpha)
    overflows, +inf (0 at x0 = 0) if the denominator underflows to 0."""
    a = inputs.alpha
    numerator = inputs.x_norm_hm1 ** (1.0 - a)
    try:
        denominator = (1.0 - a) * inputs.rho * inputs.gamma ** (1.0 + a)
    except OverflowError:
        return 0.0
    if not denominator:
        return math.inf if numerator else 0.0
    return numerator / denominator


def integral_factor(t: float, alpha: float, c_star: float) -> float:
    """int_0^t exp(-k*s) ds, with the k -> 0 limit t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    k = _rate(alpha, c_star)
    return float(-np.expm1(-k * t) / k) if k else float(t)


def discounted_norm(t, hm1_norm, c_star: float, alpha: float):
    """exp(-k*t) * |X(t)|_{-1}^(1-alpha), the supermartingale, at scalars or arrays."""
    return np.exp(-_rate(alpha, c_star) * t) * hm1_norm ** (1.0 - alpha)


def extinction_bound(t: float, inputs: BoundInputs) -> float:
    """Lower bound 1 - T/integral_factor(t) on P(tau <= t), clamped to [0, 1]."""
    if t <= 0:
        raise ValueError("t must be positive")
    raw = 1.0 - _noise_free_time(inputs) / integral_factor(t, inputs.alpha, inputs.c_star)
    return float(min(1.0, max(0.0, raw)))


def deterministic_extinction_time(inputs: BoundInputs) -> float:
    """Noise-free upper bound T on tau; requires c_star = 0."""
    if inputs.c_star != 0.0:
        raise ValueError("deterministic bound requires c_star = 0")
    return float(_noise_free_time(inputs))


def positive_probability_condition(inputs: BoundInputs) -> bool:
    """True iff the t -> infinity limit 1 - k*T of the bound is strictly positive."""
    return bool(_rate(inputs.alpha, inputs.c_star) * _noise_free_time(inputs) < 1.0)


def time_to_reach_bound(q: float, inputs: BoundInputs) -> float:
    """Smallest t with extinction_bound(t) >= q, integral_factor(t) = T/(1-q), or inf."""
    if not 0 <= q < 1:
        raise ValueError("q must lie in [0, 1)")
    need = _noise_free_time(inputs) / (1.0 - q)
    k = _rate(inputs.alpha, inputs.c_star)
    if k * need >= 1.0:
        return float("inf")
    return float(-np.log1p(-k * need) / k) if k else float(need)
