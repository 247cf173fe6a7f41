"""Fast-diffusion nonlinearity and its Lipschitz regularization.

The monotone graph is psi0(r) = rho * |r|^alpha * sign(r) with alpha in (0, 1).
The pressure w = psi0(resolvent(r)) parametrizes its regularization
explicitly: r = Y(w) = psi0_inverse(w) + lam*w. ModelParams.pressure_values
evaluates Y and the drift G at w, and ModelParams.pressure_slopes their
derivatives in w, both without a nested solve; the implicit stage asks for the
slopes only where it takes a Newton step. Both rest on one power of |w| per
point, q = |w|^(1/alpha - 1) * rho^(-1/alpha) (_pressure_power): then
psi0_inverse(w) = w*q and Y'(w) = q/alpha + lam.

The regularized map yosida(r) = w is the inverse of Y, found nodewise by a
monotone Newton iteration in w, and the resolvent (1 + lam*psi0)^(-1) is
r - lam*yosida(r); both accept scalars or numpy arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DiffusionLaw:
    rho: float
    alpha: float

    def __post_init__(self):
        if not (self.rho > 0 and np.isfinite(self.rho)):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if 1.0 + self.alpha == 1.0:  # gamma's L^(1+alpha) norm would be the L^1 norm
            raise ValueError(f"alpha={self.alpha} is lost in 1 + alpha")
        try:  # _pressure_power's factor
            math.pow(self.rho, -1.0 / self.alpha)
        except OverflowError:
            raise ValueError(
                f"rho={self.rho} makes rho^(-1/alpha) overflow at alpha={self.alpha}"
            ) from None


@dataclass(frozen=True)
class ModelParams:
    """Complete drift description: the power law, the regularization
    parameter lam and the slope of the auxiliary term Psi~(r) = aux_slope*r."""

    diffusion: DiffusionLaw
    lam: float = 1e-4
    aux_slope: float = 0.0

    def __post_init__(self):
        if not (self.lam > 0 and np.isfinite(self.lam)):
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        if not (self.aux_slope >= 0 and np.isfinite(self.aux_slope)):
            raise ValueError(f"aux slope must be nonnegative and finite, got {self.aux_slope}")

    @property
    def linear_coeff(self) -> float:
        """lam + aux_slope: the part of G that is linear in r."""
        return self.lam + self.aux_slope

    def pressure_values(self, w):
        """(Y, G, q) at the pressure w = yosida(Y), q = _pressure_power(w).

        Y(w) = psi0_inverse(w) + lam*w = w*q + lam*w and G = w +
        linear_coeff*Y are explicit. q is what pressure_slopes needs at
        this w.
        """
        w = np.asarray(w, dtype=float)
        q = _pressure_power(w, self.diffusion)
        y = w * q + self.lam * w
        return y, w + self.linear_coeff * y, q

    def pressure_slopes(self, q):
        """(Y', G'), the derivatives in w, from q = _pressure_power(w).

        Y' (_pressure_slope) stays bounded near w = 0 because 1/alpha > 1,
        and G' = 1 + linear_coeff*Y'.
        """
        yp = _pressure_slope(q, self.diffusion, self.lam)
        return yp, 1.0 + self.linear_coeff * yp


def _pressure_power(w, law: DiffusionLaw):
    """q = |w|^(1/alpha - 1) * rho^(-1/alpha), so that psi0_inverse(w) = w*q."""
    return np.abs(w) ** (1.0 / law.alpha - 1.0) * law.rho ** (-1.0 / law.alpha)


def _pressure_slope(q, law: DiffusionLaw, lam: float):
    """Y'(w) = q/alpha + lam, from q = _pressure_power(w)."""
    return q / law.alpha + lam


def psi0(r, law: DiffusionLaw):
    """rho * |r|^alpha * sign(r); odd, monotone, non-Lipschitz at 0."""
    r = np.asarray(r, dtype=float)
    out = law.rho * np.abs(r) ** law.alpha * np.sign(r)
    return out if out.ndim else float(out)


def psi0_inverse(w, law: DiffusionLaw):
    """sign(w) * (|w|/rho)^(1/alpha) = w*_pressure_power(w), the inverse of
    psi0; C^1 since 1/alpha > 1."""
    w = np.asarray(w, dtype=float)
    out = w * _pressure_power(w, law)
    return out if out.ndim else float(out)


def yosida(r, law: DiffusionLaw, lam: float):
    """The pressure w with Y(w) = r, by monotone Newton; equals psi0(resolvent(r)).

    By oddness w = sign(r)*v with Y(v) = |r|, v >= 0. Y is convex and
    increasing there, and the start v = psi0(|r|) has Y(v) = |r| + lam*v >=
    |r|, so Newton falls onto the root from the right; each node stops when v
    stops falling. The update v - (Y(v) - |r|)/Y'(v) is written as
    (|r| + (1/alpha - 1)*v*q)/Y'(v), q = _pressure_power(v), whose terms are
    all >= 0: v never goes negative, and r = 0 gives v = 0 exactly.
    """
    if not (lam > 0 and np.isfinite(lam)):
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    r = np.asarray(r, dtype=float)
    a = np.abs(r)
    v = law.rho * a**law.alpha
    while True:
        q = _pressure_power(v, law)
        step = (a + (1.0 / law.alpha - 1.0) * (v * q)) / _pressure_slope(q, law, lam)
        falling = step < v
        if not falling.any():
            break
        v = np.where(falling, step, v)
    out = np.sign(r) * v
    return out if out.ndim else float(out)


def resolvent(r, law: DiffusionLaw, lam: float):
    """Unique y with y + lam*psi0(y) = r, as r - lam*yosida(r)."""
    out = np.asarray(r, dtype=float) - lam * yosida(r, law, lam)
    return out if out.ndim else float(out)
