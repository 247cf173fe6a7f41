"""Fast-diffusion nonlinearity and its Lipschitz regularization.

The monotone graph is psi0(r) = rho * |r|^alpha * sign(r) with alpha in (0, 1).
The pressure w = psi0(resolvent(r)) parametrizes its regularization
explicitly: r = Y(w) = psi0_inverse(w) + lam*w. ModelParams.pressure_values
evaluates Y and the drift G at w, and ModelParams.pressure_slopes their
derivatives in w, both without a nested solve; the implicit stage asks for the
slopes only where it takes a Newton step.

The regularized map yosida(r) = w is the inverse of Y, found nodewise by a
monotone Newton iteration in w, and the resolvent (1 + lam*psi0)^(-1) is
r - lam*yosida(r); both accept scalars or numpy arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class AuxiliaryLaw:
    """Extra monotone drift term: either identically zero or slope * r."""

    kind: str = "zero"
    slope: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "linear"):
            raise ValueError(f"unknown auxiliary kind {self.kind!r}")
        if not (self.slope >= 0 and np.isfinite(self.slope)):
            raise ValueError(f"slope must be nonnegative and finite, got {self.slope}")
        if self.kind == "zero" and self.slope != 0:
            raise ValueError(f"a zero auxiliary law has no slope, got {self.slope}")


@dataclass(frozen=True)
class RegularizationParams:
    lam: float

    def __post_init__(self):
        if not (self.lam > 0 and np.isfinite(self.lam)):
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class ModelParams:
    """Complete drift description: power law, auxiliary term, regularization."""

    diffusion: DiffusionLaw
    aux: AuxiliaryLaw = field(default_factory=AuxiliaryLaw)
    reg: RegularizationParams = field(default_factory=lambda: RegularizationParams(1e-4))

    @property
    def linear_coeff(self) -> float:
        """lam + aux slope: the part of G that is linear in r."""
        return self.reg.lam + self.aux.slope

    def pressure_values(self, w):
        """(Y, G, |w|/rho) at the pressure w = yosida(Y).

        Y(w) = psi0_inverse(w) + lam*w and G = w + linear_coeff*Y are
        explicit. The third entry is what pressure_slopes needs at this w.
        """
        law = self.diffusion
        w = np.asarray(w, dtype=float)
        ratio = np.abs(w) / law.rho
        y = np.sign(w) * ratio ** (1.0 / law.alpha) + self.reg.lam * w
        return y, w + self.linear_coeff * y, ratio

    def pressure_slopes(self, ratio):
        """(Y', G'), the derivatives in w, from ratio = |w|/rho.

        Y' (_pressure_slope) stays bounded near w = 0 because 1/alpha > 1,
        and G' = 1 + linear_coeff*Y'.
        """
        yp = _pressure_slope(ratio, self.diffusion, self.reg.lam)
        return yp, 1.0 + self.linear_coeff * yp


def _pressure_slope(ratio, law: DiffusionLaw, lam: float):
    """Y'(w) = (|w|/rho)^(1/alpha - 1) / (alpha*rho) + lam, from ratio = |w|/rho."""
    return ratio ** (1.0 / law.alpha - 1.0) / (law.alpha * law.rho) + lam


def psi0(r, law: DiffusionLaw):
    """rho * |r|^alpha * sign(r); odd, monotone, non-Lipschitz at 0."""
    r = np.asarray(r, dtype=float)
    out = law.rho * np.abs(r) ** law.alpha * np.sign(r)
    return out if out.ndim else float(out)


def psi0_inverse(w, law: DiffusionLaw):
    """sign(w) * (|w|/rho)^(1/alpha), the inverse of psi0; C^1 since 1/alpha > 1."""
    w = np.asarray(w, dtype=float)
    out = np.sign(w) * (np.abs(w) / law.rho) ** (1.0 / law.alpha)
    return out if out.ndim else float(out)


def yosida(r, law: DiffusionLaw, reg: RegularizationParams):
    """The pressure w with Y(w) = r, by monotone Newton; equals psi0(resolvent(r)).

    By oddness w = sign(r)*v with Y(v) = |r|, v >= 0. Y is convex and
    increasing there, and the start v = psi0(|r|) has Y(v) = |r| + lam*v >=
    |r|, so Newton falls onto the root from the right; each node stops when v
    stops falling. The update v - (Y(v) - |r|)/Y'(v) is written as
    (|r| + (1/alpha - 1)*P)/Y'(v), P = (v/rho)^(1/alpha), whose terms are all
    >= 0: v never goes negative, and r = 0 gives v = 0 exactly.
    """
    r = np.asarray(r, dtype=float)
    a = np.abs(r)
    v = law.rho * a**law.alpha
    while True:
        ratio = v / law.rho
        slope = _pressure_slope(ratio, law, reg.lam)
        step = (a + (1.0 / law.alpha - 1.0) * ratio ** (1.0 / law.alpha)) / slope
        falling = step < v
        if not falling.any():
            break
        v = np.where(falling, step, v)
    out = np.sign(r) * v
    return out if out.ndim else float(out)


def resolvent(r, law: DiffusionLaw, reg: RegularizationParams):
    """Unique y with y + lam*psi0(y) = r, as r - lam*yosida(r)."""
    out = np.asarray(r, dtype=float) - reg.lam * yosida(r, law, reg)
    return out if out.ndim else float(out)


def aux_psi(r, law: AuxiliaryLaw):
    r = np.asarray(r, dtype=float)
    out = law.slope * r if law.kind == "linear" else np.zeros_like(r)
    return out if out.ndim else float(out)
