"""Fast-diffusion nonlinearity and its Lipschitz regularization.

The monotone graph is psi0(r) = rho * |r|^alpha * sign(r) with alpha in (0, 1).
Its resolvent (1 + lam*psi0)^(-1) and the regularized map
yosida(r) = (r - resolvent(r)) / lam = psi0(resolvent(r)) are evaluated
nodewise; all functions accept scalars or numpy arrays.

The pressure w = psi0(resolvent(r)) parametrizes the same graph explicitly:
r = psi0_inverse(w) + lam*w. ModelParams.pressure_values evaluates Y and the
drift G at w, and ModelParams.pressure_slopes their derivatives in w, both
without a nested solve; the implicit stage asks for the slopes only where it
takes a Newton step.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ResolventError(RuntimeError):
    """Scalar solver exhausted its iteration budget."""

    def __init__(self, residual: float, budget: int):
        self.residual = residual
        self.budget = budget
        super().__init__(
            f"resolvent solve did not converge in {budget} iterations "
            f"(worst residual {residual:.3e})"
        )


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


@dataclass(frozen=True)
class RegularizationParams:
    lam: float
    solver_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        if not (self.lam > 0 and np.isfinite(self.lam)):
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class ModelParams:
    """Complete drift description: power law, auxiliary term, regularization."""

    diffusion: DiffusionLaw
    aux: AuxiliaryLaw = field(default_factory=AuxiliaryLaw)
    reg: RegularizationParams = field(default_factory=lambda: RegularizationParams(1e-4))

    def drift_g(self, r):
        """G(r) = yosida(r) + lam*r + aux(r), the regularized drift nonlinearity."""
        return (
            yosida(r, self.diffusion, self.reg)
            + self.reg.lam * np.asarray(r, dtype=float)
            + aux_psi(r, self.aux)
        )

    def drift_g_prime(self, r):
        return yosida_prime(r, self.diffusion, self.reg) + self.linear_coeff

    @property
    def linear_coeff(self) -> float:
        """lam + aux slope: the part of G that is linear in r."""
        slope = self.aux.slope if self.aux.kind == "linear" else 0.0
        return self.reg.lam + slope

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

        Y'(w) = (|w|/rho)^(1/alpha - 1) / (alpha*rho) + lam stays bounded near
        w = 0 because 1/alpha > 1, and G' = 1 + linear_coeff*Y'.
        """
        law = self.diffusion
        yp = ratio ** (1.0 / law.alpha - 1.0) / (law.alpha * law.rho) + self.reg.lam
        return yp, 1.0 + self.linear_coeff * yp


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


def resolvent(r, law: DiffusionLaw, reg: RegularizationParams):
    """Unique y with y + lam*psi0(y) = r, by safeguarded vectorized Newton.

    By oddness it suffices to solve y + c*y^alpha = |r| on the bracket
    [0, |r|]; the map is strictly increasing, so a bisection safeguard keeps
    Newton inside the bracket despite the derivative blow-up at 0.
    """
    r_in = np.asarray(r, dtype=float)
    scalar = r_in.ndim == 0
    a = np.abs(np.atleast_1d(r_in))
    c = reg.lam * law.rho
    al = law.alpha

    lo = np.zeros_like(a)
    hi = a.copy()
    y = a.copy()
    tol = reg.solver_tol * np.maximum(1.0, a)
    converged = False
    f = np.zeros_like(a)
    for _ in range(reg.max_iter):
        with np.errstate(divide="ignore", invalid="ignore"):
            f = y + c * y**al - a
            if np.all(np.abs(f) <= tol):
                converged = True
                break
            hi = np.where(f > 0, y, hi)
            lo = np.where(f < 0, y, lo)
            fp = 1.0 + c * al * np.where(y > 0, y, 1.0) ** (al - 1.0)
            y_new = y - f / fp
        bad = ~np.isfinite(y_new) | (y_new <= lo) | (y_new >= hi)
        # keep the degenerate a=0 entries pinned at the exact root
        bad &= a > 0
        y = np.where(bad, 0.5 * (lo + hi), np.where(a > 0, y_new, 0.0))
    if not converged and np.any(np.abs(f) > tol):
        raise ResolventError(residual=float(np.max(np.abs(f))), budget=reg.max_iter)
    out = np.sign(r_in) * np.reshape(y, np.shape(r_in))
    return float(out) if scalar else out


def yosida(r, law: DiffusionLaw, reg: RegularizationParams):
    """Regularized map (r - resolvent(r))/lam, returned as psi0(resolvent(r)).

    Both formulas are evaluated; a gross disagreement signals a broken
    resolvent solve and is raised rather than silently averaged.
    """
    y = resolvent(r, law, reg)
    via_psi0 = psi0(y, law)
    via_diff = (np.asarray(r, dtype=float) - y) / reg.lam
    # resolvent residual tol amplified by 1/lam bounds the legitimate gap
    limit = 10.0 * reg.solver_tol / reg.lam * np.maximum(
        1.0, np.abs(np.asarray(r, dtype=float))
    ) + 1e-8 * np.maximum(1.0, np.abs(via_psi0))
    if np.any(np.abs(np.asarray(via_psi0) - via_diff) > limit):
        raise ResolventError(
            residual=float(np.max(np.abs(np.asarray(via_psi0) - via_diff))),
            budget=reg.max_iter,
        )
    return via_psi0


def yosida_prime(r, law: DiffusionLaw, reg: RegularizationParams):
    """Derivative via implicit differentiation of the resolvent.

    psi_lam'(r) = psi0'(y) / (1 + lam*psi0'(y)) at y = resolvent(r), capped at
    the Lipschitz bound 1/lam (attained in the limit y -> 0).
    """
    y = np.abs(np.atleast_1d(np.asarray(resolvent(r, law, reg), dtype=float)))
    psi0p = law.rho * law.alpha * np.where(y > 0, y, 1.0) ** (law.alpha - 1.0)
    d = np.where(y > 0, psi0p / (1.0 + reg.lam * psi0p), 1.0 / reg.lam)
    d = np.minimum(d, 1.0 / reg.lam)
    return float(d[0]) if np.ndim(r) == 0 else np.reshape(d, np.shape(r))


def aux_psi(r, law: AuxiliaryLaw):
    r = np.asarray(r, dtype=float)
    out = law.slope * r if law.kind == "linear" else np.zeros_like(r)
    return out if out.ndim else float(out)
