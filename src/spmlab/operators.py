"""1-D spatial discretization on (0, L) with homogeneous Dirichlet conditions.

Provides the uniform interior grid, the standard three-point Laplacian, direct
Poisson and tridiagonal solves (LAPACK pbtrs and gtsv, called directly), the
discrete eigenbasis, L^2 / L^p / H^-1 inner products and norms, and a
multi-start estimator for the coercivity constant of the L^{alpha+1} -> H^-1
embedding on the discrete space.

All inner products are h-weighted sums over interior nodes, which makes the
discrete Laplacian self-adjoint and the eigenbasis exactly orthonormal.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded, eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dpbtrs
from scipy.optimize import minimize


class GridError(ValueError):
    """Invalid grid or mismatched fields."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform interior grid for (0, L): n_interior nodes, spacing h = L/(n+1)."""

    n_interior: int
    length: float = 1.0

    def __post_init__(self):
        if self.n_interior < 3:
            raise GridError(f"need at least 3 interior nodes, got {self.n_interior}")
        if not (self.length > 0 and np.isfinite(self.length)):
            raise GridError(f"domain length must be positive, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / (self.n_interior + 1)

    @property
    def nodes(self) -> np.ndarray:
        """Interior node coordinates x_i = i*h, i = 1..n."""
        h = self.spacing
        return h * np.arange(1, self.n_interior + 1)


@dataclass(frozen=True)
class Field:
    """Nodal values at interior grid points; boundary values are implicitly 0."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_interior,):
            raise GridError(
                f"field has shape {v.shape}, grid expects ({self.grid.n_interior},)"
            )
        if not np.all(np.isfinite(v)):
            raise GridError("field contains non-finite entries")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(values, self.grid)

    @classmethod
    def zero(cls, grid: GridSpec) -> "Field":
        return cls(np.zeros(grid.n_interior), grid)


def _check_same_grid(u: Field, v: Field) -> None:
    if u.grid != v.grid:
        raise GridError("fields live on different grids")


def laplacian_array(v: np.ndarray, h: float) -> np.ndarray:
    """Three-point stencil with zero Dirichlet padding."""
    padded = np.zeros(v.size + 2)
    padded[1:-1] = v
    return (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) / h**2


@lru_cache(maxsize=32)
def _poisson_factor(n: int, h: float):
    """Banded Cholesky factor of A = -Laplacian (SPD tridiagonal)."""
    ab = np.empty((2, n))
    ab[0, :] = -1.0 / h**2
    ab[0, 0] = 0.0
    ab[1, :] = 2.0 / h**2
    return cholesky_banded(ab)


def _check_finite(*arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def poisson_solve_array(f: np.ndarray, h: float) -> np.ndarray:
    """Solve -Laplacian(u) = f for an (n,) or (n, k) right-hand side.

    LAPACK pbtrs on the cached Cholesky factor: the arithmetic of
    scipy.linalg.cho_solve_banded without its per-call wrapper. The factor
    is finite because cholesky_banded checked its input.
    """
    _check_finite(f)
    x, info = dpbtrs(_poisson_factor(f.shape[0], h), f)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK pbtrs")
    return x


def solve_banded(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system by LAPACK gtsv, given its three diagonals.

    d is the main diagonal (n,), dl the sub- and du the superdiagonal (n-1,),
    as gtsv takes them; b is (n,) or (n, k). These are the diagonals
    scipy.linalg.solve_banded((1, 1), ...) passes to gtsv, so the result is
    the same bit for bit, without the banded array and the per-call wrapper.
    The inputs are left unchanged. Raises ValueError on non-finite input and
    LinAlgError if the matrix is singular.
    """
    _check_finite(dl, d, du, b)
    _, _, _, x, info = dgtsv(dl, d, du, b)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK gtsv")
    return x


def apply_laplacian(u: Field) -> Field:
    """Discrete Dirichlet Laplacian (negative semidefinite)."""
    return u.with_values(laplacian_array(u.values, u.grid.spacing))


def solve_poisson(f: Field) -> Field:
    """Return u with -Laplacian(u) = f, by direct banded Cholesky solve."""
    return f.with_values(poisson_solve_array(f.values, f.grid.spacing))


def inner_l2(u: Field, v: Field) -> float:
    _check_same_grid(u, v)
    return u.grid.spacing * float(np.dot(u.values, v.values))


def norm_l2(u: Field) -> float:
    return float(np.sqrt(u.grid.spacing) * np.linalg.norm(u.values))


def inner_hm1(u: Field, v: Field) -> float:
    """Dual-norm inner product <u, (-Laplacian)^(-1) v> with h-weighting."""
    _check_same_grid(u, v)
    return u.grid.spacing * float(np.dot(u.values, solve_poisson(v).values))


def norm_hm1(u: Field) -> float:
    return float(np.sqrt(max(inner_hm1(u, u), 0.0)))


def norm_lp(u: Field, p: float) -> float:
    """Discrete quadrature norm (h * sum |u_i|^p)^(1/p)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float((u.grid.spacing * np.sum(np.abs(u.values) ** p)) ** (1.0 / p))


@dataclass(frozen=True)
class SpectralBasis:
    """First K eigenpairs of the negative discrete Dirichlet Laplacian.

    Mode rows are orthonormal in the h-weighted L^2 inner product; eigenvalues
    ascend. mode(k) is 1-based to match the usual e_1, e_2, ... indexing.
    """

    grid: GridSpec
    eigenvalues: np.ndarray  # shape (K,), ascending
    modes: np.ndarray  # shape (K, n_interior)

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        m = np.asarray(self.modes, dtype=float)
        ev.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "modes", m)

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def mode(self, k: int) -> Field:
        if not 1 <= k <= self.size:
            raise GridError(f"mode index {k} outside 1..{self.size}")
        return Field(self.modes[k - 1], self.grid)


def build_basis(grid: GridSpec, K: int) -> SpectralBasis:
    """Direct symmetric tridiagonal eigensolve for the first K pairs."""
    n, h = grid.n_interior, grid.spacing
    if not 1 <= K <= n:
        raise GridError(f"K={K} outside 1..{n}")
    d = np.full(n, 2.0 / h**2)
    e = np.full(n - 1, -1.0 / h**2)
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, K - 1))
    # h-weighted normalization; fix sign so the largest-magnitude entry is positive
    vecs = vecs / np.sqrt(h)
    for j in range(K):
        if vecs[np.argmax(np.abs(vecs[:, j])), j] < 0:
            vecs[:, j] = -vecs[:, j]
    return SpectralBasis(grid=grid, eigenvalues=vals, modes=vecs.T.copy())


def lambda1_exact(grid: GridSpec) -> float:
    """Closed form for the smallest discrete eigenvalue: (4/h^2) sin^2(pi h / 2L)."""
    h, L = grid.spacing, grid.length
    return 4.0 / h**2 * np.sin(np.pi * h / (2.0 * L)) ** 2


@dataclass(frozen=True)
class GammaEstimate:
    """Estimated coercivity constant: largest g with |u|_{L^{a+1}} >= g |u|_{-1}."""

    value: float
    alpha: float
    n_starts: int
    minimizer: Field


def _ratio_and_grad(v: np.ndarray, h: float, p: float):
    lp = (h * np.sum(np.abs(v) ** p)) ** (1.0 / p)
    w = poisson_solve_array(v, h)
    hm1 = np.sqrt(max(h * np.dot(v, w), 0.0))
    if hm1 < 1e-300 or lp < 1e-300:
        return np.inf, np.zeros_like(v)
    g_lp = h * np.abs(v) ** (p - 1.0) * np.sign(v) * lp ** (1.0 - p)
    g_hm1 = h * w / hm1
    r = lp / hm1
    return r, (g_lp * hm1 - lp * g_hm1) / hm1**2


def estimate_gamma(
    grid: GridSpec, alpha: float, n_starts: int, seed: int
) -> GammaEstimate:
    """Minimize R(u) = |u|_{L^{alpha+1}} / |u|_{-1} over candidate fields.

    Candidates: the first eigenmode, a hat bump at every node, and n_starts
    local descents (L-BFGS on R, which is scale invariant) from random starts.
    The result is an upper estimate of the true infimum.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if n_starts < 1:
        raise ValueError("n_starts must be positive")
    n, h = grid.n_interior, grid.spacing
    p = alpha + 1.0

    def ratio(v):
        return _ratio_and_grad(v, h, p)[0]

    candidates: list[np.ndarray] = []
    basis = build_basis(grid, 1)
    candidates.append(basis.modes[0].copy())
    for i in range(n):
        bump = np.zeros(n)
        bump[i] = 1.0
        candidates.append(bump)

    rng = np.random.default_rng(seed)
    starts = [basis.modes[0].copy()]
    starts += [rng.standard_normal(n) for _ in range(n_starts - 1)]
    for v0 in starts:
        v0 = v0 / np.linalg.norm(v0)
        res = minimize(
            lambda v: _ratio_and_grad(v, h, p),
            v0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12},
        )
        if np.all(np.isfinite(res.x)) and np.any(res.x):
            candidates.append(res.x)

    best_val, best_vec = np.inf, candidates[0]
    for v in candidates:
        r = ratio(v)
        if r < best_val:
            best_val, best_vec = r, v

    minimizer = Field(best_vec / np.linalg.norm(best_vec), grid)
    return GammaEstimate(
        value=float(best_val), alpha=alpha, n_starts=n_starts, minimizer=minimizer
    )
