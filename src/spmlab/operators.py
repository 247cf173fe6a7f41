"""1-D spatial discretization on (0, L) with homogeneous Dirichlet conditions.

Provides the uniform interior grid, the standard three-point Laplacian, direct
Poisson and symmetric positive definite tridiagonal solves (LAPACK pttrs on a
cached LDL^T factor, and ptsv, called directly), the discrete eigenbasis and
its closed-form first mode, L^2 / L^p / H^-1 inner products and norms, and
the coercivity constant of the L^{alpha+1} -> H^-1 embedding on the discrete
space, found by a dual power iteration of one Poisson solve per step.

All inner products are h-weighted sums over interior nodes, which makes the
discrete Laplacian self-adjoint and the eigenbasis exactly orthonormal. Each
array operator works on the last axis: on a C-ordered (P, n) block, each row
of its result is its (n,) result bit for bit. The Field functions wrap them.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.linalg.lapack import dptsv, dpttrf, dpttrs


class GridError(ValueError):
    """Invalid grid or mismatched fields."""


def require_integer(name: str, value, error: type[Exception] = ValueError) -> None:
    """Raise error unless value is a Python or numpy integer and not a bool.

    A record built in the library has no config reader before it, and 2.5
    or True would pass its range checks.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform interior grid for (0, L): n_interior nodes, spacing h = L/(n+1)."""

    n_interior: int
    length: float = 1.0

    def __post_init__(self):
        require_integer("n_interior", self.n_interior, GridError)
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


def laplacian_array(v: np.ndarray, h: float) -> np.ndarray:
    """Three-point stencil ((v[i-1] - 2 v[i]) + v[i+1]) / h^2, zero outside.

    x - y is x + (-y) and addition commutes, so adding the neighbours to -2v
    in this order, with the zero boundary values added as + 0.0, gives the
    stencil on the zero-padded vector bit for bit, signed zeros included,
    without the padded copy.
    """
    out = -2.0 * v
    out[..., 1:] += v[..., :-1]
    out[..., 0] += 0.0
    out[..., :-1] += v[..., 1:]
    out[..., -1] += 0.0
    out /= h**2
    return out


@lru_cache(maxsize=32)
def _poisson_factor(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """LDL^T factor of A = -Laplacian by LAPACK pttrf: the diagonal of D (n,)
    and the subdiagonal of the unit bidiagonal L (n-1,), both read-only,
    since every solve on this (n, h) shares them."""
    d, e, info = dpttrf(np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2))
    if info != 0:
        raise LinAlgError(f"LAPACK pttrf failed on the Poisson matrix (info {info})")
    d.flags.writeable = False
    e.flags.writeable = False
    return d, e


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def poisson_solve_array(f: np.ndarray, h: float) -> np.ndarray:
    """Solve -Laplacian(u) = f on the last axis, by LAPACK pttrs on the
    cached LDL^T factor (a block's transpose is the column-major (n, P)
    right-hand side pttrs takes). ptsv is pttrf followed by pttrs, so this is
    the arithmetic of scipy.linalg.solveh_banded on the Poisson band, without
    refactoring A or the per-call wrapper. f is left unchanged; ValueError
    on non-finite input."""
    _check_finite(f)
    d, e = _poisson_factor(f.shape[-1], h)
    x, info = dpttrs(d, e, f.T)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK pttrs")
    return x.T


def solve_banded(d: np.ndarray, e: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive definite tridiagonal system by LAPACK ptsv.

    d is the main diagonal (n,) and e the off-diagonal (n-1,); b is (n,) or
    (n, k). These are the diagonals scipy.linalg.solveh_banded passes to
    ptsv for a two-row band, so the result is the same bit for bit, without
    the banded array and the per-call wrapper. The inputs are left
    unchanged. Raises ValueError on non-finite input and LinAlgError if the
    matrix is not positive definite.
    """
    _check_finite(np.concatenate((d, e, b.ravel())))  # one isfinite pass over all three
    _, _, x, info = dptsv(d, e, b)
    if info > 0:
        raise LinAlgError(f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK ptsv")
    return x


def _dot(u: np.ndarray, w: np.ndarray):
    """u . w on the last axis: np.dot on a vector and, on a block, the batched
    matmul (P,1,n) @ (P,n,1), np.dot row by row bit for bit (at 3x its cost)."""
    if u.ndim == 1:
        return np.dot(u, w)
    return (u[..., None, :] @ w[..., :, None])[..., 0, 0]


def norm_l2_array(v: np.ndarray, h: float):
    """sqrt(h) * sqrt(v . v) on the last axis: sqrt(h) * np.linalg.norm(v) bit
    for bit, math.sqrt rounding as np.sqrt does at a fraction of its cost."""
    return math.sqrt(h) * np.sqrt(_dot(v, v))


def norm_hm1_array(u: np.ndarray, w: np.ndarray, h: float):
    """sqrt(max(h * u . w, 0)) on the last axis (a vector's max is Python's, at
    a third of the cost), given w = A^-1 u, which the caller solves through its
    own module's poisson_solve_array (the tracer counts spmlab.stepper's)."""
    s = h * _dot(u, w)
    return np.sqrt(np.maximum(s, 0.0) if s.ndim else max(s, 0.0))


def norm_lp_array(v: np.ndarray, h: float, p: float):
    """(h * sum |v_i|^p)^(1/p) on the last axis; a block's roots are scalar
    pows row by row, since numpy's SIMD array pow may round otherwise."""
    s = h * np.sum(np.abs(v) ** p, axis=-1)
    if s.ndim == 0:
        return s ** (1.0 / p)
    return np.array([r ** (1.0 / p) for r in s])


def apply_laplacian(u: Field) -> Field:
    """Discrete Dirichlet Laplacian (negative semidefinite)."""
    return u.with_values(laplacian_array(u.values, u.grid.spacing))


def solve_poisson(f: Field) -> Field:
    """Return u with -Laplacian(u) = f, by LAPACK pttrs on the cached LDL^T factor."""
    return f.with_values(poisson_solve_array(f.values, f.grid.spacing))


def norm_l2(u: Field) -> float:
    return float(norm_l2_array(u.values, u.grid.spacing))


def inner_hm1(u: Field, v: Field) -> float:
    """Dual-norm inner product <u, (-Laplacian)^(-1) v> with h-weighting."""
    if u.grid != v.grid:
        raise GridError("fields live on different grids")
    return float(u.grid.spacing * _dot(u.values, solve_poisson(v).values))


def norm_hm1(u: Field) -> float:
    return float(norm_hm1_array(u.values, solve_poisson(u).values, u.grid.spacing))


def norm_lp(u: Field, p: float) -> float:
    """Discrete quadrature norm (h * sum |u_i|^p)^(1/p)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float(norm_lp_array(u.values, u.grid.spacing, p))


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
        for name in ("eigenvalues", "modes"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

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


def mode1_exact(grid: GridSpec) -> np.ndarray:
    """Closed form for the first discrete eigenvector, up to scale: sin(pi x_i/L).

    It is positive at every node, with a single maximum, so it has no sign
    to choose. build_basis(grid, 1).modes[0] is sqrt(2/L) times this vector,
    to within LAPACK's eigenvector accuracy (about 1e-11).
    """
    return np.sin(np.pi / grid.length * grid.nodes)


@dataclass(frozen=True)
class GammaEstimate:
    """Coercivity constant: largest g with |u|_{L^{a+1}} >= g |u|_{-1}.

    value is the smallest ratio R the dual power iteration scored, and
    minimizer the field that scored it, scaled to unit Euclidean norm.
    """

    value: float
    alpha: float
    minimizer: Field


def _dual_power(v: np.ndarray, h: float, p: float):
    """The p-norm power method for R(u) = |u|_p / |u|_{-1}, from v.

    With q = p/(p-1), each step rescales v by max|v| (so that |v|^(q-2)
    cannot overflow), sets u = |v|^(q-2) v, scores R(u) and sets v = A^-1 u
    by the same Poisson solve. It stops when R no longer falls by more than
    1e-15 relative; in exact arithmetic R never rises, so the last step can
    rise only by rounding. Returns the u with the smallest R and every R in
    order.
    """
    q = p / (p - 1.0)
    best, ratios = None, [np.inf]
    while True:
        v = v / np.abs(v).max()
        u = np.abs(v) ** (q - 2.0) * v
        v = poisson_solve_array(u, h)
        r = float(norm_lp_array(u, h, p) / norm_hm1_array(u, v, h))
        if r <= ratios[-1]:
            best = u
        ratios.append(r)
        if not r < ratios[-2] * (1.0 - 1e-15):
            return best, ratios[1:]


def estimate_gamma(grid: GridSpec, alpha: float) -> GammaEstimate:
    """Minimize R(u) = |u|_{L^{alpha+1}} / |u|_{-1} by duality.

    The h-weighted L^p and L^q norms are dual, and so are the H^-1 and H^1_0
    norms, so 1/gamma = sup_v |v|_q / |v|_{H^1_0}, q = (1+alpha)/alpha. The
    p-norm power method (D. W. Boyd, 1974; N. J. Higham, 1992) climbs that
    convex ratio from the closed-form first eigenmode (mode1_exact, so no
    eigensolve) in about ten Poisson solves (_dual_power), each a pttrs on
    the cached LDL^T factor. At alpha = 1 it is the linear power method and
    R = sqrt(lambda_1). Every R is the ratio of a field, so the result is an
    upper estimate of the true infimum.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    u, ratios = _dual_power(mode1_exact(grid), grid.spacing, alpha + 1.0)
    return GammaEstimate(
        value=min(ratios), alpha=alpha, minimizer=Field(u / np.linalg.norm(u), grid)
    )
