import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgError, cho_solve_banded

from spmlab import (
    Field,
    GridSpec,
    apply_laplacian,
    build_basis,
    estimate_gamma,
    inner_hm1,
    norm_hm1,
    norm_lp,
    solve_poisson,
)
from spmlab.operators import (
    GridError,
    _bump_ratios,
    _poisson_factor,
    _ratio_and_grad,
    lambda1_exact,
    laplacian_array,
    norm_l2,
    poisson_solve_array,
    solve_banded,
)

from conftest import padded_laplacian, random_field


def dense_laplacian(grid):
    """Dense oracle for the tridiagonal operator."""
    n, h = grid.n_interior, grid.spacing
    A = np.zeros((n, n))
    np.fill_diagonal(A, -2.0)
    np.fill_diagonal(A[1:], 1.0)
    np.fill_diagonal(A[:, 1:], 1.0)
    return A / h**2


class TestGrid:
    def test_spacing_consistency(self):
        g = GridSpec(99, length=2.5)
        assert g.spacing * (g.n_interior + 1) == pytest.approx(2.5, rel=1e-14)

    def test_too_small(self):
        with pytest.raises(GridError):
            GridSpec(2)

    def test_field_shape_mismatch(self, grid):
        with pytest.raises(GridError):
            Field(np.zeros(grid.n_interior + 1), grid)

    def test_field_rejects_nan(self, grid):
        vals = np.zeros(grid.n_interior)
        vals[3] = np.nan
        with pytest.raises(GridError):
            Field(vals, grid)


class TestLaplacian:
    def test_zero(self, grid):
        z = Field.zero(grid)
        assert np.all(apply_laplacian(z).values == 0)

    def test_stencil_small_grid(self):
        # n=3, L=1, h=1/4: unit middle node maps to 16*(1,-2,1)
        g = GridSpec(3)
        u = Field(np.array([0.0, 1.0, 0.0]), g)
        np.testing.assert_allclose(
            apply_laplacian(u).values, 16.0 * np.array([1.0, -2.0, 1.0])
        )

    def test_eigenmode_against_dense_eigensolve(self, grid):
        b = build_basis(grid, 1)
        w, v = np.linalg.eigh(-dense_laplacian(grid))
        lam1 = w[0]
        e1 = b.mode(1)
        np.testing.assert_allclose(
            apply_laplacian(e1).values, -lam1 * e1.values, rtol=1e-10, atol=1e-8
        )
        assert b.eigenvalues[0] == pytest.approx(lam1, rel=1e-12)
        assert b.eigenvalues[0] == pytest.approx(lambda1_exact(grid), rel=1e-12)

    def test_linearity(self, grid, rng):
        u, v = random_field(grid, rng), random_field(grid, rng)
        lhs = apply_laplacian(Field(2.0 * u.values - 3.0 * v.values, grid)).values
        rhs = 2.0 * apply_laplacian(u).values - 3.0 * apply_laplacian(v).values
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_equals_padded_stencil_bit_for_bit(self, rng):
        h = GridSpec(63).spacing
        signed_zeros = np.array([0.0, -0.0, 0.0, -0.0, 1.5, -0.0, -2.0, 0.0])
        sparse = rng.standard_normal(63)
        sparse[::3] = 0.0
        sparse[1::5] = -0.0
        vectors = [signed_zeros, signed_zeros[::-1], sparse, rng.standard_normal(63) * 1e-300,
                   np.array([-0.0, 3.0]), np.array([0.0]), np.array([-0.0]), np.array([2.5])]
        for v in vectors:
            before = v.copy()
            got, ref = laplacian_array(v, h), padded_laplacian(v, h)
            assert got.tobytes() == ref.tobytes()  # signed zeros included
            assert v.tobytes() == before.tobytes()


class TestPoisson:
    def test_zero(self, grid):
        assert np.all(solve_poisson(Field.zero(grid)).values == 0)

    def test_eigenmode(self, basis):
        e2 = basis.mode(2)
        sol = solve_poisson(e2)
        np.testing.assert_allclose(
            sol.values, e2.values / basis.eigenvalues[1], rtol=1e-10, atol=1e-14
        )

    def test_roundtrip_random(self, grid, rng):
        for _ in range(100):
            f = random_field(grid, rng)
            back = apply_laplacian(solve_poisson(f))
            np.testing.assert_allclose(back.values, -f.values, rtol=1e-10, atol=1e-10)

    def test_multi_column_matches_column_solves(self, grid, rng):
        f = rng.standard_normal((grid.n_interior, 5))
        cols = [poisson_solve_array(f[:, j], grid.spacing) for j in range(f.shape[1])]
        np.testing.assert_array_equal(
            poisson_solve_array(f, grid.spacing), np.column_stack(cols)
        )


def badly_scaled_tridiagonal(n, rng):
    """(3, n) banded layout with entries spread over 16 decades."""
    ab = rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (3, n))
    ab[0, 0] = ab[2, -1] = 0.0
    return ab


def diagonals(ab):
    """(dl, d, du) of a (3, n) banded array, the order gtsv takes them in."""
    return ab[2, :-1], ab[1], ab[0, 1:]


class TestLapackKernels:
    """The direct LAPACK calls against the scipy wrappers they replace."""

    @pytest.mark.parametrize("n", [3, 63, 255])
    def test_gtsv_matches_scipy_solve_banded(self, n, rng):
        for _ in range(20):
            ab = badly_scaled_tridiagonal(n, rng)
            for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
                np.testing.assert_array_equal(
                    solve_banded(*diagonals(ab), b), scipy.linalg.solve_banded((1, 1), ab, b)
                )

    def test_gtsv_leaves_inputs_unchanged(self, rng):
        ab = badly_scaled_tridiagonal(63, rng)
        b = rng.standard_normal(63)
        ab_copy, b_copy = ab.copy(), b.copy()
        solve_banded(*diagonals(ab), b)
        np.testing.assert_array_equal(ab, ab_copy)
        np.testing.assert_array_equal(b, b_copy)

    @pytest.mark.parametrize("n", [3, 63, 255])
    def test_pbtrs_matches_scipy_cho_solve_banded(self, n, rng):
        h = 1.0 / (n + 1)
        factor = _poisson_factor(n, h)
        for f in (rng.standard_normal(n), rng.standard_normal((n, 4))):
            np.testing.assert_array_equal(
                poisson_solve_array(f, h), cho_solve_banded((factor, False), f)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad, rng):
        n = 31
        ab = badly_scaled_tridiagonal(n, rng)
        b = rng.standard_normal(n)
        for row, col in ((0, 4), (1, 5), (2, 6)):
            bad_ab = ab.copy()
            bad_ab[row, col] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve_banded(*diagonals(bad_ab), b)
        bad_b = b.copy()
        bad_b[7] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_banded(*diagonals(ab), bad_b)
        with pytest.raises(ValueError, match="infs or NaNs"):
            poisson_solve_array(bad_b, 1.0 / (n + 1))

    def test_singular_matrix(self):
        with pytest.raises(LinAlgError, match="singular matrix"):
            solve_banded(np.zeros(6), np.zeros(7), np.zeros(6), np.ones(7))


class TestInnerHm1:
    def test_eigenmode_orthogonality(self, basis):
        assert inner_hm1(basis.mode(1), basis.mode(2)) == pytest.approx(0.0, abs=1e-12)

    def test_eigenmode_diagonal(self, basis):
        assert inner_hm1(basis.mode(1), basis.mode(1)) == pytest.approx(
            1.0 / basis.eigenvalues[0], rel=1e-12
        )

    def test_symmetry(self, grid, rng):
        for _ in range(10):
            u, v = random_field(grid, rng), random_field(grid, rng)
            assert inner_hm1(u, v) == pytest.approx(inner_hm1(v, u), rel=1e-10)

    def test_grid_mismatch(self, grid, rng):
        other = GridSpec(31)
        with pytest.raises(GridError):
            inner_hm1(random_field(grid, rng), random_field(other, rng))

    def test_gram_positive_definite(self, grid, rng):
        fields = [random_field(grid, rng) for _ in range(10)]
        G = np.array([[inner_hm1(a, b) for b in fields] for a in fields])
        np.linalg.cholesky(G)  # raises if not positive definite


class TestNorms:
    def test_norm_hm1_zero(self, grid):
        assert norm_hm1(Field.zero(grid)) == 0.0

    def test_norm_hm1_homogeneity(self, grid, rng):
        u = random_field(grid, rng)
        assert norm_hm1(Field(-2.5 * u.values, grid)) == pytest.approx(
            2.5 * norm_hm1(u), rel=1e-12
        )

    def test_norm_hm1_eigenmode(self, basis):
        assert norm_hm1(basis.mode(1)) == pytest.approx(
            1.0 / np.sqrt(basis.eigenvalues[0]), rel=1e-10
        )

    def test_poincare_spectral_bound(self, grid, basis, rng):
        lam1 = basis.eigenvalues[0]
        for _ in range(50):
            u = random_field(grid, rng)
            assert norm_hm1(u) <= norm_l2(u) / np.sqrt(lam1) * (1 + 1e-12)

    def test_norm_lp_constant(self, grid):
        c = -3.0
        u = Field(np.full(grid.n_interior, c), grid)
        for p in (1.0, 1.5, 2.0, 4.0):
            expected = abs(c) * (grid.spacing * grid.n_interior) ** (1.0 / p)
            assert norm_lp(u, p) == pytest.approx(expected, rel=1e-12)

    def test_norm_lp_p2_matches_l2(self, grid, rng):
        u = random_field(grid, rng)
        assert norm_lp(u, 2.0) == pytest.approx(norm_l2(u), rel=1e-12)

    def test_norm_lp_rejects_small_p(self, grid):
        with pytest.raises(ValueError):
            norm_lp(Field.zero(grid), 0.5)


class TestBasis:
    def test_orthonormality(self, basis, grid):
        h = grid.spacing
        G = h * basis.modes @ basis.modes.T
        np.testing.assert_allclose(G, np.eye(basis.size), atol=1e-12)

    def test_eigen_residual(self, basis):
        for k in range(1, basis.size + 1):
            e = basis.mode(k)
            res = apply_laplacian(e).values + basis.eigenvalues[k - 1] * e.values
            rel = np.linalg.norm(res) / (
                basis.eigenvalues[k - 1] * np.linalg.norm(e.values)
            )
            assert rel <= 1e-10

    def test_lambda1_richardson_to_continuum(self):
        # lam1^h = pi^2 - C h^2 + O(h^4); Richardson on h, h/2 cancels the h^2 term
        v1 = build_basis(GridSpec(255), 1).eigenvalues[0]
        v2 = build_basis(GridSpec(511), 1).eigenvalues[0]
        extrap = (4 * v2 - v1) / 3
        assert extrap == pytest.approx(np.pi**2, rel=1e-6)

    def test_k_too_large(self, grid):
        with pytest.raises(GridError):
            build_basis(grid, grid.n_interior + 1)


class TestGamma:
    def test_alpha_one_sanity(self, grid, basis):
        # at p=2 the minimal ratio is sqrt(lam1), attained at the first mode:
        # ratio^2 = sum c_k^2 / sum(c_k^2/lam_k) by spectral decomposition
        est = estimate_gamma(grid, alpha=1.0, n_starts=4, seed=0)
        assert est.value == pytest.approx(np.sqrt(basis.eigenvalues[0]), rel=1e-6)

    def test_ratio_scale_invariance(self, grid, rng):
        u = random_field(grid, rng)
        for c in (0.1, 7.0):
            r1 = norm_lp(u, 1.5) / norm_hm1(u)
            v = Field(c * u.values, grid)
            r2 = norm_lp(v, 1.5) / norm_hm1(v)
            assert r2 == pytest.approx(r1, rel=1e-12)

    def test_multistart_stability(self, grid):
        a = estimate_gamma(grid, alpha=0.5, n_starts=8, seed=11)
        b = estimate_gamma(grid, alpha=0.5, n_starts=16, seed=12)
        assert abs(a.value - b.value) <= 0.01 * a.value

    def test_minimizer_consistency(self, grid):
        est = estimate_gamma(grid, alpha=0.5, n_starts=4, seed=3)
        ratio = norm_lp(est.minimizer, 1.5) / norm_hm1(est.minimizer)
        assert ratio == pytest.approx(est.value, rel=1e-10)
        assert est.value > 0

    def test_deterministic_given_seed(self, grid):
        a = estimate_gamma(grid, alpha=0.5, n_starts=4, seed=5)
        b = estimate_gamma(grid, alpha=0.5, n_starts=4, seed=5)
        assert a.value == b.value
        np.testing.assert_array_equal(a.minimizer.values, b.minimizer.values)

    @pytest.mark.parametrize("n, alpha, n_starts, seed, value, digest", [
        (127, 0.3, 32, 17, "2.782713552957625", "8a6f73691d43d0a9"),
        (255, 0.5, 32, 17, "2.948179003400587", "d191e6850b170a53"),
        (3, 0.9, 4, 0, "3.033287243823664", "2ed7bd1af0ecc626"),
    ])
    def test_pinned_estimates(self, n, alpha, n_starts, seed, value, digest):
        """The estimate and its minimizer, to the last bit, as first computed
        from a list of all candidates (the bumps are streamed since)."""
        est = estimate_gamma(GridSpec(n), alpha, n_starts, seed)
        assert repr(est.value) == value
        assert hashlib.sha256(est.minimizer.values.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("n", [3, 63, 64, 65, 200])
    def test_streamed_bump_ratios_equal_direct_ones(self, n):
        h = GridSpec(n).spacing
        for p in (1.2, 1.5, 2.0):
            streamed = _bump_ratios(n, h, p)
            direct = [_ratio_and_grad(np.eye(n)[i], h, p)[0] for i in range(n)]
            assert np.array_equal(streamed, direct)

    def test_bumps_are_not_held_at_once(self):
        """Holding all n bumps would take n*n*8 bytes, 8 MiB at n = 1023."""
        grid = GridSpec(1023)
        estimate_gamma(GridSpec(31), 0.5, 1, 0)  # warm caches and imports
        tracemalloc.start()
        try:
            estimate_gamma(grid, 0.5, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_coercivity_on_random_fields(self, grid, rng):
        est = estimate_gamma(grid, alpha=0.5, n_starts=8, seed=2)
        for _ in range(50):
            u = random_field(grid, rng)
            assert norm_lp(u, 1.5) >= est.value * norm_hm1(u) * (1 - 1e-9)
