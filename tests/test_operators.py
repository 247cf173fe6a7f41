import hashlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgError

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
    _dual_power,
    lambda1_exact,
    laplacian_array,
    mode1_exact,
    norm_hm1_array,
    norm_l2,
    norm_l2_array,
    norm_lp_array,
    poisson_solve_array,
    solve_banded,
)

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

from conftest import gamma_continuum, padded_laplacian, random_field, scipy_poisson_solve


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

    @pytest.mark.parametrize("n", [3.5, 31.0, True])
    def test_node_count_is_an_integer(self, n):
        """GridSpec(3.5) built 4 nodes at spacing 1/4.5."""
        with pytest.raises(GridError, match=f"n_interior must be an integer, got {n!r}"):
            GridSpec(n)

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

    def test_block_rows_match_vector_solves(self, grid, rng):
        f = rng.standard_normal((5, grid.n_interior))
        rows = [poisson_solve_array(row, grid.spacing) for row in f]
        np.testing.assert_array_equal(poisson_solve_array(f, grid.spacing), np.stack(rows))


def badly_scaled_spd_tridiagonal(n, rng):
    """(d, e) of a symmetric positive definite tridiagonal matrix, its
    off-diagonal spread over 16 decades: d is diagonally dominant by a
    margin that is spread as widely."""
    e = rng.standard_normal(n - 1) * 10.0 ** rng.uniform(-8.0, 8.0, n - 1)
    d = 10.0 ** rng.uniform(-8.0, 8.0, n)
    d[:-1] += np.abs(e)
    d[1:] += np.abs(e)
    return d, e


def upper_band(d, e):
    """The (2, n) upper-form band of scipy's solveh_banded."""
    band = np.zeros((2, d.size))
    band[0, 1:], band[1] = e, d
    return band


class TestLapackKernels:
    """The direct LAPACK calls against the scipy wrappers they replace."""

    @pytest.mark.parametrize("n", [3, 63, 255])
    def test_ptsv_matches_scipy_solveh_banded(self, n, rng):
        for _ in range(20):
            d, e = badly_scaled_spd_tridiagonal(n, rng)
            for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
                np.testing.assert_array_equal(
                    solve_banded(d, e, b), scipy.linalg.solveh_banded(upper_band(d, e), b)
                )

    def test_ptsv_leaves_inputs_unchanged(self, rng):
        d, e = badly_scaled_spd_tridiagonal(63, rng)
        b = rng.standard_normal(63)
        copies = d.copy(), e.copy(), b.copy()
        solve_banded(d, e, b)
        for a, copy in zip((d, e, b), copies):
            np.testing.assert_array_equal(a, copy)

    def test_stacked_blocks_solve_separately(self, rng):
        """Two systems stacked with a zero off-diagonal entry at the seam
        give each system's own solution bit for bit: ptsv's recurrences pass
        the seam as exact zeros."""
        for _ in range(200):
            n1, n2 = rng.integers(3, 64, size=2)
            (d1, e1), (d2, e2) = (badly_scaled_spd_tridiagonal(m, rng) for m in (n1, n2))
            b1, b2 = rng.standard_normal(n1), rng.standard_normal(n2)
            stacked = solve_banded(
                np.concatenate([d1, d2]), np.concatenate([e1, [0.0], e2]),
                np.concatenate([b1, b2]),
            )
            separate = np.concatenate([solve_banded(d1, e1, b1), solve_banded(d2, e2, b2)])
            assert stacked.tobytes() == separate.tobytes()

    @pytest.mark.parametrize("n", [3, 63, 255, 2047])
    def test_pttrs_matches_scipy_solveh_banded(self, n, rng):
        """ptsv is pttrf followed by pttrs, so the solve on the cached factor
        is scipy's solveh_banded on the Poisson band bit for bit, for a vector
        and for a (P, n) block (whose transpose is scipy's (n, P) right-hand
        side), and leaves its right-hand side unchanged."""
        h = 1.0 / (n + 1)
        for f in (rng.standard_normal(n), rng.standard_normal((4, n))):
            before = f.copy()
            got = poisson_solve_array(f, h)
            assert got.shape == f.shape
            assert got.tobytes() == scipy_poisson_solve(f.T, h).T.tobytes()
            assert f.tobytes() == before.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad, rng):
        n = 31
        d, e = badly_scaled_spd_tridiagonal(n, rng)
        b = rng.standard_normal(n)
        for which in range(3):
            args = [d.copy(), e.copy(), b.copy()]
            args[which][4] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve_banded(*args)
        bad_b = b.copy()
        bad_b[7] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            poisson_solve_array(bad_b, 1.0 / (n + 1))

    def test_singular_matrix(self):
        """The singular zero matrix and a nonsingular indefinite one are both
        refused: ptsv needs a positive definite matrix."""
        for d in (np.zeros(7), np.array([1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0])):
            with pytest.raises(LinAlgError, match="not positive definite"):
                solve_banded(d, np.zeros(6), np.ones(7))


class TestLastAxis:
    """Every array operator on a C-ordered (P, n) block gives, row by row, the
    (n,) call's result bit for bit, and leaves the block unchanged."""

    @pytest.mark.parametrize("n", [127, 255, 2047])
    @pytest.mark.parametrize("P", [1, 3, 64])
    def test_rows_match_vector_calls(self, P, n, rng):
        h = 1.0 / (n + 1)
        # magnitudes spread over 16 decades, so that the L^p roots cover
        # values where numpy's SIMD and scalar pow round differently
        block = rng.standard_normal((P, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (P, n))
        before = block.copy()
        operators = {
            "laplacian_array": lambda v: laplacian_array(v, h),
            "poisson_solve_array": lambda v: poisson_solve_array(v, h),
            "norm_l2_array": lambda v: norm_l2_array(v, h),
            "norm_hm1_array": lambda v: norm_hm1_array(v, poisson_solve_array(v, h), h),
            **{f"norm_lp_array p={p}": (lambda v, p=p: norm_lp_array(v, h, p))
               for p in (1.2, 1.5, 1.8, 2.0)},
        }
        for name, op in operators.items():
            rows = np.array([op(row) for row in block])
            np.testing.assert_array_equal(op(block), rows, err_msg=name, strict=True)
        assert block.tobytes() == before.tobytes()


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

    @pytest.mark.parametrize("n", [3, 127, 255, 2047])
    def test_mode1_exact_is_the_first_mode(self, n):
        """The closed-form start of the gamma estimate is LAPACK's first
        eigenvector up to scale, within 1e-10, and positive at every node."""
        grid = GridSpec(n)
        start = mode1_exact(grid)
        mode = build_basis(grid, 1).modes[0]
        assert np.all(start > 0)
        scaled = start * (np.dot(start, mode) / np.dot(start, start))
        assert np.abs(scaled - mode).max() <= 1e-10 * np.abs(mode).max()

    def test_mode_signs_pinned(self):
        """build_basis makes each mode's largest-magnitude entry positive, but
        every mode k >= 2 has tied extrema (mode 2 is antisymmetric), so
        LAPACK's rounding picks which of them wins and hence the sign. Every
        workload kicks mode 2, so a LAPACK build that breaks the tie the other
        way changes every path."""
        for n, signs in ((127, [1.0, 1.0]), (255, [1.0, -1.0]), (2047, [1.0, -1.0])):
            first = np.sign(build_basis(GridSpec(n), 2).modes[:, 0]).tolist()
            assert first == signs, (
                f"n={n}: the modes start with signs {first}, not {signs}: this "
                "LAPACK build broke the tie between mode 2's extrema the other "
                "way, so mode 2's sign and every noisy path change"
            )

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
        est = estimate_gamma(grid, alpha=1.0)
        assert est.value == pytest.approx(np.sqrt(basis.eigenvalues[0]), rel=1e-6)

    def test_ratio_scale_invariance(self, grid, rng):
        u = random_field(grid, rng)
        for c in (0.1, 7.0):
            r1 = norm_lp(u, 1.5) / norm_hm1(u)
            v = Field(c * u.values, grid)
            r2 = norm_lp(v, 1.5) / norm_hm1(v)
            assert r2 == pytest.approx(r1, rel=1e-12)

    def test_minimizer_consistency(self, grid):
        est = estimate_gamma(grid, alpha=0.5)
        ratio = norm_lp(est.minimizer, 1.5) / norm_hm1(est.minimizer)
        assert ratio == pytest.approx(est.value, rel=1e-10)
        assert est.value > 0

    def test_multistart_stability(self, grid):
        """Power iterations from two random positive starts end within 1% of
        each other and of the estimate from the eigenmode start."""
        est = estimate_gamma(grid, alpha=0.5)
        ends = []
        for seed in (11, 12):
            start = np.abs(np.random.default_rng(seed).standard_normal(grid.n_interior))
            ends.append(min(_dual_power(start, grid.spacing, 1.5)[1]))
        assert abs(ends[0] - ends[1]) <= 0.01 * ends[0]
        assert all(abs(end - est.value) <= 0.01 * est.value for end in ends)

    def test_deterministic_given_seed(self, grid):
        """The estimate has no seed left: grid and alpha alone fix it, bit for bit."""
        a = estimate_gamma(grid, alpha=0.5)
        b = estimate_gamma(grid, alpha=0.5)
        assert a.value == b.value
        np.testing.assert_array_equal(a.minimizer.values, b.minimizer.values)

    # The pins below hold where numpy dispatches its AVX512 pow kernel for
    # |v|^(q-2), which rounds differently from the kernel it takes otherwise
    # (a CPU without AVX512, or NPY_DISABLE_CPU_FEATURES="AVX512_SPR
    # AVX512_ICL X86_V4"); there the estimates are these, to the last bit too.
    PINS_WITHOUT_AVX512 = {
        (127, 0.3): ("2.7827135529569063", "b90c1aabaeedb095"),
        (255, 0.5): ("2.9481790034004884", "c4beea913a71bfca"),
        (3, 0.9): ("3.0332872438236644", "64ad7466c43d0c9e"),
        (2047, 0.2): ("2.649957767315685", "a4244b2ddf5680c6"),
    }

    @pytest.mark.parametrize("n, alpha, value, digest", [
        (127, 0.3, "2.782713552956906", "7e346c99563e2b58"),
        (255, 0.5, "2.9481790034004884", "c4beea913a71bfca"),
        (3, 0.9, "3.0332872438236644", "8d1ba3410a4a99bc"),
        # the multi-start L-BFGS search it replaced returned 2.649972630341472
        # here, above the continuum constant 2.649958125428175
        (2047, 0.2, "2.649957767315685", "4bf2dc9e7669a58e"),
    ])
    def test_pinned_estimates(self, n, alpha, value, digest):
        """The estimate and its minimizer, to the last bit, below the
        continuum constant, under the pin set of numpy's pow dispatch."""
        avx512 = __cpu_features__.get("AVX512_SKX", False)
        if not avx512:
            value, digest = self.PINS_WITHOUT_AVX512[n, alpha]
        cause = (
            f"numpy reports AVX512_SKX {avx512}, so these are the pins "
            f"{'with' if avx512 else 'without'} its AVX512 pow kernel; a pow that "
            "rounds otherwise moves the estimate in its last bits"
        )
        est = estimate_gamma(GridSpec(n), alpha)
        assert repr(est.value) == value, cause
        assert hashlib.sha256(est.minimizer.values.tobytes()).hexdigest()[:16] == digest, cause
        assert est.value < gamma_continuum(alpha)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_below_continuum_with_h2_gap(self, alpha):
        """gamma_h < gamma_cont, and the gap 1 - gamma_h/gamma_cont is O(h^2):
        it shrinks 4x per doubling of n+1."""
        gaps = [1.0 - estimate_gamma(GridSpec(n), alpha).value / gamma_continuum(alpha)
                for n in (63, 127, 255, 511)]
        assert all(gap > 0 for gap in gaps)
        for coarse, fine in zip(gaps, gaps[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("length", [0.5, 2.0])
    def test_length_scaling(self, length):
        """On (0, L) gamma scales as L^(1/(1+alpha) - 3/2), discrete and continuum."""
        unit = estimate_gamma(GridSpec(255), 0.5).value / gamma_continuum(0.5)
        scaled = estimate_gamma(GridSpec(255, length), 0.5).value / gamma_continuum(0.5, length)
        assert scaled == pytest.approx(unit, rel=1e-12)

    @pytest.mark.parametrize("n, alpha", [(63, 0.2), (127, 0.3), (255, 0.5), (127, 0.8)])
    def test_random_starts_end_no_lower(self, n, alpha):
        """From random positive starts the iteration ends no more than 1e-12
        below the eigenmode start, and R does not rise but by rounding."""
        grid = GridSpec(n)
        est = estimate_gamma(grid, alpha)
        rng = np.random.default_rng(n)
        for _ in range(4):
            u, ratios = _dual_power(np.abs(rng.standard_normal(n)), grid.spacing, alpha + 1)
            assert min(ratios) >= est.value * (1.0 - 1e-12)
            assert np.all(np.diff(ratios) <= 1e-14 * ratios[0])
            assert norm_lp(Field(u, grid), alpha + 1) / norm_hm1(Field(u, grid)) == (
                pytest.approx(min(ratios), rel=1e-12)
            )

    def test_extra_memory_is_linear_in_n(self):
        """A dense n x n candidate set would take n*n*8 bytes, 8 MiB at n = 1023."""
        grid = GridSpec(1023)
        estimate_gamma(GridSpec(31), 0.5)  # warm caches and imports
        tracemalloc.start()
        try:
            estimate_gamma(grid, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_coercivity_on_random_fields(self, grid, rng):
        est = estimate_gamma(grid, alpha=0.5)
        for _ in range(50):
            u = random_field(grid, rng)
            assert norm_lp(u, 1.5) >= est.value * norm_hm1(u) * (1 - 1e-9)

    def test_import_does_not_load_scipy_optimize(self):
        code = "import spmlab, sys; print('scipy.optimize' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
