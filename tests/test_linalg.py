import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import framec as fc
from framec.linalg import as_matrix
from helpers import F_1234, F_COLLINEAR, F_SPARSE, exact_rank

ATOL = 1e-10

# worked product matrices, used as elimination fixtures
P_SPARSE = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                     [-2, 0, 0, 1]])
P_1234 = np.array([[-3.0, 4, 0, 0], [2, -1, 0, 0], [5, -10, 5, 0],
                   [10, -15, 0, 5]]) / 5

finite_entries = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def fro(x):
    """Frobenius norm that does not overflow: entries of a pseudoinverse
    can exceed 1e154, whose square is inf."""
    top = float(np.max(np.abs(x))) if x.size else 0.0
    return top * float(np.linalg.norm(x / top)) if top else 0.0


def small_matrices(max_rows=6, max_cols=10):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(r, max_cols).flatmap(
            lambda c: arrays(np.float64, (r, c), elements=finite_entries)))


def test_svd_identity():
    fac = fc.svd(np.eye(2))
    assert np.allclose(fac.U, np.eye(2))
    assert np.allclose(fac.sigma, [1, 1])
    assert np.allclose(fac.V, np.eye(2))


def test_svd_paper_singular_values():
    fac = fc.svd(F_SPARSE)
    assert np.allclose(fac.sigma, [np.sqrt(5), 1, 1], atol=1e-12)


def test_svd_reconstruction_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.standard_normal((3, 5))
        fac = fc.svd(m)
        assert np.linalg.norm(fac.U @ fac.sigma_matrix() @ fac.vh - m) <= 1e-10
        assert np.all(np.diff(fac.sigma) <= 1e-15)
        assert np.linalg.norm(fac.U @ fac.U.conj().T - np.eye(3)) <= 1e-12
        assert np.linalg.norm(fac.V @ fac.vh - np.eye(5)) <= 1e-12


def test_svd_complex():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    fac = fc.svd(m)
    assert np.linalg.norm(fac.U @ fac.sigma_matrix() @ fac.vh - m) <= 1e-10


def test_svd_rejects_tall_and_nonfinite():
    with pytest.raises(fc.BadShape):
        fc.svd(np.zeros((3, 2)))
    with pytest.raises(fc.NonFinite):
        fc.svd([[1.0, np.nan]])


def test_numerical_rank_basic():
    assert fc.numerical_rank(np.zeros((2, 3))) == 0
    assert fc.numerical_rank(np.zeros((0, 3))) == 0
    assert fc.numerical_rank(np.zeros((2, 0)), 1e-9) == 0
    assert fc.numerical_rank([[-1.0, -2], [-2, -4]]) == 1
    assert fc.numerical_rank(np.eye(4)) == 4


def test_numerical_rank_matches_exact_rank():
    rng = np.random.default_rng(11)
    for _ in range(30):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 7)))
        m = rng.integers(-3, 4, shape)
        assert fc.numerical_rank(m.astype(float)) == exact_rank(m)


def test_pseudoinverse_identity_and_zero():
    assert np.allclose(fc.pseudoinverse(np.eye(3)), np.eye(3))
    assert np.array_equal(fc.pseudoinverse(np.zeros((2, 2))),
                          np.zeros((2, 2)))


def test_pseudoinverse_full_row_rank_formula():
    # for full row rank, M+ = M*(MM*)^{-1}; oracle solves the 2x2 system
    want = np.linalg.solve(F_1234 @ F_1234.T, F_1234).T
    assert np.linalg.norm(fc.pseudoinverse(F_1234) - want) <= 1e-12
    assert np.linalg.norm(F_1234 @ fc.pseudoinverse(F_1234) - np.eye(2)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(small_matrices())
def test_pseudoinverse_penrose_identities(m):
    # keep the retained spectrum well separated from the rank cutoff;
    # otherwise the identities only hold to eps * condition number
    sv = np.linalg.svd(m, compute_uv=False)
    cutoff = max(m.shape) * np.finfo(np.float64).eps * (sv[0] if len(sv)
                                                        else 0.0)
    kept = sv[sv > cutoff]
    assume(kept.size == 0 or kept.min() >= 1e-5 * kept.max())
    p = fc.pseudoinverse(m)
    scale = max(1.0, fro(m))
    assert fro(m @ p @ m - m) <= 1e-9 * scale
    assert fro(p @ m @ p - p) <= 1e-9 * max(1.0, fro(p))
    assert fro((m @ p).conj().T - m @ p) <= 1e-9 * scale
    assert fro((p @ m).conj().T - p @ m) <= 1e-9 * scale


def test_subnormal_spectrum_counts_as_zero():
    # 1 / 2.2e-313 overflows: the three primitives agree on rank 0
    m = np.array([[2.2e-313]])
    assert np.array_equal(fc.pseudoinverse(m), [[0.0]])
    assert fc.numerical_rank(m) == 0
    assert np.array_equal(fc.nullspace_basis(m), [[1.0]])
    # a subnormal value below a normal one is dropped as well
    m = np.diag([1e-300, 1e-310])
    p = fc.pseudoinverse(m)
    assert np.isfinite(p).all()
    assert np.allclose(p, np.diag([1e300, 0.0]), rtol=1e-12, atol=0)
    assert fc.numerical_rank(m) == 1
    assert np.array_equal(np.abs(fc.nullspace_basis(m)), [[0.0], [1.0]])


def test_solve_min_norm_trivial():
    lin = fc.solve_min_norm(np.eye(2), [[1.0], [2.0]])
    assert lin.consistent
    assert np.allclose(lin.solution, [[1], [2]])
    assert lin.residual <= ATOL
    assert lin.nullspace.shape == (2, 0)


def test_solve_min_norm_kernel_direction():
    f1 = np.array([[1.0, -1, 1], [0, 1, 2]])
    lin = fc.solve_min_norm(f1, np.zeros((2, 2)))
    assert lin.consistent
    assert np.linalg.norm(lin.solution) <= ATOL
    assert lin.nullspace.shape == (3, 1)
    v = np.array([-3.0, -2, 1])
    cos = abs(lin.nullspace[:, 0] @ v) / np.linalg.norm(v)
    assert abs(cos - 1.0) <= 1e-12  # parallel to (-3,-2,1)


def test_solve_min_norm_inconsistent():
    lin = fc.solve_min_norm([[-1.0, -2], [-2, -4]], [[0.0, -3], [-2, -3]])
    assert not lin.consistent
    assert lin.residual > 0.1


def test_solve_min_norm_minimality():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((3, 5))
        c = a @ rng.standard_normal((5, 2))
        lin = fc.solve_min_norm(a, c)
        assert lin.consistent
        z = rng.standard_normal((lin.nullspace.shape[1], 2))
        perturbed = lin.solution + lin.nullspace @ z
        assert np.linalg.norm(perturbed) >= np.linalg.norm(lin.solution) - 1e-9


def test_solve_min_norm_empty_shapes():
    lin = fc.solve_min_norm(np.zeros((2, 0)), np.eye(2))
    assert not lin.consistent
    assert lin.solution.shape == (0, 2)
    assert lin.nullspace.shape == (0, 0)
    lin = fc.solve_min_norm(np.zeros((0, 3)), np.zeros((0, 2)))
    assert lin.consistent
    assert lin.solution.shape == (3, 2)
    assert lin.nullspace.shape == (3, 3)


def test_solve_min_norm_shape_mismatch():
    with pytest.raises(fc.DimensionMismatch):
        fc.solve_min_norm(np.eye(2), np.zeros((3, 1)))


def test_in_column_span_cases():
    # c lies in the column span of a exactly when a X = c is consistent
    assert fc.solve_min_norm(F_COLLINEAR, np.zeros((2, 2))).consistent
    rhs = np.eye(2) - np.eye(2) @ np.array([[1.0, 3], [2, 4]]).T
    assert not fc.solve_min_norm(F_COLLINEAR[:, 2:], rhs).consistent
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 3))
    assert fc.solve_min_norm(a, rng.standard_normal((2, 2))).consistent


def test_in_column_span_matches_rank_oracle():
    rng = np.random.default_rng(13)
    for _ in range(30):
        a = rng.integers(-2, 3, (3, int(rng.integers(1, 4))))
        c = rng.integers(-2, 3, (3, 2))
        want = exact_rank(np.hstack([a, c])) == exact_rank(a)
        lin = fc.solve_min_norm(a.astype(float), c.astype(float))
        assert lin.consistent == want


def test_eliminate_identity():
    elim = fc.eliminate_with_product(np.eye(3))
    assert np.allclose(elim.P, np.eye(3))
    assert elim.residual <= ATOL


@pytest.mark.parametrize("f,paper_p", [(F_SPARSE, P_SPARSE),
                                       (F_1234, P_1234)])
def test_paper_product_matrices_pass_residual(f, paper_p):
    n, k = f.shape
    target = np.vstack([np.eye(n), np.zeros((k - n, n))])
    assert np.linalg.norm(paper_p @ f.T - target) <= 1e-12


def test_eliminate_random_frames():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(n, 11))
        f = rng.uniform(-2, 2, (n, k))
        if np.linalg.matrix_rank(f) < n:
            continue
        elim = fc.eliminate_with_product(f.conj().T)
        target = np.vstack([np.eye(n), np.zeros((k - n, n))])
        assert np.linalg.norm(elim.P @ f.conj().T - target) \
            <= 1e-9 * max(1, np.linalg.norm(f))
        assert fc.numerical_rank(elim.P) == k  # P invertible


def test_eliminate_complex():
    rng = np.random.default_rng(19)
    f = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    elim = fc.eliminate_with_product(f.conj().T)
    target = np.vstack([np.eye(2), np.zeros((3, 2))])
    assert np.linalg.norm(elim.P @ f.conj().T - target) <= 1e-10


def test_eliminate_errors():
    with pytest.raises(fc.RankDeficient):
        fc.eliminate_with_product([[1.0, 1], [1, 1]])
    with pytest.raises(fc.BadShape):
        fc.eliminate_with_product(np.zeros((2, 3)))


@pytest.mark.parametrize("fstar", [[[1.0, 1], [1, 1]],
                                   [[1.0, 1], [0, 1.3e-9]]],
                         ids=["zero-pivot", "pivots-pass"])
def test_eliminate_reports_the_rank(fstar):
    # the second matrix's pivots 1 and 1.3e-9 both pass tol, but its
    # sigma_min is 9.2e-10: only the rank check sees it
    sigma_min = np.linalg.svd(np.array(fstar), compute_uv=False)[-1]
    assert sigma_min < 1e-9
    with pytest.raises(fc.RankDeficient,
                       match=r"^matrix has numerical rank < 2$"):
        fc.eliminate_with_product(fstar, tol=1e-9)


@pytest.mark.parametrize("eps", [0.9e-9, 0.6e-9, 0.51e-9])
def test_eliminate_uses_a_small_pivot_when_the_rank_is_full(eps):
    # pivot eps is below tol, but sigma_min = 2 eps is above it
    fstar = np.array([[1.0, 0], [0, eps], [0, eps], [0, eps], [0, eps]])
    assert fc.numerical_rank(fstar, 1e-9) == 2
    elim = fc.eliminate_with_product(fstar, tol=1e-9)
    assert np.isfinite(elim.P).all()
    assert elim.residual <= 1e-12


@pytest.mark.parametrize("fstar", [[[1.0, 1], [1, 1]],
                                   [[1.0, 2], [3, 6], [1, 2]]],
                         ids=["square", "tall"])
def test_eliminate_raises_at_a_zero_pivot_whatever_the_tol(fstar):
    # at tol 1e-20 the SVD's rounding (sigma_2 about 3e-17) passes the
    # rank check, and dividing by the zero pivot would leave P non-finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fc.RankDeficient):
            fc.eliminate_with_product(fstar, tol=1e-20)


@pytest.mark.parametrize("f", [
    F_SPARSE, F_1234,
    np.array([[1.0, 0, 1j, 0], [0, 1, 0, 1 + 1j]]),
    np.array([[1.0, 0, 0, 0, 0], [0, 9e-10, 9e-10, 9e-10, 9e-10]]),
    np.random.default_rng(29).standard_normal((4, 11)),
    np.random.default_rng(31).standard_normal((3, 9))
    + 1j * np.random.default_rng(37).standard_normal((3, 9)),
], ids=["sparse", "1234", "complex", "small-pivot", "random", "random-c"])
def test_eliminate_order_marks_the_unit_columns(f):
    # the product route reads P's pivot columns only and treats column
    # order[n + t] as exactly e_(n+t)
    elim = fc.eliminate_with_product(f.conj().T, tol=1e-9)
    n, k = f.shape
    assert sorted(elim.order.tolist()) == list(range(k))
    rest = elim.order[n:]
    assert not elim.P[:n, rest].any()
    assert np.array_equal(elim.P[n:, rest], np.eye(k - n))


def test_eliminate_never_returns_a_non_finite_p():
    # the pivot 1e-320 clears the subnormal tol, but its reciprocal is inf
    with np.errstate(all="ignore"):
        with pytest.raises(fc.RankDeficient, match="float range"):
            fc.eliminate_with_product([[1e-320], [0.0]], tol=1e-321)


BAD_TOLS = [0.0, -1.0, float("nan"), float("inf")]


@pytest.mark.parametrize("tol", BAD_TOLS, ids=["zero", "negative", "nan",
                                               "inf"])
@pytest.mark.parametrize("call", [
    lambda tol: fc.eliminate_with_product([[1.0, 1], [1, 1], [0, 0]], tol),
    lambda tol: fc.numerical_rank([[1.0, 1], [1, 1]], tol),
    lambda tol: fc.solve_min_norm(np.eye(2), [[1.0], [1]], tol),
], ids=["eliminate", "rank", "solve"])
def test_primitives_refuse_a_tol_that_is_not_finite_and_positive(call, tol):
    with pytest.raises(ValueError, match="finite and positive"):
        call(tol)


def test_as_matrix_shape_errors():
    with pytest.raises(fc.BadShape, match="2-D"):
        as_matrix(np.zeros(3))
    with pytest.raises(fc.BadShape, match="nonempty"):
        as_matrix(np.zeros((2, 0)))
    assert as_matrix(np.zeros((2, 0)), allow_empty=True).shape == (2, 0)


def orthonormal_columns(rng, rows, cols, complex_field):
    z = rng.standard_normal((rows, cols))
    if complex_field:
        z = z + 1j * rng.standard_normal((rows, cols))
    return np.linalg.qr(z)[0]


@pytest.mark.parametrize("k, n", [(2, 2), (5, 3), (12, 4)])
@pytest.mark.parametrize("complex_field", [False, True],
                         ids=["real", "complex"])
@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_eliminate_verdict_is_numerical_rank_at_tol(k, n, complex_field,
                                                    factor):
    # sigma_n just below and just above tol: the pivots cannot certify
    # the rank there, and the verdict is numerical_rank's
    rng = np.random.default_rng(41 + k)
    tol = 1e-9
    sigma = np.geomspace(1.0, factor * tol, n)
    fstar = (orthonormal_columns(rng, k, n, complex_field) * sigma) @ \
        orthonormal_columns(rng, n, n, complex_field).conj().T
    assert np.iscomplexobj(fstar) == complex_field
    full = fc.numerical_rank(fstar, tol) == n
    assert full == (factor > 1)
    if full:
        elim = fc.eliminate_with_product(fstar, tol=tol)
        assert elim.P.shape == (k, k)
    else:
        with pytest.raises(fc.RankDeficient,
                           match=rf"^matrix has numerical rank < {n}$"):
            fc.eliminate_with_product(fstar, tol=tol)


def test_nullspace_basis_orthonormal():
    rng = np.random.default_rng(23)
    m = rng.standard_normal((2, 5))
    n = fc.nullspace_basis(m)
    assert n.shape == (5, 3)
    assert np.linalg.norm(m @ n) <= 1e-12
    assert np.linalg.norm(n.conj().T @ n - np.eye(3)) <= 1e-12


def assert_same_kernel(a):
    """solve_min_norm's kernel is nullspace_basis's, bit for bit."""
    lin = fc.solve_min_norm(a, np.zeros((np.shape(a)[0], 1)))
    want = fc.nullspace_basis(a)
    assert lin.nullspace.shape == want.shape
    assert lin.nullspace.dtype == want.dtype
    if want.size:
        assert lin.nullspace.tobytes() == want.tobytes()


def any_matrices(dtype, max_rows=6, max_cols=6):
    """Small tall or wide matrices of finite entries."""
    def draw(shape):
        re = arrays(np.float64, shape, elements=finite_entries)
        if dtype == np.float64:
            return re
        return st.tuples(re, re).map(lambda p: p[0] + 1j * p[1])
    return st.tuples(st.integers(1, max_rows),
                     st.integers(1, max_cols)).flatmap(draw)


@settings(max_examples=60, deadline=None)
@given(any_matrices(np.float64))
def test_solve_kernel_is_nullspace_basis_real(a):
    assert_same_kernel(a)


@settings(max_examples=60, deadline=None)
@given(any_matrices(np.complex128))
def test_solve_kernel_is_nullspace_basis_complex(a):
    assert_same_kernel(a)


def test_solve_kernel_is_nullspace_basis_rank_deficient():
    rng = np.random.default_rng(43)
    for _ in range(60):
        rows, cols = (int(x) for x in rng.integers(1, 7, 2))
        inner = int(rng.integers(0, min(rows, cols)))
        a = rng.integers(-3, 4, (rows, inner)) @ rng.integers(
            -3, 4, (inner, cols))
        assert exact_rank(a) < cols
        assert_same_kernel(a)
        assert fc.solve_min_norm(a.astype(float), np.zeros((rows, 1))
                                 ).nullspace.shape[1] == cols - exact_rank(a)


@pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0, 10.0])
@pytest.mark.parametrize("rows, cols", [(3, 3), (7, 4), (4, 7), (12, 6)])
@pytest.mark.parametrize("complex_field", [False, True],
                         ids=["real", "complex"])
def test_solve_kernel_at_the_rank_cutoff(factor, rows, cols, complex_field):
    # smallest singular value at factor * max(rows, cols) * eps * sigma_max,
    # where the two SVDs are most likely to count the rank differently
    rng = np.random.default_rng(47 + rows + cols)
    r = min(rows, cols)
    sigma = np.geomspace(1.0, 1e-3, r)
    sigma[-1] = factor * max(rows, cols) * np.finfo(np.float64).eps
    for _ in range(10):
        u = orthonormal_columns(rng, rows, r, complex_field)
        v = orthonormal_columns(rng, cols, r, complex_field)
        assert_same_kernel((u * sigma) @ v.conj().T)


@pytest.mark.parametrize("dtype, want", [
    (np.int8, np.float64), (np.uint64, np.float64), (np.float16, np.float64),
    (np.longdouble, np.float64), (np.complex64, np.complex128),
    (np.clongdouble, np.complex128)])
def test_as_matrix_converts_numeric_entries(dtype, want):
    m = as_matrix(np.array([[1, 0, 1], [0, 1, 1]], dtype=dtype))
    assert m.dtype == want
    assert np.array_equal(m, [[1, 0, 1], [0, 1, 1]])


@pytest.mark.parametrize("dtype", [bool, "M8[s]", "m8[s]", object, str],
                         ids=["bool", "datetime64", "timedelta64", "object",
                              "str"])
def test_as_matrix_refuses_other_entries(dtype):
    m = np.array([[1, 0, 1], [0, 1, 1]]).astype(dtype)
    with pytest.raises(fc.BadShape, match="expected numeric entries"):
        as_matrix(m)
    with pytest.raises(fc.BadShape, match="expected numeric entries"):
        fc.make_frame(m)
