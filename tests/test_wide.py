"""The wide path: kernel rows in compact-WY form when k >> n.

linalg._is_wide picks the path from a matrix's shape alone.  These tests
force it both ways on the same inputs: the two paths must reach the same
decision, the same family and the same span of directions, and the WY
kernel rows must agree with their dense form in every product a route
asks of them.
"""

import tracemalloc

import numpy as np
import pytest

import framec as fc
from framec import _complete, linalg
from framec.linalg import KernelRows
from helpers import ROUTES, conditioned_instance

VERDICTS = ("family", "unique", "none")
KINDS = {"family": fc.Family, "unique": fc.Unique, "none": fc.NoCompletion}


def force_wide(monkeypatch, wide):
    monkeypatch.setattr(linalg, "_is_wide", lambda rows, cols: wide)


def row_projector(w):
    """Orthogonal projector onto the row space of w."""
    q = np.linalg.qr(w.conj().T)[0]
    return q @ q.conj().T


def instance(k, n, verdict, complex_field, seed=0):
    rng = np.random.default_rng([seed, k, n, VERDICTS.index(verdict),
                                 complex_field])
    s = {"family": n // 2, "unique": k - n, "none": k - n + 2}[verdict]
    return conditioned_instance(rng, n, k, s, 10.0, verdict, complex_field)


@pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.__name__)
@pytest.mark.parametrize("complex_field", [False, True],
                         ids=["real", "complex"])
@pytest.mark.parametrize("verdict", VERDICTS)
@pytest.mark.parametrize("k, n", [(150, 3), (300, 6)])
def test_both_paths_give_one_answer(monkeypatch, route, complex_field,
                                    verdict, k, n):
    fr, pd = instance(k, n, verdict, complex_field)
    outs = []
    for wide in (True, False):
        force_wide(monkeypatch, wide)
        outs.append(route(fr, pd))
    wide_out, dense_out = outs
    assert type(wide_out) is type(dense_out) is KINDS[verdict]
    if verdict == "unique":
        assert np.linalg.norm(wide_out.G - dense_out.G) \
            <= 1e-12 * np.linalg.norm(dense_out.G)
    if verdict == "none":
        a, b = wide_out.certificate, dense_out.certificate
        assert (a.rank_free, a.rank_augmented) \
            == (b.rank_free, b.rank_augmented)
    if verdict != "family":
        return
    fa, fb = wide_out.family, dense_out.family
    assert fa.dof == fb.dof == n * (k - pd.s - n)
    assert fc.is_dual_pair(fr, fa.particular)
    assert fc.family_contains(fb, fa.particular)
    gap = np.linalg.norm(row_projector(fa.directions)
                         - row_projector(fb.directions), 2)
    assert gap <= 1e-10
    w = fa.directions
    assert np.abs(fr.mat @ w.conj().T).max() <= 1e-12
    assert np.abs(w[:, list(pd.indices)]).max() <= 1e-12
    if route is not fc.complete_via_product:
        assert np.abs(w @ w.conj().T - np.eye(w.shape[0])).max() <= 1e-12


@pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.__name__)
def test_real_frame_with_complex_prescription(monkeypatch, route):
    # a complex dual of a real frame: the reduced system is complex, and
    # the real frame's V2* meets complex kernel rows
    fr, pd = instance(300, 4, "family", False)
    rng = np.random.default_rng(67)
    z = rng.standard_normal((4, 300)) + 1j * rng.standard_normal((4, 300))
    g = fc.canonical_dual(fr) + z - z @ np.linalg.pinv(fr.mat) @ fr.mat
    pd = fc.PartialDual(g[:, list(pd.indices)], pd.indices)
    fams = []
    for wide in (True, False):
        force_wide(monkeypatch, wide)
        fams.append(route(fr, pd).family)
    assert fams[0].directions.dtype == np.complex128
    assert fams[0].dof == fams[1].dof == 4 * (300 - pd.s - 4)
    assert fc.family_contains(fams[1], fams[0].particular)
    assert np.linalg.norm(row_projector(fams[0].directions)
                          - row_projector(fams[1].directions), 2) <= 1e-10


def random_rows(rng, m, q, complex_field=False):
    """m x q orthonormal rows."""
    z = rng.standard_normal((q, m))
    if complex_field:
        z = z + 1j * rng.standard_normal((q, m))
    return np.linalg.qr(z)[0].conj().T


def assert_completes(vh, rows):
    """rows complete vh's orthonormal rows to a unitary matrix."""
    full = np.vstack([vh, rows])
    q = vh.shape[1]
    assert full.shape == (q, q)
    assert np.abs(full @ full.conj().T - np.eye(q)).max() <= 1e-13


@pytest.mark.parametrize("complex_field", [False, True],
                         ids=["real", "complex"])
def test_kernel_rows_products_match_their_dense_form(complex_field):
    rng = np.random.default_rng(71 + complex_field)
    m, q, k = 5, 40, 47
    vh = random_rows(rng, m, q, complex_field)
    wy = KernelRows.complement(vh)
    r = wy.dense()
    assert wy.shape == r.shape == (q - m, q)
    assert_completes(vh, r)
    dense = KernelRows(r)
    idx = np.array([0, 3, m, q - 1, 17])
    x = rng.standard_normal((3, q - m))
    if complex_field:
        x = x + 1j * rng.standard_normal(x.shape)
    y = rng.standard_normal((q - 2, 4))
    at = rng.permutation(k)[:q - 2]
    placed = np.zeros((q - m, k), dtype=r.dtype)
    placed[:, at] = r[:, :q - 2]
    for rows in (wy, dense):
        assert np.allclose(rows.columns(idx), r[:, idx], atol=1e-14)
        assert np.allclose(rows.left(x), x @ r, atol=1e-13)
        assert np.allclose(rows.right(y), r[:, :q - 2] @ y, atol=1e-13)
        assert np.allclose(rows.placed(at, k), placed, atol=1e-14)
    # rows of rows: a kernel of q - m unknowns in either form
    inner_vh = random_rows(rng, 2, q - m, complex_field)
    inner = KernelRows.complement(inner_vh)
    want = inner.dense() @ r
    for outer in (wy, dense):
        for x in (inner, KernelRows(inner.dense())):
            assert np.allclose(outer.left(x), want, atol=1e-13)


def test_complement_of_coordinate_rows():
    # a coordinate vector needs no reflector: LAPACK's tau is 0 there
    q = 300
    vh = np.zeros((3, q))
    vh[0, 0] = 1
    vh[1, 1] = -1
    vh[2, 7] = 1
    _, tau = np.linalg.qr(vh.T, mode="raw")
    assert (tau == 0).any()
    rows = KernelRows.complement(vh).dense()
    assert np.isfinite(rows).all()
    assert_completes(vh, rows)
    # mixed with general rows
    rng = np.random.default_rng(73)
    vh = np.vstack([np.eye(1, q), random_rows(rng, 2, q)])
    vh[1:] -= (vh[1:] @ vh[0])[:, None] * vh[0]
    vh[1:] = np.linalg.qr(vh[1:].T)[0].T
    assert_completes(vh, KernelRows.complement(vh).dense())


def test_complement_of_complex_rows():
    rng = np.random.default_rng(79)
    vh = random_rows(rng, 6, 280, complex_field=True)
    rows = KernelRows.complement(vh).dense()
    assert rows.dtype == np.complex128
    assert_completes(vh, rows)


@pytest.mark.parametrize("complex_field", [False, True],
                         ids=["real", "complex"])
def test_rank_deficient_wide_solve(monkeypatch, complex_field):
    # rank 3 of 6 rows: three rows of the thin V* have sigma = 0 and
    # belong to the kernel, so the complement is taken of the other three
    rng = np.random.default_rng(83)
    b, c = rng.standard_normal((6, 3)), rng.standard_normal((3, 300))
    if complex_field:
        c = c + 1j * rng.standard_normal((3, 300))
    a = b @ c
    rhs = a @ rng.standard_normal((300, 2))
    sols = []
    for wide in (True, False):
        force_wide(monkeypatch, wide)
        sols.append(fc.solve_min_norm(a, rhs))
    lin, ref = sols
    assert lin.consistent and ref.consistent
    assert lin.kernel.shape == ref.kernel.shape == (297, 300)
    assert np.linalg.norm(lin.solution - ref.solution) \
        <= 1e-12 * np.linalg.norm(ref.solution)
    ns = lin.nullspace
    assert np.abs(a @ ns).max() <= 1e-12 * np.abs(a).max()
    assert np.abs(ns.conj().T @ ns - np.eye(297)).max() <= 1e-13
    gap = np.linalg.norm(row_projector(ns.conj().T)
                         - row_projector(ref.nullspace.conj().T), 2)
    assert gap <= 1e-10
    force_wide(monkeypatch, True)
    assert np.array_equal(fc.nullspace_basis(a), ns)


@pytest.mark.parametrize("shape", [(2, 0), (0, 3), (0, 0), (0, 300)])
def test_empty_system_takes_no_svd_on_either_path(monkeypatch, svd_calls,
                                                  shape):
    for wide in (True, False):
        force_wide(monkeypatch, wide)
        lin = fc.solve_min_norm(np.zeros(shape), np.zeros((shape[0], 1)))
        assert np.array_equal(lin.nullspace, np.eye(shape[1]))
    assert svd_calls[0] == 0


def test_lone_column_rule_on_the_wy_form(monkeypatch):
    # frame vector 0 is independent of the others, so every dual has the
    # same column 0; prescribing it leaves V2*[:, 0] rounding of zero,
    # which the SVD route must zero on the WY rows as on dense ones
    rng = np.random.default_rng(89)
    n, k = 4, 300
    m = rng.standard_normal((n, k))
    m[0, 1:] = 0
    m[0, 0] = 2.0
    fr = fc.make_frame(m)
    pd = fc.PartialDual(fc.canonical_dual(fr)[:, [0]], (0,))
    fired = []
    lone = _complete._lone_columns

    def spy(*args):
        out = lone(*args)
        fired.append(out)
        return out
    monkeypatch.setattr(_complete, "_lone_columns", spy)
    dofs = []
    for wide in (True, False):
        force_wide(monkeypatch, wide)
        out = fc.complete_via_svd(fr, pd)
        assert isinstance(out, fc.Family)
        w = out.family.directions
        assert not w[:, 0].any()
        assert np.abs(w @ w.conj().T - np.eye(w.shape[0])).max() <= 1e-12
        assert fc.is_dual_pair(fr, out.family.particular)
        dofs.append(out.family.dof)
    assert fired == [[0], [0]]
    assert dofs[0] == dofs[1] == fc.complete_direct(fr, pd).family.dof \
        == n * (k - n)


def test_svd_and_dual_param_take_the_wide_path(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def spy(a, full_matrices=True, **kwargs):
        calls.append(full_matrices)
        return svd(a, full_matrices=full_matrices, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", spy)
    rng = np.random.default_rng(97)
    m = rng.standard_normal((4, 300)) + 1j * rng.standard_normal((4, 300))
    fac = fc.svd(m)
    assert calls == [False]
    assert fac.U.shape == (4, 4) and fac.sigma.shape == (4,)
    assert fac.vh.shape == (300, 300)
    assert np.linalg.norm(fac.U @ fac.sigma_matrix() @ fac.vh - m) \
        <= 1e-12 * np.linalg.norm(m)
    assert np.abs(fac.vh @ fac.V - np.eye(300)).max() <= 1e-13
    fr = fc.make_frame(m)
    calls.clear()
    dp = fc.dual_param(fr, np.zeros((4, 296)))
    assert calls == [False]
    assert np.allclose(fc.dual_from_X(dp), fc.canonical_dual(fr), atol=1e-13)


@pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.__name__)
def test_wide_routes_allocate_little_more_than_the_answer(route):
    # at (8, 400, 4) the answer, particular plus W, is about 1.27 MB; a
    # k x k temporary is another 1.28 MB
    fr, pd = instance(400, 8, "family", False)
    assert pd.s == 4
    route(fr, pd)
    tracemalloc.start()
    try:
        out = route(fr, pd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fam = out.family
    answer = fam.particular.nbytes + fam.directions.nbytes
    assert peak <= 2.5 * answer
