"""The factored family contract: particular + C @ directions.

Every route and extend_dual_pair returns a SolutionFamily whose basis is
a view of n * d matrices built from the d x k direction rows.  The
oracles here are the dense forms: the explicit sum over the basis, the
least-squares test on the nk x nd matrix of raveled basis elements, and
the row-by-row Gauss-Jordan loop.
"""

import dataclasses

import numpy as np
import pytest

import framec as fc
from helpers import ROUTES, random_dual, random_frame, random_partial


def route_name(route):
    """direct, product or svd: the last word of the route's name."""
    return route.__name__.rsplit("_", 1)[-1]


def _families():
    rng = np.random.default_rng(211)
    out = {}
    for field in ("real", "complex"):
        fr = random_frame(rng, n=3, k=8, complex_field=field == "complex")
        pd = random_partial(rng, fr, s=2, from_dual=random_dual(rng, fr))
        for route in ROUTES:
            res = route(fr, pd)
            assert isinstance(res, fc.Family)
            out[f"{route_name(route)}-{field}"] = res.family
        f0 = random_frame(rng, n=2, k=3, complex_field=field == "complex")
        res = fc.extend_dual_pair(f0, random_dual(rng, f0),
                                  rng.standard_normal((2, 4)))
        assert isinstance(res, fc.Family)
        out[f"extend-{field}"] = res.family
    return out


FAMILIES = _families()
NAMES = sorted(FAMILIES)


def _coefficients(rng, fam):
    c = rng.uniform(-1, 1, fam.dof)
    if np.iscomplexobj(fam.particular):
        c = c + 1j * rng.uniform(-1, 1, fam.dof)
    return c


def dense_contains(fam, g, tol=None):
    """Membership by least squares on the nk x nd raveled basis."""
    f = fam.frame
    tol = f.tol if tol is None else tol
    if not fc.is_dual_pair(f, g, tol):
        return False
    pd = fam.prescribed
    want = pd.H
    if np.linalg.norm(g[:, list(pd.indices)] - want) \
            > tol * max(1.0, np.linalg.norm(want)):
        return False
    diff = g - fam.particular
    span = np.column_stack([b.ravel() for b in fam.basis])
    coef, *_ = np.linalg.lstsq(span, diff.ravel(), rcond=None)
    resid = float(np.linalg.norm(span @ coef - diff.ravel()))
    return resid <= tol * max(1.0, float(np.linalg.norm(diff)))


def eliminate_loop(fstar):
    """Gauss-Jordan with partial pivoting, one row update at a time."""
    work = np.array(fstar, dtype=np.result_type(fstar, float))
    k, n = work.shape
    p = np.eye(k, dtype=work.dtype)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(work[col:, col])))
        work[[col, piv]] = work[[piv, col]]
        p[[col, piv]] = p[[piv, col]]
        scale = 1.0 / work[col, col]
        work[col] *= scale
        p[col] *= scale
        for row in range(k):
            if row != col and work[row, col] != 0:
                factor = work[row, col]
                work[row] -= factor * work[col]
                p[row] -= factor * p[col]
    return p


@pytest.mark.parametrize("name", NAMES)
def test_basis_length_is_dof(name):
    fam = FAMILIES[name]
    d, k = fam.directions.shape
    assert k == fam.frame.k
    assert len(fam.basis) == fam.dof == fam.frame.n * d > 0


@pytest.mark.parametrize("name", NAMES)
def test_basis_elements_are_rows_of_directions(name):
    fam = FAMILIES[name]
    n, basis = fam.frame.n, fam.basis
    for j in range(fam.dof):
        i, row = divmod(j, n)
        want = np.zeros((n, fam.frame.k), dtype=fam.directions.dtype)
        want[row] = fam.directions[i]
        b = basis[np.int64(j)]
        assert np.array_equal(b, want)
        assert np.array_equal(basis[j - fam.dof], want)
        # each element is a homogeneous direction of the family
        assert np.linalg.norm(fam.frame.mat @ b.conj().T) <= 1e-9
        assert np.linalg.norm(b[:, list(fam.prescribed.indices)]) <= 1e-9


@pytest.mark.parametrize("name", NAMES)
def test_basis_index_out_of_range(name):
    fam = FAMILIES[name]
    for j in (fam.dof, -fam.dof - 1, np.int32(fam.dof)):
        with pytest.raises(IndexError):
            fam.basis[j]
    with pytest.raises(TypeError):
        fam.basis[1.0]
    assert len(list(fam.basis)) == fam.dof


@pytest.mark.parametrize("name", NAMES)
def test_family_sample_is_the_explicit_sum(name):
    fam = FAMILIES[name]
    rng = np.random.default_rng(223)
    for _ in range(3):
        c = _coefficients(rng, fam)
        want = fam.particular + sum(cj * bj for cj, bj in zip(c, fam.basis))
        assert np.allclose(fc.family_sample(fam, c), want, atol=1e-12)


@pytest.mark.parametrize("name", NAMES)
def test_family_contains_matches_dense_least_squares(name):
    fam = FAMILIES[name]
    rng = np.random.default_rng(227)
    member = fc.family_sample(fam, _coefficients(rng, fam))
    assert fc.family_contains(fam, member) and dense_contains(fam, member)
    # a dual of the frame that drops the prescription is outside
    other = random_dual(rng, fam.frame)
    assert not fc.family_contains(fam, other)
    assert not dense_contains(fam, other)
    # without its last direction the family misses members that use it
    sub = dataclasses.replace(fam, directions=fam.directions[:-1])
    outside = fam.particular.copy()
    outside[0] += fam.directions[-1]
    inside = fc.family_sample(sub, _coefficients(rng, sub))
    for g, want in ((outside, False), (inside, True)):
        assert fc.family_contains(sub, g) is want
        assert dense_contains(sub, g) is want


@pytest.mark.parametrize("name", NAMES)
def test_family_arrays_are_c_contiguous(name):
    # un-permuting must not leave column-major arrays behind: the
    # products in family_sample and family_contains run slower on them
    fam = FAMILIES[name]
    assert fam.particular.flags["C_CONTIGUOUS"]
    assert fam.directions.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("route", ROUTES[::2], ids=route_name)
@pytest.mark.parametrize("complex_field", [False, True])
def test_particular_is_min_norm_member(route, complex_field):
    # the direct and svd particulars are orthogonal to every direction;
    # the product route's [I A] P with minimum-norm A is not
    rng = np.random.default_rng(223 + complex_field)
    for _ in range(10):
        fr = random_frame(rng, n=3, k=8, complex_field=complex_field)
        s = int(rng.integers(1, fr.k - fr.n))
        pd = random_partial(rng, fr, s=s, from_dual=random_dual(rng, fr))
        fam = route(fr, pd).family
        base = np.linalg.norm(fam.particular)
        cross = np.linalg.norm(fam.particular @ fam.directions.conj().T)
        assert cross <= 1e-9 * base * np.linalg.norm(fam.directions)
        for _ in range(20):
            c = rng.uniform(-1, 1, fam.dof)
            if complex_field:
                c = c + 1j * rng.uniform(-1, 1, fam.dof)
            assert base <= np.linalg.norm(fc.family_sample(fam, c)) + 1e-9


def test_product_directions_are_not_orthonormal():
    # the membership test must not assume orthonormal direction rows
    w = FAMILIES["product-real"].directions
    assert np.linalg.norm(w @ w.conj().T - np.eye(w.shape[0])) > 1e-3


@pytest.mark.parametrize("k,n,complex_field", [(400, 4, False),
                                               (120, 8, False),
                                               (60, 5, True)])
def test_eliminate_matches_row_loop(k, n, complex_field):
    rng = np.random.default_rng(229)
    fstar = rng.standard_normal((k, n))
    if complex_field:
        fstar = fstar + 1j * rng.standard_normal((k, n))
    elim = fc.eliminate_with_product(fstar)
    assert np.allclose(elim.P, eliminate_loop(fstar), atol=1e-12)
    target = np.vstack([np.eye(n), np.zeros((k - n, n))])
    assert np.linalg.norm(elim.P @ fstar - target) <= 1e-9
