import numpy as np
import pytest

import framec as fc
from framec.linalg import default_tol
from helpers import (F_1234, F_SPARSE, conditioned_frame, random_dual,
                     random_frame)

F_EX31 = np.array([[1.0, 2, 1, -1, 1], [1, 1, 0, 1, 2]])
F_TIGHT = np.array([[1.0, 1, 0, 0], [0, 0, 1, 1]])


def ex0dual_member(a, b, c, d):
    # every dual of F_1234 has this closed form
    return np.array([[a, c, -3 * a - 2 * c - 0.2, 2 * a + c + 0.4],
                     [b, d, -3 * b - 2 * d + 0.8, 2 * b + d - 0.6]])


def test_make_frame_accepts_frames():
    fr = fc.make_frame(F_EX31)
    assert (fr.n, fr.k) == (2, 5)
    assert fc.make_frame(np.eye(3)).k == 3


def test_make_frame_rejections():
    with pytest.raises(fc.NotAFrame):
        fc.make_frame([[1.0, 1], [1, 1]])
    with pytest.raises(fc.BadShape):
        fc.make_frame(np.ones((3, 2)))
    with pytest.raises(fc.NonFinite):
        fc.make_frame([[1.0, np.inf], [0, 1]])


def test_not_a_frame_is_a_bad_shape():
    assert issubclass(fc.NotAFrame, fc.BadShape)
    assert fc.NotAFrame("unmeasured").rank is None


@pytest.mark.parametrize("m, rank", [
    ([[1.0, 2], [2, 4]], 1),
    (np.zeros((2, 3)), 0),
    ([[1.0, 0], [0, 1], [0, 0]], 2),
    (np.ones((3, 2)), 1),
    # sigma_min = 1e-12 is above the eps cutoff but below tol 1e-9
    ([[1.0, 0], [0, 1e-12]], 1),
], ids=["rank-deficient", "zero", "tall", "tall-rank-deficient", "tiny"])
def test_make_frame_reports_the_rank_it_measured(m, rank):
    with pytest.raises(fc.NotAFrame) as exc:
        fc.make_frame(m)
    assert exc.value.rank == rank
    # the rank numerical_rank gives at the same tolerance
    assert exc.value.rank == fc.numerical_rank(m, default_tol(np.asarray(m)))


def test_make_frame_measures_rank_at_the_given_tolerance():
    m = [[1.0, 0], [0, 1e-12]]
    assert fc.make_frame(m, tol=1e-13).n == 2
    with pytest.raises(fc.NotAFrame) as exc:
        fc.make_frame(m, tol=1e-11)
    assert exc.value.rank == 1


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_make_frame_checks_tolerance_before_shape(tol):
    with pytest.raises(ValueError):
        fc.make_frame(np.ones((3, 2)), tol=tol)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_make_frame_rejects_tolerance_that_is_not_finite_positive(tol):
    with pytest.raises(ValueError):
        fc.make_frame(F_1234, tol=tol)


def test_frame_bounds_values():
    assert fc.frame_bounds(fc.make_frame(np.eye(2))) == fc.FrameBounds(1, 1)
    b = fc.frame_bounds(fc.make_frame(F_SPARSE))
    assert abs(b.lower - 1) <= 1e-12 and abs(b.upper - 5) <= 1e-12
    b = fc.frame_bounds(fc.make_frame(F_TIGHT))
    assert abs(b.lower - 2) <= 1e-12 and abs(b.upper - 2) <= 1e-12


def test_is_tight():
    assert fc.is_tight(fc.make_frame(np.eye(2)))
    assert fc.is_tight(fc.make_frame(F_TIGHT))
    assert not fc.is_tight(fc.make_frame(F_EX31))


def test_frame_operator():
    assert np.allclose(fc.frame_operator(fc.make_frame(np.eye(3))), np.eye(3))
    assert np.allclose(fc.frame_operator(fc.make_frame(F_1234)),
                       [[30, 20], [20, 30]])
    tight = fc.make_frame(F_TIGHT)
    assert np.allclose(fc.frame_operator(tight), 2 * np.eye(2))


def test_canonical_dual_values():
    tight = fc.make_frame(F_TIGHT)
    assert np.allclose(fc.canonical_dual(tight), F_TIGHT / 2)
    want = np.array([[0.2, 0, 0, 0.4], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert np.linalg.norm(fc.canonical_dual(fc.make_frame(F_SPARSE)) - want) \
        <= 1e-12
    assert np.allclose(fc.canonical_dual(fc.make_frame(np.eye(3))), np.eye(3))


def test_canonical_dual_is_adjoint_pseudoinverse():
    rng = np.random.default_rng(31)
    for cplx in (False, True):
        for _ in range(15):
            fr = random_frame(rng, complex_field=cplx, k_max=10)
            gap = np.linalg.norm(fc.canonical_dual(fr)
                                 - fc.pseudoinverse(fr.mat).conj().T)
            assert gap <= 1e-10


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_canonical_dual_of_an_ill_conditioned_frame_is_a_dual(cplx):
    # solving with S = F F* would square cond 1e4 to 1e8
    rng = np.random.default_rng(47)
    for n in range(2, 8):
        for _ in range(5):
            k = int(rng.integers(n + 1, 3 * n + 1))
            fr = conditioned_frame(rng, n, k, 1e4, cplx)
            assert fc.is_dual_pair(fr, fc.canonical_dual(fr)), (n, k)


def test_is_dual_pair():
    fr = fc.make_frame(F_EX31)
    g = np.array([[-1.0, 1, -3, -2, 1], [2, -1, -3, -2, 1]])  # x = y = 1
    assert fc.is_dual_pair(fr, g)
    assert fc.is_dual_pair(fr, fc.canonical_dual(fr))
    eye = fc.make_frame(np.eye(2))
    assert not fc.is_dual_pair(eye, [[1.0, 0], [0, 0]])
    with pytest.raises(fc.BadShape):
        fc.is_dual_pair(fr, np.eye(2))


def test_is_dual_pair_symmetry():
    rng = np.random.default_rng(37)
    for _ in range(10):
        fr = random_frame(rng)
        g = random_dual(rng, fr)
        assert fc.is_dual_pair(fr, g)
        assert fc.is_dual_pair(fc.make_frame(g), fr.mat)


def test_partial_dual_canonicalizes_positions():
    pd = fc.PartialDual([[1.0, 2], [3, 4]], (3, 1))
    assert pd.indices == (1, 3)
    assert np.allclose(pd.H, [[2, 1], [4, 3]])
    assert pd.s == 2
    with pytest.raises(fc.BadShape):
        fc.PartialDual([[1.0, 2], [3, 4]], (2, 2))
    with pytest.raises(fc.BadShape):
        fc.PartialDual([[1.0, 2], [3, 4]], (0,))


def test_partial_dual_rejects_non_integral_positions():
    h = [[1.0], [0.0]]
    with pytest.raises(fc.BadShape):
        fc.PartialDual(h, (0.9,))
    assert fc.PartialDual(h, (np.int64(1),)).indices == (1,)


def test_family_sample_and_contains_roundtrip():
    fr = fc.make_frame(F_1234)
    out = fc.complete_direct(fr, fc.PartialDual(np.zeros((2, 0))))
    fam = out.family
    assert np.array_equal(fc.family_sample(fam, np.zeros(fam.dof)),
                          fam.particular)
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = fc.family_sample(fam, rng.uniform(-1, 1, fam.dof))
        assert fc.is_dual_pair(fr, g)
        assert fc.family_contains(fam, g)
    with pytest.raises(fc.BadShape):
        fc.family_sample(fam, np.zeros(fam.dof + 1))


def test_family_contains_rejects_outsiders():
    fr = fc.make_frame(F_1234)
    pinned = fc.complete_direct(fr, fc.PartialDual([[1.0], [0.0]], (0,)))
    fam = pinned.family
    assert fc.family_contains(fam, fam.particular)
    # canonical dual has a different first column, so it is not in the family
    assert not fc.family_contains(fam, fc.canonical_dual(fr))
    # a non-dual matrix is rejected even if it matches the prescription
    bad = fam.particular.copy()
    bad[:, 1] += 0.3
    assert not fc.family_contains(fam, bad)


def _unconstrained_family():
    fr = fc.make_frame(F_1234)
    return fc.complete_direct(fr, fc.PartialDual(np.zeros((2, 0)))).family


# an infinite complex entry meets 0 * inf in complex products, on which
# numpy may warn of an invalid value, as it does when such a c reaches
# the member's product; the check under test is the NonFinite
_COMPLEX_INF = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning")


@pytest.mark.parametrize("bad", [
    np.nan, np.inf, -np.inf, complex(np.nan, 1),
    pytest.param(complex(np.inf, 1), marks=_COMPLEX_INF),
    pytest.param(complex(0, -np.inf), marks=_COMPLEX_INF),
])
def test_family_sample_rejects_non_finite_coefficients(bad):
    fam = _unconstrained_family()
    c = [0.5] * fam.dof
    c[-1] = bad
    with pytest.raises(fc.NonFinite):
        fc.family_sample(fam, c)


@pytest.mark.parametrize("c", [["1", "0", "0", "0"], [None] * 4,
                               [b"1", b"0", b"0", b"0"]])
def test_family_sample_rejects_non_numeric_coefficients(c):
    fam = _unconstrained_family()
    assert fam.dof == len(c)
    with pytest.raises(fc.BadShape):
        fc.family_sample(fam, c)


def test_family_sample_takes_large_finite_coefficients():
    # the squared norm of c overflows, with numpy's warning, but c and the
    # member are finite
    fam = _unconstrained_family()
    with pytest.warns(RuntimeWarning, match="overflow"):
        g = fc.family_sample(fam, [1e300, 0, 0, -1e300])
    assert np.isfinite(g).all()


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_membership_checks_reject_tolerance_that_is_not_finite_positive(tol):
    fam = _unconstrained_family()
    g = fam.particular
    with pytest.raises(ValueError):
        fc.is_dual_pair(fam.frame, g, tol)
    with pytest.raises(ValueError):
        fc.family_contains(fam, g, tol)
    assert fc.is_dual_pair(fam.frame, g, 1e-6)
    assert fc.family_contains(fam, g, 1e-6)


def test_surgery_remove_paper_example():
    fr = fc.make_frame(F_1234)
    member = ex0dual_member(0.0, 0.0, 0.7, -0.3)
    reduced, gr = fc.surgery_remove(fr, member, [0])
    assert np.allclose(reduced.mat, [[2, 3, 4], [3, 2, 1]])
    assert np.allclose(gr, member[:, 1:])
    assert fc.is_dual_pair(reduced, gr)


def test_surgery_remove_noop_and_errors():
    fr = fc.make_frame(F_1234)
    member = ex0dual_member(0.0, 0.0, 0.7, -0.3)
    same_fr, same_g = fc.surgery_remove(fr, member, [])
    assert np.array_equal(same_fr.mat, fr.mat)
    assert np.array_equal(same_g, member)
    with pytest.raises(fc.NotZeroColumn):
        fc.surgery_remove(fr, fc.canonical_dual(fr), [0])
    with pytest.raises(fc.BadShape):
        fc.surgery_remove(fr, member, [0, 0])


def test_surgery_remove_rejects_non_integral_positions():
    fr = fc.make_frame(F_1234)
    member = ex0dual_member(0.0, 0.0, 0.7, -0.3)
    with pytest.raises(fc.BadShape):
        fc.surgery_remove(fr, member, [0.9])
    reduced, _ = fc.surgery_remove(fr, member, np.array([0]))
    assert reduced.k == 3


def test_surgery_remove_leaving_too_few_columns_is_not_a_frame():
    fr = fc.make_frame(F_1234)
    with pytest.raises(fc.NotAFrame) as exc:
        fc.surgery_remove(fr, np.zeros((2, 4)), [0, 1, 2])
    assert exc.value.rank == 1


def test_surgery_remove_can_destroy_spanning_at_loose_tol():
    # the dual leans on a direction the leftover columns barely carry
    delta = 1e-4
    fr = fc.make_frame([[1.0, 0, 0], [0, delta, 1]], tol=1e-2)
    g = np.array([[1.0, 0, 0], [0, 1 / delta, 0]])
    assert fc.is_dual_pair(fr, g)
    with pytest.raises(fc.NotAFrame) as exc:
        fc.surgery_remove(fr, g, [2])
    assert exc.value.rank == 1


def test_family_members_match_prescription():
    rng = np.random.default_rng(43)
    fr = random_frame(rng, n=3, k=7)
    g_true = random_dual(rng, fr)
    idx = (1, 4)
    pd = fc.PartialDual(g_true[:, list(idx)], idx)
    out = fc.complete_direct(fr, pd)
    fam = out.family
    assert fc.family_contains(fam, g_true)
    for _ in range(5):
        g = fc.family_sample(fam, rng.uniform(-1, 1, fam.dof))
        assert fc.is_dual_pair(fr, g)
        assert np.linalg.norm(g[:, list(idx)] - pd.H) <= 1e-9
