import dataclasses
import itertools

import numpy as np
import pytest

import framec as fc
from framec._complete import _complete_over_rows
from helpers import (F_COLLINEAR, F_SPARSE, F_WIDE, G_TRIPLE, H_STUCK,
                     H_TRIPLE, H_WIDE, ROUTES, random_dual, random_frame,
                     random_partial)


def sparse_dual(s, t, w):
    # closed form for every dual of F_SPARSE, one parameter per row
    r5 = np.sqrt(5)
    return np.array([[1 - 2 * r5 * s, 0, 0, r5 * s + 2],
                     [-2 * r5 * w, 5, 0, r5 * w],
                     [-2 * r5 * t, 0, 5, r5 * t]]) / 5


class TestDualFromX:
    def test_zero_choice_is_canonical(self):
        fr = fc.make_frame(F_SPARSE)
        g = fc.dual_from_X(fc.dual_param(fr, np.zeros((3, 1))))
        want = np.array([[0.2, 0, 0, 0.4], [0, 1, 0, 0], [0, 0, 1, 0]])
        assert np.linalg.norm(g - want) <= 1e-12
        assert np.linalg.norm(g - sparse_dual(0, 0, 0)) <= 1e-12

    def test_basis_leaves_no_choice(self):
        fr = fc.make_frame(np.eye(3))
        g = fc.dual_from_X(fc.dual_param(fr, np.zeros((3, 0))))
        assert np.allclose(g, np.eye(3))

    def test_zero_choice_is_canonical_random(self):
        rng = np.random.default_rng(103)
        for cplx in (False, True):
            for _ in range(10):
                fr = random_frame(rng, complex_field=cplx)
                dp = fc.dual_param(fr, np.zeros((fr.n, fr.k - fr.n)))
                gap = np.linalg.norm(fc.dual_from_X(dp)
                                     - fc.canonical_dual(fr))
                assert gap <= 1e-10

    def test_random_choices_are_duals(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            fr = random_frame(rng, complex_field=bool(rng.integers(2)))
            x = rng.uniform(-3, 3, (fr.n, fr.k - fr.n))
            if np.iscomplexobj(fr.mat):
                x = x + 1j * rng.uniform(-3, 3, x.shape)
            g = fc.dual_from_X(fc.dual_param(fr, x))
            assert fc.dual_residual(fr, g) <= 1e-9 * max(
                1.0, np.linalg.norm(g))

    def test_closed_form_members_are_duals(self):
        fr = fc.make_frame(F_SPARSE)
        for s, t, w in itertools.product((-1.0, 0.0, 2.5), repeat=3):
            assert fc.dual_residual(fr, sparse_dual(s, t, w)) <= 1e-12

    def test_bad_choice_shape(self):
        fr = fc.make_frame(F_SPARSE)
        with pytest.raises(fc.BadShape):
            fc.dual_param(fr, np.zeros((3, 2)))

    def test_realize_checks_x_against_the_factors(self):
        dp = fc.dual_param(fc.make_frame(F_SPARSE), np.zeros((3, 1)))
        with pytest.raises(fc.BadShape, match="X must be 3 x 1"):
            fc.dual_from_X(dataclasses.replace(dp, X=np.zeros((3, 2))))

    def test_sigma_comes_only_from_the_factors(self):
        # no stored copy of 1/sigma can contradict the factors
        assert [f.name for f in dataclasses.fields(fc.DualParam)] \
            == ["factors", "X"]


class TestCompleteViaSvd:
    def test_overdetermined_prescription_unique(self):
        fr = fc.make_frame(F_SPARSE)
        out = fc.complete_via_svd(fr, fc.PartialDual(H_TRIPLE, (0, 1)))
        assert isinstance(out, fc.Unique)
        assert np.linalg.norm(out.G - G_TRIPLE) <= 1e-9
        # the same dual sits in the closed-form sheet at these parameters
        r5 = np.sqrt(5)
        locate = sparse_dual(-9 / (2 * r5), -15 / (2 * r5), -5 / (2 * r5))
        assert np.linalg.norm(locate - G_TRIPLE) <= 1e-12

    def test_no_completion_certificate(self):
        fr = fc.make_frame(F_COLLINEAR)
        out = fc.complete_via_svd(fr, fc.PartialDual(H_STUCK, (0, 1)))
        assert isinstance(out, fc.NoCompletion)
        assert out.certificate.rank_free == 1
        assert out.certificate.rank_augmented == 2

    def test_family_matches_closed_form(self):
        fr = fc.make_frame(F_WIDE)
        out = fc.complete_via_svd(fr, fc.PartialDual(H_WIDE, (0, 1, 2)))
        fam = out.family
        assert fam.dof == 2
        for a, b in [(0.0, 0.0), (1.0, 1.5), (-2.0, 7.0)]:
            g = np.array([[1.0, 2, 1, (a - 1) / 2, a],
                          [3, 4, 4.5, (2 * b - 3) / 4, b]])
            assert fc.family_contains(fam, g)

    def test_accepts_every_true_dual_in_full(self):
        # prescribing all k columns of a known dual must come back unique
        rng = np.random.default_rng(109)
        for _ in range(15):
            fr = random_frame(rng)
            g = random_dual(rng, fr)
            out = fc.complete_via_svd(
                fr, fc.PartialDual(g, tuple(range(fr.k))))
            assert isinstance(out, fc.Unique)
            assert np.linalg.norm(out.G - g) <= 1e-8 * max(
                1.0, np.linalg.norm(g))

    def test_accepts_product_route_duals_in_full(self):
        # duals realized through the elimination parametrization must be
        # reachable here too
        rng = np.random.default_rng(139)
        for _ in range(10):
            fr = random_frame(rng)
            p = fc.eliminate_with_product(fc.adjoint(fr.mat)).P
            a = rng.uniform(-2.0, 2.0, (fr.n, fr.k - fr.n))
            g = fc.dual_from_A(p, a)
            out = fc.complete_via_svd(
                fr, fc.PartialDual(g, tuple(range(fr.k))))
            assert isinstance(out, fc.Unique)
            assert np.linalg.norm(out.G - g) <= 1e-8 * max(
                1.0, np.linalg.norm(g))

    def test_canonical_prefix_particular_is_canonical(self):
        rng = np.random.default_rng(113)
        for _ in range(10):
            fr = random_frame(rng, n=2, k=6)
            s = int(rng.integers(1, 4))
            canon = fc.canonical_dual(fr)
            out = fc.complete_via_svd(
                fr, fc.PartialDual(canon[:, :s], tuple(range(s))))
            assert isinstance(out, fc.Family)
            gap = np.linalg.norm(out.family.particular - canon)
            assert gap <= 1e-9 * max(1.0, np.linalg.norm(canon))

    def test_cross_containment_with_product_family(self):
        rng = np.random.default_rng(127)
        fr = fc.make_frame(F_WIDE)
        pd = fc.PartialDual(H_WIDE, (0, 1, 2))
        via_svd = fc.complete_via_svd(fr, pd).family
        via_product = fc.complete_via_product(fr, pd).family
        assert via_svd.dof == via_product.dof
        for _ in range(5):
            coeffs = rng.uniform(-1, 1, via_svd.dof)
            assert fc.family_contains(via_product,
                                      fc.family_sample(via_svd, coeffs))
            assert fc.family_contains(via_svd,
                                      fc.family_sample(via_product, coeffs))

    def test_agrees_with_direct_on_random_instances(self):
        rng = np.random.default_rng(131)
        for _ in range(25):
            fr = random_frame(rng)
            pd = random_partial(rng, fr)
            a = fc.complete_direct(fr, pd)
            b = fc.complete_via_svd(fr, pd)
            assert type(a) is type(b)
            if isinstance(a, fc.Family):
                assert a.family.dof == b.family.dof
                g = fc.family_sample(b.family,
                                     rng.uniform(-1, 1, b.family.dof))
                assert fc.family_contains(a.family, g)
            elif isinstance(a, fc.Unique):
                assert np.linalg.norm(a.G - b.G) <= 1e-8 * max(
                    1.0, np.linalg.norm(a.G))


def svd_elimination(fr):
    """P_svd = blockdiag(U Sigma^-1, I) V* of the frame as given."""
    fac = fc.svd(fr.mat)
    left = np.eye(fr.k, dtype=fac.U.dtype)
    left[:fr.n, :fr.n] = fac.U / fac.sigma
    p = left @ fac.vh
    target = np.eye(fr.k, fr.n)
    return fc.Elimination(p, float(np.linalg.norm(p @ fc.adjoint(fr.mat)
                                                  - target)))


class TestSvdIsProductRoute:
    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("verdict", ["family", "unique", "none"])
    def test_p_svd_elimination_gives_the_svd_outcome(self, complex_field,
                                                      verdict):
        rng = np.random.default_rng(149 + complex_field)
        for _ in range(8):
            fr = random_frame(rng, n=3, k=7, complex_field=complex_field)
            if verdict == "none":
                pd = random_partial(rng, fr, s=fr.k)
            else:
                s = 2 if verdict == "family" else fr.k - fr.n
                pd = random_partial(rng, fr, s=s,
                                    from_dual=random_dual(rng, fr))
            elim = svd_elimination(fr)
            assert elim.residual <= 1e-10
            via_p = _complete_over_rows(fr, pd, elim.P[:fr.n],
                                        elim.P[fr.n:])
            via_svd = fc.complete_via_svd(fr, pd)
            assert type(via_p) is type(via_svd)
            assert type(via_svd).__name__ == {
                "family": "Family", "unique": "Unique",
                "none": "NoCompletion"}[verdict]
            if verdict == "unique":
                gap = np.linalg.norm(via_p.G - via_svd.G)
                assert gap <= 1e-10 * np.linalg.norm(via_svd.G)
            elif verdict == "family":
                a, b = via_p.family, via_svd.family
                assert a.dof == b.dof
                for _ in range(3):
                    c = rng.uniform(-1, 1, a.dof)
                    assert fc.family_contains(b, fc.family_sample(a, c))
                    assert fc.family_contains(a, fc.family_sample(b, c))


@pytest.mark.parametrize("route", ROUTES)
def test_every_route_rejects_prescriptions_that_do_not_fit(route,
                                                           monkeypatch):
    # before it factors F: an elimination or SVD would be wasted
    fr = fc.make_frame(F_SPARSE)

    def factor(*args, **kwargs):
        raise AssertionError("F was factored before the prescription "
                             "was checked")

    monkeypatch.setattr("framec.product.eliminate_with_product", factor)
    monkeypatch.setattr(np.linalg, "svd", factor)
    for pd in (fc.PartialDual(np.ones((3, 5))),          # s > k
               fc.PartialDual(np.ones((3, 1)), (4,)),    # position >= k
               fc.PartialDual(np.ones((2, 1)), (0,))):   # rows != n
        with pytest.raises(fc.BadShape):
            route(fr, pd)


def outcome_contains(out, g) -> bool:
    """Whether g is one of the duals a completion outcome describes."""
    if isinstance(out, fc.Unique):
        return np.linalg.norm(out.G - g) <= 1e-9 * max(1.0, np.linalg.norm(g))
    if isinstance(out, fc.Family):
        return fc.family_contains(out.family, g)
    return False


class TestCanonicalPrefix:
    # columns taken from the canonical dual (the X = 0 branch) keep it
    # completable on every route; perturbed columns exclude it
    def test_detects_canonical_columns(self):
        fr = fc.make_frame(F_SPARSE)
        canon = fc.canonical_dual(fr)
        for pd in (fc.PartialDual(canon[:, :2], (0, 1)),
                   fc.PartialDual(np.zeros((3, 0)))):
            for route in ROUTES:
                assert outcome_contains(route(fr, pd), canon)

    def test_rejects_perturbed_columns(self):
        fr = fc.make_frame(F_SPARSE)
        canon = fc.canonical_dual(fr)
        h = canon[:, :2].copy()
        h[0, 0] += 1e-3
        for route in ROUTES:
            assert not outcome_contains(route(fr, fc.PartialDual(h, (0, 1))),
                                        canon)

    def test_interior_positions(self):
        rng = np.random.default_rng(137)
        fr = random_frame(rng, n=3, k=6)
        canon = fc.canonical_dual(fr)
        idx = (1, 4)
        pd = fc.PartialDual(canon[:, list(idx)], idx)
        off = fc.PartialDual(canon[:, list(idx)] + 0.01, idx)
        for route in ROUTES:
            assert outcome_contains(route(fr, pd), canon)
            assert not outcome_contains(route(fr, off), canon)
