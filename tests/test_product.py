import itertools

import numpy as np
import pytest

import framec as fc
from framec import _complete
from framec._complete import _complete_over_rows
from helpers import (F_1234, F_COLLINEAR, F_HADAMARD, F_SPARSE, F_WIDE,
                     G_TRIPLE, H_HADAMARD, H_STUCK, H_TRIPLE, H_WIDE, KINDS,
                     ROUTES, conditioned_frame, conditioned_instance, random_dual,
                     random_frame, random_partial)

P_SPARSE = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0],
                     [0, 0, 1, 0], [-2, 0, 0, 1]])

P_1234 = np.array([[-3.0, 4, 0, 0], [2, -1, 0, 0],
                   [5, -10, 5, 0], [10, -15, 0, 5]]) / 5


def wide_family_member(a, b):
    return np.array([[1.0, 2, 1, (a - 1) / 2, a],
                     [3, 4, 4.5, (2 * b - 3) / 4, b]])


P_WIDE_ELIM = fc.eliminate_with_product(fc.adjoint(F_WIDE))


class TestDualFromA:
    def test_zero_choice_takes_top_rows(self):
        g = fc.dual_from_A(P_1234, np.zeros((2, 2)))
        assert np.array_equal(g, P_1234[:2, :])
        assert fc.is_dual_pair(fc.make_frame(F_1234), g)

    def test_recovers_pinned_triple(self):
        a = np.array([[-0.5], [-0.5], [-1.5]])
        g = fc.dual_from_A(P_SPARSE, a)
        assert np.linalg.norm(g - G_TRIPLE) <= 1e-12

    def test_exhaustive_small_grid_all_dual_all_distinct(self):
        fr = fc.make_frame(F_1234)
        seen = set()
        for entries in itertools.product((-1.0, 0.0, 1.0), repeat=4):
            a = np.array(entries).reshape(2, 2)
            g = fc.dual_from_A(P_1234, a)
            assert fc.dual_residual(fr, g) <= 1e-12
            seen.add(np.round(g, 9).tobytes())
        assert len(seen) == 81

    def test_choice_injectivity_bound(self):
        rng = np.random.default_rng(83)
        sigma = np.linalg.svd(P_1234[2:, :], compute_uv=False)[-1]
        assert sigma > 0
        for _ in range(20):
            a1 = rng.uniform(-3, 3, (2, 2))
            a2 = rng.uniform(-3, 3, (2, 2))
            gap = np.linalg.norm(fc.dual_from_A(P_1234, a1)
                                 - fc.dual_from_A(P_1234, a2))
            assert gap >= sigma * np.linalg.norm(a1 - a2) - 1e-12

    def test_shape_checks(self):
        with pytest.raises(fc.BadShape):
            fc.dual_from_A(P_1234, np.zeros((2, 3)))
        with pytest.raises(fc.BadShape):
            fc.dual_from_A(P_1234[:3, :], np.zeros((2, 1)))


class TestCompleteViaProduct:
    def test_overdetermined_prescription_unique(self):
        fr = fc.make_frame(F_SPARSE)
        out = fc.complete_via_product(fr, fc.PartialDual(H_TRIPLE, (0, 1)))
        assert isinstance(out, fc.Unique)
        assert np.linalg.norm(out.G - G_TRIPLE) <= 1e-12

    def test_no_completion_certificate(self):
        fr = fc.make_frame(F_COLLINEAR)
        out = fc.complete_via_product(fr, fc.PartialDual(H_STUCK, (0, 1)))
        assert isinstance(out, fc.NoCompletion)
        assert out.certificate.rank_free == 1
        assert out.certificate.rank_augmented == 2

    def test_family_matches_closed_form(self):
        fr = fc.make_frame(F_WIDE)
        out = fc.complete_via_product(fr, fc.PartialDual(H_WIDE, (0, 1, 2)))
        fam = out.family
        assert fam.dof == 2
        for a, b in [(0.0, 0.0), (1.0, 1.5), (-2.0, 7.0)]:
            assert fc.family_contains(fam, wide_family_member(a, b))

    def test_the_route_takes_no_elimination(self):
        fr = fc.make_frame(F_1234)
        with pytest.raises(TypeError):
            fc.complete_via_product(fr, fc.PartialDual(np.zeros((2, 0))),
                                    elimination=fc.Elimination(P_1234, 0.0))

    def test_verdict_invariant_under_elimination_choice(self):
        # left-multiplying by [[I, B], [0, M]] yields another valid reduction
        rng = np.random.default_rng(89)
        fr = fc.make_frame(F_WIDE)
        pd = fc.PartialDual(H_WIDE, (0, 1, 2))
        base = fc.complete_via_product(fr, pd)
        n, k = fr.n, fr.k
        for _ in range(5):
            mix = np.eye(k)
            mix[:n, n:] = rng.uniform(-2, 2, (n, k - n))
            mix[n:, n:] = np.linalg.qr(rng.uniform(-2, 2,
                                                   (k - n, k - n)))[0]
            p2 = mix @ P_WIDE_ELIM.P
            assert np.linalg.norm(
                p2 @ fr.mat.conj().T - np.eye(k)[:, :n]) <= 1e-10
            alt = _complete_over_rows(fr, pd, p2[:n], p2[n:])
            assert isinstance(alt, fc.Family)
            assert alt.family.dof == base.family.dof
            g = fc.family_sample(alt.family, rng.uniform(-1, 1,
                                                         alt.family.dof))
            assert fc.family_contains(base.family, g)

    def test_agrees_with_direct_on_random_instances(self):
        rng = np.random.default_rng(97)
        for _ in range(25):
            fr = random_frame(rng)
            pd = random_partial(rng, fr)
            a = fc.complete_direct(fr, pd)
            b = fc.complete_via_product(fr, pd)
            assert type(a) is type(b)
            if isinstance(a, fc.Family):
                assert a.family.dof == b.family.dof
                g = fc.family_sample(b.family,
                                     rng.uniform(-1, 1, b.family.dof))
                assert fc.family_contains(a.family, g)
            elif isinstance(a, fc.Unique):
                assert np.linalg.norm(a.G - b.G) <= 1e-8 * max(
                    1.0, np.linalg.norm(a.G))


class TestRankZeroShortcut:
    # prescribing positions (1, 2) of F_SPARSE gives P_bl = 0: the
    # prescription cannot touch A, so it is either forced or infeasible
    def setup_method(self):
        self.fr = fc.make_frame(F_SPARSE)

    def test_blocks_qualify(self):
        # the route's own P: its bottom rows vanish at positions 1 and 2
        elim = fc.eliminate_with_product(fc.adjoint(self.fr.mat))
        assert np.linalg.norm(elim.P[self.fr.n:, [1, 2]]) <= 1e-12

    def test_consistent_prescription_frees_everything(self):
        # every dual of this frame carries e2 and e3 at those positions
        pd = fc.PartialDual([[0.0, 0], [1, 0], [0, 1]], (1, 2))
        for route in (fc.complete_direct, fc.complete_via_product):
            out = route(self.fr, pd)
            assert isinstance(out, fc.Family)
            assert out.family.dof == self.fr.n * (self.fr.k - self.fr.n)
            assert fc.family_contains(out.family, fc.canonical_dual(self.fr))

    def test_svd_route_frees_everything(self):
        pd = fc.PartialDual([[0.0, 0], [1, 0], [0, 1]], (1, 2))
        out = fc.complete_via_svd(self.fr, pd)
        assert isinstance(out, fc.Family)
        assert out.family.dof == self.fr.n * (self.fr.k - self.fr.n)

    def test_inconsistent_prescription_fails_fast(self):
        pd = fc.PartialDual([[0.1, 0], [1, 0], [0, 1]], (1, 2))
        outs = {route: route(self.fr, pd) for route in ROUTES}
        for out in outs.values():
            assert isinstance(out, fc.NoCompletion)
            cert = out.certificate
            assert cert.rank_free < cert.rank_augmented
        # P_bl = 0: the product route's reduced system has rank 0
        cert = outs[fc.complete_via_product].certificate
        assert cert.rank_free == 0
        assert cert.rank_augmented == 1


class TestScaledProduct:
    # weighted completion is every route run on pd.scaled(w)
    def test_matches_scaled_direct(self):
        fr = fc.make_frame(F_COLLINEAR)
        pd = fc.PartialDual(H_STUCK, (0, 1))
        w = fc.Weights((-2.75, -2.5))
        a = fc.complete_direct_scaled(fr, pd, w)
        b = fc.complete_via_product(fr, pd.scaled(w.w))
        assert isinstance(b, fc.Family)
        assert a.family.dof == b.family.dof
        rng = np.random.default_rng(101)
        g = fc.family_sample(b.family, rng.uniform(-1, 1, b.family.dof))
        assert fc.family_contains(a.family, g)
        assert np.allclose(g[:, :2], H_STUCK * np.array(w.w))

    def test_unit_weights_match_unscaled(self):
        fr = fc.make_frame(F_WIDE)
        pd = fc.PartialDual(H_WIDE, (0, 1, 2))
        for route in ROUTES:
            plain = route(fr, pd).family
            unit = route(fr, pd.scaled((1.0, 1.0, 1.0))).family
            assert unit.dof == plain.dof
            assert np.allclose(unit.particular, plain.particular)
            for coeffs in (np.zeros(plain.dof), np.array([1.0, -2.0])):
                assert fc.family_contains(plain,
                                          fc.family_sample(unit, coeffs))

    def test_doubled_weights_rescue_hadamard_extension(self):
        fr = fc.make_frame(F_HADAMARD)
        pd = fc.PartialDual(H_HADAMARD, (0, 1)).scaled((2.0, 2.0))
        # free block solves I*G1' = I - F0 W H* by hand
        want = np.array([[1.0, 1, -1, 0], [1, -1, 0, -1]])
        for route in ROUTES:
            out = route(fr, pd)
            assert isinstance(out, fc.Unique)
            assert np.linalg.norm(out.G - want) <= 1e-12
            assert fc.is_dual_pair(fr, out.G)

    def test_zero_weight_prescribes_zero_column(self):
        fr = fc.make_frame(F_HADAMARD)
        pd = fc.PartialDual(H_HADAMARD, (0, 1)).scaled((0.0, 2.0))
        want = np.array([[0.0, 1, 0, 1], [0, -1, 1, 0]])
        for route in ROUTES:
            out = route(fr, pd)
            assert isinstance(out, fc.Unique)
            assert np.linalg.norm(out.G - want) <= 1e-12

    def test_infeasible_weights_agree_with_direct(self):
        fr = fc.make_frame(F_COLLINEAR)
        pd = fc.PartialDual(H_STUCK, (0, 1))
        w = fc.Weights((2.0, 3.0))
        a = fc.complete_direct_scaled(fr, pd, w)
        assert isinstance(a, fc.NoCompletion)
        outs = {route: route(fr, pd.scaled(w.w)) for route in ROUTES}
        for b in outs.values():
            assert isinstance(b, fc.NoCompletion)
            assert b.certificate.rank_free < b.certificate.rank_augmented
        b = outs[fc.complete_via_product]
        assert a.certificate.rank_free == b.certificate.rank_free
        assert a.certificate.rank_augmented == b.certificate.rank_augmented


class TestLeadingBlockOracle:
    # two-phase check: fit A on the first k-n prescribed columns alone,
    # then audit the leftover column; the joint solve must reach the same
    # verdict whenever phase one pins A down
    def test_matches_joint_solver(self):
        rng = np.random.default_rng(223)
        verdicts = {True: 0, False: 0}
        for trial in range(30):
            fr = random_frame(rng, n=2, k=4)
            p = fc.eliminate_with_product(fc.adjoint(fr.mat)).P
            if trial % 2:
                h = fc.dual_from_A(p, rng.uniform(-2.0, 2.0, (2, 2)))[:, :3]
            else:
                h = rng.uniform(-2.0, 2.0, (2, 3))
            x = p[2:, :2]
            if np.linalg.cond(x) > 1e6:
                continue
            a = np.linalg.solve(x.T, (h[:, :2] - p[:2, :2]).T).T
            leftover = np.linalg.norm(p[:2, 2] + a @ p[2:, 2] - h[:, 2])
            feasible = leftover <= 1e-8 * max(1.0, np.linalg.norm(h))
            out = fc.complete_via_product(fr, fc.PartialDual(h, (0, 1, 2)))
            assert isinstance(out, fc.NoCompletion) == (not feasible)
            if feasible:
                assert isinstance(out, fc.Unique)
                gap = np.linalg.norm(out.G - fc.dual_from_A(p, a))
                assert gap <= 1e-8 * max(1.0, np.linalg.norm(out.G))
            verdicts[feasible] += 1
        assert min(verdicts.values()) >= 10


def eliminate_dense(fstar):
    """Reference Gauss-Jordan that updates all k columns of P per pivot."""
    work = np.array(fstar, order="C")
    k, n = work.shape
    p = np.eye(k, dtype=work.dtype)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(work[col:, col])))
        if piv != col:
            work[[col, piv]] = work[[piv, col]]
            p[[col, piv]] = p[[piv, col]]
        scale = 1.0 / work[col, col]
        work[col] *= scale
        p[col] *= scale
        factors = work[:, col].copy()
        factors[col] = 0
        work -= factors[:, None] * work[col]
        p -= factors[:, None] * p[col]
    return p


def assert_agrees_with_generic(fr, out, generic):
    """out matches the generic row step's outcome by framec complete's rule.

    The route solves a smaller system than the generic one, so the two
    agree within rounding, not bit for bit.  The projector residual is
    left out: the generic least squares can split its error between the
    pinned and the pivot equations, and the route meets the pinned ones
    exactly.
    """
    assert type(out) is type(generic)
    if isinstance(out, fc.Unique):
        assert fc.is_dual_pair(fr, out.G)
        assert np.linalg.norm(out.G - generic.G) <= 1e-8 * max(
            1.0, np.linalg.norm(generic.G))
    elif isinstance(out, fc.Family):
        assert out.family.dof == generic.family.dof
        assert fc.family_contains(out.family, generic.family.particular)
        assert fc.family_contains(generic.family, out.family.particular)
    else:
        assert out.certificate.rank_free == generic.certificate.rank_free
        assert out.certificate.rank_augmented \
            == generic.certificate.rank_augmented


@pytest.mark.parametrize("complex_field", [False, True],
                         ids=["real", "complex"])
@pytest.mark.parametrize("k,n", [(24, 8), (60, 20), (400, 8)])
@pytest.mark.parametrize("cond", [1.0, 1e2, 1e4])
def test_elimination_is_the_dense_loop_bit_for_bit(k, n, cond,
                                                   complex_field):
    # the k x 2n pivot-block loop must reproduce the k x k update exactly:
    # an equally valid but different P can flip a near-threshold verdict
    rng = np.random.default_rng(233)
    fr = conditioned_frame(rng, n, k, cond, complex_field)
    fstar = fc.adjoint(fr.mat)
    elim = fc.eliminate_with_product(fstar)
    p = eliminate_dense(fstar)
    assert np.array_equal(elim.P, p)
    target = np.eye(k, n)
    assert elim.residual == float(np.linalg.norm(p @ fstar - target))

    g = fc.canonical_dual(fr)
    noise = rng.standard_normal(g.shape)
    kinds = []
    # one P of the frame in its own column order serves every prescription
    for s, eps in ((n, 0.0), (k - n, 0.0), (k - n + 1, 1e-3)):
        idx = tuple(sorted(rng.choice(k, size=s, replace=False).tolist()))
        h = g[:, list(idx)] + eps * noise[:, :s]
        pd = fc.PartialDual(h, idx)
        out = fc.complete_via_product(fr, pd)
        assert_agrees_with_generic(fr, out,
                                   _complete_over_rows(fr, pd, p[:n], p[n:]))
        kinds.append(type(out))
    assert kinds == [fc.Family, fc.Unique, fc.NoCompletion]


@pytest.mark.parametrize("complex_field", [False, True],
                         ids=["real", "complex"])
def test_one_elimination_serves_every_prescription(complex_field):
    # P row-reduces F* in the frame's own column order, so it does not
    # depend on where the prescribed columns sit
    rng = np.random.default_rng(239 + complex_field)
    fr = random_frame(rng, n=3, k=7, complex_field=complex_field)
    elim = fc.eliminate_with_product(fc.adjoint(fr.mat))
    g = random_dual(rng, fr)
    cases = [((1, 5), fc.Family), ((1, 3, 4, 6), fc.Unique),
             ((0, 2, 3, 5, 6), fc.NoCompletion)]
    for idx, kind in cases:
        h = g[:, list(idx)]
        if kind is fc.NoCompletion:
            h = h + rng.uniform(-1.0, 1.0, h.shape)
        pd = fc.PartialDual(h, idx)
        out = fc.complete_via_product(fr, pd)
        assert isinstance(out, kind)
        assert_agrees_with_generic(
            fr, out, _complete_over_rows(fr, pd, elim.P[:fr.n],
                                         elim.P[fr.n:]))


@pytest.mark.parametrize("eps", [0.9e-9, 0.6e-9, 0.51e-9])
def test_routes_agree_when_a_pivot_is_below_tol(eps):
    # sigma = [1, 2 eps] clears tol 1e-9, but the product route's second
    # pivot eps does not: it must take the rank check, not raise
    fr = fc.make_frame([[1.0, 0, 0, 0, 0], [0, eps, eps, eps, eps]])
    assert fr.tol == 1e-9
    g = fc.canonical_dual(fr)
    for idx, dof in (((), 6), ((0,), 6), ((1, 2), 2)):
        pd = fc.PartialDual(g[:, list(idx)], idx)
        for route in ROUTES:
            out = route(fr, pd)
            assert isinstance(out, fc.Family)
            assert out.family.dof == dof
            g_route = out.family.particular
            assert fc.is_dual_pair(fr, g_route)
            assert np.linalg.norm(g_route[:, list(idx)] - pd.H) \
                <= fr.tol * max(1.0, np.linalg.norm(pd.H))


@pytest.mark.parametrize("s,verdict", [(396, "unique"), (4, "family")])
def test_the_route_solves_only_the_prescribed_pivot_columns(monkeypatch, s,
                                                            verdict):
    # a prescribed non-pivot column pins a column of A, so the system has
    # one row per prescribed pivot column and no column for a pinned one;
    # when both kinds are prescribed and a column of A is left free, one
    # more row and column carry the full system's scale
    rng = np.random.default_rng(241)
    n, k = 8, 400
    fr, pd = conditioned_instance(rng, n, k, s, 10.0, verdict)
    shapes = []
    solve = _complete.solve_min_norm

    def recording(a, c, tol=None):
        shapes.append(a.shape)
        return solve(a, c, tol=tol)

    monkeypatch.setattr(_complete, "solve_min_norm", recording)
    out = fc.complete_via_product(fr, pd)
    assert isinstance(out, KINDS[verdict])
    order = fc.eliminate_with_product(fc.adjoint(fr.mat), tol=fr.tol).order
    at_pivot = int(np.isin(pd.indices, order[:n]).sum())
    free = k - n - (s - at_pivot)
    scale = int(0 < at_pivot < s and free > 0)
    assert shapes == [(at_pivot + scale, free + scale)]


@pytest.mark.parametrize("complex_field", [False, True],
                         ids=["real", "complex"])
def test_agrees_with_direct_when_k_is_much_larger_than_n(complex_field):
    # s close to k leaves the product route a system of at most n rows
    rng = np.random.default_rng(251 + complex_field)
    for s, verdict in ((396, "unique"), (396, "none"), (4, "family")):
        fr, pd = conditioned_instance(rng, 8, 400, s, 10.0, verdict,
                                      complex_field)
        a = fc.complete_direct(fr, pd)
        b = fc.complete_via_product(fr, pd)
        assert type(a) is type(b) is KINDS[verdict]
        if isinstance(a, fc.Unique):
            assert np.linalg.norm(a.G - b.G) <= 1e-8 * max(
                1.0, np.linalg.norm(a.G))
        elif isinstance(a, fc.Family):
            assert a.family.dof == b.family.dof
            assert fc.family_contains(a.family, b.family.particular)


@pytest.mark.parametrize("complex_field", [False, True],
                         ids=["real", "complex"])
def test_a_pivot_vector_parallel_to_a_prescribed_one(complex_field):
    # f2 is parallel to f0 and f3 to f1, so prescribing both vectors of a
    # pair leaves the pivot column's free part pure rounding: the route
    # must judge it at the full system's scale, not at its own, and find
    # the family (on the dual) or no completion (off it) as direct does
    rng = np.random.default_rng(257 + complex_field)
    for _ in range(8):
        z = rng.standard_normal((2, 2))
        if complex_field:
            z = z + 1j * rng.standard_normal((2, 2))
        q = np.linalg.qr(z)[0]
        fr = fc.make_frame(q @ np.array([[2.0, 0, 1, 0], [0, 3, 0, 1]]))
        g = fc.canonical_dual(fr)
        for idx in ((0, 2), (1, 3)):
            for shift in (0.0, 1e-3):
                pd = fc.PartialDual(g[:, list(idx)] + shift, idx)
                a = fc.complete_direct(fr, pd)
                b = fc.complete_via_product(fr, pd)
                assert type(a) is type(b)
                if isinstance(a, fc.Family):
                    assert a.family.dof == b.family.dof == 2
                    assert fc.family_contains(a.family, b.family.particular)
                else:
                    assert isinstance(a, fc.NoCompletion)
