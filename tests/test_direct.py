import numpy as np
import pytest

import framec as fc
from helpers import (F_COLLINEAR, F_HADAMARD, F_WIDE, H_HADAMARD, H_STUCK,
                     H_WIDE, ROUTES, random_dual, random_frame,
                     random_partial)

F0_BASIS = np.array([[1.0, 2], [1, 1]])
G0_BASIS = np.array([[-1.0, 1], [2, -1]])
F1_EXT = np.array([[1.0, -1, 1], [0, 1, 2]])


def ext_family_member(x, y):
    return np.array([[-1.0, 1, -3 * x, -2 * x, x],
                     [2, -1, -3 * y, -2 * y, y]])


def wide_family_member(a, b):
    return np.array([[1.0, 2, 1, (a - 1) / 2, a],
                     [3, 4, 4.5, (2 * b - 3) / 4, b]])


def kernel_condition_holds(f1, g1):
    """Oracle: range(G1*) lies in ker(F1), i.e. ||F1 G1*|| vanishes."""
    resid = np.linalg.norm(f1 @ g1.conj().T)
    return resid <= 1e-9 * max(1.0, np.linalg.norm(f1) * np.linalg.norm(g1))


class TestKernelCondition:
    # [G0 G1] stays a dual of [F0 F1] exactly when F1 G1* = 0, so the
    # extensions extend_dual_pair describes are the blocks G1 that pass
    def test_holds_for_kernel_aligned_rows(self):
        g1 = np.array([[-3.0, -2, 1], [-6, -4, 2]])
        assert kernel_condition_holds(F1_EXT, g1)
        out = fc.extend_dual_pair(fc.make_frame(F0_BASIS), G0_BASIS, F1_EXT)
        assert fc.family_contains(out.family, np.hstack([G0_BASIS, g1]))

    def test_zero_block_always_passes(self):
        out = fc.extend_dual_pair(fc.make_frame(F0_BASIS), G0_BASIS, F1_EXT)
        assert np.array_equal(out.family.particular,
                              np.hstack([G0_BASIS, np.zeros((2, 3))]))

    def test_fails_off_kernel(self):
        assert not kernel_condition_holds(np.eye(2), np.eye(2))
        f0 = fc.make_frame(F0_BASIS)
        out = fc.extend_dual_pair(f0, G0_BASIS, np.eye(2))
        assert isinstance(out, fc.Unique)
        assert np.array_equal(out.G, np.hstack([G0_BASIS, np.zeros((2, 2))]))

    def test_shape_mismatch(self):
        with pytest.raises(fc.BadShape):
            fc.extend_dual_pair(fc.make_frame(F0_BASIS), G0_BASIS,
                                np.zeros((3, 2)))

    def test_extension_dual_iff_condition_holds(self):
        # duality of [G0 G1] is decided exactly by the kernel test on the
        # added block; odd trials construct G1 inside null(F1), even trials
        # draw it freely (essentially never aligned)
        rng = np.random.default_rng(211)
        verdicts = {True: 0, False: 0}
        for trial in range(40):
            fr0 = random_frame(rng, k_max=6)
            g0 = random_dual(rng, fr0)
            f1 = rng.uniform(-2.0, 2.0, (fr0.n, 3))
            if trial % 2:
                _, _, vh = np.linalg.svd(f1)
                null_rows = vh[np.linalg.matrix_rank(f1):, :]
                g1 = rng.uniform(-2.0, 2.0,
                                 (fr0.n, null_rows.shape[0])) @ null_rows
            else:
                g1 = rng.uniform(-2.0, 2.0, (fr0.n, 3))
            fr = fc.make_frame(np.hstack([fr0.mat, f1]))
            holds = kernel_condition_holds(f1, g1)
            assert fc.is_dual_pair(fr, np.hstack([g0, g1])) == holds
            verdicts[holds] += 1
        assert min(verdicts.values()) >= 10


class TestExtendDualPair:
    def test_family_with_dependent_new_columns(self):
        f0 = fc.make_frame(F0_BASIS)
        out = fc.extend_dual_pair(f0, G0_BASIS, F1_EXT)
        assert isinstance(out, fc.Family)
        fam = out.family
        assert fam.dof == 2
        assert np.allclose(fam.particular[:, :2], G0_BASIS)
        for x, y in [(0.0, 0.0), (1.0, 1.0), (2.0, -3.0)]:
            assert fc.family_contains(fam, ext_family_member(x, y))

    def test_new_rows_live_in_added_kernel(self):
        f0 = fc.make_frame(F0_BASIS)
        fam = fc.extend_dual_pair(f0, G0_BASIS, F1_EXT).family
        direction = np.array([-3.0, -2, 1]) / np.linalg.norm([-3.0, -2, 1])
        assert fam.directions.shape == (1, 5)
        assert np.linalg.norm(fam.directions[:, :2]) == 0
        for row in fam.directions[:, 2:]:
            assert abs(np.linalg.norm(row) - abs(row @ direction)) <= 1e-12

    def test_independent_new_columns_force_zero(self):
        f0 = fc.make_frame(np.array([[1.0, 1], [1, -1]]))
        out = fc.extend_dual_pair(f0, H_HADAMARD, np.eye(2))
        assert isinstance(out, fc.Unique)
        assert np.allclose(out.G, np.hstack([H_HADAMARD, np.zeros((2, 2))]))

    def test_not_dual_pair(self):
        f0 = fc.make_frame(F0_BASIS)
        with pytest.raises(fc.NotDualPair):
            fc.extend_dual_pair(f0, np.eye(2), F1_EXT)

    def test_random_extensions_stay_dual(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            fr0 = random_frame(rng, k_max=5)
            g0 = random_dual(rng, fr0)
            f1 = rng.uniform(-2, 2, (fr0.n, 3))
            out = fc.extend_dual_pair(fr0, g0, f1)
            fr = fc.make_frame(np.hstack([fr0.mat, f1]))
            if isinstance(out, fc.Unique):
                assert fc.is_dual_pair(fr, out.G)
            else:
                g = fc.family_sample(out.family, rng.uniform(-1, 1,
                                                             out.family.dof))
                assert fc.is_dual_pair(fr, g)


def same_row_space(a, b, tol=1e-9):
    """Whether the rows of a and of b span the same space."""
    ra, rb = np.linalg.matrix_rank(a, tol), np.linalg.matrix_rank(b, tol)
    return ra == rb == np.linalg.matrix_rank(np.vstack([a, b]), tol)


class TestExtendIsDirectCompletion:
    # extending (F0, G0) by F1 is the direct completion of [F0 F1] with G0
    # prescribed at the leading positions
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_matches_direct_on_combined_frame(self, complex_field):
        rng = np.random.default_rng(223 + complex_field)
        kinds = set()
        for _ in range(20):
            fr0 = random_frame(rng, k_max=6, complex_field=complex_field)
            g0 = random_dual(rng, fr0)
            f1 = rng.uniform(-2.0, 2.0, (fr0.n, int(rng.integers(1, 5))))
            if complex_field:
                f1 = f1 + 1j * rng.uniform(-2.0, 2.0, f1.shape)
            out = fc.extend_dual_pair(fr0, g0, f1)
            ref = fc.complete_direct(
                fc.make_frame(np.hstack([fr0.mat, f1])),
                fc.PartialDual(g0, tuple(range(fr0.k))))
            assert type(out) is type(ref)
            kinds.add(type(out))
            zero_block = np.hstack([g0, np.zeros((fr0.n, f1.shape[1]))])
            if isinstance(out, fc.Unique):
                assert np.linalg.norm(out.G - zero_block) <= 1e-12
                continue
            fam = out.family
            assert fam.dof == ref.family.dof
            assert same_row_space(fam.directions, ref.family.directions)
            # the directions are [0 | N*] for a kernel basis N of F1
            _, sv, vh = np.linalg.svd(f1)
            kernel = vh[np.count_nonzero(sv > 1e-12):, :]
            assert same_row_space(
                fam.directions,
                np.hstack([np.zeros((kernel.shape[0], fr0.k)), kernel]))
            assert np.linalg.norm(fam.particular - zero_block) <= 1e-12
        assert kinds == {fc.Unique, fc.Family}


class TestCompleteDirect:
    def test_no_completion_certificate(self):
        fr = fc.make_frame(F_COLLINEAR)
        out = fc.complete_direct(fr, fc.PartialDual(H_STUCK, (0, 1)))
        assert isinstance(out, fc.NoCompletion)
        cert = out.certificate
        assert cert.rank_free == 1
        assert cert.rank_augmented == 2
        assert cert.projector_residual > 1e-6

    def test_rank_free_is_rank_of_free_columns(self):
        # the certificate reads rank_free off the solve's kernel; it must
        # equal the rank of the free frame columns
        rng = np.random.default_rng(227)
        seen = 0
        for trial in range(60):
            fr = random_frame(rng, n=int(rng.integers(2, 5)), k_max=8,
                              complex_field=bool(trial % 2))
            if trial % 3 == 0:  # collinear free columns: a rank drop
                m = fr.mat.copy()
                m[:, -1] = 2.0 * m[:, -2]
                fr = fc.make_frame(m)
            pd = random_partial(rng, fr, s=int(rng.integers(1, fr.k)))
            out = fc.complete_direct(fr, pd)
            if not isinstance(out, fc.NoCompletion):
                continue
            free = np.delete(fr.mat, list(pd.indices), axis=1)
            assert out.certificate.rank_free == fc.numerical_rank(free)
            assert out.certificate.rank_free < out.certificate.rank_augmented
            seen += 1
        assert seen >= 20

    def test_family_matches_closed_form(self):
        fr = fc.make_frame(F_WIDE)
        out = fc.complete_direct(fr, fc.PartialDual(H_WIDE, (0, 1, 2)))
        fam = out.family
        assert fam.dof == 2
        for a, b in [(0.0, 0.0), (1.0, 1.5), (-2.0, 7.0)]:
            assert fc.family_contains(fam, wide_family_member(a, b))

    def test_empty_prescription_particular_is_canonical(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            fr = random_frame(rng)
            fam = fc.complete_direct(fr, fc.PartialDual(
                np.zeros((fr.n, 0)))).family
            assert fam.dof == fr.n * (fr.k - fr.n)
            gap = np.linalg.norm(fam.particular - fc.canonical_dual(fr))
            assert gap <= 1e-10

    def test_full_prescription(self):
        fr = fc.make_frame(F_COLLINEAR)
        g = fc.canonical_dual(fr)
        out = fc.complete_direct(fr, fc.PartialDual(g, tuple(range(fr.k))))
        # all of G prescribed and consistent, nothing left to choose
        assert isinstance(out, fc.Unique)
        assert np.allclose(out.G, g)
        out = fc.complete_direct(
            fr, fc.PartialDual(g + 0.5, tuple(range(fr.k))))
        assert isinstance(out, fc.NoCompletion)

    def test_arbitrary_positions_land_where_asked(self):
        rng = np.random.default_rng(61)
        fr = random_frame(rng, n=2, k=6)
        g_true = random_dual(rng, fr)
        idx = (0, 3, 5)
        pd = fc.PartialDual(g_true[:, list(idx)], idx)
        out = fc.complete_direct(fr, pd)
        fam = out.family
        for trial in range(5):
            g = fc.family_sample(fam, rng.uniform(-1, 1, fam.dof))
            assert fc.is_dual_pair(fr, g)
            assert np.linalg.norm(g[:, list(idx)] - pd.H) <= 1e-9

    def test_free_columns_frame_guarantees_family(self):
        # once the unprescribed columns span, any H completes with slack
        rng = np.random.default_rng(67)
        for _ in range(20):
            fr = random_frame(rng, n=2, k=6)
            s = int(rng.integers(1, fr.k - fr.n))
            pd = random_partial(rng, fr, s=s)
            free = np.delete(fr.mat, list(pd.indices), axis=1)
            if fc.numerical_rank(free) < fr.n:
                continue
            out = fc.complete_direct(fr, pd)
            assert isinstance(out, fc.Family)
            assert out.family.dof >= 1

    def test_particular_is_min_norm_on_free_block(self):
        rng = np.random.default_rng(71)
        fr = random_frame(rng, n=2, k=5)
        pd = random_partial(rng, fr, s=1)
        out = fc.complete_direct(fr, pd)
        fam = out.family
        base = np.linalg.norm(fam.particular)
        for _ in range(100):
            g = fc.family_sample(fam, rng.uniform(-1, 1, fam.dof))
            assert base <= np.linalg.norm(g) + 1e-9

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_moving_the_positions_permutes_the_answer(self, complex_field):
        # perm keeps the prescribed and the free columns each in their
        # own order, so the solve sees the same system and only the
        # realization moves the columns of the answer
        rng = np.random.default_rng(73 + complex_field)
        for s in range(8):
            fr = random_frame(rng, n=3, k=7, complex_field=complex_field)
            pd = random_partial(rng, fr, s=s, from_dual=random_dual(rng, fr))
            moved = tuple(sorted(rng.choice(fr.k, size=s, replace=False)))
            every = np.arange(fr.k)
            perm = np.empty(fr.k, dtype=int)
            perm[list(moved)] = pd.indices
            perm[np.delete(every, moved)] = np.delete(every, pd.indices)
            want = fc.complete_direct(fr, pd)
            got = fc.complete_direct(fc.make_frame(fr.mat[:, perm]),
                                     fc.PartialDual(pd.H, moved))
            assert type(got) is type(want)
            if isinstance(want, fc.Unique):
                pairs = [(got.G, want.G)]
            else:
                pairs = [(got.family.particular, want.family.particular),
                         (got.family.directions, want.family.directions)]
            for a, b in pairs:
                assert a.tobytes() == b[:, perm].tobytes()


class TestScaled:
    def test_weights_validation(self):
        w = fc.Weights((1, 0))
        assert w.w == (1.0, 0.0)
        assert all(type(x) is float for x in w.w)

    def test_complex_weights_are_refused(self):
        for x in (2 + 1j, np.complex128(2 + 1j), 1e-300j):
            with pytest.raises(fc.MixedField):
                fc.Weights((1.0, x))
        w = fc.Weights((np.complex128(2 + 0j), 3 + 0j))
        assert w.w == (2.0, 3.0)
        assert all(type(x) is float for x in w.w)

    def test_trivial_and_scaled_hadamard(self):
        fr = fc.make_frame(F_HADAMARD)
        pd = fc.PartialDual(H_HADAMARD, (0, 1))
        out = fc.complete_direct(fr, pd)
        assert isinstance(out, fc.Unique)
        assert np.allclose(out.G, np.hstack([H_HADAMARD, np.zeros((2, 2))]))
        for x, y in [(2.0, 2.0), (1.0, -1.0), (0.25, 3.0)]:
            scaled = fc.complete_direct_scaled(fr, pd, fc.Weights((x, y)))
            assert isinstance(scaled, fc.Unique)
            m = 1 - (x + y) / 2
            d = (y - x) / 2
            want = np.array([[0.5 * x, 0.5 * y, m, d],
                             [0.5 * x, -0.5 * y, d, m]])
            assert np.linalg.norm(scaled.G - want) <= 1e-12

    def test_unit_weights_match_unscaled(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            fr = random_frame(rng)
            pd = random_partial(rng, fr)
            plain = fc.complete_direct(fr, pd)
            scaled = fc.complete_direct_scaled(
                fr, pd, fc.Weights(np.ones(pd.s)))
            assert type(plain) is type(scaled)
            if isinstance(plain, fc.Unique):
                assert np.allclose(plain.G, scaled.G)
            elif isinstance(plain, fc.Family):
                assert plain.family.dof == scaled.family.dof
                assert np.allclose(plain.family.particular,
                                   scaled.family.particular)

    def test_scaled_members_interpolate_prescription(self):
        fr = fc.make_frame(F_COLLINEAR)
        w = fc.Weights((-2.75, -2.5))
        out = fc.complete_direct_scaled(fr, fc.PartialDual(H_STUCK, (0, 1)), w)
        assert isinstance(out, fc.Family)
        g = out.family.particular
        assert np.allclose(g[:, :2], H_STUCK * np.array(w.w))
        assert fc.is_dual_pair(fr, g)


class TestSolveWeights:
    def test_recovers_feasible_scaling(self):
        fr = fc.make_frame(F_COLLINEAR)
        pd = fc.PartialDual(H_STUCK, (0, 1))
        assert isinstance(fc.complete_direct(fr, pd), fc.NoCompletion)
        w = fc.solve_weights(fr, pd)
        assert w is not None
        assert np.allclose(w.w, (-2.75, -2.5))
        out = fc.complete_direct_scaled(fr, pd, w)
        assert isinstance(out, fc.Family)

    def test_feasible_instance_returns_some_scaling(self):
        fr = fc.make_frame(F_HADAMARD)
        w = fc.solve_weights(fr, fc.PartialDual(H_HADAMARD, (0, 1)))
        assert w is not None
        out = fc.complete_direct_scaled(fr, fc.PartialDual(H_HADAMARD, (0, 1)),
                                        w)
        assert not isinstance(out, fc.NoCompletion)

    def test_infeasible_returns_none(self):
        # both prescribed columns are multiples of e1, but matching the
        # leftover rank-one span needs a component no scaling can produce
        fr = fc.make_frame(F_COLLINEAR)
        w = fc.solve_weights(fr, fc.PartialDual([[1.0, 1], [0, 0]], (0, 1)))
        assert w is None

    def test_solved_weights_always_complete(self):
        rng = np.random.default_rng(79)
        hits = 0
        for _ in range(30):
            fr = random_frame(rng, n=2, k=4)
            pd = random_partial(rng, fr, s=2)
            w = fc.solve_weights(fr, pd)
            if w is None:
                continue
            hits += 1
            for route in ROUTES:
                out = route(fr, pd.scaled(w.w))
                assert not isinstance(out, fc.NoCompletion)
        assert hits >= 20

    def test_complex_frame_gets_real_weights(self):
        # H = G[:, idx] / w for a dual G and real w, so some real scaling
        # completes it; the complex system is solved in real coordinates
        rng = np.random.default_rng(83)
        for _ in range(10):
            fr = random_frame(rng, n=2, k=4, complex_field=True)
            g = random_dual(rng, fr)
            w_true = rng.uniform(0.5, 2.0, 3)
            pd = fc.PartialDual(g[:, :3] / w_true, (0, 1, 2))
            w = fc.solve_weights(fr, pd)
            assert w is not None
            assert all(isinstance(x, float) for x in w.w)
            for route in ROUTES:
                out = route(fr, pd.scaled(w.w))
                assert not isinstance(out, fc.NoCompletion), route.__name__
