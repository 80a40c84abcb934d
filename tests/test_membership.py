"""Family membership: a projection where the direction rows are
orthonormal, least squares everywhere else, and the same answers.

The direct and SVD routes build W with orthonormal rows, so
family_contains tests the span by ||D - (D W*) W|| with D = g -
particular and factors nothing.  The product route's W, and a W with a
repeated row, keep the least squares.  lstsq_contains below is the
least-squares rule family_contains applied to every W before the
projection path existed; the answers must be its answers.
"""

import dataclasses
import time
from collections import Counter

import numpy as np
import pytest

import framec as fc
from helpers import (ROUTES, conditioned_instance, dense_contains,
                     known_verdict_instances)

# relative sizes of the moves around a member; the thresholds sit near
# 1e-9, the default tolerance of these frames
SIZES = (1e-12, 1e-10, 1e-9, 1e-8, 1e-6)


def lstsq_contains(fam, g, tol=None):
    """family_contains by least squares on the k x d system W^T, always."""
    g = np.asarray(g)
    f = fam.frame
    tol = f.tol if tol is None else tol
    if not fc.is_dual_pair(f, g, tol):
        return False
    pd = fam.prescribed
    if pd.s:
        want = pd.H
        got = g[:, list(pd.indices)]
        if np.linalg.norm(got - want) > tol * max(1.0, np.linalg.norm(want)):
            return False
    diff = g - fam.particular
    if not fam.dof:
        return float(np.linalg.norm(diff)) <= tol * max(
            1.0, float(np.linalg.norm(fam.particular)))
    wt = fam.directions.T
    rcond = np.finfo(np.float64).eps * f.n * f.k
    coef, *_ = np.linalg.lstsq(wt, diff.T, rcond=rcond)
    resid = float(np.linalg.norm(wt @ coef - diff.T))
    return resid <= tol * max(1.0, float(np.linalg.norm(diff)))


def _draw(rng, shape, like):
    z = rng.uniform(-1.0, 1.0, shape)
    if np.iscomplexobj(like):
        z = z + 1j * rng.uniform(-1.0, 1.0, shape)
    return z


def _member(rng, fam):
    return fc.family_sample(fam, _draw(rng, fam.dof, fam.directions))


def _cases(rng, fam):
    """(family, g) pairs on both sides of each membership threshold.

    A member moved at random, in the family and in a copy whose W repeats
    its first row (same span, not orthonormal); and, for the sub-family
    without the last direction, a member moved along that direction,
    which keeps the dual equation and the prescription and leaves only
    the span test to decide.
    """
    w = fam.directions
    member = _member(rng, fam)
    e = _draw(rng, member.shape, member)
    e *= np.linalg.norm(member) / np.linalg.norm(e)
    repeated = dataclasses.replace(fam, directions=np.vstack([w, w[:1]]))
    for f in (fam, repeated):
        yield f, member
        for r in SIZES:
            yield f, member + r * e
    sub = dataclasses.replace(fam, directions=w[:-1])
    inside = _member(rng, sub)
    away = np.zeros_like(member)
    away[0] = w[-1] * np.linalg.norm(inside)
    yield sub, inside
    for r in SIZES + (1.0,):
        yield sub, inside + r * away


@pytest.mark.parametrize("cond", [1e1, 1e2, 1e3, 1e4])
def test_membership_answers_are_the_least_squares_answers(cond):
    rng = np.random.default_rng(17)
    answers = Counter()
    for verdict, _, fr, pd in known_verdict_instances(cond):
        if verdict != "family":
            continue
        for route in ROUTES:
            out = route(fr, pd)
            if not isinstance(out, fc.Family):
                continue    # a wrong verdict; see test_route_agreement.py
            for fam, g in _cases(rng, out.family):
                want = lstsq_contains(fam, g)
                assert fc.family_contains(fam, g) is want, route.__name__
                # the dense nk x nd oracle, on the routes' own families
                if cond == 1e1 and fam is out.family:
                    assert dense_contains(fam, g) is want, route.__name__
                answers[want] += 1
    assert answers[True] > 1000 and answers[False] > 1000


def _family(route, complex_field, n=5, k=14, s=3):
    rng = np.random.default_rng(19 + complex_field)
    fr, pd = conditioned_instance(rng, n, k, s, 10.0, "family", complex_field)
    fam = route(fr, pd).family
    return fam, _member(rng, fam)


def _refuse(*args, **kwargs):
    raise AssertionError("membership factorized a matrix")


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("route", [fc.complete_direct, fc.complete_via_svd])
def test_orthonormal_directions_take_no_factorization(route, complex_field,
                                                      monkeypatch):
    fam, member = _family(route, complex_field)
    sub = dataclasses.replace(fam, directions=fam.directions[:-1])
    outside = sub.particular.copy()
    outside[0] += fam.directions[-1]
    monkeypatch.setattr(np.linalg, "lstsq", _refuse)
    monkeypatch.setattr(np.linalg, "svd", _refuse)
    assert fc.family_contains(fam, member)
    assert fc.family_contains(sub, outside) is False
    assert fc.family_contains(fam, outside)


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("repeat_a_row", [False, True])
def test_other_directions_take_least_squares(repeat_a_row, complex_field,
                                             monkeypatch):
    route = fc.complete_direct if repeat_a_row else fc.complete_via_product
    fam, member = _family(route, complex_field)
    if repeat_a_row:
        w = fam.directions
        fam = dataclasses.replace(fam, directions=np.vstack([w, w[-1:]]))
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    assert fc.family_contains(fam, member)
    assert calls == [fam.directions.T.shape]


def test_product_membership_costs_what_least_squares_does(monkeypatch):
    # (8, 400, 4), d = 388: both rules solve the same least squares, about
    # 13 ms.  So the new rule's extra work, chiefly the O(d k) row-norm
    # test that turns the product route's W away, is timed with lstsq
    # answered from a cache, where the noise of the solve cannot hide it,
    # and must stay under 5% of the parent rule's whole call.  Noise only
    # adds time, so each figure is the fastest of many calls.
    rng = np.random.default_rng(23)
    fr, pd = conditioned_instance(rng, 8, 400, 4, 10.0, "family")
    fam = fc.complete_via_product(fr, pd).family
    g = _member(rng, fam)

    def fastest(fn):
        times = []
        for _ in range(15):
            t0 = time.perf_counter()
            assert fn(fam, g)
            times.append(time.perf_counter() - t0)
        return min(times)

    whole = fastest(lstsq_contains)
    rcond = np.finfo(np.float64).eps * fr.n * fr.k
    solved = np.linalg.lstsq(fam.directions.T, (g - fam.particular).T,
                             rcond=rcond)
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kwargs: solved)
    extra = fastest(fc.family_contains) - fastest(lstsq_contains)
    assert extra <= 0.05 * whole
