"""What the benchmark in perfbench/ needs from the package.

BENCHMARK.json names per-layer metrics after framec functions, and the
benchmark's tracer wraps the public functions of each module by name, so
a refactor that renames such a function or stops calling it breaks the
benchmark.  The tier-1 suite does not collect perfbench/, so these tests
load its tracer from the file (read only) and check the contract here.
They also pin how many SVDs a three-route decide and `framec check` take.
"""

import collections
import contextlib
import importlib
import importlib.util
import inspect
import json
import os

import numpy as np
import pytest

import framec as fc
from framec import _complete, cli
from helpers import (F_1234, F_COLLINEAR, F_LONE, F_SPARSE, H_STUCK, H_TRIPLE,
                     ROUTES)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load_tracing()


def traced_functions():
    """(module, function) for every framec function BENCHMARK.json names.

    A per-layer metric `<layer>.<function>.<statistic>` is read off the
    tracer's span or count of that function.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    layers = {tracing.layer_name(m): m for m in tracing.MODULES}
    out = set()
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[0] in layers:
            out.add((layers[parts[0]], parts[1]))
    return sorted(out)


def test_named_functions_are_public_functions_of_their_module():
    names = traced_functions()
    assert ("linalg", "solve_min_norm") in names
    for module, name in names:
        mod = importlib.import_module(f"framec.{module}")
        fn = getattr(mod, name, None)
        assert inspect.isfunction(fn), f"{module}.{name}"
        assert fn.__module__ == mod.__name__, f"{module}.{name}"
        assert not name.startswith("_")
        if module == "cli":
            assert name in tracing.CLI_WRAPPED


def three_route_decide(fr, pd):
    return [route(fr, pd) for route in ROUTES]


def test_every_named_function_is_called(tmp_path):
    f_path, h_path = str(tmp_path / "f.csv"), str(tmp_path / "h.csv")
    fc.write_matrix(F_1234, f_path)
    fc.write_matrix(np.array([[1.0], [0.0]]), h_path)
    report, dual = str(tmp_path / "report.json"), str(tmp_path / "g.csv")
    tracer = tracing.Tracer()
    with tracer.active("test"):
        outs = three_route_decide(fc.make_frame(F_1234),
                                  fc.PartialDual(np.array([[1.0], [0.0]])))
        fam = outs[0].family
        g = fc.family_sample(fam, np.linspace(-1.0, 1.0, fam.dof))
        assert fc.family_contains(fam, g)
        outs += three_route_decide(fc.make_frame(F_SPARSE),
                                   fc.PartialDual(H_TRIPLE))
        outs += three_route_decide(fc.make_frame(F_COLLINEAR),
                                   fc.PartialDual(H_STUCK))
        with open(report, "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out):
            assert cli.run(["complete", f_path, h_path,
                            "--output", dual]) == 0
        with open(os.devnull, "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out):
            assert cli.run(["sample", report, "--output", dual]) == 0
    assert [type(o) for o in outs] == [fc.Family] * 3 + [fc.Unique] * 3 + [
        fc.NoCompletion] * 3
    totals = tracer.totals()
    for module, name in traced_functions():
        key = f"{module}.{name}"
        assert totals.get(key, {}).get("calls", 0) >= 1, key
        assert totals[key]["errors"] == 0, key
    assert totals[tracing.SVD]["calls"] >= 1


# per route: one SVD of the reduced system, which gives both its
# pseudoinverse and its kernel; the product route's elimination takes
# none when its pivots certify the rank; svd adds the factorization of
# F, the P-routes the rank test of a prescribed column of P's bottom
# rows that is near zero, and a certificate its augmented rank
def test_no_completion_decide_takes_seven_svds(svd_calls):
    fr = fc.make_frame(F_COLLINEAR)
    pd = fc.PartialDual(H_STUCK)
    svd_calls[0] = 0
    outs = three_route_decide(fr, pd)
    assert all(isinstance(o, fc.NoCompletion) for o in outs)
    assert svd_calls[0] <= 7


def test_family_decide_takes_four_svds(svd_calls):
    fr = fc.make_frame(F_1234)
    pd = fc.PartialDual(np.array([[1.0], [0.0]]))
    svd_calls[0] = 0
    outs = three_route_decide(fr, pd)
    assert all(isinstance(o, fc.Family) for o in outs)
    assert svd_calls[0] <= 4


def test_unique_decide_takes_five_svds(svd_calls):
    fr = fc.make_frame(F_SPARSE)
    pd = fc.PartialDual(H_TRIPLE)
    svd_calls[0] = 0
    outs = three_route_decide(fr, pd)
    assert all(isinstance(o, fc.Unique) for o in outs)
    assert svd_calls[0] <= 5


# the tracer files each SVD under the span that called it: the reduced
# solve's one SVD is its own, and the layers that read the factors, which
# the benchmark times by name, take none
def test_reduced_solve_takes_one_svd_and_its_layers_none():
    fr = fc.make_frame(F_1234)
    pd = fc.PartialDual(np.array([[1.0], [0.0]]))
    tracer = tracing.Tracer()
    with tracer.active("test"):
        outs = three_route_decide(fr, pd)
    assert all(isinstance(o, fc.Family) for o in outs)
    names = [span[0] for span in tracer.spans]
    svds = collections.Counter(span[3] for span in tracer.spans
                               if span[0] == tracing.SVD)
    solves = [i for i, name in enumerate(names)
              if name == "linalg.solve_min_norm"]
    assert len(solves) == len(ROUTES)
    assert [svds.get(i, 0) for i in solves] == [1] * len(solves)
    for layer in ("linalg.pseudoinverse", "linalg.nullspace_basis"):
        spans = [i for i, name in enumerate(names) if name == layer]
        assert [tracer.spans[i][3] for i in spans] == solves, layer
        assert [svds.get(i, 0) for i in spans] == [0] * len(spans), layer


# positions 0 and 1 are the elimination's pivots; the other four are not
F_PINS = np.array([[3.0, 0, 1, 1, 1, -1], [0, 3, 1, -1, 2, 1]])


# a prescribed non-pivot position pins a column of A, so with no pivot
# position prescribed the product route's system has no rows, and its
# solve and kernel take no SVD
@pytest.mark.parametrize("idx, kind", [((2, 3, 4, 5), fc.Unique),
                                       ((2, 3), fc.Family)],
                         ids=["unique", "family"])
def test_product_route_on_non_pivot_positions_takes_no_svd(svd_calls, idx,
                                                           kind):
    fr = fc.make_frame(F_PINS)
    order = fc.eliminate_with_product(fc.adjoint(fr.mat), tol=fr.tol).order
    assert sorted(order[:fr.n].tolist()) == [0, 1]
    pd = fc.PartialDual(fc.canonical_dual(fr)[:, list(idx)], idx)
    svd_calls[0] = 0
    out = fc.complete_via_product(fr, pd)
    assert isinstance(out, kind)
    assert svd_calls[0] == 0


# the SVD route's P is dense in the frame's column order, so its duals
# are top + X* @ bottom with no gather back into that order; writing X*
# and N* into A's columns would cost it a k-column copy and a gather per
# call.  The direct and product routes gather once, so the count sees them.
@pytest.mark.parametrize("m, h, idx", [
    (F_1234, np.array([[1.0], [0.0]]), (0,)),
    (F_SPARSE, H_TRIPLE, (0, 1)),
    (F_COLLINEAR, H_STUCK, (0, 1)),
    (F_LONE, None, (1,)),
    (np.array([[2.0, 1], [1, 1]]), np.array([[1.0], [-1.0]]), (0,)),
], ids=["family", "unique", "none", "lone", "square"])
def test_svd_route_gathers_no_columns(monkeypatch, m, h, idx):
    fr = fc.make_frame(m)
    if h is None:
        h = fc.canonical_dual(fr)[:, list(idx)]
    pd = fc.PartialDual(h, idx)
    calls = [0]
    unpermute = _complete.unpermute

    def counting(*args, **kwargs):
        calls[0] += 1
        return unpermute(*args, **kwargs)

    monkeypatch.setattr(_complete, "unpermute", counting)
    fc.complete_via_svd(fr, pd)
    assert calls[0] == 0
    gathers = sum(not isinstance(route(fr, pd), fc.NoCompletion)
                  for route in (fc.complete_direct, fc.complete_via_product))
    assert calls[0] == gathers


@pytest.mark.parametrize("m", [F_1234, F_SPARSE,
                               np.array([[1.0, 0, 1j, 0], [0, 1, 0, 1 + 1j]])],
                         ids=["1234", "sparse", "complex"])
def test_elimination_of_a_frame_takes_no_svd(svd_calls, m):
    fr = fc.make_frame(m)
    svd_calls[0] = 0
    elim = fc.eliminate_with_product(fc.adjoint(fr.mat), tol=fr.tol)
    assert elim.residual <= 1e-12
    assert svd_calls[0] == 0


# make_frame's one SVD gives a frame's rank, bounds and tightness, and
# the rank NotAFrame reports for a matrix that is not a frame
@pytest.mark.parametrize("m, code, svds", [
    (F_1234, 0, 1),
    (np.array([[1.0, 2], [2, 4]]), 3, 1),
    (np.array([[1.0, 0], [0, 1], [0, 0]]), 3, 1),
], ids=["frame", "rank-deficient", "tall"])
def test_check_svd_count(tmp_path, svd_calls, m, code, svds):
    path = str(tmp_path / "f.csv")
    fc.write_matrix(m, path)
    svd_calls[0] = 0
    with open(os.devnull, "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out):
        assert cli.run(["check", path]) == code
    assert svd_calls[0] <= svds


@pytest.mark.parametrize("m", [F_1234, F_SPARSE,
                               np.array([[1.0, 0, 1j, 0], [0, 1, 0, 1 + 1j]])],
                         ids=["1234", "sparse", "complex"])
def test_frame_sigma_is_the_spectrum_of_its_matrix(m):
    fr = fc.make_frame(m)
    want = np.linalg.svd(fr.mat, compute_uv=False)
    assert fr.sigma.dtype == want.dtype and fr.sigma.shape == (fr.n,)
    assert fr.sigma.tobytes() == want.tobytes()
