"""Batch command-line interface.

    framec check FRAME            validate a frame, print bounds
    framec canonical FRAME        compute the canonical dual
    framec complete FRAME PARTIAL solve a dual completion problem
    framec verify FRAME DUAL      check a dual pair
    framec sample REPORT          draw a member from a family report

Matrices are CSV (real) or JSON files, chosen by extension.  Reports
are JSON on standard output.  Exit codes: 0 success (unique or family),
1 usage or I/O error, 2 no completion / verification failed, 3 not a
frame, 4 internal method disagreement.  The FRAMEC_TOL environment
variable supplies a default tolerance; --tol overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .direct import Weights, complete_direct, solve_weights
from .errors import BadShape, FramecError, NotAFamily, NotAFrame
from .frames import (Family, Frame, PartialDual, Unique, canonical_dual,
                     dual_residual, frame_bounds, is_tight, make_frame)
from .linalg import default_tol, numerical_rank
from .matio import (matrix_from_jsonable, matrix_to_jsonable, read_matrix,
                    write_matrix)
from .product import complete_via_product
from .svdparam import complete_via_svd


class _Usage(Exception):
    pass


class _Disagreement(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="framec", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a frame and print its bounds")
    p.add_argument("frame")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("canonical", help="compute the canonical dual")
    p.add_argument("frame")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("complete", help="complete a partially prescribed dual")
    p.add_argument("frame")
    p.add_argument("partial")
    p.add_argument("--method", default="all",
                   choices=["direct", "product", "svd", "all"])
    p.add_argument("--indices", default=None,
                   help="1-based prescribed positions, e.g. 1,3,4 "
                        "(default: leading columns)")
    p.add_argument("--weights", default=None,
                   help="matrix file with one weight per column of PARTIAL "
                        "(the report lists them by position)")
    p.add_argument("--solve-weights", action="store_true",
                   help="search for feasible real weights first")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--output", default=None,
                   help="write the computed dual to this matrix file")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("verify", help="check that DUAL is a dual of FRAME")
    p.add_argument("frame")
    p.add_argument("dual")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample", help="sample a member of a family report")
    p.add_argument("report")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sample)

    return parser


def _resolve_tol(args) -> float | None:
    tol, source = args.tol, "--tol"
    env = os.environ.get("FRAMEC_TOL")
    if tol is None and env:
        try:
            tol, source = float(env), "FRAMEC_TOL"
        except ValueError:
            raise _Usage(f"FRAMEC_TOL is not a number: {env!r}") from None
    if tol is not None and not 0 < tol < np.inf:
        raise _Usage(f"{source} must be finite and positive, got {tol!r}")
    return tol


def _emit(obj) -> None:
    print(json.dumps(obj))


def cmd_check(args) -> int:
    m = read_matrix(args.frame)
    tol = _resolve_tol(args)
    # the rank make_frame judges the matrix by, at the same tolerance
    rank = numerical_rank(m, default_tol(m) if tol is None else tol)
    try:
        fr = make_frame(m, tol)
    except (NotAFrame, BadShape) as exc:
        _emit({"status": "not_a_frame", "n": int(m.shape[0]),
               "k": int(m.shape[1]), "rank": rank, "detail": str(exc)})
        return 3
    b = frame_bounds(fr)
    _emit({"status": "frame", "n": fr.n, "k": fr.k, "rank": rank,
           "bounds": {"lower": b.lower, "upper": b.upper},
           "tight": is_tight(fr)})
    return 0


def cmd_canonical(args) -> int:
    try:
        fr = make_frame(read_matrix(args.frame), _resolve_tol(args))
    except (NotAFrame, BadShape) as exc:
        print(f"not a frame: {exc}", file=sys.stderr)
        return 3
    g = canonical_dual(fr)
    if args.output:
        write_matrix(g, args.output)
    else:
        _emit(matrix_to_jsonable(g))
    return 0


def cmd_verify(args) -> int:
    try:
        fr = make_frame(read_matrix(args.frame), _resolve_tol(args))
    except (NotAFrame, BadShape) as exc:
        print(f"not a frame: {exc}", file=sys.stderr)
        return 3
    residual = dual_residual(fr, read_matrix(args.dual))
    ok = residual <= fr.tol
    _emit({"residual": residual, "dual_pair": ok, "tol": fr.tol})
    return 0 if ok else 2


def _parse_indices(spec: str, s: int, k: int) -> tuple:
    try:
        raw = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise _Usage(f"bad --indices value {spec!r}") from None
    if len(raw) != s:
        raise _Usage(f"{s} prescribed columns but {len(raw)} indices")
    if len(set(raw)) != len(raw):
        raise _Usage("indices must be distinct")
    if any(i < 1 or i > k for i in raw):
        raise _Usage(f"indices must lie in 1..{k}")
    return tuple(i - 1 for i in raw)


def _run_method(name: str, fr: Frame, pd: PartialDual):
    if name == "direct":
        return complete_direct(fr, pd)
    if name == "product":
        return complete_via_product(fr, pd)
    return complete_via_svd(fr, pd)


def _check_agreement(outcomes: dict, fr: Frame) -> None:
    kinds = {name: type(out).__name__ for name, out in outcomes.items()}
    if len(set(kinds.values())) > 1:
        raise _Disagreement(f"method verdicts differ: {kinds}")
    first = outcomes["direct"]
    if isinstance(first, Unique):
        for name, out in outcomes.items():
            gap = float(np.linalg.norm(out.G - first.G))
            if gap > 1e-8 * max(1.0, float(np.linalg.norm(first.G))):
                raise _Disagreement(
                    f"unique duals differ: direct vs {name}, gap {gap:g}")
    elif isinstance(first, Family):
        dofs = {name: out.family.dof for name, out in outcomes.items()}
        if len(set(dofs.values())) > 1:
            raise _Disagreement(f"family dof differ: {dofs}")


def _report(outcome, method: str, fr: Frame, weights, notes: list) -> dict:
    rep = {"method": method, "errata_notes": list(notes)}
    if weights is not None:
        rep["weights"] = list(weights.w)
    if isinstance(outcome, Unique):
        rep["status"] = "unique"
        rep["dual"] = matrix_to_jsonable(outcome.G)
        rep["residual"] = dual_residual(fr, outcome.G)
    elif isinstance(outcome, Family):
        fam = outcome.family
        rep["status"] = "family"
        rep["dual"] = matrix_to_jsonable(fam.particular)
        rep["basis"] = [matrix_to_jsonable(b) for b in fam.basis]
        rep["dof"] = fam.dof
        rep["residual"] = dual_residual(fr, fam.particular)
    else:
        cert = outcome.certificate
        rep["status"] = "none"
        rep["certificate"] = {
            "rank_free": cert.rank_free,
            "rank_augmented": cert.rank_augmented,
            "projector_residual": cert.projector_residual,
        }
        rep["residual"] = cert.projector_residual
    return rep


def cmd_complete(args) -> int:
    m = read_matrix(args.frame)
    h = read_matrix(args.partial)
    try:
        fr = make_frame(m, _resolve_tol(args))
    except (NotAFrame, BadShape) as exc:
        _emit({"status": "not_a_frame", "method": args.method,
               "residual": 0.0, "errata_notes": [str(exc)]})
        return 3
    s = h.shape[1]
    if args.indices is not None:
        idx = _parse_indices(args.indices, s, fr.k)
    else:
        idx = tuple(range(s))
    try:
        pd = PartialDual(h, idx)
    except BadShape as exc:
        raise _Usage(str(exc)) from None

    notes = []
    weights = None
    if args.weights and args.solve_weights:
        raise _Usage("--weights and --solve-weights are mutually exclusive")
    if args.weights:
        wlist = list(read_matrix(args.weights).ravel())
        if len(wlist) != s:
            raise _Usage(f"{s} prescribed columns but {len(wlist)} weights")
        # pd holds its columns in position order; the weights follow them
        weights = Weights(tuple(wlist[j] for j in np.argsort(idx)))
    elif args.solve_weights:
        weights = solve_weights(fr, pd)
        if weights is None:
            notes.append("no real diagonal scaling makes the prescription "
                         "completable at this tolerance; reporting the "
                         "unscaled outcome")

    if weights is not None:
        pd = pd.scaled(weights.w)
    if args.method == "all":
        outcomes = {name: _run_method(name, fr, pd)
                    for name in ("direct", "product", "svd")}
        _check_agreement(outcomes, fr)
        chosen = outcomes["direct"]
    else:
        chosen = _run_method(args.method, fr, pd)

    rep = _report(chosen, args.method, fr, weights, notes)
    _emit(rep)
    if args.output and rep["status"] in ("unique", "family"):
        g = matrix_from_jsonable(rep["dual"])
        write_matrix(g, args.output)
    return 0 if rep["status"] in ("unique", "family") else 2


def cmd_sample(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            rep = json.load(fh)
    except json.JSONDecodeError as exc:
        raise _Usage(f"invalid report JSON: {exc}") from None
    status = rep.get("status") if isinstance(rep, dict) else None
    if status != "family":
        raise NotAFamily(f"report status is {status!r}, need 'family'")
    if "dual" not in rep:
        raise _Usage("family report has no 'dual'")
    dual = matrix_from_jsonable(rep["dual"])
    listed = rep.get("basis", [])
    if not isinstance(listed, list):
        raise _Usage("report basis must be a list of matrices")
    basis = [matrix_from_jsonable(b) for b in listed]
    try:
        dof = int(rep.get("dof", len(basis)))
    except (TypeError, ValueError):
        raise _Usage(f"report dof must be an integer, got {rep['dof']!r}"
                     ) from None
    if dof != len(basis):
        raise _Usage(f"report lists dof={dof} but {len(basis)} basis matrices")
    if any(b.shape != dual.shape for b in basis):
        raise _Usage(f"basis matrices must be {dual.shape[0]} x "
                     f"{dual.shape[1]} like the dual")
    rng = np.random.default_rng(args.seed)
    coeff = rng.uniform(-1.0, 1.0, dof)
    g = dual + np.tensordot(coeff, np.array(basis), axes=1)
    if args.output:
        write_matrix(g, args.output)
    else:
        _emit(matrix_to_jsonable(g))
    return 0


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _Disagreement as exc:
        print(f"method disagreement (implementation bug): {exc}",
              file=sys.stderr)
        return 4
    except NotAFrame as exc:
        print(f"not a frame: {exc}", file=sys.stderr)
        return 3
    except (FramecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(argv)
