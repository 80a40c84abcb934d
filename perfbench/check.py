"""Independent checks of every answer, with numpy alone.

Nothing here calls the package: a completion is judged by the dual
equation, the prescribed columns and the verdict the generator built
in, and routes are compared by the rule `framec complete` applies
before it answers (same verdict, equal unique duals within 1e-8
relative, equal family dimension).
"""

from __future__ import annotations

import json

import numpy as np

AGREE_RTOL = 1e-8
BASIS_SPOT_CHECKS = 4
# Above this condition number the routes' verdicts and the accuracy of
# their duals are known to miss the frame tolerance (ROADMAP aim 3).
ILL_CONDITIONED = 1e2

# Checks made so far; a caller compares it before and after an
# operation to tell an unchecked answer from one that passed.
made = 0


def _made():
    global made
    made += 1


class Failure(Exception):
    """An answer that does not hold.

    kind is "disagree" when the routes differ, so that `framec complete`
    refuses to answer (exit 4); "verdict" when they agree on a wrong
    verdict; "output" when an answer with the right verdict is wrong.
    """

    def __init__(self, kind, detail):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


def kind_of(outcome) -> str:
    return {"Family": "family", "Unique": "unique",
            "NoCompletion": "none"}[type(outcome).__name__]


def check_dual(inst, g, h=None, what="dual"):
    """g is a dual of inst.F carrying h (default inst.H) at inst.idx."""
    _made()
    h = inst.H if h is None else h
    f = inst.F
    resid = float(np.linalg.norm(f @ g.conj().T - np.eye(f.shape[0])))
    if not resid <= inst.tol:
        raise Failure("output", f"{what}: ||F G* - I|| = {resid:.3g}")
    gap = float(np.linalg.norm(g[:, list(inst.idx)] - h))
    if not gap <= inst.tol * max(1.0, float(np.linalg.norm(h))):
        raise Failure("output", f"{what}: prescribed columns off by {gap:.3g}")


def check_direction(inst, b, what="basis"):
    """b is a homogeneous direction: F b* = 0 and zero prescribed columns."""
    scale = inst.tol * max(1.0, float(np.linalg.norm(b)))
    if not float(np.linalg.norm(inst.F @ b.conj().T)) <= scale:
        raise Failure("output", f"{what}: F B* != 0")
    if not float(np.linalg.norm(b[:, list(inst.idx)])) <= scale:
        raise Failure("output", f"{what}: nonzero prescribed columns")


def summarize(inst, outcome, rng):
    """Check one route's outcome and keep only what the comparison needs.

    The verdict is compared by check_agreement; an answer with the
    expected verdict must have a dual (or particular member), dimension
    and a few basis directions, picked by rng, that hold.
    """
    kind = kind_of(outcome)
    if kind != inst.verdict:
        return kind, None
    if kind == "unique":
        check_dual(inst, outcome.G)
        return kind, outcome.G
    if kind == "family":
        fam = outcome.family
        check_dual(inst, fam.particular, what="particular")
        if fam.dof != inst.dof or len(fam.basis) != inst.dof:
            raise Failure("output", f"dof {fam.dof}, expected {inst.dof}")
        for j in rng.choice(inst.dof, size=min(BASIS_SPOT_CHECKS, inst.dof),
                            replace=False):
            check_direction(inst, fam.basis[j])
        return kind, fam.dof
    return kind, None


def check_agreement(inst, summaries):
    """The routes agree as `framec complete` requires, on the right verdict."""
    _made()
    kinds = {name: kind for name, (kind, _) in summaries.items()}
    if len(set(kinds.values())) > 1:
        raise Failure("disagree", f"verdicts differ: {kinds}")
    kind, first = summaries["direct"]
    if kind != inst.verdict:
        raise Failure("verdict", f"all routes say {kind}, "
                                 f"expected {inst.verdict}")
    for name, (_, value) in summaries.items():
        if kind == "unique":
            gap = float(np.linalg.norm(value - first))
            if gap > AGREE_RTOL * max(1.0, float(np.linalg.norm(first))):
                raise Failure("disagree", f"unique duals differ ({name})")
        elif kind == "family" and value != first:
            raise Failure("disagree", f"dof differ ({name})")


def check_member(accepted):
    """family_contains must accept a member drawn from the family."""
    _made()
    if accepted is not True:
        raise Failure("output", "family_contains rejects a member")


def check_exit(case, code):
    _made()
    if code != case.exit:
        raise Failure("output", f"{case.name}: exit {code}, "
                                f"expected {case.exit}")


def check_same(case, digest, first):
    """A repeated call wrote the report already checked, byte for byte."""
    _made()
    if digest != first:
        raise Failure("output", f"{case.name}: report changed")


def known_defect(kind, cond) -> bool:
    """Whether a failure is the known route disagreement.

    Routes that disagree make `framec complete` refuse to answer (exit 4)
    rather than answer wrongly; on ill-conditioned frames a wrong verdict
    or a dual just outside the tolerance is the same defect.  These count
    as failed operations, but do not make a run incorrect.
    """
    return kind == "disagree" or (
        cond > ILL_CONDITIONED and kind in ("verdict", "output"))


# ---------------------------------------------------------------------------
# Command-line results, read back without the package's own readers.

def decode_matrix(obj) -> np.ndarray:
    data = obj["data"]
    if data and isinstance(data[0], list):
        arr = np.array([complex(re, im) for re, im in data])
    else:
        arr = np.array(data, dtype=float)
    return arr.reshape(obj["rows"], obj["cols"])


def read_matrix_file(path) -> np.ndarray:
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return decode_matrix(json.load(fh))
    return np.loadtxt(path, delimiter=",", ndmin=2)


def check_report(case, rng):
    """The saved `complete` report states the expected answer.

    Returns the weights the report applied to the prescription (ones
    when it applied none)."""
    with open(case.report, encoding="utf-8") as fh:
        rep = json.load(fh)
    inst = case.inst
    if rep.get("status") != inst.verdict:
        raise Failure("output", f"report status {rep.get('status')!r}")
    w = np.asarray(rep.get("weights", np.ones(len(inst.idx))))
    if inst.verdict == "none":
        return w
    h = case.h * w
    check_dual(inst, decode_matrix(rep["dual"]), h, what="report dual")
    if inst.verdict == "family":
        basis = rep["basis"]
        if rep["dof"] != inst.dof or len(basis) != inst.dof:
            raise Failure("output", f"report dof {rep['dof']}")
        for j in rng.choice(inst.dof, size=min(BASIS_SPOT_CHECKS, inst.dof),
                            replace=False):
            check_direction(inst, decode_matrix(basis[j]), "report basis")
    return w


def check_output_file(case, weights=None):
    """The matrix written by --output is a dual carrying the prescription."""
    h = case.h if weights is None else case.h * weights
    check_dual(case.inst, read_matrix_file(case.output), h, what="output file")
