"""Seeded benchmark inputs, built with numpy alone.

Every frame is F = U diag(sigma) V* with Haar-like U and V and singular
values spread between 1 and 1/cond, so the condition number is chosen
rather than observed.  Prescriptions are columns of a random dual
G = U diag(1/sigma) V* + Z (I - V V*), which makes the expected verdict
known by construction:

* s < k - n   -> family of dimension n (k - s - n)
* s >= k - n  -> unique (the free columns of F are independent)
* s > k - n with H perturbed by 1e3-1e5 times the frame tolerance
              -> no completion (the free columns no longer span)

The package under test only ever sees F, H and the positions.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# The package's default frame tolerance is TOL_FACTOR * max(1, ||F||_F).
TOL_FACTOR = 1e-9


@dataclass
class Instance:
    """One completion problem and what its answer must be."""

    F: np.ndarray
    H: np.ndarray
    idx: tuple            # sorted 0-based prescribed positions
    verdict: str          # expected: "family", "unique" or "none"
    dof: int              # expected family dimension, 0 otherwise
    cond: float
    contains: bool        # whether the family also gets family_contains
    coeffs: np.ndarray | None = None  # family_sample coefficients

    @property
    def tol(self) -> float:
        return TOL_FACTOR * max(1.0, float(np.linalg.norm(self.F)))



def _gauss(rng, shape, cplx):
    g = rng.standard_normal(shape)
    return g + 1j * rng.standard_normal(shape) if cplx else g


def _frame_factors(rng, n, k, cond, cplx):
    u, _ = np.linalg.qr(_gauss(rng, (n, n), cplx))
    v, _ = np.linalg.qr(_gauss(rng, (k, n), cplx))
    inner = np.sort(rng.uniform(0.0, np.log(cond), n - 2))
    sigma = np.exp(-np.concatenate([[0.0], inner, [np.log(cond)]]))
    return u, sigma, v


def make_instance(rng, n, k, s, cplx, cond, verdict, contains=True):
    """A problem of the given shape whose answer is `verdict`."""
    u, sigma, v = _frame_factors(rng, n, k, cond, cplx)
    vh = v.conj().T
    f = (u * sigma) @ vh
    z = _gauss(rng, (n, k), cplx)
    g = (u / sigma) @ vh + z - (z @ v) @ vh
    idx = tuple(sorted(int(i) for i in rng.choice(k, size=s, replace=False)))
    h = g[:, list(idx)]
    if verdict == "none":
        h = _perturb(rng, f, h, cplx)
    dof = n * (k - s - n) if verdict == "family" else 0
    coeffs = None
    if verdict == "family":
        coeffs = rng.uniform(-1.0, 1.0, dof)
        if cplx:
            coeffs = coeffs + 1j * rng.uniform(-1.0, 1.0, dof)
    return Instance(F=f, H=h, idx=idx, verdict=verdict, dof=dof, cond=cond,
                    contains=contains and verdict == "family", coeffs=coeffs)


def _perturb(rng, f, h, cplx):
    """Add a random E with ||E||_F between 1e3 and 1e5 times the frame tol.

    With s > k - n the free columns of F no longer span, so a generic
    perturbation leaves the prescription without a completion.
    """
    e = _gauss(rng, h.shape, cplx)
    size = 10 ** rng.uniform(3.0, 5.0) * TOL_FACTOR * max(
        1.0, float(np.linalg.norm(f)))
    return h + e * (size / float(np.linalg.norm(e)))


VERDICTS = ("family", "unique", "none")


def small_mixed(rng, per_group):
    """Thousands of small problems, all three verdicts in equal shares.

    Every (n, real or complex, verdict) group for n = 2..8 gets
    per_group problems.  Within a group, k over n+1..3n and log10(cond)
    over 0..4 are stratified: each of per_group equal slices of their
    ranges holds one problem, at a random point of it, and the pairing
    of k slices with cond slices is a random permutation.  So every seed
    draws the same spread of shapes and condition numbers, uniform as
    before, and seeds differ in the matrices.  The order is shuffled.
    """
    out = []
    for n in range(2, 9):
        for cplx in (False, True):
            for verdict in VERDICTS:
                m = per_group
                k_at = (np.arange(m) + rng.random(m)) / m
                c_at = (rng.permutation(m) + rng.random(m)) / m
                for u, v in zip(k_at, c_at):
                    k = n + 1 + int(u * 2 * n)
                    if verdict == "family":
                        s = int(rng.integers(0, k - n))
                    elif verdict == "unique":
                        s = int(rng.integers(k - n, k + 1))
                    else:
                        s = int(rng.integers(k - n + 1, k + 1))
                    out.append(make_instance(rng, n, k, s, cplx,
                                             float(10 ** (4.0 * v)), verdict))
    return [out[i] for i in rng.permutation(len(out))]


# (n, k, s, complex, copies, how many of the copies get family_contains)
LARGE_SHAPES = [
    (20, 60, 10, False, 10, 2),
    (20, 60, 10, True, 10, 4),
    (40, 120, 20, False, 4, 1),
    (8, 400, 4, False, 3, 0),
]
LARGE_SHAPES_SMOKE = [
    (6, 18, 3, False, 3, 1),
    (6, 18, 3, True, 3, 1),
    (8, 24, 4, False, 2, 1),
    (3, 40, 2, False, 1, 0),
    (10, 34, 5, False, 1, 0),
]


def large_family(rng, shapes):
    """Well-conditioned family problems with thousands of dof."""
    out = []
    for n, k, s, cplx, copies, with_contains in shapes:
        for c in range(copies):
            cond = float(10 ** rng.uniform(0.0, 2.0))
            out.append(make_instance(rng, n, k, s, cplx, cond, "family",
                                     contains=c < with_contains))
    return out


# ---------------------------------------------------------------------------
# Files for the command-line cases.

@dataclass
class CliCase:
    """One `framec` invocation and the answer it must give."""

    name: str
    argv: list            # arguments after the program name
    exit: int             # expected exit code
    inst: Instance
    h: np.ndarray         # the prescription written to the H file
    report: str | None    # where stdout goes (complete only)
    output: str           # matrix file written by --output


def _write_csv(m, path):
    with open(path, "w", encoding="utf-8") as fh:
        for row in m:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _write_json(m, path):
    if np.iscomplexobj(m):
        data = [[float(x.real), float(x.imag)] for x in m.ravel()]
    else:
        data = [float(x) for x in m.ravel()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rows": m.shape[0], "cols": m.shape[1], "data": data}, fh)


def write_matrix_file(m, path):
    (_write_json if path.endswith(".json") else _write_csv)(m, path)


def _complete_case(workdir, name, inst, exit_code, extra=(), h=None):
    ext = "json" if np.iscomplexobj(inst.F) else "csv"
    fpath = os.path.join(workdir, f"{name}.F.{ext}")
    hpath = os.path.join(workdir, f"{name}.H.{ext}")
    write_matrix_file(inst.F, fpath)
    h = inst.H if h is None else h
    write_matrix_file(h, hpath)
    report = os.path.join(workdir, f"{name}.report.json")
    output = os.path.join(workdir, f"{name}.G.{ext}")
    argv = ["complete", fpath, hpath,
            "--indices", ",".join(str(i + 1) for i in inst.idx),
            "--output", output, *extra]
    return CliCase(name, argv, exit_code, inst, h, report, output)


def _sample_case(workdir, of: CliCase):
    ext = "json" if np.iscomplexobj(of.inst.F) else "csv"
    output = os.path.join(workdir, f"{of.name}.sample.{ext}")
    argv = ["sample", of.report, "--seed", "7", "--output", output]
    return CliCase(f"{of.name}-sample", argv, 0, of.inst, of.h, None, output)


SAMPLE_CALLS = 2


def cli_cases(rng, workdir, plan):
    """Write the input files for `plan` and return its CLI cases in order.

    plan lists (name, n, k, s, complex, verdict) for `complete` calls;
    verdict "weights" builds a prescription that only a rescaling of its
    columns makes completable and runs it with --solve-weights.  Every
    family case is followed by SAMPLE_CALLS `sample` calls on its saved
    report, since there are fewer sample cases than complete cases.
    """
    cases = []
    for name, n, k, s, cplx, verdict in plan:
        cond = float(10 ** rng.uniform(0.0, 1.0))
        if verdict == "weights":
            inst = make_instance(rng, n, k, s, cplx, cond, "unique")
            w = rng.uniform(0.5, 2.0, s)
            cases.append(_complete_case(workdir, name, inst, 0,
                                        extra=["--solve-weights"],
                                        h=inst.H / w))
            continue
        inst = make_instance(rng, n, k, s, cplx, cond, verdict)
        case = _complete_case(workdir, name, inst,
                              2 if verdict == "none" else 0)
        cases.append(case)
        if verdict == "family":
            cases += [_sample_case(workdir, case)] * SAMPLE_CALLS
    return cases


# The library workloads carry the CLI metrics too, on small files, so
# that many calls fit in a run.
SMALL_CLI = [
    ("fam", 4, 10, 3, False, "family"),
    ("fam-cplx", 5, 12, 2, True, "family"),
    ("uni", 3, 8, 5, True, "unique"),
    ("none", 4, 9, 7, False, "none"),
]
CLI_PLANS = {
    "small-mixed": SMALL_CLI,
    "large-family": SMALL_CLI,
    "cli-files": [
        ("fam-real", 20, 60, 10, False, "family"),
        ("fam-cplx", 20, 60, 10, True, "family"),
        ("uni", 20, 60, 40, False, "unique"),
        ("none", 20, 60, 45, False, "none"),
        ("weights", 20, 60, 45, False, "weights"),
    ],
}
CLI_PLANS_SMOKE = {
    "small-mixed": SMALL_CLI,
    "large-family": SMALL_CLI,
    "cli-files": [
        ("fam-real", 6, 18, 3, False, "family"),
        ("fam-cplx", 6, 18, 3, True, "family"),
        ("uni", 6, 18, 12, False, "unique"),
        ("none", 6, 18, 14, False, "none"),
        ("weights", 6, 18, 14, False, "weights"),
    ],
}
