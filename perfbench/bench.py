"""Runs one workload, checks every answer and reports its metrics.

A run is one client in a closed loop: each operation starts when the
previous one has returned.  Every instance is decided by all three
routes, and every family is sampled (and, where marked, tested for
membership).  Library visits are interleaved with `framec` subprocess
calls over the whole run.

Every timed call is scaled to the machine's nominal speed by the
reference blocks run around it (see calib.py).  Each instance's latency
is the median of its visits; the metrics are taken across instances, so
a partial last pass does not shift the mix of shapes.  Each operation
counts once in `attempted` and `failed`, on its first call, so that the
counts depend on the seed alone; a repeated call that ends otherwise
than the first makes the run incorrect.  With --trace 1 the run instead
makes one untraced and one traced pass over the same library
operations, plus one in-process round of the CLI cases, and reports the
layers.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter

import numpy as np

import framec as fc
from framec import cli

import check
import gen
from calib import Calibrator
from tracing import COUNT_ONLY, SVD, Tracer, layer_name

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUTES = (("direct", "complete_direct"), ("product", "complete_via_product"),
          ("svd", "complete_via_svd"))
SETUP_REPEATS = 5
# A family_contains call longer than this (n=40, k=120 takes seconds)
# is timed on the instance's first visit only, so that it does not crowd
# out the other operations; it cannot move the median across instances.
CONTAINS_REPEAT_MS = 1000.0
CLI_TIMEOUT_S = 150
IMPORT_REPEATS = 5

# name: (small-mixed problems per group in the full run and in the smoke
#        run, share of the run for the library loop, minimum CLI rounds)
WORKLOADS = {
    "small-mixed": (50, 2, 0.75, 3),
    "large-family": (None, None, 0.85, 3),
    "cli-files": (None, None, 0.15, 3),
}


class Record:
    """Per-run tallies: operation outcomes and timings.

    A timing sample is a list of (t0, t1) raw clock intervals whose
    scaled durations add up; the calibrator scales them at the end.
    """

    def __init__(self, n_instances, cal):
        self.cal = cal
        # operation key -> (failure kind or None, detail, known defect)
        self.outcomes = {}
        self.unsteady = []
        self.lib = {m: [[] for _ in range(n_instances)]
                    for m in ("decide", "direct", "product", "svd",
                              "family_sample", "family_contains")}
        self.cli = {"complete": {}, "sample": {}}   # case -> [sample]
        self.report_bytes = 0
        self.basis_bytes = 0
        self.lstsq_cells = 0
        self.decided = 0

    def op(self, key, fn, cond=1.0):
        """Run one operation; a failure is kept, never raised.

        Returns whether it passed.  An operation that returns without
        making a single check counts as unchecked, which makes the run
        incorrect.  Only an operation's first call counts; a later call
        that ends otherwise is recorded as unsteady.
        """
        before = check.made
        try:
            fn()
            kind, detail = ("unchecked", "no check made") if (
                check.made == before) else (None, "")
        except check.Failure as exc:
            kind, detail = exc.kind, str(exc)
        except Exception as exc:  # the run must go on; the failure is kept
            kind, detail = "raise", f"{type(exc).__name__}: {exc}"
        if key in self.outcomes:
            if self.outcomes[key][0] != kind:
                self.unsteady.append(f"{key}: {detail or 'passed'} after "
                                     f"{self.outcomes[key][1] or 'passed'}")
        else:
            known = kind not in ("raise", "unchecked") and check.known_defect(
                kind, cond)
            self.outcomes[key] = (kind, detail, known)
        return kind is None

    @property
    def attempted(self):
        return len(self.outcomes)

    def _failures(self):
        return [(key, o) for key, o in self.outcomes.items()
                if o[0] not in (None, "unchecked")]

    @property
    def failed(self):
        return len(self._failures())

    @property
    def unchecked(self):
        return sum(o[0] == "unchecked" for o in self.outcomes.values())

    @property
    def wrong(self):
        """Failures other than the known defect."""
        return sum(not o[2] for _, o in self._failures())

    def kinds(self):
        return dict(Counter(o[0] for _, o in self._failures()))

    def failed_instances(self):
        return {key[1] for key, _ in self._failures()}

    def notes(self):
        return [f"{key}: {o[1]}" for key, o in self._failures()[:20]]

    def scaled_ms(self, sample):
        return 1e3 * sum(self.cal.scaled(t0, t1) for t0, t1 in sample)


class Workload:
    """The seeded inputs of one workload: problems, frames and CLI files."""

    def __init__(self, name, seed, smoke, workdir):
        full, small, self.lib_share, self.cli_rounds = WORKLOADS[name]
        lib_rng, cli_rng, self.check_seed = np.random.SeedSequence(
            seed).spawn(3)
        plans = gen.CLI_PLANS_SMOKE if smoke else gen.CLI_PLANS
        self.cases = gen.cli_cases(np.random.default_rng(cli_rng), workdir,
                                   plans[name])
        lib_rng = np.random.default_rng(lib_rng)
        if name == "small-mixed":
            self.instances = gen.small_mixed(lib_rng, small if smoke else full)
        elif name == "large-family":
            self.instances = gen.large_family(
                lib_rng, gen.LARGE_SHAPES_SMOKE if smoke else gen.LARGE_SHAPES)
        else:
            self.instances = [c.inst for c in self.cases
                              if c.argv[0] == "complete"]
        self.frames = [fc.make_frame(inst.F) for inst in self.instances]


# ---------------------------------------------------------------------------
# Library operations.

def decide(w, i, rec, rng, revisit=False):
    """Decide instance i by all three routes; sample and test its family.

    On a revisit, a family_contains call that took CONTAINS_REPEAT_MS or
    more the first time is left out.
    """
    inst, fr = w.instances[i], w.frames[i]
    pd = fc.PartialDual(inst.H, inst.idx)
    clock, cal = time.perf_counter, rec.cal
    times, family = {}, []

    def routes():
        summaries, bad = {}, None
        for name, fname in ROUTES:
            cal.maybe()
            t0 = clock()
            out = getattr(fc, fname)(fr, pd)
            times[name] = (t0, clock())
            try:
                summaries[name] = check.summarize(inst, out, rng)
            except check.Failure as exc:
                bad = bad or exc
                summaries[name] = (check.kind_of(out), None)
            if isinstance(out, fc.Family):
                rec.basis_bytes += sum(b.nbytes for b in out.family.basis)
                if name == "direct":
                    family.append(out.family)
            del out     # one route's family at a time: they can be large
        cal.maybe()
        rec.decided += 1
        if bad:
            raise bad
        check.check_agreement(inst, summaries)

    passed = rec.op(("decide", i), routes, inst.cond)
    if len(times) == len(ROUTES):
        for name, span in times.items():
            rec.lib[name][i].append([span])
        rec.lib["decide"][i].append(list(times.values()))
    if not passed or not family:
        return
    fam, member = family[0], []

    def sample():
        cal.maybe()
        t0 = clock()
        g = fc.family_sample(fam, inst.coeffs)
        rec.lib["family_sample"][i].append([(t0, clock())])
        check.check_dual(inst, g, what="family member")
        member.append(g)

    def contains():
        cal.maybe()
        t0 = clock()
        ok = fc.family_contains(fam, member[0])
        rec.lib["family_contains"][i].append([(t0, clock())])
        cal.maybe()
        rec.lstsq_cells += inst.F.size * fam.dof
        check.check_member(ok)

    rec.op(("family_sample", i), sample, inst.cond)
    done = rec.lib["family_contains"][i]
    if inst.contains and member and not (
            revisit and done and rec.scaled_ms(done[0]) >= CONTAINS_REPEAT_MS):
        rec.op(("family_contains", i), contains, inst.cond)


def library_pass(w, rec, rng, tracer=None):
    """Visit every instance once, in order."""
    for i in range(len(w.instances)):
        if tracer is not None:
            tracer.instance = i
        decide(w, i, rec, rng)


# ---------------------------------------------------------------------------
# Command-line operations.

def _framec_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _call_framec(argv, out):
    """Exit code of `python -m framec argv`, killed after CLI_TIMEOUT_S.

    Popen.wait(timeout) polls with sleeps of up to 50 ms, which would
    round every wall time up; a blocking wait and a timer that kills the
    child keep the measurement exact.
    """
    proc = subprocess.Popen([sys.executable, "-m", "framec", *argv],
                            stdout=out, stderr=subprocess.DEVNULL,
                            env=_framec_env(), cwd=ROOT)
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()


def run_case(case, rec, rng, round_no, digests, in_process=False):
    """One `framec` call, as a subprocess or through cli.run in-process."""
    kind = case.argv[0]
    cal = rec.cal

    def call():
        with open(case.report or os.devnull, "w", encoding="utf-8") as out:
            cal.maybe()
            t0 = time.perf_counter()
            if in_process:
                with contextlib.redirect_stdout(out):
                    code = cli.run(list(case.argv))
            else:
                code = _call_framec(case.argv, out)
            t1 = time.perf_counter()
        cal.maybe()
        rec.cli[kind].setdefault(case.name, []).append([(t0, t1)])
        check.check_exit(case, code)
        weights = None
        if case.report:
            with open(case.report, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            if case.name not in digests:
                digests[case.name] = (digest, check.check_report(case, rng))
                if round_no == 0:
                    rec.report_bytes += os.path.getsize(case.report)
            else:
                check.check_same(case, digest, digests[case.name][0])
            weights = digests[case.name][1]
        if case.exit == 0:
            check.check_output_file(case, weights)

    rec.op(("cli", case.name), call)


def timed_run(w, rec, rng, seconds, min_rounds):
    """The closed loop of an untraced run.

    Library visits are interleaved with the CLI calls, in the ratio
    lib_share : 1 - lib_share of the time spent, so that both sample the
    machine over the whole run.  After one visit to every instance, an
    instance whose last visit took t seconds is visited in proportion to
    t**-0.25: cheap instances more often, costly ones still several
    times, so that each instance's median visit is a steady figure.  CLI
    calls run until `seconds` is used (at least min_rounds rounds of
    them); the first pass over the instances is then finished if it is
    not complete yet.
    """
    clock = time.perf_counter
    ratio = w.lib_share / (1.0 - w.lib_share)
    first_pass = list(range(len(w.instances)))[::-1]
    queue, lib_s = [], [0.0]
    start = clock()

    def visit():
        if first_pass:
            i, visits = first_pass.pop(), 0
        else:
            _, i, visits = heapq.heappop(queue)
        t0 = clock()
        decide(w, i, rec, rng, revisit=visits > 0)
        dt = clock() - t0
        lib_s[0] += dt
        heapq.heappush(queue, ((visits + 1) * dt ** 0.25, i, visits + 1))

    def catch_up():
        target = ratio * (clock() - start - lib_s[0])
        while lib_s[0] < target:
            visit()

    digests, r = {}, 0
    while r < min_rounds or clock() < start + seconds:
        for case in w.cases:
            if r >= min_rounds and clock() >= start + seconds:
                break
            run_case(case, rec, rng, r, digests)
            catch_up()
        r += 1
    while first_pass:
        visit()


def fresh_import_s(cal):
    """Median scaled time of `import framec` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import framec; "
            "print(t, time.perf_counter())")
    times = []
    for _ in range(IMPORT_REPEATS):
        cal.maybe()
        out = subprocess.run([sys.executable, "-c", code], env=_framec_env(),
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=CLI_TIMEOUT_S, check=True).stdout
        cal.maybe()
        # perf_counter is CLOCK_MONOTONIC, shared with this process.
        t0, t1 = map(float, out.split())
        times.append(cal.scaled(t0, t1))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Statistics.

def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    if len(v) <= 10:
        return v[-1], 100.0
    return v[-11], 100.0 * (len(v) - 10) / len(v)


def instance_medians(rec, samples):
    """Each instance's median scaled visit, in ms, over those it has."""
    return [statistics.median(rec.scaled_ms(x) for x in visits)
            for visits in samples if visits]


def raw_ms(samples):
    """instance_medians' median without the scaling, in ms."""
    return statistics.median(
        statistics.median(1e3 * sum(t1 - t0 for t0, t1 in x) for x in visits)
        for visits in samples if visits)


def end_to_end(rec, setup_s):
    """Every end-to-end metric: name -> (value, unit, note)."""
    m = {"setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} builds plus "
                                     f"median of {IMPORT_REPEATS} imports")}
    decide_ms = instance_medians(rec, rec.lib["decide"])
    visits = sum(len(s) for s in rec.lib["decide"])
    note = (f"n={len(decide_ms)} instances, {visits} samples, "
            f"unscaled {raw_ms(rec.lib['decide']):.4g} ms")
    m["decide_ms_p50"] = (statistics.median(decide_ms), "ms", note)
    value, pct = tail(decide_ms)
    m["decide_ms_tail"] = (value, "ms", f"p{pct:.2f}, {note}")
    m["instances_per_s"] = (1e3 * len(decide_ms) / sum(decide_ms), "1/s",
                            "instances / summed per-instance medians")
    for name in ("direct", "product", "svd", "family_sample"):
        vals = instance_medians(rec, rec.lib[name])
        samples = sum(len(s) for s in rec.lib[name])
        m[f"{name}_ms_p50"] = (statistics.median(vals), "ms",
                               f"n={len(vals)} instances, {samples} samples, "
                               f"unscaled {raw_ms(rec.lib[name]):.4g} ms")
    # family_contains is dense least squares on the families, which the
    # machine's drift hardly reaches; scaled by the reference block it
    # took on the block's noise (see README.md), so it is left unscaled.
    contains = rec.lib["family_contains"]
    vals = instance_medians(rec, contains)
    m["family_contains_ms_p50"] = (
        raw_ms(contains), "ms",
        f"unscaled; n={len(vals)} instances, "
        f"{sum(len(s) for s in contains)} samples, "
        f"scaled {statistics.median(vals):.4g} ms")
    for kind in ("complete", "sample"):
        per_case = rec.cli[kind]
        calls = sum(len(t) for t in per_case.values())
        unscaled = statistics.fmean(raw_ms([c]) for c in per_case.values())
        m[f"cli_{kind}_s"] = (
            statistics.fmean(instance_medians(rec, per_case.values())) / 1e3,
            "s", f"mean over {len(per_case)} cases of each one's median "
                 f"call; {calls} calls; unscaled {unscaled / 1e3:.4g} s")
    m["report_mb"] = (rec.report_bytes / 1e6, "MB", "complete reports, "
                                                    "one round")
    rss = {who: resource.getrusage(who).ru_maxrss / 1024
           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)}
    m["peak_rss_mb"] = (max(rss.values()), "MB",
                        f"this process {rss[resource.RUSAGE_SELF]:.0f} MB, "
                        f"largest framec subprocess "
                        f"{rss[resource.RUSAGE_CHILDREN]:.0f} MB")
    m["failed_frac"] = (rec.failed / rec.attempted, "failed/attempted",
                        f"{rec.failed}/{rec.attempted} operations")
    return m


def per_layer(tracer, counts, untraced_s, traced_s, import_s):
    """Every per-layer metric: name -> (value, unit, note).

    counts holds the record's decided, basis_bytes and lstsq_cells over
    the traced pass alone.
    """
    m = {}
    for name, t in sorted(tracer.totals().items()):
        short = layer_name(name)
        m[f"{short}.calls"] = (t["calls"], "count", "")
        m[f"{short}.errors"] = (t["errors"], "count", "")
        if name not in COUNT_ONLY:
            m[f"{short}.ms"] = (t["ms"], "ms", "total over the traced run")
            m[f"{short}.self_ms"] = (t["self_ms"], "ms", "minus child spans")
    m["linalg.svd_calls_per_instance"] = (
        tracer.calls["library", SVD] / counts["decided"], "count",
        f"{SVD} calls from framec per instance decided")
    m["complete.basis_mb"] = (counts["basis_bytes"] / 1e6, "MB",
                              "basis arrays returned by the routes")
    m["frames.family_contains.lstsq_cells"] = (
        counts["lstsq_cells"], "count", "n*k*dof summed over calls")
    m["cli.import_s"] = (import_s, "s", "fresh interpreter, median")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s",
                             f"traced {traced_s:.3f} s - untraced "
                             f"{untraced_s:.3f} s (mean of the passes before "
                             f"and after), library pass")
    m["trace.overhead_pct"] = (100 * (traced_s / untraced_s - 1), "%", "")
    return m


# ---------------------------------------------------------------------------
# Running.

def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "cpu": cpu,
            "nproc": os.cpu_count(),
            "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def warm_up(w, rng, cal):
    """Run each route, the family calls and the CLI once, untimed."""
    first = min(range(len(w.instances)),
                key=lambda i: w.instances[i].F.size)
    scratch = Record(len(w.instances), cal)
    decide(w, first, scratch, rng)
    fam = next((i for i, inst in enumerate(w.instances)
                if inst.verdict == "family" and inst.contains), None)
    if fam is not None:
        decide(w, fam, scratch, rng)
    subprocess.run([sys.executable, "-c", "import framec"], env=_framec_env(),
                   cwd=ROOT, timeout=CLI_TIMEOUT_S, check=False)


def run(name, seed, seconds, trace, smoke, spec):
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=outdir)
    try:
        return _run(name, seed, seconds, trace, smoke, spec,
                    outdir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, seed, seconds, trace, smoke, spec, outdir, workdir):
    # One CPU for this process and the framec subprocesses it starts
    # (they inherit it): the machine's CPUs drift in speed separately,
    # and the reference blocks only track the CPU they run on.  The run
    # is one closed loop, so nothing waits for the CPU but itself.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cal = Calibrator()
    for _ in range(3):      # the first blocks load LAPACK and warm caches
        cal.measure()
    cal.at.clear()
    cal.took.clear()
    builds = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        cal.maybe()
        t0 = time.perf_counter()
        w = Workload(name, seed, smoke, workdir)
        t1 = time.perf_counter()
        cal.measure()
        builds.append(cal.scaled(t0, t1))
    import_s = fresh_import_s(cal)
    setup_s = import_s + statistics.median(builds)
    rng = np.random.default_rng(w.check_seed)
    warm_up(w, rng, cal)
    rec = Record(len(w.instances), cal)
    if not trace:
        timed_run(w, rec, rng, seconds, 1 if smoke else w.cli_rounds)
        metrics = end_to_end(rec, setup_s)
        listed = spec["end_to_end"]
    else:
        def timed_pass(tracer=None):
            t0 = time.perf_counter()
            library_pass(w, rec, rng, tracer)
            return time.perf_counter() - t0

        # Untraced passes before and after the traced one: their mean
        # cancels a steady drift of the machine's speed.
        untraced = [timed_pass()]
        rec.decided = rec.basis_bytes = rec.lstsq_cells = 0
        tracer = Tracer()
        with tracer.active("setup"):
            for i, inst in enumerate(w.instances):
                tracer.instance = i
                fc.make_frame(inst.F)
        with tracer.active("library"):
            traced_s = timed_pass(tracer)
        counts = {"decided": rec.decided, "basis_bytes": rec.basis_bytes,
                  "lstsq_cells": rec.lstsq_cells}
        untraced.append(timed_pass())
        with tracer.active("cli"):
            tracer.instance = -1
            digests = {}
            for case in w.cases:
                run_case(case, rec, rng, 0, digests, in_process=True)
        tracer.write(os.path.join(
            outdir, f"{name}-seed{seed}-spans.json"))
        metrics = per_layer(tracer, counts, statistics.fmean(untraced),
                            traced_s, import_s)
        listed = spec["per_layer"]

    env = environment()
    env["speed_vs_nominal"] = round(cal.speed(), 4)
    correct = rec.wrong == 0 and rec.unchecked == 0 and not rec.unsteady
    print(f"# {name} seed={seed} trace={trace} smoke={smoke} "
          + " ".join(f"{k}={v!r}" for k, v in env.items()))
    print(f"# attempted={rec.attempted} failed={rec.failed} "
          f"failed_instances={len(rec.failed_instances())}/"
          f"{len(w.instances)} kinds={rec.kinds()} "
          f"unsteady={len(rec.unsteady)} correct={correct}")
    for note in rec.notes()[:5] + rec.unsteady[:5]:
        print(f"#   failure {note}")
    names = {m["name"] for m in listed}
    for key, (value, unit, note) in metrics.items():
        per_function = key.endswith((".calls", ".errors", ".ms", ".self_ms"))
        if key in names or not per_function or (
                key.endswith(".errors") and value):
            print(f"{key:44s} {value:14.6g} {unit:8s} {note}")
    result = {
        "correct": correct, "attempted": rec.attempted, "failed": rec.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]][0]),
                                "unit": m["unit"]} for m in listed},
    }
    detail = dict(result, workload=name, seed=seed, trace=trace, smoke=smoke,
                  environment=env, unchecked=rec.unchecked,
                  unsteady=rec.unsteady, failure_kinds=rec.kinds(),
                  failed_instances=sorted(map(str, rec.failed_instances())),
                  all_metrics={k: {"value": v, "unit": u, "note": n}
                               for k, (v, u, n) in metrics.items()})
    with open(os.path.join(outdir, f"{name}-seed{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0
