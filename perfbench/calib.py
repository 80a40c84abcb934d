"""Timings scaled to the machine's nominal speed.

A shared machine changes speed by 10-30% over seconds to minutes, most
of all for interpreter-bound code; on the tuning machine the fastest of
45 identical calls moved from 56 to 70 ms between consecutive processes.
No statistic inside one run removes such a drift.  So the
run interleaves a fixed reference block, built from a fixed seed and
calling nothing of framec, with its timed calls: before and after each
one, once INTERVAL_S has passed since the last block.  A timed call of
raw duration dt is reported as

    dt * NOMINAL_S / (median of the NEAREST reference blocks in time)

that is, its duration at the speed the machine had when the reference
block took NOMINAL_S.  A change to framec moves the figure in full,
since the reference block does not call it; a change of the machine's
speed moves the call and the reference block alike and cancels.  The
raw figures are kept next to the scaled ones in the results file.

The block stands for what drifts most: small SVDs and pseudo-inverses
with interpreter-bound bookkeeping, JSON encoding of floats, and a
medium SVD and product.  On the tuning machine it tracked the library
calls and the command line better than a block with a dense complex
least-squares solve added, which drifted on its own.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

# The reference block's typical duration on the machine the bounds were
# tuned on (2 vCPUs, Intel Xeon, OpenBLAS 0.3, Python 3.11, numpy 2.4).
NOMINAL_S = 2.5e-3
INTERVAL_S = 0.15
NEAREST = 6

_R = np.random.default_rng(20250115)
_SMALL = [_R.standard_normal((int(_R.integers(2, 9)),
                              int(_R.integers(3, 25)))) for _ in range(24)]
_FLOATS = _R.standard_normal(600).tolist()
_MEDIUM = _R.standard_normal((40, 120))


def reference() -> float:
    """Run the reference block once; return a value so it is not idle."""
    acc = 0.0
    for m in _SMALL:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        p = (vh.T / s) @ u.T
        acc += float(np.linalg.norm(m @ p - np.eye(m.shape[0])))
        seen = {}
        for i in range(m.shape[1]):
            seen[i] = (i * 7) % m.shape[0]
        acc += sum(seen.values())
    acc += len(json.loads(json.dumps({"data": _FLOATS}, indent=1))["data"])
    s = np.linalg.svd(_MEDIUM, compute_uv=False)
    return acc + float(s[0]) + float(np.abs(_MEDIUM @ _MEDIUM.T).sum())


class Calibrator:
    """Reference blocks interleaved with a run, and the scaling they give."""

    def __init__(self):
        self.clock = time.perf_counter
        self.at = []        # midpoints of the reference blocks, ascending
        self.took = []      # their durations, seconds
        self._last = -float("inf")

    def measure(self):
        """Time one reference block, after an untimed one.

        A timed call can leave the caches cold for whatever runs next;
        the untimed block takes that cost, so the timed one measures the
        machine's speed rather than the call before it.
        """
        reference()
        t0 = self.clock()
        reference()
        t1 = self.clock()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)
        self._last = t1

    def maybe(self):
        """Run a reference block if INTERVAL_S has passed since the last."""
        if self.clock() - self._last >= INTERVAL_S:
            self.measure()

    def factor(self, t0, t1) -> float:
        """NOMINAL_S over the median of the blocks nearest to [t0, t1]."""
        if not self.at:
            raise RuntimeError("no reference block was run")
        mid = 0.5 * (t0 + t1)
        hi = bisect.bisect_left(self.at, mid)
        lo = hi
        while hi - lo < min(NEAREST, len(self.at)):
            if lo > 0 and (hi == len(self.at)
                           or mid - self.at[lo - 1] <= self.at[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.median(self.took[lo:hi])

    def scaled(self, t0, t1) -> float:
        """Seconds from t0 to t1, at the machine's nominal speed."""
        return (t1 - t0) * self.factor(t0, t1)

    def speed(self) -> float:
        """Median reference block over the run, relative to NOMINAL_S."""
        return NOMINAL_S / statistics.median(self.took)
