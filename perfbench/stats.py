"""Summary statistics shared by the parent harness and its worker."""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, Sequence, Tuple

# A tail percentile is only reported when at least this many samples lie
# beyond it.  Above TAIL_MAX the tail on a shared host measures the host's
# bursts more than the program (p99 of 3 ms verdicts spread 25% between
# runs), so the search starts there.
TAIL_BEYOND = 10
TAIL_MAX = 95


def tail(values: Sequence[float]) -> Dict[str, float]:
    """Highest integer percentile (nearest rank, at most TAIL_MAX) with
    TAIL_BEYOND samples beyond it, as {"value", "percentile", "samples"}.

    With TAIL_BEYOND samples or fewer no percentile qualifies; the median
    is reported then, marked with percentile 50.
    """
    xs = sorted(values)
    n = len(xs)
    for p in range(TAIL_MAX, 49, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return {"value": xs[rank - 1], "percentile": p, "samples": n}
    return {"value": statistics.median(xs), "percentile": 50, "samples": n}


def loglog_slope(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


# The machine's speed drifts by about +-25% over tens of seconds (other
# tenants share the host), which would swamp any change worth detecting.
# So every time is reported at a reference speed,
#     reported = raw * reference / measured,
# where "measured" is a yardstick timed next to it: the kernel below for
# in-process verdicts, and `python -c pass` for subprocesses, whose
# start-up tracks the kernel poorly.  Raw times are kept in the record.
CAL_REF_S = 0.0016
FLOOR_REF_S = 0.060

_KERNEL_A = {e: 1 + e % 9 for e in range(100)}
_KERNEL_B = {e: 1 + (e * 7) % 9 for e in range(100)}


def _kernel() -> Dict[int, int]:
    """Dict-based schoolbook product of two 100-term polynomials, the same
    kind of work as the library's Laurent arithmetic, but frozen here so
    that no change to the library can move it."""
    out: Dict[int, int] = {}
    for e1, c1 in _KERNEL_A.items():
        for e2, c2 in _KERNEL_B.items():
            e = e1 + e2
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def calibrate() -> float:
    """Seconds for one kernel run; median of five."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference(raw: float, measured: float, reference: float = CAL_REF_S) -> float:
    """RAW scaled to the speed at which the yardstick takes REFERENCE."""
    return raw * reference / measured
