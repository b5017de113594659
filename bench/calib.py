"""Reference work that measures the host's speed beside the program.

The host of a small shared machine speeds up and slows down by tens of
percent over minutes, and every op of the program with it. The benchmark
runs a fixed piece of reference work between ops and scales every op time
of a run by the host's speed over that run:

    scaled = measured * REF_S / median reference time of the run

so the reported times read as on a host that does the reference work in
`REF_S`. The work is independent of bpskrx and never changes, so a faster
program still shows in full, while a slower stretch of the host slows both
and cancels out. One factor per run, not one per op: a single pass is
noisy, and scaling each op by its own pass widened the tail.

There are three kinds of reference work, because the host's slow stretches
slow different work by different amounts: interpreted code in a running
process most, long vectorized loops less, and the start of a fresh
interpreter least (a stretch that slowed the scalar work by 46% slowed
cold CLI commands and set-up by 18%).

* ``scalar``: what the receivers and solvers spend their time on, scalar
  float arithmetic in Python, scipy root finding and special functions,
  and numpy calls on small matrices;
* ``array``: what the number-basis oracle and the Monte Carlo simulation
  spend theirs on, numpy over 10^6-element arrays and BLAS on
  192 x 192 matrices;
* ``cold``: what a cold CLI command and set-up spend most of theirs on,
  starting an interpreter and importing numpy (`COLD_ARGV`). It is a
  child process, which the orchestrator starts and times itself.

numpy and scipy are imported on first use, so the stdlib-only orchestrator
can import this module before it knows the program is there.
"""

from __future__ import annotations

import math
import statistics

#: Seconds each kind of reference work takes on the reference host (a
#: 2-core 2.1 GHz Xeon VM, one BLAS thread, median over minutes).
REF_S = {"scalar": 0.02, "array": 0.014, "cold": 0.17}
#: Arguments after the interpreter of the ``cold`` reference work.
COLD_ARGV = ("-c", "import numpy")


def _scalar_work() -> float:
    import numpy as np
    from scipy.optimize import brentq
    from scipy.special import ive

    m = np.random.default_rng(0).normal(size=(8, 8))
    s = 0.0
    for i in range(1, 30000):
        s += math.exp(-i * 1e-4) * math.log(i)
    for k in range(150):
        a = 0.5 + k * 0.01
        s += brentq(lambda x: math.exp(-x) - a * x, 0.0, 10.0)
        s += float(ive(0, a))
    eye = np.eye(8)
    for k in range(1500):
        s += float(np.linalg.det(m + k * 1e-3 * eye))
    return s


def _array_work() -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.random(10**6)
    s = float(np.exp(-x).sum()) + float((rng.random(10**6) < x).sum())
    a = rng.normal(size=(192, 192))
    s += float((a @ a).trace())
    return s + float(np.linalg.eigvalsh(a + a.T)[0])


WORKS = {"scalar": _scalar_work, "array": _array_work}


def reference_time(clock, kind: str = "scalar") -> float:
    """Time on ``clock`` of one pass of the in-process reference work of
    ``kind``. The first call of a process also imports numpy and scipy; a
    caller makes it once, untimed, before the run."""
    work = WORKS[kind]
    t0 = clock()
    work()
    return clock() - t0


def host_speed(refs: list[float], kind: str = "scalar") -> float:
    """The host's speed over a run, from its reference times of ``kind``:
    `REF_S` over their median, so below 1 on a slower host."""
    return REF_S[kind] / statistics.median(refs)
