"""One cold benchmark process: reads a job (JSON) on stdin, imports
``hilbworst``, builds its inputs from the seed, runs the timed operations and
prints one JSON result line on stdout.

Set-up time runs from the parent's spawn timestamp to the moment the inputs
are ready.  Both sides read ``time.monotonic``, which is one system-wide
clock on Linux.

While the operations run, a timer interrupts the child every
``SAMPLE_INTERVAL_S`` to time a short fixed reference workload.  The parent
uses these samples to express every time at a reference machine speed (see
README.md); the clock the operations are timed with excludes the samples.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import sys
import time
from fractions import Fraction

SAMPLE_INTERVAL_S = 0.1


def reference_s() -> float:
    """Time of a fixed stdlib workload with the instruction mix of the
    library: Fraction arithmetic on values kept in a dict under small tuple
    keys.  It takes about 6 ms."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(1, 1000):
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 17 + 1, i % 13 + 1) * Fraction(3, 7)
    return time.perf_counter() - t0


class ReferenceClock:
    """Samples ``reference_s`` from a SIGALRM handler while running; ``now``
    is ``perf_counter`` minus the time spent in those samples.  Each sample
    is kept as (``now`` when it was taken, its duration)."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # a signal that arrived while sampling
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append((self.now(), reference_s()))
        self.spent += time.perf_counter() - t0
        self._busy = False

    def now(self) -> float:
        while True:
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:
                return t - spent

    def start(self):
        for _ in range(3):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(3):
            self._sample()


def main() -> int:
    job = json.loads(sys.stdin.read())

    import hilbworst
    import workloads

    setup, run, post = workloads.CHILD[job["workload"]]
    state = setup(job)
    gc.collect()  # the garbage of input generation is set-up work
    setup_s = time.monotonic() - job["spawn"]

    clock = ReferenceClock()
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(clock.now)
        tracer.install()

    clock.start()
    ops = run(state, clock.now)
    clock.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    trace = tracer.summary() if tracer else None

    result = {
        "hilbworst": hilbworst.__file__,
        "setup_s": setup_s,
        "ready": clock.samples[0][0],
        "reference": clock.samples,
        "rss_mb": rss_mb,
        "ops": ops,
        "answers": post(state),
        "trace": trace,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
