"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared virtual machine the same Python code can run 1.6x slower for a
fraction of a second or for minutes at a time, so a raw duration says as
much about the neighbours as about rigidfp.  The benchmark runs this kernel
next to every timed unit and reports each duration scaled by
NOMINAL_NS / (the kernel's time per call around that unit): the time the
unit would have taken with the kernel at its nominal speed.

The kernel is plain Python in the style of the program (a row walk with a
running parity, list building, a set and a slice sum) and calls nothing
from rigidfp.  Never change it or NOMINAL_NS: every figure the benchmark has
reported is scaled by them.
"""
import time

ROWS = tuple(range(40, 0, -1)) * 3
NOMINAL_NS = 150_000  # one kernel call at a fast, steady speed of a 2-vCPU Intel Xeon VM


def kernel() -> int:
    total = 0
    for _ in range(12):
        run = 0
        out = []
        for v in ROWS:
            run = (run + v) % 2
            out.append(v + 1 if run else v - 1)
        total += len(set(out)) + sum(out[::3])
    return total


def ns_per_call(min_ns: float) -> float:
    """Run the kernel at least once and until min_ns have passed; ns per call."""
    calls = 0
    start = time.perf_counter_ns()
    while True:
        kernel()
        calls += 1
        elapsed = time.perf_counter_ns() - start
        if elapsed >= min_ns:
            return elapsed / calls


def scaled(duration_ns: float, ref_before: float, ref_after: float) -> float:
    """duration_ns at nominal kernel speed, from kernel samples around it."""
    return duration_ns * 2 * NOMINAL_NS / (ref_before + ref_after)
