"""Machine-speed calibration for the end-to-end timings.

On a share of a busy host the same request list can run up to
twice as long in one minute as in the next, and a run of the benchmark sits
in whichever regime the host is in.  So every timed interval is bracketed by
two runs of a fixed pure-Python kernel, and the interval is reported in
reference seconds::

    reference_s = measured_s * REFERENCE_S / mean(kernel before, kernel after)

that is, the time the interval would have taken on a machine that runs the
kernel in ``REFERENCE_S``.  The kernel is benchmark code, never satkit, so a
change to satkit moves the reference seconds exactly as it moves the
measured ones; only the host's speed is divided out.  The kernel does the
kinds of work satkit does (small-int arithmetic with Euclid's gcd, tuples
and dicts, big-int products) and imports nothing, so it can run in a fresh
interpreter before ``satkit`` is imported without importing anything for it.
"""

import gc
import time

REFERENCE_S = 0.001      # kernel seconds that define one reference second


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def kernel() -> int:
    num, den = 0, 1
    table = {}
    for i in range(1, 120):
        a, b = num * (i + 7) + i * den, den * (i + 7)
        g = _gcd(a, b)
        num, den = a // g, b // g
        table[(i, i % 13)] = (num % 1009, i * i)
    x = 3
    for i in range(120):
        x = (x * x + i) % ((1 << 521) - 1)
    return sum(v for k, v in table.values() if k % 3 == 0) + x % 97 + den % 89


def sample() -> float:
    """Seconds for one kernel run, the median of three so that an interrupt
    does not make the sample; the collector is off, so that the heap a
    request left behind does not bill the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        return sorted(times)[1]
    finally:
        if enabled:
            gc.enable()


def to_reference(seconds: float, before: float, after: float) -> float:
    return seconds * REFERENCE_S / ((before + after) / 2)
