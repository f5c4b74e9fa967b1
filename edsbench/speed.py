"""The machine's speed, read off a fixed computation of the benchmark's own.

On a shared host the speed a process gets drifts by up to 1.8x over tens of
seconds, the same for the program and for any other Python code.  The
benchmark times `reference_s()` just before every item and scales the item's
latency by NOMINAL_S / reference, so that the reported times are those of a
machine on which the reference takes NOMINAL_S: the drift cancels, and a
change to the program moves them as it moves wall-clock time, since the
reference runs none of the program's code.
"""
import math
import time

# The reference's median duration on the 2-core 2.1 GHz Xeon virtual machine
# the benchmark was written on, so that scaled times read close to its
# wall-clock times.
NOMINAL_S = 0.00065

_N = 3**1300 + 12345  # 2,061 bits
_M = 5**880 + 678  # 2,044 bits


def reference_s() -> float:
    """Seconds taken by Newton steps toward k-th roots of a 2,061-bit integer,
    a gcd of two such integers and a small-integer loop: big-integer division,
    powers and gcd and interpreter dispatch, the work every workload does.

    It allocates only integers, which the garbage collector does not track,
    so no collection owed to the items' garbage can start inside it."""
    t0 = time.perf_counter()
    for k in (3, 5, 7, 11, 13):
        x = 1 << (_N.bit_length() // k + 1)
        for _ in range(12):
            x = ((k - 1) * x + _N // x ** (k - 1)) // k
    math.gcd(_N, _M)
    acc = 0
    for i in range(4000):
        acc = (acc + i * i) & 0xFFFF
    return time.perf_counter() - t0

