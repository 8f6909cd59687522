"""Host-speed meter: scales request times to one reference host speed.

On a shared machine the speed of the benchmark's core swings by a third or
more within seconds, as other tenants come and go; CPU time swings with it, so
it is no way out.  A ``Meter`` measures that speed while requests run: a
SIGALRM handler, in the benchmark's own thread, times a fixed pure-Python
kernel (row reduction mod p, ``Fraction`` sums, objects, sorting and text,
the kinds of work the program does) every
``PERIOD`` seconds.  ``Meter.scaled(start, end)`` gives a request's time with
the kernels' own time taken out, times ``REFERENCE_S`` over the median kernel
time seen during the request and just before and after it: the time the
request would have taken at the speed the host had when ``REFERENCE_S`` was
measured.  The kernel is the benchmark's and never changes with the program,
so a faster program still reads faster.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.05
# Median kernel time on a shared 2-vCPU x86-64 host (Intel Xeon) under
# Python 3.11; any fixed value would do, this one keeps scaled times close to
# measured ones.
REFERENCE_S = 0.0065


def _row_reduce():
    p = 31
    for shift in range(6):
        m = [[(i * 7 + j * 13 + shift) % p for j in range(14)] for i in range(12)]
        rank = 0
        for col in range(14):
            pivot = next((i for i in range(rank, 12) if m[i][col]), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            inv = pow(m[rank][col], p - 2, p)
            m[rank] = [x * inv % p for x in m[rank]]
            for i in range(12):
                if i != rank and m[i][col]:
                    f = m[i][col]
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
            rank += 1


def _fractions():
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(i % 11 + 1, i % 37 + 1) * Fraction(3, i % 5 + 2)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def key(self):
        return self.b, self.a


def _objects_and_text():
    pairs = sorted((_Pair(i % 17, i % 29) for i in range(1500)), key=_Pair.key)
    words = {}
    for word in " ".join(f"{x.a}:{x.b}" for x in pairs[:600]).split():
        words[word] = words.get(word, 0) + 1


def kernel():
    """About 5 ms of list, int, Fraction, object, sort and str work."""
    _row_reduce()
    _fractions()
    _objects_and_text()


def timed_kernel():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Meter:
    """Samples the kernel time every PERIOD seconds while it is entered."""

    def __init__(self, period=PERIOD):
        self.period = period
        self.starts = []
        self.durations = []
        self._previous = None

    def sample(self, *_):
        start = time.perf_counter()
        kernel()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def scaled(self, start, end):
        """Seconds between ``start`` and ``end``, less the kernels run inside,
        at the reference host speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.durations[lo:hi]
        seen = self.durations[max(lo - 1, 0):hi + 1]
        return (end - start - sum(inside)) * REFERENCE_S / statistics.median(seen)
