"""A clock that runs at the speed of an uncontended host.

The host this benchmark was built on shares its cores with other tenants.
Contention shows as slower instruction throughput, not as lost CPU time: the
same concavemaps operation took anywhere from 1.6 s to 2.9 s in a
ninety-second loop, with process time equal to wall time throughout.

`HostClock` samples the host's current speed every INTERVAL_S with a SIGALRM
handler that times a fixed pure-Python kernel (complex arithmetic and
small-object churn, like the program's hot loops), and advances a virtual
clock by each slice of wall time rescaled to a host on which the kernel takes
KERNEL_REF_S. The kernel's own time is left out. In that ninety-second loop
the interquartile spread of the operation's time fell from 0.41 (wall) to
0.024 (this clock).

The kernel is not part of the program, so a change to the program moves the
virtual times just as it moves wall times.
"""

from __future__ import annotations

import cmath
import signal
import time

INTERVAL_S = 0.05
# The fastest kernel run seen on the calibration host (Intel Xeon, 2 vCPUs,
# Python 3.11.7); the virtual clock reads seconds of such an uncontended host.
KERNEL_REF_S = 0.00027

_COEFFS = tuple(complex(k, -k) for k in range(12))


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: complex, b: complex):
        self.a = a
        self.b = b

    def mul(self, other: "_Pair") -> "_Pair":
        return _Pair(self.a * other.a, self.a * other.b + self.b * other.a)


def _kernel() -> complex:
    acc = _Pair(0j, 0j)
    for i in range(40):
        w = _Pair(complex(0.3, 0.4 + i * 1e-6), 1 + 0j)
        a = _Pair(0j, 0j)
        for c in _COEFFS:
            a = a.mul(w)
            a = _Pair(a.a + c, a.b)
        acc = _Pair(acc.a + a.a, acc.b + abs(a.b) + cmath.phase(a.a))
    return acc.a + acc.b


def _timed_kernel() -> tuple[float, float]:
    t0 = time.perf_counter()
    _kernel()
    t1 = time.perf_counter()
    return t1 - t0, t1


class HostClock:
    """Virtual seconds on an uncontended host; see the module docstring.

    Only one clock may run at a time, because it owns SIGALRM."""

    def __init__(self, origin: float | None = None):
        """`origin` is the perf_counter() reading at which the clock reads 0;
        by default, now."""
        _kernel()
        self._k, now = _timed_kernel()
        self._last = now if origin is None else origin
        self._virtual = 0.0
        self._samples = 0
        self._previous_handler = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        k, t1 = _timed_kernel()
        # the slice since the last sample ran at about the mean of the speeds
        # measured at its two ends
        self._virtual += (t0 - self._last) * KERNEL_REF_S / (0.5 * (k + self._k))
        self._k, self._last = k, t1
        self._samples += 1

    def now(self) -> float:
        # the handler can run between any two bytecodes of this method; a
        # reading that straddles a sample mixes two states, so take another
        while True:
            seen = self._samples
            value = (self._virtual + (time.perf_counter() - self._last)
                     * KERNEL_REF_S / self._k)
            if seen == self._samples:
                return value

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
