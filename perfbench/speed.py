"""Machine-speed probe that runs alongside the measured work.

The benchmark's host shares its cores and caches with other tenants,
and their load slows this process down by up to 1.7x in episodes that
last from seconds to minutes.  The slowdown is largest on
interpreter-bound code, which is most of hivevem.

:class:`Sampler` interrupts the process every ``INTERVAL_S`` seconds
(``SIGALRM``) and times one run of :func:`probe_loop`, a fixed
pure-Python loop that uses no part of the program.  The probe's time
tracks the current speed of the machine.  A timed interval of the
workload is then reported at the reference speed:

    reported = measured * mean(REFERENCE_S / probe time), over the
               probes in the interval

``measured`` excludes the time spent in the probe itself.  The mean of
the speed ratios weighs each stretch of the interval by its length, and
a probe that an interrupt slows down adds almost nothing to it.  A
change to the program moves ``measured`` and leaves the probe alone, so
gains and losses show in full; a slow episode stretches both and
cancels out.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between probes.
INTERVAL_S = 0.05
#: Time of one probe at the reference speed: a round figure near the
#: probe time in quiet spells on a 2-core Xeon (Sapphire Rapids) VM with
#: Python 3.11, where it ranged from 0.32 to 0.57 ms.
REFERENCE_S = 4.0e-4


def probe_loop() -> int:
    """Fixed interpreter-bound work: integer arithmetic and dict stores."""
    d: dict[int, int] = {}
    s = 0
    for i in range(3000):
        d[i & 63] = s
        s += (i * 7) % 13
    return s


def speed_ratio(probes) -> float:
    """Mean of ``REFERENCE_S / probe`` over probe times in seconds."""
    return statistics.fmean(REFERENCE_S / t for t in probes)


class Sampler:
    """Probe times, and the wall and CPU time the probes took.

    Single-threaded use only: the handler runs in the main thread
    between bytecodes.  A tick that arrives while a probe runs is
    dropped, so probes never nest.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.probes: list[float] = []
        self.wall = 0.0       # wall seconds spent in probes so far
        self.cpu = 0.0        # CPU seconds spent in probes so far
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe(self) -> None:
        """Time one probe now and book its cost."""
        if self._busy:
            return
        self._busy = True
        c0, t0 = time.process_time(), time.perf_counter()
        probe_loop()
        t1 = time.perf_counter()
        self.probes.append(t1 - t0)
        self.wall += t1 - t0
        self.cpu += time.process_time() - c0
        self._busy = False

    def _tick(self, *_):
        self.probe()

    def mark(self) -> tuple[float, float, float, float, int]:
        """A point in time: ``(wall, cpu, probe wall, probe cpu, probes)``.

        Taking a mark runs one probe first, so that every interval
        between two marks holds at least one probe time.
        """
        self.probe()
        return (time.perf_counter(), time.process_time(), self.wall,
                self.cpu, len(self.probes))

    def interval_since(self, start) -> dict:
        """Wall and CPU seconds since ``start`` net of the probes, and
        ``scale``: the factor that brings them to the reference speed."""
        end = self.mark()
        probes = self.probes[start[4]:end[4]]
        return {"wall": (end[0] - start[0]) - (end[2] - start[2]),
                "cpu": (end[1] - start[1]) - (end[3] - start[3]),
                "scale": speed_ratio(probes),
                "probe_s": statistics.median(probes)}
