"""Machine-speed probe: times reported in reference seconds.

The small shared machines this benchmark runs on change speed by up to a
half, in phases from a fraction of a second to minutes long: the same pass
over the same ops took 3.6 s in one run and 7.2 s in another. A
``SpeedProbe`` samples that speed while the program runs. An interval timer
interrupts the main thread every ``INTERVAL_S`` seconds, and its handler times
a fixed stretch of work that does not touch the program. Each sample says how
fast the machine ran at that moment.

A stretch of wall time is converted to reference seconds: a wall second in
which the work took ``t`` counts ``reference_s / t`` reference seconds, so the
conversion multiplies the stretch's wall time by the mean of
``reference_s / t`` over its samples. On a machine where the work always takes
exactly ``reference_s``, a reference second is a wall second. The time the
handler itself spends is taken out of the wall time first. A program that
does less work takes fewer reference seconds whatever the machine's speed; a
slower phase of the machine alone does not change them.

Only the standard library is used here, so that the set-up probe can sample
with ``python_work`` before it imports the program.
"""

import signal
import time

INTERVAL_S = 0.01
# A stretch with fewer samples of its own, such as a short op or one spent in
# a long C call where the handler cannot run, also uses the samples just
# before it, up to this many in all.
MIN_SAMPLES = 8
# python_work's time on the reference machine.
PYTHON_REFERENCE_S = 2.5e-4


def python_work(loops=2000):
    """A fixed stretch of interpreter work: integer arithmetic and dict stores."""
    total = 0
    table = {}
    for i in range(loops):
        total += (i * 7) % 13
        table[i & 63] = total
    return total


class SpeedProbe:
    """Times ``work`` on a timer while entered; see the module docstring.

    ``samples`` holds the time each sample took and ``spent`` the total time
    the handler took, both over the probe's whole life.
    """

    def __init__(self, work=python_work, reference_s=PYTHON_REFERENCE_S,
                 interval=INTERVAL_S):
        self.work = work
        self.reference_s = reference_s
        self.interval = interval
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.work()
        taken = time.perf_counter() - start
        self.samples.append(taken)
        self.spent += taken

    def __enter__(self):
        self._handler(None, None)  # so that every stretch has a sample
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        """A point in time to pass to ``reference_seconds``."""
        return len(self.samples), self.spent, time.perf_counter()

    def speed(self, start_mark, end_mark):
        """Mean of ``reference_s / sample`` over the samples between two
        marks, topped up with the ones before to ``MIN_SAMPLES``."""
        first, last = start_mark[0], end_mark[0]
        window = self.samples[max(0, min(first, last - MIN_SAMPLES)):last]
        if not window:
            raise RuntimeError("no speed samples were taken")
        return sum(self.reference_s / taken for taken in window) / len(window)

    def wall_seconds(self, start_mark, end_mark):
        """Wall time between two marks, less the handler's own time."""
        return end_mark[2] - start_mark[2] - (end_mark[1] - start_mark[1])

    def reference_seconds(self, start_mark, end_mark):
        """``wall_seconds`` between two marks, in reference seconds."""
        return (self.wall_seconds(start_mark, end_mark)
                * self.speed(start_mark, end_mark))
