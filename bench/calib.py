"""Machine-speed calibration for the timed metrics.

On a shared host the speed of a core changes by up to twice, switching
every few seconds between a fast and a slow state with the program
unchanged; how much of a run falls in each state differs from run to run.
The benchmark therefore samples a fixed reference kernel while each of the
program's operations runs (SpeedProbe) and reports op times scaled to the
speed those samples show (see run.py).

The kernel is the benchmark's own code and never calls the program.  It
parses a few rows of a states.csv-like text into a dict of float lists
(csv.reader, float(), list appends), the interpreter-bound work that
dominates greendry's ops.  Among the kernels tried, its speed tracked the
program's best across the fast and slow states: the log of op time
against the log of kernel speed has a slope of -0.98 to -1.01 on run_4day
and validate_traces (exactly -1 would track perfectly), where a kernel
doing a step's 4x4 numpy Gauss-Jordan solve and scalar math gave -0.96 to
-1.18.
"""

from __future__ import annotations

import csv
import signal
import time

# Seconds per rep at the reference speed: about the kernel's rep time in
# the slower, more common state of the 2-vCPU host the benchmark was tuned
# on (see README.md).  Scaled times read in seconds at that speed.
REF_REP_S = 26e-6

_COLUMNS = ("t_s", "T_c_K", "T_a_K", "T_p_K", "T_f_K", "H", "M_db", "rh")
_LINES = [",".join(_COLUMNS)] + [
    ",".join(repr(300.0 + 0.123456789 * i + 1.5 * j) for j in range(len(_COLUMNS)))
    for i in range(6)]


def rep(k: int) -> float:
    """One unit of reference work; returns a value derived from all of it."""
    rows = csv.reader(_LINES)
    header = next(rows)
    data = {col: [] for col in header}
    for row in rows:
        for col, cell in zip(header, row):
            data[col].append(float(cell))
    return sum(data[header[k % len(header)]])


def timed_reps(k0: int, n: int) -> tuple[float, float]:
    """Run reps k0 .. k0+n-1; returns (speed relative to the reference,
    seconds taken)."""
    t0 = time.perf_counter()
    for k in range(k0, k0 + n):
        rep(k)
    elapsed = time.perf_counter() - t0
    return REF_REP_S * n / elapsed, elapsed


class SpeedProbe:
    """Samples the machine's speed while an op runs.

    Inside `with probe:`, a SIGALRM handler runs PROBE_REPS reps of
    the kernel every `interval` seconds, in the measuring thread, so the
    samples see the core in the state the op runs in.  Each sample is the
    speed relative to the reference (REF_REP_S over the measured seconds
    per rep); `spent` is the time the samples took, to be taken out of the
    op's wall time.  Must be used from the main thread.
    """

    PROBE_REPS = 20

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.speeds: list[float] = []
        self.spent = 0.0
        self._k = 0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        speed, elapsed = timed_reps(self._k, self.PROBE_REPS)
        self._k += self.PROBE_REPS
        self.spent += elapsed
        self.speeds.append(speed)

    def __enter__(self) -> SpeedProbe:
        self.speeds = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        """Disarm the timer; an op shorter than the interval gets one sample
        taken here, after the op, so not counted in `spent`."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.speeds:
            self.speeds.append(timed_reps(self._k, self.PROBE_REPS)[0])
            self._k += self.PROBE_REPS
