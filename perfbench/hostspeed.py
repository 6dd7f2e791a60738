"""Host-speed normalisation.

The benchmark was defined on a 2-vCPU virtual machine whose processors each
switch, independently and for seconds to minutes at a time, between a fast
phase and one up to twice as slow.  Process CPU time slows as much as wall
time, so neither is a steady measure of the program.  So every measured
process also times a fixed loop of interpreter work (a gauge) at its start,
every INTERVAL_S from a timer signal, and at its end, and its time is
rescaled to the host's nominal speed:

    normalized seconds = (seconds - gauge time) * mean(NOMINAL_S / gauge_i)

where NOMINAL_S is the gauge's time in that machine's fast phase.  The
gauges sample the speed at even steps of wall time, so the mean of their
speeds (not of their times) is the share of nominal work per second; it also
shrugs off a gauge that was preempted.  A change
to the program moves normalized seconds as it moves wall time; a change in
the host's speed while the process runs cancels out.

Only builtins run in the gauge, and this module imports nothing that
axialcheck imports, so loading it changes no import time of the program.
"""

import signal
import time

ITERATIONS = 10000
NOMINAL_S = 0.0016
INTERVAL_S = 0.05
MARKER = "perfbench-gauge"


def reference_loop():
    """Seconds for a fixed amount of integer, tuple and dict work."""
    start = time.perf_counter()
    acc = 0
    seen = {}
    for i in range(1, ITERATIONS):
        acc = (acc * 31 + i * i) % 1000003
        seen[i & 511] = (acc, i)
    return time.perf_counter() - start


class Gauge:
    """Times the reference loop on entry, on every timer tick, and on exit.

    ``spent_s`` is the time the gauges took, to be taken out of the measured
    interval; ``speed / gauges`` is the mean of NOMINAL_S / gauge time.
    """

    def __init__(self):
        self.gauges = 0
        self.speed = 0.0
        self.spent_s = 0.0
        self._previous = None

    def sample(self, *_signal_args):
        start = time.perf_counter()
        self.speed += NOMINAL_S / reference_loop()
        self.gauges += 1
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def timed(self, fn, *args):
        """fn(*args) and its seconds, without the gauges that ran inside it."""
        spent = self.spent_s
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start - (self.spent_s - spent)

    def line(self):
        return f"{MARKER} {self.gauges} {self.speed!r} {self.spent_s!r}"


def parse_line(text):
    """(text without the gauge line, (gauges, speed, spent_s))."""
    kept, gauge = [], None
    for line in text.splitlines(keepends=True):
        if line.startswith(MARKER + " "):
            n, speed, spent_s = line.split()[1:]
            gauge = (int(n), float(speed), float(spent_s))
        else:
            kept.append(line)
    return "".join(kept), gauge


def normalized(seconds, gauges, speed):
    """Seconds at the nominal host speed for an interval, gauge time taken
    out, during which ``gauges`` gauges summed to ``speed``."""
    return seconds * speed / gauges
