"""How fast this CPU runs right now, sampled while a workload runs.

On a shared VM the speed of a vCPU changes by a quarter or more within
seconds, and the two vCPUs of the same VM change independently. A probe
run once before or after a timed call misses most of that. So
:class:`SpeedProbe` samples all the time: an interval timer raises
``SIGALRM`` every :data:`INTERVAL_S` of wall time, and the handler runs a
fixed piece of work (a pure-Python loop and two small in-place numpy
sorts, about 0.6 ms and about 1% of the time) and times it in thread CPU
time. CPU time leaves out time the probe waited for a core behind pool
workers, but not time the host held the vCPU back, which is the
slow-down to measure.

:meth:`SpeedProbe.reference_seconds` turns a wall interval into
*reference seconds*: the wall time minus the probes that ran inside it,
times ``speed ** ELASTICITY``, where ``speed`` is the mean of
``REFERENCE_S / probe time`` over its samples. Work per reference second
is work per second on a vCPU running as fast as the reference machine's
uncontended one; a faster program still scores higher, a slower host no
longer scores lower.

The probe allocates no Python containers, so it never triggers the
cyclic garbage collector on the workload's objects, and it touches 64 KiB
of memory. Forked pool workers inherit the handler but not the timer.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Wall time between two samples.
INTERVAL_S = 0.05
#: Thread CPU time of one probe at the reference speed: a little under the
#: fastest probes seen on the platform in ``perfbench/README.md`` (0.54 ms;
#: the median there is 0.6-0.9 ms). It only sets the scale of reference
#: seconds.
REFERENCE_S = 0.5e-3
#: How much more the workloads slow down than the probe. Over ten-run
#: series of each workload on that platform, the log of the wall-time rate
#: against the log of the probe's mean speed had slopes of 1.3-1.6
#: (correlation 0.93-0.98): the workloads' memory traffic suffers more
#: from busy neighbours than the probe's cache-resident loop does. Probes
#: that stream or gather megabytes slowed down as much as the workloads
#: but tracked them worse, because they also feel the caches the
#: workload left behind.
ELASTICITY = 1.4
#: Iterations of the probe's Python loop.
LOOP = 8000


class SpeedProbe:
    """Samples the CPU speed every :data:`INTERVAL_S` between
    :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self._source = np.random.default_rng(0).random(4096)
        self._scratch = np.empty_like(self._source)
        #: Wall time spent in probes so far.
        self.probe_wall = 0.0
        #: Sum over samples of ``REFERENCE_S / probe CPU time``.
        self.speed_sum = 0.0
        self.samples = 0

    def sample(self, _signum=None, _frame=None) -> None:
        began = time.perf_counter()
        cpu = time.thread_time()
        total = 0
        for i in range(LOOP):
            total += i * i
        for _ in range(2):
            self._scratch[:] = self._source
            self._scratch.sort()
        self.speed_sum += REFERENCE_S / max(time.thread_time() - cpu, 1e-9)
        self.samples += 1
        self.probe_wall += time.perf_counter() - began

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        """The state to measure an interval from."""
        return self.probe_wall, self.speed_sum, self.samples

    def speed_since(self, mark: tuple) -> float:
        """Mean speed of the samples since ``mark``, after one more sample
        so that a short interval has one."""
        self.sample()
        return (self.speed_sum - mark[1]) / (self.samples - mark[2])

    def reference_seconds(self, wall: float, mark: tuple) -> tuple:
        """(reference seconds, mean speed) of the ``wall`` seconds since
        ``mark``; the interval must have ended before this call."""
        probe_wall = self.probe_wall - mark[0]
        speed = self.speed_since(mark)
        return (wall - probe_wall) * speed**ELASTICITY, speed
