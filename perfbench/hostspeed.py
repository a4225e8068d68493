"""Host-speed sampling, to report times at a fixed reference speed.

The machines this benchmark runs on share their cores with other
tenants, and a core's speed flips between full and about half within
seconds.  Identical study passes then differ by up to 60% in wall time,
which hides any change worth measuring.

While a phase is timed, :class:`Sampler` interrupts the process every
:data:`INTERVAL_S` of its CPU time (``SIGPROF``) and times a fixed
pure-Python loop of its own, on the same core, at that moment.  The
loop shares no code with the lab, so a change to the lab cannot speed
it up.  The loop runs twice back to back and only the second run is
timed: the first brings the loop's code and data back into the caches
the lab's own work evicted, so a lab change that grows its working set
does not slow the timed run and so does not hide part of its cost.  :func:`slowdown` turns a phase's samples into the factor by
which the host ran slower than the reference speed, and a phase's time
at reference speed is its wall time divided by that factor.

Sweep workers forked during a sampled phase sample themselves and write
their samples when they exit, like the span recorder's workers.
"""

from __future__ import annotations

import multiprocessing.util
import signal
import time
from typing import List

import workers

#: CPU seconds between samples.
INTERVAL_S = 0.005
PROBE_ITERATIONS = 300
#: Probe nanoseconds that define the reference speed: a round figure
#: near what the probe takes on a 2.1 GHz Xeon core at full speed.
REFERENCE_NS = 12_500.0
#: Share of the slowest samples dropped: a sample that lands right
#: after an interrupt or a page fault says nothing about the core.
TRIM = 0.1


def _probe_ns() -> int:
    start = time.perf_counter_ns()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return time.perf_counter_ns() - start


def slowdown(samples: List[int]) -> float:
    """How many times slower than the reference speed the host ran:
    the mean of the fastest ``1 - TRIM`` of the samples over
    :data:`REFERENCE_NS`."""
    kept = sorted(samples)[:max(1, int(len(samples) * (1 - TRIM)))]
    return sum(kept) / len(kept) / REFERENCE_NS


class Sampler:
    """Samples this process's core speed between :meth:`start` and
    :meth:`stop`, and that of any process it forks meanwhile.

    Args:
        worker_dir: directory where a forked worker writes its samples
            when it exits (``samples-<pid>.json``).
    """

    def __init__(self, worker_dir: str) -> None:
        self.worker_dir = worker_dir
        self.samples: List[int] = []
        self._active = False
        signal.signal(signal.SIGPROF, self._on_signal)
        # Runs in workers that multiprocessing forks, after it has
        # dropped the finalizers inherited from this process.
        multiprocessing.util.register_after_fork(self, Sampler._after_fork)

    def _on_signal(self, signum, frame) -> None:
        _probe_ns()  # warm-up; see the module docstring
        self.samples.append(_probe_ns())

    def _arm(self, seconds: float) -> None:
        signal.setitimer(signal.ITIMER_PROF, seconds, seconds)

    def start(self) -> None:
        """Begin sampling, dropping earlier samples."""
        self.samples = []
        self._active = True
        self._arm(INTERVAL_S)

    def stop(self) -> List[int]:
        """Stop sampling; return this process's samples and those of
        the workers that exited since :meth:`start`."""
        samples = self._disarm()
        samples.extend(workers.collect(self.worker_dir, "samples"))
        if not samples:
            # A phase shorter than one interval: judge it by one probe.
            samples.append(_probe_ns())
        return samples

    def _disarm(self) -> List[int]:
        self._arm(0.0)
        self._active = False
        return self.samples

    def _after_fork(self) -> None:
        # Interval timers are not inherited across fork: re-arm them in
        # a worker forked while sampling, and write its samples at exit.
        if not self._active:
            return
        self.samples = []
        self._arm(INTERVAL_S)
        workers.write_at_exit(self, self.worker_dir, "samples", self._disarm)
