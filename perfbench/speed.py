"""Host speed, measured with a fixed reference workload.

The benchmark's host shares its cores with other machines, and the CPU
time of identical work drifts by a quarter within seconds. So every timed
command is bracketed by runs of ``reference_s``, a fixed mix of interpreter
loops, regex scans and JSON, and a ``Sampler`` thread repeats it every
``SAMPLE_PERIOD_S`` while the command runs. The command's busy time is then
rescaled to the speed at which the reference takes ``REFERENCE_S``. Time
spent waiting (sleeps, sockets, child processes) is kept as measured.
``REFERENCE_S`` is the reference's typical time on the 2-core host the
benchmark was built on, so rescaled seconds read close to seconds there.
"""

import json
import re
import statistics
import threading
import time
from typing import List

REFERENCE_S = 0.0030  # CPU seconds of one reference run at reference speed
SAMPLE_PERIOD_S = 0.2

_TEXT = ("theorem foo' (a b : ℕ) (h : a ≤ b) : a + 0 ≤ b + 0 := by\n"
         "  simp only [Nat.add_comm] at h ⊢ -- a comment\n") * 40
_TOKEN = re.compile(r"\w+|[^\w\s]")


def reference_s() -> float:
    """CPU seconds the calling thread takes for the fixed reference workload."""
    start = time.thread_time()
    for _ in range(4):
        spaces = 0
        for ch in _TEXT:
            if ch == " " or ch == "\n":
                spaces += 1
        tokens = _TOKEN.findall(_TEXT)
        json.loads(json.dumps(tokens))
    return time.thread_time() - start


def normalize(wall: float, cpu: float, sampled: float, references: List[float]) -> float:
    """Wall seconds with the busy part rescaled to reference speed.

    ``cpu`` excludes the sampler's CPU time ``sampled``. The sampler delays
    the measured work only while that work holds the interpreter lock, so
    its time comes off the wall time in proportion to the busy share.
    ``references`` are reference runs taken at even intervals while the work
    ran. Work done in an interval is proportional to 1 / reference time, so
    the busy time at reference speed is the busy time times ``speed``. (The
    median reference, tried first, spread three times as much.)
    """
    if wall <= 0:
        return 0.0
    wall -= sampled * min(1.0, cpu / wall)
    busy = min(cpu, wall)
    return wall - busy + busy * speed(references)


def speed(references: List[float]) -> float:
    """Host speed relative to the reference: busy seconds times this are
    busy seconds at reference speed."""
    return REFERENCE_S * statistics.mean(1.0 / r for r in references)


class Sampler:
    """Runs the reference on its own thread every SAMPLE_PERIOD_S.

    ``cpu_s`` is the CPU time the samples took, which callers subtract from
    the process CPU time of the work they measure.
    """

    def __init__(self):
        self.samples: List[tuple] = []  # (perf_counter at the end, seconds)
        self.cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            took = reference_s()
            self.samples.append((time.perf_counter(), took))
            self.cpu_s += took

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def between(self, start: float, end: float) -> List[float]:
        return [took for at, took in self.samples if start <= at <= end]
