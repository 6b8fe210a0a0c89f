"""Per-job call recording for the benchmark.

Every call the benchmark makes into the library goes through
:meth:`Job.call`, named ``<layer>.<function>``.  With tracing off the wrapper
catches the exception a call raises, so the job can record it and go on, and
lets the :class:`Clock` read the machine's speed at the call's boundaries.
With tracing on it also keeps a span per call: name, start, end, the job id
and the index of the enclosing span.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import math
import signal
import subprocess
import sys
import time
import traceback

perf = time.perf_counter

CAL_N = 6000  # iterations of the calibration loop
CAL_EVERY_S = 0.05  # read the speed at most this often
CAL_KEYS = [f"({i},{i + 1})" for i in range(64)]
CAL_SPAWN = [sys.executable, "-c", "pass"]


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop of the kind of work the
    library does when it resolves weights: dict lookups, parsing vertex ids,
    float math.  It allocates nothing that outlives an iteration, so its time
    follows the speed of the CPU, not the state of the heap."""
    t = perf()
    d = dict.fromkeys(CAL_KEYS, 0.0)
    for i in range(CAL_N):
        k = CAL_KEYS[i & 63]
        d[k] += math.sqrt(i + int(k[1:-1].split(",")[1]))
    return perf() - t


def calibrate_spawn() -> float:
    """Wall seconds of starting and ending a bare interpreter: the process
    start-up a fresh process pays before the program's own imports."""
    t = perf()
    subprocess.run(CAL_SPAWN, check=True, timeout=60)
    return perf() - t


_blas: list = []


def calibrate_blas() -> float:
    """Wall seconds of a fixed dense complex Hermitian eigensolve on numpy's
    BLAS threads, the kind of work the truncation oracle does."""
    import numpy as np

    if not _blas:
        a = np.random.default_rng(0).standard_normal((512, 1024)).view(complex)
        _blas.append(a @ a.conj().T)
    t = perf()
    np.linalg.eigvalsh(_blas[0])
    return perf() - t


# speed reading -> (calibration, its time at the reference speed, least gap,
# log-log slope of the work's time against the calibration's time).  On a
# 2-vCPU VM whose speed switches between modes, process start-up and imports
# grew with about the square root of a bare interpreter start's time, so
# scaling them in full made a fast mode read slower than a slow one.
READINGS = {
    "python": (calibrate, 0.003, CAL_EVERY_S, 1.0),
    "spawn": (calibrate_spawn, 0.045, CAL_EVERY_S, 0.5),
    "blas": (calibrate_blas, 0.040, 0.5, 1.0),
}


class Clock:
    """A job's time, in wall seconds and at the reference speed.

    The reference speed is the one at which the calibration of ``reading``
    takes its reference time (``READINGS``): a 3-ms Python loop for the
    library's Python work, a 45-ms interpreter start for fresh processes, a
    40-ms dense eigensolve for the oracle's BLAS work.  The clock reads at
    call boundaries, and with ``timer`` also from a timer signal inside calls,
    at most every so often (the reading's least gap).  It scales the time
    between two readings by the reference time over their mean, raised to
    the reading's slope, so a long job is scaled piece by piece as the
    machine's speed changes under it; a stretch shorter than the least gap at
    the end of a job is scaled by the last reading.  The readings' own time counts in neither figure.
    """

    def __init__(self, reading: str, timer: bool = False):
        self.read, self.ref, self.every, self.slope = READINGS[reading]
        self.timer = timer
        self.busy = False
        self.cal = self.read()
        self.mark = perf()
        self.wall = self.scaled = 0.0
        if timer:
            signal.signal(signal.SIGALRM, lambda *_: self.tick())

    def start(self) -> None:
        self.wall = self.scaled = 0.0
        self.mark = perf()
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop(self) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.tick(force=True)

    def tick(self, force: bool = False) -> None:
        if self.busy:
            return
        seg = perf() - self.mark
        if seg < self.every:
            if force:
                self.wall += seg
                self.scaled += seg * (self.ref / self.cal) ** self.slope
                self.mark = perf()
            return
        self.busy = True
        cal = self.read()
        self.wall += seg
        self.scaled += seg * (2.0 * self.ref / (self.cal + cal)) ** self.slope
        self.cal = cal
        self.mark = perf()
        self.busy = False


def fmt(x) -> str:
    """Ten significant digits, and |x| < 1e-9 as 0, so that output digests
    do not depend on last-bit noise in the eigensolvers."""
    if isinstance(x, float):
        return "0" if abs(x) < 1e-9 else format(x, ".10g")
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(fmt(v) for v in x) + "]"
    return repr(x)


class Recorder:
    """The spans of one timed phase (none when tracing is off)."""

    def __init__(self, traced: bool, reading: str, timer: bool):
        self.traced = traced
        # timer readings inside a call would count in its span
        self.clock = Clock(reading, timer and not traced)
        self.spans: list = []  # (name, start, end, job id, parent span index)
        self._stack: list = []

    def job(self, job_id: int) -> "Job":
        return Job(self, job_id)


class Job:
    """One job: its failed calls, its check mismatches and its outputs."""

    def __init__(self, rec: Recorder, job_id: int):
        self.rec = rec
        self.id = job_id
        self.errors: list = []  # (call name, exception type, message)
        self.mismatches: list = []  # (check kind, detail)
        self.outputs: list = []  # canonical strings for the output digest
        self.counters: dict = {}

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs); on an exception record it and return None."""
        rec = self.rec
        rec.clock.tick()
        if not rec.traced:
            try:
                return fn(*args, **kwargs)
            except Exception as e:  # a failed call is measured, never fatal
                self._fail(name, e)
                return None
            finally:
                rec.clock.tick()
        idx = len(rec.spans)
        parent = rec._stack[-1] if rec._stack else None
        rec.spans.append(None)
        rec._stack.append(idx)
        start = perf()
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            self._fail(name, e)
            return None
        finally:
            rec.spans[idx] = (name, start, perf(), self.id, parent)
            rec._stack.pop()
            rec.clock.tick()

    def probe(self, name: str, fn, *args, **kwargs):
        """A call made only by the traced run, to time one layer on its own."""
        if self.rec.traced:
            return self.call(name, fn, *args, **kwargs)
        return None

    def _fail(self, name: str, e: BaseException) -> None:
        last = traceback.extract_tb(e.__traceback__)[-1]
        where = f"{last.filename.rsplit('/', 1)[-1]}:{last.lineno}"
        self.errors.append((name, type(e).__name__, f"{e} ({where})"[:200]))

    def check(self, kind: str, ok: bool, detail=None) -> None:
        if not ok:
            self.mismatches.append((kind, repr(detail)[:200]))

    def output(self, value) -> None:
        self.outputs.append(fmt(value))

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.mismatches)


def self_times(spans: list, speed: dict) -> dict:
    """Span name -> (total self time in reference seconds, number of calls).

    Self time is a span's duration minus the durations of its direct
    children, scaled by ``speed[job id]``.
    """
    child = [0.0] * len(spans)
    for name, start, end, _, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, job, _) in enumerate(spans):
        tot, n = out.get(name, (0.0, 0))
        out[name] = (tot + (end - start - child[i]) * speed[job], n + 1)
    return out
