"""Scale timings by how fast the machine runs while they are taken.

On a shared machine the same Python code runs up to 1.7 times slower for
seconds to minutes at a time, in CPU time as much as in wall time, and the
slowdown belongs to the core, not the machine.  A :class:`Ticker` therefore
runs a fixed loop every ``INTERVAL_S`` from a timer signal, in the
benchmark process and in the worker processes of any
``ProcessPoolExecutor`` created while it is active, and a pass is scaled by
``NOMINAL_S`` over the mean loop time during that pass.  The reported
seconds are seconds at the speed where the loop takes ``NOMINAL_S``.  The
loop does what the package's inner loops do (walk the bits of a row mask,
``bit_count``, hash small tuples) on a working set small enough to stay in
cache; among the loops tried it slowed down most nearly in step with the
package's searches, solver and canonical forms.  It never touches the
package, so a change to the package cannot move it.  The ticks cost about
1% of each pass.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import signal
import statistics
from time import perf_counter

#: Time of one ``tick_loop()`` at the reference speed.
NOMINAL_S = 0.0005
INTERVAL_S = 0.05
_SLOTS = 16  # worker processes per pool that can report ticks
_PER_SLOT = 20000  # samples kept per worker process
_ROWS = tuple(((i * 0x9E3779B1) ^ (i << 7)) & 0xFFFFF for i in range(20))


def tick_loop():
    acc = 0
    for i in range(400):
        m = _ROWS[i % 20]
        c = 0
        while m:
            b = m & -m
            m ^= b
            c += 1
        key = (c, (_ROWS[i * 7 % 20] & _ROWS[i % 20]).bit_count(), i & 7)
        acc += hash(key) & 0xFF
    return acc


def measure(repeats=30):
    """Mean time of the loop, measured now."""
    t0 = perf_counter()
    for _ in range(repeats):
        tick_loop()
    return (perf_counter() - t0) / repeats


def _start_ticking(record):
    def handler(signum, frame):
        t0 = perf_counter()
        tick_loop()
        record(perf_counter() - t0)

    signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def _worker_init(counts, data, next_slot, lock):
    with lock:
        slot = next_slot.value
        next_slot.value += 1
    if slot >= _SLOTS:
        return

    def record(dt):
        i = counts[slot]
        if i < _PER_SLOT:
            data[slot * _PER_SLOT + i] = dt
            counts[slot] = i + 1

    _start_ticking(record)


class Ticker:
    """Timer-driven loop samples in this process and in pool workers."""

    def __init__(self):
        self._samples = []
        self._counts = multiprocessing.RawArray("i", _SLOTS)
        self._data = multiprocessing.RawArray("d", _SLOTS * _PER_SLOT)
        self._next = multiprocessing.RawValue("i", 0)
        self._lock = multiprocessing.Lock()
        self._pool = None

    def __enter__(self):
        base = concurrent.futures.ProcessPoolExecutor
        shared = (self._counts, self._data, self._next, self._lock)

        class TickingPool(base):
            def __init__(self, max_workers=None, mp_context=None, initializer=None,
                         initargs=(), **kwargs):
                if initializer is None:
                    initializer, initargs = _worker_init, shared
                super().__init__(max_workers, mp_context, initializer, initargs, **kwargs)

        self._pool = base
        concurrent.futures.ProcessPoolExecutor = TickingPool
        _start_ticking(self._samples.append)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        concurrent.futures.ProcessPoolExecutor = self._pool
        return False

    def take(self):
        """Every sample since the last call, from this process and its workers."""
        out = self._samples[:]
        del self._samples[:len(out)]
        for slot in range(min(self._next.value, _SLOTS)):
            n = self._counts[slot]
            out.extend(self._data[slot * _PER_SLOT:slot * _PER_SLOT + n])
            self._counts[slot] = 0
        self._next.value = 0
        return out

    def scale(self):
        """Factor turning the time since the last call into nominal seconds."""
        samples = self.take()
        if not samples:
            samples = [measure()]
        return NOMINAL_S / statistics.mean(samples)
