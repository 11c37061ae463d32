"""The noise guard: one CPU, a calibration tick, and timings normalised by it.

The sandbox this benchmark was built on is two virtual CPUs of a shared host.
A fixed pure-CPU loop there runs in a fast and a slow state 25 % apart that
flip every few seconds, independently per CPU (correlation between the two
CPUs' speeds: 0.08), and in a loud hour everything runs 40 % slower for
minutes.  No amount of work inside a 12-second run averages that out, and the
contract allows a regression bound of at most 25 %.  Two things make the
timings comparable between runs:

* **One CPU.**  :func:`pin_to_one_cpu` restricts this process — and every
  child it starts, which inherit the mask — to a single CPU.  The server
  processes are then measured on the same CPU the tick below runs on, with no
  cross-CPU wake-ups (measured on the warm closed loop: request p50 2.9 ms
  pinned against 4.4 ms unpinned, and the correlation between a slice's p50
  and the tick next to it 0.92 against 0.51).
* **Ticks.**  :func:`tick` is a fixed unit of the kind of work the program
  does: interpreter arithmetic, a small array reduction, building and walking
  a dict of tuples, and counting tuple keys in a dict.  Every workload
  interleaves ticks with its measured operations while its own system is idle
  and every timing is multiplied by ``REFERENCE_TICK_MS / tick`` taken next to
  it: the metrics read "milliseconds on a machine whose tick takes 2 ms".
  Both sides of a comparison are scaled the same way, so a code change moves
  the metric and the neighbours' load does not.  What the tick is made of
  matters: over sixty-five 12-second stretches of cold queries, some of them
  24 % slow, the quartile spread of the stretch medians was 9.5 % raw (range
  35 %) and 2.8 % (range 10 %) scaled by this tick; with a sequential pass
  over 16 MiB of memory added to the tick — bandwidth the program does not
  depend on, and that the neighbours slow by a different amount — it was
  4.1 % (range 16 %).

* **Device ticks.**  An ack of the durable store is mostly ``fsync`` (four a
  batch; 85 % of the ack at this batch size), and the neighbours' disk
  traffic moves that without moving a CPU tick: over 120 s of durable ingest
  the medians of three-cycle stretches spread 28 % raw (range 106 %) and
  still 13 % (range 43 %) scaled by the CPU tick.  So where the measured
  operation is such an ack, :meth:`SpeedLog.write_tick` also times four
  small appends with ``fsync`` on a scratch file, and the ack is scaled by
  ``cpu tick + DEVICE_WEIGHT x device tick``: 6 % (range 25 %) on the same
  data (5 % at weight 4, 7 % at weight 1).

Raw wall-clock values are kept and printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from bisect import bisect_left
from typing import BinaryIO, List, Optional, Tuple

from .spec import OUT_DIR

REFERENCE_TICK_MS = 2.0
#: One device tick is this many 64-byte appends, each followed by ``fsync``.
DEVICE_SYNCS = 4
DEVICE_WEIGHT = 2.0
#: A machine whose CPU tick takes 2 ms and whose device tick takes 1 ms.
REFERENCE_WRITE_TICK_MS = REFERENCE_TICK_MS + DEVICE_WEIGHT * 1.0

try:
    import numpy as _np

    _BLOCK = _np.arange(2048, dtype=_np.float64)

    def _array_op() -> float:
        return float(_np.add.accumulate(_BLOCK)[-1])

except ImportError:  # the array-backed codec leg has no numpy
    from array import array as _array

    _BLOCK = _array("d", range(2048))

    def _array_op() -> float:
        return sum(_BLOCK)


def pin_to_one_cpu() -> Optional[int]:
    """Restrict this process and its future children to the lowest CPU it may
    use; returns that CPU, or ``None`` where the platform has no affinity."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def tick() -> float:
    """Milliseconds the fixed unit of work takes right now (about 2 ms).

    The collector is off meanwhile: the tick allocates, and a collection it
    triggered would cost what the *caller's* heap costs to traverse.
    """
    collecting = gc.isenabled()
    gc.disable()
    began = time.perf_counter()
    total = 0
    for index in range(12000):
        total += index * index % 7
    for _ in range(40):
        total += _array_op()
    table = {}
    for index in range(3000):
        table[index] = (index, str(index))
    for value in table.values():
        total += len(value[1])
    counts = {}
    for index in range(3000):
        key = (index & 255, index >> 3, index)
        counts[key] = counts.get(key, 0) + 1
    elapsed = (time.perf_counter() - began) * 1000.0
    if collecting:
        gc.enable()
    return elapsed


def calibrate(ticks: int = 15) -> float:
    """Median of a burst of ticks: ``calib_ms``, printed around each workload."""
    return statistics.median(tick() for _ in range(ticks))


class SpeedLog:
    """Ticks taken during a run, and the scale factor for any interval."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._ticks: List[float] = []
        self._write_times: List[float] = []
        self._write_ticks: List[float] = []
        self._device: Optional[BinaryIO] = None

    def tick(self, count: int = 1) -> None:
        for _ in range(count):
            value = tick()
            self._times.append(time.perf_counter())
            self._ticks.append(value)

    def write_tick(self) -> None:
        """One CPU tick (it counts as one) plus one device tick on a scratch
        file inside the checkout, opened on first use, removed by :meth:`close`."""
        if self._device is None:
            directory = OUT_DIR / "tmp"
            directory.mkdir(parents=True, exist_ok=True)
            self._device = open(directory / f"device-tick-{os.getpid()}", "wb")
        self.tick()
        began = time.perf_counter()
        for _ in range(DEVICE_SYNCS):
            self._device.write(b"x" * 64)
            self._device.flush()
            os.fsync(self._device.fileno())
        ended = time.perf_counter()
        self._write_times.append(ended)
        self._write_ticks.append(self._ticks[-1] + DEVICE_WEIGHT * (ended - began) * 1000.0)

    def close(self) -> None:
        if self._device is not None:
            self._device.close()
            os.unlink(self._device.name)
            self._device = None

    def factor(self, began: float, ended: float) -> float:
        """``REFERENCE_TICK_MS`` over the median tick taken in ``[began, ended]``
        plus the two nearest ticks on either side."""
        return _factor(self._times, self._ticks, began, ended, REFERENCE_TICK_MS)

    def write_factor(self, began: float, ended: float) -> float:
        """The same over the write ticks, for acks of the durable store."""
        return _factor(self._write_times, self._write_ticks, began, ended, REFERENCE_WRITE_TICK_MS)

    def summary(self) -> Tuple[float, float, int]:
        """(median tick ms, quartile spread of the ticks, count)."""
        if len(self._ticks) < 2:
            return (self._ticks[0] if self._ticks else 0.0, 0.0, len(self._ticks))
        q1, median, q3 = statistics.quantiles(self._ticks, n=4)
        return median, (q3 - q1) / median, len(self._ticks)


def _factor(times: List[float], ticks: List[float], began: float, ended: float, reference: float) -> float:
    if not ticks:
        return 1.0
    lo = max(0, bisect_left(times, began) - 2)
    hi = min(len(ticks), bisect_left(times, ended) + 2)
    return reference / statistics.median(ticks[lo:max(hi, lo + 1)])
