"""A stopwatch that reads in reference seconds, steady on a shared host.

The benchmark's host is a shared virtual machine whose speed changes by up
to 2x, every few milliseconds to minutes, with the load of its neighbours.
A slow stretch can last a whole run, so no statistic over one run's samples
removes it. ``RefClock`` measures the host's speed next to the work instead:
it splits the timed work into short segments and, between two segments,
runs a fixed calibration chunk of work like a round's. Each segment's raw
duration is scaled by ``REF_NS`` over the mean chunk time just before and
just after it, so a reading is the time the segment would have taken on a
host where the chunk takes exactly ``REF_NS``. The calibration time itself is
never part of a segment.

The chunk is independent of ``suitgraph``: a change to the library leaves it
alone, so a faster library reads faster. Work that keeps running between
segments (a background thread, say) would slow the chunk and make the
segments read faster than they are; the benchmark's workloads run on one
thread.
"""

from __future__ import annotations

import time

# the calibration chunk's time on the reference host; every reading is scaled
# to a host on which the chunk takes exactly this long
REF_NS = 1_000_000

# a campaign round shorter than this does not end a segment by itself: the
# round timer ends one at the first round boundary after this much raw time.
# The round right after a chunk runs about 2x slower on household (its caches
# are cold), so segments are long enough that under 1% of its rounds do
LAP_NS = 20_000_000

# best of this many chunks per calibration, which drops a chunk that was
# preempted part-way
CHUNK_REPEATS = 3


class _Item:
    __slots__ = ("p", "rank")

    def __init__(self, p: float, rank: int):
        self.p = p
        self.rank = rank

    def weight(self, x: float) -> float:
        return self.p * x + self.rank


# 60 records in the shape of a trial log's rows, fixed for every run
_ROWS = [{"target": f"t{i % 12}", "model": f"m{i % 9}", "p": (i * 7919 % 1000) / 1000.0,
          "n": [i, i + 1]} for i in range(60)]


def _chunk() -> int:
    """Fixed work of the kinds the library's rounds do, with builtins only.

    Sorting records by key, building small objects and calling their
    methods, formatting floats into text and building dictionaries. A
    tight loop of dict stores and integer arithmetic tracked the host less
    well: see "Reference clock" in README.md.
    """
    out = 0
    for _ in range(8):
        rows = sorted(_ROWS, key=lambda r: (r["p"], r["model"]))
        items = [_Item(r["p"], i) for i, r in enumerate(rows)]
        out += int(sum(item.weight(0.5) for item in items))
        text = "|".join(f"{r['target']}:{r['model']}:{r['p']:.6g}:{r['n'][0]}" for r in rows)
        out += len(text)
        index = {(r["target"], r["model"]): r["p"] for r in rows}
        out += len(index)
        out += len(repr([item.p for item in items]))
    return out


def calibrate() -> int:
    """Nanoseconds of the fastest of ``CHUNK_REPEATS`` chunks, run now."""
    best = None
    for _ in range(CHUNK_REPEATS):
        t0 = time.perf_counter_ns()
        _chunk()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None or dt < best else best
    return best


class RefClock:
    """Segment stopwatch in reference seconds.

    ``lap()`` ends the current segment, adds its reference duration to
    ``total_s`` and scales the raw latencies ``record()``-ed during it into
    ``samples_ns``. A new segment starts when ``lap()`` returns.
    """

    def __init__(self):
        _chunk()  # untimed: warms the chunk's bytecode
        self.total_s = 0.0
        self.samples_ns: list[float] = []
        self.raw_ns = 0
        self._pending: list[int] = []
        self._before = calibrate()
        self._t = time.perf_counter_ns()

    def due(self) -> bool:
        """Whether the open segment has run for ``LAP_NS`` or more."""
        return time.perf_counter_ns() - self._t >= LAP_NS

    def record(self, raw_ns: int) -> None:
        """Add a raw latency measured inside the open segment."""
        self._pending.append(raw_ns)

    def lap(self) -> None:
        """End the open segment and start the next."""
        raw = time.perf_counter_ns() - self._t
        after = calibrate()
        scale = 2 * REF_NS / (self._before + after)
        self._before = after
        self.samples_ns.extend(ns * scale for ns in self._pending)
        self._pending.clear()
        self.raw_ns += raw
        self.total_s += raw * scale / 1e9
        self._t = time.perf_counter_ns()


class RawClock(RefClock):
    """The same interface in raw seconds, with no calibration (traced runs)."""

    def __init__(self):
        self.total_s = 0.0
        self.samples_ns = []
        self.raw_ns = 0
        self._pending = []
        self._t = time.perf_counter_ns()

    def due(self) -> bool:
        return False

    def lap(self) -> None:
        now = time.perf_counter_ns()
        raw = now - self._t
        self.samples_ns.extend(self._pending)
        self._pending.clear()
        self.raw_ns += raw
        self.total_s += raw / 1e9
        self._t = now
