"""Outside-in span tracing of the suitgraph layers.

The tracer replaces public entry points of each layer module with thin
wrappers for as long as it is installed, and puts the originals back on
uninstall. The library itself is not modified, so a traced run executes the
same code in the same order and must produce the same bytes.

Spans live in compact in-memory columns (name, start, end, parent, round)
and are written out once, at the end of the run. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array

import numpy as np

from suitgraph import canonical, simulate, suitability
from suitgraph.ontology import ClassHierarchy
from suitgraph.store import KnowledgeBase

# span name -> (owner, attribute); span names carry their layer as the prefix
WRAPPED = {
    "simulate.campaign": (simulate, "run_campaign"),
    "simulate.execute": (simulate, "simulate_execution"),
    "simulate.baseline_select": (simulate, "baseline_select"),
    "suitability.round": (suitability, "generalise_execution_model"),
    "suitability.graph_from_store": (suitability, "graph_from_store"),
    "suitability.update_posteriors": (suitability, "update_posteriors"),
    "suitability.beta": (suitability, "success_probability"),
    "suitability.select": (suitability, "select_model"),
    "ontology.object_cluster": (ClassHierarchy, "object_cluster"),
    "ontology.wup": (ClassHierarchy, "wup_similarity"),
    "ontology.checksum": (ClassHierarchy, "checksum"),
    "store.query": (KnowledgeBase, "query"),
    "store.append": (KnowledgeBase, "append"),
    "store.set_posterior": (KnowledgeBase, "set_posterior"),
    "store.export_json": (KnowledgeBase, "export_json"),
    "store.save": (KnowledgeBase, "save"),
    "store.load": (KnowledgeBase, "load"),
    "canonical.dumps": (canonical, "dumps"),
}

# run_campaign reaches the round through its own module's global name
ALIASES = {"suitability.round": [(simulate, "generalise_execution_model")]}

LAYERS = ("ontology", "suitability", "store", "simulate", "canonical")


class Tracer:
    """Collects spans from wrapped entry points and from ``span()`` blocks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.round = array("i")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.rounds = 0
        self.wup_pairs: set[tuple[str, str]] = set()
        self.wup_distinct = 0
        self.graph_candidates = 0
        self.out_bytes: dict[str, int] = {}
        self.saved_bytes = 0

    # -- span recording --------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.round.append(self.rounds)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a call the benchmark makes itself."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        observe = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # per-entry-point counters, recorded where the work happens

    def _after_suitability_round(self, args, result):
        self.rounds += 1

    def _after_suitability_graph_from_store(self, args, graph):
        self.graph_candidates += len(graph.candidates)

    def _after_ontology_wup(self, args, result):
        self.wup_pairs.add((args[1], args[2]))

    def _after_canonical_dumps(self, args, text):
        self.count_bytes("canonical.dumps", text)

    def _after_store_export_json(self, args, text):
        self.count_bytes("store.export_json", text)

    def _after_store_save(self, args, result):
        self.saved_bytes += os.path.getsize(args[1])

    def end_unit(self) -> None:
        """Count distinct similarity pairs per unit of work, not per run."""
        self.wup_distinct += len(self.wup_pairs)
        self.wup_pairs.clear()

    def count_bytes(self, name: str, text: str) -> None:
        """Add the encoded size of ``text`` to the output of span ``name``."""
        self.out_bytes[name] = self.out_bytes.get(name, 0) + len(text.encode("utf-8"))

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for name, (owner, attr) in WRAPPED.items():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__))
            else:
                replacement = self._wrap(name, raw)
            for o, a in [(owner, attr)] + ALIASES.get(name, []):
                self._saved.append((o, a, o.__dict__[a]))
                setattr(o, a, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self time in seconds."""
        n = len(self.start)
        if n == 0:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Dump every span as numpy columns plus the name table."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            round=np.frombuffer(self.round, dtype=np.int32),
        )


class RoundTimer:
    """Latency of each campaign round, with no span bookkeeping.

    Rounds are timed into a ``refclock`` clock. A round that starts after
    the clock's segment has run long enough ends that segment first, so
    calibration falls between rounds, never inside one.
    """

    def __init__(self, clock):
        self.clock = clock
        self._original = None

    def install(self) -> None:
        original = self._original = simulate.generalise_execution_model
        clock = self.clock
        now = time.perf_counter_ns

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if clock.due():
                clock.lap()
            t0 = now()
            result = original(*args, **kwargs)
            clock.record(now() - t0)
            return result

        simulate.generalise_execution_model = timed

    def uninstall(self) -> None:
        simulate.generalise_execution_model = self._original


class NullTracer:
    """Stands in for Tracer in untraced units; records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count_bytes(self, name: str, text: str) -> None:
        pass
