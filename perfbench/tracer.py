"""Per-layer spans recorded from outside the program.

A :class:`Tracer` wraps public entry points of the ``repro`` layers
(class methods and module functions) for the duration of a ``with
tracer.installed(layers):`` block and restores the originals on exit.
Every wrapped call is one span named ``<layer>.<function>``; spans nest
on a single stack, and a span's *self time* is its duration minus the
time of the spans opened inside it.  A layer's self time is the sum
over its span names.  Only aggregates are kept in memory (calls, total
time, self time and named counters per span name); they are read out
at the end of the run.

Nothing under ``src/`` knows it is being traced.  Methods are patched
on their classes before the objects that use them are built, because
several hot paths cache bound methods at construction time.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from pathlib import Path

#: Layer -> list of (owner, attribute, kind) patched by :meth:`Tracer.installed`.
#: ``owner`` is a dotted import path of a module or class; ``kind`` is
#: ``"method"``, ``"classmethod"``, ``"function"`` or ``"async"``.
#: The configured victim selector is added per run (its class is only
#: known once the config is resolved), see :meth:`Tracer.add_selector`.
LAYER_ENTRY_POINTS: dict[str, list[tuple[str, str, str]]] = {
    "uts": [
        ("repro.uts.tree.TreeGenerator", "children_list", "method"),
        ("repro.uts.stack.ChunkedStack", "expand_quantum", "method"),
        ("repro.uts.stack.ChunkedStack", "expand_quanta", "method"),
    ],
    "net": [
        # build_placement is imported by name into both engines.
        ("repro.net.allocation", "build_placement", "function"),
        ("repro.sim.cluster", "build_placement", "function"),
        ("repro.sim.shard", "build_placement", "function"),
        ("repro.net.pairwise.PairwiseMetric", "row", "method"),
        ("repro.net.pairwise.PairwiseMetric", "value", "method"),
    ],
    "protocol": [
        ("repro.protocol.core.StealProtocol", "on_message", "method"),
        ("repro.protocol.core.StealProtocol", "on_idle", "method"),
        ("repro.protocol.core.StealProtocol", "serve_pending", "method"),
    ],
    "sim": [
        ("repro.sim.cluster.Cluster", "run", "method"),
        ("repro.sim.shard.ShardedCluster", "run", "method"),
    ],
    "ws": [
        ("repro.ws.results.RunResult", "from_outcome", "classmethod"),
        ("repro.ws.results.RunResult", "latency_profile", "method"),
    ],
    "exec": [
        # The service imports fingerprint_dict by name.
        ("repro.service.service", "fingerprint_dict", "function"),
        ("repro.exec.pool.WorkerPool", "submit", "method"),
    ],
    "service": [
        ("repro.service.service.SimulationService", "submit", "async"),
    ],
    "store": [
        ("repro.service.store.ArtifactStore", "get", "method"),
        ("repro.service.store.ArtifactStore", "put", "method"),
        ("repro.service.store.ArtifactStore", "evict", "method"),
    ],
}


def _count_evicted(stats: "SpanStats", evicted) -> None:
    stats.add("evictions", len(evicted))


def _count_written(stats: "SpanStats", path) -> None:
    stats.add("bytes_written", Path(path).stat().st_size)


def _time_round_trip(stats: "SpanStats", future) -> None:
    """Pool round trip minus the worker-side ``elapsed`` it reports."""
    start = time.perf_counter()

    def done(fut):
        if fut.cancelled() or fut.exception() is not None:
            return
        overhead = time.perf_counter() - start - fut.result()[2]
        with stats.lock:
            stats.add("round_trips", 1)
            stats.add("pool_overhead_s", overhead)

    future.add_done_callback(done)


#: (owner, attribute) -> hook(stats, return value), run after the span.
POST_HOOKS = {
    ("repro.service.store.ArtifactStore", "evict"): _count_evicted,
    ("repro.service.store.ArtifactStore", "put"): _count_written,
    ("repro.exec.pool.WorkerPool", "submit"): _time_round_trip,
}

#: Layers of a simulation run and of a service run.
SIM_LAYERS = ("uts", "net", "select", "protocol", "sim", "ws")
SERVICE_LAYERS = ("exec", "service", "store")


def _resolve(path: str):
    """Import ``a.b.C`` as module ``a.b`` attribute ``C`` (or a module)."""
    import importlib

    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


class SpanStats:
    """Aggregates of one span name: calls, total and self seconds."""

    __slots__ = ("calls", "total_s", "self_s", "counters", "lock")

    def __init__(self):
        #: Guards counters updated from executor callback threads.
        self.lock = threading.Lock()
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def merge(self, other: dict) -> None:
        self.calls += other["calls"]
        self.total_s += other["total_s"]
        self.self_s += other["self_s"]
        for key, value in other["counters"].items():
            self.add(key, value)

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "counters": dict(self.counters),
        }


class Tracer:
    """In-memory span aggregator with install/restore of layer wrappers."""

    def __init__(self):
        #: Span name (``<layer>.<function>``) -> aggregates.
        self.spans: dict[str, SpanStats] = {}
        #: One child-time accumulator per open span.
        self._open: list[float] = []
        self._extra: list[tuple[str, str, str]] = []

    def reset(self) -> None:
        """Zero every aggregate in place (installed wrappers hold the
        :class:`SpanStats` objects and the span stack)."""
        self._open.clear()
        for stats in self.spans.values():
            stats.calls = 0
            stats.total_s = 0.0
            stats.self_s = 0.0
            stats.counters.clear()

    def stats(self, name: str) -> SpanStats:
        """Aggregates of span ``name`` (created empty on first use)."""
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        return stats

    def layer_self_s(self, layer: str) -> float:
        """Self seconds summed over every span name of ``layer``."""
        prefix = layer + "."
        return sum(
            s.self_s for name, s in self.spans.items() if name.startswith(prefix)
        )

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _close(self, stats: SpanStats, start: float) -> None:
        elapsed = time.perf_counter() - start
        child = self._open.pop()
        stats.calls += 1
        stats.total_s += elapsed
        stats.self_s += elapsed - child
        if self._open:
            self._open[-1] += elapsed

    @contextlib.contextmanager
    def span(self, name: str):
        stats = self.stats(name)
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield stats
        finally:
            self._close(stats, start)

    def wrap(self, name: str, fn, post=None):
        """Synchronous wrapper: one ``name`` span per call of ``fn``;
        ``post(stats, result)`` runs after the span closes."""
        stats = self.stats(name)
        open_ = self._open
        clock = time.perf_counter
        close = self._close

        if post is None:

            def traced(*args, **kwargs):
                open_.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(stats, start)

        else:

            def traced(*args, **kwargs):
                open_.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(stats, start)
                post(stats, result)
                return result

        traced.__wrapped__ = fn
        return traced

    def wrap_async(self, name: str, fn):
        """Coroutine wrapper; valid for coroutines that never suspend
        mid-span (``SimulationService.submit`` awaits nothing), so the
        span stack stays properly nested under the event loop."""
        stats = self.stats(name)
        open_ = self._open
        clock = time.perf_counter
        close = self._close

        async def traced(*args, **kwargs):
            open_.append(0.0)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                close(stats, start)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------

    def add_selector(self, selector_cls: type) -> None:
        """Trace ``next_victim`` of the run's configured selector class."""
        path = f"{selector_cls.__module__}.{selector_cls.__qualname__}"
        self._extra = [(path, "next_victim", "method")]

    @contextlib.contextmanager
    def installed(self, layers):
        """Patch the entry points of ``layers``; restore them on exit."""
        patches = []
        for layer in layers:
            points = list(LAYER_ENTRY_POINTS.get(layer, ()))
            if layer == "select":
                points += self._extra
            for owner_path, attr, kind in points:
                owner = _resolve(owner_path)
                # Restore by deleting when the attribute was inherited.
                own = not isinstance(owner, type) or attr in owner.__dict__
                original = (
                    owner.__dict__[attr]
                    if isinstance(owner, type) and own
                    else getattr(owner, attr)
                )
                name = f"{layer}.{attr}"
                post = POST_HOOKS.get((owner_path, attr))
                if kind == "classmethod":
                    wrapped = classmethod(self.wrap(name, original.__func__))
                elif kind == "async":
                    wrapped = self.wrap_async(name, original)
                else:
                    wrapped = self.wrap(name, original, post)
                setattr(owner, attr, wrapped)
                patches.append((owner, attr, original if own else None))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    @contextlib.contextmanager
    def shard_children(self, workdir: Path):
        """Collect spans from the multiprocess engine's child processes.

        Children are forked with the parent's patched classes, so their
        spans are recorded; this wraps the child entry function so each
        child writes its aggregates to ``workdir`` when it exits.
        :meth:`merge_children` folds them in afterwards.
        """
        import repro.sim.shard as shard

        original = shard._shard_worker_main
        tracer = self

        def child_main(*args, **kwargs):
            tracer.reset()  # drop what the parent had recorded before fork
            try:
                original(*args, **kwargs)
            finally:
                out = workdir / f"child-{os.getpid()}.json"
                out.write_text(json.dumps(tracer.snapshot()))

        shard._shard_worker_main = child_main
        try:
            yield
        finally:
            shard._shard_worker_main = original

    def merge_children(self, workdir: Path) -> float:
        """Fold in child aggregates written by :meth:`shard_children`;
        return the children's summed self time (all their spans)."""
        child_self_s = 0.0
        for path in sorted(workdir.glob("child-*.json")):
            for name, data in json.loads(path.read_text()).items():
                self.stats(name).merge(data)
                child_self_s += data["self_s"]
            path.unlink()
        return child_self_s

    def snapshot(self) -> dict:
        return {name: stats.as_dict() for name, stats in self.spans.items()}
