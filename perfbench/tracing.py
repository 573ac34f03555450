"""In-memory span tracing of the program's layers, from outside the program.

The benchmark wraps the public entry points of each layer (see ``LAYERS``)
with a timing shim, so nothing under ``src/`` knows it is being traced.
Every call becomes one span: a name, a start and an end in
``perf_counter_ns`` and the span that was open when it started (its
parent).  Spans live in flat ``array`` columns while the traced operation
runs and are written out once, at the end (:meth:`SpanRecorder.dump`).

A layer's *self time* is its span's duration minus the part of that
interval covered by its direct child spans (:func:`self_times`), so
``dbm.close`` called from inside ``successors`` counts for closure, not
twice.

Coroutines (the serve layer's HTTP reads/writes) interleave on one thread,
so their spans are recorded flat: they take no part in the parent stack.
Forked children (shard workers) inherit the shims but record nothing --
they are measured from the coordinator, through statistics counters and
rusage.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import sys
import threading
import time
from array import array

#: (span name, module, qualified attribute) of every traced entry point.
#: Functions are re-bound in every loaded ``repro`` module that imported
#: them by name, so ``from x import f`` call sites are traced too.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("arch.build", "repro.arch.generator", "build_model"),
    ("arch.compile", "repro.arch.generator", "GeneratedModel.compile"),
    ("reachability.explore", "repro.core.reachability", "Explorer.explore"),
    ("reachability.explore", "repro.core.shard", "ShardedExplorer.explore"),
    ("successors", "repro.core.successors", "SuccessorGenerator.successors"),
    ("successors", "repro.core.successors", "SuccessorGenerator.block_successors"),
    ("dbm.close", "repro.core.dbm", "DBM.close"),
    ("dbm.close", "repro.core.dbm", "DBMStack.close"),
    ("dbm.extrapolate", "repro.core.successors", "SuccessorGenerator.extrapolate"),
    ("dbm.extrapolate", "repro.core.successors", "SuccessorGenerator.extrapolate_stack"),
    ("federation.covers", "repro.core.federation", "Federation.covers"),
    ("federation.covers", "repro.core.federation", "Federation.covers_many"),
    ("federation.insert", "repro.core.federation", "Federation.add"),
    ("federation.insert", "repro.core.federation", "Federation.add_uncovered"),
    ("federation.insert", "repro.core.federation", "Federation.add_many_uncovered"),
    ("federation.insert", "repro.core.federation", "Federation.add_many"),
    ("federation.evict", "repro.core.federation", "Federation._evict_covered"),
    ("symmetry.canonicalize", "repro.core.symmetry", "SymmetrySpec.canonicalize"),
    ("oracle.check", "repro.diffcheck.oracle", "check_model"),
    ("oracle.symta", "repro.baselines.symta.analysis", "analyze"),
    ("oracle.mpa", "repro.baselines.mpa.analysis", "analyze"),
    ("oracle.des", "repro.baselines.des.simulator", "simulate"),
    ("oracle.ta", "repro.arch.analysis", "analyze_wcrt"),
    ("witness", "repro.diffcheck.oracle", "witness_model"),
    ("http.read", "repro.serve.http", "read_request"),
    ("http.write", "repro.serve.http", "write_response"),
    ("cache.get", "repro.serve.cache", "ResultCache.get"),
    ("cache.put", "repro.serve.cache", "ResultCache.put"),
)


class SpanRecorder:
    """Flat, append-only span store plus the shims that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        #: ``(span index, return value)`` of spans whose result is kept
        self.results: list[tuple[int, object]] = []
        #: ``(span index, evicted row count)`` of ``federation.evict`` spans
        self.evicted: list[tuple[int, int]] = []
        #: entry points that were not found (a renamed layer reads as 0)
        self.missing: list[str] = []
        self.enabled = False
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.enabled = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [-1]
        return stack

    def add_span(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Record one finished span directly (used by tests and async shims)."""
        self.name_id.append(self._id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.start) - 1

    # -- shims --------------------------------------------------------------
    def _sync_shim(self, name: str, fn, keep_result: bool):
        recorder = self
        nid = self._id(name)
        clock = time.perf_counter_ns
        evict = name == "federation.evict"

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            index = len(recorder.start)
            recorder.name_id.append(nid)
            recorder.parent.append(stack[-1])
            recorder.end.append(0)
            stack.append(index)
            recorder.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end[index] = clock()
                stack.pop()
            if keep_result:
                recorder.results.append((index, result))
            if evict:
                recorder.evicted.append((index, int(args[1].sum())))
            return result

        return shim

    def _async_shim(self, name: str, fn):
        recorder = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        async def shim(*args, **kwargs):
            if not recorder.enabled:
                return await fn(*args, **kwargs)
            started = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.add_span(name, started, clock())

        return shim

    def install(self) -> None:
        """Wrap every entry point in ``LAYERS``; missing ones are listed, not fatal."""
        import importlib

        self.missing = []
        for name, module_name, attr in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None or (owner_path and leaf not in vars(owner)):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if inspect.iscoroutinefunction(original):
                shim = self._async_shim(name, original)
            else:
                shim = self._sync_shim(name, original,
                                       keep_result=name == "reachability.explore")
            self._patch(owner, leaf, shim)
            if not owner_path:
                # rebind ``from module import fn`` aliases in loaded modules
                for other in list(sys.modules.values()):
                    if (other is not None and other is not module
                            and getattr(other, "__name__", "").startswith("repro")
                            and vars(other).get(leaf) is original):
                        self._patch(other, leaf, shim)

    def _patch(self, owner, leaf: str, shim) -> None:
        self._restore.append((owner, leaf, vars(owner)[leaf]))
        setattr(owner, leaf, shim)

    def uninstall(self) -> None:
        """Put every original entry point back."""
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def clear(self) -> None:
        """Forget every recorded span."""
        for column in (self.name_id, self.start, self.end, self.parent):
            del column[:]
        self.results.clear()
        self.evicted.clear()

    # -- output --------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for i in range(len(self.start)):
                handle.write(json.dumps({
                    "i": i, "name": self.names[self.name_id[i]],
                    "start_ns": self.start[i], "end_ns": self.end[i],
                    "parent": self.parent[i],
                }, separators=(",", ":")) + "\n")


def self_times(start, end, parent) -> list[int]:
    """Per-span self time: duration minus the union of its children's spans.

    Children are clipped to their parent's interval, and overlapping
    children count once, so the result never goes negative.
    """
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        if parent[i] >= 0:
            children.setdefault(parent[i], []).append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0
        cursor = lo
        for k in sorted(kids, key=lambda k: start[k]):
            a, b = max(start[k], cursor), min(end[k], hi)
            if b > a:
                covered += b - a
                cursor = b
        out[p] -= covered
    return out


def summarize(recorder: SpanRecorder) -> dict[str, dict]:
    """Calls, total and self nanoseconds per span name."""
    names = recorder.names
    start, end = recorder.start, recorder.end
    own = self_times(start, end, recorder.parent)
    out: dict[str, dict] = {}
    for i, nid in enumerate(recorder.name_id):
        entry = out.setdefault(names[nid], {"calls": 0, "total_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["total_ns"] += end[i] - start[i]
        entry["self_ns"] += own[i]
    return out


def has_ancestor(recorder: SpanRecorder, index: int, name: str) -> bool:
    """True when a span named *name* encloses span *index*."""
    target = recorder._ids.get(name)
    p = recorder.parent[index]
    while p >= 0:
        if recorder.name_id[p] == target:
            return True
        p = recorder.parent[p]
    return False
