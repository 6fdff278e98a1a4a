"""Span tracing from outside the program: class-level wrappers only.

Every layer is measured by replacing a *class* attribute (or, for the
gap-fill counter, a module-level name) with a thin wrapper while a
:class:`Tracer` is installed, and restoring the original afterwards.
Instances are never touched: ``NVMMainMemory.issue_path`` tests
``"issue" in self.__dict__`` and drops every burst off its batched fast
path when it finds an instance-level ``issue``, so an instance tap would
move traffic onto a different code path from the one being measured.

A span records ``(id, parent, name, start, end, request)``.  Spans stay in
memory and are written as JSONL once the run is over.  A layer's *self
time* is its spans' duration minus the time covered by their child spans,
so the self times of all layers plus the driver's root span sum to the
traced wall time.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: ``(span name, module, class, method, unit counter)``.  The unit counter,
#: when given, maps the call's positional arguments (``self`` included) to
#: the units of work it performs, accumulated under the span name.
_SPAN_POINTS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("sim.step", "repro.sim.system", "SimulatedSystem", "step", None),
    ("cache.reference", "repro.cache.hierarchy", "CacheHierarchy", "reference", None),
    ("sched.access", "repro.engine.sched", "WindowScheduler", "access", None),
    ("engine.access", "repro.engine.base", "AccessEngine", "access", None),
    ("oram.tree", "repro.oram.tree", "ORAMTree", "read_path", None),
    ("oram.tree", "repro.oram.tree", "ORAMTree", "write_path", None),
    ("oram.codec_encode", "repro.oram.block", "BlockCodec", "encode", None),
    ("oram.codec_encode", "repro.oram.block", "BlockCodec", "encode_path", None),
    ("oram.codec_decode", "repro.oram.block", "BlockCodec", "decode", None),
    ("oram.codec_decode", "repro.oram.block", "BlockCodec", "decode_path", None),
    ("oram.codec_decode", "repro.oram.block", "BlockCodec", "decode_header", None),
    ("crypto.encrypt", "repro.crypto.ctr", "CtrCipher", "encrypt", lambda a: 1),
    ("crypto.encrypt", "repro.crypto.ctr", "CtrCipher", "encrypt_batch", lambda a: len(a[1])),
    ("crypto.decrypt", "repro.crypto.ctr", "CtrCipher", "decrypt", lambda a: 1),
    ("crypto.decrypt", "repro.crypto.ctr", "CtrCipher", "decrypt_batch", lambda a: len(a[1])),
    ("mem.issue_path", "repro.mem.controller", "NVMMainMemory", "issue_path", lambda a: len(a[1])),
    ("mem.issue", "repro.mem.controller", "NVMMainMemory", "issue", None),
    ("integrity.commit", "repro.integrity.domain", "IntegrityDomain", "on_persist_commit", None),
    ("integrity.authenticate", "repro.integrity.domain", "IntegrityDomain", "begin_recovery", None),
    ("integrity.reseal", "repro.integrity.domain", "IntegrityDomain", "finish_recovery", None),
    ("serve.execute_batch", "repro.serve.worker", "ShardWorker", "execute_batch", None),
    ("apps.kv_get", "repro.apps.kvstore", "ObliviousKVStore", "get", None),
    ("apps.kv_put", "repro.apps.kvstore", "ObliviousKVStore", "put", None),
)

#: Methods counted (units only, no span): their time stays with the caller.
_COUNT_POINTS: Tuple[Tuple[str, str, str, str, Callable], ...] = (
    ("sched.drains", "repro.engine.sched", "WindowScheduler", "drain", lambda a: 1),
    # Decrypt units answered from the codec's plaintext memo (no keystream).
    ("oram.memo_decrypt_units", "repro.crypto.engine", "CryptoEngine", "count_decrypt",
     lambda a: a[1]),
)

#: Persistence-policy methods get spans on every concrete policy class the
#: workload actually runs (passed to :meth:`Tracer.install`).
_POLICY_SPANS = (("policy.evict", "evict"), ("policy.recover", "recover"))

ROOT = "driver"


def _defining_class(cls: type, method: str) -> type:
    """The class in ``cls``'s MRO whose ``__dict__`` defines ``method``."""
    for klass in cls.__mro__:
        if method in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no method {method!r}")


class Tracer:
    """In-memory span recorder with class-level install/uninstall.

    Spans are stored column-wise in flat ``array`` buffers of numbers, so
    recording them allocates no objects the cyclic garbage collector has
    to track; otherwise tracing would trigger extra full collections of
    the simulator's large heaps and inflate the very times it measures.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_request = array("q")
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.units: Dict[str, int] = defaultdict(int)
        #: Request id stamped on every span; the workload driver sets it.
        self.request = -1
        # Open spans, innermost last: their ids and the time their
        # children have covered so far.
        self._open_ids = array("q")
        self._open_child_s = array("d")
        self._next_id = 0
        self._restore: List[Tuple[object, str, object]] = []
        self._root_start = 0.0
        self.root_s = 0.0

    # -- wrappers -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def _record(self, span_id: int, parent: int, name_id: int, start: float, end: float) -> None:
        self.span_id.append(span_id)
        self.span_parent.append(parent)
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_request.append(self.request)

    def _span(self, name: str, fn: Callable, units: Optional[Callable]) -> Callable:
        tracer = self
        perf = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        unit_totals = self.units
        open_ids = self._open_ids
        open_child = self._open_child_s
        record = self._record
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = open_ids[-1] if open_ids else -1
            open_ids.append(span_id)
            open_child.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                open_ids.pop()
                child = open_child.pop()
                duration = end - start
                self_s[name] += duration - child
                calls[name] += 1
                if units is not None:
                    unit_totals[name] += units(args)
                if open_child:
                    open_child[-1] += duration
                record(span_id, parent, name_id, start, end)

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, fn: Callable, units: Callable) -> Callable:
        unit_totals = self.units

        def counted(*args, **kwargs):
            unit_totals[name] += units(args)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, policy_classes=()) -> "Tracer":
        """Wrap every traced class method and the gap-fill counter."""
        import importlib

        for name, module, cls_name, method, units in _SPAN_POINTS:
            cls = _defining_class(getattr(importlib.import_module(module), cls_name), method)
            self._patch(cls, method, self._span(name, cls.__dict__[method], units))
        for name, module, cls_name, method, units in _COUNT_POINTS:
            cls = _defining_class(getattr(importlib.import_module(module), cls_name), method)
            self._patch(cls, method, self._counter(name, cls.__dict__[method], units))
        wrapped = set()
        for policy_cls in policy_classes:
            for name, method in _POLICY_SPANS:
                cls = _defining_class(policy_cls, method)
                if (cls, method) in wrapped:
                    continue
                wrapped.add((cls, method))
                self._patch(cls, method, self._span(name, cls.__dict__[method], None))
        # Gap-fill insertions: NVMMainMemory.issue/issue_path call the
        # calendar helper through repro.mem.controller's module namespace.
        mem_controller = importlib.import_module("repro.mem.controller")
        self._patch(
            mem_controller,
            "reserve_interval",
            self._counter("mem.gapfill", mem_controller.reserve_interval, lambda a: 1),
        )
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- root span --------------------------------------------------------------

    def open_root(self) -> None:
        """Open the driver's span: everything not inside a layer is driver time."""
        if self._open_ids:
            raise RuntimeError("root span opened inside another span")
        self._open_ids.append(self._next_id)
        self._next_id += 1
        self._open_child_s.append(0.0)
        self._root_start = time.perf_counter()

    def close_root(self) -> float:
        """Close the driver's span; returns its wall duration."""
        end = time.perf_counter()
        if len(self._open_ids) != 1:
            raise RuntimeError("spans still open when the root closed")
        span_id = self._open_ids.pop()
        duration = end - self._root_start
        self.self_s[ROOT] += duration - self._open_child_s.pop()
        self.calls[ROOT] += 1
        self._record(span_id, -1, self._name_id(ROOT), self._root_start, end)
        self.root_s = duration
        return duration

    def self_time_gap(self) -> float:
        """|sum of every self time - root wall time| (zero up to rounding)."""
        return abs(sum(self.self_s.values()) - self.root_s)

    def layer_self_s(self, prefix: str) -> float:
        """Summed self time of every span name equal to or under ``prefix``."""
        return sum(
            value for name, value in self.self_s.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def write_jsonl(self, path) -> None:
        """Dump the spans, one JSON object per line, ordered by start."""
        order = sorted(range(len(self.span_id)), key=self.span_start.__getitem__)
        with open(path, "w") as handle:
            for i in order:
                handle.write(json.dumps({
                    "id": self.span_id[i], "parent": self.span_parent[i],
                    "name": self.names[self.span_name[i]],
                    "start": self.span_start[i], "end": self.span_end[i],
                    "request": self.span_request[i],
                }) + "\n")
