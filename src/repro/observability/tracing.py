"""Run-scoped distributed tracing.

A *trace* is identified by the coordination run id (``trace_id == run_id``),
so every span produced on behalf of one run — on the proposer, inside the
transports, on each responder, and in later recovery actions — shares one
trace id regardless of which OS process produced it.  A *span* is one timed
unit of work inside a trace (the run itself, one fan-out leg, the commit
barrier, one responder handling a proposal, a redelivery wave, ...).

Propagation model
-----------------

The ambient span context is a thread-local ``(trace_id, span_id)`` pair.
Producers `activate()` a context around work; the transports stamp the
ambient context onto outgoing :class:`~repro.transport.network.Message`
objects at construction time and re-activate it around handler dispatch on
the receiving side (in-process for the simulator, in-band via an extra
``trace`` key in the wire call envelope for TCP).  The retry scheduler
captures the ambient context when a timer is scheduled and restores it when
the timer fires, so retry waves, redelivery pushes and deadline expiries all
stay attributed to the run that scheduled them.

Everything in this module is dependency-free and cheap: when tracing is
disabled (``runtime.STATE.tracing is None``) instrumented call sites do a
single attribute load and skip all of it.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "SpanCollector",
    "activate",
    "build_tree",
    "call_in_ctx",
    "current_ctx",
    "render_tree",
    "tree_shape",
]

SpanCtx = Tuple[str, str]

_local = threading.local()


def current_ctx() -> Optional[SpanCtx]:
    """The ambient ``(trace_id, span_id)`` pair for this thread, if any."""

    return getattr(_local, "ctx", None)


class _Activation:
    """Context manager pushing a span context onto the thread-local slot."""

    __slots__ = ("_ctx", "_prev")

    def __init__(self, ctx: Optional[SpanCtx]) -> None:
        self._ctx = ctx
        self._prev: Optional[SpanCtx] = None

    def __enter__(self) -> Optional[SpanCtx]:
        self._prev = getattr(_local, "ctx", None)
        _local.ctx = self._ctx
        return self._ctx

    def __exit__(self, *exc: Any) -> None:
        _local.ctx = self._prev


def activate(ctx: Optional[Sequence[str]]) -> _Activation:
    """Activate ``(trace_id, span_id)`` as the ambient context for a block."""

    if ctx is not None and type(ctx) is not tuple:
        # Wire envelopes deliver the context as a JSON list; normalise once.
        ctx = (str(ctx[0]), str(ctx[1]))
    return _Activation(ctx)


def call_in_ctx(ctx: Optional[Sequence[str]], fn: Callable[..., Any], *args: Any) -> Any:
    """Invoke ``fn(*args)`` with ``ctx`` active (or plainly when ``ctx`` is None)."""

    if ctx is None:
        return fn(*args)
    with activate(ctx):
        return fn(*args)


class Span:
    """One timed unit of work inside a trace.

    Spans are mutable until :meth:`end` is called, at which point they are
    handed to their collector.  ``end`` is idempotent.

    :meth:`activate` returns a fresh activation scope each time, so one
    span may be activated again while already ambient on the same thread (a
    run root around ``start()`` and again around a phase that continues
    inline): every scope restores exactly the context it replaced.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end_time",
        "status",
        "attributes",
        "_collector",
        "_ended",
    )

    def __init__(
        self,
        collector: "SpanCollector",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._collector = collector
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.time()
        self.end_time: Optional[float] = None
        self.status = "unset"
        # The span owns the dict it is given (every producer passes a fresh
        # literal); None until the first attribute keeps creation allocation-
        # free on hot paths.
        self.attributes: Optional[Dict[str, Any]] = attributes
        self._ended = False

    @property
    def ctx(self) -> SpanCtx:
        return (self.trace_id, self.span_id)

    def activate(self) -> _Activation:
        """Scope making this span the ambient context: ``with span.activate():``."""
        return _Activation((self.trace_id, self.span_id))

    def set_attribute(self, key: str, value: Any) -> None:
        if self.attributes is None:
            self.attributes = {}
        self.attributes[key] = value

    def end(self, status: str = "ok") -> None:
        if self._ended:
            return
        self._ended = True
        self.end_time = time.time()
        self.status = status
        self._collector._finish(self)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end_time,
            "status": self.status,
            "attributes": dict(self.attributes or {}),
        }


class SpanCollector:
    """Bounded in-process sink for finished spans.

    Span ids are process-unique (``pid-counter``); uniqueness across the
    processes of one deployment follows from the pid component.

    Finished spans are retained as flat tuples of atomic values rather than
    as objects: CPython untracks such tuples from the cyclic garbage
    collector, so a full span buffer adds nothing to GC scan time — which is
    where a long-lived in-process trace sink would otherwise leak overhead
    into every allocation-heavy hot path (measured ~10% on the update loop
    with 10k retained span objects).
    """

    def __init__(self, capacity: int = 10_000) -> None:
        self._spans: deque = deque(maxlen=max(1, int(capacity)))
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._id_prefix = "%x-" % self._pid

    def new_span_id(self) -> str:
        return self._id_prefix + "%x" % next(self._ids)

    def start_span(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent: Optional[Sequence[str]] = None,
        attributes: Optional[Dict[str, Any]] = None,
        use_ambient_parent: bool = True,
    ) -> Span:
        """Start a span.

        Parentage defaults to the ambient context; pass ``parent`` to
        override it or ``use_ambient_parent=False`` to force a root.  The
        trace id defaults to the parent's, then to a fresh one.
        """

        parent_ctx: Optional[SpanCtx]
        if parent is not None:
            # Tuples come from Span.ctx or a wire-normalised context and are
            # already (str, str); anything else is normalised here.
            if type(parent) is not tuple:
                parent = (str(parent[0]), str(parent[1]))
            parent_ctx = parent
        elif use_ambient_parent:
            parent_ctx = current_ctx()
        else:
            parent_ctx = None
        if trace_id is None:
            if parent_ctx is not None:
                trace_id = parent_ctx[0]
            else:
                trace_id = f"trace-{self.new_span_id()}"
        elif type(trace_id) is not str:
            trace_id = str(trace_id)
        parent_id = None
        if parent_ctx is not None and parent_ctx[0] == trace_id:
            parent_id = parent_ctx[1]
        return Span(self, name, trace_id, self.new_span_id(), parent_id, attributes)

    def _finish(self, span: Span) -> None:
        attributes = span.attributes
        record = (
            span.trace_id,
            span.span_id,
            span.parent_id,
            span.name,
            span.start,
            span.end_time,
            span.status,
            tuple(attributes.items()) if attributes else (),
        )
        # deque.append is atomic under the GIL, so the finish path is
        # lock-free; readers snapshot with a retry loop instead.
        self._spans.append(record)

    def _snapshot(self) -> List[tuple]:
        # list(deque) raises RuntimeError if an append rotates the deque
        # mid-copy; retrying is cheaper than making every finish take a lock.
        while True:
            try:
                return list(self._spans)
            except RuntimeError:
                continue

    def spans(self, trace_id: Optional[str] = None) -> List[Dict[str, Any]]:
        records = self._snapshot()
        return [
            {
                "trace_id": record[0],
                "span_id": record[1],
                "parent_id": record[2],
                "name": record[3],
                "start": record[4],
                "end": record[5],
                "status": record[6],
                "attributes": dict(record[7]),
            }
            for record in records
            if trace_id is None or record[0] == trace_id
        ]

    def trace_ids(self) -> List[str]:
        seen: Dict[str, None] = {}
        for record in self._snapshot():
            seen.setdefault(record[0], None)
        return list(seen)

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)

    def export_json(self, trace_id: Optional[str] = None) -> str:
        return json.dumps({"spans": self.spans(trace_id)}, indent=2, sort_keys=True)


# --------------------------------------------------------------------------
# Tree assembly and rendering (shared by the CLI, examples and tests).


def build_tree(
    spans: Iterable[Dict[str, Any]], trace_id: str
) -> List[Dict[str, Any]]:
    """Assemble the span dicts of one trace into a forest of nested nodes.

    Returns root nodes (spans whose parent is absent from the trace), each a
    copy of the span dict with a ``children`` list, ordered by start time.
    """

    members = [dict(span) for span in spans if span.get("trace_id") == trace_id]
    by_id = {span["span_id"]: span for span in members}
    roots: List[Dict[str, Any]] = []
    for span in members:
        span.setdefault("children", [])
    for span in members:
        parent = by_id.get(span.get("parent_id"))
        if parent is not None and parent is not span:
            parent["children"].append(span)
        else:
            roots.append(span)
    def _sort(nodes: List[Dict[str, Any]]) -> None:
        nodes.sort(key=lambda node: (node.get("start") or 0.0, node["name"]))
        for node in nodes:
            _sort(node["children"])
    _sort(roots)
    return roots


def tree_shape(spans: Iterable[Dict[str, Any]], trace_id: str) -> Any:
    """A timing-free normal form of a trace: ``(name, status, children)``.

    Children are sorted by (name, status) so two runs of the same protocol
    compare equal regardless of scheduling order or transport.
    """

    def _shape(node: Dict[str, Any]) -> Any:
        children = tuple(sorted(_shape(child) for child in node["children"]))
        return (node["name"], node["status"], children)

    return tuple(sorted(_shape(root) for root in build_tree(spans, trace_id)))


def render_tree(spans: Iterable[Dict[str, Any]], trace_id: str) -> str:
    """Render a trace as an indented ASCII tree with durations."""

    lines = [f"trace {trace_id}"]

    def _render(node: Dict[str, Any], prefix: str, last: bool) -> None:
        connector = "`-- " if last else "|-- "
        start, end = node.get("start"), node.get("end")
        took = f" ({(end - start) * 1000.0:.1f}ms)" if start and end else ""
        lines.append(f"{prefix}{connector}{node['name']} [{node['status']}]{took}")
        child_prefix = prefix + ("    " if last else "|   ")
        children = node["children"]
        for index, child in enumerate(children):
            _render(child, child_prefix, index == len(children) - 1)

    roots = build_tree(spans, trace_id)
    for index, root in enumerate(roots):
        _render(root, "", index == len(roots) - 1)
    return "\n".join(lines)
