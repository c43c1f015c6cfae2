"""Span tracer that wraps public entry points of ``repro`` from outside.

The benchmark may not edit the program, so layer boundaries are observed by
replacing each function named in an *entry table* with a timing wrapper --
in every ``repro.*`` module namespace and class ``__dict__`` where that
function object is bound (``from repro.codec import encode_text`` rebinding
included) -- and restoring the originals on :meth:`Tracer.uninstall`.

Every call updates its entry's aggregates (calls, total, self time, units).
The span stack is the interpreter's own: each wrapper frame holds its
parent's child-time accumulator while its own is the thread's current one.
That is all the hot path does, because each microsecond in it is paid some
five hundred times per 8-party update.  Span *records* ``(entry, start ns,
end ns, op index)`` are appended only for the first ``SPAN_OPS`` operations
(enough to render trees), for spans with no parent on their thread and for
entries marked ``keep_spans``; :meth:`Tracer.spans` turns them into ``(id,
parent id, entry, start ns, end ns, op index)`` afterwards, the parent being
the span that encloses it on the same thread.

A span that starts on a thread with an empty stack while an operation is
open on the driving thread (pool workers running a fan-out the driver waits
for) is *adopted* by the driver's innermost open span, so its time is taken
out of the waiting parent instead of being counted twice.  Self time is a
span's duration minus its children's durations; summed over an operation's
tree it telescopes to the root's duration, which is what the ledger closure
check relies on.  Spans with no operation to belong to (server threads of
the wire peer) are roots of their own; the peer derives its busy time from
them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``units(args, kwargs, result) -> int``: optional work measure of one call
#: (bytes encoded, frame bytes), summed per entry.
Units = Callable[[tuple, dict, Any], int]


@dataclass(frozen=True)
class EntryPoint:
    """One traced function: ``module:Class.method`` or ``module:function``."""

    name: str
    layer: str
    units: Optional[Units] = None
    #: Keep this entry's span records for every operation, not just the first.
    keep_spans: bool = False

    @property
    def module(self) -> str:
        return self.name.split(":", 1)[0]

    @property
    def path(self) -> List[str]:
        return self.name.split(":", 1)[1].split(".")


#: Index of the synthetic entry used for operation root spans.
ROOT = 0
#: Operations whose every span is recorded; later ones only feed aggregates.
SPAN_OPS = 25

#: ``(id, parent id, entry index, start ns, end ns, op index)``
Span = Tuple[int, int, int, int, int, int]

#: Slots of one entry in ``_ThreadState.totals``.
CALLS, TOTAL_NS, SELF_NS, UNITS = range(4)
FIELDS = ("calls", "total_ns", "self_ns", "units")


class _ThreadState:
    """Per-thread accumulators (merged on read, never shared).

    ``inner`` is the time the children of the thread's innermost open span
    have taken so far, ``None`` while no span is open; ``totals`` is one flat
    list, ``len(FIELDS)`` slots per entry, so the wrapper reaches every
    counter through a single attribute load.
    """

    __slots__ = ("inner", "totals", "records", "ident")

    def __init__(self, size: int) -> None:
        self.inner: Optional[int] = None
        self.ident = threading.get_ident()
        self.reset(size)

    def reset(self, size: int) -> None:
        self.totals = [0] * (len(FIELDS) * size)
        #: ``(entry index, start ns, end ns, op index)``
        self.records: List[Tuple[int, int, int, int]] = []


class Tracer:
    """Installs wrappers for ``entries`` and accumulates spans while active."""

    def __init__(self, entries: List[EntryPoint]) -> None:
        # Entry 0 is the operation root; the table's entries follow.
        self.entries = [EntryPoint("nrbench:op", "root")] + list(entries)
        self.active = False
        #: True while an operation whose spans are all recorded is open.
        self.recording = False
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._adopt_lock = threading.Lock()
        self._driver: Optional[_ThreadState] = None
        self._op_index = -1
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- patching -----------------------------------------------------------------

    def install(self) -> List[str]:
        """Wrap every entry point that exists; returns the missing names."""
        missing = []
        for index, entry in enumerate(self.entries):
            if index == ROOT:
                continue
            try:
                owner: Any = importlib.import_module(entry.module)
                for part in entry.path[:-1]:
                    owner = getattr(owner, part)
                original = owner.__dict__[entry.path[-1]]
            except (ImportError, AttributeError, KeyError):
                missing.append(entry.name)
                continue
            self._replace(owner, entry.path[-1], original, index)
        return missing

    def _replace(self, owner: Any, attr: str, original: Any, index: int) -> None:
        if isinstance(original, staticmethod):
            wrapper: Any = staticmethod(self._wrap(original.__func__, index))
        elif isinstance(original, classmethod):
            wrapper = classmethod(self._wrap(original.__func__, index))
        else:
            wrapper = self._wrap(original, index)
        if isinstance(owner, type):
            self._patch(owner, attr, original, wrapper)
            return
        # A module-level function may be re-exported by name into any other
        # repro namespace; every binding of the same object is replaced.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every replaced binding (idempotent)."""
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording ----------------------------------------------------------------

    def _state(self) -> _ThreadState:
        """The calling thread's state, created on first use."""
        state = getattr(self._local, "state", None)
        if state is not None:
            return state
        state = _ThreadState(len(self.entries))
        self._local.state = state
        with self._states_lock:
            self._states.append(state)
        return state

    def _wrap(self, function: Callable, index: int) -> Callable:
        tracer = self
        local = self._local
        units = self.entries[index].units
        keep_spans = self.entries[index].keep_spans
        base = index * len(FIELDS)
        calls, total_ns, self_ns, unit_sum = (
            base + CALLS, base + TOTAL_NS, base + SELF_NS, base + UNITS
        )
        now = perf_counter_ns

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return function(*args, **kwargs)
            try:
                state = local.state
            except AttributeError:
                state = tracer._state()
            outer = state.inner
            state.inner = 0
            result = None
            started = now()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                ended = now()
                duration = ended - started
                totals = state.totals
                totals[calls] += 1
                totals[total_ns] += duration
                totals[self_ns] += duration - state.inner
                if units is not None:
                    totals[unit_sum] += units(args, kwargs, result)
                if outer is None:
                    state.inner = None
                    orphan = not tracer._adopt(state, duration)
                else:
                    state.inner = outer + duration
                    orphan = False
                if orphan or keep_spans or tracer.recording:
                    state.records.append((index, started, ended, tracer._op_index))

        return traced

    def _adopt(self, state: _ThreadState, duration: int) -> bool:
        """Charge a thread's outermost span to the driver's open span, if any.

        The driver is blocked on the work it fanned out, but several workers
        may finish at once, hence the lock.
        """
        driver = self._driver
        if driver is None or driver is state:
            return False
        with self._adopt_lock:
            if driver.inner is None:  # no operation is open
                return False
            driver.inner += duration
        return True

    def start(self) -> None:
        """Drop everything recorded so far and start recording."""
        with self._states_lock:
            for state in self._states:
                state.reset(len(self.entries))
        self.active = True

    def stop(self) -> None:
        self.active = False

    def operation(self, op_index: int) -> "_Operation":
        """Context manager: the root span of one benchmark operation."""
        return _Operation(self, op_index)

    # -- results ------------------------------------------------------------------

    def aggregates(self) -> Dict[str, Dict[str, int]]:
        """Per entry name: calls, total ns, self ns and summed units."""
        with self._states_lock:
            states = list(self._states)
        return {
            entry.name: {
                field: sum(state.totals[index * len(FIELDS) + slot] for state in states)
                for slot, field in enumerate(FIELDS)
            }
            for index, entry in enumerate(self.entries)
        }

    def spans(self) -> List[Tuple[int, Span]]:
        """Every recorded span as ``(thread ident, span)``, in start order.

        Ids and parents are resolved here, off the hot path.  Spans of one
        thread nest, so a span's parent is the innermost recorded span that
        encloses it; an adopted span's is the driver's innermost recorded
        span open when it ended; 0 means none.
        """
        with self._states_lock:
            states = list(self._states)
        ids = itertools.count(1)
        resolved: List[Tuple[int, Span]] = []
        driver_spans: List[Span] = []
        # The driver's thread first: adopted spans look their parent up in it.
        for state in sorted(states, key=lambda state: state is not self._driver):
            enclosing: List[Span] = []
            for entry, started, ended, op_index in sorted(
                state.records, key=lambda record: (record[1], -record[2])
            ):
                while enclosing and enclosing[-1][4] < ended:
                    enclosing.pop()
                if enclosing:
                    parent = enclosing[-1][0]
                elif op_index >= 0 and state is not self._driver:
                    parent = max(
                        (span for span in driver_spans if span[3] <= ended <= span[4]),
                        key=lambda span: span[3],
                        default=(0,),
                    )[0]
                else:
                    parent = 0
                span = (next(ids), parent, entry, started, ended, op_index)
                enclosing.append(span)
                resolved.append((state.ident, span))
                if state is self._driver:
                    driver_spans.append(span)
        resolved.sort(key=lambda item: item[1][3])
        return resolved


class _Operation:
    __slots__ = ("_tracer", "_index", "_state", "_started")

    def __init__(self, tracer: Tracer, op_index: int) -> None:
        self._tracer = tracer
        self._index = op_index

    def __enter__(self) -> "_Operation":
        tracer = self._tracer
        self._state = state = tracer._state()
        tracer._driver = state
        tracer._op_index = self._index
        tracer.recording = self._index < SPAN_OPS
        state.inner = 0
        self._started = perf_counter_ns()
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        ended = perf_counter_ns()
        tracer, state = self._tracer, self._state
        duration = ended - self._started
        with tracer._adopt_lock:
            children = state.inner
            state.inner = None
        totals = state.totals
        totals[CALLS] += 1
        totals[TOTAL_NS] += duration
        totals[SELF_NS] += duration - children
        state.records.append((ROOT, self._started, ended, self._index))
        tracer.recording = False
        tracer._op_index = -1
