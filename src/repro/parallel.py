"""Shared thread-pool infrastructure for the parallel protocol engine.

The protocol hot paths fan work out in two places: the simulated network
dispatches a batch of admitted messages to their destination handlers
(:class:`repro.transport.network.ParallelDispatch`), and the retry scheduler
fires due wall-clock timers (:func:`submit`).  Both draw worker threads from
one process-wide executor managed here, so the engine's total thread count is
bounded no matter how many networks or protocol runs are live.  Evidence
verification is not among them: it runs on whichever thread asks for it.

Re-entrancy contract: work submitted *from* a pool worker runs inline on the
calling thread instead of being resubmitted.  A nested fan-out (a handler
that itself fans out) therefore can never deadlock on an exhausted pool -- it
degrades to the sequential behaviour, which is always correct because every
parallel path in this package is also valid executed serially.

The heavy lifting on these paths is multi-hundred-bit modular exponentiation
routed through OpenSSL's Montgomery kernels via :mod:`ctypes`
(:mod:`repro.crypto.modexp`); ctypes foreign calls release the GIL, so
signature work genuinely overlaps across workers, as do real-latency sleeps
of a wall-clock network model.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_MAX_WORKERS",
    "current_max_workers",
    "executor_queue_depth",
    "in_worker_thread",
    "mark_worker_thread",
    "run_all",
    "set_max_workers",
    "shared_executor",
    "shutdown_shared_executor",
    "submit",
]

#: Sized for latency overlap (an 8-party fan-out should dispatch in one
#: wave), not for CPU count: workers spend most of their time either inside
#: GIL-releasing OpenSSL calls or sleeping on simulated link latency.
DEFAULT_MAX_WORKERS = max(16, 4 * (os.cpu_count() or 1))

_executor: Optional[ThreadPoolExecutor] = None
_executor_lock = threading.Lock()
_max_workers = DEFAULT_MAX_WORKERS
_worker_state = threading.local()

# Work accounting for the quiescence criterion: every thunk routed through
# submit()/run_all() -- queued or executing, shared pool or inline fallback --
# is counted until it finishes, so "executor queue depth zero" really means
# no engine work is in flight anywhere.
_inflight = 0
_inflight_lock = threading.Lock()


def _enter_work() -> None:
    global _inflight
    with _inflight_lock:
        _inflight += 1


def _exit_work() -> None:
    global _inflight
    with _inflight_lock:
        _inflight -= 1


def executor_queue_depth() -> int:
    """Engine thunks currently queued or executing (see module accounting).

    The third leg of the retry scheduler's quiescence criterion
    (:meth:`repro.transport.scheduler.RetryScheduler.quiescence`): pending
    continuations and fanned-out timer callbacks live here between being
    scheduled and finishing.  The count is process-wide, so when several
    engines share the process one engine's in-flight work delays another's
    idle verdict -- conservative (never a false idle), and avoidable for
    work that is not protocol-run state by submitting it with
    ``background=True``.
    """
    with _inflight_lock:
        return _inflight


def mark_worker_thread() -> None:
    """Mark the calling thread as a fan-out worker.

    Used as the executor ``initializer`` by the shared pool and by any
    private dispatch pool, so that :func:`in_worker_thread` — and with it
    the run-nested-work-inline rule — covers every pool that participates
    in the re-entrancy contract.
    """
    _worker_state.inside = True


def in_worker_thread() -> bool:
    """True when the calling thread is a marked fan-out worker."""
    return getattr(_worker_state, "inside", False)


def shared_executor() -> ThreadPoolExecutor:
    """Return the process-wide executor, creating it lazily."""
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(
                max_workers=_max_workers,
                thread_name_prefix="repro-parallel",
                initializer=mark_worker_thread,
            )
        return _executor


def set_max_workers(count: Optional[int]) -> None:
    """Bound (or, with ``None``, restore the default size of) the shared pool.

    Shuts the current executor down and lets the next :func:`shared_executor`
    call recreate it at the new size.  Benchmarks use this to demonstrate
    run multiplexing on a deliberately small pool (hundreds of concurrent
    protocol runs over <= 8 workers); production code normally leaves the
    latency-overlap default alone.  Call only from quiescent points -- live
    fan-outs on the old executor are waited for during shutdown.
    """
    global _max_workers
    if count is not None and count < 1:
        raise ValueError("the shared pool needs at least one worker")
    shutdown_shared_executor()
    with _executor_lock:
        _max_workers = DEFAULT_MAX_WORKERS if count is None else count


def current_max_workers() -> int:
    """The worker bound the next-created shared executor will use."""
    with _executor_lock:
        return _max_workers


def shutdown_shared_executor() -> None:
    """Shut the shared executor down (mainly for tests); it is recreated on demand."""
    global _executor
    with _executor_lock:
        executor, _executor = _executor, None
    if executor is not None:
        executor.shutdown(wait=True)


def run_all(
    thunks: Sequence[Callable[[], Any]]
) -> List[Tuple[Any, Optional[Exception]]]:
    """Run ``thunks`` and return one ``(result, error)`` pair per thunk, in order.

    The thunks run on the shared executor; each thunk's exception is captured
    in its own slot, so one failure never masks the other outcomes.  Falls
    back to inline sequential execution for trivial batches and for calls
    issued from a pool worker (see the re-entrancy contract in the module
    docstring).
    """
    thunks = list(thunks)
    if len(thunks) <= 1 or in_worker_thread():
        return [_run_one(thunk) for thunk in thunks]
    futures: List[Future] = []
    for thunk in thunks:
        _enter_work()
        try:
            futures.append(shared_executor().submit(_run_one_counted, thunk))
        except BaseException:
            # A failed submit (e.g. executor shut down concurrently) runs no
            # thunk: undo its count or quiescence would block forever.
            _exit_work()
            for future in futures:
                future.result()
            raise
    return [future.result() for future in futures]


def submit(thunk: Callable[[], Any], background: bool = False) -> Optional[Future]:
    """Run one thunk on the shared executor, honouring the re-entrancy contract.

    Returns the :class:`Future` tracking the submitted work, or ``None`` when
    the calling thread is itself a pool worker -- the thunk then ran inline
    before this function returned (same rule as :func:`run_all`).  Used by the
    retry scheduler to fire due wall-clock timers concurrently: each fired
    callback re-sends on a possibly slow link, so firing inline would
    serialise the resend latencies the scheduler exists to overlap.  Thunks
    must trap their own exceptions (retry state machines do); an exception
    escaping an unawaited future would otherwise vanish.

    ``background=True`` marks work that is *not* part of any protocol run
    (opportunistic precomputation, cache warming): it is excluded from
    :func:`executor_queue_depth`, so it cannot hold the retry scheduler's
    quiescence criterion hostage -- quiescence answers "can anything still
    change a run's state?", which background work by definition cannot.
    """
    if in_worker_thread():
        thunk()
        return None
    if background:
        return shared_executor().submit(thunk)
    _enter_work()

    def counted() -> None:
        try:
            thunk()
        finally:
            _exit_work()

    try:
        return shared_executor().submit(counted)
    except BaseException:
        _exit_work()
        raise


def _run_one(thunk: Callable[[], Any]) -> Tuple[Any, Optional[Exception]]:
    try:
        return thunk(), None
    except Exception as error:  # noqa: BLE001 - per-thunk isolation by design
        return None, error


def _run_one_counted(thunk: Callable[[], Any]) -> Tuple[Any, Optional[Exception]]:
    try:
        return _run_one(thunk)
    finally:
        _exit_work()
