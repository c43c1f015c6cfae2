"""Unit tests for the delivery engine: the retry scheduler and the channel on it."""

import threading

import pytest

from repro.clock import SimulatedClock, SystemClock
from repro.errors import DeliveryError, UnknownEndpointError
from repro.transport.delivery import ReliableChannel, RetryPolicy
from repro.transport.network import FaultModel, SimulatedNetwork
from repro.transport.scheduler import DeliveryFuture, RetryScheduler, wait_all


def scheduled_network(fault_model=None, clock=None):
    return SimulatedNetwork(fault_model, clock=clock or SimulatedClock())


class TestRetryScheduler:
    def test_timers_fire_in_deadline_order(self):
        clock = SimulatedClock()
        scheduler = RetryScheduler(clock)
        fired = []
        scheduler.schedule(0.3, lambda: fired.append("late"))
        scheduler.schedule(0.1, lambda: fired.append("early"))
        scheduler.schedule(0.2, lambda: fired.append("middle"))
        scheduler.drive_until(lambda: len(fired) == 3)
        assert fired == ["early", "middle", "late"]
        assert clock.now() == pytest.approx(0.3)
        assert scheduler.timers_fired == 3
        assert scheduler.pending_timers() == 0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            RetryScheduler(SimulatedClock()).schedule(-0.1, lambda: None)

    def test_cancelled_timer_never_fires(self):
        clock = SimulatedClock()
        scheduler = RetryScheduler(clock)
        fired = []
        handle = scheduler.schedule(0.1, lambda: fired.append("cancelled"))
        scheduler.schedule(0.2, lambda: fired.append("kept"))
        assert handle.cancel() is True
        assert handle.cancelled
        scheduler.drive_until(lambda: len(fired) == 1)
        assert fired == ["kept"]
        assert scheduler.timers_cancelled == 1
        assert scheduler.pending_timers() == 0

    def test_cancel_after_fire_reports_false(self):
        scheduler = RetryScheduler(SimulatedClock())
        handle = scheduler.schedule(0.0, lambda: None)
        assert scheduler.fire_due() == 1
        assert handle.fired
        assert handle.cancel() is False

    def test_callback_can_schedule_follow_up(self):
        clock = SimulatedClock()
        scheduler = RetryScheduler(clock)
        fired = []

        def first():
            fired.append("first")
            scheduler.schedule(0.5, lambda: fired.append("second"))

        scheduler.schedule(0.25, first)
        scheduler.drive_until(lambda: len(fired) == 2)
        assert fired == ["first", "second"]
        assert clock.now() == pytest.approx(0.75)

    def test_waiting_thread_drives_other_runs_timers(self):
        # The thread waiting on its own future fires whatever is due,
        # including timers belonging to other deliveries.
        clock = SimulatedClock()
        scheduler = RetryScheduler(clock)
        future = DeliveryFuture(scheduler)
        scheduler.schedule(0.2, lambda: future.complete("done"))
        assert future.result() == "done"
        assert clock.now() == pytest.approx(0.2)

    def test_wall_clock_timers_fire_without_dedicated_thread(self):
        scheduler = RetryScheduler(SystemClock())
        future = DeliveryFuture(scheduler)
        scheduler.schedule(0.02, lambda: future.complete("ticked"))
        assert future.result(timeout=5.0) == "ticked"

    def test_cancel_all(self):
        scheduler = RetryScheduler(SimulatedClock())
        scheduler.schedule(0.1, lambda: None)
        scheduler.schedule(0.2, lambda: None)
        assert scheduler.cancel_all() == 2
        assert scheduler.pending_timers() == 0

    def test_on_cancel_hook_fires_exactly_once_outside_cancel(self):
        scheduler = RetryScheduler(SimulatedClock())
        cancelled = []
        handle = scheduler.schedule(0.1, lambda: None, on_cancel=lambda: cancelled.append(1))
        assert handle.cancel() is True
        assert handle.cancel() is False
        assert cancelled == [1]

    def test_on_cancel_hook_not_fired_when_timer_fires(self):
        scheduler = RetryScheduler(SimulatedClock())
        events = []
        scheduler.schedule(0.0, lambda: events.append("fired"), on_cancel=lambda: events.append("cancelled"))
        assert scheduler.fire_due() == 1
        assert events == ["fired"]

    def test_cancel_run_withdraws_only_that_runs_timers(self):
        clock = SimulatedClock()
        scheduler = RetryScheduler(clock)
        fired, cancelled = [], []
        scheduler.schedule(0.1, lambda: fired.append("a1"), run_id="run-a",
                           on_cancel=lambda: cancelled.append("a1"))
        scheduler.schedule(0.3, lambda: fired.append("a2"), run_id="run-a",
                           on_cancel=lambda: cancelled.append("a2"))
        scheduler.schedule(0.2, lambda: fired.append("b"), run_id="run-b")
        untagged = scheduler.schedule(0.2, lambda: fired.append("plain"))
        assert scheduler.pending_timers_for_run("run-a") == 2
        assert scheduler.cancel_run("run-a") == 2
        assert sorted(cancelled) == ["a1", "a2"]
        assert scheduler.pending_timers_for_run("run-a") == 0
        assert scheduler.pending_timers() == 2  # run-b and the untagged timer
        scheduler.drive_until(lambda: len(fired) == 2)
        assert sorted(fired) == ["b", "plain"]
        assert not untagged.cancelled

    def test_cancel_run_with_no_matching_timers_is_a_no_op(self):
        scheduler = RetryScheduler(SimulatedClock())
        scheduler.schedule(0.1, lambda: None, run_id="other")
        assert scheduler.cancel_run("missing") == 0
        assert scheduler.pending_timers() == 1


class TestScheduledSend:
    def test_healthy_link_completes_inline(self):
        network = scheduled_network()
        network.register("urn:dst", lambda message: "ok")
        channel = ReliableChannel(network, "urn:src")
        future = channel.send_scheduled("urn:dst", "op", {})
        assert future.done()  # first attempt ran on the calling thread
        assert future.result() == "ok"
        assert network.retry_scheduler.timers_scheduled == 0

    def test_permanent_failure_completes_immediately_without_timer(self):
        network = scheduled_network()
        channel = ReliableChannel(network, "urn:src", RetryPolicy(max_attempts=5))
        future = channel.send_scheduled("urn:nowhere", "op", {})
        assert future.done()
        with pytest.raises(UnknownEndpointError):
            future.result()
        # Permanent failures must not schedule a reattempt.
        assert network.retry_scheduler.timers_scheduled == 0
        assert channel.attempts_made == 1

    def test_handler_exception_completes_without_retry(self):
        network = scheduled_network()

        def failing(message):
            raise RuntimeError("handler blew up")

        network.register("urn:dst", failing)
        channel = ReliableChannel(network, "urn:src")
        future = channel.send_scheduled("urn:dst", "op", {})
        with pytest.raises(RuntimeError, match="handler blew up"):
            future.result()
        assert network.retry_scheduler.timers_scheduled == 0

    def test_budget_exhaustion_matches_policy_and_backoff_schedule(self):
        clock = SimulatedClock()
        network = scheduled_network(clock=clock)
        network.register("urn:dst", lambda message: "ok")
        network.set_online("urn:dst", False)
        policy = RetryPolicy(
            max_attempts=4,
            backoff_seconds=0.1,
            backoff_multiplier=2.0,
            max_backoff_seconds=0.25,
        )
        channel = ReliableChannel(network, "urn:src", policy)
        future = channel.send_scheduled("urn:dst", "op", {})
        with pytest.raises(DeliveryError, match="failed after 4 attempts"):
            future.result()
        assert channel.attempts_made == 4
        assert channel.retries_made == 3
        # The scheduler must honour backoff_for_attempt exactly: waits are
        # 0.1, 0.2, then capped at 0.25 -- never the uncapped 0.4.
        expected = sum(policy.backoff_for_attempt(n) for n in range(3))
        assert clock.now() == pytest.approx(expected)
        assert network.retry_scheduler.pending_timers() == 0

    def test_eventual_success_on_lossy_link(self):
        network = scheduled_network(
            FaultModel(drop_probability=0.8, max_consecutive_drops=4, seed=b"lossy")
        )
        network.register("urn:dst", lambda message: "delivered")
        channel = ReliableChannel(network, "urn:src", RetryPolicy(max_attempts=20))
        assert channel.send_scheduled("urn:dst", "op", {}).result() == "delivered"

    def test_blocking_entry_point_delegates_to_scheduler(self):
        clock = SimulatedClock()
        network = scheduled_network(clock=clock)
        network.register("urn:dst", lambda message: "ok")
        network.partition.sever("urn:src", "urn:dst")
        channel = ReliableChannel(
            network, "urn:src", RetryPolicy(max_attempts=3, backoff_seconds=0.5)
        )
        with pytest.raises(DeliveryError):
            channel.send("urn:dst", "op", {})
        # The wait went through scheduler timers, not clock.sleep loops.
        assert network.retry_scheduler.timers_fired == 2

    def test_concurrent_retry_waits_overlap_in_virtual_time(self):
        clock = SimulatedClock()
        network = scheduled_network(clock=clock)
        network.register("urn:a", lambda message: "a")
        network.register("urn:b", lambda message: "b")
        network.partition.sever("urn:src", "urn:a")
        network.partition.sever("urn:src", "urn:b")
        policy = RetryPolicy(max_attempts=5, backoff_seconds=1.0, backoff_multiplier=1.0)
        channel = ReliableChannel(network, "urn:src", policy)
        futures = [
            channel.send_scheduled("urn:a", "op", {}),
            channel.send_scheduled("urn:b", "op", {}),
        ]
        network.partition.heal_all()
        wait_all(futures)
        assert [future.result() for future in futures] == ["a", "b"]
        # Both backoffs were pending together, so virtual time advanced once.
        assert clock.now() == pytest.approx(1.0)


class TestScheduledBatch:
    def test_mixed_outcomes_resolve_as_one_wave(self):
        network = scheduled_network()
        network.register("urn:ok", lambda message: "fine")
        network.register("urn:flaky", lambda message: "eventually")
        network.partition.sever("urn:src", "urn:flaky")
        channel = ReliableChannel(
            network, "urn:src", RetryPolicy(max_attempts=4, backoff_seconds=0.1)
        )
        wave = channel.send_batch_scheduled(
            [
                ("urn:ok", "op", {}),
                ("urn:missing", "op", {}),
                ("urn:flaky", "op", {}),
            ]
        )
        # One entry is still retrying, so the wave's one handle is pending;
        # only that entry stays in the state machine.
        assert not wave.done()
        assert channel.attempts_made == 3
        network.partition.heal_all()
        ok, missing, flaky = wave.result()
        assert ok.result == "fine"
        assert isinstance(missing.error, UnknownEndpointError)
        assert flaky.result == "eventually"
        assert (channel.attempts_made, channel.retries_made) == (4, 1)
        assert network.statistics.attempts_per_destination["urn:ok"] == 1

    def test_healthy_and_empty_waves_are_complete_on_return(self):
        network = scheduled_network()
        network.register("urn:ok", lambda message: "fine")
        channel = ReliableChannel(network, "urn:src")
        wave = channel.send_batch_scheduled([("urn:ok", "op", {})] * 3)
        assert wave.done()
        assert [entry.result for entry in wave.result()] == ["fine"] * 3
        empty = channel.send_batch_scheduled([])
        assert empty.done() and empty.result() == []
        assert network.retry_scheduler.timers_scheduled == 0

    def test_batch_budget_exhaustion_message_and_accounting(self):
        network = scheduled_network()
        network.register("urn:dst", lambda message: "ok")
        network.set_online("urn:dst", False)
        channel = ReliableChannel(
            network, "urn:src", RetryPolicy(max_attempts=3, backoff_seconds=0.01)
        )
        (result,) = channel.send_batch([("urn:dst", "op", {})])
        assert str(result.error) == (
            "delivery from 'urn:src' to 'urn:dst' failed after 3 attempts: "
            "endpoint 'urn:dst' is offline"
        )
        assert (channel.attempts_made, channel.retries_made) == (3, 2)
        assert network.retry_scheduler.pending_timers() == 0

    def test_channel_close_cancels_in_flight_retries_without_leaking_timers(self):
        network = scheduled_network()
        network.register("urn:dst", lambda message: "ok")
        network.partition.sever("urn:src", "urn:dst")
        channel = ReliableChannel(
            network, "urn:src", RetryPolicy(max_attempts=10, backoff_seconds=1.0)
        )
        wave = channel.send_batch_scheduled(
            [("urn:dst", "op", {}), ("urn:dst", "other-op", {})]
        )
        single = channel.send_scheduled("urn:dst", "op", {})
        scheduler = network.retry_scheduler
        assert channel.pending_retries() == 2  # one batch timer + one send timer
        assert scheduler.pending_timers() == 2
        channel.close()
        assert scheduler.pending_timers() == 0
        assert channel.pending_retries() == 0
        assert wave.done()
        for entry in wave.result():
            assert isinstance(entry.error, DeliveryError)
            assert "closed" in str(entry.error)
        with pytest.raises(DeliveryError, match="closed"):
            single.result()
        # Close is idempotent and new sends after close fail cleanly.
        channel.close()

    def test_cancel_run_resolves_channel_futures_without_leaking_timers(self):
        # The run-level sibling of close(): cancelling by run tag withdraws
        # the batch's pending reattempt and resolves its futures.
        network = scheduled_network()
        network.register("urn:dst", lambda message: "ok")
        network.partition.sever("urn:src", "urn:dst")
        channel = ReliableChannel(
            network, "urn:src", RetryPolicy(max_attempts=10, backoff_seconds=1.0),
            run_id="run-x",
        )
        wave = channel.send_batch_scheduled(
            [("urn:dst", "op", {}), ("urn:dst", "other-op", {})]
        )
        scheduler = network.retry_scheduler
        assert scheduler.pending_timers_for_run("run-x") == 1
        assert scheduler.cancel_run("run-x") == 1
        assert scheduler.pending_timers() == 0
        assert channel.pending_retries() == 0
        assert wave.done()
        for entry in wave.result():
            assert isinstance(entry.error, DeliveryError)

    def test_close_with_nothing_pending_is_a_no_op(self):
        network = SimulatedNetwork()
        channel = ReliableChannel(network, "urn:src")
        channel.close()
        assert channel.pending_retries() == 0


class TestRetryStatistics:
    def test_attempts_vs_deliveries_per_destination(self):
        network = SimulatedNetwork()
        network.register("urn:dst", lambda message: "ok")
        network.partition.sever("urn:src", "urn:dst")
        channel = ReliableChannel(
            network, "urn:src", RetryPolicy(max_attempts=3, backoff_seconds=0.0)
        )
        with pytest.raises(DeliveryError):
            channel.send("urn:dst", "op", {})
        network.partition.heal_all()
        channel.send("urn:dst", "op", {})
        stats = network.statistics
        assert stats.attempts_per_destination == {"urn:dst": 4}
        assert stats.deliveries_per_destination == {"urn:dst": 1}
        assert stats.failed_attempts_per_destination() == {"urn:dst": 3}

    def test_retry_counters_survive_snapshot_and_delta(self):
        network = SimulatedNetwork()
        network.register("urn:dst", lambda message: "ok")
        network.send("urn:src", "urn:dst", "op", {})
        before = network.statistics.snapshot()
        network.send("urn:src", "urn:dst", "op", {})
        delta = network.statistics.delta(before)
        assert delta.attempts_per_destination == {"urn:dst": 1}
        assert delta.deliveries_per_destination == {"urn:dst": 1}
        assert delta.failed_attempts_per_destination() == {}


class TestSchedulerThreadSafety:
    def test_many_threads_waiting_on_shared_scheduler(self):
        clock = SimulatedClock()
        network = scheduled_network(clock=clock)
        for index in range(4):
            network.register(f"urn:dst{index}", lambda message: "ok")
            network.partition.sever("urn:src", f"urn:dst{index}")
        policy = RetryPolicy(max_attempts=8, backoff_seconds=0.2, backoff_multiplier=1.0)
        channel = ReliableChannel(network, "urn:src", policy)
        # Heal through a timer so recovery happens at a *virtual* instant the
        # retrying threads drive towards -- wall-clock healing would race the
        # (instant) virtual backoffs.
        network.retry_scheduler.schedule(0.5, network.partition.heal_all)
        results = []

        def send(index):
            results.append(channel.send(f"urn:dst{index}", "op", {}))

        threads = [threading.Thread(target=send, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert results == ["ok"] * 4
        assert network.retry_scheduler.pending_timers() == 0


    def test_resume_is_inline_on_a_virtual_clock_and_hops_on_a_wall_clock(self):
        ran_on = []

        def work(scheduler):
            # Either way the work runs under a hold of its own.
            ran_on.append((threading.current_thread(), scheduler._holds))  # noqa: SLF001

        virtual = RetryScheduler(SimulatedClock())
        virtual.resume(lambda: work(virtual))
        assert ran_on == [(threading.current_thread(), 1)]
        assert virtual.is_quiescent()

        wall = RetryScheduler(SystemClock())
        wall.resume(lambda: work(wall))
        assert wall.wait_quiescent(timeout=10)
        thread, holds = ran_on[1]
        assert thread is not threading.current_thread() and holds == 1

    def test_resolvers_never_lose_a_waiters_wakeup(self):
        # More waiters and resolvers than cores, on a wall clock with no
        # timers: every wait ends only through a resolver's wake-up (or the
        # idle poll), and the waiter count must return to zero.
        import sys

        scheduler = RetryScheduler(SystemClock())
        futures = [DeliveryFuture(scheduler) for _ in range(200)]
        collected = []

        def wait_for(chunk):
            collected.extend(future.result(timeout=30) for future in chunk)

        def resolve(chunk):
            for index, future in chunk:
                future.complete(index)

        indexed = list(enumerate(futures))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=wait_for, args=(futures[i::8],))
                for i in range(8)
            ] + [
                threading.Thread(target=resolve, args=(indexed[i::4],))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(collected) == list(range(200))
        assert scheduler._waiters == 0  # noqa: SLF001

    def test_a_future_nobody_waits_on_never_touches_the_scheduler_lock(self):
        scheduler = RetryScheduler(SimulatedClock())
        future = DeliveryFuture(scheduler)
        seen = []

        def resolve_and_read():
            future.complete("done")
            seen.extend([future.result(), future.outcome()])

        worker = threading.Thread(target=resolve_and_read, daemon=True)
        with scheduler._condition:  # noqa: SLF001 - held against the worker
            worker.start()
            worker.join(timeout=10)
        assert seen == ["done", "done"]


class TestQuiescence:
    """The formal 'simulation reached time T' criterion for external drivers."""

    def test_reports_timers_within_the_horizon(self):
        clock = SimulatedClock()
        scheduler = RetryScheduler(clock)
        scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(5.0, lambda: None)
        sample = scheduler.quiescence()
        assert sample.pending_timers == 2
        assert sample.due_timers == 2
        assert not sample.idle
        # Nothing falls before T=0.5, so the engine is quiescent up to there.
        assert scheduler.is_quiescent(until=0.5)
        assert not scheduler.is_quiescent(until=1.0)

    def test_wait_quiescent_fires_only_inside_the_horizon(self):
        clock = SimulatedClock()
        scheduler = RetryScheduler(clock)
        fired = []
        scheduler.schedule(1.0, lambda: fired.append("in"))
        scheduler.schedule(5.0, lambda: fired.append("beyond"))
        assert scheduler.wait_quiescent(until=2.0, timeout=10)
        assert fired == ["in"]
        assert clock.now() == 1.0  # never advanced past the horizon
        assert scheduler.pending_timers() == 1
        assert scheduler.wait_quiescent(timeout=10)
        assert fired == ["in", "beyond"]
        assert scheduler.pending_timers() == 0

    def test_advance_holds_block_quiescence(self):
        scheduler = RetryScheduler(SimulatedClock())
        hold = scheduler.hold_advance()
        assert scheduler.quiescence().advance_holds == 1
        assert not scheduler.is_quiescent()

        released = []

        def check_from_other_thread():
            released.append(scheduler.is_quiescent())

        worker = threading.Thread(target=check_from_other_thread)
        worker.start()
        worker.join()
        assert released == [False]
        hold.release()
        assert scheduler.is_quiescent()

    def test_executor_work_blocks_quiescence(self):
        from repro import parallel

        scheduler = RetryScheduler(SystemClock())
        gate = threading.Event()
        future = parallel.submit(gate.wait)
        try:
            assert scheduler.quiescence().executor_queue_depth >= 1
            assert not scheduler.is_quiescent()
        finally:
            gate.set()
            if future is not None:
                future.result(timeout=10)
        assert scheduler.wait_quiescent(timeout=10)

    def test_channel_teardown_leaves_a_quiescent_engine(self):
        clock = SimulatedClock()
        network = scheduled_network(clock=clock)
        network.register("urn:dst", lambda message: "ok")
        network.partition.sever("urn:src", "urn:dst")
        policy = RetryPolicy(max_attempts=5, backoff_seconds=0.5)
        channel = ReliableChannel(network, "urn:src", policy)
        future = channel.send_scheduled("urn:dst", "op", {})
        assert not network.retry_scheduler.is_quiescent()
        channel.close()
        with pytest.raises(DeliveryError):
            future.result(timeout=5)
        assert network.retry_scheduler.wait_quiescent(timeout=10)
