"""Discrete-event simulation kernel."""

import ast
import gc
import itertools
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.core import Environment, Event, Timeout
from repro.sim.resources import BandwidthChannel, Resource
from repro.sim.stats import (
    EpochTrafficMonitor,
    LatencyRecorder,
    TimeWeightedValue,
)


class TestEnvironment:
    def test_timeout_advances_clock(self):
        env = Environment()
        env.timeout(5.0)
        assert env.run() == 5.0

    def test_events_fire_in_time_order(self):
        env = Environment()
        fired = []
        for delay in (3.0, 1.0, 2.0):
            def make(d):
                def proc():
                    yield env.timeout(d)
                    fired.append(d)
                return proc
            env.process(make(delay)())
        env.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_fifo_tiebreak_at_same_time(self):
        env = Environment()
        fired = []
        for tag in "abc":
            def make(t):
                def proc():
                    yield env.timeout(1.0)
                    fired.append(t)
                return proc
            env.process(make(tag)())
        env.run()
        assert fired == ["a", "b", "c"]

    def test_run_until_bounds_time(self):
        env = Environment()
        env.timeout(10.0)
        assert env.run(until=4.0) == 4.0
        assert env.now == 4.0

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_nan_timeout_rejected(self):
        # NaN would otherwise land in the heap and set the clock to NaN.
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(float("nan"))
        with pytest.raises(SimulationError):
            Timeout(env, float("nan"))
        assert env.run() == 0.0

    def test_process_return_value(self):
        env = Environment()

        def worker():
            yield env.timeout(1.0)
            return 42

        proc = env.process(worker())
        env.run()
        assert proc.value == 42

    def test_process_chaining(self):
        env = Environment()

        def inner():
            yield env.timeout(2.0)
            return "inner-done"

        def outer():
            result = yield env.process(inner())
            return result + "!"

        proc = env.process(outer())
        env.run()
        assert proc.value == "inner-done!"
        assert env.now == 2.0

    def test_yield_non_event_raises(self):
        env = Environment()

        def bad():
            yield 5

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_all_of_waits_for_slowest(self):
        env = Environment()

        def worker():
            barrier = env.all_of([env.timeout(1.0, "a"), env.timeout(3.0, "b")])
            values = yield barrier
            return (env.now, values)

        proc = env.process(worker())
        env.run()
        assert proc.value == (3.0, ["a", "b"])

    def test_all_of_empty_fires_immediately(self):
        env = Environment()

        def worker():
            values = yield env.all_of([])
            return values

        proc = env.process(worker())
        env.run()
        assert proc.value == []

    def test_yield_already_processed_event(self):
        env = Environment()

        def worker():
            t = env.timeout(1.0, "x")
            yield env.timeout(5.0)
            value = yield t  # fired long ago
            return (env.now, value)

        proc = env.process(worker())
        env.run()
        assert proc.value == (5.0, "x")

    def test_double_succeed_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_run_until_event_stops_with_perpetual_process(self):
        env = Environment()

        def forever():
            while True:
                yield env.timeout(1.0)

        def finite():
            yield env.timeout(3.5)
            return "done"

        env.process(forever())
        proc = env.process(finite())
        env.run_until_event(proc)
        assert proc.value == "done"
        assert env.now == 3.5

    def test_run_until_event_time_limit(self):
        env = Environment()

        def forever():
            while True:
                yield env.timeout(1.0)

        env.process(forever())
        never = env.event()
        with pytest.raises(SimulationError):
            env.run_until_event(never, limit=10.0)

    def test_run_until_event_limit_keeps_over_limit_event(self):
        env = Environment()

        def late():
            yield env.timeout(20.0)
            return "late"

        proc = env.process(late())
        with pytest.raises(SimulationError):
            env.run_until_event(proc, limit=10.0)
        # The t=20 event was peeked, not popped: a retry with a larger
        # limit still completes the process.
        env.run_until_event(proc, limit=30.0)
        assert proc.value == "late"
        assert env.now == 20.0

    def test_run_until_event_empty_queue_raises(self):
        env = Environment()
        never = env.event()
        with pytest.raises(SimulationError):
            env.run_until_event(never)

    def test_peek(self):
        env = Environment()
        assert env.peek() == float("inf")
        env.timeout(2.5)
        assert env.peek() == 2.5

    def test_peek_sees_immediate_events(self):
        env = Environment()
        env.timeout(2.5)
        env.event().succeed()
        assert env.peek() == 0.0


def collected_after(build) -> int:
    """Objects the cyclic collector finds once ``build()`` returns and
    drops its simulation (the collector is off meanwhile)."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        build()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


class TestLifecycle:
    """Finished processes and closed environments need no cyclic GC."""

    def test_finished_process_leaves_no_cycle(self):
        def build():
            env = Environment()

            def job():
                yield env.timeout(1.0)
                return "done"

            process = env.process(job())
            env.run()
            assert process.processed and process.value == "done"
            assert not env._processes

        assert collected_after(build) == 0

    def test_close_frees_blocked_perpetual_processes(self):
        def build():
            env = Environment()

            def ticker():
                while True:
                    yield env.timeout(1.0)

            def waiter(event):
                yield event

            ticking = env.process(ticker())
            waiting = env.process(waiter(env.event()))
            # A barrier over unfired processes: each points back at it.
            env.all_of([ticking, waiting])
            env.run(until=3.5)
            sequence = env._sequence
            env.close()
            assert env.now == 3.5 and env._sequence == sequence
            assert not env._processes

        assert collected_after(build) == 0

    def test_close_runs_no_simulation_code(self):
        env = Environment()
        steps = []

        def job():
            steps.append("start")
            yield env.timeout(1.0)
            steps.append("resumed")

        env.process(job())
        env.run(until=0.5)
        env.close()
        assert steps == ["start"]

    def test_second_close_does_nothing(self):
        env = Environment()
        env.timeout(1.0)
        env.run()
        env.close()
        env.close()
        assert env.now == 1.0 and env._sequence == 1

    def test_closed_environment_refuses_to_run(self):
        env = Environment()
        done = env.timeout(1.0)
        env.close()
        with pytest.raises(SimulationError, match="closed"):
            env.run_until_event(done)
        with pytest.raises(SimulationError, match="closed"):
            env.run()

    def test_with_block_closes_on_error(self):
        with pytest.raises(ValueError):
            with Environment() as env:
                env.timeout(1.0)
                raise ValueError
        with pytest.raises(SimulationError, match="closed"):
            env.run()

    def test_no_process_generator_guards_a_yield(self):
        """Closing a generator raises ``GeneratorExit`` at its ``yield``,
        so no generator under ``src/`` may run code on the way out."""
        root = Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, (ast.Try, ast.With)) and any(
                    isinstance(inner, (ast.Yield, ast.YieldFrom))
                    for inner in ast.walk(node)
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


class TestRunClampSemantics:
    """``run(until=...)`` clamp contract (documented on the method)."""

    def test_idle_advance_on_empty_queue(self):
        env = Environment()
        assert env.run(until=3.0) == 3.0
        assert env.now == 3.0

    def test_idle_advance_past_last_event(self):
        env = Environment()
        env.timeout(1.0)
        assert env.run(until=5.0) == 5.0
        assert env.now == 5.0

    def test_event_exactly_at_until_fires(self):
        env = Environment()
        fired = []

        def proc():
            yield env.timeout(4.0)
            fired.append(env.now)

        env.process(proc())
        assert env.run(until=4.0) == 4.0
        assert fired == [4.0]

    def test_until_in_past_raises_instead_of_rewinding(self):
        env = Environment()
        env.timeout(10.0)
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=2.0)
        assert env.now == 5.0  # clock untouched by the failed call

    def test_until_equal_to_now_is_a_noop(self):
        env = Environment()
        env.timeout(10.0)
        env.run(until=5.0)
        assert env.run(until=5.0) == 5.0

    def test_tiled_runs_cover_the_timeline_without_gaps(self):
        env = Environment()
        fired = []

        def proc():
            for _ in range(3):
                yield env.timeout(2.0)
                fired.append(env.now)

        env.process(proc())
        for bound in (1.0, 3.0, 7.0):
            env.run(until=bound)
            assert env.now == bound
        assert fired == [2.0, 4.0, 6.0]

    def test_run_until_event_backwards_time_guard(self):
        import heapq

        env = Environment()
        env.timeout(5.0)
        env.run()  # now == 5.0
        stale = Event(env)
        stale._triggered = True
        heapq.heappush(env._queue, (1.0, 999_999, stale))
        never = env.event()
        with pytest.raises(SimulationError):
            env.run_until_event(never)

    def test_run_backwards_time_guard(self):
        import heapq

        env = Environment()
        env.timeout(5.0)
        env.run()  # now == 5.0
        stale = Event(env)
        stale._triggered = True
        heapq.heappush(env._queue, (1.0, 999_999, stale))
        with pytest.raises(SimulationError):
            env.run()


class TestSameTimeSequencing:
    """Zero-delay (immediate) and heap events must interleave in strict
    insertion order — the determinism contract of the kernel."""

    def test_succeed_and_zero_timeout_fifo(self):
        env = Environment()
        order = []

        def waiter(tag, event):
            yield event
            order.append(tag)

        first = env.event()
        env.process(waiter("a", first))
        # b's zero-timeout fires before b's bootstrap runs, so b resumes
        # via a same-time reschedule that lands *after* the two succeed
        # events already in the queue — for both the seed kernel and the
        # fast path.
        env.process(waiter("b", env.timeout(0.0)))
        second = env.event()
        env.process(waiter("c", second))
        first.succeed()
        second.succeed()
        env.run()
        assert order == ["a", "c", "b"]

    def test_already_processed_yield_resumes_in_insertion_order(self):
        env = Environment()
        order = []

        def early():
            t = env.timeout(1.0, "x")
            yield env.timeout(2.0)
            # t fired long ago: the resume is scheduled at `now`, after
            # anything already queued for time 2.0.
            yield t
            order.append("resumed")

        def peer():
            yield env.timeout(2.0)
            order.append("peer")

        env.process(early())
        env.process(peer())
        env.run()
        assert order == ["peer", "resumed"]

    def test_heap_event_before_later_immediate_at_same_time(self):
        env = Environment()
        order = []

        def driver():
            yield env.timeout(1.0)
            order.append("heap-1")
            # Scheduled *after* the 1.0 heap entries below were pushed,
            # so it must fire after them despite being immediate.
            env.process(immediate())

        def immediate():
            order.append("immediate")
            return
            yield  # pragma: no cover

        def peer():
            yield env.timeout(1.0)
            order.append("heap-2")

        env.process(driver())
        env.process(peer())
        env.run()
        assert order == ["heap-1", "heap-2", "immediate"]


class TestSucceedAfter:
    """``Event.succeed_after``: one insertion that fires the event itself
    after a delay, under the same ordering contract as a timeout."""

    def test_fires_at_now_plus_delay_with_value(self):
        env = Environment()
        env.run(until=1.5)
        fired = []
        event = env.event()
        event.callbacks = lambda ev: fired.append((env.now, ev.value))
        assert event.succeed_after(2.0, "v") is event
        assert event.triggered and not event.processed
        env.run()
        assert fired == [(3.5, "v")]
        assert env._sequence == 1

    def test_zero_delay_keeps_sequence_order_with_immediates(self):
        env = Environment()
        order = []
        events = [env.event() for _ in range(4)]
        for tag, event in zip("abcd", events):
            event.callbacks = lambda _ev, tag=tag: order.append(tag)
        events[0].succeed()
        events[1].succeed_after(0.0)
        env.timeout(0.0).callbacks = lambda _ev: order.append("t")
        events[2].succeed()
        events[3].succeed_after(0.0)
        env.run()
        assert order == ["a", "b", "t", "c", "d"]
        assert env.now == 0.0

    def test_heap_order_against_timeouts_at_the_same_instant(self):
        env = Environment()
        order = []
        env.timeout(1.0).callbacks = lambda _ev: order.append("t1")
        event = env.event()
        event.callbacks = lambda _ev: order.append("e")
        event.succeed_after(1.0)
        env.timeout(1.0).callbacks = lambda _ev: order.append("t2")
        env.run()
        assert order == ["t1", "e", "t2"]

    @pytest.mark.parametrize("first", ["succeed", "succeed_after"])
    def test_double_trigger_raises(self, first):
        env = Environment()
        event = env.event()
        if first == "succeed":
            event.succeed()
        else:
            event.succeed_after(1.0)
        with pytest.raises(SimulationError):
            event.succeed_after(1.0)
        with pytest.raises(SimulationError):
            event.succeed()

    @pytest.mark.parametrize("delay", [-1e-9, float("nan")])
    def test_invalid_delay_raises_and_leaves_event_untriggered(self, delay):
        env = Environment()
        event = env.event()
        with pytest.raises(SimulationError):
            event.succeed_after(delay)
        assert not event.triggered
        assert env._sequence == 0


class TestResource:
    def test_acquire_calls_back_at_once_when_free(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        granted = []
        resource.acquire(lambda: granted.append(env.now))
        assert granted == [0.0]
        assert resource.in_use == 1
        assert env._sequence == 0

    def test_acquire_and_request_share_one_fifo(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []
        resource.acquire(lambda: order.append("a"))
        requested = resource.request()
        requested.callbacks = lambda _ev: order.append("b")
        resource.acquire(lambda: order.append("c"))
        assert resource.queue_length == 2
        resource.release()  # hands the slot to the request
        env.run()
        assert order == ["a", "b"]
        resource.release()  # hands the slot to the second acquire
        assert order == ["a", "b", "c"]
        assert resource.queue_length == 0
        resource.release()
        with pytest.raises(SimulationError):
            resource.release()

    def test_grants_up_to_capacity(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        env.run()
        assert first.processed and second.processed
        assert not third.triggered
        assert resource.queue_length == 1

    def test_release_grants_waiter_fifo(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def worker(tag, hold):
            grant = resource.request()
            yield grant
            order.append(f"{tag}-start")
            yield env.timeout(hold)
            resource.release()
            order.append(f"{tag}-end")

        env.process(worker("a", 2.0))
        env.process(worker("b", 1.0))
        env.run()
        assert order == ["a-start", "a-end", "b-start", "b-end"]
        assert env.now == 3.0

    def test_release_without_request_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env).release()

    def test_utilization_tracking(self):
        env = Environment()
        resource = Resource(env)

        def worker():
            grant = resource.request()
            yield grant
            yield env.timeout(3.0)
            resource.release()
            yield env.timeout(1.0)

        env.process(worker())
        env.run()
        assert resource.busy_time() == pytest.approx(3.0)
        assert resource.utilization() == pytest.approx(0.75)

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), capacity=0)


class TestBandwidthChannel:
    def test_serialization_time(self):
        env = Environment()
        channel = BandwidthChannel(env, bandwidth_bps=1000.0)
        assert channel.serialization_time(500.0) == pytest.approx(0.5)

    def test_transfer_occupies_channel(self):
        env = Environment()
        channel = BandwidthChannel(env, bandwidth_bps=100.0)
        finished = []
        channel.request_transfer(100.0, lambda: finished.append(env.now))
        channel.request_transfer(200.0, lambda: finished.append(env.now))
        env.run()
        assert finished == pytest.approx([1.0, 3.0])  # 1 s, then 2 s more
        assert channel.bits_transferred == pytest.approx(300.0)
        assert channel.transfer_count == 2

    def test_bandwidth_reconfiguration(self):
        env = Environment()
        channel = BandwidthChannel(env, bandwidth_bps=100.0)
        channel.set_bandwidth(200.0)
        assert channel.serialization_time(100.0) == pytest.approx(0.5)

    def test_invalid_bandwidth(self):
        env = Environment()
        with pytest.raises(SimulationError):
            BandwidthChannel(env, bandwidth_bps=0.0)
        channel = BandwidthChannel(env, 1.0)
        with pytest.raises(SimulationError):
            channel.set_bandwidth(-1.0)

    def test_nan_bandwidth_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            BandwidthChannel(env, bandwidth_bps=float("nan"))
        channel = BandwidthChannel(env, 1.0)
        with pytest.raises(SimulationError):
            channel.set_bandwidth(float("nan"))
        assert channel.bandwidth_bps == 1.0

    def test_negative_bits_rejected(self):
        env = Environment()
        channel = BandwidthChannel(env, 1.0)
        with pytest.raises(SimulationError):
            channel.serialization_time(-1.0)

    @given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1,
                    max_size=20))
    def test_total_time_is_sum_of_serializations(self, sizes):
        env = Environment()
        channel = BandwidthChannel(env, bandwidth_bps=1e3)
        for bits in sizes:
            channel.request_transfer(bits, lambda: None)
        env.run()
        assert env.now == pytest.approx(sum(sizes) / 1e3)


class TestChannelHoldEntry:
    """A channel is its own kernel entry for every hold it makes."""

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(("timeout", "hold", "event")))
    )
    def test_hold_tied_with_timeout_and_succeed_after_fires_in_insertion_order(
            self, order):
        env = Environment()
        channel = BandwidthChannel(env, bandwidth_bps=4.0)
        fired = []
        for tag in order:
            if tag == "timeout":
                env.timeout(1.0)._add_callback(
                    lambda _event: fired.append("timeout"))
            elif tag == "hold":
                channel.request_transfer(4.0, lambda: fired.append("hold"))
            else:
                event = env.event()
                event.succeed_after(1.0)
                event._add_callback(lambda _event: fired.append("event"))
        env.run()
        assert fired == list(order)
        assert env.now == 1.0

    def test_zero_bit_hold_goes_through_the_immediate_queue(self):
        env = Environment()
        channel = BandwidthChannel(env, bandwidth_bps=1.0)
        fired = []
        env.timeout(0.5)  # a later heap entry the hold must not join
        before = env.event()
        before._add_callback(lambda _event: fired.append("before"))
        before.succeed()
        channel.request_transfer(0.0, lambda: fired.append("hold"))
        after = env.event()
        after._add_callback(lambda _event: fired.append("after"))
        after.succeed()
        assert [entry for _, entry in env._immediate] == [
            before, channel, after]
        assert len(env._queue) == 1
        env.run(until=0.0)
        assert fired == ["before", "hold", "after"]
        assert channel.transfer_count == 1
        assert channel.busy_time() == 0.0

    def test_back_to_back_holds_each_complete_exactly_once(self):
        env = Environment()
        channel = BandwidthChannel(env, bandwidth_bps=2.0)
        completed = []

        def finish(index):
            completed.append((index, env.now))
            if index == 0:  # re-request from inside a completion
                channel.request_transfer(
                    2.0, lambda: completed.append((4, env.now)))

        for index, bits in enumerate((2.0, 0.0, 4.0, 2.0)):
            channel.request_transfer(bits, lambda index=index: finish(index))
        assert env._queue[0][2] is channel
        env.run()
        assert completed == [(0, 1.0), (1, 1.0), (2, 3.0), (3, 4.0),
                             (4, 5.0)]
        assert env._sequence == 5  # one kernel insertion per hold
        assert channel.transfer_count == 5
        assert channel.bits_transferred == 10.0
        assert channel.busy_time() == 5.0

    def test_nan_bits_rejected_before_queueing(self):
        env = Environment()
        channel = BandwidthChannel(env, bandwidth_bps=1.0)
        with pytest.raises(SimulationError):
            channel.request_transfer(float("nan"), lambda: None)
        assert env._sequence == 0 and channel.queue_length == 0


class TestStats:
    def test_time_weighted_value_integral(self):
        env = Environment()
        signal = TimeWeightedValue(env, initial=2.0)

        def driver():
            yield env.timeout(3.0)
            signal.set(5.0)
            yield env.timeout(2.0)

        env.process(driver())
        env.run()
        assert signal.integral() == pytest.approx(2 * 3 + 5 * 2)
        assert signal.time_average() == pytest.approx(16 / 5)

    def test_time_weighted_add(self):
        env = Environment()
        signal = TimeWeightedValue(env, initial=1.0)
        signal.add(2.0)
        assert signal.value == 3.0

    def test_epoch_monitor_bins(self):
        env = Environment()
        monitor = EpochTrafficMonitor(env, epoch_length_s=1.0)
        monitor.record("a", 100.0)
        monitor.record("a", 50.0)
        monitor.record("b", 10.0)
        epoch = monitor.close_epoch()
        assert epoch == {"a": 150.0, "b": 10.0}
        assert monitor.close_epoch() == {}
        assert len(monitor.history) == 2

    def test_epoch_monitor_demand(self):
        env = Environment()
        monitor = EpochTrafficMonitor(env, epoch_length_s=2.0)
        demand = monitor.demanded_bandwidth_bps({"x": 100.0})
        assert demand == {"x": 50.0}

    def test_epoch_monitor_rejects_negative(self):
        env = Environment()
        monitor = EpochTrafficMonitor(env, 1.0)
        with pytest.raises(SimulationError):
            monitor.record("a", -1.0)

    def test_latency_recorder(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        recorder.record(3.0)
        assert recorder.count == 2
        assert recorder.mean == 2.0
        assert recorder.max == 3.0
        assert recorder.total == 4.0

    def test_latency_recorder_empty(self):
        recorder = LatencyRecorder()
        assert recorder.mean == 0.0
        assert recorder.max == 0.0

    def test_latency_recorder_rejects_negative(self):
        with pytest.raises(SimulationError):
            LatencyRecorder().record(-0.1)
