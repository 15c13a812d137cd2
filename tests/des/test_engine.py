"""Engine: run modes, ordering guarantees, deadlock detection, determinism."""

import pytest

from repro.des import Simulator
from repro.errors import DeadlockError, SimulationError


class TestRunModes:
    def test_run_until_time_stops_clock_there(self):
        sim = Simulator()
        sim.timeout(10.0)
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_run_until_event_returns_its_value(self):
        sim = Simulator()

        def proc(sim, done):
            yield sim.timeout(3.0)
            done.succeed("finished")

        done = sim.event()
        sim.process(proc(sim, done))
        assert sim.run(until=done) == "finished"
        assert sim.now == 3.0

    def test_run_until_past_time_rejected(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=0.5)

    def test_step_on_empty_queue_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.step()

    def test_run_until_event_that_never_fires_deadlocks(self):
        sim = Simulator()
        never = sim.event("never")
        with pytest.raises(DeadlockError):
            sim.run(until=never)


class TestOrdering:
    def test_same_time_events_fire_in_creation_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            t = sim.timeout(1.0, value=i)
            t.callbacks.append(lambda ev: order.append(ev.value))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_is_monotone(self):
        sim = Simulator()
        times = []

        def proc(sim, delay):
            for _ in range(5):
                yield sim.timeout(delay)
                times.append(sim.now)

        for d in (0.3, 1.0, 0.7):
            sim.process(proc(sim, d))
        sim.run()
        assert len(times) == 15
        assert times == sorted(times)

    def test_determinism_across_runs(self):
        def build_and_run():
            sim = Simulator()
            log = []

            def ping(sim, n):
                for i in range(n):
                    yield sim.timeout(0.5 * (i + 1))
                    log.append((sim.now, n, i))

            for n in (3, 4, 5):
                sim.process(ping(sim, n))
            sim.run()
            return log

        assert build_and_run() == build_and_run()


class TestDeadlock:
    def test_blocked_process_reported(self):
        sim = Simulator()

        def stuck(sim):
            yield sim.event("the-missing-event")

        sim.process(stuck(sim), name="victim")
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
        assert any("victim" in w for w in excinfo.value.waiting)
        assert any("the-missing-event" in w for w in excinfo.value.waiting)

    def test_clean_completion_is_not_deadlock(self):
        sim = Simulator()

        def fine(sim):
            yield sim.timeout(1.0)

        sim.process(fine(sim))
        sim.run()  # no exception
        assert sim.now == 1.0

    def test_scheduling_into_past_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim._schedule(sim.event(), delay=-1.0)


class TestPooledTimeouts:
    def test_pooled_timeout_fires_like_a_timeout(self):
        sim = Simulator()
        log = []

        def proc():
            value = yield sim.pooled_timeout(1.5, value="v")
            log.append((sim.now, value))

        sim.process(proc())
        sim.run()
        assert log == [(1.5, "v")]

    def test_pool_recycles_objects(self):
        sim = Simulator()
        seen = []

        def proc():
            for _ in range(3):
                timeout = sim.pooled_timeout(1.0)
                seen.append(id(timeout))
                yield timeout

        sim.process(proc())
        sim.run()
        # After the first timeout is processed it returns to the pool and
        # is handed back out for the next wait.
        assert len(set(seen)) < len(seen)

    def test_pooled_and_plain_timeouts_interleave_deterministically(self):
        def run_once(pooled: bool):
            sim = Simulator()
            order = []

            def proc(name, delay):
                make = sim.pooled_timeout if pooled else sim.timeout
                for _ in range(4):
                    yield make(delay)
                    order.append((name, sim.now))

            sim.process(proc("a", 1.0))
            sim.process(proc("b", 1.0))
            sim.run()
            return order

        # Same creation order => same processing order, pooled or not.
        assert run_once(True) == run_once(False)

    def test_events_processed_counter_advances(self):
        sim = Simulator()
        assert sim.events_processed == 0

        def proc():
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        assert sim.events_processed > 0
