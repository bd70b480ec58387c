"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)


def test_environment_starts_at_zero():
    assert Environment().now == 0.0


def test_environment_initial_time():
    assert Environment(5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(3.5)
    env.run()
    assert env.now == 3.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10.0)

    env.process(proc(env))
    env.run(until=25.0)
    assert env.now == 25.0


def test_run_until_before_now_rejected():
    env = Environment(10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_process_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 42

    result = env.run(env.process(proc(env)))
    assert result == 42


def test_process_chaining_collects_child_result():
    env = Environment()

    def child(env):
        yield env.timeout(2.0)
        return "child-result"

    def parent(env):
        value = yield env.process(child(env))
        return value + "!"

    assert env.run(env.process(parent(env))) == "child-result!"
    assert env.now == 2.0


def test_events_processed_in_time_order():
    env = Environment()
    log = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        log.append((env.now, tag))

    env.process(proc(env, 3.0, "c"))
    env.process(proc(env, 1.0, "a"))
    env.process(proc(env, 2.0, "b"))
    env.run()
    assert log == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


def test_same_time_events_fifo_order():
    env = Environment()
    log = []

    def proc(env, tag):
        yield env.timeout(1.0)
        log.append(tag)

    for tag in ("first", "second", "third"):
        env.process(proc(env, tag))
    env.run()
    assert log == ["first", "second", "third"]


def test_event_succeed_and_value():
    env = Environment()
    event = env.event()
    assert not event.triggered
    event.succeed("payload")
    assert event.triggered
    env.run()
    assert event.processed
    assert event.ok
    assert event.value == "payload"


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_unhandled_process_failure_propagates():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_process_can_catch_failed_event():
    env = Environment()

    def failing(env):
        yield env.timeout(1.0)
        raise ValueError("inner")

    def outer(env):
        try:
            yield env.process(failing(env))
        except ValueError as error:
            return f"caught {error}"

    assert env.run(env.process(outer(env))) == "caught inner"


def test_yielding_non_event_raises_inside_process():
    env = Environment()

    def proc(env):
        yield 42

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run()


def test_interrupt_delivers_cause():
    env = Environment()
    caught = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            caught.append((env.now, interrupt.cause))

    def interrupter(env, victim):
        yield env.timeout(5.0)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert caught == [(5.0, "wake up")]


def test_interrupt_terminated_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_peek_returns_next_event_time():
    env = Environment()
    env.timeout(4.0)
    env.timeout(2.0)
    assert env.peek() == pytest.approx(2.0)


def test_peek_empty_queue_is_inf():
    assert Environment().peek() == float("inf")


def test_step_without_events_raises():
    with pytest.raises(SimulationError):
        Environment().step()


def test_run_until_untriggered_event_raises():
    env = Environment()
    never = env.event()
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        Process(env, lambda: None)


def test_event_value_before_trigger_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = env.event().value


@settings(max_examples=30, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=25))
def test_property_completion_times_sorted(delays):
    """Regardless of scheduling order, events complete in time order."""
    env = Environment()
    completions = []

    def proc(env, delay):
        yield env.timeout(delay)
        completions.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert completions == sorted(completions)
    assert len(completions) == len(delays)
    assert env.now == pytest.approx(max(delays))


@settings(max_examples=30, deadline=None)
@given(
    delays=st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=10),
)
def test_property_sequential_timeouts_sum(delays):
    """A process yielding timeouts back to back finishes at their sum."""
    env = Environment()

    def proc(env):
        for delay in delays:
            yield env.timeout(delay)
        return env.now

    finish = env.run(env.process(proc(env)))
    assert finish == pytest.approx(sum(delays), rel=1e-9)
