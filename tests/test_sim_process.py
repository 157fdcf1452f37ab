"""Unit tests for simulation processes: joining, interrupts, errors."""

import pytest

from repro.sim import Interrupt, Simulator, StopProcess


def test_process_return_value_via_join():
    sim = Simulator()

    def child():
        yield sim.timeout(2)
        return "result"

    def parent():
        value = yield sim.spawn(child())
        return (sim.now, value)

    assert sim.run_process(parent()) == (2.0, "result")


def test_stop_process_is_equivalent_to_return():
    sim = Simulator()

    def helper():
        raise StopProcess("early")
        yield  # pragma: no cover - unreachable, marks this as a generator

    def child():
        yield sim.timeout(1)
        helper_gen = helper()
        yield sim.spawn(helper_gen)

    def parent():
        proc = sim.spawn(child())
        yield proc
        return "parent done"

    assert sim.run_process(parent()) == "parent done"


def test_exception_in_child_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise ValueError("child blew up")

    def parent():
        yield sim.spawn(child())

    with pytest.raises(ValueError, match="child blew up"):
        sim.run_process(parent())


def test_cooperative_yield_none_resumes_same_time():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(("before", sim.now))
        yield None
        trace.append(("after", sim.now))

    sim.spawn(proc())
    sim.run()
    assert trace == [("before", 0.0), ("after", 0.0)]


def test_yield_non_event_raises_type_error():
    sim = Simulator()

    def proc():
        yield 42

    with pytest.raises(TypeError, match="expected an Event"):
        sim.run_process(proc())


def test_yield_event_from_other_simulator_rejected():
    sim_a = Simulator()
    sim_b = Simulator()
    foreign = sim_b.event()

    def proc():
        yield foreign

    with pytest.raises(RuntimeError, match="another simulator"):
        sim_a.run_process(proc())


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt as interrupt:
            return ("interrupted", sim.now, interrupt.cause)
        return "slept through"

    def interrupter(target):
        yield sim.timeout(3)
        target.interrupt("wake up")

    target = sim.spawn(sleeper())
    sim.spawn(interrupter(target))
    sim.run()
    assert target.value == ("interrupted", 3.0, "wake up")


def test_interrupted_process_can_keep_running():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt:
            pass
        yield sim.timeout(5)
        return sim.now

    def interrupter(target):
        yield sim.timeout(1)
        target.interrupt()

    target = sim.spawn(sleeper())
    sim.spawn(interrupter(target))
    sim.run()
    assert target.value == 6.0


def test_interrupt_at_cooperative_yield_is_not_followed_by_a_stale_resume():
    sim = Simulator()
    steps = []

    def yielder():
        yield sim.timeout(0)
        try:
            yield None
        except Interrupt as interrupt:
            steps.append(("interrupted", interrupt.cause))
        steps.append("finished")

    def interrupter(target):
        target.interrupt("now")
        yield sim.timeout(1)

    target = sim.spawn(yielder())
    sim.spawn(interrupter(target))
    sim.run()
    # The yield's own resume must not step the generator a second time.
    assert steps == [("interrupted", "now"), "finished"]
    assert target.ok


def test_original_event_after_interrupt_is_ignored():
    sim = Simulator()
    event = sim.event()
    resumes = []

    def sleeper():
        try:
            yield event
        except Interrupt:
            resumes.append("interrupt")
        yield sim.timeout(10)
        resumes.append("timeout")

    def driver(target):
        yield sim.timeout(1)
        target.interrupt()
        yield sim.timeout(1)
        event.succeed("late")  # must NOT resume the sleeper again

    target = sim.spawn(sleeper())
    sim.spawn(driver(target))
    sim.run()
    assert resumes == ["interrupt", "timeout"]


def test_cannot_interrupt_finished_process():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    proc = sim.spawn(quick())
    sim.run()
    with pytest.raises(RuntimeError, match="finished"):
        proc.interrupt()


def test_process_cannot_interrupt_itself():
    sim = Simulator()
    holder = {}

    def selfish():
        holder["me"].interrupt()
        yield sim.timeout(1)

    holder["me"] = sim.spawn(selfish())
    with pytest.raises(RuntimeError, match="cannot interrupt itself"):
        sim.run(until=holder["me"])


def test_is_alive_lifecycle():
    sim = Simulator()

    def proc():
        yield sim.timeout(5)

    process = sim.spawn(proc())
    assert process.is_alive
    sim.run()
    assert not process.is_alive


def test_multiple_joiners_all_resume():
    sim = Simulator()

    def child():
        yield sim.timeout(2)
        return "shared"

    child_proc = None
    results = []

    def joiner(tag):
        value = yield child_proc
        results.append((tag, value, sim.now))

    child_proc = sim.spawn(child())
    sim.spawn(joiner("a"))
    sim.spawn(joiner("b"))
    sim.run()
    assert sorted(results) == [("a", "shared", 2.0), ("b", "shared", 2.0)]


def test_nested_spawn_tree_completes():
    sim = Simulator()

    def leaf(n):
        yield sim.timeout(n)
        return n

    def branch():
        total = 0
        for n in (1, 2, 3):
            total += yield sim.spawn(leaf(n))
        return total

    assert sim.run_process(branch()) == 6
    assert sim.now == 6.0
