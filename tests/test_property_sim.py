"""Property-based tests for the simulation kernel and primitives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    CalendarScheduler,
    DeterministicRNG,
    HeapScheduler,
    Interrupt,
    Queue,
    Semaphore,
    Simulator,
)

delays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(delays)
def test_timeouts_fire_in_nondecreasing_time_order(delay_list):
    sim = Simulator()
    fired = []

    def proc(delay):
        yield sim.timeout(delay)
        fired.append(sim.now)

    for delay in delay_list:
        sim.spawn(proc(delay))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delay_list)
    assert sim.now == max(delay_list)


@settings(max_examples=60, deadline=None)
@given(delays)
def test_same_schedule_is_deterministic(delay_list):
    def run_once():
        sim = Simulator()
        trace = []

        def proc(tag, delay):
            yield sim.timeout(delay)
            trace.append((tag, sim.now))

        for index, delay in enumerate(delay_list):
            sim.spawn(proc(index, delay))
        sim.run()
        return trace

    assert run_once() == run_once()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=999), min_size=1, max_size=50))
def test_queue_preserves_fifo_under_any_put_pattern(items):
    sim = Simulator()
    queue = Queue(sim)
    received = []

    def producer():
        for item in items:
            queue.put_nowait(item)
            yield sim.timeout(0.5)

    def consumer():
        for __ in items:
            received.append((yield queue.get()))

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert received == items


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=1, max_size=12),
)
def test_semaphore_never_exceeds_capacity(permits, work_times):
    sim = Simulator()
    semaphore = Semaphore(sim, permits=permits)
    concurrent = {"now": 0, "max": 0}

    def worker(work):
        yield semaphore.acquire()
        concurrent["now"] += 1
        concurrent["max"] = max(concurrent["max"], concurrent["now"])
        yield sim.timeout(work)
        concurrent["now"] -= 1
        semaphore.release()

    for work in work_times:
        sim.spawn(worker(work))
    sim.run()
    assert concurrent["max"] <= permits
    assert concurrent["now"] == 0
    assert semaphore.available == permits


@settings(max_examples=40, deadline=None)
@given(st.integers(), st.text(min_size=1, max_size=10))
def test_rng_streams_reproducible_for_any_seed_and_name(seed, name):
    a = DeterministicRNG(seed=seed)
    b = DeterministicRNG(seed=seed)
    assert [a.uniform(name, 0, 1) for __ in range(3)] == [
        b.uniform(name, 0, 1) for __ in range(3)
    ]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000))
def test_download_time_model_is_monotone_in_size(size):
    from repro.cluster import Calibration

    calibration = Calibration()
    smaller = calibration.download_time(size)
    larger = calibration.download_time(size + calibration.download_chunk_bytes)
    assert larger > smaller
    assert smaller >= calibration.download_setup_s


# -- the run loop: slicing a run never reorders it ---------------------

#: Delays on a quarter grid, so slice cuts land exactly on event times.
_DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])
_EVENT = st.integers(min_value=0, max_value=3)
_OPS = st.one_of(
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("yield")),
    st.tuples(st.just("succeed"), _EVENT),
    st.tuples(st.just("fail"), _EVENT),
    st.tuples(st.just("wait"), _EVENT),
    st.tuples(st.just("cancel_before"), _DELAYS),
    st.tuples(st.just("cancel_after"), _DELAYS),
    st.tuples(st.just("any_of"), _DELAYS, _EVENT),
    st.tuples(st.just("all_of"), _DELAYS, _DELAYS),
    st.tuples(st.just("interrupt"), st.integers(min_value=0, max_value=4)),
)
_PROGRAMS = st.lists(st.lists(_OPS, max_size=8), min_size=1, max_size=5)
#: Every program is over well before this instant.
_HORIZON = 20.0
_CUTS = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=int(_HORIZON * 4)).map(lambda q: q / 4),
        st.floats(min_value=0.0, max_value=_HORIZON),
    ),
    max_size=8,
)


def _program_body(sim, pid, ops, events, procs, trace):
    for index, op in enumerate(ops):
        kind = op[0]
        label = f"p{pid}.{index}.{kind}"
        try:
            if kind == "sleep":
                yield sim.timeout(op[1])
            elif kind == "yield":
                yield None
            elif kind == "succeed" and not events[op[1]].triggered:
                events[op[1]].succeed(label)
            elif kind == "fail" and not events[op[1]].triggered:
                events[op[1]].fail(ValueError(label))
            elif kind == "wait":
                label += f"={(yield events[op[1]])}"
            elif kind == "cancel_before":
                sim.timeout(op[1]).cancel()
                yield sim.timeout(op[1])
            elif kind == "cancel_after":
                timeout = sim.timeout(op[1])
                yield timeout
                timeout.cancel()
            elif kind == "any_of":
                timeout = sim.timeout(op[1])
                outcome = yield AnyOf(sim, [events[op[2]], timeout])
                timeout.cancel()
                label += "+event" if events[op[2]] in outcome else "+timeout"
            elif kind == "all_of":
                yield AllOf(sim, [sim.timeout(op[1]), sim.timeout(op[2])])
            elif kind == "interrupt":
                target = procs[op[1] % len(procs)]
                if target.is_alive and target is not procs[pid]:
                    target.interrupt(label)
        except Interrupt as interrupt:
            label += f"!{interrupt.cause}"
        except ValueError as error:
            label += f"!{error}"
        trace.append((sim.now, label))


def _run_program(program, scheduler, cuts=None):
    """Run ``program``; ``cuts`` None means one unbounded ``run()``."""
    sim = Simulator(scheduler=scheduler)
    trace = []
    events = [sim.event(name=f"e{k}") for k in range(4)]
    procs = []
    for pid, ops in enumerate(program):
        procs.append(sim.spawn(_program_body(sim, pid, ops, events, procs, trace), name=f"p{pid}"))
    if cuts is None:
        sim.run()
    else:
        for cut in sorted(cuts):
            sim.run(until=cut)
        sim.run(until=_HORIZON)
    return trace, sim.processed_events


@settings(max_examples=300, deadline=None)
@given(_PROGRAMS, _CUTS)
def test_sliced_unsliced_and_unbounded_runs_agree_on_both_schedulers(program, cuts):
    expected = _run_program(program, CalendarScheduler(), cuts=[])
    for scheduler in (CalendarScheduler, HeapScheduler):
        assert _run_program(program, scheduler(), cuts=[]) == expected
        assert _run_program(program, scheduler(), cuts=cuts) == expected
        assert _run_program(program, scheduler()) == expected
