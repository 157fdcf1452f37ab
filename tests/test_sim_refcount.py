"""A finished request leaves no reference cycle behind.

Each test runs its workload with the cyclic collector off and
``DEBUG_SAVEALL`` set, then asks the collector what it would free.
Everything a finished request allocated must already have been freed
by reference counting, so the answer is nothing.
"""

import gc

from repro.cluster.testbed import build_lan
from repro.legion import LegionRuntime
from repro.sim import AnyOf, Simulator
from repro.workloads import make_noop_manager


def cyclic_garbage(run):
    """Call ``run()`` with the collector off; return what it then finds."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        if enabled:
            gc.enable()


def _answer(sim, reply, delay):
    yield sim.timeout(delay)
    reply.succeed("pong")


def _race(sim, reply_after, results):
    """A request's shape: race a reply event against a guard timeout."""
    reply = sim.event()
    if reply_after is not None:
        sim.spawn(_answer(sim, reply, reply_after))
    timeout = sim.timeout(1.0)
    outcome = yield AnyOf(sim, [reply, timeout])
    if reply in outcome:
        timeout.cancel()
        results.append(outcome[reply])
    else:
        results.append(None)


def _races(sim, reply_after, count, results):
    for __ in range(count):
        yield from _race(sim, reply_after, results)


def test_reply_winning_race_leaves_no_cycle():
    sim = Simulator()
    results = []
    sim.spawn(_races(sim, 0.5, 200, results))
    assert cyclic_garbage(sim.run) == []
    assert results == ["pong"] * 200


def test_timeout_winning_race_leaves_no_cycle():
    sim = Simulator()
    results = []
    sim.spawn(_races(sim, None, 200, results))
    assert cyclic_garbage(sim.run) == []
    assert results == [None] * 200


def test_served_pings_leave_no_cycle():
    runtime = LegionRuntime(build_lan(3, seed=5))
    manager, __ = make_noop_manager(runtime, "Pinged", 1, 1)
    client = runtime.make_client(host_name="host00")
    loids = []

    def create():
        for index in range(8):
            loid = yield from manager.create_instance(host_name=f"host0{1 + index % 2}")
            loids.append(loid)
            # Warm the binding so the measured pings take the hit path.
            yield from client.invoke(loid, "ping", "warm")

    runtime.sim.run_process(create())
    replies = []

    def pings():
        for index in range(300):
            reply = yield from client.invoke(loids[index % len(loids)], "ping", index)
            replies.append(tuple(reply))

    assert cyclic_garbage(lambda: runtime.sim.run_process(pings())) == []
    assert replies == [(index,) for index in range(300)]
