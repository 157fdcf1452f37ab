"""The reconciler: one level-triggered convergence loop per authority.

Covers what the chaos sweeps cannot pin down: the relay route survives
every recovery path, drift that publishes no event is still repaired
within one period, rounds on a converged fleet cost nothing on the
wire or in the journal, and a demotion raised while a promoted manager
is still converging acts on the controller's next tick.
"""

import pytest

from repro.cluster import ReactiveController
from repro.cluster.chaos import ChaosCoordinator, crash_host, drive_to_convergence
from repro.cluster.reconciler import RECONCILE_PERIOD_S, Reconciler
from repro.core.policies import DemoteDegradedVersion
from repro.net import PrefixPartition
from repro.workloads import build_degraded_version

from tests.chaos_harness import (
    MANAGER_HOST,
    RELIABLE,
    assert_converged,
    converged,
    derive_v2,
    service_fleet,
    settle,
    sorter_fleet,
    supervise,
)

pytestmark = pytest.mark.chaos

ANNOUNCE_ROUTE = {"fanout_k": 2, "announce": True}


def _route(manager):
    route = manager.relay_route or {}
    return {key: route.get(key) for key in ANNOUNCE_ROUTE}


def test_coordinator_recovery_keeps_the_relay_route():
    """A manager the coordinator recovers on restart announces its next
    wave through the relay tree, as the crashed one did."""
    fleet = sorter_fleet(41, delivery="announce")
    runtime, sim = fleet.runtime, fleet.runtime.sim
    coordinator = ChaosCoordinator(runtime, journals={"Sorter": fleet.journal})
    host = runtime.host(MANAGER_HOST)
    coordinator.crash_plan.schedule_outage(host, sim.now + 1.0, sim.now + 10.0)
    sim.run(until=sim.now + 20.0)

    recovered = runtime.class_of("Sorter")
    assert recovered is not fleet.manager and recovered.is_active
    assert _route(recovered) == ANNOUNCE_ROUTE
    before = runtime.network.count_value("relay.announce_waves")
    v2 = derive_v2(recovered)
    recovered.set_current_version(v2)
    tracker = sim.run_process(recovered.propagate_version(v2))
    assert tracker.all_acked
    assert runtime.network.count_value("relay.announce_waves") > before


def test_drive_to_convergence_recovery_keeps_the_relay_route():
    fleet = sorter_fleet(42, delivery="announce")
    runtime, sim = fleet.runtime, fleet.runtime.sim
    host = runtime.host(MANAGER_HOST)
    crash_host(runtime, host)
    host.restart()
    assert sim.run_process(
        drive_to_convergence(runtime, "Sorter", journal=fleet.journal)
    )
    recovered = runtime.class_of("Sorter")
    assert recovered is not fleet.manager
    assert recovered.relay_route == fleet.manager.relay_route


def test_unannounced_drift_is_repaired_within_one_period():
    """Level-triggered: a crash and a bare restart publish nothing, yet
    the next timed round — due within one period — rebuilds the lost
    instance (the rebuild itself takes a few seconds more)."""
    fleet = sorter_fleet(43)
    runtime, sim, manager = fleet.runtime, fleet.runtime.sim, fleet.manager
    Reconciler(runtime, lambda: manager).start()
    sim.run(until=sim.now + 1.0)
    wakes = []
    for topic in ("host.", "class.", "manager."):
        runtime.network.bus.subscribe(topic, wakes.append)
    victim = fleet.loids[0]
    host = manager.record(victim).host
    crash_host(runtime, host)
    host.restart()
    assert wakes == []
    restarted_at = sim.now
    sim.run(until=restarted_at + RECONCILE_PERIOD_S + 5.0)
    record = manager.record(victim)
    assert record.active and record.obj.version == manager.current_version


def test_rounds_on_a_converged_fleet_send_and_commit_nothing():
    fleet = sorter_fleet(44, delivery="announce")
    runtime, sim = fleet.runtime, fleet.runtime.sim
    reconciler = Reconciler(runtime, lambda: fleet.manager).start()
    sim.run(until=sim.now + 1.0)
    assert reconciler.converged()
    stats = runtime.network.stats
    sent = stats.messages_delivered + stats.messages_dropped
    entries = len(fleet.journal)
    rounds = reconciler.finished.fire_count
    sim.run(until=sim.now + 10 * RECONCILE_PERIOD_S)
    assert reconciler.finished.fire_count - rounds >= 9
    assert stats.messages_delivered + stats.messages_dropped == sent
    assert len(fleet.journal) == entries


def test_demotion_acts_while_a_promoted_manager_converges():
    """Seed 38's shape: the primary dies mid-wave, and the promoted
    manager's convergence stalls on an instance cut off from it.  A
    breach raised meanwhile is demoted on the controller's next tick —
    nothing defers to the convergence — and the fleet then converges
    back to the prior version."""
    instance_hosts = ("host01", "host02", "host03")
    fleet = service_fleet(38, 6, instance_hosts, update_policy=RELIABLE)
    runtime, sim, manager = fleet.runtime, fleet.runtime.sim, fleet.manager
    v1 = manager.current_version
    v2 = build_degraded_version(manager, added_latency_s=0.5)
    supervisor = supervise(fleet)
    controller = ReactiveController(
        runtime,
        "Svc",
        supervisor=supervisor,
        policies=[DemoteDegradedVersion()],
        interval_s=1.0,
    ).start()
    # Neither the primary nor the promotee (host02) can reach host03's
    # instances for a while: their deliveries wait out reply timeouts,
    # so the promotee's convergence runs on.
    base = sim.now
    runtime.network.faults.add_partition(
        PrefixPartition(["host00/", "host02/"], ["host03/"], base, base + 150.0)
    )
    breach = {}

    def scenario():
        yield sim.timeout(0.5)
        manager.set_current_version_async(v2)
        yield sim.timeout(1.0)
        crash_host(runtime, runtime.host(MANAGER_HOST))
        yield from settle(sim, lambda: supervisor.promotions >= 1, timeout_s=60.0)
        yield sim.timeout(3.0)
        promoted = supervisor.manager
        assert promoted.waves_in_flight, "the promoted manager is not converging"
        assert promoted.current_version == v2
        breach["at"] = sim.now
        runtime.network.publish("slo.breach", "Svc", error_rate=0.5)
        yield sim.timeout(2.0)
        breach["log"] = list(controller.remediation_log)
        yield from settle(
            sim, lambda: converged(supervisor.manager, fleet.loids, v1)
        )
        controller.stop()
        supervisor.stop()

    sim.run_process(scenario())
    sim.run()

    demotions = [
        entry for entry in breach["log"] if entry["policy"] == "demote-degraded-version"
    ]
    assert demotions, "the demotion waited behind the convergence"
    assert demotions[0]["at"] <= breach["at"] + controller.interval_s + 0.5
    assert runtime.network.count_value("controller.deferred") == 0
    assert_converged(supervisor.manager, fleet.loids, v1, "seed-38 shape", once=v2)
