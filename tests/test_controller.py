"""Unit and integration coverage for the self-healing control loop.

Covers the pieces the chaos sweep (``test_chaos_controller``) exercises
in anger: the event bus, the manager's term-fenced remediation lease /
intent journal, policy admission (budget + cooldown), a demotion raised
while a promoted manager is still converging, and end-to-end
remediations — SLO-breach rollback, quarantine-driven migration, deploy
prewarm, and hot-shard splits.
"""

import pytest

from repro.cluster import ReactiveController, build_lan
from repro.core import ManagerJournal
from repro.core.policies import (
    DemoteDegradedVersion,
    MigrateOffFlakyHost,
    PrewarmBlobCaches,
    RebalanceHotShard,
    ReliableUpdatePolicy,
    RemediationIntent,
    RemediationPolicy,
    default_remediation_policies,
)
from repro.legion import LegionRuntime
from repro.net import RetryPolicy
from repro.obs import SLO, EventBus
from repro.workloads import (
    OpenLoopLoad,
    PoissonArrivals,
    build_degraded_version,
    make_noop_manager,
)

from tests.conftest import create_dcdo, make_sorter_manager

pytestmark = pytest.mark.chaos

FAST_RETRY = RetryPolicy(
    base_s=1.0, multiplier=2.0, max_backoff_s=30.0, max_attempts=8
)


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------


def test_event_bus_exact_prefix_and_wildcard(runtime):
    bus = EventBus(runtime.sim)
    seen = {"exact": [], "prefix": [], "all": []}
    bus.subscribe("slo.breach", lambda e: seen["exact"].append(e))
    bus.subscribe("slo.", lambda e: seen["prefix"].append(e))
    bus.subscribe("*", lambda e: seen["all"].append(e))

    bus.publish("slo.breach", "svc", error_rate=0.5)
    bus.publish("slo.recovered", "svc")
    bus.publish("host.crashed", "host01")

    assert [e.topic for e in seen["exact"]] == ["slo.breach"]
    assert [e.topic for e in seen["prefix"]] == ["slo.breach", "slo.recovered"]
    assert len(seen["all"]) == 3
    assert seen["exact"][0].subject == "svc"
    assert seen["exact"][0].details["error_rate"] == 0.5
    assert bus.published == 3
    assert bus.counts()["slo.breach"] == 1


def test_event_bus_unsubscribe_and_history(runtime):
    bus = EventBus(runtime.sim, history=2)
    hits = []
    callback = hits.append
    bus.subscribe("a", callback)
    bus.publish("a", 1)
    bus.unsubscribe("a", callback)
    bus.publish("a", 2)
    assert len(hits) == 1
    bus.publish("b", 3)
    bus.publish("c", 4)
    assert [e.topic for e in bus.recent] == ["b", "c"]  # ring of 2


def test_network_publish_reaches_bus(runtime):
    events = []
    runtime.network.bus.subscribe("*", events.append)
    runtime.network.publish("custom.topic", "x", detail=1)
    assert events and events[0].topic == "custom.topic"


# ----------------------------------------------------------------------
# Remediation lease and intents
# ----------------------------------------------------------------------


def test_remediation_lease_exclusive_and_term_fenced(runtime):
    manager = make_sorter_manager(runtime, journal=ManagerJournal(name="Sorter"))
    assert manager.acquire_remediation_lease("controller:A", ttl_s=30.0)
    assert manager.holds_remediation_lease("controller:A")
    # Second owner is shut out while the lease is live...
    assert not manager.acquire_remediation_lease("controller:B")
    # ...but renewal by the holder succeeds.
    assert manager.acquire_remediation_lease("controller:A")

    # A term bump (what a promotion does) voids the lease: the zombie
    # holder no longer passes the fence, and a new owner can take it.
    manager.bump_term()
    assert not manager.holds_remediation_lease("controller:A")
    assert manager.acquire_remediation_lease("controller:B")
    assert manager.holds_remediation_lease("controller:B")


def test_remediation_lease_expires(runtime):
    manager = make_sorter_manager(runtime, journal=ManagerJournal(name="Sorter"))
    assert manager.acquire_remediation_lease("controller:A", ttl_s=5.0)
    runtime.sim.run_process(_sleep(runtime, 6.0))
    assert not manager.holds_remediation_lease("controller:A")
    assert manager.acquire_remediation_lease("controller:B")


def _sleep(runtime, seconds):
    yield runtime.sim.timeout(seconds)


def test_remediation_intents_journal_and_gc(runtime):
    journal = ManagerJournal(name="Sorter")
    manager = make_sorter_manager(runtime, journal=journal)
    manager.begin_remediation("i1", "rollback", "v2", policy="demote")
    manager.begin_remediation("i2", "migrate", "host03")
    manager.complete_remediation("i1", outcome="done")
    assert [r["intent_id"] for r in manager.open_remediations()] == ["i2"]

    # Idempotent begin: re-logging an open intent is a no-op.
    manager.begin_remediation("i2", "migrate", "host03")
    assert len(manager.open_remediations()) == 1

    # Same-term intents survive GC; after a term bump they are orphaned.
    assert manager.gc_remediations() == []
    manager.bump_term()
    orphaned = manager.gc_remediations()
    assert [r["intent_id"] for r in orphaned] == ["i2"]
    assert manager.open_remediations() == []
    status = manager.remediation_status()
    assert status["total"] == 2 and status["open"] == []


def test_remediation_state_survives_recovery(runtime):
    from repro.core import recover_manager

    journal = ManagerJournal(name="Sorter")
    manager = make_sorter_manager(runtime, journal=journal)
    loid, __ = create_dcdo(runtime, manager, host_name="host01")
    manager.acquire_remediation_lease("controller:Sorter")
    manager.begin_remediation("i1", "rollback", "v2")
    manager.begin_remediation("i2", "migrate", "host02")
    manager.complete_remediation("i1", outcome="done")

    manager.host.crash()
    recovered = runtime.sim.run_process(
        recover_manager(runtime, journal, host_name="host02")
    )
    # The open intent replayed; the closed one replayed closed; the
    # recovered term outran the lease term, so GC orphans what the dead
    # primary's controller left in flight.
    assert [r["intent_id"] for r in recovered.open_remediations()] == ["i2"]
    orphaned = recovered.gc_remediations()
    assert [r["intent_id"] for r in orphaned] == ["i2"]
    assert not recovered.holds_remediation_lease("controller:Sorter")


def test_remediation_state_survives_checkpoint(runtime):
    from repro.core import recover_manager

    journal = ManagerJournal(name="Sorter")
    manager = make_sorter_manager(runtime, journal=journal)
    manager.acquire_remediation_lease("controller:Sorter", ttl_s=1e6)
    manager.begin_remediation("i1", "rollback", "v2")
    manager.write_checkpoint()
    manager.host.crash()
    recovered = runtime.sim.run_process(
        recover_manager(runtime, journal, host_name="host02")
    )
    assert [r["intent_id"] for r in recovered.open_remediations()] == ["i1"]


# ----------------------------------------------------------------------
# Controller admission: budget and cooldown
# ----------------------------------------------------------------------


class _AlwaysActPolicy(RemediationPolicy):
    """Test double: proposes one no-op action per tick, distinct targets."""

    name = "always-act"
    cooldown_s = 1e9  # any repeat on the same target is cooldown-limited

    def __init__(self):
        self.executed = []
        self._seq = 0

    def evaluate(self, ctx):
        self._seq += 1
        return [
            RemediationIntent(
                policy=self.name, kind="noop", target=f"t{self._seq}"
            )
        ]

    def execute(self, ctx, intent):
        self.executed.append(intent.target)
        return {"ok": True}
        yield  # pragma: no cover


def test_controller_budget_limits_actions_per_window():
    runtime = LegionRuntime(build_lan(4, seed=3))
    make_sorter_manager(runtime, journal=ManagerJournal(name="Sorter"))
    policy = _AlwaysActPolicy()
    controller = ReactiveController(
        runtime,
        "Sorter",
        policies=[policy],
        interval_s=1.0,
        budget=3,
        budget_window_s=1e9,
    ).start()
    runtime.sim.run_process(_sleep(runtime, 20.0))
    controller.stop()
    # Distinct targets every tick, so only the budget can stop it.
    assert len(policy.executed) == 3
    assert runtime.network.count_value("controller.rate_limited") >= 1
    assert len(controller.remediation_log) == 3
    assert all(e["outcome"] == "done" for e in controller.remediation_log)


class _SameTargetPolicy(_AlwaysActPolicy):
    name = "same-target"
    cooldown_s = 30.0

    def evaluate(self, ctx):
        return [
            RemediationIntent(policy=self.name, kind="noop", target="fixed")
        ]


def test_controller_cooldown_limits_repeat_target():
    runtime = LegionRuntime(build_lan(4, seed=3))
    make_sorter_manager(runtime, journal=ManagerJournal(name="Sorter"))
    policy = _SameTargetPolicy()
    controller = ReactiveController(
        runtime, "Sorter", policies=[policy], interval_s=1.0, budget=100
    ).start()
    runtime.sim.run_process(_sleep(runtime, 45.0))
    controller.stop()
    # ~45 s of ticking, 30 s cooldown: the same target fires twice.
    assert len(policy.executed) == 2


def test_zombie_controller_goes_quiet_after_term_bump():
    runtime = LegionRuntime(build_lan(4, seed=3))
    manager = make_sorter_manager(runtime, journal=ManagerJournal(name="Sorter"))
    policy = _AlwaysActPolicy()
    controller = ReactiveController(
        runtime, "Sorter", policies=[policy], interval_s=1.0, budget=1000
    ).start()
    runtime.sim.run_process(_sleep(runtime, 5.0))
    acted_before = len(policy.executed)
    assert acted_before >= 1
    # Depose the manager out from under the controller (what a
    # promotion does to the old primary): the controller must stop
    # acting against it rather than fight the promotee.
    manager.deposed = True
    runtime.sim.run_process(_sleep(runtime, 10.0))
    controller.stop()
    assert len(policy.executed) == acted_before
    assert runtime.network.count_value("controller.skipped_no_manager") >= 1


# ----------------------------------------------------------------------
# End-to-end remediations
# ----------------------------------------------------------------------


def _noop_fleet(sim_seed=5, instances=4, **kwargs):
    from repro.core import RemovePolicy

    runtime = LegionRuntime(build_lan(6, seed=sim_seed))
    journal = ManagerJournal(name="Svc")
    manager, __ = make_noop_manager(
        runtime,
        "Svc",
        2,
        3,
        journal=journal,
        host_name="host00",
        propagation_retry_policy=FAST_RETRY,
        # In-flight calls on a degraded build must not veto its removal
        # forever (§3.2 remove rule): drain briefly, then abort them.
        remove_policy=RemovePolicy.timeout(2.0),
        **kwargs,
    )
    loids = [
        runtime.sim.run_process(
            manager.create_instance(host_name=f"host{(i % 4) + 1:02d}")
        )
        for i in range(instances)
    ]
    return runtime, manager, journal, loids


def test_controller_demotes_degraded_version():
    """An SLO breach on an unguarded adoption triggers a controller
    rollback wave to the parent version, journaled as an intent."""
    runtime, manager, journal, loids = _noop_fleet(
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY)
    )
    sim = runtime.sim
    v1 = manager.current_version
    v2 = build_degraded_version(manager, added_latency_s=0.5)

    slo = SLO(
        name="svc",
        latency_targets={0.99: 0.050},
        max_error_rate=0.02,
        min_samples=20,
    )
    monitor = runtime.network.slo_monitor("svc", slo=slo, window_s=6.0)
    load = OpenLoopLoad(
        runtime.make_client(host_name="host05"),
        loids,
        PoissonArrivals(30.0),
        runtime.rng.stream("traffic"),
        monitor=monitor,
        duration_s=400.0,
    )
    load.start()
    controller = ReactiveController(
        runtime,
        "Svc",
        policies=[DemoteDegradedVersion()],
        interval_s=1.0,
    ).start()

    def scenario():
        yield sim.timeout(5.0)
        manager.set_current_version_async(v2)  # unguarded adoption
        deadline = sim.now + 200.0
        while sim.now < deadline:
            if manager.current_version == v1 and all(
                manager.record(loid).obj.version == v1 for loid in loids
            ):
                break
            yield sim.timeout(2.0)
        load.stop()
        controller.stop()

    sim.run_process(scenario())
    sim.run()

    assert manager.current_version == v1, "controller never rolled back"
    for loid in loids:
        assert manager.record(loid).obj.version == v1
    rollbacks = [
        e for e in controller.remediation_log
        if e["policy"] == "demote-degraded-version"
    ]
    assert rollbacks and rollbacks[0]["outcome"] == "done"
    assert runtime.network.count_value("controller.rollbacks") >= 1
    # The intent was journaled open and closed.
    assert manager.remediation_status()["open"] == []
    assert manager.remediation_status()["total"] >= 1


def test_slo_breach_survives_a_burst_of_instance_events():
    """The controller subscribes only to the topics its policies read,
    so a wave's per-instance events — 600 of them within one tick —
    cannot push an ``slo.breach`` out of its bounded inbox."""
    runtime = LegionRuntime(build_lan(4, seed=3))
    manager = make_sorter_manager(runtime, journal=ManagerJournal(name="Sorter"))
    loids = [create_dcdo(runtime, manager)[0] for __ in range(2)]
    v1 = manager.current_version
    v2 = manager.derive_version(v1)
    manager.mark_instantiable(v2)
    manager.set_current_version(v2)  # explicit policy: designated only
    controller = ReactiveController(
        runtime, "Sorter", policies=[DemoteDegradedVersion()], interval_s=1.0
    ).start()
    runtime.network.publish("slo.breach", "Sorter", error_rate=0.5)
    for index in range(200):
        loid = loids[index % 2]
        runtime.network.publish("dcdo.evolved", loid, to_version=str(v2))
        runtime.network.publish(
            "manager.instance-version", manager.loid, loid=loid, version=v2
        )
        runtime.network.publish(
            "manager.propagation-ack", manager.loid, loid=loid, version=v2
        )
    runtime.sim.run_process(_sleep(runtime, 5.0))
    controller.stop()
    assert [entry["policy"] for entry in controller.remediation_log] == [
        "demote-degraded-version"
    ]
    assert manager.current_version == v1


def test_controller_migrates_off_quarantined_host():
    runtime, manager, journal, loids = _noop_fleet(instances=4)
    sim = runtime.sim
    health = runtime.network.enable_health()
    controller = ReactiveController(
        runtime,
        "Svc",
        policies=[MigrateOffFlakyHost()],
        interval_s=1.0,
    ).start()
    flaky = "host01"
    victims = [l for l in loids if manager.record(l).host.name == flaky]
    assert victims, "fleet layout must place instances on the flaky host"

    def scenario():
        yield sim.timeout(2.0)
        for __ in range(8):  # quarantine-grade evidence
            health.observe(flaky, "timeout")
        deadline = sim.now + 120.0
        while sim.now < deadline:
            if all(
                manager.record(l).host.name != flaky
                and manager.record(l).active
                for l in victims
            ):
                break
            yield sim.timeout(2.0)
        controller.stop()

    sim.run_process(scenario())
    sim.run()

    for loid in victims:
        record = manager.record(loid)
        assert record.active
        assert record.host.name != flaky, f"{loid} still on the flaky host"
    migrations = [
        e for e in controller.remediation_log
        if e["policy"] == "migrate-off-flaky-host"
    ]
    assert migrations and migrations[0]["outcome"] == "done"
    assert runtime.network.count_value("controller.migrations") >= len(victims)


def test_controller_prewarms_blob_caches():
    runtime, manager, journal, loids = _noop_fleet()
    sim = runtime.sim
    v2 = build_degraded_version(manager, added_latency_s=0.0)
    instance_hosts = {
        manager.record(l).host for l in loids if manager.record(l).active
    }
    descriptor = manager.descriptor_of(v2, allow_instantiable=True)
    missing_before = sum(
        1
        for host in instance_hosts
        for ref in descriptor.component_refs().values()
        if host.cache.peek(ref.component.variant_for_host(host).blob_id) is None
    )
    assert missing_before > 0, "nothing to prewarm; test layout broken"

    controller = ReactiveController(
        runtime, "Svc", policies=[PrewarmBlobCaches()], interval_s=1.0
    ).start()

    def scenario():
        yield sim.timeout(1.0)
        runtime.network.publish("deploy.scheduled", "Svc", version=v2)
        yield sim.timeout(20.0)
        controller.stop()

    sim.run_process(scenario())
    sim.run()

    for host in instance_hosts:
        for ref in descriptor.component_refs().values():
            variant = ref.component.variant_for_host(host)
            assert host.cache.peek(variant.blob_id) is not None, (
                f"{variant.blob_id} not prewarmed on {host.name}"
            )
    assert runtime.network.count_value("controller.prewarmed_blobs") >= 1


def test_controller_splits_hot_shard():
    from tests.conftest import make_sorter_plane

    runtime = LegionRuntime(build_lan(6, seed=9))
    plane = make_sorter_plane(runtime, shard_count=2)
    controller = ReactiveController(
        runtime,
        "Sorter",
        plane=plane,
        policies=[RebalanceHotShard(outlier_factor=2.0, min_samples=3)],
        interval_s=1.0,
    )
    controller.start()
    # Feed the wave-latency signal on the bus: shard 1 is persistently
    # 4x slower than shard 0.
    for __ in range(5):
        runtime.network.publish("wave.complete", "Sorter", shard_id=0, duration_s=1.0)
        runtime.network.publish("wave.complete", "Sorter", shard_id=1, duration_s=4.0)
    runtime.sim.run_process(_sleep(runtime, 30.0))
    controller.stop()
    runtime.sim.run()

    assert len(plane.shard_ids) == 3, "hot shard was never split"
    splits = [
        e for e in controller.remediation_log
        if e["policy"] == "rebalance-hot-shard"
    ]
    assert splits and splits[0]["outcome"] == "done"
    assert runtime.network.count_value("controller.shard_splits") == 1


def test_default_policy_registry_complete():
    names = [policy.name for policy in default_remediation_policies()]
    assert names == [
        "migrate-off-flaky-host",
        "demote-degraded-version",
        "prewarm-blob-caches",
        "rebalance-hot-shard",
    ]
