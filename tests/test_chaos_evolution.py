"""Chaos tests: evolution propagation under randomized fault schedules.

The acceptance invariant, checked across many seeded scenarios: after
all faults heal and the convergence loop runs, every surviving DCDO
reflects the latest instantiable version, with each configuration
applied exactly once per live object (at-least-once delivery, idempotent
application → exactly-once effect).  A dedicated test crashes the
manager mid-propagation and shows journal recovery finishing the wave
without re-deriving the version or double-applying.  The schedule
generator's own contract — determinism and per-kind stream
independence — is checked here too.
"""

import inspect
from functools import partial

import pytest

from repro.cluster.chaos import (
    FAULT_KINDS,
    ChaosCoordinator,
    ChaosSchedule,
    Outage,
    crash_host,
)
from repro.core import DeliveryStatus, recover_manager
from repro.net import PrefixPartition

from tests.chaos_harness import (
    RELIABLE,
    assert_converged,
    converge_fleet,
    derive_v2,
    roll,
    run_chaos,
    sorter_fleet,
    sweep,
)

pytestmark = pytest.mark.chaos

#: The manager lives on host00 with its components, so schedules that
#: crash host00 exercise manager recovery; one instance per host.
build_fleet = partial(
    sorter_fleet,
    hosts=5,
    instance_hosts=("host00", "host01", "host02", "host03"),
    pin_ico=False,
    update_policy=RELIABLE,
)


@sweep()
def test_chaos_schedule_converges_exactly_once(seed):
    """Across the seeded fault schedules: all survivors converge to the
    latest version and no object applies it more than once."""
    fleet = build_fleet(100 + seed)
    manager = fleet.manager
    originals = {loid: manager.record(loid).obj for loid in fleet.loids}
    schedule = roll(fleet, seed)
    versions = (manager.current_version, derive_v2(manager))
    # A rebuilt (crash-recovered) object may legitimately have been
    # *built* at v2 rather than evolved to it — zero applications.
    run_chaos(
        fleet,
        schedule,
        lambda: manager.set_current_version_async(versions[1]),
        versions,
        f"seed {seed}",
        at=0.5,
        originals=originals,
    )


def derive_v2_removing_sort(manager):
    """Derive a version that drops ``sort`` (and its component) entirely."""
    version = manager.derive_version(manager.current_version)
    descriptor = manager.descriptor_of(version)
    descriptor.disable("sort", "sorter")
    descriptor.remove_component("sorter")
    manager.mark_instantiable(version)
    return version


@sweep(6)
def test_chaos_lease_stub_never_succeeds_on_removed_function(seed):
    """Lease-caching stubs under chaos: epoch leases may go stale, but
    no call against the removed ``sort`` function ever *succeeds* —
    stale leases only ever cost a MethodNotFound plus a re-query, never
    a wrong answer (§3.1 preserved through the fast path)."""
    from repro.core.dcdo import RemovePolicy
    from repro.core.stub import DCDOStub

    fleet = build_fleet(300 + seed, remove_policy=RemovePolicy.delay())
    runtime, manager = fleet.runtime, fleet.manager
    schedule = roll(fleet, seed)
    v1, v2 = manager.current_version, derive_v2_removing_sort(manager)

    outcomes = []  # (ok, payload) per completed sort attempt
    stubs = []
    stop = {"flag": False}

    def traffic(client_host, loid):
        client = runtime.make_client(client_host)
        stub = DCDOStub(
            client, loid, retry_on_disappearance=True, lease_ttl_s=5.0
        )
        stubs.append(stub)
        values = [3, 1, 2]
        while not stop["flag"]:
            try:
                result = yield from stub.call("sort", values, check_first=True)
            except Exception as error:  # noqa: BLE001 - chaos traffic
                outcomes.append((False, error))
                if client.endpoint.is_closed:
                    return  # our own host crashed: this caller is gone
            else:
                outcomes.append((True, result))
            yield runtime.sim.timeout(0.5)

    host_names = list(runtime.hosts)
    for index, loid in enumerate(fleet.loids[:3]):
        runtime.sim.spawn(
            traffic(host_names[(index + 1) % len(host_names)], loid),
            name=f"traffic:{loid}",
        )

    def converge():
        yield from converge_fleet(fleet, f"seed {seed}")
        stop["flag"] = True

    run_chaos(
        fleet,
        schedule,
        lambda: manager.set_current_version_async(v2),
        (v1, v2),
        f"seed {seed}",
        at=0.5,
        converge=converge,
    )
    manager_now = runtime.class_of("Sorter")
    assert_converged(manager_now, fleet.loids, v2, f"seed {seed}")
    for loid in fleet.loids:
        assert "sort" not in manager_now.record(loid).obj.dfm.exported_interface()
    # Every call that *succeeded* produced the correct pre-evolution
    # answer; once sort was removed, stale leases surface as errors,
    # never as bogus successes.
    successes = [payload for ok, payload in outcomes if ok]
    assert all(result == [1, 2, 3] for result in successes), successes
    assert successes, f"seed {seed}: traffic never got through"
    # The lease fast path was genuinely exercised.
    assert sum(stub.lease_hits for stub in stubs) > 0


def test_manager_crash_mid_propagation_resumes_from_journal():
    """Crash the manager with one delivery still pending; the journal
    recovery must finish that delivery only — same version ids, no
    re-derivation, no double application."""
    runtime, manager, journal, loids, __, __ = build_fleet(7)
    class_loid = manager.loid
    v2 = derive_v2(manager)
    all_versions = set(manager.versions())
    # Cut the manager's host off from host03 so that instance's
    # delivery cannot ack before the crash.
    runtime.network.faults.add_partition(
        PrefixPartition(["host00/"], ["host03/"], start=0.0, end=200.0)
    )
    blocked_loid = loids[3]

    def scenario():
        yield runtime.sim.timeout(1.0)
        manager.set_current_version_async(v2)
        # Wait for the three reachable deliveries (host00-02) to ack.
        for __ in range(120):
            tracker = manager.propagation(v2)
            if tracker and tracker.count(DeliveryStatus.ACKED) >= 3:
                break
            yield runtime.sim.timeout(1.0)
        tracker = manager.propagation(v2)
        assert tracker.count(DeliveryStatus.ACKED) == 3
        assert tracker.delivery(blocked_loid).status is DeliveryStatus.PENDING
        acked_before = {
            d.loid
            for d in tracker.deliveries()
            if d.status is DeliveryStatus.ACKED
        }
        crash_host(runtime, runtime.host("host00"))
        # Restart well after the partition heals, then recover from
        # the journal (recovery resumes open propagations itself).
        yield runtime.sim.timeout(300.0 - runtime.sim.now)
        runtime.host("host00").restart()
        recovered = yield from recover_manager(runtime, journal)
        return recovered, acked_before

    recovered, acked_before = runtime.sim.run_process(scenario())
    runtime.sim.run()

    # Same identity, same version tree: nothing was re-derived.
    assert recovered is runtime.class_of("Sorter")
    assert recovered.loid == class_loid
    assert set(recovered.versions()) == all_versions
    assert recovered.current_version == v2
    tracker = recovered.propagation(v2)
    assert tracker.complete and tracker.all_acked
    # The blocked instance got exactly one application, post-recovery.
    blocked_obj = recovered.record(blocked_loid).obj
    assert blocked_obj.version == v2
    assert blocked_obj.applications_by_version.get(v2) == 1
    assert blocked_obj.duplicate_deliveries == 0
    # Already-acked survivors (host01/02) were not re-delivered.
    for loid in loids[1:3]:
        assert loid in acked_before
        obj = recovered.record(loid).obj
        assert obj.applications_by_version.get(v2) == 1
        assert obj.duplicate_deliveries == 0
    # The co-located instance died with the manager's host; recovering
    # it rebuilds straight at its journaled version — no re-application.
    runtime.sim.run_process(recovered.recover_instance(loids[0]))
    obj0 = recovered.record(loids[0]).obj
    assert obj0.version == v2
    assert obj0.applications_by_version.get(v2, 0) == 0
    assert recovered.instance_version(loids[0]) == v2
    # Recovery is visible in the fleet metrics.
    snapshot = runtime.network.metrics.snapshot()
    assert snapshot.get("manager.recoveries") == 1
    assert snapshot.get("host.crashes") == 1
    assert snapshot.get("host.restarts") == 1


def test_coordinator_auto_recovers_manager_and_instances():
    """A scheduled outage of the manager's host heals hands-free: the
    coordinator recovers the manager from its journal and rebuilds the
    co-located instance on restart."""
    runtime, manager, journal, loids, __, __ = build_fleet(
        7, instance_hosts=("host00", "host01", "host02")
    )
    coordinator = ChaosCoordinator(runtime, journals={"Sorter": journal})
    coordinator.crash_plan.schedule_outage(
        runtime.host("host00"), crash_at=5.0, restart_at=40.0
    )
    runtime.sim.run(until=100.0)

    recovered = runtime.class_of("Sorter")
    assert recovered is not manager  # a fresh object, same identity
    assert recovered.loid == manager.loid
    assert recovered.is_active
    kinds = [(kind, what) for __, kind, what in coordinator.recovery_log]
    assert ("manager", "Sorter") in kinds
    assert ("instance", loids[0]) in kinds
    assert coordinator.crash_log and coordinator.crash_log[0][1] == "host00"
    record = recovered.record(loids[0])
    assert record.active and record.obj.version == manager.current_version


#: Disjoint host pools, so every kind finds victims on sixteen hosts.
HOST_POOLS = dict(
    relay_hosts=("host01", "host02", "host03"),
    manager_hosts=("host04", "host05", "host06"),
    shard_hosts=("host07", "host08", "host09", "host10", "host11", "host12"),
    instance_hosts=("host13", "host14"),
    ico_hosts=("host15",),
)


def test_chaos_schedule_is_deterministic():
    """Every kind draws from its own stream: the same seed gives an
    equal schedule, and enabling any other kind leaves a kind's draws
    unchanged — except that crash victims skip hosts an earlier outage
    kind already takes down (generating the kind alone with those hosts
    protected reproduces it exactly).  Each count option of generate
    belongs to one kind and turns on only that kind, and heal_time
    covers every window."""
    names = [f"host{i:02d}" for i in range(16)]
    parameters = inspect.signature(ChaosSchedule.generate).parameters
    options = [name for name, p in parameters.items() if type(p.default) is int]

    def generate(seed, protect=(), **on):
        counts = dict(dict.fromkeys(options, 0), **on)
        return ChaosSchedule.generate(
            seed, names, protect=protect, **HOST_POOLS, **counts
        )

    # Seed 1 rolls at least one fault of every kind.
    full = generate(1, **dict.fromkeys(options, 2))
    assert full.faults == generate(1, **dict.fromkeys(options, 2)).faults
    assert full.faults != generate(2, **dict.fromkeys(options, 2)).faults
    assert sorted(kind.option for kind in FAULT_KINDS.values()) == sorted(options)
    down = set()
    for kind, faults in full.faults.items():
        assert faults, f"{kind} rolled no faults"
        alone = generate(1, protect=tuple(down), **{FAULT_KINDS[kind].option: 2})
        assert alone.faults[kind] == faults, kind
        assert [name for name, rolled in alone.faults.items() if rolled] == [kind]
        down |= {fault.host for fault in faults if isinstance(fault, Outage)}
    # Outage victims never overlap, and heal_time covers every window.
    victims = [fault.host for fault in full.records(Outage)]
    assert len(victims) == len(set(victims))
    ends = [getattr(f, "end", getattr(f, "at", 0.0)) for f in full.records(object)]
    assert full.heal_time == max(ends) > 0.0
