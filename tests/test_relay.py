"""Host relays: batched evolution waves, diffusion trees, recovery.

The scale-out claim under test: with relays deployed, a propagation
wave costs the manager O(hosts) RPCs instead of O(instances), while
every PR 3 delivery guarantee — tracker/journal bookkeeping, terminal
failures, retry-then-FAILED — survives unchanged because anything a
relay cannot positively confirm falls back to direct delivery.
"""

import heapq

import pytest

from repro.cluster import Reconciler, build_lan, deploy_relays, restore_relays
from repro.cluster.chaos import crash_host
from repro.cluster.reconciler import RECONCILE_PERIOD_S
from repro.cluster.relay import (
    BATCH_JOB_BYTES,
    build_relay_tree,
    call_relay,
    count_jobs,
    iter_jobs,
)
from repro.core import DeliveryStatus, DiffBaseMismatch, ManagerJournal
from repro.legion import LegionRuntime, ObjectUnreachable
from repro.legion.errors import StaleManagerTerm
from repro.legion.loid import mint_loid
from repro.net import CircuitOpen, ManagerTerm, RetryPolicy
from repro.net.message import HEADER_BYTES

from tests.conftest import create_dcdo, make_sorter_manager

ONE_SHOT = RetryPolicy(base_s=1.0, max_attempts=1)


def build_relay_fleet(hosts=4, instances_per_host=2, journal=None):
    """Runtime + sorter manager + instances spread over host01..N."""
    runtime = LegionRuntime(build_lan(hosts + 1, seed=11))
    manager = make_sorter_manager(runtime, journal=journal)
    loids = []
    for host_index in range(1, hosts + 1):
        for __ in range(instances_per_host):
            loid, ___ = create_dcdo(
                runtime, manager, host_name=f"host{host_index:02d}"
            )
            loids.append(loid)
    return runtime, manager, loids


def derive_v2(manager):
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "compare-desc")
    manager.descriptor_of(version).enable(
        "compare", "compare-desc", replace_current=True
    )
    manager.mark_instantiable(version)
    manager.set_current_version(version)
    return version


# ----------------------------------------------------------------------
# Deployment and directory management
# ----------------------------------------------------------------------


def test_deploy_relays_one_per_up_host_and_idempotent():
    runtime = LegionRuntime(build_lan(4, seed=3))
    crash_host(runtime, runtime.host("host03"))
    directory = deploy_relays(runtime)
    assert sorted(directory) == ["host00", "host01", "host02"]
    for host_name, loid in directory.items():
        relay = runtime.live_object(loid)
        assert relay.is_active
        assert relay.host.name == host_name
        assert runtime.context_space.lookup(f"/relays/{host_name}") == loid
    # Redeploying reuses the live relays instead of minting new ones.
    again = deploy_relays(runtime)
    assert again == directory


def test_restore_relays_after_host_restart():
    runtime = LegionRuntime(build_lan(3, seed=3))
    directory = deploy_relays(runtime)
    crash_host(runtime, runtime.host("host02"))
    assert not runtime.live_object(directory["host02"]).is_active
    # Down host: skipped, nothing restored yet.
    assert runtime.sim.run_process(restore_relays(runtime, directory)) == []
    runtime.host("host02").restart()
    restored = runtime.sim.run_process(restore_relays(runtime, directory))
    assert restored == ["host02"]
    assert runtime.live_object(directory["host02"]).is_active
    # Live relays are left alone on a second pass.
    assert runtime.sim.run_process(restore_relays(runtime, directory)) == []


# ----------------------------------------------------------------------
# Batched waves
# ----------------------------------------------------------------------


def test_relay_wave_acks_all_with_host_granular_rpcs():
    journal = ManagerJournal(name="Sorter")
    runtime, manager, loids = build_relay_fleet(
        hosts=4, instances_per_host=3, journal=journal
    )
    manager.use_relays(deploy_relays(runtime))
    v2 = derive_v2(manager)
    manager.invoker.stats.reset()
    tracker = runtime.sim.run_process(manager.propagate_version(v2))
    assert tracker.all_acked and tracker.complete
    for loid in loids:
        assert manager.record(loid).obj.version == v2
        assert manager.instance_version(loid) == v2
    # One evolveBatch per host, not one RPC per instance.
    assert runtime.network.count_value("relay.batches") == 4
    assert runtime.network.count_value("relay.batch_instances") == 12
    assert manager.invoker.stats.invocations == 4
    # The journal records the same per-instance bookkeeping as direct
    # delivery: an instance-version line then a propagation ack, each.
    kinds = [entry.kind for entry in journal.entries]
    assert kinds.count("instance-version") >= 12
    assert kinds.count("propagation-ack") == 12


def test_relay_wave_acks_already_current_instances_without_rpc():
    runtime, manager, __ = build_relay_fleet(hosts=2, instances_per_host=1)
    directory = deploy_relays(runtime)
    manager.use_relays(directory)
    v2 = derive_v2(manager)
    runtime.sim.run_process(manager.propagate_version(v2))
    # A newcomer builds at v2; re-driving the wave must ack it without
    # shipping any new batch.
    newcomer, obj = create_dcdo(runtime, manager, host_name="host01")
    assert obj.version == v2
    before = runtime.network.count_value("relay.batches")
    tracker = runtime.sim.run_process(
        manager.propagate_version(v2, loids=[newcomer])
    )
    assert tracker.delivery(newcomer).status is DeliveryStatus.ACKED
    assert runtime.network.count_value("relay.batches") == before


def test_dead_relay_falls_back_to_direct_delivery():
    runtime, manager, loids = build_relay_fleet(hosts=2, instances_per_host=2)
    directory = deploy_relays(runtime)
    # Point host02's entry at a relay that never existed: every batch
    # to it fails, so its instances must arrive via the direct path.
    directory["host02"] = runtime.mint_loid("HostRelay")
    manager.use_relays(directory)
    v2 = derive_v2(manager)
    tracker = runtime.sim.run_process(
        manager.propagate_version(v2, retry_policy=ONE_SHOT)
    )
    assert tracker.all_acked and tracker.complete
    for loid in loids:
        assert manager.record(loid).obj.version == v2
    assert runtime.network.count_value("relay.batch_failures") >= 1
    assert runtime.network.count_value("relay.fallback_instances") == 2
    # host01's batch still went through a relay.
    assert runtime.network.count_value("relay.batches") == 1


# ----------------------------------------------------------------------
# Diffusion trees
# ----------------------------------------------------------------------


def test_build_relay_tree_shape():
    batches = {f"h{i}": [(f"loid{i}", None)] for i in range(7)}
    directory = {f"h{i}": f"relay{i}" for i in range(7)}
    root = build_relay_tree(batches, directory, fanout_k=2)
    assert root["host"] == "h0" and root["relay"] == "relay0"
    assert [child["host"] for child in root["children"]] == ["h1", "h2"]
    assert [c["host"] for c in root["children"][0]["children"]] == ["h3", "h4"]
    assert count_jobs(root) == 7
    assert sorted(loid for loid, __ in iter_jobs(root)) == sorted(
        f"loid{i}" for i in range(7)
    )
    with pytest.raises(ValueError):
        build_relay_tree(batches, directory, fanout_k=1)
    assert build_relay_tree({}, directory, fanout_k=2) is None


def test_tree_wave_single_manager_rpc():
    runtime, manager, loids = build_relay_fleet(hosts=4, instances_per_host=2)
    manager.use_relays(deploy_relays(runtime), fanout_k=2)
    v2 = derive_v2(manager)
    manager.invoker.stats.reset()
    tracker = runtime.sim.run_process(manager.propagate_version(v2))
    assert tracker.all_acked and tracker.complete
    for loid in loids:
        assert manager.record(loid).obj.version == v2
    # The manager sent exactly one RPC: the root bundle.
    assert manager.invoker.stats.invocations == 1
    assert runtime.network.count_value("relay.tree_waves") == 1
    assert runtime.network.count_value("relay.batches") == 4


def test_tree_subtree_failure_reports_and_falls_back():
    runtime, manager, loids = build_relay_fleet(hosts=3, instances_per_host=2)
    directory = deploy_relays(runtime)
    directory["host03"] = runtime.mint_loid("HostRelay")
    manager.use_relays(directory, fanout_k=2)
    v2 = derive_v2(manager)
    tracker = runtime.sim.run_process(
        manager.propagate_version(v2, retry_policy=ONE_SHOT)
    )
    assert tracker.all_acked and tracker.complete
    for loid in loids:
        assert manager.record(loid).obj.version == v2
    assert runtime.network.count_value("relay.subtree_failures") >= 1
    assert runtime.network.count_value("relay.fallback_instances") == 2


def test_use_relays_validation_and_disable():
    runtime, manager, __ = build_relay_fleet(hosts=2, instances_per_host=1)
    directory = deploy_relays(runtime)
    with pytest.raises(ValueError):
        manager.use_relays(directory, fanout_k=1)
    manager.use_relays(directory)
    manager.use_relays(None)
    v2 = derive_v2(manager)
    before = runtime.network.count_value("relay.batches")
    tracker = runtime.sim.run_process(manager.propagate_version(v2))
    assert tracker.all_acked
    assert runtime.network.count_value("relay.batches") == before


# ----------------------------------------------------------------------
# Announcement waves
# ----------------------------------------------------------------------


def test_set_digest_is_order_independent():
    from repro.cluster.relay import set_digest

    a = mint_loid("legion", "Sorter")
    b = mint_loid("legion", "Sorter")
    assert set_digest([a, b]) == set_digest([b, a])
    assert set_digest([a]) != set_digest([a, b])
    assert set_digest([]) == 0


def test_build_announce_tree_shape():
    from repro.cluster.relay import (
        build_announce_tree,
        count_tree_hosts,
        iter_tree_hosts,
    )

    directory = {f"h{i}": f"relay{i}" for i in range(7)}
    root = build_announce_tree(sorted(directory), directory, fanout_k=2)
    assert root["host"] == "h0" and root["relay"] == "relay0"
    assert [child["host"] for child in root["children"]] == ["h1", "h2"]
    assert count_tree_hosts(root) == 7
    assert sorted(iter_tree_hosts(root)) == sorted(directory)
    assert build_announce_tree([], directory, fanout_k=2) is None
    with pytest.raises(ValueError):
        build_announce_tree(sorted(directory), directory, fanout_k=1)


def test_announce_wave_acks_all_with_one_rpc_and_no_instance_binds():
    journal = ManagerJournal(name="Sorter")
    runtime, manager, loids = build_relay_fleet(
        hosts=4, instances_per_host=3, journal=journal
    )
    manager.use_relays(deploy_relays(runtime), fanout_k=2, announce=True)
    v2 = derive_v2(manager)
    manager.invoker.stats.reset()
    resolves_before = runtime.binding_agent.resolutions_served
    agent = runtime.binding_agent
    resolved = []
    resolve_local = agent.resolve_local

    def spy(loid):
        resolved.append(loid)
        return resolve_local(loid)

    agent.resolve_local = spy
    tracker = runtime.sim.run_process(manager.propagate_version(v2))
    assert tracker.all_acked and tracker.complete
    for loid in loids:
        assert manager.record(loid).obj.version == v2
        assert manager.instance_version(loid) == v2
    # One announcement bundle from the manager; constant-size payloads
    # carried the wave, and relays applied their colocated instances
    # without binding to them at all.
    assert manager.invoker.stats.invocations == 1
    assert runtime.network.count_value("relay.announce_waves") == 1
    assert not set(resolved) & set(loids)
    assert runtime.network.count_value("relay.fallback_instances") == 0
    # Binding-agent lookups during the wave are roster-relay forwards
    # (one per up host — the fleet form visits every roster host, even
    # the instance-less manager host) plus one ICO resolve per host's
    # first blob fetch — bounded by hosts, never one per instance.
    up_hosts = len(runtime.hosts)
    assert (
        runtime.binding_agent.resolutions_served - resolves_before
        <= 2 * up_hosts
    )
    kinds = [entry.kind for entry in journal.entries]
    assert kinds.count("propagation-ack") == 12


def test_announce_wave_dead_relay_falls_back():
    from repro.cluster.relay import seed_announce_roster

    runtime, manager, loids = build_relay_fleet(hosts=3, instances_per_host=2)
    directory = deploy_relays(runtime)
    directory["host03"] = runtime.mint_loid("HostRelay")
    # Poison the roster too, as a real relay death would: the fleet
    # round sees the subtree shortfall and the wave drops to per-host
    # announcements, which localize the failure to host03.
    seed_announce_roster(runtime, directory)
    manager.use_relays(directory, fanout_k=2, announce=True)
    v2 = derive_v2(manager)
    tracker = runtime.sim.run_process(
        manager.propagate_version(v2, retry_policy=ONE_SHOT)
    )
    assert tracker.all_acked and tracker.complete
    for loid in loids:
        assert manager.record(loid).obj.version == v2
    assert runtime.network.count_value("relay.fallback_instances") == 2
    assert runtime.network.count_value("relay.subtree_failures") >= 1


def test_chunk_spans_partition_contiguously():
    from repro.cluster.relay import chunk_spans

    assert chunk_spans(1, 1, 4) == []
    spans = chunk_spans(1, 10, 4)
    assert len(spans) <= 4
    flat = [i for lo, hi in spans for i in range(lo, hi)]
    assert flat == list(range(1, 10))
    assert chunk_spans(0, 3, 8) == [(0, 1), (1, 2), (2, 3)]


def test_deploy_relays_seeds_shared_roster():
    runtime, __, ___ = build_relay_fleet(hosts=2, instances_per_host=1)
    directory = deploy_relays(runtime)
    rosters = {
        runtime.live_object(loid).announce_roster
        for loid in directory.values()
    }
    assert len(rosters) == 1  # every relay holds the same (shared) roster
    roster = rosters.pop()
    assert [(host, loid) for host, loid, __ in roster] == sorted(
        directory.items()
    )
    # The roster ships each relay's current binding, membership-list
    # style, so fleet forwards never round-trip the central agent.
    for host, loid, binding in roster:
        assert binding is not None and binding.loid == loid


def test_announce_wave_foreign_instance_forces_host_fallback():
    """A colocated instance the wave did not target keeps announcement
    mode off: the manager must not let a relay evolve instances a
    subset wave (e.g. a canary stage) never admitted."""
    runtime, manager, loids = build_relay_fleet(hosts=3, instances_per_host=2)
    manager.use_relays(deploy_relays(runtime), fanout_k=2, announce=True)
    v2 = derive_v2(manager)
    held_back = loids[0]
    subset = loids[1:]
    tracker = runtime.sim.run_process(
        manager.propagate_version(v2, loids=subset)
    )
    assert tracker.all_acked and tracker.complete
    for loid in subset:
        assert manager.record(loid).obj.version == v2
    # The untargeted instance stayed at v1: no announcement round ran.
    assert manager.record(held_back).obj.version != v2
    assert runtime.network.count_value("relay.announce_waves") == 0


def test_use_relays_announce_validation():
    runtime, manager, __ = build_relay_fleet(hosts=2, instances_per_host=1)
    directory = deploy_relays(runtime)
    with pytest.raises(ValueError):
        manager.use_relays(directory, announce=True)  # needs a tree
    manager.use_relays(directory, fanout_k=2, announce=True)
    manager.use_relays(None)  # disabling clears announce mode too
    assert manager._relay_announce is False


# ----------------------------------------------------------------------
# Per-host object index
# ----------------------------------------------------------------------


def test_objects_on_host_index_tracks_attach_and_migration():
    runtime, manager, loids = build_relay_fleet(hosts=2, instances_per_host=2)
    on_host01 = {
        obj.loid for obj in runtime.objects_on_host("host01")
    }
    assert {loid for loid in loids[:2]} <= on_host01
    # Migration rebases the index entry along with the object.
    moved = runtime.find_object(loids[0])
    moved.moved_to(runtime.host("host02"))
    assert moved.loid not in {
        obj.loid for obj in runtime.objects_on_host("host01")
    }
    assert moved.loid in {
        obj.loid for obj in runtime.objects_on_host("host02")
    }
    # Unknown hosts simply have no objects.
    assert runtime.objects_on_host("no-such-host") == []


# ----------------------------------------------------------------------
# Host-local apply: a relay runs its colocated instances' server half
# in-process, charging what the applyConfiguration RPC charged
# ----------------------------------------------------------------------


def relay_host_fleet(instances, hosts=1, cache=True, journal=None):
    """``instances`` DCDOs per host on host01..N and one relay on host01;
    with ``cache`` every sorter blob is on host01's disk."""
    runtime, manager, loids = build_relay_fleet(
        hosts=hosts, instances_per_host=instances, journal=journal
    )
    host = runtime.host("host01")
    if cache:
        for component_id in manager.registered_components():
            variant = manager.state.components[component_id][0].variant_for_host(host)
            host.cache.insert(variant.blob_id, variant.size_bytes)
    relay = runtime.live_object(deploy_relays(runtime, hosts=["host01"])["host01"])
    return runtime, manager, loids[:instances], relay


def evolve_batch(runtime, manager, relay, jobs, window=None, term=None):
    """Process body: one ``evolveBatch`` from the manager, binding warm;
    returns the acks and the instant the reply arrived."""
    manager.invoker.binding_cache.put(runtime.binding_agent.resolve_local(relay.loid))
    acks = yield from manager.invoker.invoke(
        relay.loid,
        "evolveBatch",
        (jobs, window, term),
        payload_bytes=BATCH_JOB_BYTES * len(jobs),
    )
    return acks, runtime.sim.now


def rpc_path_instants(runtime, manager, relay, loids, window, started):
    """What the applyConfiguration RPC path charged for an evolveBatch
    begun at ``started`` on an idle fabric, added up step by step as the
    kernel adds them (``now + delay``; an arrival is ``now + (arrival -
    now)``): each instance's ``dcdo.evolved`` instant and the batch
    reply's arrival at the manager.  The v2 diff incorporates one cached
    one-function component and flips two DFM entries."""
    cal = runtime.calibration
    network = runtime.network
    latency = network.latency_s
    limp = relay.host.limp_factor  # build_lan hosts have CPU factor 1.0
    dispatch = cal.method_dispatch_s

    def cpu(seconds):
        return seconds * limp / 1.0

    def wire(address, size_bytes):
        port = network.port(address)
        return (size_bytes + HEADER_BYTES) * port.slowdown / port.bandwidth_bps

    def at(now, instant):
        return now + (instant - now)

    t = started + dispatch
    t = at(t, t + wire(manager.address, BATCH_JOB_BYTES * len(loids)) + latency)
    t = t + cpu(dispatch)
    t = t + cal.direct_call_overhead_s
    workers = [t] * window
    relay_free = t
    evolved = {}
    for loid in loids:
        u = heapq.heappop(workers) + dispatch
        relay_free = max(relay_free, u) + wire(relay.address, cal.method_message_bytes)
        u = at(u, relay_free + latency)
        u = u + cpu(dispatch)
        u = u + cal.direct_call_overhead_s
        u = u + cpu(cal.component_cached_link_s)
        u = u + cpu(1 * cal.dfm_update_s)
        u = u + cpu(2 * cal.dfm_update_s)
        evolved[loid] = u
        address = runtime.live_object(loid).address
        heapq.heappush(
            workers, at(u, u + wire(address, cal.method_message_bytes) + latency)
        )
    end = max(workers)
    reply = at(
        end,
        max(relay_free, end) + wire(relay.address, cal.method_message_bytes) + latency,
    )
    return evolved, reply


@pytest.mark.parametrize("limp", [1.0, 4.0])
def test_host_local_apply_charges_what_the_rpc_charged(limp):
    """Every instance evolves, and the batch replies, at exactly the
    instants the RPC path's charges add up to; a limping relay host's
    CPU charges scale by its limp factor."""
    runtime, manager, loids, relay = relay_host_fleet(5)
    relay.host.set_limp(limp)
    v2 = derive_v2(manager)
    diff = manager._diff_between(manager.instance_version(loids[0]), v2)
    evolved = {}
    runtime.network.bus.subscribe(
        "dcdo.evolved", lambda event: evolved.__setitem__(event.subject, event.at)
    )
    started = runtime.sim.now
    acks, replied = runtime.sim.run_process(
        evolve_batch(runtime, manager, relay, [(loid, diff) for loid in loids], 2)
    )
    assert [(loid, ok) for loid, ok, __ in acks] == [(loid, True) for loid in loids]
    expected, reply = rpc_path_instants(runtime, manager, relay, loids, 2, started)
    assert evolved == expected
    assert replied == reply


def test_stale_term_batch_is_rejected_per_instance():
    runtime, manager, loids, relay = relay_host_fleet(3)
    v2 = derive_v2(manager)
    term = manager.current_term()
    newer = ManagerTerm(term.scope, term.number + 1)
    for loid in loids:
        runtime.sim.run_process(runtime.live_object(loid).serve("getVersion", (), newer))
    rejected = []
    runtime.network.bus.subscribe(
        "object.stale-term-rejected", lambda event: rejected.append(event.subject)
    )
    diff = manager._diff_between(manager.instance_version(loids[0]), v2)
    acks, __ = runtime.sim.run_process(
        evolve_batch(runtime, manager, relay, [(loid, diff) for loid in loids], term=term)
    )
    assert rejected == loids
    assert all(not ok and isinstance(value, StaleManagerTerm) for __, ok, value in acks)
    # Through a wave, the rejection rides back in the acks and the
    # manager stands down; no instance moved.
    manager.use_relays({"host01": relay.loid})
    runtime.sim.run_process(manager.propagate_version(v2, retry_policy=ONE_SHOT))
    assert manager.deposed
    assert all(runtime.live_object(loid).version != v2 for loid in loids)


def test_crash_mid_batch_acks_nothing_after_the_crash():
    runtime, manager, loids, relay = relay_host_fleet(6)
    manager.use_relays({"host01": relay.loid}, batch_window=1)
    v2 = derive_v2(manager)
    sim = runtime.sim
    crashed_at = []

    def crash_soon():
        yield sim.timeout(0.5e-3)
        crashed_at.append(sim.now)
        crash_host(runtime, relay.host)

    def on_evolved(event):
        if len(evolved) == 1:
            sim.spawn(crash_soon())
        evolved.append(event.at)

    evolved = []
    runtime.network.bus.subscribe("dcdo.evolved", on_evolved)
    applied = []
    apply_local = relay._apply_local

    def tracked(loid, diff, term):
        value = yield from apply_local(loid, diff, term)
        applied.append(sim.now)
        return value

    relay._apply_local = tracked
    tracker = sim.run_process(manager.propagate_version(v2, retry_policy=ONE_SHOT))
    sim.run()  # the dead relay's batch runs out
    crash = crashed_at[0]
    assert 2 <= len(applied) < len(loids)
    assert all(at <= crash for at in applied)
    assert relay.instances_failed == len(loids) - len(applied)
    assert all(d.acked_at is None or d.acked_at <= crash for d in tracker.deliveries())
    # The manager's call to the dead relay was abandoned at the crash.
    assert tracker.completed_at < crash + 1.0


def test_base_mismatch_and_rollback_leave_the_old_version():
    runtime, manager, loids, relay = relay_host_fleet(2, cache=False)
    v1 = manager.current_version
    v2 = derive_v2(manager)

    def snapshot():
        return {
            loid: (
                runtime.live_object(loid).version,
                runtime.live_object(loid).dfm.entry_states_snapshot(),
                sorted(runtime.live_object(loid).dfm.component_ids),
            )
            for loid in loids
        }

    before = snapshot()
    mismatched = manager._diff_between(v1, v2)
    mismatched.base_version = v2
    acks, __ = runtime.sim.run_process(
        evolve_batch(runtime, manager, relay, [(loid, mismatched) for loid in loids])
    )
    assert all(not ok and isinstance(value, DiffBaseMismatch) for __, ok, value in acks)
    assert snapshot() == before
    # A prepare that fails (the new component's ICO is known dead, and
    # its blob is not cached) rolls back to the old version.
    breaker = runtime.network.breaker(f"ico:{manager.component_ico('compare-desc')}")
    while breaker.allow():
        breaker.record_failure()
    rolled_back = []
    runtime.network.bus.subscribe(
        "dcdo.rolled-back", lambda event: rolled_back.append(event.subject)
    )
    diff = manager._diff_between(v1, v2)
    acks, __ = runtime.sim.run_process(
        evolve_batch(runtime, manager, relay, [(loid, diff) for loid in loids])
    )
    assert all(not ok and isinstance(value, CircuitOpen) for __, ok, value in acks)
    assert sorted(rolled_back) == sorted(loids)
    assert snapshot() == before


def test_non_colocated_job_fails_and_is_delivered_directly():
    runtime, manager, loids, relay = relay_host_fleet(2, hosts=2)
    manager.use_relays({"host01": relay.loid})
    v2 = derive_v2(manager)
    # The object moved to host02, but the manager still files it under
    # host01, so host01's relay gets its job.
    moved = runtime.live_object(loids[0])
    moved.moved_to(runtime.host("host02"))
    diff = manager._diff_between(manager.instance_version(loids[0]), v2)
    acks, __ = runtime.sim.run_process(
        evolve_batch(runtime, manager, relay, [(loids[0], diff)])
    )
    (loid, ok, value), = acks
    assert loid == loids[0] and not ok and isinstance(value, ObjectUnreachable)
    assert moved.version != v2
    tracker = runtime.sim.run_process(
        manager.propagate_version(v2, retry_policy=ONE_SHOT)
    )
    assert tracker.all_acked and tracker.complete
    assert moved.version == v2
    assert runtime.network.count_value("relay.fallback_instances") == 1


# ----------------------------------------------------------------------
# Calls to a relay that died with its host
# ----------------------------------------------------------------------


def test_wave_does_not_wait_out_a_dead_relay_restored_by_the_reconciler():
    """A relay that died with its host (restarted, relay not yet
    restored) is known gone: a wave's call to it is abandoned instead of
    waiting out the 60 + 120 + 600 s reply ladder, so the wave completes
    within two reconcile periods of the relay's restore."""
    runtime = LegionRuntime(build_lan(5, seed=11))
    manager = make_sorter_manager(runtime)
    loids = [
        create_dcdo(runtime, manager, host_name=f"host{index:02d}")[0]
        for index in (1, 2, 3)
    ]
    directory = deploy_relays(runtime)
    manager.use_relays(directory, fanout_k=2, announce=True)
    crash_host(runtime, runtime.host("host04"))
    runtime.host("host04").restart()
    relay = runtime.live_object(directory["host04"])
    assert not relay.is_active
    restored_at = []
    activate = relay.activate

    def tracked():
        binding = yield from activate()
        restored_at.append(runtime.sim.now)
        return binding

    relay.activate = tracked
    v2 = derive_v2(manager)
    reconciler = Reconciler(runtime, lambda: manager).start()
    wave = runtime.sim.spawn(manager.propagate_version(v2, retry_policy=ONE_SHOT))
    runtime.sim.run(until=runtime.sim.now + 3 * RECONCILE_PERIOD_S)
    reconciler.stop()
    assert restored_at, "the reconciler never restored the relay"
    assert not wave.is_alive
    tracker = manager.propagation(v2)
    assert tracker.all_acked
    assert tracker.completed_at <= restored_at[0] + 2 * RECONCILE_PERIOD_S
    assert all(runtime.live_object(loid).version == v2 for loid in loids)


def test_restoring_a_relay_abandons_calls_to_its_dead_incarnation():
    """A bare ``host.crash()`` (no :func:`crash_host`) leaves a call to
    the host's relay waiting on its reply ladder; restoring the relay
    abandons the call at once."""
    runtime = LegionRuntime(build_lan(3, seed=5))
    manager = make_sorter_manager(runtime)
    directory = deploy_relays(runtime)
    host = runtime.host("host02")
    sim = runtime.sim
    failed_at = []

    def call():
        try:
            yield from call_relay(
                manager, directory["host02"], "evolveBatch", ((), None, None), 0
            )
        except ObjectUnreachable:
            failed_at.append(sim.now)

    caller = sim.spawn(call())
    sim.run(until=sim.now + 1e-6)
    host.crash()
    host.restart()
    sim.run(until=sim.now + 5.0)
    assert caller.is_alive
    restored_at = sim.now
    assert sim.run_process(restore_relays(runtime, directory)) == ["host02"]
    sim.run(until=sim.now + 1.0)
    assert failed_at == [restored_at]


def test_rearmed_wave_reopens_only_the_requested_failures():
    """A reconciler's converge wave names only the live drift: a delivery
    that FAILED on a host still down stays FAILED, with no new attempt."""
    journal = ManagerJournal(name="Sorter")
    runtime, manager, loids = build_relay_fleet(
        hosts=3, instances_per_host=1, journal=journal
    )
    live, back, down = loids
    crash_host(runtime, runtime.host("host02"))
    crash_host(runtime, runtime.host("host03"))
    runtime.host("host02").restart()
    v2 = derive_v2(manager)
    tracker = runtime.sim.run_process(
        manager.propagate_version(v2, retry_policy=ONE_SHOT)
    )
    assert tracker.delivery(down).status is DeliveryStatus.FAILED
    assert tracker.delivery(back).status is DeliveryStatus.FAILED
    attempts = tracker.delivery(down).attempts
    # The reconciler rebuilds host02's instance (its host is up) and
    # converges it; host03's stays down.
    reconciler = Reconciler(runtime, lambda: manager, retry_policy=ONE_SHOT).start()
    reconciler.wake()
    runtime.sim.run(until=runtime.sim.now + 2 * RECONCILE_PERIOD_S)
    reconciler.stop()
    rearmed = [e.data["loids"] for e in journal.entries if e.kind == "propagation-rearmed"]
    assert rearmed and all(down not in reopened for reopened in rearmed)
    assert back in rearmed[0]
    assert tracker.delivery(down).attempts == attempts
    assert tracker.delivery(down).status is DeliveryStatus.FAILED
    assert runtime.live_object(back).version == v2
    assert runtime.live_object(live).version == v2
