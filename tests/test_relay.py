"""Host relays: batched evolution waves, diffusion trees, recovery.

The scale-out claim under test: with relays deployed, a propagation
wave costs the manager O(hosts) RPCs instead of O(instances), while
every PR 3 delivery guarantee — tracker/journal bookkeeping, terminal
failures, retry-then-FAILED — survives unchanged because anything a
relay cannot positively confirm falls back to direct delivery.
"""

import pytest

from repro.cluster import build_lan, deploy_relays, restore_relays
from repro.cluster.chaos import crash_host
from repro.cluster.relay import build_relay_tree, count_jobs, iter_jobs
from repro.core import DeliveryStatus, ManagerJournal
from repro.legion import LegionRuntime
from repro.legion.loid import mint_loid
from repro.net import RetryPolicy

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


def test_announce_wave_acks_all_with_one_rpc_and_local_binds():
    journal = ManagerJournal(name="Sorter")
    runtime, manager, loids = build_relay_fleet(
        hosts=4, instances_per_host=3, journal=journal
    )
    manager.use_relays(deploy_relays(runtime), fanout_k=2, announce=True)
    v2 = derive_v2(manager)
    manager.invoker.stats.reset()
    resolves_before = runtime.binding_agent.resolutions_served
    tracker = runtime.sim.run_process(manager.propagate_version(v2))
    assert tracker.all_acked and tracker.complete
    for loid in loids:
        assert manager.record(loid).obj.version == v2
        assert manager.instance_version(loid) == v2
    # One announcement bundle from the manager; constant-size payloads
    # carried the wave, and every instance bound host-locally.
    assert manager.invoker.stats.invocations == 1
    assert runtime.network.count_value("relay.announce_waves") == 1
    assert runtime.network.count_value("relay.local_binds") == 12
    assert runtime.network.count_value("relay.fallback_instances") == 0
    # Binding-agent lookups during the wave are roster-relay forwards
    # (one per up host — the fleet form visits every roster host, even
    # the instance-less manager host) plus one ICO resolve per host's
    # first blob fetch — bounded by hosts, never one per instance
    # (those bind host-locally).
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
