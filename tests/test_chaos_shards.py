"""Shard-chaos sweep: plane invariants under shard-targeted faults.

Seeded schedules mix the PR 9 shard fault kinds — shard-manager
crashes, partition-map staleness windows, mid-rebalance crashes — with
the legacy crash/partition/drop kinds, while a supervised
:class:`ShardedManagerPlane` evolves its whole fleet.  Each shard has
its own journal, standby, and supervisor; faults that kill one shard
must never corrupt another, and a rebalance the crash aborts must
never leave a range writable by two shards.  The invariants:

- never-half-applied at convergence, per shard;
- exactly-once application per instance, across shard failovers and
  live range moves alike;
- no cross-shard double-ownership: after :meth:`reconcile`, every
  instance row lives in exactly the shard the map names — aborted
  handoffs leave orphans, never twins.

A routed prober drives stale-epoch RPCs through a
:class:`PartitionRouter` for the whole fault window, so the bounce
path (stale map piggybacked on the refusal) is exercised under the
same chaos.  ``CHAOS_EXTRA_SEEDS`` (env) widens the sweep in CI.
"""

import os

import pytest

from repro.cluster import build_lan
from repro.cluster.chaos import ChaosCoordinator, ChaosSchedule
from repro.core.partition import StalePartitionMap
from repro.core.policies import ReliableUpdatePolicy
from repro.legion import LegionRuntime
from repro.legion.errors import LegionError
from repro.net import RetryPolicy, TransportError

from tests.conftest import make_sorter_plane
from tests.invariants import assert_never_half_applied

FAST_RETRY = RetryPolicy(
    base_s=1.0, multiplier=2.0, max_backoff_s=30.0, max_attempts=8
)

SHARD_HOSTS = {0: "host00", 1: "host01"}
STANDBY_HOSTS = ("host02", "host03")
DETECTOR_HOST = "host04"
ICO_HOST = "host05"
INSTANCE_HOSTS = ("host02", "host03", "host06", "host07")

CHAOS_SEEDS = 20 + int(os.environ.get("CHAOS_EXTRA_SEEDS", "0"))

#: Routed-RPC bounce counts per seed, checked in aggregate after the
#: sweep: the stale-map bounce path must actually be exercised.
BOUNCES_SEEN = {}


def derive_v2(plane):
    """The sweep's evolution, applied plane-wide (cf. the single-manager
    ``derive_v2`` in ``test_chaos_transactions``)."""
    version = plane.derive_version(plane.current_version)
    plane.incorporate_into(version, "compare-desc")
    plane.enable_function(
        version, "compare", "compare-desc", replace_current=True
    )
    plane.mark_instantiable(version)
    return version


def build_fleet(sim_seed=7, instances=12, **manager_kwargs):
    """Runtime + journaled two-shard sorter plane with a spread fleet."""
    runtime = LegionRuntime(build_lan(8, seed=sim_seed))
    plane = make_sorter_plane(
        runtime,
        shard_count=len(SHARD_HOSTS),
        shard_hosts=SHARD_HOSTS,
        component_hosts={
            "sorter": ICO_HOST,
            "compare-asc": ICO_HOST,
            "compare-desc": ICO_HOST,
        },
        propagation_retry_policy=FAST_RETRY,
        **manager_kwargs,
    )
    loids = []
    for index in range(instances):
        loid = runtime.sim.run_process(
            plane.create_instance(
                host_name=INSTANCE_HOSTS[index % len(INSTANCE_HOSTS)]
            )
        )
        loids.append(loid)
    return runtime, plane, loids


@pytest.mark.parametrize("seed", range(CHAOS_SEEDS))
def test_chaos_shard_invariants_hold(seed):
    """Shard faults plus legacy chaos, across seeded schedules: the
    per-shard-supervised plane converges on its own with the full
    invariant set intact."""
    runtime, plane, loids = build_fleet(
        sim_seed=2600 + seed,
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY),
    )
    runtime.network.enable_health()
    v1 = plane.current_version
    plane.supervise(
        standby_hosts=STANDBY_HOSTS,
        detector_host_name=DETECTOR_HOST,
        detector_mode="phi",
        retry_policy=FAST_RETRY,
    )
    coordinator = ChaosCoordinator(runtime, journals={})
    schedule = ChaosSchedule.generate(
        seed,
        list(runtime.hosts),
        duration_s=120.0,
        max_crashes=1,
        max_partitions=1,
        max_drops=1,
        protect=(DETECTOR_HOST, ICO_HOST),
        shard_hosts=tuple(SHARD_HOSTS.values()),
        max_shard_crashes=1,
        max_map_staleness=1 if seed % 2 == 0 else 0,
        mid_rebalance_crashes=1 if seed % 3 == 0 else 0,
    )
    schedule.install(runtime, coordinator, plane=plane)
    base = schedule.installed_at
    fault_offsets = [crash_at for __, crash_at, __ in schedule.crashes]
    fault_offsets += [crash_at for __, crash_at, __ in schedule.shard_crashes]
    fault_offsets += [
        crash_at for __, crash_at, __, __ in schedule.rebalance_crashes
    ]
    fault_offsets += [start for __, __, start, __ in schedule.partitions]
    wave_at = max(0.1, min(fault_offsets) - 0.03) if fault_offsets else 0.5
    v2 = derive_v2(plane)
    router = plane.router(host_name=DETECTOR_HOST)
    client = runtime.make_client(host_name=DETECTOR_HOST)
    probe_stats = {"calls": 0, "stale": 0}

    def prober():
        """Routed reads through the fault window: every call routes by
        a cached map snapshot, so staleness windows and live rebalances
        surface as bounces — never as wrong-shard answers."""
        heal = schedule.heal_time + 1.0
        while runtime.sim.now < heal:
            for loid in loids[:3]:
                try:
                    yield from router.call(
                        client, loid, "routedInstanceVersion"
                    )
                    probe_stats["calls"] += 1
                except (StalePartitionMap, LegionError, TransportError):
                    probe_stats["stale"] += 1
            yield runtime.sim.timeout(2.0)

    def scenario():
        if runtime.sim.now < base + wave_at:
            yield runtime.sim.timeout(base + wave_at - runtime.sim.now)
        plane.set_current_version_async(v2)
        heal = schedule.heal_time + 1.0
        if runtime.sim.now < heal:
            yield runtime.sim.timeout(heal - runtime.sim.now)
        deadline = runtime.sim.now + 420.0
        while runtime.sim.now < deadline:
            live = plane.shards
            if all(
                manager.is_active and not manager.deposed
                for manager in live.values()
            ):
                for manager in live.values():
                    if manager.current_version != v2:
                        # The crash beat the sync journal ship on this
                        # shard: re-issue the never-acknowledged
                        # designation; version-id idempotence keeps
                        # instance effects exactly-once.
                        manager.set_current_version_async(v2)
                if all(
                    plane.record(loid).active
                    and plane.record(loid).obj.version == v2
                    for loid in loids
                ):
                    break
            yield runtime.sim.timeout(5.0)
        plane.stop_supervision()

    runtime.sim.spawn(prober(), name="shard-prober")
    runtime.sim.run_process(scenario())
    runtime.sim.run()

    live = plane.shards
    promotions = sum(s.promotions for s in plane.supervisors.values())
    assert promotions >= 1, (
        f"seed {seed}: no shard supervisor ever promoted "
        f"(shard crashes {schedule.shard_crashes}, "
        f"rebalance crashes {schedule.rebalance_crashes})"
    )
    for shard_id, manager in live.items():
        assert manager.is_active and not manager.deposed, (
            f"seed {seed}: shard {shard_id} has no live authority"
        )
    # No cross-shard double-ownership: after reconciliation, every row
    # lives in exactly the shard the map names.
    plane.reconcile()
    owners = {}
    for shard_id, manager in live.items():
        for loid in manager.instance_loids():
            assert loid not in owners, (
                f"seed {seed}: {loid} owned by both "
                f"s{owners[loid]} and s{shard_id}"
            )
            owners[loid] = shard_id
    for loid in loids:
        mapped = plane.map.current.shard_for(loid)
        assert owners.get(loid) == mapped, (
            f"seed {seed}: {loid} mapped to s{mapped} "
            f"but held by s{owners.get(loid)}"
        )
    by_shard = {}
    for loid in loids:
        by_shard.setdefault(plane.map.current.shard_for(loid), []).append(loid)
    for shard_id, shard_loids in by_shard.items():
        assert_never_half_applied(
            live[shard_id], shard_loids, f"seed {seed} s{shard_id}", versions=(v1, v2)
        )
    for loid in loids:
        record = plane.record(loid)
        assert record.active, f"seed {seed}: {loid} never recovered"
        obj = record.obj
        assert obj.version == v2, (
            f"seed {seed}: {loid} stuck at {obj.version}"
        )
        # Exactly-once across failovers, retries, and range moves.
        assert obj.applications_by_version.get(v2, 0) <= 1, (
            f"seed {seed}: {loid} applied v2 "
            f"{obj.applications_by_version.get(v2)} times"
        )
    assert probe_stats["calls"] > 0, f"seed {seed}: prober never completed a call"
    BOUNCES_SEEN[seed] = runtime.network.count_value(
        "manager.shard.stale_map_bounces"
    )


def test_stale_map_bounces_exercised_across_sweep():
    """Across the sweep, routed RPCs must actually have bounced on a
    stale partition map — otherwise the sweep proved nothing about the
    staleness windows or the epoch piggyback path."""
    assert BOUNCES_SEEN, "sweep did not run before the aggregate check"
    assert any(count > 0 for count in BOUNCES_SEEN.values()), (
        f"no seed bounced a stale-map RPC: {BOUNCES_SEEN}"
    )
