"""Shard-chaos sweep: plane invariants under shard-targeted faults.

Seeded schedules mix the shard fault kinds — shard-manager crashes,
partition-map staleness windows, mid-rebalance crashes — with crash,
partition and drop kinds, while a supervised
:class:`ShardedManagerPlane` evolves its whole fleet.  Each shard has
its own journal, standby, and supervisor; faults that kill one shard
must never corrupt another, and a rebalance the crash aborts must
never leave a range writable by two shards.  The invariants:

- converged exactly once per shard, never half-applied, across shard
  failovers and live range moves alike;
- no cross-shard double-ownership: after :meth:`reconcile`, every
  instance row lives in exactly the shard the map names — aborted
  handoffs leave orphans, never twins.

A routed prober drives stale-epoch RPCs through a
:class:`PartitionRouter` for the whole fault window, so the bounce
path (stale map piggybacked on the refusal) is exercised under the
same chaos.  A mid-rebalance crash always aborts its move, so seeds
with a staleness window also move a range live inside it: that move's
map change is what the prober's reads race.
"""

import pytest

from repro.cluster import build_lan
from repro.cluster.chaos import live_range_move
from repro.core.partition import StalePartitionMap
from repro.legion import LegionRuntime
from repro.legion.errors import LegionError
from repro.net import TransportError

from tests.chaos_harness import (
    DETECTOR_HOST,
    FAST_RETRY,
    ICO_HOST,
    RELIABLE,
    STANDBY_HOSTS,
    Fleet,
    SweepRecord,
    assert_converged,
    at_version,
    converged,
    roll,
    run_chaos,
    settle,
    sweep,
)
from tests.conftest import make_sorter_plane

pytestmark = pytest.mark.chaos

SHARD_HOSTS = {0: "host00", 1: "host01"}
INSTANCE_HOSTS = ("host02", "host03", "host06", "host07")

BOUNCES_SEEN = SweepRecord("no seed bounced a stale-map RPC")


def derive_v2(plane):
    """The sweep's evolution (cf. :func:`tests.chaos_harness.derive_v2`),
    applied plane-wide."""
    version = plane.derive_version(plane.current_version)
    plane.incorporate_into(version, "compare-desc")
    plane.enable_function(
        version, "compare", "compare-desc", replace_current=True
    )
    plane.mark_instantiable(version)
    return version


def build_fleet(sim_seed, instances=12):
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
        update_policy=RELIABLE,
    )
    loids = [
        runtime.sim.run_process(
            plane.create_instance(host_name=INSTANCE_HOSTS[index % len(INSTANCE_HOSTS)])
        )
        for index in range(instances)
    ]
    return Fleet(runtime, plane, None, loids, None, None)


@sweep()
def test_chaos_shard_invariants_hold(seed):
    """Shard faults plus crash/partition chaos, across seeded schedules:
    the per-shard-supervised plane converges on its own with the full
    invariant set intact."""
    fleet = build_fleet(2600 + seed)
    runtime, plane, loids = fleet.runtime, fleet.manager, fleet.loids
    runtime.network.enable_health()
    v1 = plane.current_version
    plane.supervise(
        standby_hosts=STANDBY_HOSTS,
        detector_host_name=DETECTOR_HOST,
        detector_mode="phi",
        retry_policy=FAST_RETRY,
    )
    schedule = roll(
        fleet,
        seed,
        supervised=True,
        plane=plane,
        max_crashes=1,
        max_partitions=1,
        max_drops=1,
        protect=(DETECTOR_HOST, ICO_HOST),
        shard_hosts=tuple(SHARD_HOSTS.values()),
        max_shard_crashes=1,
        max_map_staleness=1 if seed % 2 == 0 else 0,
        mid_rebalance_crashes=1 if seed % 3 == 0 else 0,
    )
    v2 = derive_v2(plane)
    router = plane.router(host_name=DETECTOR_HOST)
    client = runtime.make_client(host_name=DETECTOR_HOST)
    probe_stats = {"calls": 0, "stale": 0}

    def prober():
        """Routed reads through the fault window: every call routes by
        a cached map snapshot, so staleness windows and live rebalances
        surface as bounces — never as wrong-shard answers."""
        while runtime.sim.now < schedule.heal_time + 1.0:
            for loid in loids[:3]:
                try:
                    yield from router.call(client, loid, "routedInstanceVersion")
                    probe_stats["calls"] += 1
                except (StalePartitionMap, LegionError, TransportError):
                    probe_stats["stale"] += 1
            yield runtime.sim.timeout(2.0)

    def converge():
        # Every shard re-issues a designation its crash lost (a list,
        # not a short-circuit: each shard gets its nudge every poll).
        yield from settle(
            runtime.sim,
            lambda: all([converged(m, (), v2, v2) for m in plane.shards.values()])
            and at_version(plane, loids, v2),
        )
        plane.stop_supervision()

    runtime.sim.spawn(prober(), name="shard-prober")
    for window in schedule.map_staleness:
        at = schedule.installed_at + window.start + 0.5
        runtime.sim.spawn(live_range_move(runtime, plane, at))
    # Ownership is in flux at heal: never-half-applied is checked per
    # shard once converged.
    run_chaos(
        fleet,
        schedule,
        lambda: plane.set_current_version_async(v2),
        (v1, v2),
        f"seed {seed}",
        authority=lambda: None,
        converge=converge,
    )

    live = plane.shards
    promotions = sum(s.promotions for s in plane.supervisors.values())
    assert promotions >= 1, f"seed {seed}: no shard promotion ({schedule!r})"
    # No cross-shard double-ownership: after reconciliation, every row
    # lives in exactly the shard the map names.
    plane.reconcile()
    owners = {}
    for shard_id, manager in live.items():
        for loid in manager.instance_loids():
            assert loid not in owners, (
                f"seed {seed}: {loid} owned by both s{owners[loid]} and s{shard_id}"
            )
            owners[loid] = shard_id
    for loid in loids:
        mapped = plane.map.current.shard_for(loid)
        assert owners.get(loid) == mapped, (
            f"seed {seed}: {loid} mapped to s{mapped} but held by s{owners.get(loid)}"
        )
    # Exactly-once across failovers, retries, and range moves.
    for shard_id, manager in live.items():
        shard_loids = [loid for loid in loids if owners[loid] == shard_id]
        context = f"seed {seed} s{shard_id}"
        assert_converged(manager, shard_loids, v2, context)
    assert probe_stats["calls"] > 0, f"seed {seed}: prober never completed a call"
    BOUNCES_SEEN[seed] = runtime.network.count_value("manager.shard.stale_map_bounces")


def test_stale_map_bounces_exercised_across_sweep():
    """Across the sweep, routed RPCs must actually have bounced on a
    stale partition map — otherwise the sweep proved nothing about the
    staleness windows or the epoch piggyback path."""
    BOUNCES_SEEN.check()
