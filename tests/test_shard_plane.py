"""Integration coverage for the sharded manager plane (PR 9).

The three handoff edge cases the ISSUE calls out by name — an instance
created mid-handoff, a stub cached on a pre-split epoch invoking across
the moved boundary, and a supervisor promoting one shard's standby
while another shard rebalances — plus plane-wide wave and configuration
basics the chaos sweep leans on.
"""

import pytest

from repro.cluster import build_lan
from repro.core import DCDOStub
from repro.core import shardplane as shardplane_mod
from repro.core.partition import partition_slot
from repro.legion import LegionRuntime
from repro.net import RetryPolicy

from tests.conftest import make_sorter_plane

pytestmark = pytest.mark.chaos

FAST_RETRY = RetryPolicy(
    base_s=0.5, multiplier=2.0, max_backoff_s=10.0, max_attempts=6
)

SHARD_HOSTS = {0: "host00", 1: "host01", 2: "host02"}
STANDBY_HOSTS = ("host04", "host05")
DETECTOR_HOST = "host06"


def build_plane(shard_count=2, instances=16, sim_seed=7, hosts=8):
    runtime = LegionRuntime(build_lan(hosts, seed=sim_seed))
    plane = make_sorter_plane(
        runtime,
        shard_count=shard_count,
        shard_hosts={k: SHARD_HOSTS[k] for k in range(shard_count)},
        propagation_retry_policy=FAST_RETRY,
    )
    loids = [
        runtime.sim.run_process(plane.create_instance(host_name="host03"))
        for __ in range(instances)
    ]
    return runtime, plane, loids


def derive_v2(plane):
    version = plane.derive_version(plane.current_version)
    plane.incorporate_into(version, "compare-desc")
    plane.enable_function(
        version, "compare", "compare-desc", replace_current=True
    )
    plane.mark_instantiable(version)
    return version


# ----------------------------------------------------------------------
# Plane basics
# ----------------------------------------------------------------------


def test_plane_waves_fan_out_per_shard():
    runtime, plane, loids = build_plane(shard_count=3, instances=24)
    v2 = derive_v2(plane)
    plane.set_current_version(v2)
    trackers = runtime.sim.run_process(plane.propagate_version(v2, window=8))
    assert set(trackers) == {0, 1, 2}
    assert all(t.all_acked for t in trackers.values())
    for loid in loids:
        assert plane.record(loid).obj.version == v2
        assert plane.instance_version(loid) == v2
    assert runtime.network.count_value("manager.shard.waves") >= 3


def test_rows_live_only_on_their_mapped_shard():
    __, plane, loids = build_plane(shard_count=3, instances=30)
    for loid in loids:
        owner = plane.map.current.shard_for(loid)
        for shard_id, manager in plane.shards.items():
            held = loid in manager.instance_loids()
            assert held == (shard_id == owner), (
                f"{loid} on s{shard_id}, mapped to s{owner}"
            )


# ----------------------------------------------------------------------
# Edge case 1: instance created mid-handoff
# ----------------------------------------------------------------------


def test_create_mid_handoff_waits_for_the_map_commit(monkeypatch):
    """A create whose slot is mid-move parks until the epoch bump, then
    lands on (and journals on) the *new* owner — never the shard that
    is about to release the range."""
    runtime, plane, __ = build_plane(shard_count=2, instances=24)
    # Stretch the per-row copy cost so the handoff window is wide
    # enough to land creates inside it.
    monkeypatch.setattr(shardplane_mod, "HANDOFF_ROW_S", 0.05)
    moved_span = plane.map.current.spans_of(0)[0]
    commit = {}
    plane.map.subscribe(lambda m: commit.setdefault("at", runtime.sim.now))
    created = []

    def mover():
        yield from plane.move_range(moved_span, 1)

    def creator():
        # Lands inside the copy window (24 rows x 0.05 s apiece).
        yield runtime.sim.timeout(0.1)
        while True:
            loid = yield from plane.create_instance(host_name="host03")
            created.append((loid, runtime.sim.now))
            # Keep creating until one hits the moving span.
            if any(
                lo <= partition_slot(l) < hi
                for (l, __) in created[-1:]
                for lo, hi in [moved_span]
            ):
                return

    runtime.sim.spawn(mover(), name="mover")
    runtime.sim.run_process(creator())
    runtime.sim.run()
    assert "at" in commit, "handoff never committed"
    in_span = [
        (loid, at)
        for loid, at in created
        if moved_span[0] <= partition_slot(loid) < moved_span[1]
    ]
    assert in_span, "no create landed in the moving span"
    for loid, at in in_span:
        assert at >= commit["at"], (
            f"{loid} created at {at}, before the map commit at "
            f"{commit['at']}"
        )
        # Owned by the new shard, held only by the new shard.
        assert plane.map.current.shard_for(loid) == 1
        assert loid in plane.shards[1].instance_loids()
        assert loid not in plane.shards[0].instance_loids()


# ----------------------------------------------------------------------
# Edge case 2: stub cached on a pre-split epoch
# ----------------------------------------------------------------------


def test_stub_on_pre_split_epoch_bounces_across_the_boundary():
    """A stub routing on the old map hits the old owner, which bounces
    with its current map piggybacked; the stub's router adopts it and
    the retried call lands on the new owner — one extra round trip,
    no config-service lookup."""
    runtime, plane, loids = build_plane(shard_count=2, instances=24)
    router = plane.router()
    client = runtime.make_client(host_name="host03")
    pre_split_epoch = router.epoch
    # Split AFTER the router cached its map: the cache is now one
    # epoch behind, and half of shard 0's range belongs to shard 2.
    new_shard = runtime.sim.run_process(plane.split_shard(0))
    assert plane.map.epoch == pre_split_epoch + 1
    assert router.epoch == pre_split_epoch
    moved = [
        loid
        for loid in loids
        if plane.map.current.shard_for(loid) == new_shard.shard_id
    ]
    assert moved, "split moved no test instances"
    v2 = derive_v2(plane)
    plane.set_current_version(v2)
    stub = DCDOStub(client, moved[0], router=router)
    result = runtime.sim.run_process(stub.request_update(v2))
    assert router.bounces == 1, "stale-epoch call did not bounce exactly once"
    assert router.epoch == plane.map.epoch
    assert plane.record(moved[0]).obj.version == v2
    # The next routed call is cache-hot: no further bounce.
    runtime.sim.run_process(stub.sync_with_manager())
    assert router.bounces == 1
    assert runtime.network.count_value("manager.shard.stale_map_bounces") == 1


# ----------------------------------------------------------------------
# Edge case 3: promotion on one shard while another rebalances
# ----------------------------------------------------------------------


def test_promotion_during_concurrent_rebalance(monkeypatch):
    """Shard 1's host dies while shards 0 and 2 are mid-rebalance: the
    supervisor promotes shard 1's standby, the unrelated handoff
    commits, and the whole plane still converges a wave."""
    from repro.cluster.chaos import ChaosCoordinator

    runtime, plane, loids = build_plane(shard_count=3, instances=24)
    plane.supervise(
        standby_hosts=STANDBY_HOSTS,
        detector_host_name=DETECTOR_HOST,
        retry_policy=FAST_RETRY,
    )
    coordinator = ChaosCoordinator(runtime, journals={})
    monkeypatch.setattr(shardplane_mod, "HANDOFF_ROW_S", 0.2)
    shard1_host = runtime.host(SHARD_HOSTS[1])
    base = runtime.sim.now
    coordinator.crash_plan.schedule_outage(shard1_host, base + 1.0, base + 30.0)
    moved_span = plane.map.current.spans_of(0)[0]
    done = {}

    def mover():
        # Starts before the crash, still copying rows when it lands.
        yield runtime.sim.timeout(0.5)
        yield from plane.move_range(moved_span, 2)
        done["move"] = runtime.sim.now

    def scenario():
        yield runtime.sim.timeout(120.0)
        plane.stop_supervision()

    runtime.sim.spawn(mover(), name="mover")
    runtime.sim.run_process(scenario())
    runtime.sim.run()

    supervisor = plane.supervisors[1]
    assert supervisor.promotions == 1, "shard 1 standby was never promoted"
    assert done.get("move", 0) > base + 1.0, "rebalance never committed"
    promoted = plane.shards[1]
    assert promoted.is_active and not promoted.deposed
    assert promoted.host.name in STANDBY_HOSTS
    # The unrelated shards kept their managers.
    assert plane.shards[0].host.name == SHARD_HOSTS[0]
    assert plane.shards[2].host.name == SHARD_HOSTS[2]
    # Ownership reflects the committed move, exactly-one-owner holds.
    plane.reconcile()
    for loid in loids:
        owner = plane.map.current.shard_for(loid)
        holders = [
            shard_id
            for shard_id, manager in plane.shards.items()
            if loid in manager.instance_loids()
        ]
        assert holders == [owner], (
            f"{loid}: holders {holders}, mapped owner s{owner}"
        )
    # And the plane still waves end to end, promoted shard included.
    v2 = derive_v2(plane)
    plane.set_current_version(v2)
    trackers = runtime.sim.run_process(plane.propagate_version(v2, window=8))
    assert all(t.all_acked for t in trackers.values())
    for loid in loids:
        assert plane.record(loid).obj.version == v2


# ----------------------------------------------------------------------
# Handoff abort with both shards up
# ----------------------------------------------------------------------


def test_handoff_aborts_and_prunes_when_target_standby_lags():
    """The target's standby is cut off for longer than a handoff waits
    for it: the handoff aborts with both shards up, the map keeps the
    source as owner, and the live target drops the rows it adopted —
    no row outside its map range, with no reconciliation pass."""
    from repro.core.shardplane import HANDOFF_REPLICATION_S, HandoffAborted
    from repro.net.faults import PrefixPartition

    runtime, plane, loids = build_plane(shard_count=2, instances=24)
    plane.supervise(
        standby_hosts=STANDBY_HOSTS,
        detector_host_name=DETECTOR_HOST,
        retry_policy=FAST_RETRY,
    )
    sim = runtime.sim
    standby_host = plane.supervisors[1].link.replica.host_name
    cut = PrefixPartition(
        [f"{SHARD_HOSTS[1]}/"],
        [f"{standby_host}/"],
        sim.now,
        sim.now + 3 * HANDOFF_REPLICATION_S,
    )
    runtime.network.faults.add_partition(cut)
    before = plane.map.current
    moved_span = before.spans_of(0)[0]
    moved = [
        loid for loid in loids if moved_span[0] <= partition_slot(loid) < moved_span[1]
    ]
    assert moved, "the moved span holds no instance"
    outcome = {}

    def mover():
        try:
            yield from plane.move_range(moved_span, 1)
        except HandoffAborted:
            outcome["aborted_at"] = sim.now

    sim.run_process(mover())
    plane.stop_supervision()
    sim.run()

    assert "aborted_at" in outcome, "handoff committed without a caught-up standby"
    assert cut.blocked > 0, "the standby was never cut off"
    assert plane.map.current is before, "an aborted handoff moved the map"
    source, target = plane.shards[0], plane.shards[1]
    assert source.is_active and target.is_active
    for loid in loids:
        owner = before.shard_for(loid)
        assert (loid in target.instance_loids()) == (owner == 1), (
            f"{loid} on s1, mapped to s{owner}"
        )
        assert (loid in source.instance_loids()) == (owner == 0)
    assert runtime.network.count_value("manager.shard.orphans_pruned") == 0
