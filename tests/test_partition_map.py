"""Unit coverage for the partition-map substrate (PR 9).

The map algebra (tiling validation, split/merge/move derivations), the
replicated object's two apply modes, and the router's bounce-driven
cache refresh.  Plane-level integration lives in
``tests/test_shard_plane.py``; chaos coverage in
``tests/test_chaos_shards.py``.
"""

import pytest

from repro.core.partition import (
    FAST_CONVERGE_S,
    HASH_SPACE,
    PartitionMap,
    PartitionRouter,
    ReplicatedPartitionMap,
    ShardRange,
    StalePartitionMap,
    partition_slot,
)

pytestmark = pytest.mark.chaos


# ----------------------------------------------------------------------
# Slot hashing
# ----------------------------------------------------------------------


def test_partition_slot_is_deterministic_and_bounded():
    slots = [partition_slot(f"loid-{i}") for i in range(200)]
    assert all(0 <= s < HASH_SPACE for s in slots)
    assert slots == [partition_slot(f"loid-{i}") for i in range(200)]
    # Spread: 200 keys over 2 even shards should not all land on one.
    two = PartitionMap.even(2)
    owners = {two.shard_for_slot(s) for s in slots}
    assert owners == {0, 1}


# ----------------------------------------------------------------------
# Map algebra
# ----------------------------------------------------------------------


def test_even_map_tiles_the_space():
    for count in (1, 2, 3, 5, 8):
        m = PartitionMap.even(count)
        assert m.epoch == 1
        assert m.shard_ids == tuple(range(count))
        assert sum(r.width for r in m.ranges) == HASH_SPACE
        assert m.shard_for_slot(0) == 0
        assert m.shard_for_slot(HASH_SPACE - 1) == count - 1


def test_map_rejects_gaps_overlaps_and_short_coverage():
    with pytest.raises(ValueError):
        PartitionMap([ShardRange(0, 100, 0), ShardRange(200, HASH_SPACE, 1)])
    with pytest.raises(ValueError):
        PartitionMap([ShardRange(0, 300, 0), ShardRange(200, HASH_SPACE, 1)])
    with pytest.raises(ValueError):
        PartitionMap([ShardRange(0, 100, 0)])
    with pytest.raises(ValueError):
        ShardRange(100, 100, 0)


def test_split_halves_widest_range_and_bumps_epoch():
    m = PartitionMap.even(2)
    m2 = m.split(0, 2)
    assert m2.epoch == m.epoch + 1
    assert m.epoch == 1  # immutable: the original is untouched
    half = HASH_SPACE // 4
    assert m2.spans_of(0) == ((0, half),)
    assert m2.spans_of(2) == ((half, HASH_SPACE // 2),)
    assert m2.spans_of(1) == m.spans_of(1)
    with pytest.raises(ValueError):
        m.split(0, 1)  # new id already owns ranges
    with pytest.raises(ValueError):
        m.split(7, 9)  # nothing to split


def test_merge_reassigns_and_coalesces():
    m = PartitionMap.even(3)
    merged = m.merge(1, 0)
    assert merged.epoch == 2
    assert 1 not in merged.shard_ids
    # Shard 0's two spans are adjacent, so they coalesce into one.
    assert merged.spans_of(0) == ((0, m.spans_of(2)[0][0]),)
    with pytest.raises(ValueError):
        m.merge(1, 1)
    with pytest.raises(ValueError):
        m.merge(9, 0)


def test_move_carves_covering_ranges():
    m = PartitionMap.even(2)
    span = (1000, 2000)
    moved = m.move(span, 1)
    assert moved.epoch == 2
    assert moved.shard_for_slot(1500) == 1
    assert moved.shard_for_slot(999) == 0
    assert moved.shard_for_slot(2000) == 0
    assert sum(r.width for r in moved.ranges) == HASH_SPACE
    with pytest.raises(ValueError):
        m.move((5, 5), 1)


# ----------------------------------------------------------------------
# Replicated apply modes
# ----------------------------------------------------------------------


def make_replicated(runtime, replica_hosts=("host01", "host02")):
    return ReplicatedPartitionMap(
        runtime, "T.pmap", PartitionMap.even(2), replica_hosts=replica_hosts
    )


def test_consistent_apply_lands_everywhere_before_returning(runtime):
    replicated = make_replicated(runtime)
    seen = []
    replicated.subscribe(lambda m: seen.append(m.epoch))
    new_map = replicated.current.split(0, 2)
    runtime.sim.run_process(replicated.apply(new_map, mode="consistent"))
    assert replicated.epoch == 2
    assert replicated.view("host01").epoch == 2
    assert replicated.view("host02").epoch == 2
    assert seen == [2]


def test_fast_apply_leaves_replicas_stale_until_convergence(runtime):
    replicated = make_replicated(runtime)
    new_map = replicated.current.split(0, 2)
    runtime.sim.run_process(replicated.apply(new_map, mode="fast"))
    # Primary (and listeners) moved; replica views lag.
    assert replicated.epoch == 2
    assert replicated.view("host01").epoch == 1
    runtime.sim.run()
    assert replicated.view("host01").epoch == 2
    assert replicated.fast_applies == 1


def test_staleness_window_delays_fast_convergence(runtime):
    replicated = make_replicated(runtime)
    replicated.add_staleness_window(3.0, 0.0, 10.0)
    new_map = replicated.current.split(0, 2)
    started = runtime.sim.now

    def scenario():
        yield from replicated.apply(new_map, mode="fast")
        # Normal convergence delay passes; the window holds it stale.
        yield runtime.sim.timeout(FAST_CONVERGE_S * 2)
        assert replicated.view("host01").epoch == 1

    runtime.sim.run_process(scenario())
    runtime.sim.run()
    assert replicated.view("host01").epoch == 2
    assert runtime.sim.now >= started + 3.0


def test_apply_requires_epoch_advance(runtime):
    replicated = make_replicated(runtime)
    with pytest.raises(ValueError):
        runtime.sim.run_process(
            replicated.apply(PartitionMap.even(2), mode="consistent")
        )


# ----------------------------------------------------------------------
# Router cache + bounce loop
# ----------------------------------------------------------------------


class FakeShard:
    """Minimal shard-manager double for router bounce tests."""

    def __init__(self, shard_id, replicated):
        self.shard_id = shard_id
        self.loid = f"shard-{shard_id}"
        self._replicated = replicated
        self.calls = []

    def handle(self, epoch, loid):
        current = self._replicated.current
        if current.shard_for(loid) != self.shard_id:
            raise StalePartitionMap(epoch, current.epoch, snapshot=current)
        self.calls.append(loid)
        return (self.shard_id, loid)


class FakeClient:
    """Dispatches router invocations straight to FakeShard handlers."""

    def __init__(self, shards):
        self._shards = shards

    def invoke(self, target_loid, method, epoch, loid, **kwargs):
        shard = next(
            s for s in self._shards.values() if s.loid == target_loid
        )
        result = shard.handle(epoch, loid)
        return result
        yield  # pragma: no cover - keeps the invocation a generator


def test_router_bounce_adopts_piggybacked_snapshot(runtime):
    replicated = make_replicated(runtime)
    shards = {
        0: FakeShard(0, replicated),
        1: FakeShard(1, replicated),
        2: FakeShard(2, replicated),
    }
    router = PartitionRouter(replicated, shards.get)
    client = FakeClient(shards)
    loid = next(
        f"loid-{i}"
        for i in range(1000)
        if replicated.current.shard_for(f"loid-{i}") == 0
    )
    # Move the loid's whole half-space while the router's cache sleeps.
    runtime.sim.run_process(
        replicated.apply(
            replicated.current.move((0, HASH_SPACE // 2), 2),
            mode="consistent",
        )
    )
    assert router.epoch == 1  # cache is a snapshot, not a live view
    result = runtime.sim.run_process(client_call(router, client, loid))
    assert result == (2, loid)
    assert router.bounces == 1
    assert router.epoch == 2  # refreshed from the bounce's snapshot
    assert shards[2].calls == [loid]


def client_call(router, client, loid):
    result = yield from router.call(client, loid, "routedRead")
    return result


def test_router_gives_up_after_max_bounces(runtime):
    replicated = make_replicated(runtime)
    # Shard 1 exists in the map but has no live manager (retired).
    router = PartitionRouter(replicated, {0: FakeShard(0, replicated)}.get)
    client = FakeClient({})
    loid = next(
        f"loid-{i}"
        for i in range(1000)
        if replicated.current.shard_for(f"loid-{i}") == 1
    )

    def scenario():
        with pytest.raises(StalePartitionMap):
            yield from router.call(client, loid, "routedRead", max_bounces=2)

    runtime.sim.run_process(scenario())
