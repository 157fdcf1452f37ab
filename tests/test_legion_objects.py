"""Integration tests: object creation, invocation, migration, bindings."""

import pytest

from repro.legion.errors import MethodNotFound, UnknownObject
from tests.conftest import make_counter_class


def create_counter(runtime, klass, host_name=None):
    return runtime.sim.run_process(klass.create_instance(host_name=host_name))


# ----------------------------------------------------------------------
# Creation
# ----------------------------------------------------------------------


def test_create_instance_returns_loid(runtime):
    klass = make_counter_class(runtime)
    loid = create_counter(runtime, klass)
    assert loid.type_name == "Counter"
    assert klass.record(loid).active


def test_creation_charges_spawn_and_registration(runtime):
    klass = make_counter_class(runtime, function_count=500)
    start = runtime.sim.now
    create_counter(runtime, klass)
    elapsed = runtime.sim.now - start
    # Paper E3: ~2.2 s for a 500-function monolithic object.
    assert 1.8 <= elapsed <= 2.7


def test_creation_downloads_binary_on_cache_miss(runtime):
    klass = make_counter_class(runtime)
    target = runtime.host("host02")
    target.cache.clear()
    start = runtime.sim.now
    create_counter(runtime, klass, host_name="host02")
    elapsed = runtime.sim.now - start
    # 550 KB download adds ~4 s on top of ~1.x s creation.
    assert elapsed > 4.0


def test_placement_spreads_instances(runtime):
    klass = make_counter_class(runtime)
    hosts = {klass.record(create_counter(runtime, klass)).host.name for _ in range(4)}
    assert len(hosts) == 4


def test_unknown_instance_raises(runtime):
    klass = make_counter_class(runtime)
    with pytest.raises(UnknownObject):
        klass.record(runtime.mint_loid("Counter"))


# ----------------------------------------------------------------------
# Invocation
# ----------------------------------------------------------------------


def test_remote_invocation_roundtrip(runtime):
    klass = make_counter_class(runtime)
    loid = create_counter(runtime, klass)
    client = runtime.make_client("host03")
    assert client.call_sync(loid, "inc", 5) == 5
    assert client.call_sync(loid, "get") == 5


def test_remote_invocation_takes_milliseconds(runtime):
    klass = make_counter_class(runtime)
    loid = create_counter(runtime, klass)
    client = runtime.make_client("host03")
    client.call_sync(loid, "inc")  # warm the binding cache
    start = runtime.sim.now
    client.call_sync(loid, "get")
    elapsed = runtime.sim.now - start
    # A Legion null RPC is a few milliseconds (§4: the ~12 us DFM
    # overhead must be "a small fraction" of this).
    assert 0.002 < elapsed < 0.02


def test_invoking_missing_method_raises_method_not_found(runtime):
    klass = make_counter_class(runtime)
    loid = create_counter(runtime, klass)
    client = runtime.make_client()
    with pytest.raises(MethodNotFound):
        client.call_sync(loid, "no_such_function")


def test_method_with_simulated_work(runtime):
    klass = make_counter_class(runtime)
    loid = create_counter(runtime, klass)
    client = runtime.make_client()
    start = runtime.sim.now
    assert client.call_sync(loid, "slow", 0.5) == "done"
    assert runtime.sim.now - start >= 0.5


def test_intra_object_call_dispatches_locally(runtime):
    klass = make_counter_class(runtime)
    loid = create_counter(runtime, klass)
    client = runtime.make_client()
    assert client.call_sync(loid, "add_twice", 3) == (3, 6)
    assert client.call_sync(loid, "get") == 6


def test_concurrent_requests_interleave(runtime):
    klass = make_counter_class(runtime)
    loid = create_counter(runtime, klass)
    client_a = runtime.make_client("host01")
    client_b = runtime.make_client("host02")
    done = []
    start = runtime.sim.now

    def caller(client, seconds, tag):
        yield from client.invoke(loid, "slow", seconds)
        done.append((tag, runtime.sim.now - start))

    runtime.sim.spawn(caller(client_a, 2.0, "slow"))
    runtime.sim.spawn(caller(client_b, 0.1, "fast"))
    runtime.sim.run()
    # The fast request finished while the slow one was still running:
    # the object serves each request on its own simulated thread.
    assert done[0][0] == "fast"
    assert done[0][1] < 1.0


def test_invoking_class_object_remotely(runtime):
    klass = make_counter_class(runtime)
    client = runtime.make_client()
    loid = client.call_sync(
        klass.loid, "createInstance", timeout_schedule=(30.0,)
    )
    assert klass.record(loid).active
    assert client.call_sync(loid, "inc") == 1


def test_unknown_loid_resolution_fails(runtime):
    make_counter_class(runtime)
    client = runtime.make_client()
    with pytest.raises(UnknownObject):
        client.call_sync(runtime.mint_loid("Counter"), "get")


# ----------------------------------------------------------------------
# Deactivation, reactivation, migration
# ----------------------------------------------------------------------


def test_deactivate_then_activate_preserves_state(runtime):
    klass = make_counter_class(runtime)
    loid = create_counter(runtime, klass)
    client = runtime.make_client()
    client.call_sync(loid, "inc", 41)
    runtime.sim.run_process(klass.deactivate_instance(loid))
    assert not klass.record(loid).active
    runtime.sim.run_process(klass.activate_instance(loid))
    client.binding_cache.invalidate(loid)
    assert client.call_sync(loid, "inc") == 42


def test_migration_moves_host_and_preserves_state(runtime):
    klass = make_counter_class(runtime)
    loid = create_counter(runtime, klass, host_name="host00")
    client = runtime.make_client("host03")
    client.call_sync(loid, "inc", 7)
    runtime.sim.run_process(klass.migrate_instance(loid, "host01"))
    record = klass.record(loid)
    assert record.host.name == "host01"
    client.binding_cache.invalidate(loid)
    assert client.call_sync(loid, "get") == 7


def test_stale_binding_discovery_takes_25_to_35_seconds(runtime):
    """The paper's E4 claim, end to end through the RPC layer."""
    klass = make_counter_class(runtime)
    loid = create_counter(runtime, klass, host_name="host00")
    client = runtime.make_client("host03")
    client.call_sync(loid, "inc")  # cache the binding
    runtime.sim.run_process(klass.migrate_instance(loid, "host01"))
    start = runtime.sim.now
    # The cached binding points at the dead incarnation; the call must
    # walk the timeout schedule before rebinding and succeeding.
    assert client.call_sync(loid, "get") == 1
    elapsed = runtime.sim.now - start
    assert 25.0 <= elapsed <= 35.0
    assert client.binding_cache.stale_stats.count == 1


def test_fresh_client_after_migration_resolves_directly(runtime):
    klass = make_counter_class(runtime)
    loid = create_counter(runtime, klass, host_name="host00")
    runtime.sim.run_process(klass.migrate_instance(loid, "host01"))
    client = runtime.make_client("host03")
    start = runtime.sim.now
    assert client.call_sync(loid, "get") == 0
    assert runtime.sim.now - start < 1.0  # no stale binding to discover


def test_class_object_seeds_its_own_cache_after_migration(runtime):
    """The class object minted the post-move binding itself: its own
    management RPCs must not pay the stale-binding walk a plain client
    pays (the controller's migrate-then-evolve path depends on this)."""
    klass = make_counter_class(runtime)
    loid = create_counter(runtime, klass, host_name="host00")
    # Warm the class object's own cache with the pre-move binding.
    runtime.sim.run_process(klass.invoker.invoke(loid, "inc", (3,)))
    binding = runtime.sim.run_process(klass.migrate_instance(loid, "host01"))
    assert klass.invoker.binding_cache.get(loid) is binding
    start = runtime.sim.now
    assert runtime.sim.run_process(klass.invoker.invoke(loid, "get", ())) == 3
    assert runtime.sim.now - start < 1.0  # no stale binding to discover
    assert klass.invoker.binding_cache.stale_stats.count == 0


def test_delete_instance_unregisters(runtime):
    klass = make_counter_class(runtime)
    loid = create_counter(runtime, klass)
    runtime.sim.run_process(klass.delete_instance(loid))
    with pytest.raises(UnknownObject):
        klass.record(loid)


def test_binding_incarnation_increases_across_activations(runtime):
    klass = make_counter_class(runtime)
    loid = create_counter(runtime, klass)
    first = runtime.binding_agent.resolve_local(loid)
    runtime.sim.run_process(klass.deactivate_instance(loid))
    runtime.sim.run_process(klass.activate_instance(loid))
    second = runtime.binding_agent.resolve_local(loid)
    assert second.incarnation == first.incarnation + 1
    assert second.address != first.address


# ----------------------------------------------------------------------
# Implementation downloads (E5 shape)
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "size_bytes,low,high",
    [
        (550_000, 3.0, 5.0),  # "a 550 K implementation takes about 4 seconds"
        (5_100_000, 15.0, 25.0),  # "15 to 25 seconds" for 5.1 MB
    ],
)
def test_download_times_match_paper(runtime, size_bytes, low, high):
    from repro.legion import Implementation

    implementation = runtime.implementation_store.publish(
        Implementation(impl_id=f"blob-{size_bytes}", size_bytes=size_bytes)
    )
    client = runtime.make_client("host01")
    host = runtime.host("host01")
    start = runtime.sim.now
    runtime.sim.run_process(
        runtime.implementation_store.ensure_cached(
            host, implementation.impl_id, client.endpoint
        )
    )
    elapsed = runtime.sim.now - start
    assert low <= elapsed <= high
    assert implementation.impl_id in host.cache


def test_cached_download_is_free(runtime):
    from repro.legion import Implementation

    implementation = runtime.implementation_store.publish(
        Implementation(impl_id="blob", size_bytes=1_000_000)
    )
    client = runtime.make_client("host01")
    host = runtime.host("host01")
    host.cache.insert("blob", 1_000_000)
    start = runtime.sim.now
    seconds = runtime.sim.run_process(
        runtime.implementation_store.ensure_cached(host, "blob", client.endpoint)
    )
    assert seconds == 0.0
    assert runtime.sim.now == start
