"""Tests for public API surface not covered elsewhere."""

import pytest

from repro.core import Dependency, RemovePolicy
from repro.legion.errors import ObjectDeactivated, UnknownObject
from tests.conftest import create_dcdo, make_counter_class, make_sorter_manager


def test_runtime_class_of(runtime):
    klass = make_counter_class(runtime)
    assert runtime.class_of("Counter") is klass
    with pytest.raises(UnknownObject):
        runtime.class_of("Nope")


def test_testbed_host_names(runtime):
    assert runtime.testbed.host_names() == ["host00", "host01", "host02", "host03"]


def test_version_tree_known_versions(runtime):
    manager = make_sorter_manager(runtime)
    manager.derive_version(manager.current_version)
    known = manager.state.tree.known_versions
    assert manager.current_version in known
    assert len(known) == 2


def test_object_moved_to_rebases_host(runtime):
    klass = make_counter_class(runtime)
    loid = runtime.sim.run_process(klass.create_instance(host_name="host00"))
    obj = klass.record(loid).obj
    obj.moved_to(runtime.host("host02"))
    assert obj.host.name == "host02"


def test_descriptor_remove_dependency(runtime):
    manager = make_sorter_manager(runtime)
    version = manager.derive_version(manager.current_version)
    descriptor = manager.descriptor_of(version)
    dependency = Dependency("sort", "compare", dependent_component="sorter")
    descriptor.add_dependency(dependency)
    assert dependency in descriptor.dependencies
    descriptor.remove_dependency(dependency)
    assert dependency not in descriptor.dependencies
    descriptor.remove_dependency(dependency)  # idempotent


def test_dfm_remove_dependency(runtime):
    manager = make_sorter_manager(runtime)
    __, obj = create_dcdo(runtime, manager)
    dependency = Dependency("sort", "compare", dependent_component="sorter")
    obj.dfm.add_dependency(dependency)
    obj.dfm.remove_dependency(dependency)
    assert dependency not in obj.dfm.dependencies


def test_require_active(runtime):
    klass = make_counter_class(runtime)
    loid = runtime.sim.run_process(klass.create_instance())
    assert klass.require_active(loid) is klass.record(loid).obj
    runtime.sim.run_process(klass.deactivate_instance(loid))
    with pytest.raises(ObjectDeactivated):
        klass.require_active(loid)


def test_invoke_stats_reset(runtime):
    klass = make_counter_class(runtime)
    loid = runtime.sim.run_process(klass.create_instance())
    client = runtime.make_client()
    client.call_sync(loid, "inc")
    assert client.invoker.stats.invocations == 1
    client.invoker.stats.reset()
    assert client.invoker.stats.invocations == 0
    assert client.invoker.stats.rebinds == 0


def test_set_oneway_handler(runtime):
    received = []
    client = runtime.make_client("host01")
    peer = runtime.make_client("host02")
    peer.endpoint.set_oneway_handler(lambda message: received.append(message.payload))
    client.endpoint.send(peer.endpoint.address, "fire-and-forget")
    runtime.sim.run()
    assert received == ["fire-and-forget"]


def test_set_remove_policy(runtime):
    manager = make_sorter_manager(runtime)
    __, obj = create_dcdo(runtime, manager)
    assert obj.remove_policy.mode.value == "error"
    obj.set_remove_policy(RemovePolicy.timeout(2.5))
    assert obj.remove_policy.mode.value == "timeout"
    assert obj.remove_policy.grace_s == 2.5


def test_row_as_tuple():
    from repro.bench.harness import Row

    row = Row(label="x", paper="1", measured="2", unit="s", ok=False)
    assert row.as_tuple() == ("x", "1", "2", "s", False)
