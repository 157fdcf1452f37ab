"""Integration tests for the DCDO Manager: DFM store, DCDO table,
creation, and evolution mechanics."""

import pytest

from repro.core import (
    ComponentBuilder,
    DeliveryStatus,
    UnknownVersion,
    VersionId,
    VersionNotConfigurable,
    VersionNotInstantiable,
)
from repro.core.policies import GeneralEvolutionPolicy
from tests.conftest import create_dcdo, make_sorter_manager


# ----------------------------------------------------------------------
# DFM store: versions, derivation, instantiability (§2.4)
# ----------------------------------------------------------------------


def test_new_version_is_configurable(runtime):
    manager = make_sorter_manager(runtime)
    version = manager.new_version()
    assert not manager.is_instantiable(version)
    manager.descriptor_of(version)  # configurable: no error


def test_derive_version_copies_parent_descriptor(runtime):
    manager = make_sorter_manager(runtime)
    child = manager.derive_version(manager.current_version)
    descriptor = manager.descriptor_of(child)
    assert descriptor.component_ids == {"sorter", "compare-asc"}
    assert descriptor.is_enabled("sort", "sorter")


def test_instantiable_version_cannot_be_configured(runtime):
    """§2.4: "the DFM descriptor of an instantiable version cannot be
    changed any further"."""
    manager = make_sorter_manager(runtime)
    with pytest.raises(VersionNotConfigurable):
        manager.descriptor_of(manager.current_version)


def test_configurable_version_cannot_instantiate(runtime):
    """§2.4: a configurable version "cannot be used to create a new
    DCDO, or to evolve an existing DCDO"."""
    manager = make_sorter_manager(runtime)
    loid, __ = create_dcdo(runtime, manager)
    version = manager.derive_version(manager.current_version)
    with pytest.raises(VersionNotInstantiable):
        runtime.sim.run_process(manager.evolve_instance(loid, version))


def test_current_version_must_be_instantiable(runtime):
    manager = make_sorter_manager(runtime)
    version = manager.derive_version(manager.current_version)
    with pytest.raises(VersionNotInstantiable):
        manager.set_current_version(version)


def test_mark_instantiable_validates(runtime):
    from repro.core import MandatoryViolation

    manager = make_sorter_manager(runtime)
    broken = (
        ComponentBuilder("broken")
        .function("lonely", lambda ctx: None)
        .require_mandatory("lonely")
        .build()
    )
    manager.register_component(broken)
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "broken")
    with pytest.raises(MandatoryViolation):
        manager.mark_instantiable(version)
    manager.descriptor_of(version).enable("lonely", "broken")
    manager.mark_instantiable(version)


def test_unknown_version_raises(runtime):
    manager = make_sorter_manager(runtime)
    with pytest.raises(UnknownVersion):
        manager.version_record(VersionId.parse("9.9"))


def test_versions_listing_sorted(runtime):
    manager = make_sorter_manager(runtime)
    child_a = manager.derive_version(manager.current_version)
    child_b = manager.derive_version(manager.current_version)
    assert manager.versions() == [manager.current_version, child_a, child_b]


def test_creation_without_current_version_fails(runtime):
    from repro.core import define_dcdo_type

    manager = define_dcdo_type(runtime, "Empty")
    with pytest.raises(VersionNotInstantiable):
        runtime.sim.run_process(manager.create_instance())


# ----------------------------------------------------------------------
# Component registration (ICOs, §2.3)
# ----------------------------------------------------------------------


def test_registered_components_have_icos_in_namespace(runtime):
    manager = make_sorter_manager(runtime)
    assert manager.registered_components() == ["compare-asc", "compare-desc", "sorter"]
    loid = runtime.context_space.lookup("/components/Sorter/sorter")
    assert loid == manager.component_ico("sorter")


def test_duplicate_component_registration_rejected(runtime):
    manager = make_sorter_manager(runtime)
    duplicate = ComponentBuilder("sorter").function("x", lambda ctx: None).build()
    with pytest.raises(ValueError, match="already registered"):
        manager.register_component(duplicate)


def test_ico_serves_descriptor_remotely(runtime):
    manager = make_sorter_manager(runtime)
    client = runtime.make_client()
    descriptor = client.call_sync(manager.component_ico("sorter"), "getDescriptor")
    assert descriptor["component_id"] == "sorter"
    assert descriptor["functions"]["sort"]["exported"] is True


# ----------------------------------------------------------------------
# The DCDO table (§2.4)
# ----------------------------------------------------------------------


def test_dcdo_table_tracks_version_and_impl_type(runtime):
    manager = make_sorter_manager(runtime)
    loid, __ = create_dcdo(runtime, manager)
    rows = manager.dcdo_table()
    assert len(rows) == 1
    row_loid, version, impl_type, active = rows[0]
    assert row_loid == loid
    assert version == manager.current_version
    assert impl_type.architecture == "x86-linux"
    assert active


def test_dcdo_table_remotely_queryable(runtime):
    manager = make_sorter_manager(runtime)
    create_dcdo(runtime, manager)
    client = runtime.make_client()
    table = client.call_sync(manager.loid, "getDCDOTable")
    assert len(table) == 1
    assert table[0][1] == "1"


# ----------------------------------------------------------------------
# Evolution mechanics
# ----------------------------------------------------------------------


def prepare_descending_version(manager):
    """Derive a version that swaps compare-asc for compare-desc."""
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "compare-desc")
    descriptor = manager.descriptor_of(version)
    descriptor.enable("compare", "compare-desc", replace_current=True)
    descriptor.remove_component("compare-asc")
    manager.mark_instantiable(version)
    return version


def test_evolve_instance_to_new_version(runtime):
    manager = make_sorter_manager(runtime, evolution_policy=GeneralEvolutionPolicy())
    loid, obj = create_dcdo(runtime, manager)
    client = runtime.make_client()
    assert client.call_sync(loid, "sort", [2, 3, 1]) == [1, 2, 3]
    version = prepare_descending_version(manager)
    reached = runtime.sim.run_process(manager.evolve_instance(loid, version))
    assert reached == version
    assert client.call_sync(loid, "sort", [2, 3, 1]) == [3, 2, 1]
    assert client.call_sync(loid, "getVersion") == str(version)
    assert client.call_sync(loid, "getComponents") == ["compare-desc", "sorter"]
    assert manager.instance_version(loid) == version


def test_evolution_without_new_components_is_subsecond(runtime):
    """§4: "the cost of evolving a DCDO from one implementation to
    another is less than half a second, except for the case when new
    components need to be incorporated"."""
    manager = make_sorter_manager(runtime, evolution_policy=GeneralEvolutionPolicy())
    loid, __ = create_dcdo(runtime, manager)
    # New version only flips exported/enabled bits: no new components.
    version = manager.derive_version(manager.current_version)
    manager.descriptor_of(version).set_exported("compare", "compare-asc", False)
    manager.mark_instantiable(version)
    start = runtime.sim.now
    runtime.sim.run_process(manager.evolve_instance(loid, version))
    assert runtime.sim.now - start < 0.5


def test_evolution_with_cached_component_is_microseconds_per_component(runtime):
    """§4: "approximately 200 microseconds per component" when cached."""
    manager = make_sorter_manager(runtime, evolution_policy=GeneralEvolutionPolicy())
    loid, obj = create_dcdo(runtime, manager)
    # Seed the host cache with the new component's blob.
    component, __ = manager._components_entry("compare-desc")
    variant = component.variant_for_host(obj.host)
    obj.host.cache.insert(variant.blob_id, variant.size_bytes)
    version = prepare_descending_version(manager)
    start = runtime.sim.now
    runtime.sim.run_process(manager.evolve_instance(loid, version))
    elapsed = runtime.sim.now - start
    assert elapsed < 0.5  # one management RPC + ~200 us link


def test_evolution_with_uncached_component_pays_download(runtime):
    """§4: uncached evolution "is dominated by the time needed to
    download the component data" — bigger components take longer."""
    from repro.core import ComponentBuilder

    manager = make_sorter_manager(runtime, evolution_policy=GeneralEvolutionPolicy())
    loid, __ = create_dcdo(runtime, manager)
    elapsed = {}
    for size in (100_000, 5_000_000):
        big = (
            ComponentBuilder(f"big-{size}")
            .function(f"fn_{size}", lambda ctx: None)
            .variant(size_bytes=size)
            .build()
        )
        manager.register_component(big)
        version = manager.derive_version(manager.instance_version(loid))
        manager.incorporate_into(version, f"big-{size}")
        manager.descriptor_of(version).enable(f"fn_{size}", f"big-{size}")
        manager.mark_instantiable(version)
        start = runtime.sim.now
        runtime.sim.run_process(manager.evolve_instance(loid, version))
        elapsed[size] = runtime.sim.now - start
    assert elapsed[5_000_000] > elapsed[100_000] > 0.1
    assert elapsed[5_000_000] > 2.0  # 5 MB at ~2 MB/s effective


def test_evolve_noop_when_already_at_target(runtime):
    manager = make_sorter_manager(runtime)
    loid, obj = create_dcdo(runtime, manager)
    before = obj.evolutions_applied
    runtime.sim.run_process(manager.evolve_instance(loid, manager.current_version))
    assert obj.evolutions_applied == before


def test_evolution_survives_state(runtime):
    """Evolving changes the implementation, not the object's state."""
    manager = make_sorter_manager(runtime, evolution_policy=GeneralEvolutionPolicy())
    loid, obj = create_dcdo(runtime, manager)
    obj.state["memory"] = 123
    version = prepare_descending_version(manager)
    runtime.sim.run_process(manager.evolve_instance(loid, version))
    assert obj.state["memory"] == 123
    assert obj is manager.record(loid).obj  # same live object, no restart


def test_propagate_version_reaches_every_instance(runtime):
    manager = make_sorter_manager(runtime, evolution_policy=GeneralEvolutionPolicy())
    loids = [create_dcdo(runtime, manager)[0] for __ in range(3)]
    version = prepare_descending_version(manager)
    manager.set_current_version(version)
    tracker = runtime.sim.run_process(manager.propagate_version(version))
    assert tracker.loids_in(DeliveryStatus.ACKED) == loids
    assert all(manager.instance_version(loid) == version for loid in loids)


def test_remote_update_instance_call(runtime):
    """§3.4 explicit update: an external object drives the evolution."""
    manager = make_sorter_manager(runtime, evolution_policy=GeneralEvolutionPolicy())
    loid, __ = create_dcdo(runtime, manager)
    version = prepare_descending_version(manager)
    manager.set_current_version(version)
    client = runtime.make_client()
    reached = client.call_sync(
        manager.loid, "updateInstance", loid, timeout_schedule=(600.0,)
    )
    assert reached == version


def test_dcdo_migration_rebuilds_from_version(runtime):
    """Migration re-creates the DCDO's implementation on the target
    host from its version's descriptor, preserving state."""
    manager = make_sorter_manager(runtime)
    loid, obj = create_dcdo(runtime, manager)
    obj.state["sticky"] = "yes"
    source = manager.record(loid).host.name
    target = next(name for name in runtime.hosts if name != source)
    runtime.sim.run_process(manager.migrate_instance(loid, target))
    record = manager.record(loid)
    assert record.host.name == target
    assert record.obj.state["sticky"] == "yes"
    client = runtime.make_client()
    assert client.call_sync(loid, "sort", [2, 1]) == [1, 2]
    assert manager.instance_version(loid) == manager.current_version
