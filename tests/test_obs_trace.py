"""The configuration plane's history on the event bus."""

from repro.obs import EventBus
from repro.sim import Simulator
from tests.conftest import create_dcdo, make_sorter_manager


def record(runtime):
    """Every event the runtime publishes from now on, in order."""
    events = []
    runtime.network.bus.subscribe("*", events.append)
    return events


def on(events, topic):
    return [event for event in events if event.topic == topic]


# ----------------------------------------------------------------------
# Bus primitives
# ----------------------------------------------------------------------


def test_record_and_query():
    sim = Simulator()
    bus = EventBus(sim)
    bus.publish("cat.a", "subject-1", key="v1")

    def advance():
        yield sim.timeout(5.0)
        bus.publish("cat.b", "subject-1", key="v2")

    sim.run_process(advance())
    events = list(bus.recent)
    assert len(events) == 2
    assert [event.at for event in events] == [0.0, 5.0]
    assert len(on(events, "cat.a")) == 1
    assert len([event for event in events if event.subject == "subject-1"]) == 2
    assert [e for e in events if 1.0 <= e.at < 10.0][0].details["key"] == "v2"


def test_capacity_drops_and_counts():
    bus = EventBus(Simulator(), history=2)
    for index in range(5):
        bus.publish("cat", f"s{index}")
    assert [event.subject for event in bus.recent] == ["s3", "s4"]
    assert bus.published - len(bus.recent) == 3


def test_event_rendering():
    bus = EventBus(Simulator())
    text = str(bus.publish("dcdo.evolved", "obj#1", to_version="1.1"))
    assert "dcdo.evolved" in text
    assert "to_version=1.1" in text


# ----------------------------------------------------------------------
# What the runtime publishes
# ----------------------------------------------------------------------


def test_runtime_publishes_without_subscribers(runtime):
    manager = make_sorter_manager(runtime)
    create_dcdo(runtime, manager)
    assert runtime.network.bus.counts()["class.instance-created"] == 1


def test_full_lifecycle_is_traced(runtime):
    from repro.core.policies import GeneralEvolutionPolicy

    events = record(runtime)
    manager = make_sorter_manager(runtime, evolution_policy=GeneralEvolutionPolicy())
    loid, obj = create_dcdo(runtime, manager)

    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "compare-desc")
    descriptor = manager.descriptor_of(version)
    descriptor.enable("compare", "compare-desc", replace_current=True)
    descriptor.remove_component("compare-asc")
    manager.mark_instantiable(version)
    runtime.sim.run_process(manager.evolve_instance(loid, version))

    assert len(on(events, "manager.version-instantiable")) >= 2  # v1 + v1.1
    assert len(on(events, "manager.current-version")) == 1
    assert len(on(events, "class.instance-created")) == 1

    evolved = on(events, "dcdo.evolved")
    assert len(evolved) == 1
    assert evolved[0].details["from_version"] == "1"
    assert evolved[0].details["to_version"] == str(version)
    assert evolved[0].details["added"] == 1
    assert evolved[0].details["removed"] == 1

    incorporations = on(events, "dcdo.component-incorporated")
    # Two at creation (bootstrap) + one during evolution.
    assert len(incorporations) == 3
    assert sum(1 for event in incorporations if event.details["bootstrap"]) == 2

    removed = on(events, "dcdo.component-removed")
    assert [event.details["component"] for event in removed] == ["compare-asc"]


def test_migration_is_traced(runtime):
    events = record(runtime)
    manager = make_sorter_manager(runtime)
    loid, __ = create_dcdo(runtime, manager)
    source = manager.record(loid).host.name
    target = next(name for name in runtime.hosts if name != source)
    runtime.sim.run_process(manager.migrate_instance(loid, target))
    migrations = on(events, "class.instance-migrated")
    assert len(migrations) == 1
    assert migrations[0].details["source"] == source
    assert migrations[0].details["target"] == target
    assert migrations[0].subject == loid


def test_trace_timestamps_are_simulated_time(runtime):
    events = record(runtime)
    manager = make_sorter_manager(runtime)
    before = runtime.sim.now
    create_dcdo(runtime, manager)
    created = on(events, "class.instance-created")[0]
    # Creation takes >1 simulated second (process spawn).
    assert created.at >= before + 1.0
