"""A crash drill: evolution propagation riding through host failures.

The operations story behind the fault-tolerance machinery: a journaled
DCDO Manager starts pushing a new current version to its fleet, its
own host crashes mid-wave, and a fresh manager recovered from the
journal finishes the wave — delivering only to the instances that never
acked, re-deriving nothing, double-applying nothing.  A seeded chaos
schedule then stresses the same invariant with random outages and
partitions, and the system report shows the crash / recovery / retry
counters the drill produced.

Run with::

    python examples/chaos_drill.py
"""

from repro.cluster import build_lan
from repro.cluster.chaos import (
    ChaosCoordinator,
    ChaosSchedule,
    crash_host,
    drive_to_convergence,
)
from repro.core import ManagerJournal, define_dcdo_type, recover_manager
from repro.core.policies import ReliableUpdatePolicy
from repro.legion import LegionRuntime
from repro.net import PrefixPartition, RetryPolicy
from repro.obs import collect_system_report, render_report
from repro.workloads import build_component_version, synthetic_components

RETRY = RetryPolicy(base_s=1.0, multiplier=2.0, max_backoff_s=30.0, max_attempts=8)


def build_service(runtime, journal):
    """A journaled 'Service' type with one instance per host."""
    manager = define_dcdo_type(
        runtime,
        "Service",
        update_policy=ReliableUpdatePolicy(retry_policy=RETRY),
        journal=journal,
        propagation_retry_policy=RETRY,
    )
    components = synthetic_components(2, 3, prefix="svc")
    version = build_component_version(manager, components)
    manager.set_current_version(version)
    loids = [
        runtime.sim.run_process(manager.create_instance(host_name=name))
        for name in runtime.hosts
    ]
    return manager, loids


def cut_version(manager, tag):
    """Derive + publish a new version carrying one extra component."""
    extra = synthetic_components(1, 2, prefix=tag)
    return build_component_version(manager, extra)


def drill_manager_crash():
    """Act 1: deterministic mid-propagation manager crash + recovery."""
    print("=== act 1: manager crash mid-propagation ===")
    runtime = LegionRuntime(build_lan(4, seed=11))
    journal = ManagerJournal(name="Service")
    manager, loids = build_service(runtime, journal)
    v2 = cut_version(manager, "patch")
    # host03 is unreachable from the manager, so its delivery stays
    # pending while the others ack.
    runtime.network.faults.add_partition(
        PrefixPartition(
            ["host00/"], ["host03/"], start=runtime.sim.now, end=runtime.sim.now + 120.0
        )
    )

    def scenario():
        yield runtime.sim.timeout(1.0)
        manager.set_current_version_async(v2)
        yield runtime.sim.timeout(30.0)
        tracker = manager.propagation(v2)
        print(f"t={runtime.sim.now:.0f}s before crash: {tracker.summary()}")
        crash_host(runtime, runtime.host("host00"))
        print(f"t={runtime.sim.now:.0f}s manager host crashed "
              f"(journal holds {len(journal)} entries)")
        yield runtime.sim.timeout(150.0)
        runtime.host("host00").restart()
        recovered = yield from recover_manager(runtime, journal)
        print(f"t={runtime.sim.now:.0f}s recovered manager "
              f"{recovered.loid} from journal; propagation resumed")
        return recovered

    recovered = runtime.sim.run_process(scenario())
    runtime.sim.run()
    tracker = recovered.propagation(v2)
    print(f"after recovery: {tracker.summary()}")
    applied = {
        str(loid): recovered.record(loid).obj.applications_by_version.get(v2, 0)
        for loid in loids
        if recovered.record(loid).active
    }
    print(f"applications of v{v2} per live instance: {applied}")
    snapshot = runtime.network.metrics.snapshot()
    print("recovery metrics:", {
        name: value
        for name, value in sorted(snapshot.items())
        if name.startswith(("host.", "manager.", "propagation.", "retry."))
    })
    return runtime


def drill_chaos_schedule():
    """Act 2: a seeded random schedule, healed to convergence."""
    print("\n=== act 2: seeded chaos schedule ===")
    runtime = LegionRuntime(build_lan(5, seed=23))
    journal = ManagerJournal(name="Service")
    manager, loids = build_service(runtime, journal)
    coordinator = ChaosCoordinator(runtime, journals={"Service": journal})
    schedule = ChaosSchedule.generate(7, list(runtime.hosts), duration_s=90.0)
    print(f"schedule: {schedule!r}")
    schedule.install(runtime, coordinator)
    v2 = cut_version(manager, "hotfix")

    def scenario():
        yield runtime.sim.timeout(0.5)
        manager.set_current_version_async(v2)
        heal = schedule.heal_time + 1.0
        if runtime.sim.now < heal:
            yield runtime.sim.timeout(heal - runtime.sim.now)
        converged = yield from drive_to_convergence(
            runtime, "Service", journal=journal, retry_policy=RETRY
        )
        return converged

    converged = runtime.sim.run_process(scenario())
    runtime.sim.run()
    manager_now = runtime.class_of("Service")
    print(f"converged: {converged} {manager_now.propagation(v2).summary()}")
    for at, name, died in coordinator.crash_log:
        print(f"  crash  t={at:.1f}s {name} took down {len(died)} instance(s)")
    for at, kind, what in coordinator.recovery_log:
        print(f"  recover t={at:.1f}s {kind}: {what}")
    versions = {str(loid): str(manager_now.instance_version(loid)) for loid in loids}
    print(f"fleet versions: {versions}")
    return runtime


def main():
    drill_manager_crash()
    runtime = drill_chaos_schedule()
    print("\n=== system report (act 2 runtime) ===")
    print(render_report(collect_system_report(runtime)))


if __name__ == "__main__":
    main()
