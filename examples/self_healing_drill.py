"""A self-healing drill: the reactive controller rides out a compound
incident with nobody at the dashboards.

Two faults land at the same instant on a fleet serving live open-loop
traffic: one instance host starts limping (a gray failure — 10x CPU
plus a slow, jittery NIC, not a clean crash) and an operator pushes a
degraded build as the official version with no canary gate watching.
The :class:`~repro.cluster.controller.ReactiveController` is the only
thing paying attention.  Its sense->decide->act loop must

- notice the SLO breach, attribute it to the freshly designated
  version, and roll the fleet back to the parent via the same
  journaled, transactional wave an operator would run; and
- notice the health scores quarantine the limper and migrate every
  instance off it.

The drill prints the remediation timeline straight from the
controller's log, then the healed end-state.  Run with::

    python examples/self_healing_drill.py
"""

from repro.cluster import ReactiveController, build_lan
from repro.core import ManagerJournal, RemovePolicy
from repro.core.policies import (
    DemoteDegradedVersion,
    MigrateOffFlakyHost,
    ReliableUpdatePolicy,
)
from repro.legion import LegionRuntime
from repro.net import RetryPolicy
from repro.net.faults import SlowLink
from repro.obs import SLO
from repro.workloads import (
    OpenLoopLoad,
    PoissonArrivals,
    build_degraded_version,
    make_noop_manager,
)

RETRY = RetryPolicy(base_s=1.0, multiplier=2.0, max_backoff_s=30.0, max_attempts=8)
INSTANCES = 12
INSTANCE_HOSTS = ("host01", "host02", "host03", "host04")
LIMPING_HOST = "host01"
FAULT_AT_S = 10.0


def main():
    runtime = LegionRuntime(build_lan(6, seed=77))
    sim = runtime.sim
    manager, __ = make_noop_manager(
        runtime,
        "Service",
        2,
        3,
        journal=ManagerJournal(name="Service"),
        host_name="host00",
        propagation_retry_policy=RETRY,
        update_policy=ReliableUpdatePolicy(retry_policy=RETRY),
        remove_policy=RemovePolicy.timeout(2.0),
    )
    loids = [
        sim.run_process(
            manager.create_instance(
                host_name=INSTANCE_HOSTS[index % len(INSTANCE_HOSTS)]
            )
        )
        for index in range(INSTANCES)
    ]
    v1 = manager.current_version
    v2 = build_degraded_version(manager, error_every=3)
    runtime.network.enable_health()

    slo = SLO(
        name="svc",
        latency_targets={0.99: 0.050},
        max_error_rate=0.02,
        min_samples=20,
    )
    monitor = runtime.network.slo_monitor("svc", slo=slo, window_s=6.0)
    client = runtime.make_client(host_name="host05")
    client.invoker.enable_adaptive_timeouts()
    client.invoker.enable_hedging()
    load = OpenLoopLoad(
        client,
        loids,
        PoissonArrivals(40.0),
        runtime.rng.stream("traffic"),
        monitor=monitor,
        duration_s=240.0,
        timeout_schedule=None,
    ).start()
    controller = ReactiveController(
        runtime,
        "Service",
        policies=[MigrateOffFlakyHost(), DemoteDegradedVersion()],
        interval_s=1.0,
    ).start()

    base = sim.now
    fault_at = base + FAULT_AT_S

    def incident():
        yield sim.timeout(fault_at - sim.now)
        print(f"t={sim.now - base:6.1f}s  FAULT: {LIMPING_HOST} limps, "
              f"operator pushes {v2} unguarded")
        runtime.host(LIMPING_HOST).set_limp(10.0, slow_nic=True)
        runtime.network.faults.add_delay_rule(
            SlowLink(
                [f"{LIMPING_HOST}/"],
                sorted(f"{h}/" for h in runtime.hosts if h != LIMPING_HOST),
                extra_s=0.4,
                jitter_s=0.04,
                seed=94,
                label="drill-limper-link",
            )
        )
        manager.set_current_version_async(v2)

    def watcher():
        while sim.now < fault_at + 180.0:
            rolled_back = manager.current_version == v1 and all(
                manager.record(loid).active
                and manager.record(loid).obj.version == v1
                for loid in loids
            )
            drained = not any(
                record.active and record.host.name == LIMPING_HOST
                for record in (manager.record(loid) for loid in loids)
            )
            if rolled_back and drained and sim.now > fault_at:
                print(f"t={sim.now - base:6.1f}s  HEALED: fleet back on {v1}, "
                      f"{LIMPING_HOST} drained "
                      f"(MTTR {sim.now - fault_at:.1f}s, hands-off)")
                break
            yield sim.timeout(0.25)
        load.stop()
        controller.stop()

    sim.run_process(incident())
    sim.run_process(watcher())
    sim.run()

    print("\n=== remediation timeline (controller log) ===")
    for entry in controller.remediation_log:
        print(
            f"t={entry['at'] - base:6.1f}s  {entry['policy']:<28} "
            f"{entry['kind']:<12} target={entry['target']} "
            f"-> {entry['outcome']}"
        )

    print("\n=== end state ===")
    placement = {}
    for loid in loids:
        record = manager.record(loid)
        placement.setdefault(record.host.name, []).append(
            str(record.obj.version)
        )
    for host in sorted(placement):
        versions = placement[host]
        print(f"  {host}: {len(versions)} instance(s) on {set(versions)}")
    health = runtime.network.health_snapshot().get(LIMPING_HOST, {})
    print(f"  {LIMPING_HOST} quarantined: {bool(health.get('quarantined'))}")
    print(f"  current version: {manager.current_version}")
    print(f"  open remediation intents: {manager.open_remediations()}")


if __name__ == "__main__":
    main()
