"""Chaos sweep: the self-healing controller under seeded faults.

Every seed rolls an unguarded bad deploy (the schedule's
``bad_deploys`` kind — no canary gate watching) while the schedule
limps instance hosts (``flaky_limps``), crashes hosts, partitions the
network, and on some seeds kills the manager so a supervisor promotes
a standby mid-remediation.  The :class:`ReactiveController` runs the
whole time with its default sense→decide→act loop; no test code ever
rolls back or migrates by hand.

Acceptance invariants, every seed:

- the controller's rollback *converges*: the fleet ends on the prior
  version, current-version designation included, exactly-once per
  instance per version;
- never-half-applied for every settled instance, at heal and at end;
- no supervisor fight: the shared convergence guard records zero
  violations (denials are the races *avoided*), and the remediation
  lease is never held under a stale term when the controller acts;
- journal hygiene: every controller intent on the surviving authority
  is closed (done, failed, or orphaned by GC) — nothing dangles.

``CHAOS_EXTRA_SEEDS`` (env) widens the sweep in CI.  Unit coverage for
the controller pieces lives in ``tests/test_controller.py``.
"""

import os

import pytest

from repro.cluster import (
    ReactiveController,
    Supervisor,
    build_lan,
    convergence_guard,
)
from repro.cluster.chaos import ChaosCoordinator, ChaosSchedule
from repro.core import ManagerJournal, RemovePolicy
from repro.core.policies import (
    DemoteDegradedVersion,
    MigrateOffFlakyHost,
    PrewarmBlobCaches,
    ReliableUpdatePolicy,
)
from repro.legion import LegionRuntime
from repro.net import RetryPolicy
from repro.obs import SLO
from repro.workloads import (
    OpenLoopLoad,
    PoissonArrivals,
    build_degraded_version,
    make_noop_manager,
)

from tests.invariants import assert_never_half_applied

FAST_RETRY = RetryPolicy(
    base_s=1.0, multiplier=2.0, max_backoff_s=30.0, max_attempts=8
)

MANAGER_HOST = "host00"
STANDBY_HOSTS = ("host02", "host03")
DETECTOR_HOST = "host04"
CLIENT_HOST = "host05"
INSTANCE_HOSTS = ("host01", "host02", "host03")

INSTANCES = 6
CHAOS_SEEDS = 20 + int(os.environ.get("CHAOS_EXTRA_SEEDS", "0"))

#: Controller rollbacks and migrations per seed, checked in aggregate:
#: the sweep must actually exercise the remediation paths it certifies.
ROLLBACKS = {}
MIGRATIONS = {}


def build_fleet(sim_seed):
    runtime = LegionRuntime(build_lan(6, seed=sim_seed))
    journal = ManagerJournal(name="Svc")
    manager, __ = make_noop_manager(
        runtime,
        "Svc",
        2,
        3,
        journal=journal,
        host_name=MANAGER_HOST,
        propagation_retry_policy=FAST_RETRY,
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY),
        remove_policy=RemovePolicy.timeout(2.0),
    )
    loids = [
        runtime.sim.run_process(
            manager.create_instance(
                host_name=f"host{(index % 3) + 1:02d}"
            )
        )
        for index in range(INSTANCES)
    ]
    return runtime, manager, journal, loids


@pytest.mark.parametrize("seed", range(CHAOS_SEEDS))
def test_chaos_controller_selfheals(seed):
    """Seeded bad deploy + flaky hosts + crashes + failover: the
    controller must detect, decide, and remediate on its own, with the
    full invariant set intact on whichever manager survives."""
    runtime, manager, journal, loids = build_fleet(sim_seed=3100 + seed)
    sim = runtime.sim
    v1 = manager.current_version
    runtime.network.enable_health()
    if seed % 2 == 0:
        manager.invoker.enable_adaptive_timeouts()
        manager.invoker.enable_hedging()

    supervisor = Supervisor(
        runtime,
        "Svc",
        standby_hosts=STANDBY_HOSTS,
        detector_host_name=DETECTOR_HOST,
        retry_policy=FAST_RETRY,
    ).start()
    controller = ReactiveController(
        runtime,
        "Svc",
        supervisor=supervisor,
        policies=[
            MigrateOffFlakyHost(),
            DemoteDegradedVersion(),
            PrewarmBlobCaches(),
        ],
        interval_s=1.0,
        retry_policy=FAST_RETRY,
    ).start()

    coordinator = ChaosCoordinator(runtime, journals={})
    schedule = ChaosSchedule.generate(
        seed,
        list(runtime.hosts),
        duration_s=90.0,
        max_crashes=1 if seed % 4 == 2 else 0,
        max_partitions=1 if seed % 5 == 3 else 0,
        protect=(DETECTOR_HOST, CLIENT_HOST),
        manager_hosts=(MANAGER_HOST,) + STANDBY_HOSTS,
        max_manager_partitions=1 if seed % 3 == 0 else 0,
        max_failovers=seed % 2,
        instance_hosts=INSTANCE_HOSTS,
        max_bad_deploys=1,
        max_flaky_limps=1 if seed % 2 == 1 else 0,
    )
    assert schedule.bad_deploys, "every seed must stage a bad deploy"
    deploy_at, added_latency_s, error_every = schedule.bad_deploys[0]
    v2 = build_degraded_version(
        manager, added_latency_s=added_latency_s, error_every=error_every
    )
    schedule.install(runtime, coordinator)

    slo = SLO(
        name="svc",
        latency_targets={0.99: 0.050},
        max_error_rate=0.02,
        min_samples=20,
    )
    monitor = runtime.network.slo_monitor("svc", slo=slo, window_s=6.0)
    load = OpenLoopLoad(
        runtime.make_client(host_name=CLIENT_HOST),
        loids,
        PoissonArrivals(30.0),
        runtime.rng.stream("traffic"),
        monitor=monitor,
        duration_s=800.0,
    )
    load.start()

    deploy_abs = schedule.installed_at + deploy_at

    def rollback_done():
        return any(
            entry["policy"] == "demote-degraded-version"
            and entry["outcome"] == "done"
            for entry in controller.remediation_log
        )

    def scenario():
        # The unguarded adoption: an operator pushes the bad build with
        # no canary watching.  Only the controller can save the fleet.
        if sim.now < deploy_abs:
            yield sim.timeout(deploy_abs - sim.now)
        current = supervisor.manager
        if current.is_active and not current.deposed:
            current.set_current_version_async(v2)
        heal = schedule.heal_time + 1.0
        if sim.now < heal:
            yield sim.timeout(heal - sim.now)
        assert_never_half_applied(
            supervisor.manager, loids, f"seed {seed} at heal"
        )
        deadline = sim.now + 420.0
        while sim.now < deadline:
            current = supervisor.manager
            if current.is_active and not current.deposed:
                if (
                    current.current_version == v1
                    and not rollback_done()
                    and not current.open_remediations()
                ):
                    # The crash beat the sync journal ship: the promoted
                    # authority recovered with no record of the bad
                    # designation, so the operator's never-acknowledged
                    # push retries against it — the controller must
                    # still catch and demote it.  (Open intents pause
                    # the retry: mid-demote the designation is already
                    # back at the parent by design.)
                    current.set_current_version_async(v2)
                elif (
                    rollback_done()
                    and current.current_version == v1
                    and all(
                        current.record(loid).active
                        and current.record(loid).obj.version == v1
                        for loid in loids
                    )
                ):
                    break
            yield sim.timeout(5.0)
        load.stop()
        controller.stop()
        supervisor.stop()

    sim.run_process(scenario())
    sim.run()

    current = supervisor.manager
    assert current.is_active and not current.deposed, (
        f"seed {seed}: no live authority after chaos ({schedule!r})"
    )

    # The controller-originated rollback converged: official version
    # and every instance back on v1, exactly-once per version.
    assert current.current_version == v1, (
        f"seed {seed}: fleet still designated {current.current_version} "
        f"(controller log: {controller.remediation_log})"
    )
    assert_never_half_applied(current, loids, f"seed {seed} converged")
    for loid in loids:
        record = current.record(loid)
        assert record.active, f"seed {seed}: {loid} never recovered"
        obj = record.obj
        assert obj.version == v1, (
            f"seed {seed}: {loid} stuck at {obj.version} "
            f"(controller log: {controller.remediation_log})"
        )
        assert obj.applications_by_version.get(v2, 0) <= 1, (
            f"seed {seed}: {loid} applied {v2} "
            f"{obj.applications_by_version.get(v2)} times"
        )
        assert (obj.observed_manager_term or 0) <= current.term, (
            f"seed {seed}: {loid} observed a term from the future"
        )

    # No supervisor fight: the guard's discipline held everywhere.
    guard = convergence_guard(runtime)
    assert guard.violations == 0, (
        f"seed {seed}: {guard.violations} convergence-guard violations"
    )

    # Journal hygiene: nothing the controller started dangles open on
    # the surviving authority (done, failed, or orphaned — all closed).
    open_now = current.open_remediations()
    assert open_now == [], (
        f"seed {seed}: dangling remediation intents {open_now}"
    )

    rollbacks = [
        entry
        for entry in controller.remediation_log
        if entry["policy"] == "demote-degraded-version"
        and entry["outcome"] == "done"
    ]
    assert rollbacks, (
        f"seed {seed}: controller never completed a rollback "
        f"(log: {controller.remediation_log})"
    )
    ROLLBACKS[seed] = runtime.network.count_value("controller.rollbacks")
    MIGRATIONS[seed] = runtime.network.count_value("controller.migrations")


def test_controller_paths_exercised_across_sweep():
    """Aggregate sanity: the sweep must have driven real remediations —
    a rollback on every seed, and at least one quarantine-driven
    migration somewhere (else the flaky-limp kind proved nothing)."""
    assert ROLLBACKS, "sweep did not run before the aggregate check"
    assert all(count >= 1 for count in ROLLBACKS.values()), (
        f"some seed converged without a controller rollback: {ROLLBACKS}"
    )
