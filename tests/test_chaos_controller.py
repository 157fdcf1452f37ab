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
  is closed (done, failed, or orphaned by GC) — nothing dangles;
- across the sweep, every seed's controller completed a rollback.

Unit coverage for the controller pieces lives in
``tests/test_controller.py``.
"""

import pytest

from repro.cluster import ReactiveController, convergence_guard
from repro.core.policies import (
    DemoteDegradedVersion,
    MigrateOffFlakyHost,
    PrewarmBlobCaches,
)
from repro.workloads import build_degraded_version

from tests.chaos_harness import (
    CLIENT_HOST,
    DETECTOR_HOST,
    FAST_RETRY,
    MANAGER_HOST,
    RELIABLE,
    STANDBY_HOSTS,
    SweepRecord,
    assert_converged,
    converged,
    roll,
    run_chaos,
    serve_traffic,
    service_fleet,
    settle,
    supervise,
    sweep,
)

pytestmark = pytest.mark.chaos

ROLLBACKS = SweepRecord("some seed converged without a controller rollback", every=True)


@sweep()
def test_chaos_controller_selfheals(seed):
    """Seeded bad deploy + flaky hosts + crashes + failover: the
    controller must detect, decide, and remediate on its own, with the
    full invariant set intact on whichever manager survives."""
    instance_hosts = ("host01", "host02", "host03")
    fleet = service_fleet(3100 + seed, 6, instance_hosts, update_policy=RELIABLE)
    runtime, manager, loids = fleet.runtime, fleet.manager, fleet.loids
    v1 = manager.current_version
    runtime.network.enable_health()
    if seed % 2 == 0:
        manager.invoker.enable_adaptive_timeouts()
        manager.invoker.enable_hedging()
    supervisor = supervise(fleet)
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
    schedule = roll(
        fleet,
        seed,
        supervised=True,
        duration_s=90.0,
        max_crashes=1 if seed % 4 == 2 else 0,
        max_partitions=1 if seed % 5 == 3 else 0,
        protect=(DETECTOR_HOST, CLIENT_HOST),
        manager_hosts=(MANAGER_HOST,) + STANDBY_HOSTS,
        max_manager_partitions=1 if seed % 3 == 0 else 0,
        max_failovers=seed % 2,
        instance_hosts=instance_hosts,
        max_bad_deploys=1,
        max_flaky_limps=1 if seed % 2 == 1 else 0,
    )
    assert schedule.bad_deploys, "every seed must stage a bad deploy"
    deploy = schedule.bad_deploys[0]
    v2 = build_degraded_version(
        manager, added_latency_s=deploy.added_latency_s, error_every=deploy.error_every
    )
    __, load = serve_traffic(fleet, min_samples=20, duration_s=800.0)

    def rolled_back():
        return any(
            entry["policy"] == "demote-degraded-version" and entry["outcome"] == "done"
            for entry in controller.remediation_log
        )

    def push():
        # The unguarded adoption: an operator pushes the bad build with
        # no canary watching.  Only the controller can save the fleet.
        current = supervisor.manager
        if current.is_active and not current.deposed:
            current.set_current_version_async(v2)

    def healed():
        current = supervisor.manager
        if (
            current.is_active
            and not current.deposed
            and current.current_version == v1
            and not rolled_back()
            and not current.open_remediations()
        ):
            # The crash beat the sync journal ship: the promoted
            # authority recovered with no record of the bad designation,
            # so the operator's never-acknowledged push retries against
            # it — the controller must still catch and demote it.
            # (Open intents pause the retry: mid-demote the designation
            # is already back at the parent by design.)
            current.set_current_version_async(v2)
            return False
        return rolled_back() and converged(current, loids, v1)

    def converge():
        yield from settle(runtime.sim, healed)
        load.stop()
        controller.stop()
        supervisor.stop()

    run_chaos(
        fleet,
        schedule,
        push,
        (v1, v2),
        f"seed {seed}",
        at=deploy.at,
        authority=lambda: supervisor.manager,
        converge=converge,
    )
    current = supervisor.manager
    # The controller-originated rollback converged: official version
    # and every instance back on v1, exactly-once per version.
    context = f"seed {seed} (controller log: {controller.remediation_log})"
    assert_converged(current, loids, v1, context, once=v2)
    # No supervisor fight: the guard's discipline held everywhere.
    guard = convergence_guard(runtime)
    assert guard.violations == 0, (
        f"seed {seed}: {guard.violations} convergence-guard violations"
    )
    # Journal hygiene: nothing the controller started dangles open on
    # the surviving authority (done, failed, or orphaned — all closed).
    assert current.open_remediations() == [], (
        f"seed {seed}: dangling remediation intents {current.open_remediations()}"
    )
    assert rolled_back(), f"{context}: controller never completed a rollback"
    ROLLBACKS[seed] = runtime.network.count_value("controller.rollbacks")


def test_controller_paths_exercised_across_sweep():
    """Aggregate sanity: the sweep must have driven a real rollback on
    every seed."""
    ROLLBACKS.check()
