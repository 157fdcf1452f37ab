"""Chaos sweep: SLO-gated canary waves under crashes and failover.

Every seed stages a *degraded* build — a version that installs
perfectly and then ruins the service (seeded added latency or error
injection, drawn from the schedule's ``degradations``) — and rolls it
out through an SLO-gated canary while the same schedule crashes hosts,
partitions the network, and (on some seeds) kills the manager so a
supervisor must promote a standby mid-rollout.

Acceptance invariants, every seed:

- the gate breaches and the breach-triggered abort *completes* — on
  the original manager or on whichever standby was promoted — with the
  whole fleet converged back on the prior version, exactly-once per
  instance;
- never-half-applied holds at heal and at the end;
- blast radius stays within the stages the gate admitted (canary +
  first ramp) — the unvetted version never reaches the full fleet.
"""

import pytest

from repro.core.policies import (
    CanaryWavePolicy,
    IncreasingVersionPolicy,
    run_canary_wave,
)
from repro.workloads import build_degraded_version

from tests.chaos_harness import (
    CLIENT_HOST,
    DETECTOR_HOST,
    FAST_RETRY,
    MANAGER_HOST,
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

INSTANCES = 8
RAMP = CanaryWavePolicy(
    stages=(0.125, 0.5, 1.0), bake_s=8.0, check_interval_s=1.0
)
#: Largest subset the gate may touch before a breach can possibly land:
#: the canary (1 of 8) plus the first ramp (4 of 8).
MAX_BLAST = 5

PROMOTIONS = SweepRecord("no seed promoted a standby mid-rollout")


@sweep()
def test_chaos_slo_gated_canary(seed):
    """Seeded degraded rollout + seeded chaos: the gate must catch the
    regression, bound the blast radius, and finish the rollback no
    matter which manager ends up holding the journal."""
    fleet = service_fleet(
        2300 + seed,
        INSTANCES,
        ("host01", "host02", "host03", "host04"),
        evolution_policy=IncreasingVersionPolicy(),
    )
    runtime, manager, loids = fleet.runtime, fleet.manager, fleet.loids
    v1 = manager.current_version
    supervisor = supervise(fleet)
    schedule = roll(
        fleet,
        seed,
        supervised=True,
        duration_s=90.0,
        max_crashes=1 if seed % 4 == 2 else 0,
        max_partitions=1 if seed % 5 == 3 else 0,
        max_drops=1 if seed % 4 == 0 else 0,
        protect=(DETECTOR_HOST, CLIENT_HOST),
        manager_hosts=(MANAGER_HOST,) + STANDBY_HOSTS,
        max_manager_partitions=1 if seed % 3 == 0 else 0,
        max_failovers=seed % 2,
        max_degradations=1,
    )
    assert schedule.degradations, "every seed must roll a degraded build"
    kind, amount = schedule.degradations[0]
    v2 = build_degraded_version(
        manager,
        added_latency_s=amount if kind == "latency" else 0.0,
        error_every=amount if kind == "errors" else 0,
    )
    monitor, load = serve_traffic(fleet, min_samples=30, duration_s=600.0)
    result = {}

    def rollout():
        result["outcome"] = yield from run_canary_wave(
            runtime,
            "Svc",
            v2,
            RAMP,
            monitor=monitor,
            retry_policy=FAST_RETRY,
            deadline_s=400.0,
        )

    def converge():
        # The rollout is decided; recovery settles the fleet back on v1.
        yield from settle(
            runtime.sim, lambda: converged(supervisor.manager, loids, v1), 200.0
        )
        load.stop()
        supervisor.stop()

    run_chaos(
        fleet,
        schedule,
        rollout,
        (v1, v2),
        f"seed {seed}",
        at=3.0,
        authority=lambda: supervisor.manager,
        converge=converge,
    )
    outcome = result["outcome"]
    current = supervisor.manager
    # The gate caught the regression and the abort completed — possibly
    # on a promoted standby — leaving the fleet on the prior version.
    assert outcome.breached and not outcome.completed, (
        f"seed {seed}: degraded build survived the gate ({outcome})"
    )
    assert not outcome.stalled, f"seed {seed}: runner stalled ({outcome})"
    state = current.canary_state(v2)
    assert state is not None and state.breached
    tracker = current.propagation(v2)
    assert tracker is not None and tracker.aborted, (
        f"seed {seed}: breach-abort never completed ({tracker.summary()})"
    )
    # Blast radius: the unvetted version never spread past the stages
    # the gate explicitly admitted.
    assert len(state.admitted) <= MAX_BLAST, (
        f"seed {seed}: blast radius {len(state.admitted)}/{INSTANCES}"
    )
    assert_converged(current, loids, v1, f"seed {seed}", once=v2)
    assert len(monitor.breach_log) >= 1, f"seed {seed}: gate never fired"
    PROMOTIONS[seed] = supervisor.promotions


def test_failover_observed_somewhere_in_sweep():
    """The sweep must actually exercise the failover-during-rollout
    path: at least one seed's supervisor promoted a standby."""
    PROMOTIONS.check()
