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
  whole fleet back on the prior version, exactly-once per instance;
- never-half-applied holds for every settled instance;
- blast radius stays within the stages the gate admitted (canary +
  first ramp) — the unvetted version never reaches the full fleet.

``CHAOS_EXTRA_SEEDS`` (env) widens the sweep in CI.
"""

import os

import pytest

from repro.cluster import Supervisor, build_lan
from repro.cluster.chaos import ChaosCoordinator, ChaosSchedule
from repro.core import ManagerJournal, RemovePolicy
from repro.core.policies import (
    CanaryWavePolicy,
    IncreasingVersionPolicy,
    run_canary_wave,
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
#: The traffic client's host: protected, so the SLO gate always has a
#: vantage point (a blinded gate is a different experiment).
CLIENT_HOST = "host05"

INSTANCES = 8
RAMP = CanaryWavePolicy(
    stages=(0.125, 0.5, 1.0), bake_s=8.0, check_interval_s=1.0
)
#: Largest subset the gate may touch before a breach can possibly land:
#: the canary (1 of 8) plus the first ramp (4 of 8).
MAX_BLAST = 5

CHAOS_SEEDS = 20 + int(os.environ.get("CHAOS_EXTRA_SEEDS", "0"))

#: Supervisor promotions per seed, checked in aggregate after the sweep.
PROMOTIONS = {}


def build_fleet(sim_seed):
    runtime = LegionRuntime(build_lan(6, seed=sim_seed))
    journal = ManagerJournal(name="Svc")
    manager, __ = make_noop_manager(
        runtime,
        "Svc",
        2,
        3,
        evolution_policy=IncreasingVersionPolicy(),
        remove_policy=RemovePolicy.timeout(2.0),
        journal=journal,
        host_name=MANAGER_HOST,
        propagation_retry_policy=FAST_RETRY,
    )
    loids = [
        runtime.sim.run_process(
            manager.create_instance(host_name=f"host{(index % 4) + 1:02d}")
        )
        for index in range(INSTANCES)
    ]
    return runtime, manager, journal, loids


@pytest.mark.parametrize("seed", range(CHAOS_SEEDS))
def test_chaos_slo_gated_canary(seed):
    """Seeded degraded rollout + seeded chaos: the gate must catch the
    regression, bound the blast radius, and finish the rollback no
    matter which manager ends up holding the journal."""
    runtime, manager, journal, loids = build_fleet(sim_seed=2300 + seed)
    v1 = manager.current_version
    sim = runtime.sim

    supervisor = Supervisor(
        runtime,
        "Svc",
        standby_hosts=STANDBY_HOSTS,
        detector_host_name=DETECTOR_HOST,
        retry_policy=FAST_RETRY,
    ).start()
    coordinator = ChaosCoordinator(runtime, journals={})
    schedule = ChaosSchedule.generate(
        seed,
        list(runtime.hosts),
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
    schedule.install(runtime, coordinator)

    slo = SLO(
        name="svc",
        latency_targets={0.99: 0.050},
        max_error_rate=0.02,
        min_samples=30,
    )
    monitor = runtime.network.slo_monitor("svc", slo=slo, window_s=6.0)
    load = OpenLoopLoad(
        runtime.make_client(host_name=CLIENT_HOST),
        loids,
        PoissonArrivals(30.0),
        runtime.rng.stream("traffic"),
        monitor=monitor,
        duration_s=600.0,
    )
    load.start()

    result = {}

    def runner():
        yield sim.timeout(3.0)
        result["outcome"] = yield from run_canary_wave(
            runtime,
            "Svc",
            v2,
            RAMP,
            monitor=monitor,
            retry_policy=FAST_RETRY,
            deadline_s=400.0,
        )
        # The rollout is decided; let chaos heal and recovery settle.
        heal = schedule.heal_time + 1.0
        if sim.now < heal:
            yield sim.timeout(heal - sim.now)
        current = supervisor.manager
        assert_never_half_applied(current, loids, f"seed {seed} at heal")
        deadline = sim.now + 200.0
        while sim.now < deadline:
            current = supervisor.manager
            if (
                current.is_active
                and not current.deposed
                and all(
                    current.record(loid).active
                    and current.instance_version(loid) == v1
                    for loid in loids
                )
            ):
                break
            yield sim.timeout(5.0)
        load.stop()
        supervisor.stop()

    sim.run_process(runner())
    sim.run()

    outcome = result["outcome"]
    current = supervisor.manager
    assert current.is_active and not current.deposed, (
        f"seed {seed}: no live authority after chaos ({schedule!r})"
    )

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
    assert current.current_version == v1

    # Blast radius: the unvetted version never spread past the stages
    # the gate explicitly admitted.
    assert len(state.admitted) <= MAX_BLAST, (
        f"seed {seed}: blast radius {len(state.admitted)}/{INSTANCES}"
    )

    assert_never_half_applied(current, loids, f"seed {seed} converged")
    for loid in loids:
        record = current.record(loid)
        assert record.active, f"seed {seed}: {loid} never recovered"
        assert current.instance_version(loid) == v1, (
            f"seed {seed}: {loid} left at "
            f"{current.instance_version(loid)} after rollback"
        )
        obj = record.obj
        assert obj.version == v1, f"seed {seed}: {loid} serving {obj.version}"
        assert obj.applications_by_version.get(v2, 0) <= 1, (
            f"seed {seed}: {loid} applied v2 "
            f"{obj.applications_by_version.get(v2)} times"
        )
    assert len(monitor.breach_log) >= 1, f"seed {seed}: gate never fired"
    PROMOTIONS[seed] = supervisor.promotions


def test_failover_observed_somewhere_in_sweep():
    """The sweep must actually exercise the failover-during-rollout
    path: at least one seed's supervisor promoted a standby."""
    assert PROMOTIONS, "sweep did not run before the aggregate check"
    assert any(count > 0 for count in PROMOTIONS.values()), (
        f"no seed promoted a standby mid-rollout: {PROMOTIONS}"
    )
