"""SLO-gated canary waves: ramp, breach-abort, and durable gate state.

The gate runner (:func:`~repro.core.policies.canary.run_canary_wave`)
must ramp a healthy version stage by stage, abort a degraded one at
the canary with the existing transactional rollback, and — because
every gate decision is journaled — survive a manager crash or failover
mid-rollout without ever expanding the admitted set or re-delivering
an acked evolution.
"""

import pytest

from repro.cluster import Supervisor, build_lan
from repro.cluster.chaos import crash_host, drive_to_convergence
from repro.core import ManagerJournal, RemovePolicy, WaveAborted, recover_manager
from repro.core.policies import (
    CanaryWavePolicy,
    IncreasingVersionPolicy,
    run_canary_wave,
)
from repro.legion import LegionRuntime
from repro.net import RetryPolicy
from repro.obs import SLO, SLOMonitor
from repro.workloads import (
    OpenLoopLoad,
    PoissonArrivals,
    build_degraded_version,
    make_noop_manager,
)

pytestmark = pytest.mark.chaos

FAST_RETRY = RetryPolicy(
    base_s=1.0, multiplier=2.0, max_backoff_s=30.0, max_attempts=8
)

RAMP = CanaryWavePolicy(stages=(0.125, 0.5, 1.0), bake_s=8.0, check_interval_s=1.0)


def build_fleet(seed=3, instances=8, added_latency_s=0.0, error_every=0):
    """Journaled noop fleet + staged v2 (healthy or degraded).

    Canary rollouts are §3.5 multi-version deployments — part of the
    fleet runs v-next while current stays put — so the fleet uses the
    increasing-version policy (single-version would veto the canary).
    Live traffic keeps threads active in the very component a rollback
    removes, so the fleet also needs the §3 thread-activity timeout
    remove policy (drain briefly, then swap) — the error policy would
    make a breach-abort lose every race with its own callers.
    """
    runtime = LegionRuntime(build_lan(6, seed=seed))
    journal = ManagerJournal(name="Svc")
    manager, __ = make_noop_manager(
        runtime,
        "Svc",
        2,
        3,
        evolution_policy=IncreasingVersionPolicy(),
        remove_policy=RemovePolicy.timeout(2.0),
        journal=journal,
        host_name="host00",
        propagation_retry_policy=FAST_RETRY,
    )
    loids = [
        runtime.sim.run_process(
            manager.create_instance(host_name=f"host{(index % 4) + 1:02d}")
        )
        for index in range(instances)
    ]
    v2 = build_degraded_version(
        manager, added_latency_s=added_latency_s, error_every=error_every
    )
    return runtime, manager, journal, loids, v2


def start_traffic(runtime, loids, rate_hz=40.0, window_s=8.0):
    slo = SLO(
        name="svc",
        latency_targets={0.99: 0.200},
        max_error_rate=0.05,
        min_samples=20,
    )
    monitor = runtime.network.slo_monitor("svc", slo=slo, window_s=window_s)
    load = OpenLoopLoad(
        runtime.make_client(host_name="host05"),
        loids,
        PoissonArrivals(rate_hz),
        runtime.rng.stream("traffic"),
        monitor=monitor,
        duration_s=600.0,
    )
    load.start()
    return monitor, load


def drive_canary(runtime, v2, monitor, load, policy=RAMP, start_at=5.0):
    result = {}

    def driver():
        yield runtime.sim.timeout(start_at)
        result["outcome"] = yield from run_canary_wave(
            runtime,
            "Svc",
            v2,
            policy,
            monitor=monitor,
            retry_policy=FAST_RETRY,
            deadline_s=400.0,
        )
        load.stop()

    runtime.sim.run_process(driver())
    return result["outcome"]


# ----------------------------------------------------------------------
# Happy path and breach path
# ----------------------------------------------------------------------


def test_canary_wave_ramps_healthy_version_to_completion():
    runtime, manager, __, loids, v2 = build_fleet()
    monitor, load = start_traffic(runtime, loids)
    outcome = drive_canary(runtime, v2, monitor, load)
    assert outcome.completed and not outcome.breached and not outcome.stalled
    assert outcome.stage_reached == 3
    assert outcome.admitted == len(loids)
    assert manager.current_version == v2
    for loid in loids:
        assert manager.instance_version(loid) == v2
        obj = manager.record(loid).obj
        assert obj.applications_by_version.get(v2, 0) <= 1
    state = manager.canary_state(v2)
    assert state.complete and not state.breached


def test_canary_wave_catches_latency_regression_at_canary():
    """A build that adds 400 ms to every call must die at stage one:
    blast radius is the canary subset, and every touched instance is
    rolled back to the prior version."""
    runtime, manager, __, loids, v2 = build_fleet(added_latency_s=0.4)
    v1 = manager.current_version
    monitor, load = start_traffic(runtime, loids)
    outcome = drive_canary(runtime, v2, monitor, load)
    assert outcome.breached and not outcome.completed
    assert "p99" in outcome.breach_reason
    assert outcome.admitted == 1  # ceil(0.125 * 8)
    assert outcome.blast_radius == pytest.approx(1 / 8)
    assert manager.current_version == v1
    for loid in loids:
        assert manager.instance_version(loid) == v1
    tracker = manager.propagation(v2)
    assert tracker.aborted
    assert len(monitor.breach_log) >= 1


def test_canary_wave_catches_error_regression():
    runtime, manager, __, loids, v2 = build_fleet(error_every=2)
    v1 = manager.current_version
    monitor, load = start_traffic(runtime, loids)
    outcome = drive_canary(runtime, v2, monitor, load)
    assert outcome.breached
    assert "error rate" in outcome.breach_reason
    assert all(manager.instance_version(loid) == v1 for loid in loids)


def test_canary_blast_radius_bounded_at_later_stage():
    """Health can pass at the canary and fail at a ramp stage; the
    damage is still capped at that stage's admitted subset."""
    runtime, manager, __, loids, v2 = build_fleet(added_latency_s=0.4)
    v1 = manager.current_version
    # A narrow window and a long first bake: the canary instance alone
    # (1/8 of round-robin traffic) rarely lands 400 ms calls in p99 at
    # this window, so the gate passes stage one and must catch the
    # regression once half the fleet serves it.
    slo = SLO(
        name="svc",
        latency_targets={0.50: 0.200},
        max_error_rate=0.5,
        min_samples=30,
    )
    monitor = runtime.network.slo_monitor("svc", slo=slo, window_s=3.0)
    load = OpenLoopLoad(
        runtime.make_client(host_name="host05"),
        loids,
        PoissonArrivals(40.0),
        runtime.rng.stream("traffic"),
        monitor=monitor,
        duration_s=600.0,
    )
    load.start()
    outcome = drive_canary(runtime, v2, monitor, load)
    assert outcome.breached
    assert outcome.admitted <= 4  # canary (1) then half the fleet (4)
    assert all(manager.instance_version(loid) == v1 for loid in loids)


# ----------------------------------------------------------------------
# Durability: crash, recovery, failover
# ----------------------------------------------------------------------


def test_canary_state_survives_recovery():
    """Gate decisions replay from the journal: admitted set, passed
    gates, and a recorded breach all survive recover_manager."""
    runtime, manager, journal, loids, v2 = build_fleet()
    sim = runtime.sim
    sim.run_process(_open_and_admit(manager, loids, v2))
    manager.record_canary_gate(v2)
    manager.mark_canary_breached(v2, "p99 9.9s > 0.2s")
    crash_host(runtime, manager.host)
    recovered = sim.run_process(
        recover_manager(runtime, journal, host_name="host02", resume=False)
    )
    state = recovered.canary_state(v2)
    assert state is not None
    assert list(state.admitted) == loids[:2]
    assert state.stage_index == 1
    assert state.breached and state.breach_reason == "p99 9.9s > 0.2s"
    assert not state.closed or state.aborted


def _open_and_admit(manager, loids, v2, count=2):
    manager.begin_canary(v2, (0.25, 1.0), 5.0)
    manager.admit_canary_stage(v2, loids[:count])
    yield from manager.propagate_version(
        v2, loids=loids[:count], retry_policy=FAST_RETRY
    )


def test_canary_state_survives_checkpoint():
    runtime, manager, journal, loids, v2 = build_fleet()
    sim = runtime.sim
    sim.run_process(_open_and_admit(manager, loids, v2))
    manager.record_canary_gate(v2)
    manager.write_checkpoint()
    crash_host(runtime, manager.host)
    recovered = sim.run_process(
        recover_manager(runtime, journal, host_name="host02", resume=False)
    )
    state = recovered.canary_state(v2)
    assert list(state.admitted) == loids[:2]
    assert state.stage_index == 1
    assert not state.breached


def test_resume_propagations_never_expands_open_canary():
    """A recovered manager resumes an interrupted canary wave with the
    journaled admitted set only — a crash must not turn a 25% canary
    into a full-fleet rollout of an unvetted version."""
    runtime, manager, journal, loids, v2 = build_fleet()
    sim = runtime.sim
    sim.run_process(_open_and_admit(manager, loids, v2))
    crash_host(runtime, manager.host)
    recovered = sim.run_process(
        recover_manager(runtime, journal, host_name="host02", resume=True)
    )
    sim.run()
    evolved = [
        loid for loid in loids if recovered.instance_version(loid) == v2
    ]
    assert sorted(evolved) == sorted(loids[:2])


def test_resume_propagations_completes_breached_abort():
    """A journaled breach whose rollback the crash interrupted is
    finished by recovery — the wave never resumes delivering."""
    runtime, manager, journal, loids, v2 = build_fleet()
    v1 = manager.current_version
    sim = runtime.sim
    sim.run_process(_open_and_admit(manager, loids, v2))
    manager.mark_canary_breached(v2, "slo-breach")
    crash_host(runtime, manager.host)
    recovered = sim.run_process(
        recover_manager(runtime, journal, host_name="host02", resume=True)
    )
    sim.run()
    state = recovered.canary_state(v2)
    assert state.aborted
    assert recovered.propagation(v2).aborted
    for loid in loids:
        assert recovered.instance_version(loid) == v1


def test_canary_runner_survives_manager_failover():
    """Crash the primary mid-rollout with a supervisor standing by: the
    runner re-resolves the promoted standby and completes the ramp."""
    runtime, manager, journal, loids, v2 = build_fleet(seed=9)
    sim = runtime.sim
    supervisor = Supervisor(
        runtime,
        "Svc",
        standby_hosts=("host02", "host03"),
        detector_host_name="host04",
        retry_policy=FAST_RETRY,
    ).start()
    monitor, load = start_traffic(runtime, loids)
    outcome = {}

    def runner():
        yield sim.timeout(5.0)
        outcome["result"] = yield from run_canary_wave(
            runtime,
            "Svc",
            v2,
            RAMP,
            monitor=monitor,
            retry_policy=FAST_RETRY,
            deadline_s=400.0,
        )
        load.stop()
        supervisor.stop()

    def chaos():
        # Let the canary stage land, then kill the primary mid-bake.
        yield sim.timeout(8.0)
        crash_host(runtime, runtime.host("host00"))

    sim.run_process(_run_both(sim, runner, chaos))
    result = outcome["result"]
    assert result.completed and not result.breached, result
    current = supervisor.manager
    assert supervisor.promotions >= 1
    assert current.current_version == v2
    for loid in loids:
        assert current.instance_version(loid) == v2
        obj = current.record(loid).obj
        assert obj.applications_by_version.get(v2, 0) <= 1


def _run_both(sim, runner, chaos):
    a = sim.spawn(runner(), name="canary-runner")
    b = sim.spawn(chaos(), name="chaos")
    from repro.sim.events import AllOf

    yield AllOf(sim, [a, b])


# ----------------------------------------------------------------------
# Convergence respects frozen canary instances
# ----------------------------------------------------------------------


def test_drive_to_convergence_skips_canary_frozen_instances():
    runtime, manager, journal, loids, v2 = build_fleet()
    v1 = manager.current_version
    sim = runtime.sim
    sim.run_process(_open_and_admit(manager, loids, v2))
    tracker = sim.run_process(
        drive_to_convergence(runtime, "Svc", journal=journal, retry_policy=FAST_RETRY)
    )
    assert tracker.all_acked
    # Canary instances stay on v2; the rest converge (stay) on v1.
    for loid in loids[:2]:
        assert manager.instance_version(loid) == v2
    for loid in loids[2:]:
        assert manager.instance_version(loid) == v1
    state = manager.canary_state(v2)
    assert not state.closed


# ----------------------------------------------------------------------
# Gate bookkeeping
# ----------------------------------------------------------------------


def test_begin_canary_is_idempotent():
    runtime, manager, __, loids, v2 = build_fleet()
    state = manager.begin_canary(v2, (0.5, 1.0), 5.0)
    manager.admit_canary_stage(v2, loids[:4])
    again = manager.begin_canary(v2, (0.5, 1.0), 5.0)
    assert again is state
    assert len(again.admitted) == 4
    assert runtime.network.count_value("canary.waves") == 1


def test_complete_canary_refuses_breached_rollout():
    runtime, manager, __, loids, v2 = build_fleet()
    manager.begin_canary(v2, (1.0,), 5.0)
    manager.mark_canary_breached(v2, "slo-breach")
    with pytest.raises(WaveAborted):
        manager.complete_canary(v2)


def test_canary_policy_validation():
    with pytest.raises(ValueError):
        CanaryWavePolicy(stages=())
    with pytest.raises(ValueError):
        CanaryWavePolicy(stages=(0.5, 0.1, 1.0))
    with pytest.raises(ValueError):
        CanaryWavePolicy(stages=(0.1, 0.5))
    with pytest.raises(ValueError):
        CanaryWavePolicy(stages=(0.0, 1.0))
    with pytest.raises(ValueError):
        CanaryWavePolicy(check_interval_s=0.0)
