"""Chaos tests for relay-batched waves: crashes mid-batch, no half-applies.

Seeded schedules crash relay hosts while a host-batched propagation
wave is in flight.  A dying relay takes its colocated instances with
it; the acceptance invariants are PR 3's, unchanged by the relay
layer: no live settled instance is ever half-applied, batch re-sends
never double-apply (idempotence keyed by target version), abortive
waves roll committed instances all the way back, and the fleet still
converges once faults heal — with relays restored and back in use.
"""

import pytest

from repro.cluster import build_lan, deploy_relays
from repro.cluster.chaos import (
    ChaosCoordinator,
    ChaosSchedule,
    drive_to_convergence,
)
from repro.core import ManagerJournal, WaveAborted, WavePolicy
from repro.legion import LegionRuntime
from repro.net import RetryPolicy

from tests.conftest import create_dcdo, make_sorter_manager
from tests.invariants import assert_never_half_applied

FAST_RETRY = RetryPolicy(
    base_s=1.0, multiplier=2.0, max_backoff_s=30.0, max_attempts=8
)
ONE_SHOT = RetryPolicy(base_s=1.0, max_attempts=1)

ICO_HOST = "host05"
INSTANCE_HOSTS = ("host01", "host02", "host03", "host04")


def build_relay_fleet(sim_seed, instances_per_host=2, **manager_kwargs):
    """Journaled sorter fleet with relays on every host.

    Manager and v1 components on host00, the evolution-critical
    ``compare-desc`` ICO on host05, instances spread over
    host01..host04 — so relay-host crashes hit batches, not the
    manager or the component server.
    """
    runtime = LegionRuntime(build_lan(6, seed=sim_seed))
    journal = ManagerJournal(name="Sorter")
    manager = make_sorter_manager(
        runtime,
        component_hosts={
            "sorter": "host00",
            "compare-asc": "host00",
            "compare-desc": ICO_HOST,
        },
        journal=journal,
        propagation_retry_policy=FAST_RETRY,
        **manager_kwargs,
    )
    loids = []
    for host_name in INSTANCE_HOSTS:
        for __ in range(instances_per_host):
            loid, __obj = create_dcdo(runtime, manager, host_name=host_name)
            loids.append(loid)
    directory = deploy_relays(runtime)
    manager.use_relays(directory)
    return runtime, manager, journal, loids, directory


def derive_v2(manager):
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "compare-desc")
    manager.descriptor_of(version).enable(
        "compare", "compare-desc", replace_current=True
    )
    manager.mark_instantiable(version)
    return version


@pytest.mark.parametrize("seed", range(8))
def test_chaos_relay_crash_mid_batch_never_half_applied(seed):
    """Crash relay hosts while batches are mid-flight: instances die
    with their relay, nothing is half-applied, batch re-sends never
    double-apply, and the fleet converges through restored relays."""
    runtime, manager, journal, loids, directory = build_relay_fleet(
        sim_seed=1100 + seed
    )
    v1 = manager.current_version
    coordinator = ChaosCoordinator(
        runtime, journals={"Sorter": journal}, relays=directory
    )
    schedule = ChaosSchedule.generate(
        seed,
        list(runtime.hosts),
        duration_s=120.0,
        max_crashes=0,
        max_partitions=0,
        max_drops=1,
        protect=("host00", ICO_HOST),
        relay_hosts=INSTANCE_HOSTS,
        max_relay_crashes=2,
    )
    schedule.install(runtime, coordinator)
    assert schedule.crashes, "schedule must actually crash relay hosts"
    v2 = derive_v2(manager)
    manager.set_current_version(v2)

    def scenario():
        yield runtime.sim.timeout(0.5)
        # Kick the batched wave off while the relay crashes are armed.
        yield from manager.propagate_version(v2, retry_policy=FAST_RETRY)
        assert_never_half_applied(
            runtime.class_of("Sorter"), loids, f"seed {seed} post-wave", versions=(v1, v2)
        )
        heal = schedule.heal_time + 1.0
        if runtime.sim.now < heal:
            yield runtime.sim.timeout(heal - runtime.sim.now)
        tracker = yield from drive_to_convergence(
            runtime,
            "Sorter",
            journal=journal,
            retry_policy=FAST_RETRY,
            relays=directory,
        )
        return tracker

    tracker = runtime.sim.run_process(scenario())
    runtime.sim.run()

    assert tracker is not None and tracker.all_acked, (
        f"seed {seed}: fleet did not converge: {tracker and tracker.summary()}"
    )
    manager_now = runtime.class_of("Sorter")
    assert_never_half_applied(
        manager_now, loids, f"seed {seed} converged", versions=(v1, v2)
    )
    for loid in loids:
        assert manager_now.instance_version(loid) == v2
        obj = manager_now.record(loid).obj
        assert obj.version == v2
        # At-least-once batches, exactly-once application.
        assert obj.applications_by_version.get(v2, 0) <= 1
    # Crashed relays came back and the wave kept flowing through them.
    assert runtime.network.count_value("relay.recoveries") >= 1
    assert runtime.network.count_value("relay.batches") >= 1


@pytest.mark.parametrize("seed", range(6))
def test_chaos_abortive_relay_wave_rolls_back(seed):
    """An abort-on-first-failure wave delivered through relays: the
    rollback undoes relay-committed instances exactly as it undoes
    directly-committed ones, and convergence still lands on v2."""
    runtime, manager, journal, loids, directory = build_relay_fleet(
        sim_seed=1300 + seed
    )
    v1 = manager.current_version
    coordinator = ChaosCoordinator(
        runtime, journals={"Sorter": journal}, relays=directory
    )
    schedule = ChaosSchedule.generate(
        seed,
        list(runtime.hosts),
        duration_s=120.0,
        max_crashes=0,
        max_partitions=0,
        max_drops=0,
        protect=("host00", ICO_HOST),
        relay_hosts=INSTANCE_HOSTS,
        max_relay_crashes=2,
    )
    schedule.install(runtime, coordinator)
    v2 = derive_v2(manager)
    manager.set_current_version(v2)

    def scenario():
        yield runtime.sim.timeout(0.5)
        aborted = False
        try:
            yield from manager.propagate_version(
                v2, retry_policy=ONE_SHOT, wave_policy=WavePolicy.abort_after(0)
            )
        except WaveAborted:
            aborted = True
        assert_never_half_applied(
            manager, loids, f"seed {seed} post-wave", versions=(v1, v2)
        )
        heal = schedule.heal_time + 1.0
        if runtime.sim.now < heal:
            yield runtime.sim.timeout(heal - runtime.sim.now)
        tracker = yield from drive_to_convergence(
            runtime,
            "Sorter",
            journal=journal,
            retry_policy=FAST_RETRY,
            relays=directory,
        )
        return aborted, tracker

    aborted, tracker = runtime.sim.run_process(scenario())
    runtime.sim.run()

    if aborted:
        kinds = [entry.kind for entry in journal.replay()]
        assert "wave-aborted" in kinds
        # Every rollback of a relay-committed instance is journaled.
        assert runtime.network.count_value("wave.aborts") >= 1
    assert tracker is not None and tracker.all_acked, (
        f"seed {seed}: fleet did not converge: {tracker and tracker.summary()}"
    )
    manager_now = runtime.class_of("Sorter")
    assert_never_half_applied(
        manager_now, loids, f"seed {seed} converged", versions=(v1, v2)
    )
    for loid in loids:
        assert manager_now.record(loid).obj.version == v2
