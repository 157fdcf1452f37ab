"""Chaos tests for transactional evolution: never half-applied.

Seeded fault schedules crash hosts and partition ICO servers while a
fleet evolves.  The acceptance invariant: at *every* observation point
— mid-chaos, after heal, after convergence — a live instance that is
not mid-transaction is either fully on the old configuration or fully
on the new one.  Prepare failures roll back; commit is all-or-nothing;
aborted waves undo their committed instances.

``CHAOS_EXTRA_SEEDS`` (env) widens the seed sweep — CI runs extra
schedules beyond the default 20.
"""

import os

import pytest

from repro.cluster import build_lan
from repro.cluster.chaos import (
    ChaosCoordinator,
    ChaosSchedule,
    drive_to_convergence,
)
from repro.core import (
    ManagerJournal,
    WaveAborted,
    WavePolicy,
    recover_manager,
)
from repro.core.policies import ReliableUpdatePolicy
from repro.legion import LegionRuntime
from repro.net import RetryPolicy

from tests.conftest import create_dcdo, make_sorter_manager
from tests.invariants import assert_never_half_applied

FAST_RETRY = RetryPolicy(
    base_s=1.0, multiplier=2.0, max_backoff_s=30.0, max_attempts=8
)
ONE_SHOT = RetryPolicy(base_s=1.0, max_attempts=1)

#: The host serving the component every v1→v2 evolution must fetch.
ICO_HOST = "host05"

CHAOS_SEEDS = 20 + int(os.environ.get("CHAOS_EXTRA_SEEDS", "0"))


def build_fleet(sim_seed=7, hosts=6, instances=4, **manager_kwargs):
    """Runtime + journaled sorter manager with the evolution ICO pinned.

    The manager and the v1 components live on host00; ``compare-desc``
    — the prepare-phase fetch of every v1→v2 evolution — is served
    from :data:`ICO_HOST` so schedules can partition or crash exactly
    that dependency.  Instances land on host01..host04.
    """
    runtime = LegionRuntime(build_lan(hosts, seed=sim_seed))
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
    for index in range(instances):
        loid, __ = create_dcdo(runtime, manager, host_name=f"host{index + 1:02d}")
        loids.append(loid)
    return runtime, manager, journal, loids


def derive_v2(manager):
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "compare-desc")
    manager.descriptor_of(version).enable(
        "compare", "compare-desc", replace_current=True
    )
    manager.mark_instantiable(version)
    return version


@pytest.mark.parametrize("seed", range(CHAOS_SEEDS))
def test_chaos_never_half_applied(seed):
    """Crash hosts mid-apply and partition the ICO server mid-prepare,
    across many seeded schedules: zero half-applied instances, ever."""
    runtime, manager, journal, loids = build_fleet(
        sim_seed=700 + seed,
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY),
    )
    v1 = manager.current_version
    coordinator = ChaosCoordinator(runtime, journals={"Sorter": journal})
    schedule = ChaosSchedule.generate(
        seed,
        list(runtime.hosts),
        duration_s=120.0,
        ico_hosts=(ICO_HOST,),
        max_ico_partitions=2,
        mid_apply_crashes=1,
    )
    schedule.install(runtime, coordinator)
    v2 = derive_v2(manager)

    def scenario():
        yield runtime.sim.timeout(0.5)
        manager.set_current_version_async(v2)
        heal = schedule.heal_time + 1.0
        if runtime.sim.now < heal:
            yield runtime.sim.timeout(heal - runtime.sim.now)
        # Mid-run observation: faults just healed, deliveries may still
        # be retrying — but nothing may be half-applied.
        assert_never_half_applied(
            runtime.class_of("Sorter"), loids, f"seed {seed} at heal", versions=(v1, v2)
        )
        tracker = yield from drive_to_convergence(
            runtime, "Sorter", journal=journal, retry_policy=FAST_RETRY
        )
        return tracker

    tracker = runtime.sim.run_process(scenario())
    runtime.sim.run()

    assert tracker is not None and tracker.all_acked, (
        f"seed {seed}: propagation did not converge: {tracker.summary()}"
    )
    manager_now = runtime.class_of("Sorter")
    assert_never_half_applied(
        manager_now, loids, f"seed {seed} converged", versions=(v1, v2)
    )
    for loid in loids:
        assert manager_now.instance_version(loid) == v2
        obj = manager_now.record(loid).obj
        assert obj.version == v2, f"seed {seed}: {loid} stuck at {obj.version}"
        assert obj.applications_by_version.get(v2, 0) <= 1


@pytest.mark.parametrize("seed", range(6))
def test_chaos_abortive_wave_keeps_fleet_consistent(seed):
    """An abort-on-first-failure wave under chaos: whether it aborts or
    completes, no instance is ever half-applied, rolled-back instances
    land fully on v1, and the fleet still converges afterwards."""
    runtime, manager, journal, loids = build_fleet(sim_seed=900 + seed)
    v1 = manager.current_version
    coordinator = ChaosCoordinator(runtime, journals={"Sorter": journal})
    # The manager and ICO host are protected: this test aims chaos at
    # the *instances* so wave rollback, not manager recovery, is on
    # trial (the recovery interplay has its own dedicated test).
    schedule = ChaosSchedule.generate(
        seed,
        list(runtime.hosts),
        duration_s=120.0,
        protect=("host00", ICO_HOST),
        ico_hosts=(ICO_HOST,),
        max_ico_partitions=1,
        mid_apply_crashes=2,
    )
    schedule.install(runtime, coordinator)
    v2 = derive_v2(manager)
    manager.set_current_version(v2)  # explicit policy: no auto-propagation

    def scenario():
        yield runtime.sim.timeout(0.5)
        aborted = False
        try:
            yield from manager.propagate_version(
                v2, retry_policy=ONE_SHOT, wave_policy=WavePolicy.abort_after(0)
            )
        except WaveAborted:
            aborted = True
        tracker = manager.propagation(v2)
        assert_never_half_applied(
            manager, loids, f"seed {seed} post-wave", versions=(v1, v2)
        )
        if tracker.aborting:
            # The abort decision is durable before any rollback runs.
            kinds = [entry.kind for entry in journal.replay()]
            assert "wave-aborting" in kinds
        heal = schedule.heal_time + 1.0
        if runtime.sim.now < heal:
            yield runtime.sim.timeout(heal - runtime.sim.now)
        # Convergence: finish any interrupted abort, rebuild crash-lost
        # instances, then re-drive the wave under an explicit converge
        # override of the tracker's abortive policy.
        final = None
        for __ in range(8):
            current = runtime.class_of("Sorter")
            if not current.is_active:
                current = yield from recover_manager(runtime, journal)
            yield from ChaosCoordinator(
                runtime, auto_recover=False
            ).recover_instances()
            final = yield from current.propagate_version(
                v2, retry_policy=FAST_RETRY, wave_policy=WavePolicy.converge()
            )
            if final.all_acked:
                break
        return aborted, tracker, final

    aborted, tracker, final = runtime.sim.run_process(scenario())
    runtime.sim.run()

    if aborted:
        # The raise only happens once every committed instance was
        # rolled back and the terminal state journaled.
        kinds = [entry.kind for entry in journal.replay()]
        assert "wave-aborted" in kinds
        assert runtime.network.count_value("wave.aborts") >= 1
    assert final is not None and final.all_acked, (
        f"seed {seed}: fleet did not converge after the wave: "
        f"{final and final.summary()}"
    )
    manager_now = runtime.class_of("Sorter")
    assert_never_half_applied(
        manager_now, loids, f"seed {seed} converged", versions=(v1, v2)
    )
    for loid in loids:
        assert manager_now.instance_version(loid) == v2
        obj = manager_now.record(loid).obj
        assert obj.version == v2
        # Applied at most twice: once before a rollback, once after.
        assert obj.applications_by_version.get(v2, 0) <= 2


def test_new_fault_kinds_extend_legacy_schedule_deterministically():
    """The transactional fault kinds draw strictly after the legacy
    ones: a given seed yields the identical legacy schedule with the
    new kinds off or on — existing seeded tests stay reproducible."""
    names = [f"host{i:02d}" for i in range(6)]
    legacy = ChaosSchedule.generate(5, names)
    extended = ChaosSchedule.generate(
        5,
        names,
        ico_hosts=(ICO_HOST,),
        max_ico_partitions=2,
        mid_apply_crashes=1,
    )
    assert extended.crashes[: len(legacy.crashes)] == legacy.crashes
    assert extended.partitions[: len(legacy.partitions)] == legacy.partitions
    assert extended.drops == legacy.drops
    # The new kinds actually produced faults, and reproducibly so.
    assert len(extended.partitions) > len(legacy.partitions)
    assert len(extended.crashes) == len(legacy.crashes) + 1
    again = ChaosSchedule.generate(
        5,
        names,
        ico_hosts=(ICO_HOST,),
        max_ico_partitions=2,
        mid_apply_crashes=1,
    )
    assert (again.crashes, again.partitions, again.drops) == (
        extended.crashes,
        extended.partitions,
        extended.drops,
    )
    # ICO partitions isolate the component servers from everyone else.
    ico_side = [f"{ICO_HOST}/"]
    new_partitions = extended.partitions[len(legacy.partitions) :]
    assert all(part[0] == ico_side for part in new_partitions)
