"""Chaos tests for transactional evolution: never half-applied.

Seeded fault schedules crash hosts and partition ICO servers while a
fleet evolves.  The acceptance invariant: at *every* observation point
— mid-chaos, after heal, after convergence — a live instance that is
not mid-transaction is either fully on the old configuration or fully
on the new one.  Prepare failures roll back; commit is all-or-nothing;
aborted waves undo their committed instances.
"""

import pytest

from repro.cluster.chaos import ChaosSchedule
from tests.chaos_harness import (
    ICO_HOST,
    RELIABLE,
    abortive_wave,
    derive_v2,
    roll,
    run_chaos,
    sorter_fleet,
    sweep,
)

pytestmark = pytest.mark.chaos


@sweep()
def test_chaos_never_half_applied(seed):
    """Crash hosts mid-apply and partition the ICO server mid-prepare,
    across many seeded schedules: zero half-applied instances, ever."""
    fleet = sorter_fleet(700 + seed, update_policy=RELIABLE)
    manager = fleet.manager
    v1 = manager.current_version
    schedule = roll(
        fleet, seed, ico_hosts=(ICO_HOST,), max_ico_partitions=2, mid_apply_crashes=1
    )
    v2 = derive_v2(manager)
    # At heal deliveries may still be retrying — but nothing may be
    # half-applied.
    run_chaos(
        fleet,
        schedule,
        lambda: manager.set_current_version_async(v2),
        (v1, v2),
        f"seed {seed}",
        at=0.5,
    )


@sweep(6)
def test_chaos_abortive_wave_keeps_fleet_consistent(seed):
    """An abort-on-first-failure wave under chaos: whether it aborts or
    completes, no instance is ever half-applied, rolled-back instances
    land fully on v1, and the fleet still converges afterwards."""
    fleet = sorter_fleet(900 + seed)
    manager = fleet.manager
    # The manager and ICO host are protected: this test aims chaos at
    # the *instances* so wave rollback, not manager recovery, is on
    # trial (the recovery interplay has its own dedicated test).
    schedule = roll(
        fleet,
        seed,
        protect=("host00", ICO_HOST),
        ico_hosts=(ICO_HOST,),
        max_ico_partitions=1,
        mid_apply_crashes=2,
    )
    versions = (manager.current_version, derive_v2(manager))
    manager.set_current_version(versions[1])  # explicit policy: no auto-propagation
    abortive_wave(fleet, schedule, versions, f"seed {seed}")


def test_new_fault_kinds_extend_legacy_schedule_deterministically():
    """The transactional fault kinds draw from their own streams: a
    given seed yields the identical legacy schedule with the new kinds
    off or on — existing seeded tests stay reproducible."""
    names = [f"host{i:02d}" for i in range(6)]
    new_kwargs = dict(ico_hosts=(ICO_HOST,), max_ico_partitions=2, mid_apply_crashes=1)
    legacy = ChaosSchedule.generate(5, names)
    extended = ChaosSchedule.generate(5, names, **new_kwargs)
    assert extended.crashes == legacy.crashes
    assert extended.partitions == legacy.partitions
    assert extended.drops == legacy.drops
    # The new kinds actually produced faults, and reproducibly so; a
    # mid-apply crash never picks a host the legacy crashes took down.
    assert not legacy.ico_partitions and not legacy.mid_apply_crashes
    assert extended.ico_partitions
    assert len(extended.mid_apply_crashes) == 1
    (victim,) = [fault.host for fault in extended.mid_apply_crashes]
    assert victim not in {fault.host for fault in legacy.crashes}
    again = ChaosSchedule.generate(5, names, **new_kwargs)
    assert again.faults == extended.faults
    # ICO partitions isolate the component servers from everyone else.
    rest = [name for name in names if name != ICO_HOST]
    for part in extended.ico_partitions:
        assert (part.side_a, part.side_b) == ([ICO_HOST], rest)
