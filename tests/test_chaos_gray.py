"""Gray-chaos sweep: transactional invariants under limping faults.

Seeded schedules mix the PR 8 gray fault kinds — one-way partitions,
link flaps, slow links, fabric-level duplication, bounded reordering,
limping hosts — with the legacy crash/partition/failover kinds, while
a supervised fleet evolves.  Slow is not dead, lost replies are not
lost requests, and duplicated wire messages are not duplicated
invocations; the invariants that held under fail-stop chaos must hold
unchanged when every fault is partial:

- never-half-applied at heal and at convergence;
- exactly-once application per instance (fabric duplication and
  hedged backups included);
- term fencing: a promoted succession of terms, and no instance ever
  observes a term above the live authority's.

The supervisor runs its detector in phi-accrual mode and no test code
ever recovers the manager by hand.  ``CHAOS_EXTRA_SEEDS`` (env) widens
the sweep in CI.  Unit coverage for the fault kinds themselves lives
in ``tests/test_gray_faults.py``.
"""

import os

import pytest

from repro.cluster import Supervisor, build_lan, deploy_relays
from repro.cluster.chaos import ChaosCoordinator, ChaosSchedule
from repro.core import ManagerJournal
from repro.core.policies import ReliableUpdatePolicy
from repro.legion import LegionRuntime
from repro.net import RetryPolicy

from tests.conftest import create_dcdo, make_sorter_manager
from tests.invariants import assert_never_half_applied
from tests.test_chaos_transactions import derive_v2

FAST_RETRY = RetryPolicy(
    base_s=1.0, multiplier=2.0, max_backoff_s=30.0, max_attempts=8
)

ICO_HOST = "host05"
MANAGER_HOST = "host00"
STANDBY_HOSTS = ("host02", "host03")
DETECTOR_HOST = "host04"

CHAOS_SEEDS = 20 + int(os.environ.get("CHAOS_EXTRA_SEEDS", "0"))

#: Fabric-duplicated requests absorbed per seed, checked in aggregate
#: after the sweep: the dedupe table must actually be exercised.
DUPLICATES_ABSORBED = {}


def build_fleet(sim_seed=7, hosts=6, instances=4, **manager_kwargs):
    """Runtime + journaled, supervised sorter fleet (see chaos_failover)."""
    runtime = LegionRuntime(build_lan(hosts, seed=sim_seed))
    journal = ManagerJournal(name="Sorter")
    manager = make_sorter_manager(
        runtime,
        component_hosts={
            "sorter": MANAGER_HOST,
            "compare-asc": MANAGER_HOST,
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


@pytest.mark.parametrize("seed", range(CHAOS_SEEDS))
def test_chaos_gray_invariants_hold(seed):
    """Gray faults plus a real manager failover, across seeded
    schedules: the phi-supervised fleet converges on its own with the
    full invariant set intact."""
    use_relays = seed % 5 == 0
    runtime, manager, journal, loids = build_fleet(
        sim_seed=1900 + seed,
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY),
    )
    # Gray hardening under test: per-peer health everywhere, and on
    # even seeds the manager's invoker runs adaptive timeouts + hedged
    # idempotent calls on top.
    runtime.network.enable_health()
    if seed % 2 == 0:
        manager.invoker.enable_adaptive_timeouts()
        manager.invoker.enable_hedging()
    v1 = manager.current_version
    relays = deploy_relays(runtime) if use_relays else None
    if use_relays:
        manager.use_relays(relays, fanout_k=2)
    supervisor = Supervisor(
        runtime,
        "Sorter",
        standby_hosts=STANDBY_HOSTS,
        detector_host_name=DETECTOR_HOST,
        relays=relays,
        relay_fanout_k=2 if use_relays else 0,
        detector_mode="phi",
        retry_policy=FAST_RETRY,
    ).start()
    coordinator = ChaosCoordinator(runtime, journals={}, relays=relays)
    schedule = ChaosSchedule.generate(
        seed,
        list(runtime.hosts),
        duration_s=120.0,
        protect=(DETECTOR_HOST, ICO_HOST),
        manager_hosts=(MANAGER_HOST,) + STANDBY_HOSTS,
        max_manager_partitions=1 if seed % 3 == 0 else 0,
        max_failovers=1,
        gray_one_way=1 if seed % 2 == 0 else 0,
        gray_flaps=1 if seed % 4 == 1 else 0,
        gray_slow_links=1,
        gray_duplicates=1,
        gray_reorders=1,
        gray_limps=1,
    )
    schedule.install(runtime, coordinator)
    base = schedule.installed_at
    fault_offsets = [crash_at for __, crash_at, __ in schedule.crashes]
    fault_offsets += [start for __, __, start, __ in schedule.partitions]
    wave_at = max(0.1, min(fault_offsets) - 0.03) if fault_offsets else 0.5
    v2 = derive_v2(manager)

    def scenario():
        if runtime.sim.now < base + wave_at:
            yield runtime.sim.timeout(base + wave_at - runtime.sim.now)
        manager.set_current_version_async(v2)
        heal = schedule.heal_time + 1.0
        if runtime.sim.now < heal:
            yield runtime.sim.timeout(heal - runtime.sim.now)
        # Mid-run observation at heal: settled instances only (a
        # just-rebuilt instance with no configuration yet is not half
        # applied); the converged check below is strict.
        current = supervisor.manager
        settled = [
            loid
            for loid in loids
            if not current.record(loid).active
            or current.record(loid).obj.version is not None
        ]
        assert_never_half_applied(
            current, settled, f"seed {seed} at heal", versions=(v1, v2)
        )
        deadline = runtime.sim.now + 420.0
        while runtime.sim.now < deadline:
            current = supervisor.manager
            if current.is_active and not current.deposed:
                if current.current_version != v2:
                    # The crash beat the sync journal ship: the promoted
                    # authority recovered with no record of the wave, so
                    # the designation was a never-acknowledged client
                    # request.  The client retries it against the new
                    # authority; instance-side idempotence keyed by the
                    # version id keeps the effect exactly-once even for
                    # instances the dead primary already reached.
                    current.set_current_version_async(v2)
                elif all(
                    current.record(loid).active
                    and current.record(loid).obj.version == v2
                    for loid in loids
                ):
                    break
            yield runtime.sim.timeout(5.0)
        supervisor.stop()

    runtime.sim.run_process(scenario())
    runtime.sim.run()

    manager_now = supervisor.manager
    assert supervisor.promotions >= 1, (
        f"seed {seed}: phi supervisor never promoted for a real crash "
        f"(schedule {schedule.crashes})"
    )
    assert manager_now.is_active and not manager_now.deposed, (
        f"seed {seed}: no live authority after gray chaos"
    )
    # Term fencing: an unbroken promoted succession, and nobody ever
    # observed a term from the future.
    assert manager_now.term >= 1 + supervisor.promotions
    assert_never_half_applied(
        manager_now, loids, f"seed {seed} converged", versions=(v1, v2)
    )
    for loid in loids:
        record = manager_now.record(loid)
        assert record.active, f"seed {seed}: {loid} never recovered"
        assert manager_now.instance_version(loid) == v2
        obj = record.obj
        assert obj.version == v2, f"seed {seed}: {loid} stuck at {obj.version}"
        # Exactly-once under duplication, hedging, and retries alike.
        assert obj.applications_by_version.get(v2, 0) <= 1, (
            f"seed {seed}: {loid} applied v2 "
            f"{obj.applications_by_version.get(v2)} times"
        )
        assert (obj.observed_manager_term or 0) <= manager_now.term, (
            f"seed {seed}: {loid} observed term "
            f"{obj.observed_manager_term} above the authority's "
            f"{manager_now.term}"
        )
    DUPLICATES_ABSORBED[seed] = runtime.network.count_value(
        "transport.duplicate_requests"
    )


def test_fabric_duplication_exercised_dedupe_across_sweep():
    """Across the sweep, fabric-minted duplicates must actually have
    hit the transport's at-most-once table — otherwise the exactly-once
    assertions above proved nothing about duplication."""
    assert DUPLICATES_ABSORBED, "sweep did not run before the aggregate check"
    assert any(count > 0 for count in DUPLICATES_ABSORBED.values()), (
        f"no seed absorbed a fabric duplicate: {DUPLICATES_ABSORBED}"
    )
