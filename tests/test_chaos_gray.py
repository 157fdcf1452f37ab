"""Gray-chaos sweep: transactional invariants under limping faults.

Seeded schedules mix the gray fault kinds — one-way partitions, link
flaps, slow links, fabric-level duplication, bounded reordering,
limping hosts — with crash, partition and failover kinds, while a
supervised fleet evolves.  Slow is not dead, lost replies are not lost
requests, and duplicated wire messages are not duplicated invocations;
the invariants that held under fail-stop chaos
(:func:`~tests.chaos_harness.supervised_wave`) must hold unchanged when
every fault is partial:

- never-half-applied at heal and at convergence;
- exactly-once application per instance (fabric duplication and
  hedged backups included);
- term fencing: a promoted succession of terms, and no instance ever
  observes a term above the live authority's;
- across the sweep, fabric duplicates actually hit the transport's
  at-most-once table.

A crash can beat the sync journal ship, so the promoted authority
never heard of the wave: the test then re-issues the designation, as a
client retries a request it never saw acknowledged.

The supervisor runs its detector in phi-accrual mode.  Unit coverage
for the fault kinds themselves lives in ``tests/test_gray_faults.py``.
"""

import pytest

from tests.chaos_harness import (
    RELIABLE,
    SweepRecord,
    sorter_fleet,
    supervised_delivery,
    supervised_wave,
    sweep,
)

pytestmark = [pytest.mark.chaos, pytest.mark.gray]

DUPLICATES_ABSORBED = SweepRecord("no seed absorbed a fabric duplicate")
ANNOUNCE_WAVES = SweepRecord("no relay seed ran an announcement wave")


@sweep()
def test_chaos_gray_invariants_hold(seed):
    """Gray faults plus a real manager failover, across seeded
    schedules: the phi-supervised fleet converges on its own with the
    full invariant set intact."""
    fleet = sorter_fleet(
        1900 + seed, delivery=supervised_delivery(seed), update_policy=RELIABLE
    )
    # Gray hardening under test: per-peer health everywhere, and on
    # even seeds the manager's invoker runs adaptive timeouts + hedged
    # idempotent calls on top.
    fleet.runtime.network.enable_health()
    if seed % 2 == 0:
        fleet.manager.invoker.enable_adaptive_timeouts()
        fleet.manager.invoker.enable_hedging()
    supervised_wave(
        fleet,
        seed,
        ANNOUNCE_WAVES,
        detector_mode="phi",
        reissue=True,
        max_failovers=1,
        gray_one_way=1 if seed % 2 == 0 else 0,
        gray_flaps=1 if seed % 4 == 1 else 0,
        gray_slow_links=1,
        gray_duplicates=1,
        gray_reorders=1,
        gray_limps=1,
    )
    network = fleet.runtime.network
    DUPLICATES_ABSORBED[seed] = network.count_value("transport.duplicate_requests")


def test_fabric_duplication_exercised_dedupe_across_sweep():
    """Across the sweep, fabric-minted duplicates must actually have
    hit the transport's at-most-once table — otherwise the exactly-once
    assertions proved nothing about duplication."""
    DUPLICATES_ABSORBED.check()


def test_announce_waves_exercised_across_sweep():
    """The relay-announcement seeds must actually have announced."""
    ANNOUNCE_WAVES.check()
