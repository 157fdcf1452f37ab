"""Chaos tests for supervised manager failover: no operator in the loop.

Seeded schedules crash and partition the *manager* — the authority
itself — while a fleet evolves.  No test code ever calls
:func:`~repro.cluster.chaos.drive_to_convergence` or
:func:`~repro.core.recovery.recover_manager`: a
:class:`~repro.cluster.supervisor.Supervisor` must detect the failure
via heartbeats, promote the hot standby with a bumped fencing term,
and converge the fleet entirely on its own (see
:func:`~tests.chaos_harness.supervised_wave`).  The designation fires
once; the test never re-issues it.

Acceptance invariants, every seed:

- the fleet ends fully on v2, exactly-once per instance;
- never-half-applied holds at heal and at the end;
- the supervisor promoted at least once with no help, under an
  unbroken succession of terms;
- across the sweep, at least one seed observes the fencing mechanism
  in action (``manager.stale_term_rejections`` > 0), and the
  relay-announcement seeds actually announce.
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

pytestmark = pytest.mark.chaos

STALE_REJECTIONS = SweepRecord("no seed observed a stale-term rejection")
ANNOUNCE_WAVES = SweepRecord("no relay seed ran an announcement wave")


@sweep()
def test_chaos_supervised_failover(seed):
    """Crash or partition the manager mid-wave across seeded schedules:
    the supervisor alone converges the fleet, exactly-once, with a
    properly fenced succession of terms."""
    fleet = sorter_fleet(
        1100 + seed, delivery=supervised_delivery(seed), update_policy=RELIABLE
    )
    supervised_wave(
        fleet,
        seed,
        ANNOUNCE_WAVES,
        max_drops=1 if seed % 4 == 0 else 0,
        max_failovers=1 + seed % 2,
    )
    network = fleet.runtime.network
    STALE_REJECTIONS[seed] = network.count_value("manager.stale_term_rejections")


def test_stale_term_rejections_observed():
    """Across the sweep, fencing must actually fire somewhere: at least
    one seed's partitioned zombie had a stale-term RPC rejected."""
    STALE_REJECTIONS.check()


def test_announce_waves_exercised_across_sweep():
    """The relay-announcement seeds must actually have announced."""
    ANNOUNCE_WAVES.check()
