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
- every instance a promoted authority stamped refuses a late request
  under the deposed primary's term; the relay-announcement seeds
  actually announce.

A second sweep partitions the primary and neither crashes a host nor
drops a message, so the deposed primary lives on as a zombie with
deliveries in flight.  Across both sweeps at least one seed's own
traffic meets the fence (``manager.stale_term_rejections`` > 0), and
every zombie that met it stood down.
"""

import pytest

from repro.legion.errors import StaleManagerTerm

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
    refuse_deposed_term(fleet)


def refuse_deposed_term(fleet):
    """Replay the deposed primary's term, as its late traffic would carry
    it, against every instance a later authority stamped: each must
    refuse the request."""
    deposed = fleet.manager.current_term()
    sim = fleet.runtime.sim
    for loid in fleet.loids:
        obj = fleet.runtime.live_object(loid)
        seen = obj.observed_term(deposed.scope) if obj is not None else None
        if seen is not None and seen > deposed.number:
            with pytest.raises(StaleManagerTerm):
                sim.run_process(obj.serve("getVersion", (), deposed))


@sweep()
def test_chaos_partitioned_primary(seed):
    """Partition the primary mid-wave, with no crash and no message loss
    besides the partitions: the supervisor converges the fleet while the
    deposed primary, still running, retries its deliveries once the
    partition heals; any that reach a fenced instance are rejected, and
    the zombie stands down."""
    fleet = sorter_fleet(
        1100 + seed, delivery=supervised_delivery(seed), update_policy=RELIABLE
    )
    supervised_wave(
        fleet,
        seed,
        ANNOUNCE_WAVES,
        max_crashes=0,
        max_drops=0,
        max_failovers=0,
        max_manager_partitions=1,
    )
    rejections = fleet.runtime.network.count_value("manager.stale_term_rejections")
    STALE_REJECTIONS["partitioned", seed] = rejections
    if rejections:
        assert fleet.manager.deposed and not fleet.manager.is_active


def test_stale_term_rejections_observed():
    """Across the sweeps, fencing must actually fire somewhere: at least
    one seed's own traffic had a stale-term request rejected."""
    STALE_REJECTIONS.check()


def test_announce_waves_exercised_across_sweep():
    """The relay-announcement seeds must actually have announced."""
    ANNOUNCE_WAVES.check()
