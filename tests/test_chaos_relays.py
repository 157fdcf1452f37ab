"""Chaos tests for relay-batched waves: crashes mid-batch, no half-applies.

Seeded schedules crash relay hosts while a host-batched propagation
wave is in flight.  A dying relay takes its colocated instances with
it; the acceptance invariants are the transactional ones, unchanged by
the relay layer: no live settled instance is ever half-applied, batch
re-sends never double-apply (idempotence keyed by target version),
abortive waves roll committed instances all the way back, and the fleet
still converges once faults heal — with relays restored and back in
use.  Odd seeds deliver by announcement (constant-size bundles down a
fanout-2 tree, digest acks up) instead of job batches.
"""

import pytest

from tests.chaos_harness import (
    FAST_RETRY,
    ICO_HOST,
    SweepRecord,
    abortive_wave,
    derive_v2,
    roll,
    run_chaos,
    sorter_fleet,
    sweep,
)
from tests.invariants import assert_never_half_applied

pytestmark = pytest.mark.chaos

#: Relay crashes aim at the instance hosts: batches die, the manager
#: (host00) and the component server (ICO_HOST) do not.
RELAY_CRASHES = dict(
    max_crashes=0,
    max_partitions=0,
    protect=("host00", ICO_HOST),
    relay_hosts=("host01", "host02", "host03", "host04"),
    max_relay_crashes=2,
)

ANNOUNCE_WAVES = SweepRecord("no relay seed ran an announcement wave")


@sweep(8)
def test_chaos_relay_crash_mid_batch_never_half_applied(seed):
    """Crash relay hosts while batches are mid-flight: instances die
    with their relay, nothing is half-applied, batch re-sends never
    double-apply, and the fleet converges through restored relays."""
    delivery = "announce" if seed % 2 else "batch"
    fleet = sorter_fleet(1100 + seed, per_host=2, delivery=delivery)
    manager = fleet.manager
    versions = (manager.current_version, derive_v2(manager))
    schedule = roll(fleet, seed, max_drops=1, **RELAY_CRASHES)
    assert schedule.relay_crashes, "schedule must actually crash relay hosts"
    manager.set_current_version(versions[1])

    context = f"seed {seed}"

    def wave():
        # Kick the batched wave off while the relay crashes are armed.
        yield from manager.propagate_version(versions[1], retry_policy=FAST_RETRY)
        current = fleet.runtime.class_of("Sorter")
        where = f"{context} post-wave"
        assert_never_half_applied(current, fleet.loids, where, versions)

    # At-least-once batches, exactly-once application.
    run_chaos(fleet, schedule, wave, versions, context, at=0.5)
    # Crashed relays came back and the wave kept flowing through them.
    network = fleet.runtime.network
    assert network.count_value("relay.recoveries") >= 1
    assert network.count_value("relay.batches") >= 1
    ANNOUNCE_WAVES[seed] = network.count_value("relay.announce_waves")


def test_announce_waves_exercised_across_sweep():
    """The announcement seeds must actually have announced."""
    ANNOUNCE_WAVES.check()


@sweep(6)
def test_chaos_abortive_relay_wave_rolls_back(seed):
    """An abort-on-first-failure wave delivered through relays: the
    rollback undoes relay-committed instances exactly as it undoes
    directly-committed ones, and convergence still lands on v2."""
    fleet = sorter_fleet(1300 + seed, per_host=2, delivery="batch")
    manager = fleet.manager
    versions = (manager.current_version, derive_v2(manager))
    schedule = roll(fleet, seed, max_drops=0, **RELAY_CRASHES)
    manager.set_current_version(versions[1])
    abortive_wave(fleet, schedule, versions, f"seed {seed}")
