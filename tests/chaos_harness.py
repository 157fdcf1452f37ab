"""One harness for the seeded chaos suites.

The suites check the paper's central promise under faults: a DCDO
evolves while it runs and is never left half-configured.  Each builds
a fleet, rolls a :class:`~repro.cluster.chaos.ChaosSchedule` from its
seed, fires a wave, and once the faults heal checks the invariants
stated here once:

- never half-applied (:func:`~tests.invariants.assert_never_half_applied`),
  at heal and after convergence;
- converged exactly once (:func:`assert_converged`);
- "exercised across the sweep" (:class:`SweepRecord`): proof that a
  sweep reached the path it certifies.

A suite declares only its fault kinds, its delivery mode (direct,
relay job batches or tree, relay announcements) and its own extra
assertions.  ``CHAOS_EXTRA_SEEDS`` (env) widens every 20-seed sweep.
"""

import inspect
import os
from collections import namedtuple

import pytest

from repro.cluster import Supervisor, build_lan, deploy_relays
from repro.cluster.chaos import (
    ChaosCoordinator,
    ChaosSchedule,
    Outage,
    Partition,
    drive_to_convergence,
)
from repro.core import ManagerJournal, RemovePolicy, WaveAborted, WavePolicy
from repro.core.policies import ReliableUpdatePolicy
from repro.legion import LegionRuntime
from repro.net import RetryPolicy
from repro.obs import SLO
from repro.workloads import OpenLoopLoad, PoissonArrivals, make_noop_manager

from tests.conftest import create_dcdo, make_sorter_manager
from tests.invariants import assert_never_half_applied

#: Tight-ish retries so chaos runs converge in bounded sim time.
FAST_RETRY = RetryPolicy(
    base_s=1.0, multiplier=2.0, max_backoff_s=30.0, max_attempts=8
)
#: One attempt per delivery: abortive waves fail fast.
ONE_SHOT = RetryPolicy(base_s=1.0, max_attempts=1)
RELIABLE = ReliableUpdatePolicy(retry_policy=FAST_RETRY)

CHAOS_SEEDS = 20 + int(os.environ.get("CHAOS_EXTRA_SEEDS", "0"))

MANAGER_HOST = "host00"
STANDBY_HOSTS = ("host02", "host03")
#: Runs the failure detector; schedules never crash it.
DETECTOR_HOST = "host04"
#: Serves ``compare-desc``, the fetch every v1→v2 evolution prepares.
ICO_HOST = "host05"
#: Runs the traffic client, so an SLO gate always has a vantage point.
CLIENT_HOST = "host05"
INSTANCE_HOSTS = ("host01", "host02", "host03", "host04")

#: ``use_relays`` options per relay delivery mode.
RELAY_ROUTES = {
    "batch": {},
    "tree": {"fanout_k": 2},
    "announce": {"fanout_k": 2, "announce": True},
}

Fleet = namedtuple("Fleet", "runtime manager journal loids relays delivery")


def sweep(count=CHAOS_SEEDS):
    """Parametrize a test over ``count`` seeds."""
    return pytest.mark.parametrize("seed", range(count))


def supervised_delivery(seed):
    """Direct on most seeds; every fifth routes through a fanout-2 relay
    tree, half of those as announcements."""
    return None if seed % 5 else ("announce" if seed % 10 == 5 else "tree")


def sorter_fleet(
    sim_seed,
    hosts=6,
    instance_hosts=INSTANCE_HOSTS,
    per_host=1,
    pin_ico=True,
    delivery=None,
    **manager_kwargs,
):
    """A journaled sorter fleet, ``per_host`` instances on each of
    ``instance_hosts``.

    With ``pin_ico`` the manager and v1 components live on
    :data:`MANAGER_HOST` and ``compare-desc`` on :data:`ICO_HOST`, so
    schedules can partition or crash exactly that dependency.  A relay
    ``delivery`` mode (see :data:`RELAY_ROUTES`) deploys a relay on
    every host and routes waves through them.
    """
    runtime = LegionRuntime(build_lan(hosts, seed=sim_seed))
    journal = ManagerJournal(name="Sorter")
    pinned = {
        "sorter": MANAGER_HOST,
        "compare-asc": MANAGER_HOST,
        "compare-desc": ICO_HOST,
    }
    manager = make_sorter_manager(
        runtime,
        component_hosts=pinned if pin_ico else None,
        journal=journal,
        propagation_retry_policy=FAST_RETRY,
        **manager_kwargs,
    )
    loids = [
        create_dcdo(runtime, manager, host_name=host)[0]
        for host in instance_hosts
        for __ in range(per_host)
    ]
    relays = None
    if delivery is not None:
        relays = deploy_relays(runtime)
        manager.use_relays(relays, **RELAY_ROUTES[delivery])
    return Fleet(runtime, manager, journal, loids, relays, delivery)


def service_fleet(sim_seed, instances, instance_hosts, **manager_kwargs):
    """A journaled no-op ``Svc`` fleet, manager on :data:`MANAGER_HOST`,
    ``instances`` spread round-robin over ``instance_hosts``."""
    runtime = LegionRuntime(build_lan(6, seed=sim_seed))
    journal = ManagerJournal(name="Svc")
    manager, __ = make_noop_manager(
        runtime,
        "Svc",
        2,
        3,
        journal=journal,
        host_name=MANAGER_HOST,
        propagation_retry_policy=FAST_RETRY,
        remove_policy=RemovePolicy.timeout(2.0),
        **manager_kwargs,
    )
    hosts = [instance_hosts[index % len(instance_hosts)] for index in range(instances)]
    loids = [
        runtime.sim.run_process(manager.create_instance(host_name=host))
        for host in hosts
    ]
    return Fleet(runtime, manager, journal, loids, None, None)


def derive_v2(manager):
    """Derive the descending-sort version from the current version."""
    version = manager.derive_version(manager.current_version)
    manager.incorporate_into(version, "compare-desc")
    manager.descriptor_of(version).enable(
        "compare", "compare-desc", replace_current=True
    )
    manager.mark_instantiable(version)
    return version


def supervise(fleet, **kwargs):
    """Start a supervisor for the fleet's manager: standbys on
    :data:`STANDBY_HOSTS`, detector on :data:`DETECTOR_HOST`, and the
    fleet's relay routing kept across promotions."""
    route = RELAY_ROUTES.get(fleet.delivery, {})
    return Supervisor(
        fleet.runtime,
        fleet.manager.type_name,
        standby_hosts=STANDBY_HOSTS,
        detector_host_name=DETECTOR_HOST,
        relays=fleet.relays,
        relay_fanout_k=route.get("fanout_k", 0),
        relay_announce=route.get("announce", False),
        retry_policy=FAST_RETRY,
        **kwargs,
    ).start()


def roll(fleet, seed, supervised=False, plane=None, duration_s=120.0, **kinds):
    """Generate the seed's schedule and install it.

    The installing coordinator recovers the fleet's journaled manager
    when its host restarts — unless ``supervised``: then only a
    supervisor can bring the authority back.
    """
    journals = {} if supervised else {fleet.manager.type_name: fleet.journal}
    coordinator = ChaosCoordinator(
        fleet.runtime, journals=journals, relays=fleet.relays
    )
    schedule = ChaosSchedule.generate(
        seed, list(fleet.runtime.hosts), duration_s=duration_s, **kinds
    )
    schedule.install(fleet.runtime, coordinator, plane=plane)
    return schedule


def until(sim, at):
    """Generator: sleep until ``at`` (no-op once past)."""
    if sim.now < at:
        yield sim.timeout(at - sim.now)


def converge_fleet(fleet, context):
    """Generator: heal what is repairable and re-propagate
    (:func:`drive_to_convergence` on the fleet's journal and relays)
    until the fleet converges — which it must."""
    tracker = yield from drive_to_convergence(
        fleet.runtime,
        fleet.manager.type_name,
        journal=fleet.journal,
        retry_policy=FAST_RETRY,
        relays=fleet.relays,
    )
    assert tracker is not None and tracker.all_acked, (
        f"{context}: fleet did not converge: {tracker and tracker.summary()}"
    )


def run_chaos(
    fleet,
    schedule,
    fire,
    versions,
    context,
    at=None,
    authority=None,
    converge=None,
    **checks,
):
    """Run one seeded scenario from ``versions[0]`` to ``versions[1]``.

    ``fire()`` starts the wave (a plain call, or a generator to drive)
    ``at`` seconds after install — by default just before the first
    outage or partition lands, so the fault catches deliveries in
    flight.  Once every fault has cleared, every instance in the table
    of ``authority()`` — by default the type's class object; ``None``
    skips the check — must be wholly at one of ``versions``.  Then the
    ``converge()`` generator runs; by default :func:`converge_fleet`,
    followed by :func:`assert_converged` with ``checks``.
    """
    sim = fleet.runtime.sim
    if at is None:
        faults = schedule.records(Outage, Partition)
        at = max(0.1, min(f.start for f in faults) - 0.03) if faults else 0.5

    def class_object():
        return fleet.runtime.class_of(fleet.manager.type_name)

    def scenario():
        yield from until(sim, schedule.installed_at + at)
        wave = fire()
        if inspect.isgenerator(wave):
            yield from wave
        yield from until(sim, schedule.heal_time + 1.0)
        manager = (authority or class_object)()
        if manager is not None:
            where = f"{context} at heal"
            assert_never_half_applied(manager, fleet.loids, where, versions)
        yield from (converge or (lambda: converge_fleet(fleet, context)))()

    sim.run_process(scenario())
    sim.run()
    if converge is None:
        assert_converged(class_object(), fleet.loids, versions[1], context, **checks)


def settle(sim, settled, timeout_s=420.0):
    """Generator: poll every 5 s, up to ``timeout_s``, until ``settled()``."""
    deadline = sim.now + timeout_s
    while sim.now < deadline and not settled():
        yield sim.timeout(5.0)


def at_version(owner, loids, version):
    """Every instance in ``owner``'s table is live at ``version``."""
    return all(
        owner.record(loid).active and owner.record(loid).obj.version == version
        for loid in loids
    )


def converged(manager, loids, version, reissue=None):
    """``manager`` is a live authority with every instance at ``version``.

    With ``reissue``, a live authority not designating that version gets
    the designation again first: when a crash beats the sync journal
    ship, the promoted authority recovers with no record of the wave, so
    the designation was a never-acknowledged client request, which the
    client retries.  Instance-side idempotence keyed by the version id
    keeps the effect exactly-once even where the dead primary got to.
    """
    if not manager.is_active or manager.deposed:
        return False
    if reissue is not None and manager.current_version != reissue:
        manager.set_current_version_async(reissue)
        return False
    return at_version(manager, loids, version)


def assert_converged(
    manager, loids, version, context, once=None, max_applied=1, originals=None
):
    """The converged exactly-once check.

    ``manager`` is a live authority designating ``version``; every
    instance is live and wholly at ``version``, in the table and in the
    object, never half applied; it applied ``once`` (default
    ``version``) at most ``max_applied`` times — exactly once when it
    is the object in ``originals`` that outlived the chaos — and never
    observed a fencing term above the authority's.
    """
    assert manager.is_active and not manager.deposed, f"{context}: no live authority"
    assert manager.current_version == version, (
        f"{context}: authority designates {manager.current_version}"
    )
    assert_never_half_applied(manager, loids, f"{context} converged")
    once = once or version
    for loid in loids:
        record = manager.record(loid)
        assert record.active, f"{context}: {loid} never recovered"
        assert manager.instance_version(loid) == version, (
            f"{context}: table holds {loid} at {manager.instance_version(loid)}"
        )
        obj = record.obj
        assert obj.version == version, f"{context}: {loid} stuck at {obj.version}"
        applied = obj.applications_by_version.get(once, 0)
        where = f"{context}: {loid} applied {once} {applied} times"
        assert applied <= max_applied, where
        if originals is not None and obj is originals[loid]:
            assert applied == 1, f"{where}, though it survived"
        assert (obj.observed_manager_term or 0) <= manager.term, (
            f"{context}: {loid} observed term {obj.observed_manager_term} "
            f"above the authority's {manager.term}"
        )


def supervised_wave(
    fleet, seed, announce_waves, detector_mode="threshold", reissue=False, **kinds
):
    """Evolve to v2 under the seed's schedule with no operator in the loop.

    The schedule crashes or partitions the manager hosts (``kinds`` add
    to that); the wave fires just before the first fault, so it catches
    deliveries in flight.  No test code recovers the manager: the
    supervisor alone must detect the failure, promote a standby with a
    bumped fencing term and converge the fleet.  Checks never-half-
    applied at heal, at least one promotion, an unbroken succession of
    terms and the converged exactly-once state; announcement seeds note
    their ``relay.announce_waves`` in ``announce_waves``.

    The designation fires once.  Only with ``reissue`` does the test,
    acting as the client, repeat it against a promoted authority that
    lost it (see :func:`converged`); without, the supervisor alone must
    carry the fleet to v2.
    """
    supervisor = supervise(fleet, detector_mode=detector_mode)
    schedule = roll(
        fleet,
        seed,
        supervised=True,
        protect=(DETECTOR_HOST, ICO_HOST),
        manager_hosts=(MANAGER_HOST,) + STANDBY_HOSTS,
        max_manager_partitions=1 if seed % 3 == 0 else 0,
        **kinds,
    )
    manager, sim, context = fleet.manager, fleet.runtime.sim, f"seed {seed}"
    versions = (manager.current_version, derive_v2(manager))

    def converge():
        target = versions[1]
        again = target if reissue else None
        yield from settle(
            sim, lambda: converged(supervisor.manager, fleet.loids, target, again)
        )
        supervisor.stop()

    run_chaos(
        fleet,
        schedule,
        lambda: manager.set_current_version_async(versions[1]),
        versions,
        context,
        authority=lambda: supervisor.manager,
        converge=converge,
    )
    assert supervisor.promotions >= 1, f"{context}: never promoted ({schedule!r})"
    assert supervisor.manager.term >= 1 + supervisor.promotions
    assert_converged(supervisor.manager, fleet.loids, versions[1], context)
    if fleet.delivery == "announce":
        announce_waves[seed] = fleet.runtime.network.count_value("relay.announce_waves")


def abortive_wave(fleet, schedule, versions, context):
    """Push ``versions[1]`` under an abort-on-first-failure policy, then
    converge (overriding the abortive policy) once faults heal.

    Whether the wave aborts or completes, nothing is half-applied after
    it; an abort decision is journaled before any rollback runs, and a
    raised abort only ever follows a completed, journaled rollback.
    Rolled-back instances may apply the version twice: once before
    their rollback, once after.
    """
    manager, aborted = fleet.manager, []

    def wave():
        try:
            yield from manager.propagate_version(
                versions[1],
                retry_policy=ONE_SHOT,
                wave_policy=WavePolicy.abort_after(0),
            )
        except WaveAborted:
            aborted.append(True)
        where = f"{context} post-wave"
        assert_never_half_applied(manager, fleet.loids, where, versions)
        if manager.propagation(versions[1]).aborting:
            assert "wave-aborting" in [entry.kind for entry in fleet.journal.replay()]

    run_chaos(fleet, schedule, wave, versions, context, at=0.5, max_applied=2)
    if aborted:
        assert "wave-aborted" in [entry.kind for entry in fleet.journal.replay()]
        assert fleet.runtime.network.count_value("wave.aborts") >= 1


def serve_traffic(fleet, min_samples, duration_s):
    """Start open-loop traffic (30 req/s Poisson) from
    :data:`CLIENT_HOST` under an SLO of p99 ≤ 50 ms and ≤ 2 % errors;
    returns ``(monitor, load)``."""
    runtime = fleet.runtime
    slo = SLO(
        name="svc",
        latency_targets={0.99: 0.050},
        max_error_rate=0.02,
        min_samples=min_samples,
    )
    monitor = runtime.network.slo_monitor("svc", slo=slo, window_s=6.0)
    load = OpenLoopLoad(
        runtime.make_client(host_name=CLIENT_HOST),
        fleet.loids,
        PoissonArrivals(30.0),
        runtime.rng.stream("traffic"),
        monitor=monitor,
        duration_s=duration_s,
    )
    load.start()
    return monitor, load


class SweepRecord(dict):
    """Per-seed counts a sweep fills in and its aggregate test checks
    afterwards: some seed (``every``: each seed) must count above 0."""

    def __init__(self, failure, every=False):
        super().__init__()
        self.failure = failure
        self.every = every

    def check(self):
        assert self, "sweep did not run before the aggregate check"
        exercised = all if self.every else any
        assert exercised(count > 0 for count in self.values()), (
            f"{self.failure}: {dict(self)}"
        )
