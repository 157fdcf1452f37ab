"""Randomized chaos harness: crashes, partitions, and drops under load.

Building blocks for fault-tolerance tests and drills:

- :func:`crash_host` — a machine-level :meth:`Host.crash` plus the
  runtime-level reconciliation the machine cannot do itself: flipping
  the dead host's :class:`InstanceRecord`s inactive and deactivating
  the objects (including any class object / DCDO Manager homed there).
- :class:`ChaosCoordinator` — wires a :class:`CrashPlan`'s hooks to
  that reconciliation, and on restart recovers dead managers from
  their journals, then wakes the
  :class:`~repro.cluster.reconciler.Reconciler` it armed for each, which
  rebuilds crash-lost relays, ICOs and instances and converges them.
- :class:`ChaosSchedule` — a seeded, deterministic fault scenario
  (host outages, prefix partitions, drop rules) generated from one
  integer seed, so every chaos test run is reproducible.
- :func:`drive_to_convergence` — the heal phase: recover a dead
  manager, then wait on its reconciler until every surviving DCDO
  reaches the manager's current version.

Layering note: this module orchestrates *across* layers (cluster +
core), so core imports stay inside functions to keep the cluster
package importable on its own.
"""

from collections import namedtuple
from operator import attrgetter
from types import SimpleNamespace

from repro.cluster.host import CrashPlan
from repro.cluster.reconciler import Reconciler, armed_reconciler
from repro.net import (
    DropRule,
    DuplicateRule,
    LinkFlap,
    OneWayPartition,
    PrefixPartition,
    ReorderRule,
    SlowLink,
)
from repro.sim.rng import DeterministicRNG


def fleet_managers(runtime):
    """Class objects plus attached shard managers.

    Shards ``k >= 1`` of a :class:`ShardedManagerPlane` live outside
    the runtime's class table (only shard 0 is *the* class object for
    its type) but own instance records all the same, so crash and
    recovery reconciliation must walk them too.
    """
    managers = list(runtime.classes())
    seen = {id(manager) for manager in managers}
    for obj in list(runtime._objects.values()):
        if getattr(obj, "shard_id", None) is not None and id(obj) not in seen:
            managers.append(obj)
            seen.add(id(obj))
    return managers


def crash_host(runtime, host):
    """Fail-stop ``host`` and reconcile the runtime's object tables.

    Returns the LOIDs of instances that died.  Class objects homed on
    the host are deactivated too — their recovery (journal replay) is a
    separate, explicit act — and calls in flight to any object on it
    are abandoned.
    """
    host.crash()
    died = []
    for class_object in fleet_managers(runtime):
        for loid in class_object.instance_loids():
            record = class_object.record(loid)
            if record.host is host and record.active:
                class_object.instance_lost(loid)
                died.append(loid)
        if class_object.host is host and class_object.is_active:
            class_object.deactivate()
    # Objects the loop above did not deactivate (relays) die too.
    for obj in runtime.objects_on_host(host.name):
        obj.abandon_calls()
    return died


class ChaosCoordinator:
    """Runs crash/restart reconciliation for a fleet under test.

    ``journals`` maps ``type_name -> ManagerJournal`` for every manager
    that should be recoverable.  The coordinator arms a
    :class:`~repro.cluster.reconciler.Reconciler` for each; on a host
    restart it recovers the dead ones from their journals and wakes
    every reconciler.  A manager without a journal stays dead until its
    own host returns and someone rebuilds it by hand.  ``recovery_log``
    records manager recoveries and instance rebuilds, whoever drove
    them.
    """

    def __init__(self, runtime, journals=None):
        self.runtime = runtime
        self.journals = dict(journals or {})
        self.crash_plan = CrashPlan(
            runtime.sim, on_crash=self._on_crash, on_restart=self._on_restart
        )
        self.crash_log = []
        self.recovery_log = []
        self._recovering = set()
        self.reconcilers = [
            Reconciler(runtime, lambda name=name: runtime.class_of(name)).start()
            for name in self.journals
        ]
        runtime.network.bus.subscribe(
            "class.instance-recovered", self._on_instance_recovered
        )

    def _on_crash(self, host):
        died = crash_host(self.runtime, host)
        self.crash_log.append((self.runtime.sim.now, host.name, died))
        self.runtime.network.publish(
            "host.crashed", host.name, died=len(died)
        )

    def _on_instance_recovered(self, event):
        self.recovery_log.append((event.at, "instance", event.subject))

    def _on_restart(self, host):
        """Process body: recover dead journaled managers on the booted
        ``host``, then wake the reconcilers to repair the fleet."""
        from repro.core.recovery import recover_manager

        self.runtime.network.publish("host.restarted", host.name)
        for type_name, journal in self.journals.items():
            if type_name in self._recovering:
                continue
            if self.runtime.class_of(type_name).is_active:
                continue
            self._recovering.add(type_name)
            try:
                yield from recover_manager(
                    self.runtime, journal, host_name=host.name, resume=False
                )
                self.recovery_log.append(
                    (self.runtime.sim.now, "manager", type_name)
                )
            finally:
                self._recovering.discard(type_name)
        for reconciler in self.reconcilers:
            reconciler.wake()


# ----------------------------------------------------------------------
# Fault records.  Kinds that install the same fault share one shape.
# Times are offsets from install; hosts are host names.
# ----------------------------------------------------------------------

#: ``host`` is down from ``start`` until it restarts at ``end``.  With a
#: ``pick``, a live range move starts just before the crash (``pick``
#: selects the source shard when the victim homes none).
Outage = namedtuple("Outage", "host start end pick", defaults=(None,))
#: ``side_a`` and ``side_b`` cannot reach each other — or, ``one_way``,
#: traffic from ``side_a`` toward ``side_b`` is lost while the reverse
#: direction flows.
Partition = namedtuple(
    "Partition", "side_a side_b start end one_way", defaults=(False,)
)
#: At most ``count`` random messages are lost.
Drop = namedtuple("Drop", "count start end")
#: The links between ``host`` and ``rest`` are down ``down_s`` seconds
#: of every ``period_s``.
Flap = namedtuple("Flap", "host rest period_s down_s start end")
#: Messages between ``host`` and ``rest`` take ``extra_s`` longer, plus
#: up to ``jitter_s`` drawn from ``seed``.
Slowdown = namedtuple("Slowdown", "host rest extra_s jitter_s seed start end")
#: Any message is copied with ``probability``; the copy lands up to
#: ``spread_s`` seconds late.
Duplication = namedtuple("Duplication", "probability spread_s seed start end")
#: Any message is held back up to ``max_skew_s`` with ``probability``.
Reordering = namedtuple("Reordering", "probability max_skew_s seed start end")
#: ``host``'s CPU and NIC service times multiply by ``factor``.
Limp = namedtuple("Limp", "host factor start end")
#: Partition-map replica convergence runs ``extra`` seconds late.
Staleness = namedtuple("Staleness", "extra start end")
#: A version-quality regression, ``("latency", seconds)`` or
#: ``("errors", every_k)``.  Not installed: the harness stages it as a
#: degraded build (:func:`repro.workloads.generator.build_degraded_version`)
#: whose gated rollout must breach and roll back.
Degradation = namedtuple("Degradation", "kind amount")
#: At ``at`` the harness adopts a degraded build fleet-wide, outside any
#: canary.  Not installed: staging the build needs the manager, which
#: the reactive controller must then demote.
BadDeploy = namedtuple("BadDeploy", "at added_latency_s error_every")


# ----------------------------------------------------------------------
# Drawers: ``draw(rng, plan, most) -> [record, ...]``, one per fault
# kind.  ``rng`` is the kind's own stream, ``most`` the value of its
# count option; ``plan`` holds generate()'s arguments plus ``down``,
# the hosts earlier outage kinds crash.
# ----------------------------------------------------------------------


class _Plan(SimpleNamespace):
    def pool(self, names):
        """``names`` that exist, are not protected and are not down."""
        return [
            name
            for name in names
            if name in self.host_names
            and name not in self.protect
            and name not in self.down
        ]

    def window(self, rng, latest, shortest, longest, earliest=0.5):
        """``(start, end)``: a start in ``[earliest, latest x duration)``
        and a length of ``shortest`` s to ``longest x duration``."""
        start = rng.uniform(earliest, latest * self.duration_s)
        return start, start + rng.uniform(shortest, longest * self.duration_s)


def _count(rng, most):
    """How many faults a kind rolls: 1..``most``, none when off."""
    return rng.randint(1, most) if most > 0 else 0


def _victim(rng, hosts):
    victim = rng.choice(hosts)
    return victim, [name for name in hosts if name != victim]


def _outages(rng, plan, victims, earliest, latest):
    """Crash every victim in ``[earliest, latest)``; each restarts 5 s to
    0.4 x the duration later.  Marks the victims down for later kinds."""
    outages = []
    for host in victims:
        start = rng.uniform(earliest, latest)
        end = start + rng.uniform(5.0, plan.duration_s * 0.4)
        outages.append(Outage(host, start, end))
        plan.down.add(host)
    return outages


def _sampled_outages(rng, plan, hosts, most, earliest, latest):
    """Crash ``most`` of ``hosts`` (all when fewer may crash)."""
    pool = plan.pool(hosts)
    victims = rng.sample(pool, k=min(most, len(pool))) if most > 0 else []
    return _outages(rng, plan, victims, earliest, latest)


def _draw_crashes(rng, plan, most):
    pool = plan.pool(plan.host_names)
    if not pool or most <= 0:
        return []
    victims = rng.sample(pool, k=rng.randint(1, min(most, len(pool))))
    return _outages(rng, plan, victims, 1.0, plan.duration_s * 0.4)


def _draw_mid_apply_crashes(rng, plan, most):
    return _sampled_outages(rng, plan, plan.host_names, most, 0.6, 6.0)


def _draw_relay_crashes(rng, plan, most):
    return _sampled_outages(rng, plan, plan.relay_hosts, most, 0.5, 8.0)


def _draw_failovers(rng, plan, most):
    """Crash manager hosts in their listed order, chained: the first
    early, each next 8-20 s after the previous crash, so a supervisor
    always chases the *current* primary."""
    crash_at = rng.uniform(0.5, 6.0)
    outages = []
    for host in plan.pool(plan.manager_hosts)[:most]:
        end = crash_at + rng.uniform(10.0, plan.duration_s * 0.35)
        outages.append(Outage(host, crash_at, end))
        plan.down.add(host)
        crash_at += rng.uniform(8.0, 20.0)
    return outages


def _draw_shard_crashes(rng, plan, most):
    return _sampled_outages(rng, plan, plan.shard_hosts, most, 0.5, 8.0)


def _draw_rebalance_crashes(rng, plan, most):
    outages = _sampled_outages(rng, plan, plan.shard_hosts, most, 1.0, 8.0)
    return [outage._replace(pick=rng.random()) for outage in outages]


def _draw_partitions(rng, plan, most):
    hosts = plan.host_names
    partitions = []
    for __ in range(rng.randint(0, most) if len(hosts) >= 2 else 0):
        shuffled = rng.sample(hosts, len(hosts))
        cut = rng.randint(1, len(hosts) - 1)
        window = plan.window(rng, 0.5, 2.0, 0.4, earliest=0.0)
        partitions.append(Partition(shuffled[:cut], shuffled[cut:], *window))
    return partitions


def _draw_ico_partitions(rng, plan, most):
    ico = [name for name in plan.ico_hosts if name in plan.host_names]
    others = [name for name in plan.host_names if name not in ico]
    if not (ico and others):
        return []
    return [
        Partition(ico, others, *plan.window(rng, 0.25, 5.0, 0.5, earliest=0.0))
        for __ in range(_count(rng, most))
    ]


def _draw_manager_partitions(rng, plan, most):
    """Isolate the first manager host: the split-brain shape."""
    managers = [name for name in plan.manager_hosts if name in plan.host_names]
    if not managers or len(plan.host_names) < 2:
        return []
    rest = [name for name in plan.host_names if name != managers[0]]
    return [
        Partition([managers[0]], rest, *plan.window(rng, 0.2, 6.0, 0.35))
        for __ in range(_count(rng, most))
    ]


def _draw_drops(rng, plan, most):
    drops = []
    for __ in range(rng.randint(0, most)):
        start = rng.uniform(0.0, plan.duration_s * 0.6)
        drops.append(Drop(rng.randint(1, 4), start, start + rng.uniform(1.0, 20.0)))
    return drops


def _repeated(one, min_hosts=0):
    """A drawer rolling 1..``most`` records, each drawn by
    ``one(rng, plan)`` — none with fewer than ``min_hosts`` hosts."""

    def draw(rng, plan, most):
        if len(plan.host_names) < min_hosts:
            return []
        return [one(rng, plan) for __ in range(_count(rng, most))]

    return draw


def _degradation(rng, plan):
    if rng.random() < 0.5:
        return Degradation("latency", round(rng.uniform(0.1, 0.5), 3))
    return Degradation("errors", rng.randint(1, 3))


def _one_way(rng, plan):
    victim, rest = _victim(rng, plan.host_names)
    window = plan.window(rng, 0.4, 5.0, 0.4)
    # The victim goes mute (its sends vanish) or deaf (nothing reaches it).
    sides = ([victim], rest) if rng.random() < 0.5 else (rest, [victim])
    return Partition(*sides, *window, one_way=True)


def _flap(rng, plan):
    victim, rest = _victim(rng, plan.host_names)
    period = rng.uniform(2.0, 10.0)
    down = period * rng.uniform(0.2, 0.6)
    return Flap(victim, rest, period, down, *plan.window(rng, 0.4, 8.0, 0.4))


def _slowdown(rng, plan):
    victim, rest = _victim(rng, plan.host_names)
    extra, jitter = rng.uniform(0.05, 0.3), rng.uniform(0.0, 0.2)
    window = plan.window(rng, 0.4, 5.0, 0.4)
    return Slowdown(victim, rest, extra, jitter, rng.randrange(2**32), *window)


def _duplication(rng, plan):
    probability, spread = rng.uniform(0.05, 0.3), rng.uniform(0.005, 0.05)
    window = plan.window(rng, 0.5, 5.0, 0.4, earliest=0.0)
    return Duplication(probability, spread, rng.randrange(2**32), *window)


def _reordering(rng, plan):
    probability, skew = rng.uniform(0.05, 0.3), rng.uniform(0.002, 0.02)
    window = plan.window(rng, 0.5, 5.0, 0.4, earliest=0.0)
    return Reordering(probability, skew, rng.randrange(2**32), *window)


def _limp(rng, plan):
    host, factor = rng.choice(plan.host_names), round(rng.uniform(2.0, 8.0), 2)
    return Limp(host, factor, *plan.window(rng, 0.4, 5.0, 0.4))


def _draw_flaky_limps(rng, plan, most):
    """Limps drawn from the instance-bearing hosts, so quarantine and
    migrate-off-flaky-host remediation actually trigger."""
    pool = [name for name in plan.instance_hosts if name in plan.host_names]
    return [
        Limp(
            rng.choice(pool),
            round(rng.uniform(4.0, 10.0), 2),
            *plan.window(rng, 0.3, 10.0, 0.5),
        )
        for __ in range(_count(rng, most) if pool else 0)
    ]


def _staleness(rng, plan):
    extra = round(rng.uniform(0.1, 1.5), 3)
    return Staleness(extra, *plan.window(rng, 0.4, 2.0, 0.3, earliest=0.0))


def _bad_deploy(rng, plan):
    at = rng.uniform(1.0, plan.duration_s * 0.3)
    if rng.random() < 0.5:
        return BadDeploy(at, round(rng.uniform(0.2, 1.0), 3), 0)
    return BadDeploy(at, 0.0, rng.randint(2, 4))


_draw_degradations = _repeated(_degradation)
_draw_one_way = _repeated(_one_way, min_hosts=2)
_draw_flaps = _repeated(_flap, min_hosts=2)
_draw_slow_links = _repeated(_slowdown, min_hosts=2)
_draw_duplicates = _repeated(_duplication)
_draw_reorders = _repeated(_reordering)
_draw_limps = _repeated(_limp, min_hosts=1)
_draw_map_staleness = _repeated(_staleness)
_draw_bad_deploys = _repeated(_bad_deploy)


# ----------------------------------------------------------------------
# Installers: ``install(fault, runtime, coordinator, plane)`` arms one
# record whose times install has already rebased to absolute.
# ----------------------------------------------------------------------


def _prefixes(hosts):
    return [f"{name}/" for name in hosts]


def _install_outage(fault, runtime, coordinator, plane):
    host = runtime.host(fault.host)
    coordinator.crash_plan.schedule_outage(host, fault.start, fault.end)
    if fault.pick is not None and plane is not None:
        runtime.sim.spawn(
            live_range_move(runtime, plane, fault.start, fault.host, fault.pick),
            name=f"rebalance:{fault.host}@{fault.start:g}",
        )


def _install_partition(fault, runtime, coordinator, plane):
    rule = OneWayPartition if fault.one_way else PrefixPartition
    runtime.network.faults.add_partition(
        rule(_prefixes(fault.side_a), _prefixes(fault.side_b), fault.start, fault.end)
    )


def _rule(add, rule):
    """An installer building ``rule`` from the record's fields (they
    share names) and adding it with the fault plan's ``add`` method."""

    def install(fault, runtime, coordinator, plane):
        getattr(runtime.network.faults, add)(rule(**fault._asdict()))

    return install


def _link_rule(add, rule, tag):
    """An installer for ``rule`` between ``host`` and the ``rest``,
    labelled ``tag:host``; the record's other fields pass by name."""

    def install(fault, runtime, coordinator, plane):
        fields = fault._asdict()
        host, rest = fields.pop("host"), fields.pop("rest")
        link = rule(_prefixes([host]), _prefixes(rest), label=f"{tag}:{host}", **fields)
        getattr(runtime.network.faults, add)(link)

    return install


def _install_limp(fault, runtime, coordinator, plane):
    runtime.sim.spawn(
        _limp_window(runtime, fault.host, fault.factor, fault.start, fault.end),
        name=f"limp:{fault.host}@{fault.start:g}",
    )


def _install_staleness(fault, runtime, coordinator, plane):
    # Staleness windows act on a sharded plane's map; without one there
    # is nothing to delay.
    if plane is not None:
        plane.map.add_staleness_window(fault.extra, fault.start, fault.end)


def _limp_window(runtime, host_name, factor, start, end):
    """Process body: degrade a host's service times, then heal."""
    sim = runtime.sim
    yield sim.timeout(start - sim.now, daemon=True)
    host = runtime.host(host_name)
    host.set_limp(factor, slow_nic=True)
    yield sim.timeout(end - sim.now, daemon=True)
    host.clear_limp()


def live_range_move(runtime, plane, at, victim=None, pick=0.0):
    """Process body: move half a shard's first span onto the next shard.

    Fires a hair *before* ``at`` — so a crash of ``victim`` at ``at``
    lands inside the handoff's per-row copy window, while rows are
    still in flight.  The source shard is the one homed on ``victim``
    when there is one (the crash then always hits a handoff
    participant); ``pick`` deterministically selects otherwise, and the
    target is the source's successor in shard id order.  Aborted
    handoffs (dead source or target) are chaos working as intended,
    not an error.
    """
    from repro.core.shardplane import HandoffAborted
    from repro.legion.errors import LegionError
    from repro.net import TransportError

    sim = runtime.sim
    lead = min(0.0002, max(0.0, at - sim.now))
    yield sim.timeout(max(0.0, at - sim.now - lead), daemon=True)
    shard_ids = sorted(plane.shard_ids)
    if len(shard_ids) < 2:
        return
    source = None
    for shard_id in shard_ids:
        manager = plane.shards.get(shard_id)
        if manager is not None and manager.host.name == victim:
            source = shard_id
            break
    if source is None:
        source = shard_ids[int(pick * len(shard_ids)) % len(shard_ids)]
    target = shard_ids[(shard_ids.index(source) + 1) % len(shard_ids)]
    spans = plane.map.current.spans_of(source)
    if not spans:
        return
    lo, hi = spans[0]
    if hi - lo < 2:
        return
    half = (lo + (hi - lo) // 2, hi)
    try:
        yield from plane.move_range(half, target, mode="fast")
    except (HandoffAborted, LegionError, TransportError, ValueError, KeyError):
        # The crash landed mid-handoff and aborted it — exactly the
        # scenario this kind exists to exercise.
        return


# ----------------------------------------------------------------------
# The table: one entry per fault kind, keyed by its stream name.  Order
# matters only for crash victims: an outage kind skips hosts an earlier
# one already takes down.
# ----------------------------------------------------------------------

#: ``option`` is the :meth:`ChaosSchedule.generate` argument bounding
#: how many the kind rolls, ``draw(rng, plan, most)`` rolls them,
#: ``install`` arms one (None: the harness stages it), ``ends(record)``
#: is the offset by which it has cleared.
FaultKind = namedtuple("FaultKind", "option draw install ends")

_ends = attrgetter("end")

FAULT_KINDS = {
    "crashes": FaultKind("max_crashes", _draw_crashes, _install_outage, _ends),
    "mid_apply_crashes": FaultKind(
        "mid_apply_crashes", _draw_mid_apply_crashes, _install_outage, _ends
    ),
    "relay_crashes": FaultKind(
        "max_relay_crashes", _draw_relay_crashes, _install_outage, _ends
    ),
    "failovers": FaultKind("max_failovers", _draw_failovers, _install_outage, _ends),
    "shard_crashes": FaultKind(
        "max_shard_crashes", _draw_shard_crashes, _install_outage, _ends
    ),
    "rebalance_crashes": FaultKind(
        "mid_rebalance_crashes", _draw_rebalance_crashes, _install_outage, _ends
    ),
    "partitions": FaultKind(
        "max_partitions", _draw_partitions, _install_partition, _ends
    ),
    "ico_partitions": FaultKind(
        "max_ico_partitions", _draw_ico_partitions, _install_partition, _ends
    ),
    "manager_partitions": FaultKind(
        "max_manager_partitions", _draw_manager_partitions, _install_partition, _ends
    ),
    "drops": FaultKind(
        "max_drops", _draw_drops, _rule("add_drop_rule", DropRule), _ends
    ),
    "degradations": FaultKind(
        "max_degradations", _draw_degradations, None, lambda fault: 0.0
    ),
    "one_way": FaultKind("gray_one_way", _draw_one_way, _install_partition, _ends),
    "flaps": FaultKind(
        "gray_flaps", _draw_flaps, _link_rule("add_partition", LinkFlap, "flap"), _ends
    ),
    "slow_links": FaultKind(
        "gray_slow_links",
        _draw_slow_links,
        _link_rule("add_delay_rule", SlowLink, "slow"),
        _ends,
    ),
    "duplicates": FaultKind(
        "gray_duplicates",
        _draw_duplicates,
        _rule("add_duplicate_rule", DuplicateRule),
        _ends,
    ),
    "reorders": FaultKind(
        "gray_reorders", _draw_reorders, _rule("add_delay_rule", ReorderRule), _ends
    ),
    "limps": FaultKind("gray_limps", _draw_limps, _install_limp, _ends),
    "flaky_limps": FaultKind(
        "max_flaky_limps", _draw_flaky_limps, _install_limp, _ends
    ),
    "map_staleness": FaultKind(
        "max_map_staleness", _draw_map_staleness, _install_staleness, _ends
    ),
    "bad_deploys": FaultKind(
        "max_bad_deploys", _draw_bad_deploys, None, attrgetter("at")
    ),
}


class ChaosSchedule:
    """A deterministic fault scenario generated from one seed.

    ``faults`` maps every :data:`FAULT_KINDS` name to that kind's
    records (see the record shapes above); each kind also reads as an
    attribute, e.g. ``schedule.crashes``.  :meth:`records` gathers one
    shape across kinds — every host outage, say, whichever kind drew it.
    """

    def __init__(self, **faults):
        unknown = set(faults) - set(FAULT_KINDS)
        if unknown:
            raise TypeError(f"unknown fault kinds: {sorted(unknown)}")
        self.faults = {name: list(faults.get(name, ())) for name in FAULT_KINDS}
        #: Simulated time :meth:`install` rebased the offsets onto.
        self.installed_at = None

    def __getattr__(self, name):
        faults = self.__dict__.get("faults", {})
        if name in faults:
            return faults[name]
        raise AttributeError(name)

    @classmethod
    def generate(
        cls,
        seed,
        host_names,
        duration_s=120.0,
        max_crashes=2,
        max_partitions=1,
        max_drops=2,
        protect=(),
        ico_hosts=(),
        max_ico_partitions=0,
        mid_apply_crashes=0,
        relay_hosts=(),
        max_relay_crashes=0,
        manager_hosts=(),
        max_manager_partitions=0,
        max_failovers=0,
        max_degradations=0,
        gray_one_way=0,
        gray_flaps=0,
        gray_slow_links=0,
        gray_duplicates=0,
        gray_reorders=0,
        gray_limps=0,
        shard_hosts=(),
        max_shard_crashes=0,
        max_map_staleness=0,
        mid_rebalance_crashes=0,
        instance_hosts=(),
        max_bad_deploys=0,
        max_flaky_limps=0,
    ):
        """Roll a scenario; every kind draws from its own stream,
        ``DeterministicRNG(seed).stream(kind)``.

        Enabling or disabling one kind therefore never shifts another
        kind's draws.  The one exception is crash victims: an outage
        kind never picks a host that ``protect`` names or an earlier
        outage kind already takes down.  Every kind but the first three
        defaults off.

        Options and the kinds they turn on (``n`` is the option value):

        - ``max_crashes``: ``crashes``, 1..n random host outages;
          ``max_partitions`` and ``max_drops``: ``partitions`` (random
          two-way splits) and ``drops`` (bounded random-loss windows),
          0..n each.
        - ``max_ico_partitions``: ``ico_partitions`` cut ``ico_hosts``
          off early, so prepare-phase fetches fail and roll back.
        - ``mid_apply_crashes``: crash hosts in the first seconds, while
          prepare/commit work is typically in flight.
        - ``max_relay_crashes``: ``relay_crashes`` of ``relay_hosts``
          while a batch is typically in flight.
        - ``max_manager_partitions``: ``manager_partitions`` isolate the
          first of ``manager_hosts`` (split brain); ``max_failovers``:
          ``failovers`` crash ``manager_hosts`` in chained succession.
        - ``max_degradations``: ``degradations``, builds to stage.
        - ``gray_one_way``, ``gray_flaps``, ``gray_slow_links``,
          ``gray_duplicates``, ``gray_reorders``, ``gray_limps``: the
          gray kinds ``one_way``, ``flaps``, ``slow_links``,
          ``duplicates``, ``reorders`` and ``limps``.
        - ``max_shard_crashes``, ``max_map_staleness``,
          ``mid_rebalance_crashes``: crash ``shard_hosts``, delay map
          convergence, crash a ``shard_hosts`` host mid range move.
        - ``max_bad_deploys``: ``bad_deploys``, unguarded degraded
          rollouts; ``max_flaky_limps``: ``flaky_limps`` on
          ``instance_hosts``.

        Rules that need per-message randomness (slow-link jitter,
        duplication, reordering) carry a sub-seed drawn here, keeping
        the whole scenario a pure function of ``seed``.
        """
        options = dict(locals())
        del options["cls"]
        plan = _Plan(**{**options, "host_names": list(host_names)}, down=set())
        rng = DeterministicRNG(seed)
        return cls(
            **{
                name: kind.draw(rng.stream(name), plan, options[kind.option])
                for name, kind in FAULT_KINDS.items()
            }
        )

    def records(self, *shapes):
        """Every record of the given shapes, across all kinds."""
        return [
            fault
            for faults in self.faults.values()
            for fault in faults
            if isinstance(fault, shapes)
        ]

    @property
    def heal_time(self):
        """Time by which every fault has cleared (absolute once
        installed; an offset from install before that)."""
        ends = [
            FAULT_KINDS[name].ends(fault)
            for name, faults in self.faults.items()
            for fault in faults
        ]
        return max([0.0, *ends]) + (self.installed_at or 0.0)

    def install(self, runtime, coordinator, plane=None):
        """Arm the scenario on ``runtime`` via ``coordinator``'s plan.

        Generated times are *offsets*; they are rebased onto the
        current simulated time here, so a scenario can be installed on
        a testbed that has already been running.  ``plane`` is an
        optional :class:`ShardedManagerPlane`: map staleness windows and
        mid-rebalance range moves need it and are skipped without it
        (the rebalance crash itself still lands).
        """
        base = self.installed_at = runtime.sim.now
        for name, faults in self.faults.items():
            install = FAULT_KINDS[name].install
            for fault in faults if install is not None else ():
                rebased = fault._replace(start=base + fault.start, end=base + fault.end)
                install(rebased, runtime, coordinator, plane)

    def __repr__(self):
        counts = " ".join(
            f"{name}={len(faults)}" for name, faults in self.faults.items() if faults
        )
        return f"<ChaosSchedule {counts or 'no faults'}>"


#: Acting reconcile rounds :func:`drive_to_convergence` waits through.
DRIVE_ROUNDS = 8


def drive_to_convergence(runtime, type_name, journal=None, retry_policy=None):
    """Generator: bring the authority back, then wait on its reconciler.

    Meant for *after* faults heal.  A dead manager is recovered from
    ``journal`` first.  Then the reconciler serving the type — armed
    for this call, spacing its waves by ``retry_policy``, when nobody
    has — is woken round after round until the fleet converges or
    :data:`DRIVE_ROUNDS` rounds have acted (rounds that found a wave
    in flight and left the fleet to it do not count).  Returns True
    once every instance outside an open canary is live at the
    manager's current version.
    """
    from repro.core.recovery import recover_manager

    manager = runtime.class_of(type_name)
    reconciler = armed_reconciler(runtime, manager.replication_scope)
    own = reconciler is None
    if own:
        reconciler = Reconciler(
            runtime, lambda: runtime.class_of(type_name), retry_policy
        ).start()
    try:
        if not manager.is_active:
            if journal is None:
                raise RuntimeError(
                    f"manager for {type_name!r} is dead and no journal was given"
                )
            yield from recover_manager(runtime, journal, resume=False)
        rounds = 0
        while True:
            reconciler.wake()
            rounds += yield reconciler.finished.wait()
            if rounds >= DRIVE_ROUNDS or reconciler.converged():
                return reconciler.converged()
    finally:
        if own:
            reconciler.stop()
