"""Level-triggered convergence: one reconciler per manager authority.

The paper's manager propagates the current version to its instances
(§3.3, proactive single-version policy).  Under faults that job needs a
loop that keeps at it until the fleet converges — and exactly one such
loop per authority, so two of them never fight over the same
instances.  A :class:`Reconciler` is that loop, in the shape of the
Kubernetes controller (Burns et al., "Borg, Omega, and Kubernetes",
ACM Queue 2016): it compares observed state with desired state and
acts on the difference, every round, however it got there.  Each
round:

1. follows the live authority — a promotion or a recovery hands it a
   new manager object — and gives a new one the relay route it holds;
2. repairs what can be repaired: the route's dead relays, dead ICOs,
   and crash-lost instances on hosts that are up;
3. unless a wave is already in flight, finishes journaled open or
   aborting waves (``resume_propagations``), then diffs instance
   versions against the designation — canary-frozen instances
   excluded — and drives at most one ``WavePolicy.converge()`` wave
   over the live instances that differ.

Rounds run on a daemon timer every :data:`RECONCILE_PERIOD_S`, and any
``host.``, ``class.`` or ``manager.`` event wakes an idle reconciler
early.  The events are only hints: a round re-reads everything it acts
on, so drift that nobody announced is repaired by the next timed
round, and a round on a converged fleet sends no message and commits
no journal entry.

A :class:`~repro.cluster.supervisor.Supervisor` arms one for the
authority it promotes, a :class:`~repro.cluster.chaos.ChaosCoordinator`
one for each journaled type it recovers, and
:func:`~repro.cluster.chaos.drive_to_convergence` one for its call
when nobody has.  An unsupervised manager runs none, so the paper's
lazy and explicit update policies behave as written.
"""

from repro.cluster.relay import restore_relays
from repro.legion.errors import LegionError
from repro.net import TransportError
from repro.sim import AnyOf, Signal

#: Seconds between timed rounds.
RECONCILE_PERIOD_S = 15.0
#: A woken reconciler waits this long before its round, so a burst of
#: events makes one round and a wave the event announces starts first.
WAKE_SETTLE_S = 0.5
#: Topic prefixes that wake an idle reconciler.
WAKE_TOPICS = ("host.", "class.", "manager.")


def armed_reconciler(runtime, scope):
    """The reconciler serving authority ``scope`` on ``runtime``, or None."""
    return _registry(runtime).get(scope)


def _registry(runtime):
    return vars(runtime).setdefault("_reconcilers", {})


class Reconciler:
    """Drives one manager authority's fleet to its designated version.

    ``authority()`` returns the current manager, live or not; the
    reconciler serves its ``replication_scope`` and holds the relay
    route that manager has now.  ``retry_policy`` spaces the waves it
    drives (default: the manager's).
    """

    def __init__(self, runtime, authority, retry_policy=None):
        self.runtime = runtime
        self._authority = authority
        self.retry_policy = retry_policy
        manager = authority()
        self.scope = manager.replication_scope
        #: ``use_relays`` arguments given to every new authority.
        self.route = manager.relay_route
        self._routed = manager
        #: Fires at the end of every round with whether the round got
        #: past the in-flight check (False: a wave was under way).
        self.finished = Signal(runtime.sim, f"reconciled:{self.scope}")
        self._wakeup = None
        #: The manager whose waves the reconciler is running, if any.
        self._waving = None
        self._stopped = False

    def start(self):
        """Register, subscribe and spawn the loop; returns self."""
        registry = _registry(self.runtime)
        if self.scope in registry:
            raise ValueError(f"a reconciler already serves {self.scope!r}")
        registry[self.scope] = self
        for topic in WAKE_TOPICS:
            self.runtime.network.bus.subscribe(topic, self.wake)
        self.runtime.sim.spawn(self._run(), name=f"reconciler:{self.scope}")
        return self

    def stop(self):
        self._stopped = True
        if _registry(self.runtime).get(self.scope) is self:
            del _registry(self.runtime)[self.scope]
        for topic in WAKE_TOPICS:
            self.runtime.network.bus.unsubscribe(topic, self.wake)

    def wake(self, event=None):
        """Run a round soon, if idle; events during a round are ignored."""
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def converged(self):
        """A live authority with no wave in flight, and every instance
        not canary-frozen live at the designated version."""
        manager = self._follow()
        return manager is not None and not (
            manager.waves_in_flight or self._behind(manager)
        )

    # ------------------------------------------------------------------

    def _run(self):
        sim = self.runtime.sim
        while not self._stopped:
            self._wakeup = wakeup = sim.event()
            timer = sim.timeout(RECONCILE_PERIOD_S, daemon=True)
            yield AnyOf(sim, [timer, wakeup])
            if wakeup.triggered:
                timer.cancel()
                yield sim.timeout(WAKE_SETTLE_S)
            self._wakeup = None
            if self._stopped:
                return
            acted = yield from self._round()
            self.finished.fire(acted)

    def _follow(self):
        """The live authority, routed; None while there is none."""
        manager = self._authority()
        if self._stopped or not manager.is_active or manager.deposed:
            return None
        if manager is not self._routed:
            self._routed = manager
            if self.route:
                manager.use_relays(**self.route)
        return manager

    def _behind(self, manager):
        """Instances that are dead or off the designated version,
        except those an open canary admitted: its gate runner owns
        them, and converging them would undo the rollout it judges."""
        current = manager.current_version
        frozen = manager.canary_frozen_loids()
        versions = manager.state.instance_versions
        return [
            loid
            for loid in manager.instance_loids()
            if loid not in frozen
            and (not manager.record(loid).active or versions.get(loid) != current)
        ]

    def _repairs(self, manager):
        """One generator per repair the fleet needs now."""
        repairs = []
        if self.route:
            directory, roster = self.route["directory"], self.route["roster_id"]
            repairs.append(restore_relays(self.runtime, directory, roster_id=roster))
        repairs.append(manager.restore_components())
        for loid in manager.instance_loids():
            record = manager.record(loid)
            if not record.active and record.host.is_up:
                repairs.append(manager.recover_instance(loid))
        return repairs

    def _round(self):
        """Generator: one sense/act pass; returns False if it left the
        fleet to a wave already in flight."""
        manager = self._follow()
        if manager is None:
            return True
        # Each repair stands alone: an ICO still cut off behind a
        # partition must not keep the reachable instances behind.
        for repair in self._repairs(manager):
            try:
                yield from repair
            except (ValueError, LegionError, TransportError):
                pass  # recovered concurrently, or still unreachable
            if self._follow() is not manager:
                return True
        if manager.waves_in_flight or self._waving is manager:
            return False
        # The waves run in a process of their own, so a wave stalled on
        # a long reply timeout never holds up the next rounds' repairs.
        self._waving = manager
        self.runtime.sim.spawn(
            self._converge(manager), name=f"reconcile-wave:{self.scope}"
        )
        return True

    def _converge(self, manager):
        """Process body: finish journaled waves, then converge the drift."""
        from repro.core.manager import WavePolicy

        try:
            yield from manager.resume_propagations(self.retry_policy)
            drift = [
                loid for loid in self._behind(manager) if manager.record(loid).active
            ]
            if drift and self._follow() is manager:
                self.runtime.network.count("reconciler.converge_waves")
                yield from manager.propagate_version(
                    manager.current_version,
                    loids=drift,
                    retry_policy=self.retry_policy,
                    wave_policy=WavePolicy.converge(),
                )
        except (LegionError, TransportError):
            pass  # unhealthy, or fenced: the next round looks again
        finally:
            if self._waving is manager:
                self._waving = None

    def __repr__(self):
        return f"<Reconciler {self.scope}{' stopped' if self._stopped else ''}>"
