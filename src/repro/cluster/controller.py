"""The reactive self-healing controller: sense → decide → act.

The paper's configuration manager is an *actuator*: it can evolve,
migrate, and roll back a fleet, but only when an operator tells it to.
Every fault-tolerance layer grown since (supervisor failover, canary
gates, gray-failure quarantine) reacts to one hazard it was built for.
The :class:`ReactiveController` closes the remaining loop: a daemon
per manager plane that *senses* degradation signals (health-score
transitions, SLO breaches, detector suspicions, crash/restart events —
all via the :class:`~repro.obs.bus.EventBus`), *decides* what to do
through pluggable :mod:`~repro.core.policies.remediation` policies,
and *acts* exclusively through the existing transactional machinery.

Safety is layered, in order of evaluation each tick:

1. **Liveness/identity** — the controller re-resolves the live manager
   every tick; on identity change (a promotion happened) it first
   garbage-collects intents the old term left open.
2. **Lease** — a plane-level remediation lease, journaled on the
   manager and fenced by its term.  A zombie controller still holding
   a lease minted under the deposed primary's term finds
   ``holds_remediation_lease`` false against the promotee and goes
   quiet; the promoted supervisor can never fight a ghost.
3. **Rate limits** — a token budget per sliding window plus a
   per-(policy, target) cooldown keep a flapping signal from turning
   into remediation churn (the oscillation amplifier every reactive
   controller must not become).
4. **Intent journaling** — every admitted action is write-ahead logged
   (``begin_remediation``) before its first RPC and closed after, so a
   recovered manager knows exactly which automated actions were in
   flight and ``gc_remediations`` can orphan the unfinishable ones.

The controller changes desired state (designation, placement) and
never waits for convergence: driving the fleet to the designation is
the supervisor's :class:`~repro.cluster.reconciler.Reconciler`'s job,
and a demotion raised mid-convergence simply moves the target that
reconciler converges to.
"""

from collections import deque

from repro.core.policies.remediation import default_remediation_policies

#: EWMA smoothing for per-shard wave durations (RebalanceHotShard's
#: signal).  0.3 ≈ the last ~5 waves dominate.
_WAVE_EWMA_ALPHA = 0.3


class ReactiveController:
    """Self-healing daemon for one manager plane.

    Parameters
    ----------
    runtime:
        The legion runtime hosting the managed type.
    type_name:
        The DCDO type to watch; the live manager is re-resolved from
        the runtime's class registry every tick, so promotions are
        followed automatically.
    plane:
        Optional :class:`~repro.core.shardplane.ShardedManagerPlane`;
        enables shard policies and makes the lease live on the lowest
        live shard's manager.
    supervisor:
        Optional supervisor whose promoted manager is the live one.
    policies:
        Remediation policies, default the full registry
        (:func:`default_remediation_policies`).
    interval_s / lease_ttl_s:
        Tick period and lease time-to-live.  The lease is renewed
        every tick, so ``lease_ttl_s`` only matters across controller
        death: it bounds how long the plane stays formally "owned" by
        a remediator that stopped renewing.
    budget / budget_window_s:
        At most ``budget`` remediation actions per sliding window.
    """

    def __init__(
        self,
        runtime,
        type_name,
        plane=None,
        supervisor=None,
        policies=None,
        interval_s=1.0,
        lease_ttl_s=30.0,
        budget=4,
        budget_window_s=60.0,
        name=None,
    ):
        self.runtime = runtime
        self.type_name = type_name
        self.plane = plane
        self.supervisor = supervisor
        self.policies = (
            list(policies) if policies is not None else default_remediation_policies()
        )
        self.interval_s = interval_s
        self.lease_ttl_s = lease_ttl_s
        self.budget = budget
        self.budget_window_s = budget_window_s
        self.name = name or f"controller:{type_name}"

        #: Remediation timeline: one dict per executed intent
        #: (at/policy/kind/target/outcome/result) — the drill example
        #: and reports print this.
        self.remediation_log = []
        #: shard_id -> {"ewma": s, "samples": n} wave-duration stats,
        #: folded from ``wave.complete`` events.
        self.shard_wave_stats = {}

        self._inbox = deque(maxlen=512)
        #: (pattern, callback) pairs held on the bus while started.
        self._subscriptions = []
        self._cooldowns = {}  # (policy, target) -> last action time
        self._recent_actions = deque()  # admission times, for the budget
        self._last_manager = None
        self._intent_seq = 0
        self._stopped = False
        self._process = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Subscribe to the bus and spawn the control loop; returns self."""
        self._subscribe()
        self._process = self.runtime.sim.spawn(
            self._run(), name=f"controller:{self.type_name}"
        )
        return self

    def stop(self):
        """Stop the loop and release the lease on the live manager.

        Intents an older term left open are orphaned first: the tick
        that would have collected them after a promotion never runs.
        """
        self._stopped = True
        bus = self.runtime.network.bus
        for pattern, callback in self._subscriptions:
            bus.unsubscribe(pattern, callback)
        self._subscriptions = []
        manager = self._resolve_manager()
        if manager is not None and not manager.deposed:
            manager.gc_remediations()
            manager.release_remediation_lease(self.name)

    # ------------------------------------------------------------------
    # Sense
    # ------------------------------------------------------------------

    def _subscribe(self):
        """Subscribe to the topics the policies read, and no others.

        Per-instance events (``dcdo.evolved``, ``manager.*`` commits)
        far outnumber the signals; a catch-all subscription would push
        an ``slo.breach`` out of the bounded inbox before a tick reads
        it.
        """
        if self._subscriptions:
            return
        patterns = dict.fromkeys(
            topic for policy in self.policies for topic in policy.topics
        )
        self._subscriptions = [(pattern, self._inbox.append) for pattern in patterns]
        self._subscriptions.append(("wave.complete", self._on_wave_complete))
        bus = self.runtime.network.bus
        for pattern, callback in self._subscriptions:
            bus.subscribe(pattern, callback)

    def _on_wave_complete(self, event):
        """Fold one wave's duration into its shard's EWMA."""
        shard_id = event.details.get("shard_id")
        duration = event.details.get("duration_s")
        if shard_id is not None and duration is not None:
            entry = self.shard_wave_stats.setdefault(
                shard_id, {"ewma": 0.0, "samples": 0}
            )
            if entry["samples"] == 0:
                entry["ewma"] = duration
            else:
                entry["ewma"] += _WAVE_EWMA_ALPHA * (duration - entry["ewma"])
            entry["samples"] += 1

    def _drain(self):
        events = list(self._inbox)
        self._inbox.clear()
        return events

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def _run(self):
        sim = self.runtime.sim
        while not self._stopped:
            yield sim.timeout(self.interval_s, daemon=True)
            if self._stopped:
                break
            try:
                yield from self._tick()
            except Exception:
                # A tick must never kill the daemon: the failed action
                # was journaled and will be orphaned/repaired; the next
                # tick senses whatever state the failure left behind.
                self.runtime.network.count("controller.tick_errors")

    def _resolve_manager(self):
        if self.plane is not None:
            ids = self.plane.shard_ids
            if not ids:
                return None
            return self.plane.shards.get(ids[0])
        if self.supervisor is not None and self.supervisor.manager is not None:
            return self.supervisor.manager
        try:
            return self.runtime.class_of(self.type_name)
        except Exception:
            return None

    def _tick(self):
        network = self.runtime.network
        manager = self._resolve_manager()
        if manager is None or manager.deposed or not manager.is_active:
            network.count("controller.skipped_no_manager")
            return
        if manager is not self._last_manager:
            # New identity ⇒ a promotion or recovery happened since we
            # last acted.  Orphan whatever the old term left open
            # before deciding anything against the new primary.
            if self._last_manager is not None:
                orphaned = manager.gc_remediations()
                if orphaned:
                    network.count("controller.gc_orphaned", len(orphaned))
            self._last_manager = manager
        if not manager.acquire_remediation_lease(self.name, ttl_s=self.lease_ttl_s):
            network.count("controller.lease_denied")
            return

        events = self._drain()
        ctx = ControllerContext(
            runtime=self.runtime,
            manager=manager,
            plane=self.plane,
            controller=self,
            events=events,
        )
        for policy in self.policies:
            try:
                intents = policy.evaluate(ctx)
            except Exception:
                network.count("controller.evaluate_errors")
                continue
            for intent in intents:
                if self._stopped:
                    return
                # Decisions are stale the moment an earlier intent in
                # this same tick acted; re-verify lease and liveness
                # between actions.
                if manager.deposed or not manager.holds_remediation_lease(self.name):
                    network.count("controller.lease_lost")
                    return
                if not self._admit(intent, policy):
                    continue
                yield from self._execute(ctx, policy, intent)

    # ------------------------------------------------------------------
    # Decide: admission control
    # ------------------------------------------------------------------

    def _admit(self, intent, policy):
        network = self.runtime.network
        now = self.runtime.sim.now
        last = self._cooldowns.get(intent.cooldown_key)
        if last is not None and now - last < policy.cooldown_s:
            network.count("controller.rate_limited")
            return False
        while self._recent_actions and now - self._recent_actions[0] > self.budget_window_s:
            self._recent_actions.popleft()
        if len(self._recent_actions) >= self.budget:
            network.count("controller.rate_limited")
            return False
        return True

    # ------------------------------------------------------------------
    # Act
    # ------------------------------------------------------------------

    def _execute(self, ctx, policy, intent):
        network = self.runtime.network
        now = self.runtime.sim.now
        self._cooldowns[intent.cooldown_key] = now
        self._recent_actions.append(now)
        self._intent_seq += 1
        intent_id = f"{self.name}#{self._intent_seq}:{intent.policy}:{intent.target}"
        manager = ctx.manager
        manager.begin_remediation(
            intent_id, intent.kind, intent.target, policy=intent.policy
        )
        outcome, result = "done", None
        try:
            result = yield from policy.execute(ctx, intent)
        except Exception as exc:
            outcome, result = "failed", {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            if not manager.deposed:
                manager.complete_remediation(intent_id, outcome=outcome)
            network.count(f"controller.actions.{outcome}")
            self.remediation_log.append(
                {
                    "at": round(self.runtime.sim.now, 3),
                    "intent_id": intent_id,
                    "policy": intent.policy,
                    "kind": intent.kind,
                    "target": intent.target,
                    "outcome": outcome,
                    "result": result,
                }
            )
            self.runtime.network.publish(
                "controller.action",
                self.name,
                policy=intent.policy,
                kind=intent.kind,
                target=str(intent.target),
                outcome=outcome,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self):
        """Plain-dict view for reports and assertions."""
        counters = self.runtime.network
        return {
            "name": self.name,
            "stopped": self._stopped,
            "policies": [policy.name for policy in self.policies],
            "actions": len(self.remediation_log),
            "log_tail": self.remediation_log[-5:],
            "rate_limited": counters.count_value("controller.rate_limited"),
            "shard_wave_stats": {
                shard: dict(entry) for shard, entry in self.shard_wave_stats.items()
            },
        }

    def __repr__(self):
        return (
            f"<ReactiveController {self.type_name} actions={len(self.remediation_log)} "
            f"policies={len(self.policies)}{' stopped' if self._stopped else ''}>"
        )


class ControllerContext:
    """What a policy sees each tick: sensed events plus live handles."""

    def __init__(self, runtime, manager, plane, controller, events):
        self.runtime = runtime
        self.manager = manager
        self.plane = plane
        self.controller = controller
        self.events = events

    def events_on(self, topic):
        """This tick's events matching an exact topic."""
        return [event for event in self.events if event.topic == topic]
