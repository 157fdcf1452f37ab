"""Pluggable remediation policies for the reactive controller.

The paper's configuration manager evolves objects when *told* to; the
:class:`~repro.cluster.controller.ReactiveController` closes the loop
by deciding *when* — and these policies are the deciding.  Each one
looks at the controller's sensed state (bus events plus polled
health/SLO/shard signals) and proposes :class:`RemediationIntent`\\ s;
the controller owns admission (lease, budget, cooldown) and then drives the policy's ``execute`` through the existing
transactional machinery.  A policy never mutates manager state
directly: everything goes through ``migrate_instance``,
``propagate_version``, ``split_shard`` — the same paths an operator
would call, with the same journaling and fencing.

The registry is extension-style: decorate a policy class with
:func:`register_remediation_policy` and every controller built with
:func:`default_remediation_policies` picks it up.
"""

from dataclasses import dataclass, field

#: name -> policy class, in registration order (dicts preserve it).
REMEDIATION_POLICIES = {}


def register_remediation_policy(cls):
    """Class decorator: add ``cls`` to the policy registry."""
    REMEDIATION_POLICIES[cls.name] = cls
    return cls


def default_remediation_policies(**overrides):
    """Fresh instances of every registered policy, registration order.

    ``overrides`` maps a policy name to a kwargs dict for its
    constructor (e.g. ``{"rebalance-hot-shard": {"outlier_factor": 2}}``).
    """
    policies = []
    for name, cls in REMEDIATION_POLICIES.items():
        kwargs = overrides.get(name, {})
        policies.append(cls(**kwargs))
    return policies


@dataclass(frozen=True)
class RemediationIntent:
    """One proposed action: what to do, to what, with what.

    ``loids`` names the instances a migration moves.
    """

    policy: str
    kind: str
    target: str
    loids: tuple = ()
    params: dict = field(default_factory=dict)

    @property
    def cooldown_key(self):
        """Rate-limit key: one cooldown per (policy, target)."""
        return (self.policy, self.target)


class RemediationPolicy:
    """Base class: subclasses override ``evaluate`` and ``execute``."""

    name = "base"
    #: Seconds the controller waits before acting on the same
    #: (policy, target) pair again.
    cooldown_s = 30.0
    #: Bus topics ``evaluate`` reads from ``ctx.events``; the
    #: controller subscribes to these and no others.
    topics = ()

    def evaluate(self, ctx):
        """Return a list of :class:`RemediationIntent` proposals."""
        return []

    def execute(self, ctx, intent):
        """Generator: carry out one admitted intent; returns a summary
        dict.  Raised transport/legion errors are absorbed by the
        controller (the intent closes as failed; converge repairs)."""
        return {}
        yield  # pragma: no cover - uniform generator shape

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


@register_remediation_policy
class MigrateOffFlakyHost(RemediationPolicy):
    """Move instances off quarantined hosts while they limp.

    Senses the health registry's quarantine set (kept fresh by
    ``health.quarantined`` events); proposes one migration batch per
    quarantined host that still carries active instances.  Execution
    uses the paper's implementation-type machinery —
    ``migrate_instance`` deactivates, ships the OPR, and re-activates
    on the healthiest up host — so a gray host sheds its load instead
    of dragging every wave and client call through its slow NIC.
    """

    name = "migrate-off-flaky-host"
    cooldown_s = 20.0

    def __init__(self, max_instances_per_action=8):
        self.max_instances_per_action = max_instances_per_action

    def evaluate(self, ctx):
        health = ctx.runtime.network.health
        if health is None:
            return []
        manager = ctx.manager
        frozen = manager.canary_frozen_loids()
        intents = []
        for host_name in health.quarantined_hosts():
            if host_name == manager.host.name:
                # The manager's own host is the supervisor's problem
                # (failover), not a migration target set.
                continue
            loids = []
            for loid in manager.instance_loids():
                if loid in frozen:
                    continue
                record = manager.record(loid)
                if record.active and record.host.name == host_name:
                    loids.append(loid)
                if len(loids) >= self.max_instances_per_action:
                    break
            if loids:
                intents.append(
                    RemediationIntent(
                        policy=self.name,
                        kind="migrate",
                        target=host_name,
                        loids=tuple(loids),
                    )
                )
        return intents

    def _pick_target(self, ctx, exclude):
        health = ctx.runtime.network.health
        quarantined = set(health.quarantined_hosts()) if health else set()
        best, best_score = None, -1.0
        for name, host in ctx.runtime.hosts.items():
            if name in exclude or name in quarantined or not host.is_up:
                continue
            score = health.score(name) if health else 1.0
            if score > best_score:
                best, best_score = name, score
        return best

    def execute(self, ctx, intent):
        target = self._pick_target(ctx, exclude={intent.target})
        if target is None:
            return {"moved": 0, "reason": "no-healthy-target"}
        moved = 0
        for loid in intent.loids:
            record = ctx.manager.record(loid)
            if not record.active or record.host.name != intent.target:
                continue  # already moved or died; converge handles it
            yield from ctx.manager.migrate_instance(loid, target)
            moved += 1
        ctx.runtime.network.count("controller.migrations", moved)
        return {"moved": moved, "target": target}


@register_remediation_policy
class DemoteDegradedVersion(RemediationPolicy):
    """Roll the fleet back when the current version breaches its SLO.

    A canary-gated rollout aborts itself on breach — but an unguarded
    adoption (operator push, or a regression that only shows under
    production traffic after the gates passed) leaves the whole fleet
    on a burning version with nothing watching.  This policy senses
    ``slo.breach`` events (and polls registered monitors as a backstop
    for breaches that predate the controller), and originates a
    rollback to the current version's parent: it re-designates the
    parent and aborts the demoted version's wave through the same
    transactional machinery the canary abort uses.  Converging whatever
    the abort could not reach (crashed hosts, inherited trackers) is the
    reconciler's job, which follows the designation it just moved.
    """

    name = "demote-degraded-version"
    cooldown_s = 60.0
    topics = ("slo.breach",)

    def __init__(self, streams=None):
        #: Optional SLO stream-name allowlist; None senses every stream.
        self.streams = set(streams) if streams else None

    def _breached(self, ctx):
        for event in ctx.events_on("slo.breach"):
            if self.streams is None or event.subject in self.streams:
                return str(event.subject)
        for key, snap in ctx.runtime.network.slo_snapshot().items():
            if self.streams is not None and key not in self.streams:
                continue
            if not snap["healthy"]:
                return key
        return None

    def evaluate(self, ctx):
        manager = ctx.manager
        current = manager.current_version
        if current is None:
            return []
        # A still-open canary owns its own breach handling: the gate
        # runner aborts and rolls back; demoting under it would fight.
        for summary in manager.canary_status():
            if not (summary["complete"] or summary["aborted"]):
                return []
        stream = self._breached(ctx)
        if stream is None:
            return []
        prior = manager.version_record(current).parent
        if prior is None:
            return []
        return [
            RemediationIntent(
                policy=self.name,
                kind="rollback",
                target=str(current),
                params={"prior": prior, "version": current, "stream": stream},
            )
        ]

    def execute(self, ctx, intent):
        manager = ctx.manager
        prior = intent.params["prior"]
        demoted = intent.params["version"]
        # 1. Re-designate the prior version (journaled): the official
        #    version stops naming the burning build, and strict
        #    evolution policies stop admitting transitions onto it.
        if manager.current_version != prior:
            manager.set_current_version_async(prior)
        # 2. Breach-abort the demoted version's wave if one is open:
        #    delivered instances roll back through the transactional
        #    abort machinery, and its pending deliveries stop retrying
        #    (otherwise the still-open wave races the rollback,
        #    re-upgrading instances behind it).
        tracker = yield from manager.abort_wave(demoted, reason="controller-demote")
        ctx.runtime.network.count("controller.rollbacks")
        return {
            "rolled_back_to": str(prior),
            "aborted": tracker is not None and tracker.aborted,
            "stream": intent.params.get("stream"),
        }


@register_remediation_policy
class PrewarmBlobCaches(RemediationPolicy):
    """Push component blobs to hosts ahead of a scheduled wave.

    Senses ``deploy.scheduled`` events (published by whoever plans a
    rollout — an operator harness, a canary runner, or the controller
    itself).  For every host carrying instances, any blob of the
    scheduled version not yet in the host cache is fetched ahead of
    time, so the wave's prepare phase links from cache on every host
    instead of serializing on the download protocol.
    """

    name = "prewarm-blob-caches"
    cooldown_s = 5.0
    topics = ("deploy.scheduled",)

    def evaluate(self, ctx):
        intents = []
        for event in ctx.events_on("deploy.scheduled"):
            version = event.details.get("version")
            if version is None:
                continue
            intents.append(
                RemediationIntent(
                    policy=self.name,
                    kind="prewarm",
                    target=str(version),
                    params={"version": version},
                )
            )
        return intents

    def execute(self, ctx, intent):
        from repro.net.fabric import DEFAULT_BANDWIDTH_BPS

        manager = ctx.manager
        version = intent.params["version"]
        try:
            descriptor = manager.descriptor_of(version, allow_instantiable=True)
        except Exception:
            return {"prewarmed": 0, "reason": "unknown-version"}
        network = ctx.runtime.network
        targets = {}
        for loid in manager.instance_loids():
            record = manager.record(loid)
            if record.active and record.host.is_up:
                targets[record.host.name] = record.host
        prewarmed = 0
        for host in targets.values():
            for ref in descriptor.component_refs().values():
                component = ref.component
                if component is None:
                    continue
                try:
                    variant = component.variant_for_host(host)
                except Exception:
                    continue  # no build for this architecture
                if host.cache.peek(variant.blob_id) is not None:
                    continue
                # Model the push as one streamed transfer per blob per
                # host — the same bytes the wave's prepare phase would
                # move, paid off the critical path.
                yield ctx.runtime.sim.timeout(
                    network.latency_s
                    + variant.size_bytes / DEFAULT_BANDWIDTH_BPS
                )
                if host.is_up and host.cache.peek(variant.blob_id) is None:
                    host.cache.insert(variant.blob_id, variant.size_bytes)
                    prewarmed += 1
        ctx.runtime.network.count("controller.prewarmed_blobs", prewarmed)
        return {"prewarmed": prewarmed, "hosts": len(targets)}


@register_remediation_policy
class RebalanceHotShard(RemediationPolicy):
    """Split a shard whose waves run persistently slower than its peers.

    The controller folds every ``wave.complete`` event (per-shard
    duration) into an EWMA per shard; a shard whose smoothed wave
    latency exceeds ``outlier_factor``× the median of its peers — with
    at least ``min_samples`` waves observed — is split via the PR 9
    plane machinery, halving its widest range onto a new shard.
    """

    name = "rebalance-hot-shard"
    cooldown_s = 120.0

    def __init__(self, outlier_factor=2.0, min_samples=3, max_shards=8):
        self.outlier_factor = outlier_factor
        self.min_samples = min_samples
        self.max_shards = max_shards

    def evaluate(self, ctx):
        plane = ctx.plane
        if plane is None or len(plane.shards) >= self.max_shards:
            return []
        stats = ctx.controller.shard_wave_stats
        if len(stats) < 2:
            return []
        eligible = {
            shard_id: entry
            for shard_id, entry in stats.items()
            if entry["samples"] >= self.min_samples
            and shard_id in plane.shards
        }
        if len(eligible) < 2:
            return []
        ewmas = sorted(entry["ewma"] for entry in eligible.values())
        # Lower median: with two shards, the outlier must beat the
        # *other* shard's latency, not its own.
        median = ewmas[(len(ewmas) - 1) // 2]
        if median <= 0:
            return []
        intents = []
        for shard_id, entry in eligible.items():
            if entry["ewma"] > self.outlier_factor * median:
                intents.append(
                    RemediationIntent(
                        policy=self.name,
                        kind="split",
                        target=f"s{shard_id}",
                        params={"shard_id": shard_id},
                    )
                )
        return intents

    def execute(self, ctx, intent):
        shard_id = intent.params["shard_id"]
        if shard_id not in ctx.plane.shards:
            return {"split": False, "reason": "shard-gone"}
        manager = yield from ctx.plane.split_shard(shard_id)
        # The hot shard's history no longer describes its halved range.
        ctx.controller.shard_wave_stats.pop(shard_id, None)
        ctx.runtime.network.count("controller.shard_splits")
        return {"split": True, "new_shard": manager.shard_id}
