"""The DCDO Manager's durable state and the one reducer that changes it.

The manager (§2.4) is the single authority for its type's DFM store and
DCDO table.  :class:`ManagerState` is that authority as plain data, and
:func:`apply` is its transition function: a journal entry in, the state
changed in place.  Every durable change goes through it, on every path:

- live: ``DCDOManager._commit`` appends the entry to the journal, then
  applies it;
- crash recovery and standby promotion: ``restore_from_journal``
  applies the journal's entries to a fresh state;
- checkpoints: :func:`checkpoint_rows` serialises the state as one
  ``row`` entry per table row (and one per scalar), and applying those
  rows rebuilds an equal state.

Runtime links — live instance objects and processes, ICO servers,
implementation types — are not state; the manager rebuilds them after
replay.  Neither are configurable versions' descriptors: they are
in-memory drafts a crash loses, and only their ids are durable.
"""

import copy
from dataclasses import dataclass, field, fields

from repro.core.descriptor import DFMDescriptor
from repro.core.partition import partition_slot
from repro.core.recovery import Delivery, JournalEntry, PropagationTracker
from repro.core.version import VersionTree


@dataclass
class VersionRecord:
    """One entry in the DFM store."""

    version: object
    descriptor: DFMDescriptor
    instantiable: bool = False
    parent: object = None


@dataclass
class CanaryState:
    """Durable gate state for one SLO-gated canary rollout.

    Every transition (stage admitted, gate passed, breach declared,
    rollout completed) is journaled by the manager, so a promoted
    standby knows exactly which instances a half-finished canary had
    already touched — it resumes the frozen admitted set (or completes
    the abort) instead of blindly re-converging the whole fleet.
    """

    version: object
    #: Cumulative fleet fractions per ramp stage, e.g. (0.01, 0.1, 1.0).
    stages: tuple
    #: Bake window (seconds of healthy SLO) each stage must survive.
    bake_s: float
    #: Instances admitted to the wave so far, admission order.
    admitted: list = None
    #: Number of stages whose health gate has passed.
    stage_index: int = 0
    breached: bool = False
    breach_reason: str = None
    #: True when the final gate passed and the version was adopted.
    complete: bool = False
    #: True when a breach-triggered abort finished rolling back.
    aborted: bool = False

    def __post_init__(self):
        if self.admitted is None:
            self.admitted = []

    @property
    def closed(self):
        """True when the rollout is finished, either way."""
        return self.complete or self.aborted

    def summary(self):
        """Plain-dict view for reports and assertions."""
        return {
            "version": str(self.version),
            "stages": list(self.stages),
            "stage_index": self.stage_index,
            "admitted": len(self.admitted),
            "breached": self.breached,
            "breach_reason": self.breach_reason,
            "complete": self.complete,
            "aborted": self.aborted,
        }


@dataclass
class ManagerState:
    """Everything a manager must not forget across a crash."""

    #: Fencing term; recovery and promotion bump it.
    term: int = 1
    #: Every version id ever issued, so none is issued twice.
    tree: VersionTree = field(default_factory=VersionTree)
    #: version -> frozen :class:`VersionRecord` (instantiable versions).
    versions: dict = field(default_factory=dict)
    current_version: object = None
    #: component id -> (component, ICO LOID, ICO host name).
    components: dict = field(default_factory=dict)
    #: The DCDO table: loid -> host name at creation or adoption ...
    instances: dict = field(default_factory=dict)
    #: ... and loid -> the version the instance reflects.
    instance_versions: dict = field(default_factory=dict)
    #: version -> :class:`PropagationTracker`.
    propagations: dict = field(default_factory=dict)
    #: version -> :class:`CanaryState`.
    canaries: dict = field(default_factory=dict)
    #: {"owner", "term", "expires_at"} or None.
    remediation_lease: dict = None
    #: intent id -> {"intent_id", "action", "target", "params", "term",
    #: "outcome"}.
    remediations: dict = field(default_factory=dict)
    #: Slot spans handed off to other shards, in release order.
    released_spans: list = field(default_factory=list)


def apply(state, entry):
    """Apply one journal entry to ``state``: its only transition."""
    data = entry.data
    match entry.kind:
        # A wave commits the first two kinds once per instance.
        case "instance-version":
            state.instance_versions[data["loid"]] = data["version"]
        case "propagation-ack":
            state.propagations[data["version"]].ack(data["loid"])
        case "propagation-failed":
            state.propagations[data["version"]].fail(data["loid"])
        case "wave-rollback":
            state.propagations[data["version"]].roll_back(data["loid"])
        case "instance":
            state.instances[data["loid"]] = data.get("host_name")
        case "propagation-started":
            state.propagations[data["version"]] = PropagationTracker(
                data["version"],
                data["loids"],
                prior_versions=data.get("prior_versions"),
                wave_policy=data.get("wave_policy"),
            )
        case "propagation-rearmed":
            tracker = state.propagations[data["version"]]
            tracker.rearm(data["loids"])
            for loid in data["loids"]:
                tracker.prior_versions.setdefault(
                    loid, state.instance_versions.get(loid)
                )
        case "propagation-complete":
            state.propagations[data["version"]].complete = True
        case "wave-aborting":
            state.propagations[data["version"]].aborting = True
        case "wave-aborted":
            tracker = state.propagations[data["version"]]
            tracker.aborting = tracker.aborted = tracker.complete = True
            canary = state.canaries.get(data["version"])
            if canary is not None:
                canary.aborted = True
        case "term":
            state.term = max(state.term, data["number"])
        case "component":
            component = data["component"]
            state.components[component.component_id] = (
                component,
                data["ico_loid"],
                data.get("host_name"),
            )
        case "version-created":
            state.tree.restore(data["version"])
        case "version-instantiable":
            # The entry holds a private clone of the frozen descriptor;
            # the state shares it, as does every replay of the entry.
            version = data["version"]
            state.tree.restore(version)
            state.versions[version] = VersionRecord(
                version=version,
                descriptor=data["descriptor"],
                instantiable=True,
                parent=data.get("parent"),
            )
        case "current-version":
            state.current_version = data["version"]
        case "range-released":
            lo, hi = data["span"]
            for loid in [l for l in state.instances if lo <= partition_slot(l) < hi]:
                del state.instances[loid]
                state.instance_versions.pop(loid, None)
            state.released_spans.append((lo, hi))
        case "rows-pruned":
            for loid in data["loids"]:
                state.instances.pop(loid, None)
                state.instance_versions.pop(loid, None)
        case "canary-started":
            version = data["version"]
            state.canaries.setdefault(
                version,
                CanaryState(version, tuple(data["stages"]), data["bake_s"]),
            )
        case "canary-stage":
            canary = state.canaries[data["version"]]
            known = set(canary.admitted)
            canary.admitted.extend(l for l in data["loids"] if l not in known)
        case "canary-gate":
            state.canaries[data["version"]].stage_index = data["stage"]
        case "canary-breached":
            canary = state.canaries[data["version"]]
            canary.breached = True
            canary.breach_reason = data.get("reason")
        case "canary-complete":
            state.canaries[data["version"]].complete = True
        case "canary-aborted":
            state.canaries[data["version"]].aborted = True
        case "remediation-lease":
            # A release is journaled as a lease that expired at time 0.
            lease = {key: data[key] for key in ("owner", "term", "expires_at")}
            state.remediation_lease = lease if lease["expires_at"] > 0.0 else None
        case "remediation-intent":
            state.remediations.setdefault(
                data["intent_id"],
                {
                    **{key: data[key] for key in ("intent_id", "action", "target")},
                    "params": dict(data.get("params") or {}),
                    "term": data["term"],
                    "outcome": None,
                },
            )
        case "remediation-closed":
            record = state.remediations.get(data["intent_id"])
            if record is not None:
                record["outcome"] = data["outcome"]
        case "row":
            _load_row(state, **data)
        case kind:
            raise ValueError(f"unknown journal entry kind {kind!r}")


# ----------------------------------------------------------------------
# Checkpoints: the state as rows
# ----------------------------------------------------------------------

#: field name -> dict / list for tables, None for scalars.
_CONTAINERS = {
    f.name: f.default_factory if f.default_factory in (dict, list) else None
    for f in fields(ManagerState)
}

#: Mutable values a row must copy; everything else in the state (ids,
#: versions, components, frozen descriptors, policies) is immutable
#: and shared.
_MUTABLE_RECORDS = (PropagationTracker, Delivery, CanaryState, VersionTree)


def _load_row(state, name, key, value):
    """Load one checkpoint row (see :func:`checkpoint_rows`)."""
    value = _copy(value)
    container = _CONTAINERS[name]
    if container is dict:
        getattr(state, name)[key] = value
    elif container is list:
        getattr(state, name).append(value)
    else:
        setattr(state, name, value)


def _copy(value):
    if isinstance(value, dict):
        return {key: _copy(item) for key, item in value.items()}
    if isinstance(value, (list, set)):
        return type(value)(_copy(item) for item in value)
    if isinstance(value, _MUTABLE_RECORDS):
        clone = copy.copy(value)
        clone.__dict__ = _copy(value.__dict__)
        return clone
    return value


def checkpoint_rows(state):
    """``state`` as ``row`` entries: one per table row, one per scalar.

    Each row holds a copy, so the checkpoint is a snapshot: later live
    changes do not reach it, and loading it (which copies again) gives
    a state equal to ``state`` that shares nothing mutable with it.
    """
    rows = []
    for name, container in _CONTAINERS.items():
        value = getattr(state, name)
        if container is dict:
            items = value.items()
        elif container is list:
            items = [(None, item) for item in value]
        else:
            items = [(None, value)]
        rows.extend(
            JournalEntry("row", {"name": name, "key": key, "value": _copy(item)})
            for key, item in items
        )
    return rows
