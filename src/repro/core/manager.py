"""The DCDO Manager (§2.4).

"A DCDO Manager is in charge of maintaining implementation components
for a particular object type, and for evolving the DCDOs that it
manages."  It extends the Legion class object with:

- a **DFM store**: version id -> (DFM descriptor, instantiable flag);
  configurable versions are derived by logically copying existing
  ones, configured, and eventually marked instantiable — after which
  they "cannot be changed any further";
- a **DCDO table**: per-instance version identifier and implementation
  type, used "when deciding when and how to evolve its DCDOs";
- component registration (creating ICOs);
- the evolution entry points the update policies drive.
"""

import enum
from dataclasses import dataclass

from repro.core.dcdo import DCDO, RemovePolicy
from repro.core.descriptor import DFMDescriptor, diff_descriptors
from repro.core.errors import (
    DiffBaseMismatch,
    EvolutionDisallowed,
    UnknownVersion,
    VersionNotConfigurable,
    VersionNotInstantiable,
    WaveAborted,
)
from repro.core.ico import ImplementationComponentObject
from repro.core.manager_state import (
    ManagerState,
    VersionRecord,
    apply,
    checkpoint_rows,
)
from repro.core.partition import HASH_SPACE, StalePartitionMap, partition_slot
from repro.core.policies.evolution import SingleVersionPolicy
from repro.core.policies.update import ExplicitUpdatePolicy
from repro.core.recovery import DeliveryStatus, JournalEntry
from repro.legion.errors import LegionError, StaleManagerTerm, UnknownObject
from repro.legion.klass import ClassObject, InstanceRecord
from repro.net import ManagerTerm, RetryPolicy, TransportError, run_windowed

#: Spacing for at-least-once propagation deliveries: patient enough to
#: ride out a host outage plus stale-binding rediscovery, bounded so a
#: permanently dead instance is eventually marked FAILED.
DEFAULT_PROPAGATION_RETRY = RetryPolicy(
    base_s=1.0, multiplier=2.0, max_backoff_s=60.0, max_attempts=6
)


class WaveMode(enum.Enum):
    """What a propagation wave does about delivery failures."""

    #: Keep converging: failed deliveries stay FAILED until a later
    #: re-propagation re-arms them (the pre-transactional behaviour).
    CONVERGE = "converge"
    #: All-or-nothing: past the failure threshold the wave rolls every
    #: committed instance back to its prior version and marks itself
    #: aborted.
    ABORT = "abort"


@dataclass(frozen=True)
class WavePolicy:
    """How :meth:`DCDOManager.propagate_version` handles a failing wave.

    ``abort_threshold=k`` means the wave tolerates up to ``k`` FAILED
    deliveries; one more and it aborts — already-committed instances
    are evolved *back* to the versions they were on when the wave
    started (captured in the tracker's ``prior_versions``), the wave
    is journaled ABORTED, and :class:`WaveAborted` is raised.  The
    abort decision and every rollback are write-ahead logged, so a
    manager crash mid-abort resumes — and completes — the abort on
    recovery.
    """

    mode: WaveMode = WaveMode.CONVERGE
    abort_threshold: int = 0

    @classmethod
    def converge(cls):
        """Today's behaviour: failures wait for a later re-propagation."""
        return cls(mode=WaveMode.CONVERGE)

    @classmethod
    def abort_after(cls, threshold):
        """Abort (and roll back) once more than ``threshold`` deliveries fail."""
        if threshold < 0:
            raise ValueError("abort_threshold must be >= 0")
        return cls(mode=WaveMode.ABORT, abort_threshold=threshold)

    def should_abort(self, failed_count):
        """True when ``failed_count`` failures cross the threshold."""
        return self.mode is WaveMode.ABORT and failed_count > self.abort_threshold


class DCDOManager(ClassObject):
    """Coordinates creation and evolution for one DCDO type.

    Parameters
    ----------
    runtime, type_name, host:
        As for :class:`~repro.legion.klass.ClassObject`.
    evolution_policy:
        Which version transitions are legal (default: single-version).
    update_policy:
        When instances are updated (default: explicit).
    remove_policy:
        Removal policy installed on created instances.
    journal:
        Optional :class:`~repro.core.recovery.ManagerJournal`; when
        attached, every durable decision is write-ahead logged so the
        manager can be rebuilt after a crash (see
        :func:`~repro.core.recovery.recover_manager`).
    propagation_retry_policy:
        Spacing/limits for at-least-once propagation deliveries.
    fanout_window:
        Maximum concurrent in-flight deliveries when pushing an
        evolution to many instances (default 8).  Bounds the burst of
        management RPCs a wave puts on the network while still keeping
        the pipe full; ``window=1`` degenerates to the old sequential
        loop.
    wave_policy:
        Default :class:`WavePolicy` for :meth:`propagate_version`
        (converge unless told otherwise).
    """

    def __init__(
        self,
        runtime,
        type_name,
        host,
        implementations=(),
        instance_factory=None,
        evolution_policy=None,
        update_policy=None,
        remove_policy=None,
        journal=None,
        propagation_retry_policy=None,
        fanout_window=8,
        wave_policy=None,
        loid=None,
    ):
        super().__init__(
            runtime,
            type_name,
            host,
            implementations=implementations,
            instance_factory=instance_factory,
            loid=loid,
        )
        self.evolution_policy = evolution_policy or SingleVersionPolicy()
        self.update_policy = update_policy or ExplicitUpdatePolicy()
        self._remove_policy = remove_policy or RemovePolicy.error()
        #: The durable DFM store and DCDO table (see
        #: :mod:`repro.core.manager_state`); only :meth:`_commit` and
        #: journal replay change it.
        self.state = ManagerState()
        #: Configurable versions' records: in-memory drafts, lost in a
        #: crash (their ids are durable, their edits are not).
        self._drafts = {}
        #: Runtime link: implementation type of each live instance.
        self._instance_impl_types = {}
        self._journal = None
        self.propagation_retry_policy = (
            propagation_retry_policy or DEFAULT_PROPAGATION_RETRY
        )
        if fanout_window < 1:
            raise ValueError("fanout_window must be >= 1")
        self.fanout_window = fanout_window
        self._relay_directory = None
        self._relay_fanout_k = 0
        self._relay_batch_window = None
        self._relay_announce = False
        self._relay_roster_id = None
        self.wave_policy = wave_policy or WavePolicy.converge()
        self.evolutions_performed = 0
        #: Set once a peer proves a newer term exists; the manager has
        #: deactivated itself and must never act again.
        self.deposed = False
        #: Sharded-plane identity (see :mod:`repro.core.shardplane`).
        #: None for the paper's unsharded one-manager-per-type shape.
        #: ``_term_scope`` keys :class:`ManagerTerm` fencing — shards
        #: fence independently, so one shard's failover never deposes
        #: its siblings' in-flight waves.
        self.shard_id = None
        self._term_scope = type_name
        self._partition_view = None
        self._register_manager_methods()
        if journal is not None:
            self.attach_journal(journal)

    # ------------------------------------------------------------------
    # Durability (write-ahead journal)
    # ------------------------------------------------------------------

    @property
    def journal(self):
        """The attached :class:`ManagerJournal`, or None."""
        return self._journal

    def attach_journal(self, journal):
        """Start write-ahead logging to ``journal``.

        Records identity metadata (type name, home host, policy
        objects) so :func:`~repro.core.recovery.recover_manager` can
        rebuild an equivalent manager from the journal alone.
        """
        self._journal = journal
        journal.meta.setdefault("type_name", self.type_name)
        journal.meta["host_name"] = self._host.name
        journal.meta["evolution_policy"] = self.evolution_policy
        journal.meta["update_policy"] = self.update_policy
        journal.meta["remove_policy"] = self._remove_policy
        journal.meta["class_loid"] = self.loid
        if self.shard_id is not None:
            journal.meta["shard_id"] = self.shard_id
            journal.meta["term_scope"] = self._term_scope
            journal.meta["partition_map"] = self._partition_view

    def _commit(self, kind, **data):
        """Make one durable change: journal it, then apply it.

        The entry is appended to the attached journal (if any) before
        :func:`~repro.core.manager_state.apply` changes :attr:`state`,
        so the journal always holds every change the state shows.
        """
        journal = self._journal
        if journal is None:
            entry = JournalEntry(kind, data)
        else:
            entry = journal.append(kind, **data)
            self._publish_journal_gauges()
        apply(self.state, entry)

    def _publish_journal_gauges(self):
        if self._journal is None:
            return
        metrics = self._runtime.network.metrics
        metrics.gauge("journal.entries").set(len(self._journal))
        metrics.gauge("journal.bytes").set(self._journal.bytes)

    def _count(self, name, amount=1):
        self._runtime.network.count(name, amount)

    # ------------------------------------------------------------------
    # Fencing terms (failover safety)
    # ------------------------------------------------------------------

    @property
    def term(self):
        """This manager's fencing term number.

        Every management RPC this manager sends carries (scope, term).
        Recovery bumps it, so a deposed primary's traffic is rejected
        by anything the newer primary already touched.
        """
        return self.state.term

    def current_term(self):
        """The :class:`~repro.net.ManagerTerm` stamped on outgoing RPCs."""
        return ManagerTerm(self._term_scope, self.state.term)

    def bump_term(self):
        """Advance the fencing term (journaled); returns the new number.

        Called on every recovery/promotion, so a standby taking over
        always outranks the primary it replaces — even across double
        failover, because the bump is journaled and shipped like any
        other durable decision.
        """
        self._commit("term", number=self.state.term + 1)
        self._count("manager.term_bumps")
        self._runtime.trace("manager-term", self.loid, term=self.state.term)
        return self.state.term

    def _fence(self, error):
        """Stand down: a peer proved a newer term exists.

        A healed old primary discovers its deposal the first time one
        of its RPCs reaches an object the new primary already touched;
        the only safe reaction is to stop acting entirely — the journal
        the new primary recovered from already owns the durable state.
        """
        if self.deposed:
            return
        self.deposed = True
        self._count("manager.fenced_stepdowns")
        self._runtime.trace(
            "manager-fenced",
            self.loid,
            term=self.state.term,
            latest=getattr(error, "latest", None),
        )
        self.deactivate()

    def activate(self):
        binding = yield from super().activate()
        # Stamp every outgoing management RPC with the current term.
        self._invoker.term_source = self.current_term
        return binding

    # ------------------------------------------------------------------
    # Sharded manager plane (partition-map ownership)
    # ------------------------------------------------------------------

    def configure_shard(self, shard_id, partition_map):
        """Scope this manager to one shard of a partitioned plane.

        ``partition_map`` is the plane's shared
        :class:`~repro.core.partition.ReplicatedPartitionMap`; the map
        — not the DCDO table — is the ownership authority, so this
        manager answers only for LOIDs hashing into its mapped spans.
        Fencing terms move to the per-shard scope
        ``"<type>/s<shard_id>"``: shards fail over independently.
        """
        self.shard_id = shard_id
        self._term_scope = f"{self.type_name}/s{shard_id}"
        self._partition_view = partition_map
        if self._journal is not None:
            self._journal.meta["shard_id"] = shard_id
            self._journal.meta["term_scope"] = self._term_scope
            self._journal.meta["partition_map"] = partition_map
        return self

    @property
    def partition_map(self):
        """The plane's replicated partition map (None when unsharded)."""
        return self._partition_view

    @property
    def replication_scope(self):
        """Naming scope for standby journals/links (per-shard when sharded)."""
        return self._term_scope

    def owns(self, loid):
        """Does this manager own ``loid`` under the *current* map?

        Unsharded managers own everything.  Sharded managers consult
        the map, not their table: after a handoff commit the source
        still holds the moved rows for a moment, but must already
        refuse writes for them.
        """
        if self._partition_view is None:
            return True
        return self._partition_view.current.shard_for(loid) == self.shard_id

    def owned_spans(self):
        """This shard's ``(lo, hi)`` slot spans under the current map."""
        if self._partition_view is None:
            return ((0, HASH_SPACE),)
        return self._partition_view.current.spans_of(self.shard_id)

    def _shard_guard(self, epoch, loid):
        """Bounce a routed RPC whose map epoch no longer covers ``loid``.

        The bounce piggybacks this shard's current map snapshot (the
        PR 2 stale-epoch pattern), so the caller refreshes from the
        rejection itself.  A *stale but correctly routed* caller is
        served — ownership, not epoch equality, is what's guarded.
        """
        if self._partition_view is None:
            return
        current = self._partition_view.current
        if current.shard_for(loid) != self.shard_id:
            raise StalePartitionMap(epoch, current.epoch, snapshot=current)

    def _announce_hash_range(self):
        """Slot spans announcements should filter on (None unsharded).

        Relays enumerate *their own* colocated instances when applying
        an announcement; on a sharded plane several shards' instances
        share every host, so the bundle must carry the announcing
        shard's spans or the relay would evolve (and count into the
        ack digest) its siblings' instances.
        """
        if self._partition_view is None:
            return None
        return self.owned_spans()

    def adopt_component(self, component, ico_loid, host_name=None):
        """Mirror a sibling shard's component registration.

        Exactly one shard (shard 0) creates the ICO and binds the
        context path; every other shard adopts the same live ICO so
        descriptors resolve identically plane-wide.  The adoption is
        journaled as a normal ``component`` entry — replay re-links the
        shared ICO (or re-creates it if its host died).
        """
        if component.component_id in self.state.components:
            raise ValueError(
                f"component {component.component_id!r} already registered"
            )
        self._commit(
            "component",
            component=component,
            ico_loid=ico_loid,
            host_name=host_name,
        )
        return ico_loid

    def export_rows(self, span):
        """DCDO-table rows whose slot falls in ``span``, for handoff."""
        lo, hi = span
        rows = []
        for loid, record in self._instances.items():
            if lo <= partition_slot(loid) < hi:
                rows.append(
                    (loid, record, self.state.instance_versions.get(loid))
                )
        return rows

    def adopt_rows(self, rows):
        """Install handed-off rows (journaled before the map commits).

        The target journals each row as ordinary ``instance`` /
        ``instance-version`` entries *before* the partition map's epoch
        bump makes it the owner — a crash between the two leaves the
        map (the authority) pointing at the source, and the target's
        orphan rows are pruned by reconciliation against the map.
        """
        for loid, record, version in rows:
            self._instances[loid] = record
            if record.obj is not None:
                self._instance_impl_types[loid] = record.obj.implementation_type
            self._commit("instance", loid=loid, host_name=record.host.name)
            if version is not None:
                self._commit("instance-version", loid=loid, version=version)

    def release_span(self, span):
        """Drop rows in ``span`` after the map has moved them away.

        Journaled as ``range-released`` so replay of the source's
        journal also forgets the rows; the fencing term bumps so any
        in-flight wave delivery this shard still has queued for the
        moved instances is rejected by instances the new owner already
        touched.
        """
        lo, hi = span
        dropped = [
            loid for loid in self._instances if lo <= partition_slot(loid) < hi
        ]
        self._commit("range-released", span=span)
        self._unlink(dropped)
        self.bump_term()
        self._count("manager.shard.ranges_released")
        return dropped

    def prune_rows(self, loids):
        """Drop specific rows the partition map assigns elsewhere.

        Reconciliation uses this to clear orphans left by an aborted
        handoff (rows adopted and journaled before the map commit
        failed).  Journaled so replay forgets them too.
        """
        pruned = [loid for loid in loids if loid in self._instances]
        if pruned:
            self._commit("rows-pruned", loids=tuple(pruned))
            self._unlink(pruned)
        return pruned

    def _unlink(self, loids):
        """Drop the runtime links of rows the state no longer holds."""
        for loid in loids:
            del self._instances[loid]
            self._instance_impl_types.pop(loid, None)

    # ------------------------------------------------------------------
    # Component registration (ICOs)
    # ------------------------------------------------------------------

    def register_component(self, component, host_name=None):
        """Create an ICO serving ``component``; returns its LOID.

        The ICO is a full active object, bound into the context space
        under ``/components/<type>/<component-id>`` so it benefits from
        the system's global namespace (§2.3).
        """
        if component.component_id in self.state.components:
            raise ValueError(f"component {component.component_id!r} already registered")
        host = self._pick_host(host_name)
        loid = self._runtime.mint_loid(f"{self.type_name}.ICO")
        ico = ImplementationComponentObject(self._runtime, loid, host, component=component)
        self._runtime.sim.run_process(ico.activate())
        self._runtime.attach_object(ico)
        self._runtime.context_space.bind(
            f"/components/{self.type_name}/{component.component_id}", loid
        )
        self._commit(
            "component", component=component, ico_loid=loid, host_name=host.name
        )
        return loid

    def component_ico(self, component_id):
        """The ICO LOID serving ``component_id``."""
        return self._components_entry(component_id)[1]

    def registered_components(self):
        """Sorted registered component ids."""
        return sorted(self.state.components)

    # ------------------------------------------------------------------
    # The DFM store: version derivation and configuration (§2.4)
    # ------------------------------------------------------------------

    @property
    def current_version(self):
        """The designated current version, or None."""
        return self.state.current_version

    def versions(self):
        """All version ids in the DFM store (frozen and drafts)."""
        return sorted(
            [*self.state.versions, *self._drafts], key=lambda version: version.parts
        )

    def version_record(self, version):
        """The :class:`VersionRecord`, or raise :class:`UnknownVersion`."""
        record = self.state.versions.get(version) or self._drafts.get(version)
        if record is None:
            raise UnknownVersion(f"no version {version} in the DFM store")
        return record

    def is_instantiable(self, version):
        """True if ``version`` may create / evolve DCDOs."""
        return self.version_record(version).instantiable

    def new_version(self):
        """Create a fresh root version with an empty descriptor."""
        version = self.state.tree.next_root()
        self._commit("version-created", version=version, parent=None)
        self._drafts[version] = VersionRecord(version=version, descriptor=DFMDescriptor())
        return version

    def derive_version(self, parent):
        """§2.4: create a configurable version by logically copying
        ``parent``; returns the new version id."""
        parent_record = self.version_record(parent)
        version = self.state.tree.next_child(parent)
        self._commit("version-created", version=version, parent=parent)
        self._drafts[version] = VersionRecord(
            version=version,
            descriptor=parent_record.descriptor.clone(),
            parent=parent,
        )
        return version

    def descriptor_of(self, version, allow_instantiable=False):
        """The version's descriptor, for configuration.

        Configurable versions are freely editable; instantiable ones
        "cannot be changed any further" and are only readable
        (``allow_instantiable=True``).
        """
        record = self.version_record(version)
        if record.instantiable and not allow_instantiable:
            raise VersionNotConfigurable(
                f"version {version} is instantiable and cannot be changed"
            )
        return record.descriptor

    def incorporate_into(self, version, component_id):
        """Incorporate a registered component into a configurable version."""
        component, ico_loid = self._components_entry(component_id)
        self.descriptor_of(version).incorporate(component, ico_loid)

    def _components_entry(self, component_id):
        """``(component, ico_loid)`` for a registered component."""
        entry = self.state.components.get(component_id)
        if entry is None:
            raise UnknownVersion(
                f"component {component_id!r} is not registered with this manager"
            )
        return entry[:2]

    def mark_instantiable(self, version):
        """Freeze a configurable version after validating it (§2.4/§3.2)."""
        record = self.version_record(version)
        if record.instantiable:
            return
        record.descriptor.validate_instantiable()
        # The frozen descriptor is the durable artefact: a journal
        # replay restores instantiable versions byte-for-byte, while
        # still-configurable descriptors are in-memory drafts and are
        # lost with the crash.
        self._commit(
            "version-instantiable",
            version=version,
            parent=record.parent,
            descriptor=record.descriptor.clone(),
        )
        del self._drafts[version]
        self._runtime.trace(
            "version-instantiable",
            self.loid,
            version=str(version),
            components=len(record.descriptor.component_ids),
        )

    def set_current_version(self, version):
        """Designate the official current version.

        The version must be instantiable.  The update policy decides
        whether existing instances are updated now (proactive), later
        (lazy), or on request (explicit); any policy-returned process
        is run to completion so "setting a new current version" costs
        what the policy costs.
        """
        record = self.version_record(version)
        if not record.instantiable:
            raise VersionNotInstantiable(
                f"version {version} must be instantiable before becoming current"
            )
        self._commit("current-version", version=version)
        self._runtime.trace(
            "current-version-set",
            self.loid,
            version=str(version),
            policy=self.update_policy.name,
        )
        propagation = self.update_policy.on_new_current_version(self)
        if propagation is not None:
            self._runtime.sim.run_process(propagation)
        return version

    def set_current_version_async(self, version):
        """Like :meth:`set_current_version` but returns the propagation
        process (or None) instead of running it — for callers already
        inside a simulation process."""
        record = self.version_record(version)
        if not record.instantiable:
            raise VersionNotInstantiable(
                f"version {version} must be instantiable before becoming current"
            )
        self._commit("current-version", version=version)
        propagation = self.update_policy.on_new_current_version(self)
        if propagation is None:
            return None
        return self._runtime.sim.spawn(propagation, name=f"propagate:{version}")

    # ------------------------------------------------------------------
    # The DCDO table (§2.4)
    # ------------------------------------------------------------------

    def instance_version(self, loid):
        """The version a managed instance currently reflects."""
        self.record(loid)  # raises UnknownObject for strangers
        return self.state.instance_versions.get(loid)

    def instance_impl_type(self, loid):
        """The implementation type of an instance's current build."""
        self.record(loid)
        return self._instance_impl_types.get(loid)

    def dcdo_table(self):
        """(loid, version, impl_type, active) rows, creation order."""
        return [
            (
                record.loid,
                self.state.instance_versions.get(record.loid),
                self._instance_impl_types.get(record.loid),
                record.active,
            )
            for record in (self.record(loid) for loid in self.instance_loids())
        ]

    # ------------------------------------------------------------------
    # Instance creation (overrides the monolithic build)
    # ------------------------------------------------------------------

    def _build_instance(self, loid, host):
        """Create a DCDO and configure it from a version descriptor.

        New instances reflect the designated current version ("All new
        DCDOs are created to reflect the characteristics of the
        designated current version", §3.4); re-activations after
        migration or deactivation rebuild the instance's *own* version.
        """
        version = self.state.instance_versions.get(loid, self.state.current_version)
        if version is None:
            raise VersionNotInstantiable(
                f"type {self.type_name!r} has no current version to instantiate"
            )
        record = self.version_record(version)
        if not record.instantiable:
            raise VersionNotInstantiable(
                f"version {version} is not instantiable"
            )
        descriptor = record.descriptor
        obj = DCDO(
            self._runtime,
            loid,
            host,
            manager_loid=self.loid,
            remove_policy=self._remove_policy,
        )
        self._runtime.attach_object(obj)
        # Reachable from activation on, but half-built (``building``)
        # until the version is set.
        yield from obj.activate()
        try:
            for component_id in sorted(descriptor.component_ids):
                __, ico_loid = self._components_entry(component_id)
                yield from obj.incorporate_component(ico_loid, bootstrap=True)
            obj.dfm.apply_entry_states(descriptor)
            obj.dfm.adopt_restrictions(descriptor)
            obj.set_version(version)
        except Exception:
            # A failed component fetch must not leave a half-configured
            # but reachable DCDO behind: journal replays and recovery
            # passes would mistake it for a live instance and never
            # retry the rebuild.
            obj.deactivate()
            raise
        return obj, str(version)

    def _instance_created(self, record):
        self._instance_impl_types[record.loid] = record.obj.implementation_type
        self._commit("instance", loid=record.loid, host_name=record.host.name)
        self._commit(
            "instance-version", loid=record.loid, version=self.state.current_version
        )
        self.update_policy.on_instance_created(self, record)

    def _mid_build(self, obj):
        return isinstance(obj, DCDO) and obj.building

    def _notify_migrated(self, record):
        self._instance_impl_types[record.loid] = record.obj.implementation_type
        followup = self.update_policy.on_instance_migrated(self, record)
        if followup is not None:
            self._runtime.sim.spawn(followup, name=f"post-migrate:{record.loid}")

    def recover_instance(self, loid, host_name=None):
        """Generator: rebuild a crash-lost instance, then re-drive its wave.

        The instance rebuilds at its table version.  If the current
        version's wave gave up on it while it was down (FAILED after
        retrying into ``ObjectDeactivated``), no other path delivers
        that version to it again, so the delivery is re-opened and
        driven in a process of its own.
        """
        binding = yield from super().recover_instance(loid, host_name)
        tracker = self.state.propagations.get(self.state.current_version)
        if (
            tracker is not None
            and loid in tracker
            and tracker.delivery(loid).status is DeliveryStatus.FAILED
            and not tracker.aborting
        ):
            self._runtime.sim.spawn(
                self._redeliver(tracker, loid), name=f"redeliver:{loid}"
            )
        return binding

    def _redeliver(self, tracker, loid):
        """Process body: re-open one FAILED delivery and drive it again."""
        complete = tracker.complete
        self._commit("propagation-rearmed", version=tracker.version, loids=[loid])
        yield from self._deliver(tracker, loid, self.propagation_retry_policy)
        if complete and self.is_active and not self.deposed and not tracker.aborting:
            self._commit("propagation-complete", version=tracker.version)

    # ------------------------------------------------------------------
    # Evolution (§2.4, §3.3)
    # ------------------------------------------------------------------

    def evolve_instance(self, loid, target_version=None, enforce_policy=True):
        """Generator: evolve one instance to ``target_version``.

        Defaults to the policy's target for this instance (usually the
        current version).  Validates the transition with the evolution
        policy, ships the configuration diff to the DCDO in one
        management RPC, and updates the DCDO table.  Returns the
        version actually reached.

        ``enforce_policy=False`` is the wave-rollback path: a
        compensating evolution back to a *prior* version must not be
        vetoed by the evolution policy (single-version would reject any
        non-current target) nor by the §3.2 transition-rule check (the
        aborted version may have introduced markings the prior version
        legitimately lacks; the prior version was validated when it was
        marked instantiable).
        """
        lock = self.management_lock(loid)
        yield lock.acquire()
        try:
            record = self.record(loid)
            if not record.active:
                from repro.legion.errors import ObjectDeactivated

                raise ObjectDeactivated(
                    f"instance {loid} is deactivated; it will rebuild at its "
                    f"version on next activation"
                )
            from_version = self.state.instance_versions.get(loid)
            if target_version is None:
                target_version = self.evolution_policy.default_target(self, from_version)
                if target_version is None:
                    return from_version
            target_record = self.version_record(target_version)
            if not target_record.instantiable:
                raise VersionNotInstantiable(
                    f"cannot evolve to configurable version {target_version}"
                )
            if enforce_policy:
                self.evolution_policy.check_transition(self, from_version, target_version)
            if from_version == target_version:
                # Even a no-op delivery must assert this manager's term
                # on the instance.  After a failover the promoted
                # manager's resume can find the instance already at the
                # target (the deposed primary's delivery landed before
                # the promotion) — without an RPC the instance would
                # keep honouring the old term, letting the zombie's
                # later compensations through unfenced.
                if self.invoker.term_source is not None:
                    yield from self.invoker.invoke(loid, "getVersion", ())
                return from_version
            def ship(diff):
                # Generous per-attempt timeouts (downloads can take tens
                # of seconds) with retries; applyConfiguration is
                # idempotent.
                return self.invoker.invoke(
                    loid,
                    "applyConfiguration",
                    (diff,),
                    timeout_schedule=(60.0, 120.0, 600.0),
                )

            try:
                yield from ship(
                    self._diff_between(from_version, target_version, enforce_policy)
                )
            except DiffBaseMismatch as refusal:
                # The instance is not at the version the table holds
                # (e.g. rebuilt and not yet configured): re-diff from
                # where it really is.
                self._count("evolution.rediffs")
                yield from ship(
                    self._diff_between(
                        refusal.actual_version, target_version, enforce_policy
                    )
                )
            self._commit("instance-version", loid=loid, version=target_version)
            if record.active:
                record.version_tag = str(target_version)
            self.evolutions_performed += 1
        finally:
            lock.release()
        return target_version

    def _diff_between(self, from_version, target_version, enforce_restrictions=True):
        """The :class:`ConfigurationDiff` taking an instance at
        ``from_version`` (None: unconfigured) to ``target_version``."""
        diff = diff_descriptors(
            self.version_record(from_version).descriptor
            if from_version is not None
            else DFMDescriptor(),
            self.version_record(target_version).descriptor,
        )
        diff.base_version = from_version
        diff.target_version = target_version
        diff.enforce_restrictions = enforce_restrictions
        return diff

    def try_evolve_instance(self, loid, target_version=None):
        """Generator: evolve, treating policy vetoes as "stay put"."""
        try:
            result = yield from self.evolve_instance(loid, target_version)
        except EvolutionDisallowed:
            result = self.state.instance_versions.get(loid)
        return result

    def update_all_instances(self, target_version=None, window=None):
        """Generator: evolve every active instance, windowed.

        At most ``window`` (default: the manager's ``fanout_window``)
        evolutions are in flight at once; each freed slot immediately
        starts the next instance.  ``window=1`` reproduces the old
        sequential loop.  Returns ``{loid: version reached}`` in
        instance-creation order; the first delivery error (if any) is
        re-raised after the wave, matching the sequential semantics.
        """
        window = window or self.fanout_window
        loids = [
            loid for loid in self.instance_loids() if self.record(loid).active
        ]
        thunks = [
            lambda l=loid: self.try_evolve_instance(l, target_version)
            for loid in loids
        ]
        outcomes = yield from run_windowed(self._runtime.sim, thunks, window)
        results = {}
        first_error = None
        for loid, (ok, value) in zip(loids, outcomes):
            if ok:
                results[loid] = value
            elif first_error is None:
                first_error = value
        if first_error is not None:
            raise first_error
        return results

    # ------------------------------------------------------------------
    # Ack-tracked, at-least-once propagation
    # ------------------------------------------------------------------

    def propagate_version(
        self, version, loids=None, retry_policy=None, window=None, wave_policy=None
    ):
        """Generator: reliably push ``version`` to its instances.

        The fault-tolerant counterpart of :meth:`update_all_instances`:
        each instance gets a tracked delivery (PENDING → ACKED/FAILED),
        deliveries run concurrently with a bounded in-flight window
        (default: the manager's ``fanout_window``), failures are
        retried with backoff per the retry policy, and every state
        change is journaled — so a manager crash mid-propagation
        resumes from exactly the outstanding deliveries.  At-least-once
        delivery is safe because :meth:`DCDO.apply_configuration` is
        idempotent keyed by the target version id.

        ``wave_policy`` (default: the manager's) decides what failures
        mean.  Under ``WavePolicy.converge()`` failed deliveries simply
        wait: calling again for the same version re-arms them and
        admits instances created since — the convergence loop after
        faults heal.  Under ``WavePolicy.abort_after(k)`` more than
        ``k`` failures abort the wave: committed instances are rolled
        back to their prior versions, the wave is journaled ABORTED,
        and :class:`WaveAborted` is raised.  Returns the
        :class:`PropagationTracker` otherwise.
        """
        record = self.version_record(version)
        if not record.instantiable:
            raise VersionNotInstantiable(
                f"cannot propagate configurable version {version}"
            )
        if loids is None:
            loids = self.instance_loids()
        tracker = self.state.propagations.get(version)
        if tracker is None:
            instance_versions = self.state.instance_versions
            self._commit(
                "propagation-started",
                version=version,
                loids=list(loids),
                prior_versions={loid: instance_versions.get(loid) for loid in loids},
                wave_policy=wave_policy or self.wave_policy,
            )
            tracker = self.state.propagations[version]
            tracker.started_at = self._runtime.sim.now
        elif tracker.aborting and not tracker.aborted:
            # A crash interrupted the abort: finish the rollback; do
            # not deliver anything new.
            yield from self._finish_abort(tracker)
            return tracker
        else:
            # Re-arm: admit the new instances and re-open every failed
            # or rolled-back delivery.
            reopen = [loid for loid in loids if loid not in tracker]
            reopen += tracker.loids_in(DeliveryStatus.FAILED, DeliveryStatus.ROLLED_BACK)
            self._commit("propagation-rearmed", version=version, loids=reopen)
        policy = retry_policy or self.propagation_retry_policy
        window = window or self.fanout_window
        if self._relay_directory:
            # Host-batched phase first: one RPC per host (or one bundle
            # through a diffusion tree) covers every colocated pending
            # instance.  Anything a relay could not positively confirm
            # stays PENDING and falls through to direct delivery below.
            yield from self._relay_deliveries(tracker, policy, window)
            if not self.is_active:
                return tracker
        pending = tracker.pending_loids()
        thunks = [
            lambda l=loid: self._deliver(tracker, l, policy) for loid in pending
        ]
        outcomes = yield from run_windowed(self._runtime.sim, thunks, window)
        for ok, value in outcomes:
            if not ok:
                # _deliver absorbs expected failures into the tracker;
                # anything it *raised* is a real bug — don't mask it.
                raise value
        if not self.is_active:
            # We crashed while deliveries were in flight; the journal
            # still shows the propagation open, so recovery resumes it.
            return tracker
        # An explicit per-call policy wins (e.g. a convergence loop
        # re-driving a previously abortive wave); otherwise the policy
        # the wave started under keeps governing it across resumes.
        wave = wave_policy or tracker.wave_policy or self.wave_policy
        failed = tracker.count(DeliveryStatus.FAILED)
        if wave.should_abort(failed):
            yield from self._finish_abort(tracker)
            if not tracker.aborted:
                # Crash (or unreachable instances) left the abort
                # incomplete; recovery/resume finishes it.
                return tracker
            raise WaveAborted(version, failed, wave.abort_threshold)
        self._commit("propagation-complete", version=version)
        tracker.completed_at = self._runtime.sim.now
        self._runtime.trace("propagation-complete", self.loid, **tracker.summary())
        self._runtime.network.publish(
            "wave.complete",
            self.type_name,
            version=str(version),
            shard_id=self.shard_id,
            instances=len(tracker.deliveries()),
            duration_s=(
                tracker.completed_at - tracker.started_at
                if tracker.started_at is not None
                else None
            ),
        )
        return tracker

    # ------------------------------------------------------------------
    # Host-relay fan-out (scale-out waves)
    # ------------------------------------------------------------------

    def use_relays(
        self,
        directory,
        fanout_k=0,
        batch_window=None,
        announce=False,
        roster_id=None,
    ):
        """Route propagation waves through per-host relays.

        ``directory`` maps host name -> relay LOID (see
        :func:`repro.cluster.relay.deploy_relays`).  With relays
        enabled, :meth:`propagate_version` first ships one
        ``evolveBatch`` RPC per host covering all colocated pending
        instances — O(hosts) manager-side RPCs instead of
        O(instances) — and commits the per-instance acks with exactly
        the tracker/journal bookkeeping of a direct delivery.
        Instances a relay could not positively confirm stay PENDING
        and are re-delivered directly, so relays are a transport
        optimization only; they never weaken delivery guarantees.

        ``fanout_k >= 2`` additionally arranges the per-host batches
        into a k-ary diffusion tree: the manager sends one bundle to a
        root relay, which forwards child subtrees concurrently while
        applying its own batch — O(log_k H) wave latency for H hosts.
        ``batch_window`` bounds each relay's local in-flight
        ``applyConfiguration`` calls.  Pass ``directory=None`` to go
        back to direct-only delivery.

        ``announce=True`` (requires ``fanout_k >= 2``) switches tree
        waves from job bundles to *announcements*: the tree carries
        only the configuration diffs and subtree routing — constant
        bytes per host, never per instance — each relay enumerates its
        own colocated instances, and acks come back as per-host
        ``(count, digest)`` summaries.  The manager commits a host only
        when the relay's applied-set digest matches the instances it
        expected; any mismatch falls back to job batches / direct
        delivery, so guarantees are unchanged.

        ``roster_id`` selects a named announce roster (a per-shard
        slice seeded via :func:`repro.cluster.relay.
        seed_announce_roster`); fleet announcements then carry the
        roster and a ``hash_range`` filter so each relay only evolves
        the shard's own colocated instances.
        """
        if fanout_k and fanout_k < 2:
            raise ValueError(f"fanout_k must be 0 or >= 2, got {fanout_k}")
        if announce and (not directory or fanout_k < 2):
            raise ValueError("announce waves need relays and fanout_k >= 2")
        self._relay_directory = dict(directory) if directory else None
        self._relay_fanout_k = fanout_k if directory else 0
        self._relay_batch_window = batch_window
        self._relay_announce = bool(announce) if directory else False
        self._relay_roster_id = roster_id

    def _tree_order_key(self):
        """Tree ordering for relay fan-out: healthiest hosts first.

        None (plain name order) until peer health is armed on the
        fabric.  With health armed, hosts sort by descending score with
        name as the deterministic tiebreak, so a degraded relay ends up
        at the leaves instead of the root of the diffusion tree.
        """
        health = self._runtime.network.health
        if health is None:
            return None
        return lambda name: (-health.score(name), name)

    def _relay_deliveries(self, tracker, policy, window):
        """Generator: the host-batched phase of a propagation wave.

        Groups the tracker's pending instances by host, builds one
        configuration diff per distinct from-version, and drives the
        per-host batches through :meth:`_drive_relay_wave`.  Instances
        without a usable relay (host down, deactivated, no relay
        deployed) are simply left PENDING for the direct path.  The
        batched instances' management locks are held for the whole
        phase — in global sorted order, so concurrent waves cannot
        deadlock — which keeps the version reads used for diffing
        consistent with the commits.
        """
        sim = self._runtime.sim
        directory = self._relay_directory
        version = tracker.version
        batchable = []
        for loid in tracker.pending_loids():
            try:
                record = self.record(loid)
            except UnknownObject as error:
                # Deleted instance: terminal, exactly as direct delivery.
                self._fail_delivery(tracker, loid, error)
                continue
            if not record.active or not record.host.is_up:
                continue
            if record.host.name not in directory:
                continue
            if self._runtime.network.health_quarantined(record.host.name):
                # Gray relay: leave its instances PENDING so the direct
                # fallback ladder delivers them without routing a whole
                # subtree through the limping host.
                self._count("relay.quarantine_skips")
                continue
            batchable.append((loid, record.host.name))
        if not batchable:
            return
        locks = [
            self.management_lock(loid)
            for loid, __ in sorted(batchable, key=lambda item: str(item[0]))
        ]
        for lock in locks:
            yield lock.acquire()
        try:
            host_jobs = {}
            diff_cache = {}
            for loid, host_name in batchable:
                from_version = self.state.instance_versions.get(loid)
                if from_version == version:
                    # Already there (re-armed wave): ack without an RPC,
                    # matching evolve_instance's early return.
                    self._ack_delivery(tracker, loid)
                    continue
                try:
                    self.evolution_policy.check_transition(
                        self, from_version, version
                    )
                except EvolutionDisallowed:
                    # Leave it PENDING: the direct path surfaces the
                    # veto through the usual retry/FAILED machinery.
                    continue
                diff = diff_cache.get(from_version)
                if diff is None:
                    diff = diff_cache[from_version] = self._diff_between(
                        from_version, version
                    )
                host_jobs.setdefault(host_name, []).append((loid, diff))
            if host_jobs:
                yield from self._drive_relay_wave(
                    tracker, host_jobs, policy, window, diffs=diff_cache
                )
        finally:
            for lock in locks:
                lock.release()

    def _drive_relay_wave(self, tracker, host_jobs, policy, window, diffs=None):
        """Generator: push per-host job batches until acked or exhausted.

        Each round ships one ``evolveBatch`` per host with unconfirmed
        jobs (or, with ``fanout_k`` set, one ``relayTree`` bundle to
        the root relay) and commits the acks that come back.  Re-sent
        jobs are harmless: application is idempotent per instance.
        When the retry budget runs out the survivors are left PENDING
        — the direct path takes over with a fresh budget, so relays
        only ever mark FAILED for the terminal deleted-instance case.

        With announcement mode on (``use_relays(..., announce=True)``)
        the tree rounds ship announcements instead of per-instance
        jobs.  The first round tries the fleet form (roster index
        ranges down, one aggregated ``(hosts, count, digest)`` summary
        up — constant bytes at every hop); an exact aggregate match
        commits the whole wave at once.  Any shortfall drops to the
        per-host form for the rest of the wave: subtree routing tables
        down, per-host ``(count, digest)`` summaries up, whole hosts
        committing iff their digest matches — which localizes failures
        the aggregate can only detect.
        """
        from repro.cluster.relay import (
            BATCH_JOB_BYTES,
            RELAY_APPLY_TIMEOUTS,
            build_relay_tree,
            count_jobs,
        )

        sim = self._runtime.sim
        directory = self._relay_directory
        version = tracker.version
        remaining = {host: list(jobs) for host, jobs in host_jobs.items()}
        host_of = {
            loid: host for host, jobs in host_jobs.items() for loid, __ in jobs
        }
        started = sim.now
        attempts = 0
        fleet_mode = True
        while remaining:
            if not self.is_active:
                return
            attempts += 1
            for jobs in remaining.values():
                for loid, __ in jobs:
                    tracker.delivery(loid).attempts += 1
            acks = []
            if (
                self._relay_announce
                and diffs
                and self._relay_fanout_k >= 2
                and len(remaining) > 1
                and self._announce_covers_fleet(tracker)
            ):
                handled = False
                if fleet_mode:
                    status = yield from self._announce_fleet_round(
                        tracker, remaining, diffs
                    )
                    if status == "stop":
                        return
                    handled = status == "committed"
                    if not handled:
                        # Aggregate shortfall (dead subtree, roster
                        # drift): finish the wave on per-host rounds,
                        # which localize the failure to specific hosts.
                        fleet_mode = False
                if not handled and remaining:
                    done = yield from self._announce_round(
                        tracker, remaining, diffs
                    )
                    if done:
                        return
                acks = None  # host-level commits happened in the round
            elif self._relay_fanout_k >= 2 and len(remaining) > 1:
                bundle = build_relay_tree(
                    remaining,
                    directory,
                    self._relay_fanout_k,
                    window=self._relay_batch_window,
                    order_key=self._tree_order_key(),
                )
                # The relays re-stamp this on every downstream apply,
                # so the whole diffusion tree is fenced, not just the
                # manager->root hop.
                bundle["term"] = self.current_term()
                self._count("relay.tree_waves")
                try:
                    acks = yield from self.invoker.invoke(
                        bundle["relay"],
                        "relayTree",
                        (bundle,),
                        payload_bytes=BATCH_JOB_BYTES * count_jobs(bundle),
                        timeout_schedule=RELAY_APPLY_TIMEOUTS,
                    )
                except (LegionError, TransportError, RuntimeError) as error:
                    if isinstance(error, StaleManagerTerm):
                        self._fence(error)
                        return
                    if isinstance(error, RuntimeError) and self.is_active:
                        raise
                    if not self.is_active:
                        return
                    self._count("relay.batch_failures")
            else:
                hosts = sorted(remaining)
                thunks = [
                    lambda h=host, j=tuple(remaining[host]): self.invoker.invoke(
                        directory[h],
                        "evolveBatch",
                        (j, self._relay_batch_window, self.current_term()),
                        payload_bytes=BATCH_JOB_BYTES * len(j),
                        timeout_schedule=RELAY_APPLY_TIMEOUTS,
                    )
                    for host in hosts
                ]
                self._count("relay.batch_waves")
                outcomes = yield from run_windowed(sim, thunks, window)
                for host, (ok, value) in zip(hosts, outcomes):
                    if ok:
                        acks.extend(value)
                        continue
                    if isinstance(value, StaleManagerTerm):
                        self._fence(value)
                        return
                    if isinstance(value, (LegionError, TransportError)):
                        self._count("relay.batch_failures")
                        continue
                    if self.is_active:
                        raise value
                    return
            if not self.is_active:
                return
            for loid, ok, value in acks or ():
                host = host_of.get(loid)
                jobs = remaining.get(host)
                if jobs is None or all(l != loid for l, __ in jobs):
                    continue  # stale or duplicate ack
                if ok:
                    self._commit_relay_ack(tracker, loid, version)
                elif isinstance(value, StaleManagerTerm):
                    # The relay forwarded our term and a downstream
                    # instance outranked it: we are deposed.
                    self._fence(value)
                    return
                elif isinstance(value, UnknownObject):
                    self._fail_delivery(tracker, loid, value)
                else:
                    tracker.delivery(loid).last_error = value
                    if isinstance(value, DiffBaseMismatch):
                        # Re-diff from the instance's real version for
                        # the next round.
                        self._count("evolution.rediffs")
                        rediff = self._diff_between(value.actual_version, version)
                        remaining[host] = [
                            (l, rediff if l == loid else diff) for l, diff in jobs
                        ]
                    continue
                remaining[host] = [job for job in jobs if job[0] != loid]
            remaining = {host: jobs for host, jobs in remaining.items() if jobs}
            if not remaining:
                return
            if not policy.should_retry(attempts, started, sim.now):
                self._count(
                    "relay.fallback_instances",
                    sum(len(jobs) for jobs in remaining.values()),
                )
                return
            self._count("propagation.retries")
            yield sim.timeout(policy.backoff_s(attempts))

    def _announce_covers_fleet(self, tracker):
        """True when this wave may use announcement rounds.

        An announcement tells a relay to bring *every* colocated
        instance of the type to the target version, so it is only safe
        when the wave targets the full fleet: a subset wave (e.g. a
        canary stage admitting a fraction of instances) must ship
        explicit job batches, or the announcement would evolve
        instances the wave never admitted.
        """
        version = tracker.version
        for loid in self.instance_loids():
            if loid in tracker:
                continue
            record = self._instances.get(loid)
            if record is None or not record.active:
                continue
            if self.state.instance_versions.get(loid) == version:
                continue
            return False
        return True

    def _announce_fleet_round(self, tracker, remaining, diffs):
        """Generator: one roster-range fleet announcement round.

        Ships the diffs plus a constant-size roster index range to the
        roster head and expects one aggregated ``(hosts, count,
        digest)`` summary back — digests are additive, so every relay
        folds its subtree into constant reply bytes and root egress
        stays independent of fleet size.  On an exact aggregate match
        every remaining job commits at once.  Returns ``"committed"``,
        ``"stop"`` (fenced or deactivated), ``"skip"`` (roster does not
        cover the remaining hosts), or ``"mismatch"`` — the caller
        finishes the wave on per-host rounds for the latter two, which
        localize whatever the aggregate could only detect.
        """
        from repro.cluster.relay import (
            RELAY_APPLY_TIMEOUTS,
            announce_fleet_bytes,
            set_digest,
        )

        roster = tuple(sorted(self._relay_directory.items()))
        roster_hosts = {host for host, __ in roster}
        if not roster or not set(remaining) <= roster_hosts:
            return "skip"
        network = self._runtime.network
        if any(network.health_quarantined(host) for host in roster_hosts):
            # The fleet announcement routes through every roster host by
            # index; with a quarantined (gray) relay in the roster the
            # whole fan-out would wait on it.  Fall back to per-host
            # rounds, which span only healthy hosts.
            self._count("relay.quarantine_skips")
            return "skip"
        version = tracker.version
        # The relays count every colocated instance at the target —
        # both this round's jobs and instances already there (acked
        # earlier in the wave, or current before it started) on any
        # roster host — so both belong in the expected aggregate.
        expected = [loid for jobs in remaining.values() for loid, __ in jobs]
        for loid, current in self.state.instance_versions.items():
            if current != version:
                continue
            record = self._instances.get(loid)
            if record is None or not record.active:
                continue
            if record.host.name in roster_hosts:
                expected.append(loid)
        bundle = {
            "type_name": self.type_name,
            "target_version": version,
            "diffs": dict(diffs),
            "window": self._relay_batch_window,
            "term": self.current_term(),
            "lo": 0,
            "hi": len(roster),
            "fanout_k": self._relay_fanout_k,
            "roster": self._relay_roster_id,
            "hash_range": self._announce_hash_range(),
        }
        self._count("relay.announce_waves")
        try:
            ack = yield from self.invoker.invoke(
                roster[0][1],
                "announceFleet",
                (bundle,),
                payload_bytes=announce_fleet_bytes(bundle),
                timeout_schedule=RELAY_APPLY_TIMEOUTS,
            )
        except (LegionError, TransportError, RuntimeError) as error:
            if isinstance(error, StaleManagerTerm):
                self._fence(error)
                return "stop"
            if isinstance(error, RuntimeError) and self.is_active:
                raise
            if not self.is_active:
                return "stop"
            self._count("relay.batch_failures")
            return "mismatch"
        if not self.is_active:
            return "stop"
        for loid, value in ack["failures"]:
            if isinstance(value, StaleManagerTerm):
                # A downstream instance outranked our term: deposed.
                self._fence(value)
                return "stop"
            record = self._instances.get(loid)
            host = record.host.name if record is not None else None
            jobs = remaining.get(host)
            if jobs is None or all(l != loid for l, __ in jobs):
                continue
            if isinstance(value, UnknownObject):
                self._fail_delivery(tracker, loid, value)
                remaining[host] = [job for job in jobs if job[0] != loid]
                if not remaining[host]:
                    del remaining[host]
            else:
                tracker.delivery(loid).last_error = value
        if (
            ack["hosts"] == len(roster)
            and ack["count"] == len(expected)
            and ack["digest"] == set_digest(expected)
        ):
            for host, jobs in list(remaining.items()):
                for loid, __ in jobs:
                    self._commit_relay_ack(tracker, loid, version)
                del remaining[host]
            return "committed"
        return "mismatch"

    def _announce_round(self, tracker, remaining, diffs):
        """Generator: one announcement-tree round over ``remaining``.

        Ships the configuration diffs (not per-instance jobs) down the
        relay tree and commits whole hosts whose applied-set digest
        matches the instances this manager expects to be at the target
        version there — the batched jobs plus instances this wave
        already acked.  Mutates ``remaining`` in place; returns True
        when the wave must stop (fenced or deactivated).
        """
        from repro.cluster.relay import (
            RELAY_APPLY_TIMEOUTS,
            announce_bundle_bytes,
            build_announce_tree,
            set_digest,
        )

        version = tracker.version
        node = build_announce_tree(
            remaining,
            self._relay_directory,
            self._relay_fanout_k,
            order_key=self._tree_order_key(),
        )
        bundle = {
            "type_name": self.type_name,
            "target_version": version,
            "diffs": dict(diffs),
            "window": self._relay_batch_window,
            "term": self.current_term(),
            "node": node,
            "hash_range": self._announce_hash_range(),
        }
        self._count("relay.announce_waves")
        try:
            acks = yield from self.invoker.invoke(
                node["relay"],
                "announceTree",
                (bundle,),
                payload_bytes=announce_bundle_bytes(bundle),
                timeout_schedule=RELAY_APPLY_TIMEOUTS,
            )
        except (LegionError, TransportError, RuntimeError) as error:
            if isinstance(error, StaleManagerTerm):
                self._fence(error)
                return True
            if isinstance(error, RuntimeError) and self.is_active:
                raise
            if not self.is_active:
                return True
            self._count("relay.batch_failures")
            return False
        if not self.is_active:
            return True
        # Every active instance already recorded at the target — acked
        # earlier in this wave or current before it started — also
        # shows up in a relay's applied set (counted without an RPC),
        # so they belong in the expected digest.
        acked_by_host = {}
        for loid, current in self.state.instance_versions.items():
            if current != version:
                continue
            record = self._instances.get(loid)
            if record is None or not record.active:
                continue
            host = record.host.name
            if host in remaining:
                acked_by_host.setdefault(host, []).append(loid)
        for host, count, digest, failures in acks:
            jobs = remaining.get(host)
            if jobs is None:
                continue
            for loid, value in failures:
                if isinstance(value, StaleManagerTerm):
                    # A downstream instance outranked our term: deposed.
                    self._fence(value)
                    return True
                if all(l != loid for l, __ in jobs):
                    continue
                if isinstance(value, UnknownObject):
                    self._fail_delivery(tracker, loid, value)
                    jobs = remaining[host] = [
                        job for job in jobs if job[0] != loid
                    ]
                else:
                    tracker.delivery(loid).last_error = value
            if not jobs:
                del remaining[host]
                continue
            acked = acked_by_host.get(host, ())
            if (
                digest is not None
                and count == len(jobs) + len(acked)
                and digest
                == set_digest([loid for loid, __ in jobs] + list(acked))
            ):
                for loid, __ in jobs:
                    self._commit_relay_ack(tracker, loid, version)
                del remaining[host]
        return False

    def _commit_relay_ack(self, tracker, loid, version):
        """Commit one relay-confirmed evolution.

        Mirrors the bookkeeping (and journal-entry order) of the
        direct path: instance-version first, then the propagation ack.
        """
        self._commit("instance-version", loid=loid, version=version)
        record = self._instances.get(loid)
        if record is not None and record.active:
            record.version_tag = str(version)
        self.evolutions_performed += 1
        self._ack_delivery(tracker, loid)

    def _ack_delivery(self, tracker, loid):
        self._commit("propagation-ack", version=tracker.version, loid=loid)
        tracker.delivery(loid).acked_at = self._runtime.sim.now
        self._count("propagation.acks")

    def _fail_delivery(self, tracker, loid, error):
        self._commit("propagation-failed", version=tracker.version, loid=loid)
        tracker.delivery(loid).last_error = error
        self._count("propagation.deliveries_failed")

    def _finish_abort(self, tracker):
        """Generator: drive an aborting wave to the ABORTED state.

        Journals the abort decision first (so recovery knows the wave
        must never resume delivering), then rolls every ACKED instance
        back to its prior version with policy enforcement off.  Each
        rollback is journaled; the wave stays ABORTING — and is resumed
        by :meth:`resume_propagations` — until every committed instance
        has been undone, at which point it is journaled ABORTED.
        """
        sim = self._runtime.sim
        if not tracker.aborting:
            self._commit("wave-aborting", version=tracker.version)
            self._count("wave.aborts")
            self._runtime.trace(
                "wave-aborting",
                self.loid,
                version=str(tracker.version),
                failed=tracker.count(DeliveryStatus.FAILED),
            )
        for delivery in tracker.deliveries():
            if delivery.status is not DeliveryStatus.ACKED:
                continue
            if not self.is_active:
                return
            prior = tracker.prior_versions.get(delivery.loid)
            if prior is not None:
                try:
                    yield from self.evolve_instance(
                        delivery.loid, prior, enforce_policy=False
                    )
                except (LegionError, TransportError) as error:
                    if isinstance(error, StaleManagerTerm):
                        self._fence(error)
                        return
                    delivery.last_error = error
                    if not self.is_active:
                        return
                    # Leave it ACKED: the wave stays ABORTING and a
                    # later resume retries this rollback.
                    continue
            self._commit(
                "wave-rollback", version=tracker.version, loid=delivery.loid
            )
            self._count("wave.rollbacks")
        if any(
            delivery.status is DeliveryStatus.ACKED
            for delivery in tracker.deliveries()
        ):
            return
        canary = self.state.canaries.get(tracker.version)
        if canary is not None:
            settled = yield from self._reconcile_canary_abort(canary, tracker)
            if not settled or not self.is_active:
                return
        self._commit("wave-aborted", version=tracker.version)
        tracker.completed_at = sim.now
        self._runtime.trace("wave-aborted", self.loid, **tracker.summary())

    def _reconcile_canary_abort(self, canary, tracker):
        """Generator: verify admitted instances really left the version.

        A promoted authority's replica journal can be missing the old
        primary's last entries (they ship asynchronously), so a
        delivery it restored as PENDING may in fact have landed on the
        instance.  Before declaring a breached canary aborted, ask each
        admitted instance for its *actual* version — the query also
        stamps this manager's term on the instance, fencing the old
        primary — and drive a compensating evolution for any instance
        still serving the aborted version.  Returns True once every
        reachable admitted instance is off it; False means stay
        ABORTING and let a later resume retry.
        """
        prior = self.state.current_version
        settled = True
        for loid in list(canary.admitted):
            if not self.is_active:
                return False
            if (
                tracker is not None
                and loid in tracker
                and tracker.delivery(loid).status is DeliveryStatus.ROLLED_BACK
            ):
                continue  # this manager rolled it back itself
            try:
                record = self.record(loid)
            except UnknownObject:
                continue
            if not record.active:
                continue  # crashed: rebuilds at its table version
            try:
                reported = yield from self.invoker.invoke(
                    loid, "getVersion", ()
                )
            except (LegionError, TransportError) as error:
                if isinstance(error, StaleManagerTerm):
                    self._fence(error)
                    return False
                settled = False
                continue
            if reported != str(canary.version):
                continue
            # The old primary's delivery landed but its ack never
            # shipped: adopt the fact, then undo it.
            if self.state.instance_versions.get(loid) != canary.version:
                self._commit("instance-version", loid=loid, version=canary.version)
            try:
                yield from self.evolve_instance(
                    loid, prior, enforce_policy=False
                )
            except (LegionError, TransportError) as error:
                if isinstance(error, StaleManagerTerm):
                    self._fence(error)
                    return False
                settled = False
                continue
            self._count("wave.rollbacks")
        return settled

    def _deliver(self, tracker, loid, policy):
        """Process body: drive one delivery to ack or exhaustion."""
        sim = self._runtime.sim
        started = sim.now
        delivery = tracker.delivery(loid)
        attempts = 0
        while True:
            if not self.is_active:
                # Manager crashed: abandon quietly, leaving the
                # delivery PENDING in the journal for recovery.
                return False
            if tracker.aborting or tracker.aborted:
                # The wave was breach-aborted while this delivery sat
                # out a backoff: delivering now would resurrect the
                # version the abort just rolled back.  Abandon; the
                # delivery stays PENDING under a wave the journal
                # already shows ABORTING/ABORTED.
                return False
            attempts += 1
            delivery.attempts += 1
            try:
                yield from self.evolve_instance(loid, tracker.version)
            except UnknownObject as error:
                # Deleted instance: it can never converge; no retry.
                self._fail_delivery(tracker, loid, error)
                return False
            except (LegionError, TransportError, RuntimeError) as error:
                if isinstance(error, StaleManagerTerm):
                    # We are the deposed primary: stand down, leave the
                    # delivery to the manager that outranks us.
                    self._fence(error)
                    return False
                if isinstance(error, RuntimeError) and self.is_active:
                    # A real bug, not the "our invoker vanished because
                    # we crashed mid-delivery" case — don't mask it.
                    raise
                delivery.last_error = error
                if not self.is_active:
                    return False
                if not policy.should_retry(attempts, started, sim.now):
                    self._fail_delivery(tracker, loid, error)
                    return False
                self._count("propagation.retries")
                yield sim.timeout(policy.backoff_s(attempts))
                continue
            self._ack_delivery(tracker, loid)
            if tracker.aborting or tracker.aborted:
                # The breach-abort raced this delivery's final RPC:
                # the instance just applied a version the wave has
                # renounced.  Undo it with the same rollback machinery
                # (journaled, resumable) instead of reporting success.
                yield from self._finish_abort(tracker)
                return False
            return True

    def propagation(self, version):
        """The :class:`PropagationTracker` for ``version``, or None."""
        return self.state.propagations.get(version)

    def propagation_status(self):
        """Summaries of every propagation, newest last."""
        return [tracker.summary() for tracker in self.state.propagations.values()]

    def resume_propagations(self, retry_policy=None):
        """Generator: finish propagations a crash interrupted.

        Only journaled-but-incomplete propagations run; acked
        deliveries are never repeated (the acceptance condition: no
        version re-derivation, no double application).  A wave the
        crash caught mid-abort is *not* re-delivered: resuming it
        completes the rollback instead, and the resulting
        :class:`WaveAborted` is absorbed here (the abort is the wave's
        journaled, final outcome — not an error of the recovery).

        A wave that belongs to an open canary rollout resumes with its
        journaled *admitted* set only — never the whole fleet: the
        default ``loids=None`` expansion would turn a 1%-canary the
        crash interrupted into a full-fleet rollout of an unvetted
        version.  A canary the journal shows breached has its abort
        driven here even if the crash landed between the breach
        decision and the wave-aborting entry.
        """
        for version in list(self.state.propagations):
            tracker = self.state.propagations[version]
            canary = self.state.canaries.get(version)
            breached = canary is not None and canary.breached
            # Every delivery may have acked before the abort was decided:
            # a complete wave can still owe its rollback.
            if (tracker.aborting or breached) and not tracker.aborted:
                yield from self._finish_abort(tracker)
                continue
            if tracker.complete:
                continue
            loids = None
            if canary is not None and not canary.closed:
                loids = list(canary.admitted)
            try:
                yield from self.propagate_version(
                    version, loids=loids, retry_policy=retry_policy
                )
            except WaveAborted:
                continue
        # Breached canaries whose wave tracker never reached this
        # journal (a promotion raced the shipping) still need closing.
        for version, canary in list(self.state.canaries.items()):
            if canary.closed or not canary.breached:
                continue
            if version in self.state.propagations:
                continue
            yield from self.abort_wave(
                version, canary.breach_reason or "slo-breach"
            )

    # ------------------------------------------------------------------
    # SLO-gated canary rollouts (durable gate decisions)
    # ------------------------------------------------------------------

    def begin_canary(self, version, stages, bake_s):
        """Open (or re-open after recovery) a canary rollout of ``version``.

        Idempotent: a state restored from the journal is returned as-is
        — with its admitted set, passed gates, and any breach intact —
        so a failed-over manager's gate runner picks up mid-rollout.
        Returns the :class:`CanaryState`.
        """
        record = self.version_record(version)
        if not record.instantiable:
            raise VersionNotInstantiable(
                f"cannot canary configurable version {version}"
            )
        if version not in self.state.canaries:
            self._commit(
                "canary-started",
                version=version,
                stages=tuple(stages),
                bake_s=bake_s,
            )
            self._count("canary.waves")
            self._runtime.trace(
                "canary-started",
                self.loid,
                version=str(version),
                stages=list(stages),
            )
        return self.state.canaries[version]

    def canary_state(self, version):
        """The :class:`CanaryState` for ``version``, or None."""
        return self.state.canaries.get(version)

    def canary_status(self):
        """Summaries of every canary rollout, oldest first."""
        return [canary.summary() for canary in self.state.canaries.values()]

    def canary_frozen_loids(self):
        """Instances admitted to any still-open canary rollout.

        Convergence sweeps (the supervisor's post-failover converge,
        chaos heal drives) must exclude these: dragging a canary-
        admitted instance back to the fleet's current version mid-bake
        would silently undo the experiment the gate is judging.
        """
        frozen = set()
        for canary in self.state.canaries.values():
            if not canary.closed:
                frozen.update(canary.admitted)
        return frozen

    def admit_canary_stage(self, version, loids):
        """Admit ``loids`` to the canary wave (journaled); returns the
        newly admitted subset (already-admitted instances are skipped)."""
        canary = self._require_canary(version)
        if canary.closed:
            raise WaveAborted(version, 0, 0) if canary.aborted else ValueError(
                f"canary for {version} already completed"
            )
        known = set(canary.admitted)
        fresh = [loid for loid in loids if loid not in known]
        if fresh:
            self._commit(
                "canary-stage",
                version=version,
                stage=canary.stage_index,
                loids=list(fresh),
            )
            self._count("canary.admitted", len(fresh))
        return fresh

    def record_canary_gate(self, version):
        """Mark the current stage's health gate passed (journaled)."""
        canary = self._require_canary(version)
        self._commit("canary-gate", version=version, stage=canary.stage_index + 1)
        self._count("canary.gates_passed")
        self._runtime.trace(
            "canary-gate",
            self.loid,
            version=str(version),
            stage=canary.stage_index,
            admitted=len(canary.admitted),
        )
        return canary.stage_index

    def mark_canary_breached(self, version, reason):
        """Journal the breach decision; idempotent.

        The write-ahead entry lands *before* any rollback RPC, so a
        crash between the decision and the abort leaves a journal a
        promoted manager reads as "this wave must die", never as "this
        wave should resume delivering".
        """
        canary = self._require_canary(version)
        if canary.breached:
            return canary
        self._commit("canary-breached", version=version, reason=reason)
        self._count("canary.breaches")
        self._runtime.trace(
            "canary-breached",
            self.loid,
            version=str(version),
            reason=reason,
            admitted=len(canary.admitted),
        )
        return canary

    def abort_wave(self, version, reason="slo-breach"):
        """Generator: breach-abort an open wave and roll everyone back.

        The public entry point the SLO gate (or an operator) uses when
        the wave itself is healthy at the delivery level but the
        *service* is not: journals the breach, then drives the existing
        transactional abort machinery — every ACKED instance evolves
        back to its prior version, write-ahead logged, resumable by a
        recovered or promoted manager.  Returns the tracker.
        """
        tracker = self.state.propagations.get(version)
        canary = self.state.canaries.get(version)
        if canary is not None:
            self.mark_canary_breached(version, reason)
        if tracker is None:
            # A promoted authority can inherit the canary record but
            # not its wave (the journal shipped the admission and then
            # the partition hit).  Reconcile straight from the admitted
            # set and close the canary with its own journal entry.
            if canary is not None and not canary.aborted:
                settled = yield from self._reconcile_canary_abort(canary, None)
                if settled and self.is_active and not self.deposed:
                    self._commit("canary-aborted", version=version)
                    self._runtime.trace(
                        "canary-aborted", self.loid, version=str(version)
                    )
            return None
        if not tracker.aborted:
            yield from self._finish_abort(tracker)
        if canary is not None and tracker.aborted and not canary.aborted:
            # The wave aborted before this canary opened: close it too.
            self._commit("canary-aborted", version=version)
        return tracker

    def complete_canary(self, version):
        """Adopt ``version`` after the final gate passed (journaled).

        The fleet already converged stage by stage, so the update
        policy is *not* fired again — the current-version designation
        simply catches up with reality (new instances start on it).
        """
        canary = self._require_canary(version)
        if canary.breached:
            raise WaveAborted(version, 0, 0)
        if not canary.complete:
            self._commit("canary-complete", version=version)
            self._commit("current-version", version=version)
            self._count("canary.completions")
            self._runtime.trace(
                "canary-complete",
                self.loid,
                version=str(version),
                admitted=len(canary.admitted),
            )
        return canary

    def _require_canary(self, version):
        canary = self.state.canaries.get(version)
        if canary is None:
            raise UnknownVersion(f"no canary rollout open for version {version}")
        return canary

    # ------------------------------------------------------------------
    # Remediation lease and intents (self-healing controller)
    # ------------------------------------------------------------------

    def acquire_remediation_lease(self, owner, ttl_s=30.0):
        """Take (or renew) the plane-level remediation lease; journaled.

        Exactly one automated remediator may act on this manager at a
        time, and only while the lease it holds was minted under the
        manager's *current* term: a promotion bumps the term, so a
        zombie controller's lease dies with the primary it was talking
        to — the promoted supervisor and a stale controller can never
        fight over the same fleet.  Returns True when ``owner`` holds
        the lease on exit.
        """
        if self.deposed or not self.is_active:
            return False
        now = self._runtime.sim.now
        lease = self.state.remediation_lease
        if (
            lease is not None
            and lease["owner"] != owner
            and lease["expires_at"] > now
            and lease["term"] == self.state.term
        ):
            return False
        self._commit(
            "remediation-lease",
            owner=owner,
            term=self.state.term,
            expires_at=now + ttl_s,
        )
        return True

    def holds_remediation_lease(self, owner):
        """True while ``owner``'s lease is live under the current term."""
        lease = self.state.remediation_lease
        return (
            not self.deposed
            and self.is_active
            and lease is not None
            and lease["owner"] == owner
            and lease["term"] == self.state.term
            and lease["expires_at"] > self._runtime.sim.now
        )

    def release_remediation_lease(self, owner):
        """Drop the lease if ``owner`` holds it (journaled as expiry)."""
        lease = self.state.remediation_lease
        if lease is not None and lease["owner"] == owner:
            self._commit(
                "remediation-lease", owner=owner, term=self.state.term, expires_at=0.0
            )

    def begin_remediation(self, intent_id, action, target, **params):
        """Write-ahead log one remediation intent; returns its record.

        The entry lands *before* the first action RPC, so a manager
        recovered mid-remediation knows exactly which automated actions
        were in flight — :meth:`gc_remediations` then closes the ones
        whose lease term the promotion outran.
        """
        if intent_id not in self.state.remediations:
            self._commit(
                "remediation-intent",
                intent_id=intent_id,
                action=action,
                target=target,
                params=dict(params),
                term=self.state.term,
            )
            self._count("remediation.intents")
            self._runtime.trace(
                "remediation-started", self.loid, intent=intent_id, action=action,
                target=str(target),
            )
        return self.state.remediations[intent_id]

    def complete_remediation(self, intent_id, outcome="done"):
        """Close an intent (journaled); unknown ids are ignored."""
        record = self.state.remediations.get(intent_id)
        if record is None or record["outcome"] is not None:
            return record
        self._commit("remediation-closed", intent_id=intent_id, outcome=outcome)
        self._count(f"remediation.{outcome}")
        self._runtime.trace(
            "remediation-closed", self.loid, intent=intent_id, outcome=outcome
        )
        return record

    def open_remediations(self):
        """Intent records not yet closed, oldest first."""
        return [
            record
            for record in self.state.remediations.values()
            if record["outcome"] is None
        ]

    def gc_remediations(self):
        """Close open intents minted under an older term; returns them.

        Called by a (re-)attaching controller after recovery or
        promotion: an intent whose lease term the current term outran
        belongs to a remediator that can no longer safely finish it —
        its partial work is repaired by the supervisor's converge pass,
        and the journal records the orphaning instead of leaving the
        intent open forever.
        """
        orphaned = []
        for record in self.open_remediations():
            if record["term"] < self.state.term:
                self.complete_remediation(record["intent_id"], outcome="orphaned")
                orphaned.append(record)
        return orphaned

    def remediation_status(self):
        """Plain-dict view of lease + intents, for reports."""
        lease = self.state.remediation_lease
        open_intents = self.open_remediations()
        return {
            "lease": dict(lease) if lease is not None else None,
            "open": [record["intent_id"] for record in open_intents],
            "total": len(self.state.remediations),
        }

    def restore_components(self):
        """Generator: re-serve any registered component whose ICO died.

        An ICO is a full active object (§2.3); when its host crashes,
        the component metadata survives in the manager (and its blob in
        any host cache that already fetched it), but the server object
        is gone — and unlike instances, nothing rebuilds it short of a
        full manager recovery.  This re-creates dead ICOs — on their
        original host when it is back up, else on the manager's — so
        prepare-phase fetches work again without the manager itself
        having crashed.  Returns the restored component ids.
        """
        restored = []
        for component_id in sorted(self.state.components):
            component, ico_loid, __ = self.state.components[component_id]
            obj = self._runtime.live_object(ico_loid)
            if obj is not None and obj.is_active:
                continue
            host_name = obj.host.name if obj is not None else None
            yield from self._restore_component(component, ico_loid, host_name)
            self._count("ico.recoveries")
            self._runtime.trace(
                "ico-restored", ico_loid, component=component_id
            )
            restored.append(component_id)
        return restored

    # ------------------------------------------------------------------
    # Journal replay (crash recovery) and checkpoints
    # ------------------------------------------------------------------

    def restore_from_journal(self, journal):
        """Generator: rebuild state by replaying ``journal``.

        Called on a *fresh* manager object before activation (see
        :func:`~repro.core.recovery.recover_manager`).  Every entry,
        checkpoint rows included, goes through the same
        :func:`~repro.core.manager_state.apply` the live path uses.
        Then the runtime links are rebuilt in one step: ICOs whose host
        died are served again, live instance objects are re-linked, and
        implementation types are read off the instances still alive.
        """
        for entry in journal.replay():
            apply(self.state, entry)
        for component, ico_loid, host_name in list(self.state.components.values()):
            yield from self._restore_component(component, ico_loid, host_name)
        for loid, host_name in self.state.instances.items():
            self._restore_instance(loid, host_name)

    def _restore_component(self, component, ico_loid, host_name):
        """Re-link (or re-create) the ICO serving ``component``."""
        obj = self._runtime.live_object(ico_loid)
        if obj is not None and obj.is_active:
            return
        # The ICO died with its host.  The component metadata (code on
        # disk) survives in the journal, so serve it again — from the
        # original host if it is back up, else from the manager's.
        host = None
        if host_name is not None and host_name in self._runtime.hosts:
            candidate = self._runtime.host(host_name)
            if candidate.is_up:
                host = candidate
        host = host or self._host
        ico = ImplementationComponentObject(
            self._runtime, ico_loid, host, component=component
        )
        yield from ico.activate()
        self._runtime.attach_object(ico)
        self._runtime.context_space.bind(
            f"/components/{self.type_name}/{component.component_id}", ico_loid
        )

    def _restore_instance(self, loid, host_name):
        """Rebuild the :class:`InstanceRecord` for a journaled instance."""
        obj = self._runtime.live_object(loid)
        host = (
            self._runtime.host(host_name)
            if host_name in self._runtime.hosts
            else self._host
        )
        if obj is not None:
            host = obj.host
            self._instance_impl_types[loid] = obj.implementation_type
        process = host.process_for(loid) if host.is_up else None
        # An object another incarnation is still building is not live
        # yet: if that build fails, an adopted record would never heal.
        active = (
            obj is not None
            and obj.is_active
            and not obj.building
            and process is not None
        )
        self._instances[loid] = InstanceRecord(
            loid=loid,
            obj=obj,
            host=host,
            process=process,
            active=active,
            version_tag=str(obj.version) if active and obj.version else None,
        )

    def write_checkpoint(self):
        """Compact the journal: replace it with a snapshot of the state.

        The snapshot is :func:`~repro.core.manager_state.checkpoint_rows`
        — one entry per row of state — so its length, and the replay
        cost charged for it, scale with the state it holds.  Returns
        the number of rows.
        """
        if self._journal is None:
            raise ValueError("no journal attached")
        rows = checkpoint_rows(self.state)
        self._journal.write_checkpoint(rows)
        self._publish_journal_gauges()
        return len(rows)

    # ------------------------------------------------------------------
    # Exported manager interface
    # ------------------------------------------------------------------

    def _register_manager_methods(self):
        self.register_method("getCurrentVersion", self._m_get_current_version)
        self.register_method("getVersions", self._m_get_versions)
        self.register_method("updateInstance", self._m_update_instance)
        self.register_method("syncInstance", self._m_sync_instance)
        self.register_method("getDCDOTable", self._m_get_dcdo_table)
        self.register_method("ping", self._m_ping)
        # Routed (sharded-plane) variants: first two args are the
        # caller's partition-map epoch and the target LOID; the guard
        # bounces with StalePartitionMap when this shard no longer owns
        # the LOID's slot.
        self.register_method("routedUpdateInstance", self._m_routed_update)
        self.register_method("routedSyncInstance", self._m_routed_sync)
        self.register_method("routedInstanceVersion", self._m_routed_version)

    def _m_ping(self, ctx):
        """Liveness probe for the failure detector; returns the term."""
        return ("pong", self.state.term)
        yield  # pragma: no cover - uniform generator shape

    def _m_get_current_version(self, ctx):
        return self.state.current_version
        yield  # pragma: no cover - uniform generator shape

    def _m_get_versions(self, ctx):
        return [(str(version), self.is_instantiable(version)) for version in self.versions()]
        yield  # pragma: no cover - uniform generator shape

    def _m_update_instance(self, ctx, loid, target_version=None):
        """§3.4 explicit update: external objects call this.

        Under the increasing-version multi-version variant, "the
        explicit update policy could be altered to allow any ready
        version number eventually derived from the DCDO's current
        version to be specified in the parameter to updateInstance()" —
        which is exactly passing ``target_version`` here.
        """
        version = yield from self.evolve_instance(loid, target_version)
        return version

    def _m_sync_instance(self, ctx, loid):
        """Lazy-update entry point: bring ``loid`` to the policy target."""
        version = yield from self.try_evolve_instance(loid)
        return version

    def _m_routed_update(self, ctx, epoch, loid, target_version=None):
        self._shard_guard(epoch, loid)
        version = yield from self.evolve_instance(loid, target_version)
        return version

    def _m_routed_sync(self, ctx, epoch, loid):
        self._shard_guard(epoch, loid)
        version = yield from self.try_evolve_instance(loid)
        return version

    def _m_routed_version(self, ctx, epoch, loid):
        self._shard_guard(epoch, loid)
        return self.state.instance_versions.get(loid)
        yield  # pragma: no cover - uniform generator shape

    def _m_get_dcdo_table(self, ctx):
        return [
            (str(loid), str(version) if version else None, str(impl_type), active)
            for loid, version, impl_type, active in self.dcdo_table()
        ]
        yield  # pragma: no cover - uniform generator shape


def define_dcdo_type(
    runtime,
    type_name,
    evolution_policy=None,
    update_policy=None,
    remove_policy=None,
    host_name=None,
    journal=None,
    propagation_retry_policy=None,
    fanout_window=8,
    wave_policy=None,
):
    """Define a DCDO type in ``runtime`` and return its manager.

    The counterpart of :meth:`LegionRuntime.define_class` for DCDOs;
    the returned manager still needs components registered and a first
    version built before instances can be created.
    """

    def factory(runtime_, type_name_, host_, implementations=(), instance_factory=None):
        return DCDOManager(
            runtime_,
            type_name_,
            host_,
            implementations=implementations,
            instance_factory=instance_factory,
            evolution_policy=evolution_policy,
            update_policy=update_policy,
            remove_policy=remove_policy,
            journal=journal,
            propagation_retry_policy=propagation_retry_policy,
            fanout_window=fanout_window,
            wave_policy=wave_policy,
        )

    return runtime.define_class(type_name, class_factory=factory, host_name=host_name)
