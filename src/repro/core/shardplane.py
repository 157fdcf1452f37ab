"""Sharded manager plane: N DCDO managers behind one partition map.

The paper's architecture gives each DCDO type exactly one manager.
Every PR so far hardened that single authority (journal, standby,
fencing, gray tolerance) without removing the bottleneck: each wave,
journal append, and recovery pass serializes through one object.  The
:class:`ShardedManagerPlane` splits the DCDO table across N
:class:`~repro.core.manager.DCDOManager` *shards*, each owning the
contiguous LOID-hash ranges assigned to it by a shared
:class:`~repro.core.partition.ReplicatedPartitionMap`:

- **Routing** — clients hold a :class:`~repro.core.partition.
  PartitionRouter` (cached map + bounce refresh); the plane itself
  routes creates by pre-minting the LOID and hashing it.
- **Versions and components are plane-global** — the version tree
  issues ids deterministically, so repeating each configuration
  operation on every shard yields identical version ids everywhere;
  exactly one shard creates each ICO and the rest adopt it.  The
  plane records the configuration log so shards created later (splits)
  replay it and join equivalent.
- **Waves fan out per shard in parallel** — each shard drives its own
  windowed/relay/announce wave over only its instances; with per-shard
  relay rosters no single manager (or tree root) touches more than its
  range.
- **Handoff is map-commit ordered** — rows copy to the target (which
  journals them) *before* the map's epoch bump, and the source drops
  and term-fences its moved range only *after*; the map is the single
  ownership authority, so a crash anywhere in between leaves at most
  orphan rows that :meth:`reconcile` prunes against the map — a moved
  range is never writable by two shards.
- **Failure handling is per shard** — each shard gets its own journal,
  standby link, and :class:`~repro.cluster.supervisor.Supervisor`;
  recovery replays only the failed shard's journal.
"""

from repro.core.partition import (
    HASH_SPACE,
    PartitionMap,
    PartitionRouter,
    ReplicatedPartitionMap,
    partition_slot,
)
from repro.core.recovery import ManagerJournal
from repro.legion.loid import class_loid

#: Simulated copy cost per handed-off DCDO-table row (seconds).  Small
#: — rows are metadata, not state — but nonzero so a rebalance has a
#: real window for the chaos harness to crash into.
HANDOFF_ROW_S = 0.00005

#: Poll interval while a create waits out a handoff of its slot.
HANDOFF_WAIT_S = 0.01

#: Longest a handoff waits for the target's standby to hold the adopted
#: rows (two replication ship timeouts) before it aborts instead.
HANDOFF_REPLICATION_S = 10.0


class HandoffAborted(Exception):
    """A shard involved in a rebalance died before the map committed."""


class ShardedManagerPlane:
    """N journaled manager shards of one DCDO type plus their map.

    Parameters
    ----------
    runtime:
        The Legion runtime.
    type_name:
        The managed DCDO type (shared by every shard).
    shard_count:
        Initial shard count; the map starts as an even split.
    shard_hosts:
        Optional ``shard_id -> host_name`` placement for the shard
        manager objects (defaults to spreading over the runtime's
        hosts).
    journals:
        Optional per-shard :class:`ManagerJournal` list; fresh journals
        are created when omitted.
    map_replica_hosts:
        Hosts carrying partition-map replica views (router refresh
        points); defaults to the shard managers' hosts.
    manager_kwargs:
        Forwarded to every shard's :class:`DCDOManager` (policies,
        retry, fanout window, ...).
    """

    def __init__(
        self,
        runtime,
        type_name,
        shard_count=2,
        shard_hosts=None,
        journals=None,
        map_replica_hosts=None,
        **manager_kwargs,
    ):
        from repro.core.manager import DCDOManager

        if shard_count < 1:
            raise ValueError("need at least one shard")
        self.runtime = runtime
        self.type_name = type_name
        self._manager_kwargs = dict(manager_kwargs)
        self._manager_cls = DCDOManager
        self._shards = {}
        self._supervisors = {}
        self._relay_slices = {}
        self._relay_settings = None
        self._config_log = []
        self._mid_handoff = []
        self._host_cursor = 0
        host_names = list(runtime.hosts)
        shard_hosts = dict(shard_hosts or {})
        placements = {
            k: shard_hosts.get(k, host_names[k % len(host_names)])
            for k in range(shard_count)
        }
        if map_replica_hosts is None:
            map_replica_hosts = sorted(set(placements.values()))
        self.map = ReplicatedPartitionMap(
            runtime,
            f"{type_name}.pmap",
            PartitionMap.even(shard_count),
            replica_hosts=map_replica_hosts,
        )
        journals = list(journals or [])
        for k in range(shard_count):
            journal = (
                journals[k]
                if k < len(journals)
                else ManagerJournal(name=f"{type_name}/s{k}")
            )
            self._spawn_shard(k, placements[k], journal)

    # ------------------------------------------------------------------
    # Shard construction
    # ------------------------------------------------------------------

    def _spawn_shard(self, shard_id, host_name, journal):
        """Build, activate, and register shard ``shard_id``.

        Shard 0 registers as *the* class object for the type (so every
        unsharded code path — ``runtime.class_of``, context lookups,
        detectors — keeps working); other shards attach under their own
        deterministic LOID and a per-shard context path.
        """
        runtime = self.runtime
        kwargs = dict(self._manager_kwargs)
        if shard_id == 0 and self.type_name not in runtime._classes:

            def factory(
                runtime_, type_name_, host_, implementations=(), instance_factory=None
            ):
                return self._manager_cls(
                    runtime_,
                    type_name_,
                    host_,
                    implementations=implementations,
                    instance_factory=instance_factory,
                    journal=journal,
                    **kwargs,
                )

            manager = runtime.define_class(
                self.type_name, class_factory=factory, host_name=host_name
            )
        else:
            loid = class_loid(
                runtime.domain, f"{self.type_name}/s{shard_id}"
            )
            manager = self._manager_cls(
                runtime,
                self.type_name,
                runtime.host(host_name),
                journal=journal,
                loid=loid,
                **kwargs,
            )
            runtime.sim.run_process(manager.activate())
            runtime.attach_object(manager)
        manager.configure_shard(shard_id, self.map)
        runtime.context_space.bind(
            f"/shards/{self.type_name}/{shard_id}", manager.loid
        )
        self._shards[shard_id] = manager
        return manager

    def _replay_config(self, manager):
        """Bring a late-created shard up to the plane's configuration."""
        for op in self._config_log:
            if op[0] == "adopt":
                __, component, ico_loid, host_name = op
                manager.adopt_component(component, ico_loid, host_name)
            elif op[0] == "enable":
                __, version, name, component_id, enable_kwargs = op
                manager.descriptor_of(version).enable(
                    name, component_id, **enable_kwargs
                )
            else:
                __, method, args, kwargs = op
                getattr(manager, method)(*args, **kwargs)

    # ------------------------------------------------------------------
    # Introspection / routing
    # ------------------------------------------------------------------

    @property
    def shard_ids(self):
        return tuple(sorted(self._shards))

    @property
    def shards(self):
        """Live ``shard_id -> manager`` view (promotions update it)."""
        return dict(self._shards)

    @property
    def supervisors(self):
        return dict(self._supervisors)

    def shard_manager(self, shard_id):
        manager = self._shards.get(shard_id)
        if manager is None:
            raise KeyError(f"no live shard {shard_id} for {self.type_name!r}")
        return manager

    def manager_for(self, loid):
        """The shard manager currently owning ``loid`` (by the map)."""
        return self.shard_manager(self.map.current.shard_for(loid))

    def router(self, host_name=None):
        """A client-side :class:`PartitionRouter` over this plane."""
        return PartitionRouter(
            self.map, lambda shard_id: self._shards.get(shard_id), host_name
        )

    def instance_loids(self):
        """Every managed LOID across the plane, shard order."""
        out = []
        for shard_id in self.shard_ids:
            out.extend(self._shards[shard_id].instance_loids())
        return out

    def record(self, loid):
        return self.manager_for(loid).record(loid)

    def instance_version(self, loid):
        return self.manager_for(loid).instance_version(loid)

    @property
    def current_version(self):
        return self._primary.current_version

    @property
    def _primary(self):
        return self._shards[min(self._shards)]

    def status(self):
        """Per-shard snapshot rows for the obs layer."""
        rows = []
        for shard_id in self.shard_ids:
            manager = self._shards[shard_id]
            journal = manager.journal
            rows.append(
                {
                    "shard_id": shard_id,
                    "type_name": self.type_name,
                    "host": manager.host.name,
                    "term": manager.term,
                    "active": manager.is_active,
                    "instances": len(manager.instance_loids()),
                    "spans": manager.owned_spans(),
                    "journal_entries": len(journal) if journal else 0,
                    "map_epoch": self.map.epoch,
                }
            )
        return rows

    # ------------------------------------------------------------------
    # Plane-global configuration (mirrored onto every shard)
    # ------------------------------------------------------------------

    def register_component(self, component, host_name=None):
        """Register a component once, adopt it on every other shard."""
        shard_ids = self.shard_ids
        ico_loid = self._shards[shard_ids[0]].register_component(
            component, host_name=host_name
        )
        for shard_id in shard_ids[1:]:
            self._shards[shard_id].adopt_component(
                component, ico_loid, host_name
            )
        self._config_log.append(("adopt", component, ico_loid, host_name))
        return ico_loid

    def _mirror(self, method, *args, **kwargs):
        """Apply one configuration op to every shard, log it, and
        return the primary's result (identical everywhere: version ids
        issue deterministically)."""
        results = [
            getattr(self._shards[shard_id], method)(*args, **kwargs)
            for shard_id in self.shard_ids
        ]
        self._config_log.append(("call", method, args, kwargs))
        first = results[0]
        assert all(result == first for result in results), (
            f"shards diverged on {method}: {results}"
        )
        return first

    def new_version(self):
        return self._mirror("new_version")

    def derive_version(self, parent):
        return self._mirror("derive_version", parent)

    def incorporate_into(self, version, component_id):
        return self._mirror("incorporate_into", version, component_id)

    def mark_instantiable(self, version):
        return self._mirror("mark_instantiable", version)

    def set_current_version(self, version):
        return self._mirror("set_current_version", version)

    def enable_function(self, version, name, component_id, **enable_kwargs):
        """Enable a function in every shard's configurable descriptor.

        Descriptor edits happen on the descriptor object, not the
        manager, so the mirror is explicit here — shard descriptors
        must stay byte-equivalent or their instances would diverge.
        """
        for shard_id in self.shard_ids:
            self._shards[shard_id].descriptor_of(version).enable(
                name, component_id, **enable_kwargs
            )
        self._config_log.append(
            ("enable", version, name, component_id, enable_kwargs)
        )

    def descriptor_of(self, version):
        """The primary shard's descriptor (read it, don't edit it —
        use :meth:`enable_function` for plane-wide edits)."""
        return self._primary.descriptor_of(version)

    def configure(self, method, *args, **kwargs):
        """Mirror any other manager configuration method plane-wide."""
        return self._mirror(method, *args, **kwargs)

    # ------------------------------------------------------------------
    # Instances
    # ------------------------------------------------------------------

    def create_instance(self, host_name=None, state=None, state_bytes=0):
        """Generator: create an instance on its hash-owning shard.

        The LOID is pre-minted so the owning shard is known before the
        create lands anywhere.  A create whose slot is mid-handoff
        waits for the map commit — it must journal on the shard that
        will own it, not the one about to release it.
        """
        loid = self.runtime.mint_loid(self.type_name)
        slot = partition_slot(loid)
        while any(lo <= slot < hi for lo, hi in self._mid_handoff):
            yield self.runtime.sim.timeout(HANDOFF_WAIT_S)
        shard = self.shard_manager(self.map.current.shard_for_slot(slot))
        if host_name is None:
            host_name = self._default_host_for(shard)
        result = yield from shard.create_instance(
            host_name=host_name, state=state, state_bytes=state_bytes, loid=loid
        )
        return result

    def _default_host_for(self, shard):
        """Round-robin placement within the shard's relay slice.

        With relays deployed, keeping a shard's instances on its
        roster hosts is what lets its announce waves commit whole
        hosts; without relays any host will do.
        """
        slice_hosts = self._relay_slices.get(shard.shard_id)
        if not slice_hosts:
            return None
        self._host_cursor += 1
        return slice_hosts[self._host_cursor % len(slice_hosts)]

    # ------------------------------------------------------------------
    # Waves (per-shard parallel fan-out)
    # ------------------------------------------------------------------

    def propagate_version(
        self, version, retry_policy=None, window=None, wave_policy=None
    ):
        """Generator: drive every shard's wave for ``version`` in
        parallel; returns ``shard_id -> PropagationTracker``."""
        from repro.net import run_windowed

        shard_ids = self.shard_ids
        thunks = [
            (
                lambda m=self._shards[shard_id]: m.propagate_version(
                    version,
                    retry_policy=retry_policy,
                    window=window,
                    wave_policy=wave_policy,
                )
            )
            for shard_id in shard_ids
        ]
        outcomes = yield from run_windowed(
            self.runtime.sim, thunks, len(thunks)
        )
        self.runtime.network.count("manager.shard.waves", len(shard_ids))
        trackers = {}
        for shard_id, (ok, value) in zip(shard_ids, outcomes):
            if not ok:
                raise value
            trackers[shard_id] = value
        return trackers

    def set_current_version_async(self, version):
        """Mirror the designation; each shard spawns its own wave."""
        processes = []
        for shard_id in self.shard_ids:
            process = self._shards[shard_id].set_current_version_async(version)
            if process is not None:
                processes.append(process)
        self._config_log.append(("call", "set_current_version", (version,), {}))
        if processes:
            self.runtime.network.count("manager.shard.waves", len(processes))
        return processes

    # ------------------------------------------------------------------
    # Relays (per-shard roster slices)
    # ------------------------------------------------------------------

    def use_relays(
        self, directory, fanout_k=0, batch_window=None, announce=False
    ):
        """Split the relay directory into per-shard host slices.

        Each shard announces over its own roster (named
        ``"<type>/s<k>"``), so N shard waves run N disjoint diffusion
        trees concurrently — no shared root, no shared egress port.
        """
        self._relay_settings = {
            "directory": dict(directory),
            "fanout_k": fanout_k,
            "batch_window": batch_window,
            "announce": announce,
        }
        self._reslice_relays()

    def _reslice_relays(self):
        from repro.cluster.relay import seed_announce_roster

        settings = self._relay_settings
        if settings is None:
            return
        directory = settings["directory"]
        hosts = sorted(directory)
        shard_ids = self.shard_ids
        self._relay_slices = {}
        for index, shard_id in enumerate(shard_ids):
            lo = (index * len(hosts)) // len(shard_ids)
            hi = ((index + 1) * len(hosts)) // len(shard_ids)
            slice_hosts = hosts[lo:hi] or hosts
            sub_directory = {h: directory[h] for h in slice_hosts}
            roster_id = f"{self.type_name}/s{shard_id}"
            seed_announce_roster(self.runtime, sub_directory, roster_id=roster_id)
            self._shards[shard_id].use_relays(
                sub_directory,
                fanout_k=settings["fanout_k"],
                batch_window=settings["batch_window"],
                announce=settings["announce"],
                roster_id=roster_id,
            )
            self._relay_slices[shard_id] = tuple(slice_hosts)

    # ------------------------------------------------------------------
    # Rebalancing (split / merge / move under live traffic)
    # ------------------------------------------------------------------

    def split_shard(
        self, shard_id, new_shard_id=None, host_name=None, journal=None,
        mode="consistent",
    ):
        """Generator: halve a shard's widest range onto a new shard."""
        if new_shard_id is None:
            new_shard_id = max(self._shards) + 1
        host_name = (
            host_name
            or list(self.runtime.hosts)[new_shard_id % len(self.runtime.hosts)]
        )
        journal = journal or ManagerJournal(
            name=f"{self.type_name}/s{new_shard_id}"
        )
        manager = self._spawn_shard(new_shard_id, host_name, journal)
        self._replay_config(manager)
        new_map = self.map.current.split(shard_id, new_shard_id)
        yield from self._commit_handoff(new_map, mode)
        self._reslice_relays()
        return manager

    def merge_shards(self, source, target, mode="consistent"):
        """Generator: fold ``source``'s ranges into ``target`` and
        retire the source shard."""
        new_map = self.map.current.merge(source, target)
        yield from self._commit_handoff(new_map, mode)
        supervisor = self._supervisors.pop(source, None)
        if supervisor is not None:
            supervisor.stop()
        retired = self._shards.pop(source)
        if retired.is_active:
            retired.deactivate()
        self._reslice_relays()
        return self._shards[target]

    def move_range(self, span, target, mode="consistent"):
        """Generator: rebalance one slot span onto ``target``."""
        new_map = self.map.current.move(span, target)
        yield from self._commit_handoff(new_map, mode)

    def _commit_handoff(self, new_map, mode):
        """Generator: the crash-safe handoff order.

        1. copy rows source→target (target journals them);
        2. ``map.apply`` — the epoch bump *is* the commit point;
        3. source journals the release, drops rows, bumps its term.

        A crash before (2) aborts: the map still names the source, and
        a target still live drops the rows it adopted at once; a dead
        target's journaled orphans are pruned by :meth:`reconcile`.  A
        crash after (2) needs no undo: ownership already moved, and
        the source's release replays from its journal on recovery —
        with the term fence rejecting any of its in-flight deliveries
        for the moved range.
        """
        sim = self.runtime.sim
        moves = self._diff_moves(self.map.current, new_map)
        spans = [span for span, __, __ in moves]
        adopted = {}
        self._mid_handoff.extend(spans)
        try:
            for span, source_id, target_id in moves:
                source = self.shard_manager(source_id)
                target = self.shard_manager(target_id)
                rows = source.export_rows(span)
                # The copy takes real time: this window is what
                # mid-rebalance chaos crashes into.
                yield sim.timeout(HANDOFF_ROW_S * max(1, len(rows)))
                if not source.is_active or not target.is_active:
                    raise HandoffAborted(
                        f"shard died copying span {span} "
                        f"(s{source_id}→s{target_id})"
                    )
                target.adopt_rows(rows)
                adopted.setdefault(target_id, []).extend(loid for loid, __, __ in rows)
            for target_id in sorted(adopted):
                yield from self._await_standby(target_id)
            yield from self.map.apply(new_map, mode=mode)
            for span, source_id, __ in moves:
                self.shard_manager(source_id).release_span(span)
            self.runtime.network.count("manager.shard.handoffs", len(moves))
        except HandoffAborted:
            for target_id, loids in adopted.items():
                target = self.shard_manager(target_id)
                if target.is_active:
                    target.prune_rows(loids)
            raise
        finally:
            for span in spans:
                self._mid_handoff.remove(span)

    def _await_standby(self, shard_id):
        """Generator: wait until ``shard_id``'s standby holds its journal.

        The epoch bump is the commit point, so the adopted rows must be
        replicated before it: a target failover right after the commit
        would otherwise promote a standby that never saw them, and the
        source has already released them.
        """
        sim = self.runtime.sim
        supervisor = self._supervisors.get(shard_id)
        link = supervisor.link if supervisor is not None else None
        deadline = sim.now + HANDOFF_REPLICATION_S
        while link is not None and link.lag:
            if sim.now >= deadline or not self.shard_manager(shard_id).is_active:
                raise HandoffAborted(f"s{shard_id}'s standby never caught up")
            yield sim.timeout(HANDOFF_WAIT_S)

    @staticmethod
    def _diff_moves(old_map, new_map):
        """Coalesced ``(span, old_owner, new_owner)`` ownership moves."""
        bounds = sorted(
            {r.lo for r in old_map.ranges}
            | {r.lo for r in new_map.ranges}
            | {HASH_SPACE}
        )
        moves = []
        for lo, hi in zip(bounds, bounds[1:]):
            old_owner = old_map.shard_for_slot(lo)
            new_owner = new_map.shard_for_slot(lo)
            if old_owner == new_owner:
                continue
            if (
                moves
                and moves[-1][0][1] == lo
                and moves[-1][1] == old_owner
                and moves[-1][2] == new_owner
            ):
                moves[-1] = ((moves[-1][0][0], hi), old_owner, new_owner)
            else:
                moves.append(((lo, hi), old_owner, new_owner))
        return moves

    # ------------------------------------------------------------------
    # Supervision + reconciliation (per-shard scope)
    # ------------------------------------------------------------------

    def supervise(self, standby_hosts, detector_host_name, **supervisor_kwargs):
        """Start one :class:`Supervisor` per shard; returns them.

        Each supervisor watches its shard's own LOID, promotes from its
        shard's own standby journal, and re-points the plane's routing
        at the promotee — one shard's failover never touches the rest
        of the plane.
        """
        from repro.cluster.supervisor import Supervisor

        settings = self._relay_settings or {}
        for shard_id in self.shard_ids:
            manager = self._shards[shard_id]
            slice_hosts = self._relay_slices.get(shard_id)
            relays = None
            if slice_hosts and settings:
                relays = {
                    h: settings["directory"][h]
                    for h in slice_hosts
                    if h in settings["directory"]
                }

            def on_promote(promoted, shard_id=shard_id):
                if shard_id in self._shards:
                    self._shards[shard_id] = promoted

            self._supervisors[shard_id] = Supervisor(
                self.runtime,
                self.type_name,
                standby_hosts=standby_hosts,
                detector_host_name=detector_host_name,
                manager=manager,
                on_promote=on_promote,
                relays=relays,
                relay_fanout_k=settings.get("fanout_k", 0) if relays else 0,
                relay_batch_window=settings.get("batch_window"),
                relay_announce=bool(settings.get("announce")) if relays else False,
                relay_roster_id=f"{self.type_name}/s{shard_id}" if relays else None,
                **supervisor_kwargs,
            ).start()
        return dict(self._supervisors)

    def stop_supervision(self):
        for supervisor in self._supervisors.values():
            supervisor.stop()

    def adopt_shard(self, shard_id, manager):
        """Re-point the plane at a recovered manager for ``shard_id``.

        :func:`~repro.core.recovery.recover_manager` rebuilds a crashed
        shard from its journal and re-registers it with the *runtime*
        (same LOID, bumped term), but the plane's own routing table
        still holds the dead object; supervised planes fix that in
        their ``on_promote`` hook, unsupervised callers fix it here.
        """
        if shard_id not in self._shards:
            raise KeyError(
                f"no shard {shard_id} in plane for {self.type_name!r}"
            )
        if manager.shard_id != shard_id:
            raise ValueError(
                f"manager is configured as shard {manager.shard_id}, "
                f"not {shard_id}"
            )
        self._shards[shard_id] = manager
        return manager

    def reconcile(self):
        """Prune rows the map says a shard no longer owns.

        Closes the aborted-handoff window: a target that journaled
        adopted rows before the commit crashed keeps them as orphans —
        harmless (the map never routed to it) but a double-ownership
        hazard for table enumeration.  Spans mid-handoff are exempt
        (their adoption is supposed to be ahead of the map).
        """
        pruned = 0
        for shard_id in self.shard_ids:
            manager = self._shards[shard_id]
            orphans = [
                loid
                for loid in manager.instance_loids()
                if self.map.current.shard_for(loid) != shard_id
                and not any(
                    lo <= partition_slot(loid) < hi
                    for lo, hi in self._mid_handoff
                )
            ]
            if orphans:
                manager.prune_rows(orphans)
                pruned += len(orphans)
        if pruned:
            self.runtime.network.count("manager.shard.orphans_pruned", pruned)
        return pruned
