"""Host-level relays for evolution waves.

The paper's evolution-management policy (§4) has the DCDO Manager push
a new DFM descriptor to every managed instance — one management RPC
per instance per wave.  At production scale that is O(N) manager-side
RPCs even with windowed fan-out, and most of those RPCs travel to the
same handful of machines.

A :class:`HostRelay` is a small management agent, one per cluster
host, that receives a single ``evolveBatch`` RPC covering *all*
colocated instances of a type and applies each instance's two-phase
``applyConfiguration`` locally.  The per-instance acks it returns feed
the manager's existing :class:`~repro.core.recovery.PropagationTracker`
/ journal / wave-policy machinery unchanged — the relay layer is a
transport optimization, not a weakening of PR 3's transactional
guarantees:

- application stays idempotent per instance (keyed by target version),
  so a re-sent batch after a lost ack is harmless;
- a relay that dies mid-batch takes its colocated instances with it
  (same machine), and the manager's per-instance retry/FAILED
  bookkeeping — including falling back to direct delivery — proceeds
  exactly as if the instances had been unreachable directly.

For large host counts an optional k-ary diffusion tree stacks relays:
the manager sends one bundle to a root relay, which forwards child
bundles concurrently while applying its own batch, giving O(log_k H)
wave latency for H hosts.  A subtree whose relay is unreachable is
reported failed wholesale; those instances stay PENDING at the manager
and are re-delivered directly.

Job-carrying bundles still put O(instances) bytes through the manager
and root-relay egress ports, which caps wave scaling: at a fixed
instances-per-host density the wave time grows linearly with fleet
size purely from serializing per-instance job records.  *Announcement*
waves (``announceTree``) remove that term: the tree carries only the
configuration diffs (constant size per distinct from-version) plus the
subtree routing table, each relay enumerates its own colocated
instances of the announced type, and acks travel up as one per-host
``(host, count, digest)`` summary.  The manager commits a host's
instances only when the relay's applied-set digest matches the set it
expected, so announcement waves keep exactly the per-instance
tracker/journal bookkeeping of job batches — any mismatch leaves the
host PENDING for the job-batch and direct paths.

The per-host form still puts O(hosts) bytes through the root (routing
table down, one summary per host up).  The *fleet* form
(``announceFleet``) removes that last size-dependent term: every relay
is seeded with the shared sorted host roster at deploy time, bundles
route by a contiguous roster index range (constant bytes per hop), and
— because set digests are additive CRC sums — each relay folds its
subtree's acks into one ``(hosts, count, digest)`` aggregate (constant
bytes per hop).  An exact aggregate match commits the whole wave in
one round trip; any shortfall drops the wave to per-host announcement
rounds, which localize the failure, and from there to job batches and
direct delivery.  Guarantees are unchanged — the aggregate can only
*under*-commit, never commit an instance the manager did not expect.

Layering note: like :mod:`repro.cluster.chaos` this module orchestrates
across layers, so runtime imports stay inside functions.
"""

import zlib

from repro.core.partition import partition_slot
from repro.legion.objects import LegionObject

#: In-flight window for a relay applying its local batch.
RELAY_APPLY_WINDOW = 8
#: Generous per-attempt reply timeouts for applyConfiguration calls —
#: prepare-phase downloads can run long (same schedule the manager uses
#: for direct delivery).
RELAY_APPLY_TIMEOUTS = (60.0, 120.0, 600.0)
#: Nominal wire bytes per job record in a batch (loid + diff framing).
BATCH_JOB_BYTES = 256
#: Nominal wire bytes per subtree routing entry (host + relay LOID) and
#: per per-host ack summary in an announcement wave.
ANNOUNCE_HOST_BYTES = 32
#: Nominal wire bytes for one announced configuration diff.
ANNOUNCE_DIFF_BYTES = 1024
#: Nominal wire bytes for a fleet announcement's fixed routing header
#: (roster index range + fanout + term) and for one aggregated ack.
ANNOUNCE_ROUTE_BYTES = 64
ANNOUNCE_ACK_BYTES = 64
#: Mask keeping set digests (and their sums) at 64 bits.
DIGEST_MASK = 0xFFFFFFFFFFFFFFFF


def set_digest(loids):
    """Order-independent digest of a LOID set.

    A 64-bit sum of per-LOID CRC32s: deterministic across runs (unlike
    ``hash(str)`` under hash randomization) and independent of apply
    order, so a relay and the manager can compare "which instances"
    without shipping the LOID list back up the tree.
    """
    total = 0
    for loid in loids:
        total = (total + zlib.crc32(str(loid).encode("utf-8"))) & DIGEST_MASK
    return total


class HostRelay(LegionObject):
    """Per-host evolution relay agent.

    Exported interface:

    - ``evolveBatch(jobs, window, term)`` — apply ``(loid, diff)`` jobs
      to colocated instances; returns ``(loid, ok, value)`` triples
      where ``value`` is the version string reached or the exception
      raised.  ``term`` (optional) is the manager's fencing token,
      re-stamped on every downstream apply.
    - ``relayTree(bundle)`` — apply this host's jobs *and* forward
      child bundles to downstream relays concurrently, aggregating the
      whole subtree's acks into one reply.

    The relay is stateless between batches: its endpoint address lives
    under ``<host>/`` so a host crash severs it like any colocated
    object, and recovery is a plain re-activation (see
    :func:`restore_relays`).
    """

    def __init__(self, runtime, loid, host):
        super().__init__(runtime, loid, host)
        self.batches_served = 0
        self.instances_evolved = 0
        self.instances_failed = 0
        #: Sorted ``((host, relay_loid), ...)`` roster shared by every
        #: relay in the deployment; seeded by :func:`deploy_relays` /
        #: :func:`restore_relays` so fleet announcements can route by
        #: roster index instead of shipping a subtree table per hop.
        self.announce_roster = None
        #: Named roster slices for sharded planes: ``roster_id ->
        #: roster``.  Each shard manager announces over its own slice
        #: of the host set (``bundle["roster"]`` selects it), so shard
        #: waves fan out in parallel without sharing one tree root.
        self.rosters = {}
        self.register_method("evolveBatch", self._m_evolve_batch)
        self.register_method("relayTree", self._m_relay_tree)
        self.register_method("announceTree", self._m_announce_tree)
        self.register_method("announceFleet", self._m_announce_fleet)

    # ------------------------------------------------------------------
    # Local batch application
    # ------------------------------------------------------------------

    def _prewarm_local_bindings(self, loids):
        """Resolve colocated targets host-locally, skipping the agent.

        The node's runtime already knows the physical addresses of
        endpoints it hosts, so a relay binding to a target on its own
        host need not pay a round trip to the central binding agent.
        Without this, a fleet-wide wave funnels one resolve per
        instance through the agent's single port — an O(instances)
        serial bottleneck on what is otherwise a parallel diffusion
        tree.
        """
        cache = self.invoker.binding_cache
        agent = self.runtime.binding_agent
        warmed = 0
        for loid in loids:
            if loid in cache:
                continue
            obj = self.runtime.live_object(loid)
            if obj is None or not obj.is_active or obj.host is not self.host:
                continue
            cache.put(agent.resolve_local(loid))
            warmed += 1
        if warmed:
            self.runtime.network.count("relay.local_binds", warmed)

    def _apply_jobs(self, jobs, window, term=None):
        """Generator: apply ``(loid, diff)`` jobs, windowed; returns acks.

        ``term`` is the sending manager's fencing token; re-stamping it
        on every downstream ``applyConfiguration`` keeps the batch path
        as fenced as direct delivery — a deposed manager's batch is
        rejected per instance, and the rejection rides back in the acks.
        """
        jobs = list(jobs)
        self._prewarm_local_bindings([loid for loid, __ in jobs])
        calls = [
            (loid, "applyConfiguration", (diff,)) for loid, diff in jobs
        ]
        outcomes = yield from self.invoker.invoke_each(
            calls,
            window=window or RELAY_APPLY_WINDOW,
            timeout_schedule=RELAY_APPLY_TIMEOUTS,
            term=term,
        )
        acks = []
        for (loid, __), (ok, value) in zip(jobs, outcomes):
            if ok:
                self.instances_evolved += 1
            else:
                self.instances_failed += 1
            acks.append((loid, ok, value))
        self.batches_served += 1
        self.runtime.network.count("relay.batches")
        self.runtime.network.count("relay.batch_instances", len(jobs))
        return acks

    def _m_evolve_batch(self, ctx, jobs, window=None, term=None):
        acks = yield from self._apply_jobs(jobs, window, term)
        return acks

    # ------------------------------------------------------------------
    # k-ary diffusion tree
    # ------------------------------------------------------------------

    def _m_relay_tree(self, ctx, bundle):
        """Serve one diffusion-tree node: own jobs + child subtrees.

        ``bundle`` is ``{"jobs": [(loid, diff), ...], "children":
        [child_bundle, ...], "window": int}`` where each child bundle
        additionally carries ``"relay"``, the child relay's LOID.  Own
        application and child forwarding run concurrently; the reply
        aggregates every subtree ack.
        """
        from repro.net import TransportError, run_windowed
        from repro.legion.errors import LegionError

        window = bundle.get("window") or RELAY_APPLY_WINDOW
        children = list(bundle.get("children") or ())
        term = bundle.get("term")

        def forward(child):
            child = dict(child, term=term)
            try:
                acks = yield from self.invoker.invoke(
                    child["relay"],
                    "relayTree",
                    (child,),
                    payload_bytes=BATCH_JOB_BYTES * count_jobs(child),
                    timeout_schedule=RELAY_APPLY_TIMEOUTS,
                    term=term,
                )
            except (LegionError, TransportError):
                # The whole subtree is unreachable through this child;
                # report every job failed so the manager re-delivers.
                # The failure is reported as the *relay* being
                # unreachable — never the child error verbatim, which
                # for a vanished relay would be an UnknownObject and
                # read at the manager as "instance deleted" (terminal).
                from repro.legion.errors import ObjectUnreachable

                self.runtime.network.count("relay.subtree_failures")
                failure = ObjectUnreachable(child["relay"], 0.0)
                return [
                    (loid, False, failure) for loid, __ in iter_jobs(child)
                ]
            return acks

        thunks = [lambda: self._apply_jobs(bundle.get("jobs") or (), window, term)]
        thunks += [lambda c=child: forward(c) for child in children]
        outcomes = yield from run_windowed(self.sim, thunks, len(thunks))
        acks = []
        for ok, value in outcomes:
            if not ok:
                raise value  # a bug in the relay itself, not a delivery
            acks.extend(value)
        return acks

    # ------------------------------------------------------------------
    # Announcement waves (constant-size bundles, digest acks)
    # ------------------------------------------------------------------

    def _apply_announcement(self, announcement, window, term):
        """Generator: apply an announced configuration locally.

        Enumerates this host's live instances of the announced type
        (via the runtime's per-host index), applies the diff matching
        each instance's current version, and returns one ``(host,
        count, digest, failures)`` summary.  Instances already at the
        target version count as applied without an RPC — application
        is idempotent keyed by the target version, exactly like the
        manager's own early-ack on a re-armed wave.
        """
        type_name = announcement["type_name"]
        diffs = announcement["diffs"]
        target_version = announcement["target_version"]
        hash_range = announcement.get("hash_range")
        jobs = []
        applied = []
        for obj in self.runtime.objects_on_host(self.host.name):
            loid = obj.loid
            if loid.type_name != type_name or not obj.is_active:
                continue
            if hash_range is not None:
                # Sharded plane: only the announcing shard's slice of
                # this host's instances — siblings' colocated instances
                # belong to other shards' (concurrent) waves.
                slot = partition_slot(loid)
                if not any(lo <= slot < hi for lo, hi in hash_range):
                    continue
            version = getattr(obj, "version", None)
            if version == target_version:
                applied.append(loid)
                continue
            diff = diffs.get(version)
            if diff is not None:
                jobs.append((loid, diff))
        acks = yield from self._apply_jobs(jobs, window, term)
        failures = []
        for loid, ok, value in acks:
            if ok:
                applied.append(loid)
            else:
                failures.append((loid, value))
        return [(self.host.name, len(applied), set_digest(applied), failures)]

    def _m_announce_tree(self, ctx, bundle):
        """Serve one announcement-tree node.

        ``bundle`` carries the announcement (``type_name``, ``diffs``
        keyed by from-version, ``target_version``, ``window``,
        ``term``) plus ``node``, this relay's subtree of ``{"relay",
        "host", "children"}`` routing entries.  Own application and
        child forwarding run concurrently; the reply aggregates one
        per-host summary per subtree host — O(hosts) bytes total, never
        O(instances).
        """
        from repro.net import TransportError, run_windowed
        from repro.legion.errors import LegionError

        node = bundle["node"]
        window = bundle.get("window") or RELAY_APPLY_WINDOW
        term = bundle.get("term")
        children = list(node.get("children") or ())

        def forward(child):
            child_bundle = dict(bundle, node=child)
            try:
                acks = yield from self.invoker.invoke(
                    child["relay"],
                    "announceTree",
                    (child_bundle,),
                    payload_bytes=announce_bundle_bytes(child_bundle),
                    timeout_schedule=RELAY_APPLY_TIMEOUTS,
                    term=term,
                )
            except (LegionError, TransportError):
                # Whole subtree unreachable through this child: report
                # each host with a None digest so the manager leaves
                # its instances PENDING for the fallback paths.
                self.runtime.network.count("relay.subtree_failures")
                return [(host, 0, None, []) for host in iter_tree_hosts(child)]
            return acks

        thunks = [lambda: self._apply_announcement(bundle, window, term)]
        thunks += [lambda c=child: forward(c) for child in children]
        outcomes = yield from run_windowed(self.sim, thunks, len(thunks))
        acks = []
        for ok, value in outcomes:
            if not ok:
                raise value  # a bug in the relay itself, not a delivery
            acks.extend(value)
        ctx.reply_bytes = ANNOUNCE_HOST_BYTES * len(acks)
        return acks

    def _m_announce_fleet(self, ctx, bundle):
        """Serve one fleet-announcement node (roster-range routing).

        ``bundle`` carries the announcement plus only ``lo``/``hi`` —
        a contiguous index range into the shared :attr:`announce_roster`
        — and ``fanout_k``.  This relay is ``roster[lo]``; the rest of
        the range splits into at most ``fanout_k`` contiguous child
        spans, each headed by its first host's relay.  Both the bundle
        and the aggregated ack are constant-size on the wire (digests
        are additive, so a subtree folds into one ``(hosts, count,
        digest)`` summary), which keeps root egress — and therefore wave
        latency — independent of fleet size.  Unreachable subtrees fold
        in as zero hosts; the manager sees the shortfall in the
        aggregate and falls back to per-host rounds.
        """
        from repro.net import TransportError, run_windowed
        from repro.legion.errors import LegionError

        roster_id = bundle.get("roster")
        if roster_id is None:
            roster = self.announce_roster or ()
        else:
            roster = self.rosters.get(roster_id) or ()
        lo = bundle["lo"]
        hi = min(bundle["hi"], len(roster))
        window = bundle.get("window") or RELAY_APPLY_WINDOW
        term = bundle.get("term")
        ctx.reply_bytes = ANNOUNCE_ACK_BYTES
        if lo >= hi or roster[lo][0] != self.host.name:
            # Roster drift (relay redeployed since the sender built its
            # range): report an empty subtree so the manager's aggregate
            # check fails closed instead of double-applying.
            return {"hosts": 0, "count": 0, "digest": 0, "failures": []}

        def forward(span):
            start, stop = span
            __, child_relay, child_binding = roster[start]
            if child_binding is not None:
                # The roster ships bindings (a membership list carries
                # addresses): child resolves must not funnel through
                # the central binding agent's one port.  A reseeded
                # roster's newer incarnation replaces a cached one.
                self.invoker.binding_cache.put(child_binding)
            child_bundle = dict(bundle, lo=start, hi=stop)
            try:
                ack = yield from self.invoker.invoke(
                    child_relay,
                    "announceFleet",
                    (child_bundle,),
                    payload_bytes=announce_fleet_bytes(child_bundle),
                    timeout_schedule=RELAY_APPLY_TIMEOUTS,
                    term=term,
                )
            except (LegionError, TransportError):
                self.runtime.network.count("relay.subtree_failures")
                return {"hosts": 0, "count": 0, "digest": 0, "failures": []}
            return ack

        spans = chunk_spans(lo + 1, hi, bundle["fanout_k"])
        thunks = [lambda: self._apply_announcement(bundle, window, term)]
        thunks += [lambda s=span: forward(s) for span in spans]
        outcomes = yield from run_windowed(self.sim, thunks, len(thunks))
        ok, own = outcomes[0]
        if not ok:
            raise own  # a bug in the relay itself, not a delivery
        __, count, digest, failures = own[0]
        total = {
            "hosts": 1,
            "count": count,
            "digest": digest,
            "failures": list(failures),
        }
        for ok, ack in outcomes[1:]:
            if not ok:
                raise ack
            total["hosts"] += ack["hosts"]
            total["count"] += ack["count"]
            total["digest"] = (total["digest"] + ack["digest"]) & DIGEST_MASK
            total["failures"].extend(ack["failures"])
        ctx.reply_bytes = ANNOUNCE_ACK_BYTES + (
            ANNOUNCE_HOST_BYTES * len(total["failures"])
        )
        return total


def chunk_spans(lo, hi, fanout_k):
    """Split ``[lo, hi)`` into at most ``fanout_k`` contiguous spans.

    Spans are as even as possible and deterministic; an empty range
    yields no spans.  Used to hand a fleet announcement's roster range
    down to child relays.
    """
    size = hi - lo
    if size <= 0:
        return []
    chunks = min(fanout_k, size)
    base, extra = divmod(size, chunks)
    spans = []
    start = lo
    for index in range(chunks):
        stop = start + base + (1 if index < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


def count_jobs(bundle):
    """Total jobs in ``bundle``'s subtree."""
    total = len(bundle.get("jobs") or ())
    for child in bundle.get("children") or ():
        total += count_jobs(child)
    return total


def iter_jobs(bundle):
    """Every ``(loid, diff)`` job in ``bundle``'s subtree."""
    for job in bundle.get("jobs") or ():
        yield job
    for child in bundle.get("children") or ():
        yield from iter_jobs(child)


def build_relay_tree(host_batches, directory, fanout_k, window=None, order_key=None):
    """Arrange per-host batches into k-ary diffusion-tree bundles.

    ``host_batches`` maps host name -> job list; ``directory`` maps
    host name -> relay LOID.  Hosts are ordered by name (deterministic)
    and node ``i``'s children are nodes ``k*i+1 .. k*i+k``.  Returns
    the root bundle, or None when there are no batches.

    ``order_key`` overrides the name ordering (it must stay
    deterministic).  The manager passes a health key when peer health
    is armed, so degraded-but-not-quarantined hosts sink toward the
    leaves where their slowness stalls nobody's subtree.
    """
    if fanout_k < 2:
        raise ValueError(f"fanout_k must be >= 2, got {fanout_k}")
    names = sorted(host_batches, key=order_key) if order_key else sorted(host_batches)
    if not names:
        return None
    bundles = [
        {
            "relay": directory[name],
            "host": name,
            "jobs": list(host_batches[name]),
            "children": [],
            "window": window,
        }
        for name in names
    ]
    for index, bundle in enumerate(bundles):
        for child in range(fanout_k * index + 1, fanout_k * index + fanout_k + 1):
            if child < len(bundles):
                bundle["children"].append(bundles[child])
    return bundles[0]


def build_announce_tree(host_names, directory, fanout_k, order_key=None):
    """Arrange hosts into a k-ary announcement-tree routing node.

    Same deterministic shape as :func:`build_relay_tree` (sorted hosts,
    node ``i``'s children are ``k*i+1 .. k*i+k``, health ``order_key``
    override) but each node carries only ``{"relay", "host",
    "children"}`` — no per-instance jobs.  Returns the root node, or
    None when ``host_names`` is empty.
    """
    if fanout_k < 2:
        raise ValueError(f"fanout_k must be >= 2, got {fanout_k}")
    names = sorted(host_names, key=order_key) if order_key else sorted(host_names)
    if not names:
        return None
    nodes = [
        {"relay": directory[name], "host": name, "children": []} for name in names
    ]
    for index, node in enumerate(nodes):
        for child in range(fanout_k * index + 1, fanout_k * index + fanout_k + 1):
            if child < len(nodes):
                node["children"].append(nodes[child])
    return nodes[0]


def count_tree_hosts(node):
    """Total hosts in an announcement node's subtree."""
    total = 1
    for child in node.get("children") or ():
        total += count_tree_hosts(child)
    return total


def iter_tree_hosts(node):
    """Every host name in an announcement node's subtree."""
    yield node["host"]
    for child in node.get("children") or ():
        yield from iter_tree_hosts(child)


def announce_bundle_bytes(bundle):
    """Wire bytes for one announcement bundle hop.

    The diffs cost a constant per distinct from-version; the routing
    table costs a constant per subtree host.  Nothing here scales with
    instance count — that is the whole point of announcement waves.
    """
    return ANNOUNCE_DIFF_BYTES * len(bundle["diffs"]) + (
        ANNOUNCE_HOST_BYTES * count_tree_hosts(bundle["node"])
    )


def announce_fleet_bytes(bundle):
    """Wire bytes for one fleet-announcement hop.

    The diffs cost a constant per distinct from-version; routing is an
    index range into the pre-seeded roster, so it costs a constant
    regardless of fleet size.  Nothing here scales with hosts *or*
    instances — this is what keeps wave latency flat from 1k to 100k
    live objects.
    """
    return ANNOUNCE_DIFF_BYTES * len(bundle["diffs"]) + ANNOUNCE_ROUTE_BYTES


def deploy_relays(runtime, hosts=None, context_prefix="/relays"):
    """Create one :class:`HostRelay` per (up) host; returns a directory.

    The directory maps host name -> relay LOID and is what
    :meth:`~repro.core.manager.DCDOManager.use_relays` consumes.
    Relays are bound into the context space under
    ``<context_prefix>/<host>`` so operators (and recovery) can find
    them by name (§2.3: one global namespace for everything).  Calling
    again is idempotent per host — an existing live relay is reused.
    """
    if hosts is None:
        hosts = sorted(runtime.hosts)
    directory = {}
    for host_name in hosts:
        host = runtime.host(host_name)
        if not host.is_up:
            continue
        path = f"{context_prefix}/{host_name}"
        if path in runtime.context_space:
            existing = runtime.context_space.lookup(path)
            obj = runtime.live_object(existing)
            if obj is not None and obj.is_active:
                directory[host_name] = existing
                continue
            runtime.context_space.unbind(path)
        loid = runtime.mint_loid("HostRelay")
        relay = HostRelay(runtime, loid, host)
        runtime.sim.run_process(relay.activate())
        runtime.attach_object(relay)
        runtime.context_space.bind(path, loid)
        directory[host_name] = loid
    seed_announce_roster(runtime, directory)
    return directory


def seed_announce_roster(runtime, directory, roster_id=None):
    """Hand every relay in ``directory`` the shared sorted roster.

    ``roster_id`` names a per-shard roster slice instead of replacing
    the deployment-wide default: sharded planes seed one named slice
    per shard over that shard's hosts, and the shard's announcements
    select it via ``bundle["roster"]``.

    The roster is the deployment-wide ``((host, relay_loid, binding),
    ...)`` list that fleet announcements route through by index range;
    every relay must hold the same one, so it is (re)seeded whenever
    the directory changes — deploy, redeploy, and restore.  Carrying
    each relay's current binding is what a real deployment directory
    does (membership lists ship addresses, not just names): without it
    every relay's child resolves would funnel through the central
    binding agent — O(hosts) serialized traffic on one port, exactly
    the term fleet announcements exist to remove.  A binding gone
    stale between seedings (relay died un-restored) just fails the
    forward, which reports the subtree short and drops the wave to the
    per-host paths.
    """
    from repro.legion.errors import UnknownObject

    agent = runtime.binding_agent
    entries = []
    for host_name, loid in sorted(directory.items()):
        try:
            binding = agent.resolve_local(loid)
        except UnknownObject:
            binding = None  # unregistered (dead) relay: forward will fail
        entries.append((host_name, loid, binding))
    roster = tuple(entries)
    for loid in directory.values():
        relay = runtime.live_object(loid)
        if relay is not None:
            if roster_id is None:
                relay.announce_roster = roster
            else:
                relay.rosters[roster_id] = roster
    return roster


def restore_relays(runtime, directory, roster_id=None):
    """Generator: re-activate relays that died with their hosts.

    Relays are stateless, so recovery after a host restart is a fresh
    activation (new endpoint, bumped binding incarnation).  Hosts still
    down are skipped — their relays come back with them on a later
    pass.  Returns the host names restored.
    """
    restored = []
    for host_name, loid in sorted(directory.items()):
        host = runtime.host(host_name) if host_name in runtime.hosts else None
        if host is None or not host.is_up:
            continue
        relay = runtime.live_object(loid)
        if relay is None or relay.is_active:
            continue
        yield from relay.activate()
        runtime.network.count("relay.recoveries")
        restored.append(host_name)
    if restored:
        seed_announce_roster(runtime, directory, roster_id=roster_id)
    return restored
