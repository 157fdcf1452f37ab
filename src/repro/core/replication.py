"""Hot-standby replication of the DCDO Manager journal.

PR 3 made the manager recoverable: a :class:`ManagerJournal` survives
its owner's crash and :func:`~repro.core.recovery.recover_manager`
rebuilds the manager from it.  That model still has two availability
gaps.  First, the journal lives on the *primary's* "disk" — a machine
failure that destroys the disk loses it.  Second, cold recovery pays
:data:`~repro.core.recovery.REPLAY_ENTRY_S` CPU for every journal
entry, so takeover time grows with history.

A :class:`ReplicationLink` closes both gaps: the primary ships every
journal write (appends and checkpoints) over the simulated network to
a :class:`StandbyReplica` on another host, and the standby replays
each record into its own journal copy *as it arrives*.  At takeover
the standby's journal is handed to ``recover_manager`` with
``skip_entries=len(journal)`` — the replay cost was paid continuously,
so promotion is near-instant regardless of history length.  The
promoted manager's state is rebuilt by the same
:func:`~repro.core.manager_state.apply` the primary committed with.

Design points:

- **Real transport.**  Records travel through :class:`Endpoint`s named
  under each side's host prefix, so crashes and partitions sever the
  link honestly: a partitioned standby falls behind (``repl.lag_entries``
  grows) and catches up from the queue after heal.
- **Ordered, exactly-once application.**  Every record carries a
  monotonic sequence number; the standby remembers the highest applied
  and skips duplicates, so a re-shipped batch after a lost reply is
  harmless.  The link ships one batch at a time (single flight) and the
  standby rejects overlapping batches, so records never apply out of
  order.
- **Bootstrap through the front door.**  The initial full snapshot is
  enqueued as an ordinary checkpoint record, paying the same transfer
  cost as any other ship — no magic state copy.
- **Sync or async.**  ``mode="sync"`` ships on every journal write;
  ``mode="async"`` batches writes and ships on a background interval,
  trading bounded lag for fewer messages.
"""

import itertools

from repro.core.recovery import (
    REPLAY_ENTRY_S,
    JournalEntry,
    ManagerJournal,
    estimate_entry_bytes,
)

#: Per-record wire framing (seq + kind tag) on top of entry payloads.
RECORD_FRAMING_BYTES = 32
#: Nominal wire size of the journal ``meta`` dict shipped per batch.
META_BYTES = 96
#: Per-attempt reply timeout for a ship request.
SHIP_TIMEOUT_S = 5.0
#: Backoff before re-trying a failed ship in sync mode (async mode
#: retries on its own interval).
SHIP_RETRY_BACKOFF_S = 1.0

_link_ids = itertools.count(1)


class ReplicaBusy(Exception):
    """A ship arrived while the standby was still applying another.

    Single-flight shipping makes this rare (a re-ship racing a slow
    apply after a lost reply); the primary treats it as a transient
    failure and retries from its queue.
    """


class StandbyReplica:
    """The receiving side of a replication link.

    Owns a private :class:`ManagerJournal` copy plus the endpoint that
    accepts ship batches.  Applies records in sequence order, charging
    replay CPU for each entry *as it lands* — the invariant is that
    every entry in :attr:`journal` has already been replayed, so a
    takeover passes ``skip_entries=len(replica.journal)`` and pays
    nothing for history.
    """

    def __init__(self, runtime, type_name, host_name):
        self._runtime = runtime
        self.type_name = type_name
        self.host_name = host_name
        self._host = runtime.host(host_name)
        self.journal = ManagerJournal(name=f"{type_name}@{host_name}-standby")
        self.address = f"{host_name}/standby:{type_name}@{next(_link_ids)}"
        from repro.net import Endpoint

        self._endpoint = Endpoint(
            runtime.network, self.address, request_handler=self._handle_ship
        )
        self.applied_seq = 0
        self.records_applied = 0
        self.entries_applied = 0
        self.checkpoints_applied = 0
        self._applying = False

    @property
    def reachable(self):
        """False once the standby host crashed (endpoint severed)."""
        return not self._endpoint.is_closed

    def close(self):
        """Stop accepting ships; the journal copy stays readable."""
        if not self._endpoint.is_closed:
            self._endpoint.close()

    # ------------------------------------------------------------------
    # Ship application
    # ------------------------------------------------------------------

    def _handle_ship(self, message):
        """Generator: apply one ship batch; replies the applied seq."""
        payload = message.payload
        if payload.get("op") != "ship":
            raise ValueError(f"unexpected replication op {payload.get('op')!r}")
        if self._applying:
            raise ReplicaBusy(self.address)
        self._applying = True
        try:
            meta = payload.get("meta")
            if meta:
                self.journal.meta.update(meta)
            fresh = [
                (seq, kind, record)
                for seq, kind, record in payload["records"]
                if seq > self.applied_seq
            ]
            # Replay cost: every appended entry is new state; a
            # checkpoint is a compaction of state we already hold (the
            # in-order prefix), so only the part beyond what we have
            # replayed — the bootstrap snapshot — costs anything.
            cost_entries = 0
            for __, kind, record in fresh:
                if kind == "entry":
                    cost_entries += 1
                else:
                    cost_entries += max(0, len(record) - len(self.journal))
            if cost_entries:
                yield self._host.cpu_work(REPLAY_ENTRY_S * cost_entries)
            # Apply atomically (no yields): the batch either lands
            # whole before the reply or not at all.
            for seq, kind, record in fresh:
                if kind == "entry":
                    self.journal.append(record.kind, **record.data)
                    self.entries_applied += 1
                else:
                    self.journal.write_checkpoint(
                        JournalEntry(e.kind, dict(e.data)) for e in record
                    )
                    self.checkpoints_applied += 1
                self.applied_seq = seq
                self.records_applied += 1
        finally:
            self._applying = False
        return {"applied_seq": self.applied_seq}

    def __repr__(self):
        return (
            f"<StandbyReplica {self.type_name}@{self.host_name} "
            f"seq={self.applied_seq} entries={len(self.journal)}>"
        )


class ReplicationLink:
    """Primary-side journal shipping to one :class:`StandbyReplica`.

    Subscribes to the primary manager's journal; every write becomes a
    sequenced record in the ship queue.  ``mode="sync"`` drains the
    queue immediately on every write; ``mode="async"`` drains on a
    daemon interval (``ship_interval_s``), coalescing bursts into one
    batch.  Failed ships leave the queue intact — lag is visible as
    the ``repl.lag_entries`` gauge — and retry on backoff (sync) or
    the next interval (async).

    Call :meth:`stop` before promoting the standby: it unsubscribes
    from the (possibly still-live) primary journal and severs both
    endpoints, so a zombie primary cannot keep shipping into a journal
    that has become the new authority.
    """

    def __init__(
        self,
        runtime,
        manager,
        standby_host_name,
        mode="sync",
        ship_interval_s=0.25,
    ):
        if mode not in ("sync", "async"):
            raise ValueError(f"mode must be 'sync' or 'async', got {mode!r}")
        if manager.journal is None:
            raise ValueError("manager has no journal to replicate")
        self._runtime = runtime
        self._manager = manager
        self._journal = manager.journal
        self.mode = mode
        self.ship_interval_s = ship_interval_s
        # Shards of one type replicate under their per-shard scope
        # (e.g. "Sorter/s2"), so a plane's N standby journals never
        # collide in naming or metrics.
        scope = getattr(manager, "replication_scope", manager.type_name)
        self.replica = StandbyReplica(runtime, scope, standby_host_name)
        from repro.net import Endpoint

        self.address = (
            f"{manager.host.name}/repl:{scope}@{next(_link_ids)}"
        )
        self._endpoint = Endpoint(runtime.network, self.address)
        self._seq = 0
        self._queue = []  # [(seq, kind, payload), ...] in ship order
        self._stopped = False
        self._shipping = False
        self._retry_armed = False
        # Bootstrap: the standby starts from a full snapshot, shipped
        # through the same queue as every later write.
        self._enqueue("checkpoint", self._journal.replay())
        self._observer = self._journal.subscribe(self._on_journal_write)
        if mode == "async":
            runtime.sim.spawn(
                self._ship_interval_loop(), name=f"repl-loop:{self.address}"
            )
        else:
            self._kick()

    # ------------------------------------------------------------------
    # Queueing
    # ------------------------------------------------------------------

    def _on_journal_write(self, event, payload):
        if self._stopped:
            return
        self._enqueue("entry" if event == "append" else "checkpoint", payload)
        if self.mode == "sync":
            self._kick()

    def _enqueue(self, kind, payload):
        self._seq += 1
        self._queue.append((self._seq, kind, payload))
        self._publish_lag()

    @property
    def lag(self):
        """Records queued but not yet confirmed applied by the standby."""
        return len(self._queue)

    def _publish_lag(self):
        self._runtime.network.metrics.gauge("repl.lag_entries").set(len(self._queue))

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------

    def _kick(self):
        if self._shipping or self._stopped:
            return
        self._shipping = True
        self._runtime.sim.spawn(self._drain(), name=f"repl-ship:{self.address}")

    def _drain(self):
        try:
            while self._queue and not self._stopped:
                ok = yield from self._ship_batch()
                if not ok:
                    if self.mode == "sync":
                        self._arm_retry()
                    return
        finally:
            self._shipping = False

    def _ship_batch(self):
        """Generator: ship everything queued in one request; True on ack."""
        from repro.net import RemoteError, TransportError

        if self._endpoint.is_closed or not self.replica.reachable:
            # Our host (or the standby's) is down; nothing to do until
            # restart or re-arm.  The queue keeps the backlog.
            return False
        batch = list(self._queue)
        size = META_BYTES
        shipped_entries = 0
        shipped_checkpoints = 0
        for __, kind, payload in batch:
            size += RECORD_FRAMING_BYTES
            if kind == "entry":
                size += estimate_entry_bytes(payload)
                shipped_entries += 1
            else:
                size += sum(estimate_entry_bytes(e) for e in payload)
                shipped_checkpoints += 1
        started = self._runtime.sim.now
        try:
            reply = yield from self._endpoint.request(
                self.replica.address,
                {
                    "op": "ship",
                    "records": batch,
                    "meta": dict(self._journal.meta),
                },
                size_bytes=size,
                timeout_s=SHIP_TIMEOUT_S,
                max_attempts=1,  # ordering: retries go through the queue
            )
        except (RemoteError, TransportError):
            self._runtime.network.count("repl.ship_failures")
            return False
        applied_seq = reply["applied_seq"]
        self._queue = [r for r in self._queue if r[0] > applied_seq]
        self._publish_lag()
        network = self._runtime.network
        network.count("repl.entries_shipped", shipped_entries)
        if shipped_checkpoints:
            network.count("repl.checkpoints_shipped", shipped_checkpoints)
        network.count("repl.bytes_shipped", size)
        network.metrics.timer("repl.ship_latency_s").record(
            self._runtime.sim.now - started
        )
        return True

    def _arm_retry(self):
        if self._retry_armed or self._stopped:
            return
        self._retry_armed = True
        self._runtime.sim.spawn(
            self._retry_later(), name=f"repl-retry:{self.address}"
        )

    def _retry_later(self):
        yield self._runtime.sim.timeout(SHIP_RETRY_BACKOFF_S, daemon=True)
        self._retry_armed = False
        if not self._stopped and self._queue:
            self._kick()

    def _ship_interval_loop(self):
        sim = self._runtime.sim
        while not self._stopped:
            yield sim.timeout(self.ship_interval_s, daemon=True)
            if self._stopped or self._endpoint.is_closed:
                return
            if self._queue:
                self._kick()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def stop(self):
        """Sever the link: no more shipping, both endpoints closed.

        Must run before the standby's journal is promoted — a link left
        live would let a zombie primary keep writing into the new
        authority's history.
        """
        if self._stopped:
            return
        self._stopped = True
        self._journal.unsubscribe(self._observer)
        if not self._endpoint.is_closed:
            self._endpoint.close()
        self.replica.close()

    def __repr__(self):
        state = "stopped" if self._stopped else self.mode
        return (
            f"<ReplicationLink {self._manager.type_name} -> "
            f"{self.replica.host_name} {state} lag={len(self._queue)}>"
        )
