"""Reliable request/reply transport over the datagram fabric.

An :class:`Endpoint` binds an address on the fabric, runs a receive
loop, and offers:

- ``send(...)`` — one-way datagram;
- ``request(...)`` — request/reply with per-attempt timeout and bounded
  retries (both generators to be driven with ``yield from``);
- the group-communication primitives ``cast`` / ``broadcast`` /
  ``broadcall`` (om-legion's comm-primitive shape), the latter with a
  bounded in-flight window;
- optional same-destination coalescing: with a flush window configured
  (:meth:`Endpoint.configure_batching`), outbound messages to one
  destination within the window share a single wire message, amortizing
  the per-message framing header and dispatch cost.  Batching is off by
  default so the calibrated §4 timings are untouched.

Request handlers are generators, so servicing a request can itself
perform simulated work and nested calls.  Remote exceptions propagate
back to the caller as :class:`RemoteError`.
"""

from collections import OrderedDict

from repro.net.message import HEADER_BYTES, Message
from repro.net.retry import DEFAULT_REQUEST_RETRY
from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import AllOf, AnyOf, Event

#: Per-record framing inside a batch (length prefix + kind tag); what a
#: coalesced sub-message pays instead of a full :data:`HEADER_BYTES`.
BATCH_RECORD_BYTES = 16


def run_windowed(sim, thunks, window):
    """Generator: run generator-thunks with at most ``window`` in flight.

    The shared fan-out engine behind :meth:`Endpoint.broadcall` and the
    manager's windowed evolution waves.  ``thunks`` is a sequence of
    zero-argument callables returning generators; at most ``window`` of
    them execute concurrently, each freed slot immediately pulling the
    next.  Returns a list of ``(ok, value)`` pairs in input order —
    ``(True, result)`` or ``(False, exception)`` — so one slow or
    failing item never hides the others' outcomes.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    thunks = list(thunks)
    results = [None] * len(thunks)
    work = iter(list(enumerate(thunks)))

    def worker():
        for index, thunk in work:
            try:
                value = yield from thunk()
            except Exception as error:  # noqa: BLE001 - reported per item
                results[index] = (False, error)
            else:
                results[index] = (True, value)

    workers = [
        sim.spawn(worker(), name=f"windowed#{slot}")
        for slot in range(min(window, len(thunks)))
    ]
    if workers:
        yield AllOf(sim, workers)
    return results


class TransportError(SimulationError):
    """Base class for transport-level failures."""


class RequestTimeout(TransportError):
    """No reply arrived within the allotted attempts.

    Carries the destination address and total time spent so callers
    (e.g. the binding layer) can account rebinding cost.
    """

    def __init__(self, destination, attempts, elapsed):
        super().__init__(f"no reply from {destination!r} after {attempts} attempt(s) ({elapsed:.3f}s)")
        self.destination = destination
        self.attempts = attempts
        self.elapsed = elapsed


class RemoteError(TransportError):
    """The remote handler raised; carries the original exception."""

    def __init__(self, destination, cause):
        super().__init__(f"remote error from {destination!r}: {cause!r}")
        self.destination = destination
        self.cause = cause


class CircuitOpen(TransportError):
    """An attempt was short-circuited by an open circuit breaker.

    Raised *before* any traffic is sent: the breaker has seen enough
    consecutive failures against the target that another full timeout
    walk would be wasted.  ``retry_at`` is the simulated time at which
    a half-open probe will next be admitted.
    """

    def __init__(self, target, retry_at=None):
        suffix = f"; probe admitted at t={retry_at:.3f}s" if retry_at is not None else ""
        super().__init__(f"circuit open for {target!r}{suffix}")
        self.target = target
        self.retry_at = retry_at


class _ErrorReply:
    """Wire marker distinguishing an error reply from a value reply."""

    __slots__ = ("cause",)

    def __init__(self, cause):
        self.cause = cause


class Endpoint:
    """A transport endpoint bound to one fabric address.

    Parameters
    ----------
    network:
        The :class:`~repro.net.fabric.Network` to attach to.
    address:
        Unique address string for this endpoint.
    request_handler:
        Optional generator function ``handler(message)`` driven for
        each inbound request; its return value becomes the reply
        payload.  It may return ``(payload, size_bytes)`` to charge a
        reply size.
    default_timeout_s:
        Per-attempt reply timeout for :meth:`request`.
    max_attempts:
        Number of send attempts before :class:`RequestTimeout`.
    retry_policy:
        Spacing between attempts of a multi-attempt :meth:`request`
        (defaults to :data:`~repro.net.retry.DEFAULT_REQUEST_RETRY`);
        its attempt/deadline limits are not consulted — the request's
        own ``max_attempts`` bounds the loop.
    dedupe_ttl_s:
        How long a served request id is remembered for duplicate
        suppression after its reply went out.  Entries are evicted
        lazily so the table stays bounded under heavy traffic.
    """

    #: Hard cap on remembered request ids; beyond it the oldest
    #: completed entries are evicted even if their TTL has not expired.
    SEEN_REQUEST_LIMIT = 4096

    def __init__(
        self,
        network,
        address,
        request_handler=None,
        oneway_handler=None,
        default_timeout_s=5.0,
        max_attempts=1,
        retry_policy=None,
        dedupe_ttl_s=60.0,
    ):
        self._network = network
        self._sim = network.sim
        self._address = address
        self._port = network.attach(address)
        self._request_handler = request_handler
        self._oneway_handler = oneway_handler
        self._default_timeout_s = default_timeout_s
        self._max_attempts = max_attempts
        self._retry_policy = retry_policy or DEFAULT_REQUEST_RETRY
        self._dedupe_ttl_s = dedupe_ttl_s
        self._batch_window_s = 0.0
        self._batch_max = 16
        self._batch_queues = {}
        self._pending_replies = {}
        # message_id -> completion time (None while still being served);
        # insertion-ordered so TTL/size eviction walks the oldest first.
        self._seen_requests = OrderedDict()
        self._closed = False
        self.requests_served = 0
        network.register_endpoint(self)
        self._receive_loop = self._sim.spawn(self._run(), name=f"endpoint:{address}")

    @property
    def address(self):
        """This endpoint's fabric address."""
        return self._address

    @property
    def network(self):
        """The fabric this endpoint is attached to."""
        return self._network

    @property
    def sim(self):
        """The owning simulator."""
        return self._sim

    @property
    def is_closed(self):
        """True after :meth:`close`."""
        return self._closed

    def set_request_handler(self, handler):
        """Install (or replace) the inbound request handler."""
        self._request_handler = handler

    def set_oneway_handler(self, handler):
        """Install (or replace) the inbound one-way handler."""
        self._oneway_handler = handler

    def configure_batching(self, flush_window_s, max_batch=16):
        """Enable (or disable) same-destination coalescing.

        With ``flush_window_s > 0``, outbound messages to the same
        destination emitted at the same simulation instant are packed
        into one wire message: one framing header for the whole batch
        plus :data:`BATCH_RECORD_BYTES` per coalesced record.  The
        flush is adaptive — a solitary message goes out immediately (a
        lone request pays no batching latency), while a burst drains
        until its event cascade stops producing, bounded by
        ``max_batch`` messages per batch.  ``flush_window_s`` is
        therefore just the on/off switch (any positive value behaves
        identically); pass ``0`` to turn batching back off.
        """
        if flush_window_s < 0:
            raise ValueError(f"flush window must be >= 0, got {flush_window_s}")
        if max_batch < 2:
            raise ValueError(f"max_batch must be >= 2, got {max_batch}")
        self._batch_window_s = flush_window_s
        self._batch_max = max_batch

    @property
    def batching_enabled(self):
        """True while a coalescing flush window is configured."""
        return self._batch_window_s > 0

    def close(self):
        """Detach from the fabric; all later traffic to us is lost."""
        if self._closed:
            return
        self._closed = True
        # Queued-but-unflushed batches die with us, like any in-flight
        # datagram from a crashing host.
        self._batch_queues.clear()
        self._network.unregister_endpoint(self)
        self._network.detach(self._address)
        if self._receive_loop.is_alive:
            self._receive_loop.interrupt("endpoint closed")
        # Fail callers still waiting on replies: their peer is us, and
        # we are gone, so the wait could otherwise dangle forever.
        pending, self._pending_replies = self._pending_replies, {}
        for event in pending.values():
            if not event.triggered:
                event.fail(TransportError(f"endpoint {self._address!r} closed"))

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, destination, payload, size_bytes=0, kind="oneway"):
        """Fire-and-forget datagram.

        With batching enabled the message may be coalesced into a
        shared wire message; either way delivery is asynchronous and
        nothing is returned to wait on (datagram semantics).
        """
        if self._closed:
            raise TransportError(f"endpoint {self._address!r} is closed")
        message = Message(
            source=self._address,
            destination=destination,
            payload=payload,
            size_bytes=size_bytes,
            kind=kind,
        )
        return self._transmit(message)

    # ------------------------------------------------------------------
    # Same-destination coalescing
    # ------------------------------------------------------------------

    def _transmit(self, message):
        """Put ``message`` on the wire, through the batcher if enabled."""
        if self._batch_window_s <= 0:
            return self._network.send(message)
        queue = self._batch_queues.setdefault(message.destination, [])
        queue.append(message)
        if len(queue) >= self._batch_max:
            self._flush(message.destination)
        elif len(queue) == 1:
            self._sim.spawn(
                self._flush_later(message.destination),
                name=f"flush:{self._address}->{message.destination}",
            )
        return None

    def _flush_later(self, destination):
        """Process body: adaptive flush for one destination's queue.

        Rather than lingering a fixed window (which taxed every lone
        message with the full window of latency), the batcher drains
        the *current simulation instant*: it re-yields zero-length
        timeouts while the queue keeps growing, so all messages emitted
        by the same event cascade — a windowed fan-out firing its
        burst, a batch of replies — coalesce, and a solitary message
        flushes immediately with no added delay.  The size trigger in
        :meth:`_transmit` still bounds bursts at ``max_batch``.
        """
        seen = 0
        while True:
            queue = self._batch_queues.get(destination)
            if not queue:
                # Flushed underneath us by the size trigger.
                return
            if len(queue) == seen:
                break
            seen = len(queue)
            yield self._sim.timeout(0)
        self._flush(destination)

    def _flush(self, destination):
        queue = self._batch_queues.pop(destination, None)
        if not queue or self._closed:
            return
        if len(queue) == 1:
            self._network.send(queue[0])
            return
        # One header for the whole batch; each record pays only its
        # payload plus a small per-record framing cost.
        batch = Message(
            source=self._address,
            destination=destination,
            payload=tuple(queue),
            size_bytes=sum(m.size_bytes for m in queue)
            + len(queue) * BATCH_RECORD_BYTES,
            kind="batch",
        )
        self._network.count("transport.batches_sent")
        self._network.count("transport.batched_messages", len(queue))
        self._network.send(batch)

    # ------------------------------------------------------------------
    # Group primitives (cast / broadcast / broadcall)
    # ------------------------------------------------------------------

    def cast(self, destination, payload, size_bytes=0):
        """One-way message to one peer, no reply expected."""
        self._network.count("transport.casts")
        return self.send(destination, payload, size_bytes=size_bytes)

    def broadcast(self, destinations, payload, size_bytes=0):
        """Cast ``payload`` to every destination; returns the count."""
        count = 0
        for destination in destinations:
            self.cast(destination, payload, size_bytes=size_bytes)
            count += 1
        return count

    def broadcall(
        self,
        destinations,
        payload,
        size_bytes=0,
        timeout_s=None,
        max_attempts=None,
        window=None,
        retry_policy=None,
    ):
        """Generator: request ``payload`` from every destination.

        Requests run concurrently with at most ``window`` in flight
        (default: all at once).  Blocks until every destination has
        answered or exhausted its attempts; returns an ordered mapping
        ``destination -> (ok, value-or-exception)`` so partial failure
        is visible per peer rather than aborting the whole call.
        """
        destinations = list(destinations)
        thunks = [
            lambda d=destination: self.request(
                d,
                payload,
                size_bytes=size_bytes,
                timeout_s=timeout_s,
                max_attempts=max_attempts,
                retry_policy=retry_policy,
            )
            for destination in destinations
        ]
        self._network.count("transport.broadcalls")
        outcomes = yield from run_windowed(
            self._sim, thunks, window or max(1, len(destinations))
        )
        return dict(zip(destinations, outcomes))

    def request(
        self,
        destination,
        payload,
        size_bytes=0,
        timeout_s=None,
        max_attempts=None,
        retry_policy=None,
        term=None,
        hedge_delay_s=None,
    ):
        """Generator: send a request and wait for its reply.

        Usage from a process::

            reply = yield from endpoint.request("other", {"op": "ping"})

        Retries up to ``max_attempts`` times with a fresh message per
        attempt (the correlation table accepts a reply to any attempt);
        attempts after the first are spaced by the retry policy's
        backoff, so a fleet of timed-out callers does not re-fire in
        lockstep.  Raises :class:`RequestTimeout` when attempts are
        exhausted and :class:`RemoteError` when the remote handler
        raised.

        With ``hedge_delay_s`` set (below the attempt timeout), an
        attempt still unanswered after that delay sends a *backup* copy
        with a fresh message id and races both replies for the rest of
        the timeout — Dean's hedged request.  The backup is a real
        second request, so it only belongs on idempotent operations;
        a fresh id (rather than a dedupe-suppressed duplicate) is
        deliberate, because a gray peer's problem is slowness, not
        loss, and only an independently-executed copy cuts that tail.
        """
        if self._closed:
            raise TransportError(f"endpoint {self._address!r} is closed")
        timeout_s = self._default_timeout_s if timeout_s is None else timeout_s
        max_attempts = self._max_attempts if max_attempts is None else max_attempts
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if hedge_delay_s is not None and hedge_delay_s >= timeout_s:
            hedge_delay_s = None
        policy = retry_policy or self._retry_policy
        network = self._network
        started = self._sim.now
        for attempt in range(1, max_attempts + 1):
            if self._closed:
                # Closed while backing off (e.g. our host crashed).
                raise TransportError(f"endpoint {self._address!r} is closed")
            message = Message(
                source=self._address,
                destination=destination,
                payload=payload,
                size_bytes=size_bytes,
                kind="request",
                term=term,
            )
            reply_event = Event(self._sim)
            self._pending_replies[message.message_id] = reply_event
            self._transmit(message)
            hedge_event = None
            if hedge_delay_s is None:
                timeout = self._sim.timeout(timeout_s)
                outcome = yield AnyOf(self._sim, [reply_event, timeout])
            else:
                hedge_timer = self._sim.timeout(hedge_delay_s)
                outcome = yield AnyOf(self._sim, [reply_event, hedge_timer])
                if reply_event in outcome:
                    hedge_timer.cancel()
                    timeout = hedge_timer  # only for the shared cancel below
                else:
                    # Primary is late: race a backup copy against it for
                    # the remainder of the attempt budget.
                    backup = Message(
                        source=self._address,
                        destination=destination,
                        payload=payload,
                        size_bytes=size_bytes,
                        kind="request",
                        term=term,
                    )
                    hedge_event = Event(self._sim)
                    self._pending_replies[backup.message_id] = hedge_event
                    self._transmit(backup)
                    network.count("transport.hedges")
                    timeout = self._sim.timeout(timeout_s - hedge_delay_s)
                    outcome = yield AnyOf(
                        self._sim, [reply_event, hedge_event, timeout]
                    )
                    self._pending_replies.pop(backup.message_id, None)
            self._pending_replies.pop(message.message_id, None)
            winner = None
            if reply_event in outcome:
                winner = outcome[reply_event]
            elif hedge_event is not None and hedge_event in outcome:
                winner = outcome[hedge_event]
                network.count("transport.hedge_wins")
                network.health_observe(destination, "hedge_win")
            if winner is not None:
                # A reply won the race: cancel the guard timeout so it
                # stops occupying the event queue and keeping run() alive.
                timeout.cancel()
                if isinstance(winner.payload, _ErrorReply):
                    network.health_observe(destination, "success")
                    raise RemoteError(destination, winner.payload.cause)
                network.health_observe(destination, "success")
                return winner.payload
            if attempt < max_attempts:
                network.count("retry.request_attempts")
                backoff = policy.backoff_s(attempt)
                if backoff > 0:
                    network.count("retry.backoff_waits")
                    yield self._sim.timeout(backoff)
        network.health_observe(destination, "timeout")
        raise RequestTimeout(destination, max_attempts, self._sim.now - started)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def _run(self):
        try:
            while True:
                message = yield self._port.inbox.get()
                self._dispatch_inbound(message)
        except Interrupt:
            return

    def _dispatch_inbound(self, message):
        if message.kind == "batch":
            # Unpack a coalesced batch: each record is a complete
            # message with its own id, so dedupe and reply correlation
            # behave exactly as if the records had travelled alone.
            self._network.count("transport.batches_received")
            for sub in message.payload:
                self._dispatch_inbound(sub)
        elif message.kind == "reply":
            self._handle_reply(message)
        elif message.kind == "request":
            self._sim.spawn(
                self._serve_request(message),
                name=f"serve#{message.message_id}",
            )
        else:
            self._handle_oneway(message)

    def _handle_reply(self, message):
        event = self._pending_replies.pop(message.correlation_id, None)
        if event is not None and not event.triggered:
            event.succeed(message)
        # Replies to abandoned (timed-out) requests are dropped, which
        # is exactly the at-most-once behaviour the binding layer
        # depends on for its stale-binding timings.

    def _handle_oneway(self, message):
        if self._oneway_handler is None:
            return
        result = self._oneway_handler(message)
        if result is not None and hasattr(result, "__next__"):
            self._sim.spawn(result, name=f"oneway#{message.message_id}")

    def _serve_request(self, message):
        if message.message_id in self._seen_requests:
            # Duplicate of a request we served or are still serving (a
            # retry racing our reply); at-most-once execution drops it.
            self._network.count("transport.duplicate_requests")
            return
        self._evict_seen_requests()
        self._seen_requests[message.message_id] = None
        if self._request_handler is None:
            self._reply(message, _ErrorReply(TransportError("no request handler")))
            return
        try:
            result = yield from self._request_handler(message)
        except Exception as exc:  # noqa: BLE001 - marshalled to caller
            self._reply(message, _ErrorReply(exc))
            return
        payload, reply_size = result if isinstance(result, tuple) else (result, 0)
        if self._reply(message, payload, size_bytes=reply_size):
            self.requests_served += 1

    def _reply(self, message, payload, size_bytes=0):
        """Send a reply unless we closed mid-service; True if it went out.

        A crashed/closed endpoint must not keep talking from a detached
        address — the fabric would reject the unknown source.  The
        served-request id stays remembered either way, stamped with the
        completion time so TTL eviction can reclaim it.
        """
        if message.message_id in self._seen_requests:
            self._seen_requests[message.message_id] = self._sim.now
        if self._closed:
            return False
        self._transmit(message.reply_to(payload, size_bytes=size_bytes))
        return True

    def _evict_seen_requests(self):
        """Drop remembered request ids that are expired or over the cap.

        Entries are insertion-ordered and only completed entries (a
        non-``None`` completion time) are evictable; an in-flight entry
        halts the walk since everything after it is newer.
        """
        now = self._sim.now
        while self._seen_requests:
            done = next(iter(self._seen_requests.values()))
            if done is None:
                break
            expired = now - done > self._dedupe_ttl_s
            over_cap = len(self._seen_requests) >= self.SEEN_REQUEST_LIMIT
            if not (expired or over_cap):
                break
            self._seen_requests.popitem(last=False)

    def __repr__(self):
        state = "closed" if self._closed else "open"
        return f"<Endpoint {self._address} {state}>"
