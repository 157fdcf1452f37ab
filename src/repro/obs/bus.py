"""The system's one event stream: synchronous pub/sub on the simulator clock.

Every layer publishes its transitions here, and consumers (the
reactive controller, the reconcilers, tests, report tooling,
operators) subscribe by topic.  Topics are dotted strings.  A subscription to an exact topic
receives that topic, one to a ``"prefix."`` string every topic under
it, and one to ``"*"`` everything.

Topic                          Publisher                        Subject
-----------------------------  -------------------------------  ---------------
manager.<kind>                 DCDOManager._commit              manager LOID
manager.fenced                 a manager standing down          manager LOID
ico.restored                   manager ICO recovery             ICO LOID
wave.complete                  DCDOManager.propagate_version    type name
dcdo.component-incorporated    DCDO                             DCDO LOID
dcdo.component-removed         DCDO                             DCDO LOID
dcdo.evolved                   DCDO                             DCDO LOID
dcdo.rolled-back               DCDO                             DCDO LOID
class.instance-created         class objects                    instance LOID
class.instance-recovered       class objects                    instance LOID
class.instance-migrated        class objects                    instance LOID
object.stale-term-rejected     any Legion object                object LOID
host.crashed, host.restarted   chaos coordinator                host name
health.quarantined, .recovered health registry                  host name
slo.breach, slo.recovered      SLO monitors                     stream name
detector.suspicion, .recovered failure detector                 watch key
supervisor.promoted            supervisor                       type name
controller.action              reactive controller              controller name
deploy.scheduled               whoever plans a deploy           type name

Subscribers in ``src/``: the reactive controller takes its policies'
topics (``slo.breach``, ``deploy.scheduled``) plus ``wave.complete``;
each :class:`~repro.cluster.reconciler.Reconciler` takes ``host.``,
``class.`` and ``manager.``, only to wake early (it acts on what it
re-reads, never on the event); a chaos coordinator takes
``class.instance-recovered`` for its recovery log.

``manager.<kind>`` is one topic per journal entry kind
(``manager.instance-version``, ``manager.propagation-ack``,
``manager.current-version`` ...), published once per *live* commit
with the entry's data as details.  Journal replay, standby promotion
and checkpoint load rebuild state without publishing, so the stream
holds each configuration-plane change exactly once.

Delivery is synchronous and in-process: ``publish`` invokes every
matching callback before returning, on the publisher's stack.
Subscribers that need to *act* (anything that yields simulated time)
must therefore only record the event and act from their own process —
the bus is a sensing fabric, not an execution engine.  A bounded ring
of recent events is kept for reports and debugging.
"""

from collections import deque


class Event:
    """One published occurrence."""

    __slots__ = ("at", "topic", "subject", "details")

    def __init__(self, at, topic, subject=None, details=None):
        self.at = at
        self.topic = topic
        self.subject = subject
        self.details = {} if details is None else details

    def __repr__(self):
        return f"<Event {self.topic} {self.subject!r} at={self.at:.3f}>"

    def __str__(self):
        details = " ".join(f"{key}={value}" for key, value in sorted(self.details.items()))
        return f"[{self.at:12.6f}] {self.topic:<28s} {self.subject} {details}".rstrip()


class EventBus:
    """Topic-keyed synchronous pub/sub with a bounded history."""

    def __init__(self, sim, history=256):
        self._sim = sim
        self._subscribers = {}  # pattern -> list of callbacks
        self._routes = {}  # topic -> tuple of matching callbacks
        self.published = 0
        self.delivered = 0
        self.recent = deque(maxlen=history)
        self._counts = {}

    def subscribe(self, pattern, callback):
        """Register ``callback`` for ``pattern``; returns the callback.

        ``pattern`` is an exact topic, a ``"prefix."`` string matching
        every topic under it, or ``"*"`` for everything.
        """
        self._subscribers.setdefault(pattern, []).append(callback)
        self._routes.clear()
        return callback

    def unsubscribe(self, pattern, callback):
        """Remove one subscription; unknown pairs are ignored."""
        callbacks = self._subscribers.get(pattern)
        if callbacks and callback in callbacks:
            callbacks.remove(callback)
            if not callbacks:
                del self._subscribers[pattern]
            self._routes.clear()

    def publish(self, topic, subject=None, **details):
        """Deliver one event to every matching subscriber; returns it."""
        event = Event(self._sim.now, topic, subject, details)
        self.published += 1
        counts = self._counts
        counts[topic] = counts.get(topic, 0) + 1
        self.recent.append(event)
        callbacks = self._routes.get(topic)
        if callbacks is None:
            callbacks = self._routes[topic] = tuple(
                callback
                for pattern, subscribed in self._subscribers.items()
                if self._matches(pattern, topic)
                for callback in subscribed
            )
        for callback in callbacks:
            callback(event)
            self.delivered += 1
        return event

    @staticmethod
    def _matches(pattern, topic):
        if pattern == "*" or pattern == topic:
            return True
        return pattern.endswith(".") and topic.startswith(pattern)

    def counts(self):
        """Per-topic publish totals, for reports and assertions."""
        return dict(self._counts)

    def snapshot(self):
        """Plain-dict view for system reports."""
        return {
            "published": self.published,
            "delivered": self.delivered,
            "topics": self.counts(),
        }

    def __repr__(self):
        return (
            f"<EventBus topics={len(self._counts)} "
            f"published={self.published}>"
        )
