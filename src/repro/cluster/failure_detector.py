"""Heartbeat failure detection for management services.

The paper's recovery story (and PR 3's chaos harness) assumes an
*operator* notices a dead manager and calls the recovery entry points.
This module supplies the missing sensor: a
:class:`HeartbeatFailureDetector` probes a watched object on the
simulated clock and reports suspicion after a configurable run of
missed probes — the trigger the :class:`~repro.cluster.supervisor.Supervisor`
uses to promote a standby with no operator in the loop.

Probes are plain transport requests to the watched object's *current*
binding address (resolved per probe, so a watch survives the target
recovering at a new address).  Any reply — including an application
error — proves liveness; only transport-level silence counts as a
miss.  The detection latency from last-good-contact to suspicion is
recorded per transition in the ``detector.detection_latency_s`` timer,
making the interval/timeout trade-off measurable (experiment P4).

Probe loops sleep on daemon timers, so an armed detector never keeps
``Simulator.run()`` alive on its own.
"""

import itertools
import math
from collections import deque

_detector_ids = itertools.count(1)

#: Probe request size: a ping carries no payload beyond framing.
PROBE_BYTES = 64

#: log10(e): converts the exponential-model survival exponent to phi.
_LOG10_E = math.log10(math.e)

#: Success inter-arrival gaps remembered per watch in phi mode.
_GAP_WINDOW = 32


class _Watch:
    """Liveness state for one watched target."""

    __slots__ = (
        "key",
        "resolve",
        "on_suspect",
        "on_recover",
        "misses",
        "suspected",
        "last_ok_at",
        "last_address",
        "gaps",
        "active",
    )

    def __init__(self, key, resolve, on_suspect, on_recover, now):
        self.key = key
        self.resolve = resolve
        self.on_suspect = on_suspect
        self.on_recover = on_recover
        self.misses = 0
        self.suspected = False
        self.last_ok_at = now
        self.last_address = None
        self.gaps = deque(maxlen=_GAP_WINDOW)
        self.active = True


class HeartbeatFailureDetector:
    """Suspicion-threshold heartbeat prober.

    Parameters
    ----------
    runtime:
        The Legion runtime (clock, network, tracing).
    host:
        The host the detector runs on; its endpoint lives under the
        host's address prefix, so the detector dies with its machine
        like everything else.
    interval_s / timeout_s:
        Probe period and per-probe reply timeout.
    suspicion_threshold:
        Consecutive missed probes before a target is suspected.  While
        a target stays suspected, ``on_suspect`` re-fires every further
        ``suspicion_threshold`` misses — so a second failure after a
        recovery the detector never observed still raises the alarm.
    mode:
        ``"threshold"`` (the historical miss-counter) or ``"phi"``.
        Phi-accrual mode scores suspicion continuously from the time
        since the last successful probe, scaled by the *observed* mean
        success-to-success gap (Hayashibara et al.'s accrual detector,
        with Cassandra's exponential model): ``phi =
        log10(e) * elapsed / mean_gap``.  A merely-slow target keeps
        answering — late replies keep resetting the clock, so phi never
        accrues and slow is not declared dead; a crashed target's phi
        climbs without bound and crosses the threshold in bounded time.
        In phi mode each probe also waits longer for its reply
        (``max(timeout_s, 2 * interval_s)``), because a reply that
        limps home late must count as evidence of life, not a miss.
    phi_threshold:
        Suspicion level for phi mode.  8.0 (Cassandra's default) fires
        after ~18.4 mean gaps of silence — ~9 s at the default 0.5 s
        probe interval.
    """

    def __init__(
        self,
        runtime,
        host,
        interval_s=0.5,
        timeout_s=0.4,
        suspicion_threshold=3,
        mode="threshold",
        phi_threshold=8.0,
    ):
        if suspicion_threshold < 1:
            raise ValueError(
                f"suspicion_threshold must be >= 1, got {suspicion_threshold}"
            )
        if mode not in ("threshold", "phi"):
            raise ValueError(f"mode must be 'threshold' or 'phi', got {mode!r}")
        if phi_threshold <= 0:
            raise ValueError(f"phi_threshold must be > 0, got {phi_threshold}")
        self._runtime = runtime
        self._host = host
        self.interval_s = interval_s
        self.timeout_s = timeout_s
        self.suspicion_threshold = suspicion_threshold
        self.mode = mode
        self.phi_threshold = phi_threshold
        #: Suspected-then-recovered transitions: the target answered a
        #: probe while suspected, so the alarm was (at least by then)
        #: wrong.  The gray-failure scorecard for detector tuning.
        self.false_positives = 0
        self.address = f"{host.name}/fdet:{next(_detector_ids)}"
        from repro.net import Endpoint

        self._endpoint = Endpoint(runtime.network, self.address)
        self._watches = {}

    # ------------------------------------------------------------------
    # Watch management
    # ------------------------------------------------------------------

    def watch(self, key, resolve, on_suspect, on_recover=None):
        """Start probing a target; returns the watch key.

        ``resolve`` is a zero-argument callable returning the target's
        current transport address (or None while it has none) — pass
        e.g. ``lambda: runtime.binding_agent.current_address(loid)``.
        ``on_suspect(key)`` fires on the alive->suspected transition
        (and again every threshold-multiple of further misses);
        ``on_recover(key)`` fires on the first successful probe after a
        suspicion.
        """
        if key in self._watches and self._watches[key].active:
            raise ValueError(f"already watching {key!r}")
        watch = _Watch(key, resolve, on_suspect, on_recover, self._runtime.sim.now)
        self._watches[key] = watch
        self._runtime.sim.spawn(
            self._probe_loop(watch), name=f"fdet:{self._host.name}:{key}"
        )
        return key

    def unwatch(self, key):
        """Stop probing ``key`` (the loop exits on its next wake)."""
        watch = self._watches.pop(key, None)
        if watch is not None:
            watch.active = False

    def stop(self):
        """Stop every watch and close the probe endpoint."""
        for key in list(self._watches):
            self.unwatch(key)
        if not self._endpoint.is_closed:
            self._endpoint.close()

    def is_suspected(self, key):
        watch = self._watches.get(key)
        return bool(watch and watch.suspected)

    def phi(self, key):
        """Current accrued suspicion level for ``key`` (phi mode math).

        Defined in any mode (tests compare modes on the same history);
        0.0 for unknown keys.
        """
        watch = self._watches.get(key)
        if watch is None:
            return 0.0
        return self._phi_of(watch, self._runtime.sim.now)

    def _phi_of(self, watch, now):
        if watch.gaps:
            mean_gap = sum(watch.gaps) / len(watch.gaps)
        else:
            # Cold start: no gap history yet, assume a slightly lazy
            # prober so the first silence does not alarm instantly.
            mean_gap = 1.5 * self.interval_s
        if mean_gap < self.interval_s:
            mean_gap = self.interval_s
        return _LOG10_E * (now - watch.last_ok_at) / mean_gap

    # ------------------------------------------------------------------
    # Probe loop
    # ------------------------------------------------------------------

    def _probe_loop(self, watch):
        from repro.net import RemoteError, RequestTimeout, TransportError

        sim = self._runtime.sim
        while watch.active and not self._endpoint.is_closed:
            yield sim.timeout(self.interval_s, daemon=True)
            if not watch.active or self._endpoint.is_closed:
                return
            address = watch.resolve()
            alive = False
            if address is not None:
                watch.last_address = address
                # Phi mode tolerates late replies: a reply landing after
                # the fixed timeout is still proof of life, so the
                # per-probe wait stretches to cover slow-but-alive peers
                # (the accrual math, not the reply wait, decides death).
                reply_wait = self.timeout_s
                if self.mode == "phi":
                    reply_wait = max(reply_wait, 2.0 * self.interval_s)
                try:
                    yield from self._endpoint.request(
                        address,
                        {"op": "invoke", "method": "ping", "args": ()},
                        size_bytes=PROBE_BYTES,
                        timeout_s=reply_wait,
                        max_attempts=1,
                    )
                    alive = True
                except RemoteError:
                    # The target answered, even if with an error: alive.
                    alive = True
                except (RequestTimeout, TransportError):
                    alive = False
            self._runtime.network.count("detector.probes")
            if alive:
                self._note_alive(watch)
            else:
                self._note_miss(watch)

    def _note_alive(self, watch):
        now = self._runtime.sim.now
        watch.misses = 0
        gap = now - watch.last_ok_at
        if gap > 0:
            watch.gaps.append(gap)
        watch.last_ok_at = now
        if watch.suspected:
            watch.suspected = False
            self.false_positives += 1
            self._runtime.network.count("detector.recoveries")
            self._runtime.network.count("detector.false_positives")
            self._runtime.network.publish(
                "detector.recovered", watch.key, detector=self.address
            )
            if watch.on_recover is not None:
                watch.on_recover(watch.key)

    def _note_miss(self, watch):
        watch.misses += 1
        self._runtime.network.count("detector.missed_probes")
        if self.mode == "phi":
            if self._phi_of(watch, self._runtime.sim.now) < self.phi_threshold:
                return
            # Past the accrual threshold: alarm on the transition, then
            # re-alarm on every further threshold-run of misses (parity
            # with the fixed-threshold re-fire cadence below).
            if watch.suspected and watch.misses % self.suspicion_threshold != 0:
                return
        elif watch.misses % self.suspicion_threshold != 0:
            return
        first = not watch.suspected
        if first:
            watch.suspected = True
            self._runtime.network.count("detector.suspicions")
            self._runtime.network.metrics.timer(
                "detector.detection_latency_s"
            ).record(self._runtime.sim.now - watch.last_ok_at)
            if watch.last_address is not None:
                self._runtime.network.health_observe(
                    watch.last_address, "suspicion"
                )
            self._runtime.network.publish(
                "detector.suspicion",
                watch.key,
                detector=self.address,
                address=watch.last_address,
                misses=watch.misses,
            )
        # Fire on every threshold multiple while suspected: a target
        # that died again before we ever saw it healthy still alarms.
        watch.on_suspect(watch.key)

    def __repr__(self):
        return (
            f"<HeartbeatFailureDetector {self.address} "
            f"watching={len(self._watches)}>"
        )
