"""Per-layer probes: which public calls are wrapped, and the metrics.

Layers are named after the repository's packages: ``sim``, ``net``,
``legion``, ``core``, ``cluster`` and ``obs``, plus ``gc`` for
CPython's cyclic collector.  Each probe is either a span (wall busy and
self time) or a count, taken at a public function of that package.
"""

from repro.cluster.relay import HostRelay
from repro.core.dcdo import DCDO
from repro.core.dfm import DynamicFunctionMapper
from repro.core.manager import DCDOManager
from repro.core.recovery import ManagerJournal
from repro.legion.binding import BindingCache
from repro.legion.rpc import MethodInvoker
from repro.net import Endpoint, Network
from repro.obs.bus import EventBus
from repro.obs.metrics import Timer
from repro.obs.slo import SLOMonitor
from repro.sim import Simulator

#: Relay RPC names and the methods registered for them.
RELAY_RPCS = {
    "evolveBatch": "_m_evolve_batch",
    "relayTree": "_m_relay_tree",
    "announceTree": "_m_announce_tree",
    "announceFleet": "_m_announce_fleet",
}

#: Fabric counters read as deltas over the traced part of a run.
NETWORK_COUNTERS = (
    "retry.request_attempts",
    "relay.announce_waves",
    "relay.batches",
    "relay.fallback_instances",
    "relay.local_binds",
)

#: Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "sim.events_per_op": "events/op",
    "sim.spawns_per_op": "spawns/op",
    "sim.wall_ns_per_event": "ns",
    "sim.self_share": "ratio",
    "net.messages_per_op": "msgs/op",
    "net.bytes_per_op": "B/op",
    "net.send_self_us": "us/op",
    "net.retries": "count",
    "net.drops": "count",
    "legion.invocations_per_op": "calls/op",
    "legion.invoke_self_us": "us/op",
    "legion.binding_hit_ratio": "ratio",
    "legion.rebinds": "count",
    "legion.binding_agent_resolves": "count",
    "core.dfm.lookups_per_op": "calls/op",
    "core.dfm.lookup_ns": "ns",
    "core.dcdo.apply_self_us": "us/op",
    "core.manager.direct_deliveries": "count",
    "core.journal.entries_per_instance_evolved": "entries",
    "core.journal.bytes_per_instance_evolved": "B",
    "core.journal.append_self_us": "us/op",
    "core.recovery.entries_replayed": "count",
    "core.recovery.replay_wall_ms": "ms",
    "cluster.relay.announce_waves": "count",
    "cluster.relay.job_bundles": "count",
    "cluster.relay.fallback_instances": "count",
    "cluster.relay.local_binds": "count",
    "cluster.relay.rpc_self_us": "us/op",
    "obs.slo.evaluations": "count",
    "obs.slo.evaluate_self_us": "us/op",
    "obs.timer.records": "count",
    "obs.bus.events": "count",
    "gc.gen2_collections": "count",
    "gc.pause_ms": "ms",
    "gc.pause_share": "ratio",
    "trace.overhead": "x",
}

#: Per-layer metrics that must repeat exactly for a seed.
LEDGER = (
    "sim.events_per_op",
    "sim.spawns_per_op",
    "net.messages_per_op",
    "net.bytes_per_op",
    "net.retries",
    "net.drops",
    "legion.invocations_per_op",
    "legion.binding_hit_ratio",
    "legion.rebinds",
    "legion.binding_agent_resolves",
    "core.dfm.lookups_per_op",
    "core.manager.direct_deliveries",
    "core.journal.entries_per_instance_evolved",
    "core.journal.bytes_per_instance_evolved",
    "core.recovery.entries_replayed",
    "cluster.relay.announce_waves",
    "cluster.relay.job_bundles",
    "cluster.relay.fallback_instances",
    "cluster.relay.local_binds",
    "obs.slo.evaluations",
    "obs.timer.records",
    "obs.bus.events",
)


def _counter(tracer, name):
    def on_call(result, args):
        tracer.count(name)
    return on_call


def install(tracer, runtime, relays):
    """Wrap every probed public function; ``relays`` are live HostRelays.

    Message traces: a request's trace id rides with its message id, and
    the process the receiving endpoint spawns to serve it (named
    ``serve#<message id>``) runs with that trace as its ambient trace,
    so server-side spans join the request's trace.
    """
    message_traces = {}

    def on_send(result, args):
        message = args[1]
        tracer.count("net.messages")
        tracer.count("net.bytes", message.wire_bytes)
        trace = tracer.current_trace()
        if trace is not None and message.kind == "request":
            message_traces[message.message_id] = trace

    spawn = Simulator.__dict__["spawn"]

    def traced_spawn(sim, generator, name=None):
        tracer.count("sim.spawns")
        trace = tracer.current_trace()
        if trace is None and name is not None and name.startswith("serve#"):
            trace = message_traces.pop(int(name[6:]), None)
        if trace is not None:
            generator = tracer.with_ambient(trace, generator)
        return spawn(sim, generator, name=name)

    def on_cache_get(result, args):
        tracer.count("legion.binding_hits" if result is not None else "legion.binding_misses")

    tracer.patch(Simulator, "spawn", traced_spawn)
    tracer.wrap(Network, "send", "net.send", on_send)
    tracer.wrap(Endpoint, "request", "net.request")
    tracer.wrap(MethodInvoker, "invoke", "legion.invoke", _counter(tracer, "legion.invocations"))
    tracer.wrap(BindingCache, "get", "legion.binding_get", on_cache_get, span=False)
    tracer.wrap(BindingCache, "record_stale_discovery", "legion.rebind",
                _counter(tracer, "legion.rebinds"), span=False)
    tracer.wrap(DynamicFunctionMapper, "lookup", "core.dfm.lookup")
    tracer.wrap(DCDO, "apply_configuration", "core.dcdo.apply_configuration")
    tracer.wrap(DCDOManager, "propagate_version", "core.manager.propagate_version")
    tracer.wrap(DCDOManager, "evolve_instance", "core.manager.evolve_instance",
                _counter(tracer, "core.manager.direct_deliveries"), span=False)
    tracer.wrap(DCDOManager, "restore_from_journal", "core.recovery.restore")
    tracer.wrap(ManagerJournal, "append", "core.journal.append",
                _counter(tracer, "core.journal.entries"))
    for rpc, attr in RELAY_RPCS.items():
        tracer.wrap(HostRelay, attr, f"cluster.relay.{rpc}")
    # Relays registered their RPC bodies as bound methods when they
    # were built; register them again so the wrapped ones are served.
    for relay in relays:
        for rpc, attr in RELAY_RPCS.items():
            relay.register_method(rpc, getattr(relay, attr))
    tracer.wrap(SLOMonitor, "evaluate", "obs.slo.evaluate")
    tracer.wrap(Timer, "record", "obs.timer.record",
                _counter(tracer, "obs.timer.records"), span=False)
    tracer.wrap(EventBus, "publish", "obs.bus.publish",
                _counter(tracer, "obs.bus.events"), span=False)


def uninstall(tracer, relays):
    """Undo :func:`install`, re-registering the relays' plain methods."""
    tracer.uninstall()
    for relay in relays:
        for rpc, attr in RELAY_RPCS.items():
            relay.register_method(rpc, getattr(relay, attr))


def snapshot(runtime, journal):
    """Program-side counters read before and after the traced part."""
    network = runtime.network
    values = {name: network.count_value(name) for name in NETWORK_COUNTERS}
    values["net.drops"] = network.stats.messages_dropped
    values["legion.binding_agent_resolves"] = runtime.binding_agent.resolutions_served
    values["core.journal.bytes"] = journal.bytes if journal is not None else 0
    values["sim.events"] = runtime.sim.processed_events
    return values


def metrics(tracer, before, after, traced, reference):
    """Per-layer metrics of the traced part of a run.

    ``traced`` and ``reference`` describe the traced part and the
    untraced part of the same run: ``wall_s``, ``cal_s``, ``ops``,
    ``instances_evolved`` and (reference only) ``events`` and the GC
    watch figures.  ``replayed`` in ``traced`` is the journal length at
    recovery, or 0.
    """
    ops = traced["ops"]
    evolved = traced["instances_evolved"]
    counts = tracer.counts
    delta = {name: after[name] - before[name] for name in before}
    self_ns = tracer.self_times_ns()
    busy = {}
    own = {}
    calls = {}
    for span, self_time in zip(tracer.spans, self_ns):
        own[span.name] = own.get(span.name, 0) + self_time
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.name == "core.recovery.restore":
            busy[span.name] = busy.get(span.name, 0) + span.busy_ns()

    def per_op(value):
        return value / ops if ops else 0.0

    def self_us(*names):
        return per_op(sum(own.get(name, 0) for name in names) / 1e3)

    def per_evolved(value):
        return value / evolved if evolved else 0.0

    hits = counts.get("legion.binding_hits", 0)
    gets = hits + counts.get("legion.binding_misses", 0)
    lookups = calls.get("core.dfm.lookup", 0)
    traced_ns = traced["wall_s"] * 1e9
    return {
        "sim.events_per_op": per_op(delta["sim.events"]),
        "sim.spawns_per_op": per_op(counts.get("sim.spawns", 0)),
        "sim.wall_ns_per_event": reference["wall_s"] * 1e9 / reference["events"],
        "sim.self_share": 1.0 - tracer.top_level_busy_ns() / traced_ns,
        "net.messages_per_op": per_op(counts.get("net.messages", 0)),
        "net.bytes_per_op": per_op(counts.get("net.bytes", 0)),
        "net.send_self_us": self_us("net.send", "net.request"),
        "net.retries": delta["retry.request_attempts"],
        "net.drops": delta["net.drops"],
        "legion.invocations_per_op": per_op(counts.get("legion.invocations", 0)),
        "legion.invoke_self_us": self_us("legion.invoke"),
        "legion.binding_hit_ratio": hits / gets if gets else 0.0,
        "legion.rebinds": counts.get("legion.rebinds", 0),
        "legion.binding_agent_resolves": delta["legion.binding_agent_resolves"],
        "core.dfm.lookups_per_op": per_op(lookups),
        "core.dfm.lookup_ns": own.get("core.dfm.lookup", 0) / lookups if lookups else 0.0,
        "core.dcdo.apply_self_us": self_us("core.dcdo.apply_configuration"),
        "core.manager.direct_deliveries": counts.get("core.manager.direct_deliveries", 0),
        "core.journal.entries_per_instance_evolved": per_evolved(
            counts.get("core.journal.entries", 0)
        ),
        "core.journal.bytes_per_instance_evolved": per_evolved(delta["core.journal.bytes"]),
        "core.journal.append_self_us": self_us("core.journal.append"),
        "core.recovery.entries_replayed": traced["replayed"],
        "core.recovery.replay_wall_ms": busy.get("core.recovery.restore", 0) / 1e6,
        "cluster.relay.announce_waves": delta["relay.announce_waves"],
        "cluster.relay.job_bundles": delta["relay.batches"],
        "cluster.relay.fallback_instances": delta["relay.fallback_instances"],
        "cluster.relay.local_binds": delta["relay.local_binds"],
        "cluster.relay.rpc_self_us": self_us(*(f"cluster.relay.{rpc}" for rpc in RELAY_RPCS)),
        "obs.slo.evaluations": calls.get("obs.slo.evaluate", 0),
        "obs.slo.evaluate_self_us": self_us("obs.slo.evaluate"),
        "obs.timer.records": counts.get("obs.timer.records", 0),
        "obs.bus.events": counts.get("obs.bus.events", 0),
        "gc.gen2_collections": reference["gc_gen2"],
        "gc.pause_ms": reference["gc_pause_ms"],
        "gc.pause_share": reference["gc_pause_ms"] / 1e3 / reference["wall_s"],
        # Calibrated time: the traced and untraced units ran seconds
        # apart, and the host's speed drifts between them.
        "trace.overhead": (traced["cal_s"] / ops) / (reference["cal_s"] / reference["ops"])
        if ops and reference["ops"] else 0.0,
    }
