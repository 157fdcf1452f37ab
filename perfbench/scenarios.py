"""The three workloads: ``serve``, ``evolve`` and ``rollout``.

Every workload is a single-threaded simulation driven through public
calls of the ``repro`` package.  Its simulated work is fixed by the
seed, the ``seconds`` argument and the scale, never by how fast the
host runs, so every simulated result repeats exactly for a seed.

A workload is a sequence of *units* (serving windows, waves or
rollouts).  Each unit's wall time and kernel events are measured on
their own, so wall metrics are medians over units.  In a traced run the
last units run with the tracer installed; the units before them are the
untraced reference that the tracing overhead is measured against.

The host's speed drifts by tens of percent within seconds.  A unit is
therefore run in short slices of simulated time, with a fixed
pure-Python reference loop timed between slices; each slice's wall
time is also reported scaled to the loop's nominal duration
(*calibrated* time), which cancels most of that drift.  Slicing the run
does not change the simulation: events keep their order.
"""

import contextlib
import math
import random
import time
from dataclasses import dataclass

from repro.cluster import deploy_relays
from repro.cluster.chaos import crash_host
from repro.cluster.testbed import build_lan
from repro.core import ComponentBuilder, ManagerJournal, RemovePolicy
from repro.core.policies import (
    CanaryWavePolicy,
    IncreasingVersionPolicy,
    run_canary_wave,
)
from repro.core.recovery import recover_manager
from repro.legion import LegionRuntime
from repro.obs import SLO, Timer
from repro.workloads import OpenLoopLoad, PoissonArrivals, make_noop_manager

import layers
from tracer import GCWatch, Tracer

#: Host that holds the manager and the client and no instances, so a
#: manager crash takes down no instance.
CONTROL_HOST = "host00"
INSTANCES_PER_HOST = 64
#: Concurrent direct deliveries a wave may keep in flight.
WAVE_WINDOW = 32
#: Simulated length of one serving window.
WINDOW_S = 1.0
#: Traffic before the first rollout, so the SLO monitor has samples.
PREROLL_S = 1.0
#: Keeps every latency sample: percentiles are exact, not sampled.
ALL_SAMPLES = 10**7
#: Simulated length of one measured slice: serving and rollouts, waves.
SLICE_S = 0.25
WAVE_SLICE_S = 0.010
#: The reference loop's duration at the calibration's nominal speed.
REFERENCE_NOMINAL_S = 0.008
#: Upgrade component size: seeded, uniform in this range (bytes).
UPGRADE_BYTES = (7_680, 8_704)
CANARY = CanaryWavePolicy(stages=(0.125, 0.5, 1.0), bake_s=1.5, check_interval_s=0.5)
SERVE_SLO = SLO(
    name="perfbench", latency_targets={0.99: 0.200}, max_error_rate=0.01, min_samples=30
)


@dataclass(frozen=True)
class Spec:
    """One workload's fixed shape."""

    name: str
    instances: int
    rate_hz: float
    units: int
    journal: bool
    why: str

    @property
    def hosts(self):
        return max(1, self.instances // INSTANCES_PER_HOST)

    @property
    def first_traced(self):
        """Index of the first unit a traced run traces."""
        if self.name == "serve":
            return self.units - max(1, self.units // 3)
        return self.units - 1


WHY = {
    "serve": "steady serving, no evolution: the per-request path works "
             "(sim, net, legion, DCDO/DFM dispatch) while manager, relay and journal idle",
    "evolve": "back-to-back fleet-wide announce waves, then a manager crash and journal "
              "recovery: manager, relay, apply and journal work, the request path idles",
    "rollout": "SLO-gated canary waves under open-loop traffic: instances are "
               "reconfigured while they serve, so waves and serving slow each other",
}


def spec_for(name, seconds, scale=1.0):
    """The workload's shape for a run of ``seconds`` at ``scale``."""
    if name == "serve":
        instances, units = 4_096, seconds * 2
    elif name == "evolve":
        instances, units = 8_192, seconds // 3
    elif name == "rollout":
        instances, units = 4_096, seconds * 2 // 5
    else:
        raise ValueError(f"unknown workload {name!r}")
    instances = max(INSTANCES_PER_HOST, int(instances * scale))
    rate = 0.0 if name == "evolve" else 3_000.0 * min(1.0, scale * 4)
    return Spec(name, instances, rate, max(2, units), name == "evolve", WHY[name])


def tree_fanout(hosts):
    """Fan-out that keeps the relay tree two levels deep (as in P6)."""
    below = max(hosts - 1, 1)
    k = math.isqrt(below)
    if k * k < below:
        k += 1
    return max(2, k)


def _noop_body(ctx):
    return None


def reference_loop():
    """Fixed pure-Python work; returns its wall seconds."""
    started = time.perf_counter()
    acc, table = 0, {}
    for index in range(60_000):
        acc += index * index
        table[index & 1023] = acc
    return time.perf_counter() - started


class Fleet:
    """A built fleet: runtime, manager, instances, relays and client."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.runtime = runtime = LegionRuntime(build_lan(spec.hosts + 1, seed=seed))
        self.journal = ManagerJournal(name=spec.name) if spec.journal else None
        self.type_name = spec.name.capitalize()
        self.manager, components = make_noop_manager(
            runtime, self.type_name, 2, 2,
            host_name=CONTROL_HOST,
            evolution_policy=IncreasingVersionPolicy(),
            remove_policy=RemovePolicy.timeout(2.0),
            journal=self.journal,
        )
        # The v1 blobs are on every host's disk already: set-up measures
        # instance creation, not one central download per host.
        for host in runtime.hosts.values():
            for component in components:
                variant = component.variant_for_host(host)
                host.cache.insert(variant.blob_id, variant.size_bytes)
        self.loids = []
        names = sorted(runtime.hosts)[1:]
        runtime.sim.run_process(self._create(names))
        directory = deploy_relays(runtime)
        self.relays = [runtime.live_object(loid) for loid in directory.values()]
        self.manager.use_relays(directory, fanout_k=tree_fanout(len(runtime.hosts)), announce=True)
        self.client = None
        if spec.rate_hz:
            # Warm every client binding: one binding miss per instance
            # here, so the measured windows see only hits.
            self.client = runtime.make_client(host_name=CONTROL_HOST)
            runtime.sim.run_process(self._warm())

    def _create(self, names):
        manager = self.manager
        for index in range(self.spec.instances):
            loid = yield from manager.create_instance(host_name=names[index % len(names)])
            self.loids.append(loid)

    def _warm(self):
        for loid in self.loids:
            yield from self.client.invoke(loid, "ping")

    def stage_version(self, label, size_bytes):
        """Register a one-function upgrade component; returns the version."""
        manager = self.manager
        builder = ComponentBuilder(label)
        builder.function(f"{label}_fn", _noop_body)
        builder.variant(size_bytes=size_bytes)
        manager.register_component(builder.build())
        version = manager.derive_version(manager.current_version)
        manager.incorporate_into(version, label)
        manager.descriptor_of(version).enable(f"{label}_fn", label)
        manager.mark_instantiable(version)
        return version

    def versions(self):
        """Final version of every instance, in creation order."""
        return [str(self.manager.instance_version(loid)) for loid in self.loids]

    def all_on(self, version, manager=None):
        """True when table and objects both show every instance on ``version``."""
        manager = manager or self.manager
        return all(
            manager.instance_version(loid) == version
            and manager.record(loid).obj.version == version
            for loid in self.loids
        )


class Run:
    """Measures units, toggles tracing and collects checks and samples."""

    def __init__(self, spec, seed, traced):
        self.spec = spec
        self.seed = seed
        self.traced = traced
        self.inputs = random.Random(f"perfbench:{spec.name}:{seed}")
        self.units = []
        self.checks = []
        self.samples_s = []
        self.durations = {}
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self.fleet = None
        self._before = None
        self._reference_s = None

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    @contextlib.contextmanager
    def unit(self, index, kind):
        """Measure one unit; trace it when it is in the traced part."""
        runtime = self.fleet.runtime
        tracing = self.traced and index >= self.spec.first_traced
        if tracing and self.tracer is None:
            self.tracer = Tracer(lambda: runtime.sim.now)
            self._before = layers.snapshot(runtime, self.fleet.journal)
            layers.install(self.tracer, runtime, self.fleet.relays)
        record = {"kind": kind, "traced": tracing, "ops": 0, "instances_evolved": 0,
                  "wall_s": 0.0, "cal_s": 0.0}
        events = runtime.sim.processed_events
        with GCWatch() as watch:
            yield record
        record["events"] = runtime.sim.processed_events - events
        record["gc_gen2"] = watch.collections[2]
        record["gc_pause_ms"] = watch.pause_ns / 1e6
        self.units.append(record)

    def advance(self, record, done, slice_s, end=None):
        """Run the simulation in slices of ``slice_s`` until ``done()``.

        Slices stop at ``end`` when given.  Each slice's wall time adds
        to ``record["wall_s"]`` and, scaled by the reference loop timed
        on both sides of it, to ``record["cal_s"]``.
        """
        sim = self.fleet.runtime.sim
        before = self._reference_s or reference_loop()
        while not done():
            stop = sim.now + slice_s if end is None else min(end, sim.now + slice_s)
            started = time.perf_counter()
            sim.run(until=stop)
            wall = time.perf_counter() - started
            after = reference_loop()
            record["wall_s"] += wall
            record["cal_s"] += wall * 2 * REFERENCE_NOMINAL_S / (before + after)
            before = after
        self._reference_s = before

    def run_process(self, record, generator, slice_s):
        """Run ``generator`` as a process through :meth:`advance`."""
        process = self.fleet.runtime.sim.spawn(generator)
        self.advance(record, lambda: process.triggered, slice_s)
        if not process.ok:
            raise process.value
        return process.value

    def finish_trace(self, replayed=0):
        """Uninstall the tracer; returns the per-layer metrics."""
        if self.tracer is None:
            return None
        layers.uninstall(self.tracer, self.fleet.relays)
        after = layers.snapshot(self.fleet.runtime, self.fleet.journal)
        traced = _sum_units([u for u in self.units if u["traced"] and u["kind"] != "recovery"])
        traced["replayed"] = replayed
        reference = _sum_units([u for u in self.units if not u["traced"]])
        return layers.metrics(self.tracer, self._before, after, traced, reference)


def _sum_units(units):
    total = {"wall_s": 0.0, "cal_s": 0.0, "ops": 0, "instances_evolved": 0, "events": 0,
             "gc_gen2": 0, "gc_pause_ms": 0.0}
    for unit in units:
        for key in total:
            total[key] += unit[key]
    return total


def _upgrade_size(run):
    return run.inputs.randint(*UPGRADE_BYTES)


def _check_load(run, load):
    run.check("requests.none_shed", load.shed_calls == 0, f"shed={load.shed_calls}")
    run.check("requests.all_accounted",
              load.issued_calls == load.ok_calls + load.error_calls and load.in_flight == 0,
              f"issued={load.issued_calls} ok={load.ok_calls} err={load.error_calls}")
    run.check("requests.no_errors", load.error_calls == 0, f"errors={load.error_calls}")
    run.attempted += load.issued_calls
    run.failed += load.error_calls + load.shed_calls


def _check_echo(run, fleet, probes=16):
    """A few direct pings whose replies must echo their argument."""
    step = max(1, len(fleet.loids) // probes)
    bad = 0
    for index in range(0, len(fleet.loids), step):
        token = f"probe-{index}"
        reply = fleet.client.call_sync(fleet.loids[index], "ping", token)
        bad += tuple(reply) != (token,)
    run.check("requests.echo_replies", bad == 0, f"bad={bad}")


def serve(run, fleet):
    """Poisson pings round-robin over the fleet, in 1 s windows."""
    spec, runtime = run.spec, fleet.runtime
    sim = runtime.sim
    timer = Timer("perfbench.serve", reservoir_size=ALL_SAMPLES)
    load = OpenLoopLoad(
        fleet.client, fleet.loids, PoissonArrivals(spec.rate_hz),
        runtime.rng.stream("traffic"), timer=timer,
    )
    misses = fleet.client.invoker.stats.binding_misses
    load.start()
    start = sim.now
    for index in range(spec.units):
        done = load.done_calls
        end = start + (index + 1) * WINDOW_S
        with run.unit(index, "window") as unit:
            run.advance(unit, lambda: sim.now >= end, SLICE_S, end)
        unit["ops"] = load.done_calls - done
    metrics = run.finish_trace()
    load.stop()
    sim.run(until=sim.now + WINDOW_S)
    _check_load(run, load)
    run.check("binding.only_hits_after_warmup",
              fleet.client.invoker.stats.binding_misses == misses,
              f"misses={fleet.client.invoker.stats.binding_misses - misses}")
    run.samples_s = list(timer.samples)
    _check_echo(run, fleet)
    return metrics


def evolve(run, fleet):
    """Announce waves back to back, then crash and recover the manager."""
    spec, runtime, manager = run.spec, fleet.runtime, fleet.manager
    sim = runtime.sim
    fallbacks = runtime.network.count_value("relay.fallback_instances")
    waves = []
    for index in range(spec.units):
        version = fleet.stage_version(f"evolve-up{index}", _upgrade_size(run))
        manager.set_current_version(version)
        with run.unit(index, "wave") as unit:
            tracker = run.run_process(
                unit, manager.propagate_version(version, window=WAVE_WINDOW), WAVE_SLICE_S
            )
        deliveries = tracker.deliveries()
        acked = sum(1 for d in deliveries if d.acked_at is not None)
        unit["ops"] = unit["instances_evolved"] = acked
        run.attempted += len(deliveries)
        run.failed += len(deliveries) - acked
        run.check(f"wave{index}.complete_all_acked", tracker.complete and tracker.all_acked,
                  str(tracker.summary()))
        run.check(f"wave{index}.all_on_target", fleet.all_on(version))
        waves.append(tracker.completed_at - tracker.started_at)
        run.samples_s.extend(d.acked_at - tracker.started_at for d in deliveries
                             if d.acked_at is not None)
    run.check("relay.no_fallback_instances",
              runtime.network.count_value("relay.fallback_instances") == fallbacks)
    run.durations["wave_s"] = waves

    table = _manager_table(manager, fleet)
    replayed = len(fleet.journal)
    with run.unit(spec.units - 1, "recovery"):
        crashed_at = sim.now
        crash_host(runtime, runtime.host(CONTROL_HOST))
        runtime.host(CONTROL_HOST).restart()
        recovered = sim.run_process(recover_manager(runtime, fleet.journal))
    run.durations["recovery_s"] = [sim.now - crashed_at]
    metrics = run.finish_trace(replayed)
    run.check("recovery.table_equal", _manager_table(recovered, fleet) == table)
    run.check("recovery.versions_equal", fleet.all_on(version, recovered))
    fleet.manager = recovered
    return metrics


def _manager_table(manager, fleet):
    return {
        "current": str(manager.current_version),
        "versions": sorted(map(str, manager.versions())),
        "instances": [str(manager.instance_version(loid)) for loid in fleet.loids],
    }


def rollout(run, fleet):
    """SLO-gated canary waves across the serving fleet under traffic."""
    spec, runtime = run.spec, fleet.runtime
    sim = runtime.sim
    monitor = runtime.network.slo_monitor("perfbench", slo=SERVE_SLO, window_s=2.0)
    load = OpenLoopLoad(
        fleet.client, fleet.loids, PoissonArrivals(spec.rate_hz),
        runtime.rng.stream("traffic"), monitor=monitor,
    )
    load.start()
    sim.run(until=sim.now + PREROLL_S)
    rollouts = []
    for index in range(spec.units):
        version = fleet.stage_version(f"rollout-up{index}", _upgrade_size(run))
        timer = load.timer = Timer(f"perfbench.rollout{index}", reservoir_size=ALL_SAMPLES)
        done = load.done_calls
        started = sim.now
        with run.unit(index, "rollout") as unit:
            outcome, finished = run.run_process(
                unit, _timed_rollout(fleet, version, monitor), SLICE_S
            )
        load.timer = None
        rollouts.append(finished - started)
        unit["ops"] = load.done_calls - done
        unit["instances_evolved"] = outcome.admitted
        run.samples_s.extend(timer.samples)
        run.attempted += outcome.fleet_size
        run.failed += outcome.fleet_size - outcome.admitted
        run.check(f"rollout{index}.completed", outcome.completed and not outcome.breached,
                  str(outcome))
        run.check(f"rollout{index}.full_admission", outcome.admitted == len(fleet.loids),
                  f"admitted={outcome.admitted}")
        run.check(f"rollout{index}.all_on_target", fleet.all_on(version))
        if spec.instances >= 4_096:
            run.check(f"rollout{index}.window_has_10k_requests", unit["ops"] >= 10_000,
                      f"requests={unit['ops']}")
    metrics = run.finish_trace()
    load.stop()
    sim.run(until=sim.now + WINDOW_S)
    _check_load(run, load)
    run.durations["rollout_s"] = rollouts
    _check_echo(run, fleet)
    return metrics


def _timed_rollout(fleet, version, monitor):
    """Process body: one gated rollout; returns its outcome and end instant."""
    outcome = yield from run_canary_wave(
        fleet.runtime, fleet.type_name, version, CANARY, monitor=monitor, deadline_s=120.0,
    )
    return outcome, fleet.runtime.sim.now


WORKLOADS = {"serve": serve, "evolve": evolve, "rollout": rollout}


def build(spec, seed):
    """Build a fleet; returns it with its wall set-up seconds."""
    started = time.perf_counter()
    fleet = Fleet(spec, seed)
    return fleet, time.perf_counter() - started
