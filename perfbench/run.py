"""Repository benchmark: ``serve``, ``evolve`` and ``rollout``.

Run from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

The program under test is the ``repro`` package in ``src/`` next to this
directory; it is imported from there and from nowhere else, so the run
fails when ``src/`` is missing.

Every number has a clock.  *sim* numbers are seconds of the modelled
protocol's simulated clock and repeat exactly for a seed.  *wall*
numbers are host seconds spent running the Python and are noisy.

With ``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics; with ``--trace 1`` the last units run under the span
tracer and the JSON carries the per-layer metrics instead.  The lines
before it are a report for people: run metadata, every check, every
metric with its unit, clock and sample count, the simulated-outcome
fingerprint and (traced runs) the deterministic count ledger.  Traced
runs also write their spans to ``perfbench/out/``.

The exit code is 0 only when every output check passed.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Fleet builds per untraced run; set-up time is their median.
SETUP_REPEATS = 3

VALIDATION = (
    "The simulated model is validated only by the E1-E7 paper shapes; "
    "no reference measurements of real hardware exist, so no error "
    "figure against hardware is given."
)

#: End-to-end metrics gated by BENCHMARK.json: name -> (unit, clock, meaning).
#: Host cost is gated calibrated (see ``scenarios``); raw wall figures
#: are printed beside it but drift too much between runs to gate.
END_TO_END = {
    "setup_s": ("s", "wall", "median fleet set-up time over repeated builds"),
    "cal_us_per_op": ("us", "wall, calibrated", "host us per operation over the measured "
                      "units: a completed request (serve, rollout), an instance evolved (evolve)"),
    "sim_p50_ms": ("ms", "sim", "median operation latency: request (serve, rollout), "
                   "wave start to instance acked (evolve)"),
    "sim_tail_ms": ("ms", "sim", "highest percentile of the same samples with at least "
                    "10 samples beyond it"),
    "peak_rss_mb": ("MB", "wall", "peak resident set after the measured units"),
    "cal_events_per_s": ("1/s", "wall, calibrated", "kernel events per host second"),
}


def _load_program():
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def tail_percentile(count):
    """Highest of p50/p90/p99/p99.9/p99.99 with >= 10 samples beyond it."""
    best = 0.5
    for q in (0.9, 0.99, 0.999, 0.9999):
        if count * (1.0 - q) >= 10:
            best = q
    return best


def quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    index = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[index]


def fingerprint(run, fleet):
    """Digest of the simulated outcome; leaves out event and message counts."""
    digest = hashlib.sha256()
    digest.update(repr((run.spec.name, run.seed, run.spec.instances, run.spec.units)).encode())
    digest.update(repr(run.samples_s).encode())
    digest.update(repr(sorted(run.durations.items())).encode())
    digest.update(repr(fleet.versions()).encode())
    return digest.hexdigest()


def metadata(spec, args):
    return {
        "workload": spec.name,
        "why": spec.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "instances": spec.instances,
        "hosts": spec.hosts,
        "instances_per_host": spec.instances // spec.hosts,
        "rate_req_per_sim_s": spec.rate_hz,
        "arrivals": "open loop, Poisson on the simulated clock" if spec.rate_hz else "none",
        "generator_lag": "none: arrivals are scheduled on the simulated clock, so the "
                         "generator cannot run late",
        "units": spec.units,
        "python": platform.python_version(),
        "gc_enabled": gc.isenabled(),
        "gc_thresholds": list(gc.get_threshold()),
        "nproc": os.cpu_count(),
        "validation": VALIDATION,
    }


def _measured(run):
    """Totals over the measured units (recovery is not a unit of work)."""
    units = [u for u in run.units if u["kind"] != "recovery"]
    return {key: sum(u[key] for u in units)
            for key in ("wall_s", "cal_s", "ops", "events", "instances_evolved")}


def end_to_end(run, setups, rss_kb):
    """The gated end-to-end metrics of an untraced run: (value, samples)."""
    total = _measured(run)
    samples = sorted(run.samples_s)
    tail_q = tail_percentile(len(samples))
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "cal_us_per_op": (total["cal_s"] * 1e6 / total["ops"], total["ops"]),
        "sim_p50_ms": (quantile(samples, 0.5) * 1e3, len(samples)),
        "sim_tail_ms": (quantile(samples, tail_q) * 1e3, len(samples)),
        "peak_rss_mb": (rss_kb / 1024, 1),
        "cal_events_per_s": (total["events"] / total["cal_s"], total["events"]),
    }, tail_q


def workload_report(run):
    """The workload's own metrics by name, with raw wall time."""
    lines = []
    durations = run.durations
    samples = sorted(run.samples_s)
    total = _measured(run)
    wall, ops, evolved = total["wall_s"], total["ops"], total["instances_evolved"]
    if run.spec.rate_hz:
        q = tail_percentile(len(samples))
        lines.append(("client_p50_ms", quantile(samples, 0.5) * 1e3, "ms", "sim", len(samples)))
        lines.append((f"client_p{str(q)[2:]}_ms", quantile(samples, q) * 1e3, "ms", "sim",
                       len(samples)))
        lines.append(("wall_us_per_request", wall * 1e6 / ops, "us", "wall", ops))
    if evolved:
        lines.append(("wall_us_per_instance_evolved", wall * 1e6 / evolved, "us", "wall",
                      evolved))
    if "wave_s" in durations:
        lines.append(("wave_ms", statistics.median(durations["wave_s"]) * 1e3, "ms", "sim",
                      len(durations["wave_s"])))
    if "rollout_s" in durations:
        lines.append(("rollout_s", statistics.median(durations["rollout_s"]), "s", "sim",
                      len(durations["rollout_s"])))
    if "recovery_s" in durations:
        lines.append(("recovery_s", durations["recovery_s"][0], "s", "sim", 1))
    lines.append(("error_ratio", run.failed / run.attempted if run.attempted else 0.0,
                  "ratio", "-", run.attempted))
    lines.append(("sim_events_per_wall_s", total["events"] / wall, "1/s", "wall",
                  total["events"]))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("serve", "evolve", "rollout"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fleet and rate scale; below 1 only for quick tests")
    args = parser.parse_args(argv)
    _load_program()
    import scenarios

    spec = scenarios.spec_for(args.workload, args.seconds, args.scale)
    print(f"perfbench {spec.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("meta " + json.dumps(metadata(spec, args), sort_keys=True))

    run = scenarios.Run(spec, args.seed, traced=bool(args.trace))
    fleet, setup_s = scenarios.build(spec, args.seed)
    run.fleet = fleet
    per_layer = scenarios.WORKLOADS[spec.name](run, fleet)
    print(f"fingerprint {fingerprint(run, fleet)}")
    for name, ok, detail in run.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())
    correct = all(ok for __, ok, __ in run.checks)
    for name, value, unit, clock, count in workload_report(run):
        print(f"metric {name} = {value:.6g} {unit} (clock {clock}, n={count})")

    if args.trace:
        for name, unit in scenarios.layers.PER_LAYER.items():
            print(f"layer {name} = {per_layer[name]:.6g} {unit}")
        ledger = {name: per_layer[name] for name in scenarios.layers.LEDGER}
        print("ledger " + json.dumps(ledger, sort_keys=True))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{spec.name}-seed{args.seed}.jsonl"
        run.tracer.write(path, run.tracer.self_times_ns())
        print(f"spans {len(run.tracer.spans)} written to {path.relative_to(HERE.parent)}")
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in scenarios.layers.PER_LAYER.items()}
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setups = [setup_s]
        run.fleet = fleet = None
        for __ in range(SETUP_REPEATS - 1):
            gc.collect()  # the previous fleet's cycles, before timing the next build
            setups.append(scenarios.build(spec, args.seed)[1])
        values, tail_q = end_to_end(run, setups, rss)
        for name, (value, count) in values.items():
            unit, clock, meaning = END_TO_END[name]
            label = f"p{tail_q * 100:g}" if name == "sim_tail_ms" else ""
            print(f"metric {name} = {value:.6g} {unit} (clock {clock}, n={count}) "
                  f"{label} {meaning}".replace("  ", " "))
        metrics = {name: {"value": value, "unit": END_TO_END[name][0]}
                   for name, (value, __) in values.items()}

    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
