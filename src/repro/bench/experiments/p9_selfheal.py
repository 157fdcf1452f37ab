"""P9 — self-healing MTTR: reactive controller vs. operator runbook.

The paper's configuration manager *originates* evolution but leaves
the decision to evolve with a human: someone watches the dashboards,
notices the fleet is sick, and runs the runbook.  PR 10's
:class:`~repro.cluster.controller.ReactiveController` closes that loop
on the sim clock — it senses the same signals (SLO breaches, health
quarantines), decides with the same pluggable policies, and acts
through the same transactional wave machinery an operator would.

This experiment injects the canonical compound incident — a limping
instance host *and* an unguarded degraded deploy at the same instant —
into two otherwise identical fleets:

- **controller** — the reactive daemon ticks every second; the SLO
  breach triggers a journaled rollback wave to the parent version and
  the quarantine triggers a migration wave off the limper.
- **operator** — the *same* decision procedure and the same runbook
  (identical policies, identical actuators) driven at a human cadence:
  the operator polls the dashboards every ``OPERATOR_PERIOD_S``
  simulated seconds and only then runs what the controller would have
  run.  Everything else — detection thresholds, waves, retries — is
  held equal, so the measured gap is pure sense/decide latency.

MTTR is measured from the fault instant to full remediation (official
version and every instance back on the parent, no active instance
left on the limping host).  The gate — mirrored by
``check_regression.py --selfheal`` — is the recorded
``mttr_floor``: controller MTTR must beat operator MTTR by >= 3x,
with both runs healed, journaled intents all closed, and exactly-once
application intact.
"""

from repro.bench.harness import ExperimentResult
from repro.cluster import ReactiveController, build_lan
from repro.core import ManagerJournal, RemovePolicy
from repro.core.policies import (
    DemoteDegradedVersion,
    MigrateOffFlakyHost,
    ReliableUpdatePolicy,
)
from repro.legion import LegionRuntime
from repro.net import RetryPolicy
from repro.net.faults import SlowLink
from repro.obs import SLO
from repro.workloads import (
    OpenLoopLoad,
    PoissonArrivals,
    build_degraded_version,
    make_noop_manager,
)

MANAGER_HOST = "host00"
CLIENT_HOST = "host07"
LIMPING_HOST = "host01"
INSTANCE_HOSTS = ("host01", "host02", "host03", "host04", "host05", "host06")
#: Total live instances, spread evenly over the instance hosts.  CI
#: smoke runs shrink this via ``P9_FLEET`` (the gates are ratios).
FLEET = 48
#: Both faults land at the same instant: the host starts limping and
#: the degraded build is designated current, unguarded.
FAULT_AT_S = 10.0
LIMP_FACTOR = 10.0
GRAY_EXTRA_S = 0.4
GRAY_JITTER_S = 0.04
#: Every third call on the degraded build errors — far over the SLO.
ERROR_EVERY = 3
#: The human cadence: dashboards polled once a simulated minute.
OPERATOR_PERIOD_S = 60.0
CONTROLLER_INTERVAL_S = 1.0
ARRIVAL_RATE_PER_S = 40.0
#: Give up declaring a run healed after this long (shape-check fails).
HEAL_DEADLINE_S = 600.0
#: Acceptance ratio (mirrored by ``check_regression.py --selfheal``).
MTTR_FLOOR = 3.0

FAST_RETRY = RetryPolicy(
    base_s=1.0, multiplier=2.0, max_backoff_s=30.0, max_attempts=8
)


def _run_incident(seed, mode, fleet):
    """One compound incident; returns MTTR + hygiene numbers.

    ``mode`` is ``"controller"`` (1 s tick) or ``"operator"`` (the
    same loop at the human dashboard-polling cadence).
    """
    runtime = LegionRuntime(build_lan(8, seed=seed + 113))
    sim = runtime.sim
    journal = ManagerJournal(name="P9Svc")
    manager, __ = make_noop_manager(
        runtime,
        "P9Svc",
        component_count=2,
        functions_per_component=3,
        journal=journal,
        host_name=MANAGER_HOST,
        propagation_retry_policy=FAST_RETRY,
        update_policy=ReliableUpdatePolicy(retry_policy=FAST_RETRY),
        # In-flight calls on the degraded build must not veto its
        # removal forever (§3.2): drain briefly, then abort them.
        remove_policy=RemovePolicy.timeout(2.0),
    )
    loids = [
        sim.run_process(
            manager.create_instance(
                host_name=INSTANCE_HOSTS[index % len(INSTANCE_HOSTS)]
            )
        )
        for index in range(fleet)
    ]
    v1 = manager.current_version
    v2 = build_degraded_version(manager, error_every=ERROR_EVERY)
    runtime.network.enable_health()

    slo = SLO(
        name="p9",
        latency_targets={0.99: 0.050},
        max_error_rate=0.02,
        min_samples=20,
    )
    monitor = runtime.network.slo_monitor("p9", slo=slo, window_s=6.0)
    client = runtime.make_client(host_name=CLIENT_HOST)
    # Adaptive per-peer timeouts + hedging on the serving path: calls
    # into the limper time out against its warm RTT estimate instead
    # of riding the generous cold schedule, feeding the health scores
    # that drive quarantine (the same hardening P7 measures).
    client.invoker.enable_adaptive_timeouts()
    client.invoker.enable_hedging()
    load = OpenLoopLoad(
        client,
        loids,
        PoissonArrivals(ARRIVAL_RATE_PER_S),
        runtime.rng.stream("traffic"),
        monitor=monitor,
        duration_s=HEAL_DEADLINE_S + FAULT_AT_S,
        # No fixed schedule: let the adaptive estimator size timeouts,
        # so the limper's calls actually time out and score it down.
        timeout_schedule=None,
    )
    load.start()
    interval = (
        CONTROLLER_INTERVAL_S if mode == "controller" else OPERATOR_PERIOD_S
    )
    controller = ReactiveController(
        runtime,
        "P9Svc",
        policies=[MigrateOffFlakyHost(), DemoteDegradedVersion()],
        interval_s=interval,
        name=f"{mode}:P9Svc",
    ).start()

    healed = {"rollback": None, "migrate": None}
    # Fleet build-out consumed simulated time; faults and MTTRs are
    # measured relative to this base, not absolute sim time.
    base = sim.now
    fault_at = base + FAULT_AT_S

    def on_limper(record):
        return record.active and record.host.name == LIMPING_HOST

    def injector():
        yield sim.timeout(fault_at - sim.now)
        host = runtime.host(LIMPING_HOST)
        host.set_limp(LIMP_FACTOR, slow_nic=True)
        others = sorted(
            f"{name}/" for name in runtime.hosts if name != LIMPING_HOST
        )
        runtime.network.faults.add_delay_rule(
            SlowLink(
                [f"{LIMPING_HOST}/"],
                others,
                extra_s=GRAY_EXTRA_S,
                jitter_s=GRAY_JITTER_S,
                seed=seed + 17,
                label="p9-limper-link",
            )
        )
        manager.set_current_version_async(v2)

    def watcher():
        deadline = fault_at + HEAL_DEADLINE_S
        while sim.now < deadline:
            if healed["rollback"] is None and manager.current_version == v1:
                records = [manager.record(loid) for loid in loids]
                if all(
                    record.active and record.obj.version == v1
                    for record in records
                ):
                    healed["rollback"] = sim.now
            if healed["migrate"] is None and sim.now > fault_at:
                if not any(
                    on_limper(manager.record(loid)) for loid in loids
                ):
                    healed["migrate"] = sim.now
            if healed["rollback"] is not None and healed["migrate"] is not None:
                break
            yield sim.timeout(0.25)
        load.stop()
        controller.stop()

    sim.run_process(injector())
    sim.run_process(watcher())
    sim.run()

    mttrs = {
        kind: (at - fault_at) if at is not None else None
        for kind, at in healed.items()
    }
    total = (
        max(mttrs.values())
        if all(at is not None for at in mttrs.values())
        else None
    )
    duplicates = sum(
        max(0, manager.record(loid).obj.applications_by_version.get(v2, 0) - 1)
        for loid in loids
        if manager.record(loid).active
    )
    return {
        "mode": mode,
        "interval_s": interval,
        "fleet": len(loids),
        "rollback_mttr_s": mttrs["rollback"],
        "migrate_mttr_s": mttrs["migrate"],
        "mttr_s": total,
        "healed": total is not None,
        "duplicate_applications": duplicates,
        "open_intents": len(manager.open_remediations()),
        "actions_done": runtime.network.count_value("controller.actions.done"),
        "rollbacks": runtime.network.count_value("controller.rollbacks"),
        "migrations": runtime.network.count_value("controller.migrations"),
        "limper_quarantined": bool(
            runtime.network.health_snapshot()
            .get(LIMPING_HOST, {})
            .get("quarantined")
        ),
    }


def run_p9(seed=0, fleet=FLEET):
    """Run P9; returns an :class:`ExperimentResult`."""
    result = ExperimentResult(
        experiment_id="P9",
        title="Self-healing MTTR: reactive controller vs. operator runbook",
    )
    controller = _run_incident(seed, "controller", fleet)
    operator = _run_incident(seed, "operator", fleet)
    ratio = (
        operator["mttr_s"] / controller["mttr_s"]
        if controller["healed"] and operator["healed"] and controller["mttr_s"]
        else None
    )
    result.add(
        "controller MTTR (limp + degraded deploy)",
        "fleet healed, both remediations",
        f"{controller['mttr_s']:.1f}" if controller["healed"] else "unhealed",
        "s",
        ok=controller["healed"],
    )
    result.add(
        "operator MTTR (same runbook, 60 s dashboard cadence)",
        "fleet healed, both remediations",
        f"{operator['mttr_s']:.1f}" if operator["healed"] else "unhealed",
        "s",
        ok=operator["healed"],
    )
    result.add(
        "controller speedup over operator",
        f">= {MTTR_FLOOR:.0f}x (sense/decide latency eliminated)",
        f"{ratio:.1f}" if ratio is not None else "n/a",
        "x",
        ok=ratio is not None and ratio >= MTTR_FLOOR,
    )
    result.add(
        "rollback originated by the loop in both runs",
        "controller.rollbacks >= 1 each",
        f"{controller['rollbacks']}+{operator['rollbacks']}",
        "wave",
        ok=controller["rollbacks"] >= 1 and operator["rollbacks"] >= 1,
    )
    result.add(
        "limper quarantined and drained in both runs",
        "migrations >= 1 each, no instance left on it",
        f"{controller['migrations']}+{operator['migrations']}",
        "move",
        ok=controller["migrations"] >= 1 and operator["migrations"] >= 1,
    )
    duplicates = (
        controller["duplicate_applications"]
        + operator["duplicate_applications"]
    )
    dangling = controller["open_intents"] + operator["open_intents"]
    result.add(
        "exactly-once and journal hygiene across both runs",
        "0 duplicate applications, 0 dangling intents",
        f"{duplicates}/{dangling}",
        "",
        ok=duplicates == 0 and dangling == 0,
    )
    result.extra = {
        "fleet": fleet,
        "fault_at_s": FAULT_AT_S,
        "operator_period_s": OPERATOR_PERIOD_S,
        "controller_interval_s": CONTROLLER_INTERVAL_S,
        "mttr_floor": MTTR_FLOOR,
        "mttr_ratio": ratio,
        "controller": controller,
        "operator": operator,
    }
    return result
