"""Tests for tail-latency primitives and open-loop traffic.

Covers the observability half of SLO-gated rollouts: reservoir
quantiles on :class:`Timer`, sliding-window :class:`SLOMonitor`
evaluation on the sim clock, the open-loop arrival schedules (rate
accuracy against known processes), and the closed-loop client's error
accounting.
"""

import math
import random

import pytest

from repro.cluster import build_lan
from repro.legion import LegionRuntime
from repro.obs import SLO, SLOMonitor, Timer
from repro.obs.metrics import TIMER_RESERVOIR_SIZE
from repro.sim import Simulator
from repro.workloads import (
    BurstyArrivals,
    ClosedLoopClient,
    DiurnalArrivals,
    OpenLoopLoad,
    PoissonArrivals,
    make_noop_manager,
)

pytestmark = pytest.mark.chaos


# ----------------------------------------------------------------------
# Timer percentiles (reservoir sampling)
# ----------------------------------------------------------------------


def test_timer_percentile_exact_below_cap():
    timer = Timer("t")
    for sample in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0):
        timer.record(sample)
    assert timer.percentile(0.50) == 5.0
    assert timer.percentile(0.90) == 9.0
    assert timer.percentile(1.0) == 10.0
    assert timer.percentile(0.0) == 1.0


def test_timer_percentile_uniform_distribution():
    """Reservoir quantiles track a known uniform distribution within a
    few percent even when most samples were discarded."""
    timer = Timer("t")
    rng = random.Random(42)
    n = 50_000
    for __ in range(n):
        timer.record(rng.uniform(0.0, 1.0))
    assert timer.count == n
    assert len(timer.samples) == TIMER_RESERVOIR_SIZE
    assert timer.percentile(0.50) == pytest.approx(0.50, abs=0.04)
    assert timer.percentile(0.99) == pytest.approx(0.99, abs=0.02)
    # Exact aggregates are unaffected by sampling.
    assert timer.mean() == pytest.approx(0.5, abs=0.01)


def test_timer_percentile_bimodal_tail():
    """A 5% slow mode must show up in p99 but not p50."""
    timer = Timer("t")
    rng = random.Random(7)
    for __ in range(20_000):
        timer.record(1.0 if rng.random() < 0.95 else 10.0)
    assert timer.percentile(0.50) == 1.0
    assert timer.percentile(0.99) == 10.0


def test_timer_bounded_memory():
    timer = Timer("t", reservoir_size=64)
    for index in range(10_000):
        timer.record(float(index))
    assert len(timer.samples) == 64
    assert timer.count == 10_000
    assert timer.max() == 9999.0
    assert timer.min() == 0.0


def test_timer_percentile_empty_and_invalid():
    timer = Timer("t")
    assert timer.percentile(0.99) is None
    timer.record(1.0)
    with pytest.raises(ValueError):
        timer.percentile(1.5)


# ----------------------------------------------------------------------
# SLOMonitor
# ----------------------------------------------------------------------


def _slo(**kwargs):
    defaults = dict(
        name="svc",
        latency_targets={0.99: 0.100},
        max_error_rate=0.05,
        min_samples=10,
    )
    defaults.update(kwargs)
    return SLO(**defaults)


def test_slo_monitor_abstains_below_min_samples():
    sim = Simulator()
    monitor = SLOMonitor(sim, _slo(min_samples=10), window_s=10.0)
    for __ in range(9):
        monitor.record_success(5.0)  # terrible, but too few to judge
    status = monitor.evaluate()
    assert status.healthy
    assert status.insufficient


def test_slo_monitor_latency_breach_and_log():
    sim = Simulator()
    monitor = SLOMonitor(sim, _slo(), window_s=10.0)
    for __ in range(20):
        monitor.record_success(0.01)
    assert monitor.healthy()
    for __ in range(20):
        monitor.record_success(0.5)
    status = monitor.evaluate()
    assert not status.healthy
    assert any("p99" in violation for violation in status.violations)
    assert len(monitor.breach_log) == 1  # one healthy->breached edge


def test_slo_monitor_error_rate_breach():
    sim = Simulator()
    monitor = SLOMonitor(sim, _slo(latency_targets={}), window_s=10.0)
    for __ in range(19):
        monitor.record_success(0.01)
    for __ in range(3):
        monitor.record_error(0.01)
    status = monitor.evaluate()
    assert not status.healthy
    assert status.error_rate == pytest.approx(3 / 22)
    assert any("error rate" in violation for violation in status.violations)


def test_slo_monitor_window_expiry_on_sim_clock():
    """Old observations stop counting once the sim clock moves past the
    window — a recovered service reads healthy again."""
    sim = Simulator()
    monitor = SLOMonitor(sim, _slo(), window_s=5.0)

    def scenario():
        for __ in range(20):
            monitor.record_success(1.0)  # breaching latencies at t=0
        assert not monitor.healthy()
        yield sim.timeout(6.0)
        status = monitor.evaluate()
        assert status.samples == 0
        assert status.healthy  # abstains: the bad window aged out
        for __ in range(20):
            monitor.record_success(0.01)
        assert monitor.healthy()
        return True

    assert sim.run_process(scenario())


def test_slo_monitor_bounded_memory():
    sim = Simulator()
    monitor = SLOMonitor(sim, _slo(), window_s=10.0, max_window_samples=100)
    for __ in range(10_000):
        monitor.record_success(0.01)
    assert len(monitor._window) == 100
    assert monitor.total_calls == 10_000


def test_slo_validation():
    with pytest.raises(ValueError):
        SLO(name="bad", latency_targets={1.5: 0.1})
    with pytest.raises(ValueError):
        SLO(name="bad", latency_targets={0.99: -1.0})
    with pytest.raises(ValueError):
        SLO(name="bad", latency_targets={}, max_error_rate=2.0)


# ----------------------------------------------------------------------
# Arrival schedules: rate accuracy
# ----------------------------------------------------------------------


def _count_arrivals(schedule, rng, duration_s):
    now, count = 0.0, 0
    while True:
        now += schedule.interarrival(now, rng)
        if now >= duration_s:
            return count
        count += 1


def test_poisson_arrivals_rate_accuracy():
    schedule = PoissonArrivals(50.0)
    count = _count_arrivals(schedule, random.Random(1), 100.0)
    assert count == pytest.approx(5000, rel=0.05)


def test_poisson_population_superposition():
    """A million clients at 1 mHz each is one 1 kHz stream."""
    schedule = PoissonArrivals.population(1_000_000, 0.001)
    assert schedule.rate_hz == pytest.approx(1000.0)
    count = _count_arrivals(schedule, random.Random(2), 10.0)
    assert count == pytest.approx(10_000, rel=0.05)


def test_bursty_arrivals_rate_split():
    schedule = BurstyArrivals(
        base_rate_hz=10.0, burst_rate_hz=100.0, period_s=10.0, burst_fraction=0.2
    )
    assert schedule.rate(0.5) == 100.0
    assert schedule.rate(5.0) == 10.0
    # Expected arrivals per period: 2 s * 100 + 8 s * 10 = 280.
    count = _count_arrivals(schedule, random.Random(3), 100.0)
    assert count == pytest.approx(2800, rel=0.07)


def test_diurnal_arrivals_follow_the_sun():
    schedule = DiurnalArrivals(
        peak_rate_hz=100.0, trough_rate_hz=10.0, period_s=100.0
    )
    assert schedule.rate(0.0) == pytest.approx(100.0)
    assert schedule.rate(50.0) == pytest.approx(10.0)
    # Mean rate over a full period is (peak + trough) / 2 = 55 Hz.
    count = _count_arrivals(schedule, random.Random(4), 100.0)
    assert count == pytest.approx(5500, rel=0.07)


def test_arrival_schedule_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)
    with pytest.raises(ValueError):
        BurstyArrivals(base_rate_hz=10.0, burst_rate_hz=5.0)
    with pytest.raises(ValueError):
        DiurnalArrivals(peak_rate_hz=5.0, trough_rate_hz=10.0)


# ----------------------------------------------------------------------
# Open-loop load against a live fleet
# ----------------------------------------------------------------------


def _noop_fleet(instances=4, seed=11):
    runtime = LegionRuntime(build_lan(4, seed=seed))
    manager, __ = make_noop_manager(runtime, "Svc", 2, 3, host_name="host00")
    loids = [
        runtime.sim.run_process(
            manager.create_instance(host_name=f"host{(i % 3) + 1:02d}")
        )
        for i in range(instances)
    ]
    return runtime, manager, loids


def test_open_loop_load_generates_offered_rate():
    runtime, __, loids = _noop_fleet()
    monitor = SLOMonitor(
        runtime.sim, _slo(latency_targets={0.99: 5.0}), window_s=30.0
    )
    load = OpenLoopLoad(
        runtime.make_client(host_name="host03"),
        loids,
        PoissonArrivals(30.0),
        runtime.rng.stream("traffic"),
        duration_s=20.0,
        monitor=monitor,
    )
    count = runtime.sim.run_process(load.run())
    assert count == load.issued_calls
    assert load.issued_calls == pytest.approx(600, rel=0.15)
    runtime.sim.run()  # drain in-flight calls
    assert load.error_calls == 0
    assert load.ok_calls == load.issued_calls
    assert monitor.total_calls == load.issued_calls
    assert load.error_rate() == 0.0


def test_open_loop_load_sheds_beyond_max_in_flight():
    runtime, __, loids = _noop_fleet()
    load = OpenLoopLoad(
        runtime.make_client(host_name="host03"),
        loids,
        PoissonArrivals(200.0),
        runtime.rng.stream("traffic"),
        duration_s=5.0,
        max_in_flight=3,
    )
    runtime.sim.run_process(load.run())
    runtime.sim.run()
    assert load.shed_calls > 0
    assert load.peak_in_flight <= 3
    assert load.issued_calls + load.shed_calls > 0
    assert load.done_calls == load.issued_calls


# ----------------------------------------------------------------------
# ClosedLoopClient error accounting (regression)
# ----------------------------------------------------------------------


def test_closed_loop_client_counts_failures():
    """Failed calls must show up in error_rate() with a time-to-failure
    sample — not silently vanish from the aggregates."""
    runtime, manager, loids = _noop_fleet(instances=1)
    looper = ClosedLoopClient(
        runtime.make_client(host_name="host03"), loids[0], "ping", calls=10
    )
    runtime.sim.run_process(looper.run())
    assert looper.completed_calls == 10
    assert looper.failed_calls == 0
    assert looper.error_rate() == 0.0

    # Point a second client at a LOID that does not exist: every call
    # errors, and each error carries the time it burned.
    from repro.legion.loid import mint_loid

    ghost = ClosedLoopClient(
        runtime.make_client(host_name="host03"),
        mint_loid("ghost", "Ghost"),
        "ping",
        calls=5,
    )
    runtime.sim.run_process(ghost.run())
    assert ghost.completed_calls == 0
    assert ghost.failed_calls == 5
    assert ghost.total_calls == 5
    assert ghost.error_rate() == 1.0
    assert len(ghost.failure_latencies) == 5
    assert all(sample >= 0.0 for sample in ghost.failure_latencies)


def test_closed_loop_client_error_rate_none_before_calls():
    runtime, __, loids = _noop_fleet(instances=1)
    looper = ClosedLoopClient(
        runtime.make_client(host_name="host03"), loids[0], "ping", calls=0
    )
    assert looper.error_rate() is None
