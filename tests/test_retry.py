"""Unit and integration tests for the reusable retry policy."""

import pytest

from repro.net import (
    DEFAULT_REQUEST_RETRY,
    CircuitBreaker,
    CircuitState,
    DropRule,
    Endpoint,
    Network,
    RequestTimeout,
    RetryPolicy,
)
from repro.sim import DeterministicRNG, Simulator

from tests.conftest import make_counter_class

pytestmark = [pytest.mark.chaos, pytest.mark.gray]


# ----------------------------------------------------------------------
# Pure policy arithmetic
# ----------------------------------------------------------------------


def test_backoff_grows_geometrically_and_caps():
    policy = RetryPolicy(base_s=1.0, multiplier=2.0, max_backoff_s=4.0)
    assert policy.backoff_s(1) == 1.0
    assert policy.backoff_s(2) == 2.0
    assert policy.backoff_s(3) == 4.0
    assert policy.backoff_s(4) == 4.0  # capped


def test_backoff_rejects_nonpositive_attempt():
    with pytest.raises(ValueError):
        RetryPolicy().backoff_s(0)


def test_should_retry_respects_max_attempts():
    policy = RetryPolicy(max_attempts=3)
    assert policy.should_retry(1, started=0.0, now=0.0)
    assert policy.should_retry(2, started=0.0, now=0.0)
    assert not policy.should_retry(3, started=0.0, now=0.0)


def test_should_retry_respects_deadline():
    policy = RetryPolicy(max_attempts=None, deadline_s=10.0)
    assert policy.should_retry(50, started=0.0, now=9.9)
    assert not policy.should_retry(1, started=0.0, now=10.0)


def test_unlimited_policy_retries_forever():
    policy = RetryPolicy(max_attempts=None, deadline_s=None)
    assert policy.should_retry(10_000, started=0.0, now=1e9)


def test_jitter_is_deterministic_and_bounded():
    a = RetryPolicy(
        base_s=1.0, jitter_fraction=0.5, rng=DeterministicRNG(seed=3), stream="t"
    )
    b = RetryPolicy(
        base_s=1.0, jitter_fraction=0.5, rng=DeterministicRNG(seed=3), stream="t"
    )
    draws_a = [a.backoff_s(1) for __ in range(5)]
    draws_b = [b.backoff_s(1) for __ in range(5)]
    assert draws_a == draws_b  # same seed, same stream → same sequence
    assert all(0.5 <= d <= 1.5 for d in draws_a)
    assert len(set(draws_a)) > 1  # it actually jitters


def test_jitter_requires_rng():
    with pytest.raises(ValueError):
        RetryPolicy(jitter_fraction=0.2)


def test_jitter_never_exceeds_max_backoff():
    """Regression: max_backoff_s is a true bound even after jitter.

    When the nominal backoff already sits at the cap, upward jitter
    used to push the actual wait above the documented ceiling."""
    policy = RetryPolicy(
        base_s=4.0,
        multiplier=2.0,
        max_backoff_s=4.0,
        jitter_fraction=0.5,
        rng=DeterministicRNG(seed=11),
        stream="clamp",
    )
    draws = [policy.backoff_s(attempt) for attempt in range(1, 9) for __ in range(20)]
    assert all(draw <= 4.0 for draw in draws), max(draws)
    assert min(draws) < 4.0  # downward jitter still applies


def test_parameter_validation():
    with pytest.raises(ValueError):
        RetryPolicy(base_s=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(deadline_s=0.0)


# ----------------------------------------------------------------------
# Circuit breaker state machine (pure accounting on the sim clock)
# ----------------------------------------------------------------------


def test_breaker_opens_after_threshold_and_short_circuits():
    sim = Simulator()
    breaker = CircuitBreaker(sim, failure_threshold=3, cooldown_s=30.0)
    assert breaker.state is CircuitState.CLOSED
    for __ in range(2):
        assert breaker.allow()
        breaker.record_failure()
    assert breaker.state is CircuitState.CLOSED
    assert breaker.allow()
    breaker.record_failure()  # third consecutive failure trips it
    assert breaker.state is CircuitState.OPEN
    assert breaker.times_opened == 1
    assert not breaker.allow()
    assert breaker.short_circuits == 1
    assert breaker.retry_at == pytest.approx(30.0)


def test_breaker_half_open_probe_success_closes():
    sim = Simulator()
    breaker = CircuitBreaker(sim, failure_threshold=1, cooldown_s=10.0)
    breaker.record_failure()
    assert breaker.state is CircuitState.OPEN

    def later():
        yield sim.timeout(10.0)

    sim.run_process(later())
    assert breaker.state is CircuitState.HALF_OPEN
    assert breaker.allow()  # the single probe
    assert not breaker.allow()  # concurrent caller short-circuited
    breaker.record_success()
    assert breaker.state is CircuitState.CLOSED
    assert breaker.allow()


def test_breaker_half_open_probe_failure_reopens():
    sim = Simulator()
    breaker = CircuitBreaker(sim, failure_threshold=1, cooldown_s=10.0)
    breaker.record_failure()

    def later():
        yield sim.timeout(10.0)

    sim.run_process(later())
    assert breaker.allow()
    breaker.record_failure()  # probe failed: back to OPEN, fresh cooldown
    assert breaker.state is CircuitState.OPEN
    assert breaker.times_opened == 2
    assert breaker.retry_at == pytest.approx(20.0)
    assert not breaker.allow()


def test_breaker_success_resets_failure_streak():
    sim = Simulator()
    breaker = CircuitBreaker(sim, failure_threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is CircuitState.CLOSED  # streak was broken
    assert breaker.failures == 4 and breaker.successes == 1


def test_breaker_parameter_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        CircuitBreaker(sim, failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(sim, cooldown_s=-1.0)


def test_network_breaker_registry_shares_and_snapshots():
    sim = Simulator()
    net = Network(sim, latency_s=0.0, bandwidth_bps=10**9)
    a = net.breaker("ico:x", failure_threshold=2)
    assert net.breaker("ico:x") is a  # get-or-create shares state
    a.record_failure()
    a.record_failure()
    snapshot = net.breakers_snapshot()
    assert snapshot["ico:x"]["state"] == "open"
    assert snapshot["ico:x"]["failures"] == 2
    assert snapshot["ico:x"]["times_opened"] == 1
    # Transitions are mirrored into the fabric metrics.
    assert net.count_value("breaker.opened") == 1


# ----------------------------------------------------------------------
# Transport integration: multi-attempt requests back off
# ----------------------------------------------------------------------


def echo_handler(message):
    return message.payload
    yield  # pragma: no cover - uniform generator shape


def test_request_attempts_are_spaced_by_backoff():
    sim = Simulator()
    net = Network(sim, latency_s=0.0, bandwidth_bps=10**9)
    client = Endpoint(net, "a")
    Endpoint(net, "b", request_handler=echo_handler)
    # Swallow the first two attempts; the third gets through.
    net.faults.add_drop_rule(
        DropRule(predicate=lambda m: m.kind == "request", count=2)
    )
    policy = RetryPolicy(base_s=1.0, multiplier=2.0, max_backoff_s=60.0)

    def caller():
        reply = yield from client.request(
            "b", "ping", timeout_s=0.5, max_attempts=3, retry_policy=policy
        )
        return sim.now, reply

    when, reply = sim.run_process(caller())
    assert reply == "ping"
    # attempt1 @0 (times out 0.5) + backoff 1.0, attempt2 @1.5 (times
    # out 2.0) + backoff 2.0, attempt3 @4.0 → reply.
    assert when == pytest.approx(4.0, abs=0.01)
    assert net.count_value("retry.request_attempts") == 2
    assert net.count_value("retry.backoff_waits") == 2


def test_default_policy_used_when_none_given():
    sim = Simulator()
    net = Network(sim, latency_s=0.0, bandwidth_bps=10**9)
    client = Endpoint(net, "a")
    Endpoint(net, "b", request_handler=echo_handler)
    net.faults.add_drop_rule(
        DropRule(predicate=lambda m: m.kind == "request", count=1)
    )

    def caller():
        reply = yield from client.request(
            "b", "ping", timeout_s=0.5, max_attempts=2
        )
        return sim.now, reply

    when, reply = sim.run_process(caller())
    assert reply == "ping"
    # DEFAULT_REQUEST_RETRY: first backoff is base_s after the 0.5s timeout.
    assert when == pytest.approx(0.5 + DEFAULT_REQUEST_RETRY.base_s, abs=0.01)


def test_single_attempt_request_never_backs_off():
    sim = Simulator()
    net = Network(sim, latency_s=0.0, bandwidth_bps=10**9)
    client = Endpoint(net, "a")
    net.faults.add_drop_rule(DropRule())

    def caller():
        yield from client.request("b", "ping", timeout_s=0.5, max_attempts=1)

    with pytest.raises(RequestTimeout):
        sim.run_process(caller())
    assert sim.now == pytest.approx(0.5)
    assert net.count_value("retry.backoff_waits") == 0


# ----------------------------------------------------------------------
# Invoker integration: schedule walks can be backoff-spaced
# ----------------------------------------------------------------------


def test_invoker_retry_policy_spaces_schedule_attempts(runtime):
    make_counter_class(runtime)
    class_object = runtime.class_of("Counter")
    loid = runtime.sim.run_process(class_object.create_instance())
    client = runtime.make_client("host01")
    client.invoker.retry_policy = RetryPolicy(
        base_s=5.0, multiplier=1.0, max_backoff_s=5.0
    )
    runtime.network.faults.add_drop_rule(
        DropRule(
            predicate=lambda m: m.kind == "request"
            and isinstance(m.payload, dict)
            and m.payload.get("op") == "invoke",
            count=1,
        )
    )
    started = runtime.sim.now
    result = client.call_sync(loid, "inc", 5, timeout_schedule=(1.0, 1.0))
    assert result == 5
    # First attempt times out after ~1s, then the 5s policy backoff
    # runs before the second attempt — far longer than the bare
    # schedule walk would take.
    assert runtime.sim.now - started > 5.5
    assert runtime.network.count_value("retry.backoff_waits") >= 1


def test_invoker_without_policy_keeps_bare_schedule_timing(runtime):
    make_counter_class(runtime)
    class_object = runtime.class_of("Counter")
    loid = runtime.sim.run_process(class_object.create_instance())
    client = runtime.make_client("host01")
    assert client.invoker.retry_policy is None
    runtime.network.faults.add_drop_rule(
        DropRule(
            predicate=lambda m: m.kind == "request"
            and isinstance(m.payload, dict)
            and m.payload.get("op") == "invoke",
            count=1,
        )
    )
    started = runtime.sim.now
    result = client.call_sync(loid, "inc", 5, timeout_schedule=(1.0, 1.0))
    assert result == 5
    # Back-to-back schedule steps: ~1s timeout + the quick second try.
    assert runtime.sim.now - started < 2.0


# ----------------------------------------------------------------------
# Adaptive timeouts: Jacobson/Karn RTT estimation
# ----------------------------------------------------------------------


def _make_estimator(**kwargs):
    from repro.net import RttEstimator

    return RttEstimator(**kwargs)


def test_estimator_cold_state_uses_initial_rto():
    estimator = _make_estimator(initial_rto_s=2.0)
    assert estimator.samples == 0
    assert estimator.rto_s == 2.0
    assert estimator.hedge_delay_s() == 2.0
    assert estimator.timeout_schedule(3) == (2.0, 4.0, 8.0)


def test_estimator_first_sample_seeds_srtt_and_variance():
    estimator = _make_estimator()
    estimator.observe(0.1)
    # RFC 6298 first sample: srtt = R, rttvar = R/2, rto = R + 4*R/2.
    assert estimator.srtt == pytest.approx(0.1)
    assert estimator.rttvar == pytest.approx(0.05)
    assert estimator.rto_s == pytest.approx(0.3)


def test_estimator_converges_on_stable_rtt():
    estimator = _make_estimator()
    for __ in range(200):
        estimator.observe(0.02)
    # Variance decays to ~0 on a steady peer; RTO hugs the RTT (floored
    # by min_rto_s).
    assert estimator.srtt == pytest.approx(0.02, rel=1e-3)
    assert estimator.rto_s < 0.025
    assert estimator.hedge_delay_s() < 0.025


def test_estimator_variance_widens_rto_under_jittery_rtt():
    steady = _make_estimator()
    jittery = _make_estimator()
    for index in range(100):
        steady.observe(0.05)
        jittery.observe(0.02 if index % 2 == 0 else 0.08)
    # Same mean, very different spread: the jittery peer earns the
    # longer timeout.
    assert jittery.srtt == pytest.approx(steady.srtt, abs=0.005)
    assert jittery.rto_s > 2.0 * steady.rto_s


def test_estimator_clamps_to_min_and_max_rto():
    fast = _make_estimator(min_rto_s=0.5)
    for __ in range(50):
        fast.observe(0.001)
    assert fast.rto_s == 0.5
    slow = _make_estimator(max_rto_s=10.0)
    for __ in range(50):
        slow.observe(30.0)
    assert slow.rto_s == 10.0
    assert slow.timeout_schedule(4) == (10.0,) * 4
    assert slow.hedge_delay_s() == 10.0


def test_estimator_rejects_bad_parameters_and_samples():
    with pytest.raises(ValueError):
        _make_estimator(initial_rto_s=0.0)
    with pytest.raises(ValueError):
        _make_estimator(min_rto_s=2.0, max_rto_s=1.0)
    estimator = _make_estimator()
    with pytest.raises(ValueError):
        estimator.observe(-0.1)
    with pytest.raises(ValueError):
        estimator.timeout_schedule(0)


def test_adaptive_invoker_shrinks_timeouts_after_warmup(runtime):
    """Once warmed on real RTTs, the adaptive schedule replaces the
    calibrated worst-case walk: a dropped request is re-tried within
    milliseconds instead of the calibrated ~30 s first step."""
    make_counter_class(runtime)
    class_object = runtime.class_of("Counter")
    loid = runtime.sim.run_process(class_object.create_instance())
    client = runtime.make_client("host01")
    client.invoker.enable_adaptive_timeouts()
    for __ in range(20):  # warm the per-peer estimator
        client.call_sync(loid, "inc", 1)
    estimator = client.invoker.estimator_for(
        runtime.binding_agent.current_address(loid)
    )
    assert estimator.samples == 20
    calibrated_first = client.invoker._calibration.rebind_timeout_schedule_s[0]
    assert estimator.rto_s < calibrated_first / 10.0
    runtime.network.faults.add_drop_rule(
        DropRule(
            predicate=lambda m: m.kind == "request"
            and isinstance(m.payload, dict)
            and m.payload.get("op") == "invoke",
            count=1,
        )
    )
    started = runtime.sim.now
    assert client.call_sync(loid, "inc", 1) == 21
    # The retry fired on the adaptive RTO, far below the calibrated
    # first step (even with the 15% schedule jitter).
    assert runtime.sim.now - started < calibrated_first / 2.0


def test_adaptive_invoker_respects_explicit_schedules(runtime):
    make_counter_class(runtime)
    class_object = runtime.class_of("Counter")
    loid = runtime.sim.run_process(class_object.create_instance())
    client = runtime.make_client("host01")
    client.invoker.enable_adaptive_timeouts()
    for __ in range(5):
        client.call_sync(loid, "inc", 1)
    runtime.network.faults.add_drop_rule(
        DropRule(
            predicate=lambda m: m.kind == "request"
            and isinstance(m.payload, dict)
            and m.payload.get("op") == "invoke",
            count=1,
        )
    )
    started = runtime.sim.now
    assert client.call_sync(loid, "inc", 1, timeout_schedule=(3.0, 3.0)) == 6
    # The explicit 3 s first step ran, not the millisecond RTO.
    assert runtime.sim.now - started > 2.0


def test_hedged_invocation_beats_gray_peer(runtime):
    """An armed invoker with ``hedge=True`` races a backup against a
    limping reply path and returns at hedge speed, not timeout speed."""
    from repro.net import ReorderRule

    make_counter_class(runtime)
    class_object = runtime.class_of("Counter")
    loid = runtime.sim.run_process(class_object.create_instance(host_name="host02"))
    client = runtime.make_client("host01")
    client.invoker.enable_hedging(delay_s=0.05)
    assert client.invoker.hedging_enabled
    # Hold back exactly one invoke request so its hedge overtakes it.
    held = []

    def first_invoke_only(message):
        if (
            message.kind == "request"
            and isinstance(message.payload, dict)
            and message.payload.get("op") == "invoke"
            and not held
        ):
            held.append(message.message_id)
        return message.message_id in held

    runtime.network.faults.add_delay_rule(
        ReorderRule(
            probability=1.0, max_skew_s=5.0, predicate=first_invoke_only, seed=2
        )
    )
    started = runtime.sim.now
    result = runtime.sim.run_process(
        client.invoker.invoke(loid, "get", (), hedge=True)
    )
    assert result == 0
    assert runtime.sim.now - started < 1.0
    assert runtime.network.count_value("transport.hedge_wins") == 1


def test_unarmed_invoker_ignores_hedge_flag(runtime):
    make_counter_class(runtime)
    class_object = runtime.class_of("Counter")
    loid = runtime.sim.run_process(class_object.create_instance())
    client = runtime.make_client("host01")
    assert not client.invoker.hedging_enabled
    result = runtime.sim.run_process(
        client.invoker.invoke(loid, "inc", (1,), hedge=True)
    )
    assert result == 1
    assert runtime.network.count_value("transport.hedges") == 0
