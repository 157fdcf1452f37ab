"""Tests for the benchmark itself: tracer arithmetic and determinism.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracer as tracer_module
from tracer import Tracer, self_time_ns, union_ns

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def test_union_merges_overlaps_and_gaps():
    assert union_ns([]) == 0
    assert union_ns([(0, 10), (5, 15), (20, 30)]) == 25
    assert union_ns([(20, 30), (0, 40)]) == 40


def test_self_time_subtracts_nested_children():
    assert self_time_ns([(0, 100)], [(10, 20), (30, 50)]) == 70


def test_self_time_counts_overlapping_children_once():
    assert self_time_ns([(0, 100)], [(10, 40), (30, 60), (35, 45)]) == 50


def test_self_time_ignores_child_time_outside_parent():
    # A spawned child keeps running after the parent's interval ends.
    assert self_time_ns([(0, 100)], [(90, 150), (200, 300)]) == 90


def test_self_time_over_many_resumes():
    own = [(0, 10), (20, 30), (40, 50)]
    children = [(5, 25), (45, 46), (60, 70)]
    assert self_time_ns(own, children) == 30 - (5 + 5 + 1)


class _Toy:
    def leaf(self, value):
        return value

    def work(self, rounds):
        total = 0
        for index in range(rounds):
            total += self.leaf(index)
            yield index
        return total


@pytest.fixture
def fake_clock(monkeypatch):
    ticks = itertools.count(0, 10)
    monkeypatch.setattr(tracer_module, "_now_ns", lambda: next(ticks))


def test_generator_span_resumes_many_times(fake_clock):
    sim_time = [0.0]
    tracer = Tracer(lambda: sim_time[0])
    tracer.wrap(_Toy, "work", "toy.work")
    tracer.wrap(_Toy, "leaf", "toy.leaf")
    try:
        gen = _Toy().work(4)
        yielded = []
        for item in gen:
            yielded.append(item)
            sim_time[0] += 1.0
    finally:
        tracer.uninstall()
    assert yielded == [0, 1, 2, 3]
    assert not hasattr(_Toy.work, "__wrapped__")  # uninstall restored it
    work, *leaves = tracer.spans
    assert work.name == "toy.work" and len(leaves) == 4
    # One busy interval per resume: four yields plus the final return.
    assert len(work.busy) // 2 == 5
    assert all(leaf.parent == work.index and leaf.trace == work.trace for leaf in leaves)
    assert (work.sim_start, work.sim_end) == (0.0, 4.0)
    self_times = tracer.self_times_ns()
    leaf_busy = sum(leaf.busy_ns() for leaf in leaves)
    assert self_times[0] == work.busy_ns() - leaf_busy
    assert self_times[1:] == [leaf.busy_ns() for leaf in leaves]


def test_exceptions_thrown_into_a_traced_generator_reach_it(fake_clock):
    class Thrower:
        def body(self):
            try:
                yield "waiting"
            except KeyError:
                return "caught"

    tracer = Tracer(lambda: 0.0)
    tracer.wrap(Thrower, "body", "thrower.body")
    try:
        gen = Thrower().body()
        assert next(gen) == "waiting"
        with pytest.raises(StopIteration) as stop:
            gen.throw(KeyError("x"))
    finally:
        tracer.uninstall()
    assert stop.value.value == "caught"
    assert tracer.spans[0].wall_end is not None


def _run(workload, trace):
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "3", "--scale", "0.0625", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    found = {}
    for line in lines:
        key, __, rest = line.partition(" ")
        if key in ("fingerprint", "ledger"):
            found[key] = rest
    return found


@pytest.mark.parametrize("workload", ["serve", "evolve", "rollout"])
def test_counts_and_fingerprint_repeat_for_a_seed(workload):
    first = _run(workload, trace=1)
    second = _run(workload, trace=1)
    untraced = _run(workload, trace=0)
    assert json.loads(first["ledger"]) == json.loads(second["ledger"])
    assert first["fingerprint"] == second["fingerprint"]
    # Tracing only observes: the simulated outcome is the same without it.
    assert untraced["fingerprint"] == first["fingerprint"]
