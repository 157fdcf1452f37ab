"""One reducer for the manager: live, replay and checkpoint agree.

Every durable manager change is a journal entry applied by
:func:`repro.core.manager_state.apply`.  The property test drives a
journaled manager through random operation sequences and checks, after
every step, that the live state equals the state rebuilt from the
journal and the state rebuilt from a checkpoint of it, and that the
``manager.`` events published are the journal's appends, in order.
``CHAOS_EXTRA_SEEDS`` (env) widens its example budget, as it widens
the chaos sweeps.

The recovery tests pin two defects the shared reducer exposed — a
re-armed wave the journal never recorded, and a recovered instance no
path re-delivered the wave it missed — and check that a manager
rebuilt from a journal publishes none of the entries it replays.
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.cluster import Reconciler, build_lan
from repro.cluster.chaos import crash_host
from repro.core import (
    DeliveryStatus,
    ManagerJournal,
    ManagerState,
    ReplicationLink,
    WaveAborted,
    recover_manager,
)
from repro.core.manager_state import apply, checkpoint_rows
from repro.core.partition import HASH_SPACE
from repro.core.policies import GeneralEvolutionPolicy
from repro.legion import LegionRuntime
from repro.net import PrefixPartition, RetryPolicy

from tests.conftest import create_dcdo, make_sorter_manager

pytestmark = pytest.mark.chaos

ONE_SHOT = RetryPolicy(base_s=1.0, max_attempts=1)
HOSTS = ("host01", "host02", "host03")
EXAMPLES = 40 + 20 * int(os.environ.get("CHAOS_EXTRA_SEEDS", "0"))
#: Simulated seconds between state checks inside a running operation.
SLICE_S = 0.002


def replayed(entries):
    """A fresh state with ``entries`` applied in order."""
    state = ManagerState()
    for entry in entries:
        apply(state, entry)
    return state


def record_commits(runtime, journal):
    """Two logs of the commits from now on: the ``manager.`` events
    published and the entries ``journal`` appended, each as
    ``(topic, details)`` pairs in order."""
    published, appended = [], []

    def on_write(write, entry):
        if write == "append":
            appended.append(("manager." + entry.kind, entry.data))

    runtime.network.bus.subscribe(
        "manager.", lambda event: published.append((event.topic, event.details))
    )
    journal.subscribe(on_write)
    return published, appended


class Fleet:
    """Runs named operations against a journaled sorter manager."""

    def __init__(self, check=lambda: None):
        self.check = check
        self.runtime = LegionRuntime(build_lan(4, seed=7))
        self.sim = self.runtime.sim
        self.journal = ManagerJournal(name="Sorter")
        self.published, self.appended = record_commits(self.runtime, self.journal)
        self.manager = make_sorter_manager(
            self.runtime,
            journal=self.journal,
            evolution_policy=GeneralEvolutionPolicy(),
            propagation_retry_policy=ONE_SHOT,
        )
        self.loids = []

    def run(self, op, pick):
        getattr(self, "op_" + op.replace("-", "_"))(pick)

    def _drive(self, generator):
        """Run ``generator`` in short slices, checking between them: the
        states must agree at every instant a crash could hit, not only
        between operations."""
        process = self.sim.spawn(generator)
        while not process.triggered:
            self.sim.run(until=self.sim.now + SLICE_S)
            self.check()
        if not process.ok and not isinstance(process.value, WaveAborted):
            raise process.value

    def _wave(self, version, loids=None):
        self._drive(self.manager.propagate_version(version, loids=loids))

    @staticmethod
    def _choose(items, pick):
        return items[pick % len(items)] if items else None

    def _instantiable(self):
        return sorted(self.manager.state.versions, key=lambda version: version.parts)

    def _open_canary(self, pick, breached=None):
        canaries = [
            canary
            for canary in self.manager.state.canaries.values()
            if not canary.closed and breached in (None, canary.breached)
        ]
        return self._choose(canaries, pick)

    def op_derive(self, pick):
        manager = self.manager
        version = manager.derive_version(self._choose(self._instantiable(), pick))
        if pick % 3:
            manager.mark_instantiable(version)  # else it stays a draft

    def op_create(self, pick):
        loid = self.sim.run_process(
            self.manager.create_instance(host_name=self._choose(HOSTS, pick))
        )
        self.loids.append(loid)

    def op_propagate(self, pick):
        fresh = [
            version
            for version in self._instantiable()
            if version not in self.manager.state.propagations
        ]
        if fresh:
            self._wave(self._choose(fresh, pick))

    def op_repropagate(self, pick):
        version = self._choose(list(self.manager.state.propagations), pick)
        if version is not None:
            loids = None if pick % 2 else self.loids[: pick % 4]
            self._wave(version, loids)

    def op_abort(self, pick):
        version = self._choose(list(self.manager.state.propagations), pick)
        if version is not None:
            self._drive(self.manager.abort_wave(version, reason="operator"))

    def op_canary_admit(self, pick):
        manager = self.manager
        candidates = [
            version
            for version in self._instantiable()
            if version != manager.current_version
            and not getattr(manager.canary_state(version), "closed", False)
        ]
        version = self._choose(candidates, pick)
        if version is None:
            return
        canary = manager.begin_canary(version, stages=(0.5, 1.0), bake_s=1.0)
        manager.admit_canary_stage(version, self.loids[: 1 + pick % 3])
        self._wave(version, list(canary.admitted))

    def op_canary_gate(self, pick):
        canary = self._open_canary(pick, breached=False)
        if canary is not None:
            self.manager.record_canary_gate(canary.version)

    def op_canary_breach(self, pick):
        canary = self._open_canary(pick)
        if canary is not None:
            self._drive(self.manager.abort_wave(canary.version))

    def op_canary_complete(self, pick):
        canary = self._open_canary(pick, breached=False)
        if canary is not None:
            self.manager.complete_canary(canary.version)

    def op_lease(self, pick):
        owner = f"controller-{pick % 2}"
        if pick % 3:
            self.manager.acquire_remediation_lease(owner, ttl_s=60.0)
        else:
            self.manager.release_remediation_lease(owner)

    def op_intent(self, pick):
        intent_id = f"intent-{pick % 3}"
        if pick % 3 == 0:
            self.manager.begin_remediation(intent_id, "rollback", "1", policy="test")
        elif pick % 3 == 1:
            self.manager.complete_remediation(intent_id, outcome="done")
        else:
            self.manager.gc_remediations()

    def op_crash(self, pick):
        """Fail-stop an instance host and reboot it: its instances stay
        down until recovered, so deliveries to them fail."""
        host = self.runtime.host(self._choose(HOSTS, pick))
        crash_host(self.runtime, host)
        host.restart()

    def op_recover(self, pick):
        manager = self.manager
        down = [loid for loid in manager.instance_loids() if not manager.record(loid).active]
        loid = self._choose(down, pick)
        if loid is not None:
            self._drive(manager.recover_instance(loid))

    def op_release_range(self, pick):
        lo = pick % HASH_SPACE
        self.manager.release_span((lo, min(HASH_SPACE, lo + HASH_SPACE // 4)))

    def op_checkpoint(self, pick):
        self.manager.write_checkpoint()


OPS = tuple(
    name[3:].replace("_", "-") for name in vars(Fleet) if name.startswith("op_")
)
#: Drawn twice as often: the operations that open, re-open and end waves.
WAVE_OPS = ("create", "propagate", "repropagate", "abort", "crash", "recover")


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(
        st.tuples(st.sampled_from(OPS + WAVE_OPS), st.integers(0, 2**16)),
        min_size=1,
        max_size=20,
    )
)
def test_live_state_equals_journal_and_checkpoint_replay(steps):
    def check():
        live = fleet.manager.state
        assert replayed(fleet.journal.replay()) == live, "journal replay"
        assert replayed(checkpoint_rows(live)) == live, "checkpoint replay"
        assert fleet.published == fleet.appended, "published commits"

    fleet = Fleet(check)
    fleet.op_create(0)
    for op, pick in steps:
        fleet.run(op, pick)
        check()


def test_checkpoint_is_a_snapshot():
    fleet = Fleet()
    for step in range(3):
        fleet.op_create(step)
    fleet.op_derive(1)
    fleet.op_propagate(0)
    rows = checkpoint_rows(fleet.manager.state)
    before = replayed(rows)
    fleet.op_abort(0)
    fleet.op_create(0)
    assert replayed(rows) == before != fleet.manager.state


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------


def build_fleet():
    """Journaled sorter manager on host00, compare-desc served from
    host04, one instance each on host01 and host02, and v2 (the
    descending comparator) current but not yet delivered."""
    runtime = LegionRuntime(build_lan(5, seed=7))
    journal = ManagerJournal(name="Sorter")
    manager = make_sorter_manager(
        runtime,
        component_hosts={
            "sorter": "host00",
            "compare-asc": "host00",
            "compare-desc": "host04",
        },
        journal=journal,
    )
    loids = [create_dcdo(runtime, manager, host_name=host)[0] for host in HOSTS[:2]]
    v2 = manager.derive_version(manager.current_version)
    manager.incorporate_into(v2, "compare-desc")
    manager.descriptor_of(v2).enable("compare", "compare-desc", replace_current=True)
    manager.mark_instantiable(v2)
    manager.set_current_version(v2)  # explicit policy: no delivery yet
    return runtime, manager, journal, loids, v2


def test_rearmed_wave_resumes_after_manager_crash():
    """Re-propagating a finished wave re-opens it; a manager crash
    before the re-opened delivery lands must leave a journal the
    recovered manager resumes from, not one showing the wave done."""
    runtime, manager, journal, loids, v2 = build_fleet()
    sim = runtime.sim
    runtime.network.faults.add_partition(
        PrefixPartition(["host00/"], ["host02/"], start=0.0, end=1_000.0)
    )
    tracker = sim.run_process(manager.propagate_version(v2, retry_policy=ONE_SHOT))
    assert tracker.complete
    assert tracker.delivery(loids[1]).status is DeliveryStatus.FAILED

    sim.run(until=1_001.0)  # the partition has healed
    sim.spawn(manager.propagate_version(v2))
    sim.run(until=sim.now + 0.001)  # re-armed, delivery still in flight
    assert not manager.propagation(v2).complete
    crash_host(runtime, manager.host)
    recovered = sim.run_process(recover_manager(runtime, journal, host_name="host03"))
    sim.run()

    resumed = recovered.propagation(v2)
    assert resumed.complete and resumed.all_acked, resumed
    for loid in loids:
        assert recovered.instance_version(loid) == v2
        assert recovered.record(loid).obj.version == v2


def test_recovered_instance_gets_the_wave_it_missed():
    """An instance whose host was down for the whole wave ends FAILED
    (its delivery retried into ObjectDeactivated).  Rebuilt after the
    host restarts, it comes back at its table version — the manager's
    reconciler must then re-deliver the wave to it, or it stays behind
    for good."""
    runtime, manager, journal, loids, v2 = build_fleet()
    sim = runtime.sim
    Reconciler(runtime, lambda: manager).start()
    crash_host(runtime, runtime.host("host02"))
    tracker = sim.run_process(manager.propagate_version(v2, retry_policy=ONE_SHOT))
    assert tracker.complete
    assert tracker.delivery(loids[1]).status is DeliveryStatus.FAILED

    runtime.host("host02").restart()
    sim.run_process(manager.recover_instance(loids[1]))
    sim.run()

    assert manager.record(loids[1]).obj.version == v2
    assert manager.instance_version(loids[1]) == v2
    assert tracker.complete and tracker.all_acked, tracker
    assert replayed(journal.replay()) == manager.state


@pytest.mark.parametrize("source", ["primary", "standby"])
def test_rebuilding_from_a_journal_publishes_only_new_commits(source):
    """Replay is not a commit.  A manager rebuilt from a checkpointed
    journal — by crash recovery, or by promoting a standby that was
    shipped the journal — publishes its own term bump and none of the
    entries it replayed."""
    runtime, manager, journal, __, v2 = build_fleet()
    link = ReplicationLink(runtime, manager, "host03", mode="sync")
    runtime.sim.run_process(manager.propagate_version(v2))
    manager.write_checkpoint()
    manager.derive_version(v2)  # a tail entry after the checkpoint
    runtime.sim.run()
    crash_host(runtime, manager.host)
    link.stop()
    if source == "standby":
        journal = link.replica.journal
    replayed_entries = len(journal)
    published, appended = record_commits(runtime, journal)
    recovered = runtime.sim.run_process(
        recover_manager(runtime, journal, host_name="host03", resume=False)
    )
    assert replayed_entries > 1
    assert published == appended == [("manager.term", {"number": recovered.term})]
