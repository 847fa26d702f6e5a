"""Heartbeat failure detector: state machine, incarnations, determinism."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.detector import ALIVE, DEAD, SUSPECT, FailureDetector
from repro.net.eventsim import EventSimulator
from repro.net.faults import FaultPlan


def run_until(sim, horizon):
    """Drain events up to ``horizon`` by scheduling a stop marker."""
    sim.schedule(horizon, lambda: None)
    deadline = sim.now + horizon

    class _Stop(Exception):
        pass

    def guard():
        raise _Stop

    sim.schedule(horizon, guard)
    try:
        sim.run()
    except _Stop:
        pass


class TestStateMachine:
    def test_crashed_peer_walks_suspect_then_dead(self):
        plan = FaultPlan(crashes={"w": [(0, math.inf)]})
        sim = EventSimulator(faults=plan)
        transitions = []
        detector = FailureDetector(sim, plan, ["w", "x"],
                                   on_dead=lambda pid: transitions.append(pid))
        detector.start()
        run_until(sim, 3 * plan.heartbeat_period + 1)
        assert detector.status("w") == DEAD
        assert detector.is_dead("w")
        assert detector.status("x") == ALIVE
        assert transitions == ["w"]
        assert detector.probes > 0

    def test_suspect_precedes_dead(self):
        plan = FaultPlan(crashes={"w": [(0, math.inf)]},
                         suspect_after=1, dead_after=3)
        sim = EventSimulator(faults=plan)
        detector = FailureDetector(sim, plan, ["w"])
        detector.start()
        run_until(sim, plan.heartbeat_period + 1)
        assert detector.status("w") == SUSPECT
        run_until(sim, 2 * plan.heartbeat_period + 1)
        assert detector.status("w") == DEAD

    def test_recovery_fires_on_alive(self):
        plan = FaultPlan(crashes={"w": [(0, 20)]}, heartbeat_period=4,
                         dead_after=2)
        sim = EventSimulator(faults=plan)
        revived = []
        detector = FailureDetector(sim, plan, ["w"],
                                   on_alive=lambda pid: revived.append(pid))
        detector.start()
        run_until(sim, 40)
        assert detector.status("w") == ALIVE
        assert revived == ["w"]

    def test_incarnation_bump_reports_rebirth(self):
        # Down only between probes: the detector never sees the outage,
        # but the incarnation counter moved, so a prior suspicion clears.
        plan = FaultPlan(crashes={"w": [(5, 7)]}, heartbeat_period=4,
                         suspect_after=1, dead_after=99)
        sim = EventSimulator(faults=plan)
        detector = FailureDetector(sim, plan, ["w"])
        detector.start()
        run_until(sim, 20)
        assert detector.status("w") == ALIVE
        assert detector._incarnations["w"] == 1

    def test_unmonitored_peers_read_alive(self):
        plan = FaultPlan.none()
        sim = EventSimulator(faults=plan)
        detector = FailureDetector(sim, plan, ["a"])
        assert detector.status("zzz") == ALIVE
        assert not detector.is_dead("zzz")


class TestLifecycle:
    def test_protected_peers_are_not_probed(self):
        plan = FaultPlan(crashes={"w": [(0, math.inf)]})
        plan.protect("w")
        sim = EventSimulator(faults=plan)
        detector = FailureDetector(sim, plan, ["w", "x"])
        assert detector.peer_ids == ["x"]

    def test_stop_drains_the_queue(self):
        plan = FaultPlan.none()
        sim = EventSimulator(faults=plan)
        detector = FailureDetector(sim, plan, ["a", "b"])
        detector.start()
        sim.schedule(3 * plan.heartbeat_period, detector.stop)
        sim.run()  # terminates: the stopped sweep does not reschedule
        # the stop fires before the same-timestamp third sweep (FIFO order),
        # so exactly two sweeps of two peers each probed
        assert detector.probes == 2 * 2

    def test_start_is_idempotent(self):
        plan = FaultPlan.none()
        sim = EventSimulator(faults=plan)
        detector = FailureDetector(sim, plan, ["a"])
        detector.start()
        detector.start()  # must not double-schedule sweeps
        sim.schedule(plan.heartbeat_period, detector.stop)
        sim.run()
        assert detector.probes == 1

    @pytest.mark.xfail(strict=True, reason=(
        "stop() then start() before the pending sweep fires leaves two "
        "live sweep chains (the old event sees _stopped == False).  The "
        "fix, a generation token on the scheduled sweep, moves the "
        "message-id stream and with it recorded BENCH_churn / BENCH_load "
        "rows: a correctness PR with its own re-record (ROADMAP item 1)"))
    def test_restart_inside_a_period_keeps_one_chain(self):
        plan = FaultPlan.none()
        sim = EventSimulator(faults=plan)
        detector = FailureDetector(sim, plan, ["a"])
        detector.start()                       # chain A sweeps at 4, 8
        sim.schedule(1, detector.stop)
        sim.schedule(2, detector.start)        # chain B sweeps at 6
        sim.schedule(2 * plan.heartbeat_period, detector.stop)
        sim.run()
        assert detector.probes == 1            # one chain: the sweep at 6

    def test_knob_validation(self):
        plan = FaultPlan.none()
        sim = EventSimulator(faults=plan)
        with pytest.raises(ValueError, match="period"):
            FailureDetector(sim, plan, [], period=0)
        with pytest.raises(ValueError, match="suspect_after"):
            FailureDetector(sim, plan, [], suspect_after=3, dead_after=2)


class TestDeterminism:
    def test_no_message_ids_consumed_on_reliable_networks(self):
        """With drop_prob == 0 probing must not disturb the fault draws of
        the query traffic sharing the simulator (bit-identity guarantee)."""
        plan = FaultPlan(crashes={"w": [(0, math.inf)]})
        sim = EventSimulator(faults=plan)
        detector = FailureDetector(sim, plan, ["w", "x", "y"])
        detector.start()
        run_until(sim, 5 * plan.heartbeat_period + 1)
        assert sim.new_message_id() == 0

    def test_lossy_probes_can_falsely_suspect(self):
        plan = FaultPlan(seed=2, drop_prob=0.6, heartbeat_period=4,
                         suspect_after=1, dead_after=99)
        sim = EventSimulator(faults=plan)
        detector = FailureDetector(sim, plan, [f"p{i}" for i in range(10)])
        detector.start()
        run_until(sim, 3 * plan.heartbeat_period + 1)
        suspected = [pid for pid in detector.peer_ids
                     if detector.status(pid) == SUSPECT]
        assert suspected  # heavy loss: some live peer was suspected
        run_until(sim, 40 * plan.heartbeat_period)
        # eventual accuracy: every suspicion keeps being corrected (the
        # miss counters reset on each successful probe), and with
        # dead_after out of reach no live peer is ever declared dead
        assert all(not detector.is_dead(pid) for pid in detector.peer_ids)
        assert all(misses < plan.dead_after
                   for misses in detector._misses.values())
        assert any(detector.status(pid) == ALIVE
                   for pid in detector.peer_ids)


# -- the batched sweep against the loop it replaces ------------------------

def _snapshot(detector):
    return (detector.sim.now, dict(detector._status), dict(detector._misses),
            dict(detector._incarnations), detector.probes,
            detector.sim._messages)


class _Batched(FailureDetector):
    """The shipped detector, snapshotting its state after every sweep."""

    __slots__ = ("log",)

    def _sweep(self):
        super()._sweep()
        self.log.append(_snapshot(self))


class _Scalar(FailureDetector):
    """The parent commit's per-probe loop: the batched sweep's definition."""

    __slots__ = ("log",)

    def _sweep(self):
        _scalar_sweep(self)
        self.log.append(_snapshot(self))


def _scalar_sweep(self):
    if self._stopped:
        return
    now = self.sim.now
    plan = self.plan
    for pid in self.peer_ids:
        self.probes += 1
        up = plan.alive(pid, now)
        if up and plan.drop_prob > 0.0:
            up = not plan.drops(self.sim.new_message_id())
        if up:
            incarnation = plan.incarnation(pid, now)
            was = self._status[pid]
            reborn = incarnation != self._incarnations[pid]
            self._misses[pid] = 0
            self._status[pid] = ALIVE
            self._incarnations[pid] = incarnation
            if (was == DEAD or (reborn and was != ALIVE)) \
                    and self.on_alive is not None:
                self.on_alive(pid)
        else:
            misses = self._misses[pid] + 1
            self._misses[pid] = misses
            if misses >= self.dead_after:
                if self._status[pid] != DEAD:
                    self._status[pid] = DEAD
                    if self.on_dead is not None:
                        self.on_dead(pid)
            elif misses >= self.suspect_after:
                if self._status[pid] == ALIVE:
                    self._status[pid] = SUSPECT
    self.sim.schedule(self.period, self._sweep)


def _play(cls, peers, crashes, knobs, script, horizon):
    """Run ``script`` against one detector world; everything observable."""
    plan = FaultPlan(crashes=crashes, **knobs)
    sim = EventSimulator(faults=plan)
    calls = []
    detector = cls(sim, plan, peers,
                   on_dead=lambda pid: calls.append(("dead", pid, sim.now)),
                   on_alive=lambda pid: calls.append(("alive", pid, sim.now)))
    detector.log = []
    ops = {
        "stop": lambda _: detector.stop(),
        "start": lambda _: detector.start(),
        "protect": plan.protect,
        "draw": lambda k: [sim.new_message_id() for _ in range(k)],
        "reserve": sim.new_message_ids,
    }
    detector.start()
    for time, op, arg in script:
        sim.schedule(time, lambda op=op, arg=arg: ops[op](arg))
    sim.schedule(horizon, detector.stop)
    sim.run()
    return detector.log, calls, detector.probes, sim.new_message_id()


_windows = st.lists(
    st.tuples(st.integers(0, 40),
              st.one_of(st.integers(1, 15), st.just(math.inf)))
    .map(lambda w: (w[0], w[0] + w[1])), max_size=3)
_script = st.lists(
    st.tuples(st.integers(0, 59),
              st.sampled_from(["stop", "start", "protect", "draw", "reserve"]),
              st.integers(0, 11)), max_size=12)


class TestBatchedSweepEqualsScalarLoop:
    # Peer order is a permutation: sweeping in set or sorted order instead
    # of peer order would reorder the callbacks of one sweep.
    @given(peers=st.permutations(range(12)).flatmap(
               lambda ids: st.integers(1, 12).map(lambda n: ids[:n])),
           crashes=st.dictionaries(st.integers(0, 11), _windows, max_size=8),
           drop_prob=st.sampled_from([0.0, 0.02, 0.5]),
           seed=st.integers(0, 2**32), period=st.integers(1, 5),
           suspect_after=st.integers(1, 3), extra=st.integers(0, 2),
           script=_script)
    @settings(max_examples=150, deadline=None)
    def test_same_states_calls_probes_and_ids(
            self, peers, crashes, drop_prob, seed, period, suspect_after,
            extra, script):
        knobs = dict(seed=seed, drop_prob=drop_prob, heartbeat_period=period,
                     suspect_after=suspect_after,
                     dead_after=suspect_after + extra)
        batched = _play(_Batched, peers, crashes, knobs, script, 60)
        scalar = _play(_Scalar, peers, crashes, knobs, script, 60)
        assert batched[0] == scalar[0]  # after every sweep, per peer
        assert batched[1:] == scalar[1:]

    def test_double_chain_is_reproduced_draw_for_draw(self):
        """stop() / start() inside a period doubles the sweeps (see the
        xfail above); the batched sweep must double them the same way."""
        crashes = {1: [(3, math.inf)], 4: [(5, 9), (20, 22)]}
        knobs = dict(seed=4242, drop_prob=0.5, heartbeat_period=4)
        script = [(1, "stop", 0), (2, "start", 0), (9, "draw", 3)]
        batched = _play(_Batched, range(6), crashes, knobs, script, 40)
        scalar = _play(_Scalar, range(6), crashes, knobs, script, 40)
        sweep_times = [entry[0] for entry in batched[0]]
        assert sweep_times[:4] == [4, 6, 8, 10]  # two chains, period 4
        assert batched == scalar
        assert ("dead", 1, 6) in batched[1]  # dead_after = 2 in one period
