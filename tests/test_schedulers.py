"""Tests for the work-stealing and centralized scheduler simulations."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fock.centralized import run_centralized
from repro.fock.stealing import run_work_stealing, victim_scan_order
from repro.obs.flight import CH_FOCK_ACC, CH_TASK_GET
from repro.runtime.ga import SharedCounter
from repro.runtime.faults import FaultPlan
from repro.runtime.machine import LONESTAR
from repro.runtime.network import CommStats


class TestVictimScanOrder:
    def test_excludes_self(self):
        order = victim_scan_order(3, 2, 3)
        assert 3 not in order
        assert sorted(order) == [0, 1, 2, 4, 5]

    def test_own_row_first(self):
        # proc 4 in a 2x3 grid is at (1, 1); row 1 = procs 3,4,5
        order = victim_scan_order(4, 2, 3)
        assert set(order[:2]) == {5, 3}


class TestWorkStealingConservation:
    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_every_task_executed_once(self, seed):
        rng = np.random.default_rng(seed)
        nproc = int(rng.integers(1, 9))
        prow, pcol = 1, nproc
        queues = [
            [(p, i) for i in range(int(rng.integers(0, 12)))] for p in range(nproc)
        ]
        executed = []
        out = run_work_stealing(
            queues,
            cost_of=lambda t: float(rng.uniform(0.1, 2.0)),
            grid=(prow, pcol),
            on_task=lambda p, t: executed.append(t),
        )
        all_tasks = [t for q in queues for t in q]
        assert sorted(executed) == sorted(all_tasks)
        assert out.executed_tasks.sum() == len(all_tasks)

    def test_stealing_rebalances_skewed_load(self):
        """One loaded process + idle thieves: near-perfect balance."""
        nproc = 4
        queues = [[i for i in range(400)]] + [[] for _ in range(nproc - 1)]
        with_steal = run_work_stealing(
            queues, lambda t: 1.0, (1, nproc), enable_stealing=True
        )
        without = run_work_stealing(
            [list(q) for q in queues], lambda t: 1.0, (1, nproc),
            enable_stealing=False,
        )
        assert with_steal.makespan < 0.5 * without.makespan
        assert without.makespan == pytest.approx(400.0)
        assert with_steal.steals

    def test_balanced_load_no_steals_needed(self):
        queues = [[0] * 10 for _ in range(4)]
        out = run_work_stealing(queues, lambda t: 1.0, (2, 2))
        assert out.makespan == pytest.approx(10.0)
        assert out.load_balance_ratio() == pytest.approx(1.0)

    def test_steal_cost_charged(self):
        charged = []

        def steal_cost(thief, victim):
            charged.append((thief, victim))
            return 0.5

        queues = [[i for i in range(100)], []]
        out = run_work_stealing(
            queues, lambda t: 1.0, (1, 2), steal_cost=steal_cost
        )
        assert charged
        assert out.steals

    def test_in_flight_task_not_stolen(self):
        """A victim mid-task keeps that task."""
        executed_by = {}
        queues = [[("v", 0), ("v", 1)], []]
        # task 0 runs [0, 10); thief arrives at t=0 -> may only steal task 1
        out = run_work_stealing(
            queues,
            lambda t: 10.0,
            (1, 2),
            on_task=lambda p, t: executed_by.setdefault(t, p),
        )
        assert executed_by[("v", 0)] == 0
        assert executed_by[("v", 1)] == 1
        assert out.makespan == pytest.approx(10.0)

    def test_start_clock_offsets_respected(self):
        stats = CommStats(2, LONESTAR)
        stats.clock[1] = 100.0
        out = run_work_stealing(
            [[0], [1]], lambda t: 1.0, (1, 2), stats=stats,
            enable_stealing=False,
        )
        assert out.finish_time[0] == pytest.approx(1.0)
        assert out.finish_time[1] == pytest.approx(101.0)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_work_stealing([[1]], lambda t: 1.0, (2, 2))


class TestStealBoundary:
    """The ``bisect_right`` split when a steal lands exactly on a task
    boundary of the victim's cumulative-cost array."""

    def test_steal_exactly_at_task_boundary(self):
        """Thief arrives exactly when the victim finishes its first task:
        that task is done, the second is in flight, only the third is
        stealable."""
        executed_by = {}
        queues = [[("v", 0), ("v", 1), ("v", 2)], [("t", 0)]]
        out = run_work_stealing(
            queues,
            lambda t: 10.0,
            (1, 2),
            on_task=lambda p, t: executed_by.setdefault(t, p),
            min_steal=1,
        )
        assert executed_by[("v", 0)] == 0
        assert executed_by[("v", 1)] == 0  # in flight at t=10: not stealable
        assert executed_by[("v", 2)] == 1  # the one stealable task
        assert len(out.steals) == 1
        assert out.steals[0].time == pytest.approx(10.0)
        assert out.makespan == pytest.approx(20.0)

    def test_queue_empties_exactly_at_steal_time(self):
        """Thief arrives exactly when the victim's queue drains: nothing
        is stealable and the scan must come back empty, not split a
        phantom task."""
        executed_by = {}
        queues = [[("v", 0), ("v", 1)], [("t", 0)]]

        def cost_of(task):
            return 20.0 if task[0] == "t" else 10.0

        out = run_work_stealing(
            queues,
            cost_of,
            (1, 2),
            on_task=lambda p, t: executed_by.setdefault(t, p),
        )
        assert not out.steals
        assert executed_by[("v", 0)] == 0
        assert executed_by[("v", 1)] == 0
        assert out.makespan == pytest.approx(20.0)

    def test_boundary_shifts_under_straggler_fault(self):
        """Same arrival instant, but a straggler victim has only finished
        part of its first task -- the split must use the *scaled*
        cumulative costs, freeing the later tasks for the thief."""
        executed_by = {}
        queues = [[("v", 0), ("v", 1), ("v", 2)], [("t", 0)]]
        plan = FaultPlan(seed=0, slowdown={0: 2.0})
        out = run_work_stealing(
            queues,
            lambda t: 10.0,
            (1, 2),
            on_task=lambda p, t: executed_by.setdefault(t, p),
            faults=plan.activate(2),
        )
        # victim runs at half speed: at t=10 task ("v",0) is still mid-
        # flight, so both later tasks are stealable (vs one in the
        # healthy case); with steal_fraction=0.5 the thief takes one
        assert executed_by[("v", 0)] == 0
        assert executed_by[("v", 1)] == 0
        assert executed_by[("v", 2)] == 1
        assert len(out.steals) == 1
        assert out.steals[0].ntasks == 1
        # the straggler's remaining work dominates the makespan
        assert out.makespan == pytest.approx(40.0)

    def test_boundary_exact_with_faults_attached_but_quiet(self):
        """A fault state with no active faults must not perturb the
        boundary arithmetic (same split as the fault-free run)."""
        executed_by = {}
        queues = [[("v", 0), ("v", 1), ("v", 2)], [("t", 0)]]
        out = run_work_stealing(
            queues,
            lambda t: 10.0,
            (1, 2),
            on_task=lambda p, t: executed_by.setdefault(t, p),
            faults=FaultPlan(seed=3).activate(2),
        )
        assert executed_by[("v", 2)] == 1
        assert executed_by[("v", 1)] == 0
        assert out.makespan == pytest.approx(20.0)


class TestCentralized:
    def test_all_tasks_executed_once(self):
        stats = CommStats(3, LONESTAR)
        seen = []
        out = run_centralized(
            np.full(50, 0.01), 3, stats, on_task=lambda p, t: seen.append(t)
        )
        assert sorted(seen) == list(range(50))
        assert out.executed_tasks.sum() == 50
        assert out.counter_accesses == 50 + 3  # one failed pull per process

    def test_single_process(self):
        stats = CommStats(1, LONESTAR)
        out = run_centralized(np.ones(10), 1, stats)
        assert out.executed_cost[0] == pytest.approx(10.0)

    def test_load_spread_roughly_even(self):
        stats = CommStats(4, LONESTAR)
        out = run_centralized(np.full(400, 0.001), 4, stats)
        assert out.executed_tasks.min() >= 80

    def test_comm_hook_called_per_task(self):
        stats = CommStats(2, LONESTAR)
        hits = []
        run_centralized(np.zeros(7), 2, stats, comm_of=lambda p, t: hits.append(t))
        assert sorted(hits) == list(range(7))

    def test_counter_serialization_dominates_tiny_tasks(self):
        """With zero-cost tasks, the makespan is the serialized counter."""
        stats = CommStats(8, LONESTAR)
        ntasks = 200
        out = run_centralized(np.zeros(ntasks), 8, stats)
        min_serial = ntasks * LONESTAR.queue_service
        assert out.makespan >= min_serial * 0.9

    def test_bad_inputs_rejected(self):
        stats = CommStats(2, LONESTAR)
        with pytest.raises(ValueError, match="negative"):
            run_centralized(np.array([1.0, -1.0]), 2, stats)
        with pytest.raises(ValueError, match="one entry per task"):
            run_centralized(np.ones(3), 2, stats, np.ones(2), np.ones(2, dtype=int))
        with pytest.raises(ValueError, match="together"):
            run_centralized(np.ones(3), 2, stats, comm_bytes=np.ones(3))


def _replay_centralized(stats, cost, comm_bytes, comm_calls, on_task=None):
    """The per-task ledger path the inlined scheduler must reproduce.

    Same pop order as :func:`run_centralized`, but every counter access
    goes through :meth:`SharedCounter.read_inc` and every charge through
    :class:`CommStats`, one call per task.
    """
    nproc = stats.nproc
    counter = SharedCounter(stats)
    executed = np.zeros(nproc, dtype=np.int64)
    heap = [(float(stats.clock[p]), p) for p in range(nproc)]
    heapq.heapify(heap)
    while heap:
        _, p = heapq.heappop(heap)
        tid = counter.read_inc(p)
        if tid >= len(cost):
            continue
        if comm_calls[tid]:
            stats.charge_comm(
                p, float(comm_bytes[tid]), ncalls=int(comm_calls[tid]),
                channel=CH_TASK_GET,
            )
        stats.charge_compute(p, float(cost[tid]))
        executed[p] += 1
        if on_task is not None:
            on_task(stats, p, tid)
        heapq.heappush(heap, (float(stats.clock[p]), p))
    return executed, counter.accesses


def _random_run(seed):
    """Seeded task arrays with zero-comm and zero-cost tasks, plus a
    pre-charged ledger whose clocks tie."""
    rng = np.random.default_rng(seed)
    nproc = int(rng.integers(1, 9))
    ntasks = int(rng.integers(0, 400))
    cost = rng.exponential(2e-5, ntasks) * (rng.random(ntasks) > 0.2)
    calls = rng.integers(1, 13, ntasks) * (rng.random(ntasks) > 0.3)
    nbytes = (rng.integers(0, 5000, ntasks) * 8.0) * (calls > 0)
    stats = CommStats(nproc, LONESTAR)
    level = rng.random(3) * 3e-5
    for p, k in enumerate(rng.integers(0, 4, nproc)):  # few levels: ties
        if k:
            stats.charge_comm(p, 64.0 * k, ncalls=int(k))
            stats.charge_compute(p, level[k - 1])
    return stats, cost, nbytes, calls


def _assert_same_ledger(a, b):
    for name in ("clock", "comm_time", "comp_time"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for name in ("calls", "bytes", "remote_calls", "remote_bytes"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _local_flush(stats, p, tid):
    """An on_task hook that charges the ledger itself."""
    stats.charge_comm(p, 8.0 * (tid % 3), remote=False, channel=CH_FOCK_ACC)


class TestCentralizedMatchesSharedCounter:
    """The inlined counter recurrence equals its one definition in
    :meth:`SharedCounter.read_inc`, bitwise."""

    @pytest.mark.parametrize("seed", range(25))
    def test_task_arrays(self, seed):
        stats, cost, nbytes, calls = _random_run(seed)
        ref, _, _, _ = _random_run(seed)
        out = run_centralized(cost, stats.nproc, stats, nbytes, calls)
        executed, accesses = _replay_centralized(ref, cost, nbytes, calls)
        _assert_same_ledger(stats, ref)
        assert out.finish_time.tobytes() == ref.clock.tobytes()
        assert np.array_equal(out.executed_tasks, executed)
        assert out.counter_accesses == accesses == len(cost) + stats.nproc
        stats.flight.check_against(stats)

    @pytest.mark.parametrize("seed", range(5))
    def test_hooks_see_the_current_clock(self, seed):
        stats, cost, nbytes, calls = _random_run(seed)
        ref, _, _, _ = _random_run(seed)

        def comm_of(p, tid):
            if calls[tid]:
                stats.charge_comm(
                    p, float(nbytes[tid]), ncalls=int(calls[tid]),
                    channel=CH_TASK_GET,
                )

        out = run_centralized(
            cost, stats.nproc, stats, comm_of=comm_of,
            on_task=lambda p, tid: _local_flush(stats, p, tid),
        )
        executed, _ = _replay_centralized(ref, cost, nbytes, calls, _local_flush)
        _assert_same_ledger(stats, ref)
        assert np.array_equal(out.executed_tasks, executed)
        stats.flight.check_against(stats)
