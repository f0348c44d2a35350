"""Centralized dynamic scheduler simulation (NWChem's model, Sec II-F).

All processes pull task ids from one shared atomic counter
(``NGA_Read_inc``).  Every access serializes at the counter's owner, so
with large p the scheduler itself becomes a bottleneck -- one of the
three overhead sources the paper identifies (Sec IV-C: 112k counter
accesses for C100H202 at 3888 cores).

The process with the smallest virtual clock pulls next, and the counter
hands out ids in order, so the loop walks per-task arrays front to back.
Millions of tasks make this the simulator's hottest loop, so it keeps
every clock and counter as plain per-rank Python state: each counter
access applies the FIFO queueing recurrence of
:meth:`repro.runtime.ga.SharedCounter.read_inc` inline (the scheduler
tests replay runs through that method and require bitwise-equal clocks),
and :class:`CommStats` and its flight recorder are charged once per rank
at the end -- per-rank ``counter`` / ``task_get`` channel totals instead
of one ring event per access.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.obs.flight import CH_COUNTER, CH_TASK_GET
from repro.runtime.network import CommStats


@dataclass
class CentralizedOutcome:
    finish_time: np.ndarray
    executed_cost: np.ndarray
    executed_tasks: np.ndarray
    counter_accesses: int

    @property
    def makespan(self) -> float:
        return float(self.finish_time.max())

    def load_balance_ratio(self) -> float:
        avg = float(self.finish_time.mean())
        return float(self.finish_time.max()) / avg if avg > 0 else 1.0


def run_centralized(
    cost,
    nproc: int,
    stats: CommStats,
    comm_bytes=None,
    comm_calls=None,
    comm_of: Callable[[int, int], None] | None = None,
    on_task: Callable[[int, int], None] | None = None,
) -> CentralizedOutcome:
    """Execute a dispatch-ordered task list through a centralized counter.

    Parameters
    ----------
    cost:
        Per-task compute seconds, indexed by task id in dispatch order
        (Algorithm 2's id space).
    nproc:
        Number of pulling processes.
    stats:
        Accounting; clocks may be pre-charged and are advanced in place.
    comm_bytes, comm_calls:
        Optional per-task communication volume and one-sided call count
        (NWChem's per-task D fetches and F updates), charged on the
        ``task_get`` channel at ``stats.config.transfer_time``.  Tasks
        with zero calls move nothing.
    comm_of:
        Per-task communication hook: ``comm_of(proc, task_id)`` charges
        the task's D fetches / F updates to ``stats`` itself (numeric
        mode: it also moves the data).
    on_task:
        Numeric-mode execution hook ``on_task(proc, task_id)``, called
        once the task's compute time is charged.
    """
    cost = np.ascontiguousarray(cost, dtype=float)
    ntasks = cost.size
    if ntasks and cost.min() < 0:
        raise ValueError("negative compute time")
    if (comm_bytes is None) != (comm_calls is None):
        raise ValueError("comm_bytes and comm_calls go together")
    if comm_calls is None:
        comm_calls = np.zeros(ntasks, dtype=np.int64)
        comm_bytes = np.zeros(ntasks)
    calls = np.ascontiguousarray(comm_calls, dtype=np.int64)
    nbytes = np.ascontiguousarray(comm_bytes, dtype=float)
    if calls.shape != cost.shape or nbytes.shape != cost.shape:
        raise ValueError("communication arrays must have one entry per task")
    cfg = stats.config
    latency, service = cfg.latency, cfg.queue_service
    # per-task buffers: indexing a memoryview yields plain Python numbers
    task_cost = cost.data
    task_xfer = cfg.transfer_time(nbytes, calls).data
    task_calls = calls.data
    task_bytes = nbytes.astype(np.int64).data

    clock = stats.clock[:nproc].tolist()
    comm_time = stats.comm_time[:nproc].tolist()
    comp_time = stats.comp_time[:nproc].tolist()
    counter_time = [0.0] * nproc
    get_time = [0.0] * nproc
    get_calls = [0] * nproc
    get_bytes = [0] * nproc
    executed_cost = [0.0] * nproc
    executed = [0] * nproc

    def run_hook(hook, p: int, tid: int, clk: float) -> float:
        # hooks charge ``stats`` directly: lend them the rank's state
        stats.clock[p] = clk
        stats.comm_time[p] = comm_time[p]
        stats.comp_time[p] = comp_time[p]
        hook(p, tid)
        comm_time[p] = float(stats.comm_time[p])
        comp_time[p] = float(stats.comp_time[p])
        return float(stats.clock[p])

    # process with smallest clock pulls next; heap of (clock, proc)
    heap = [(clock[p], p) for p in range(nproc)]
    heapq.heapify(heap)
    server_free = 0.0  # when the counter's owner is next free
    tid = 0
    while heap:
        clk, p = heap[0]
        # NGA_Read_inc: round trip plus queueing behind earlier arrivals
        arrival = clk + latency
        start = arrival if arrival > server_free else server_free
        server_free = start + service
        finish = server_free + latency
        dt = finish - clk
        clk += dt
        comm_time[p] += dt
        counter_time[p] += dt
        if tid == ntasks:
            heapq.heappop(heap)  # this process is done; do not re-push
            clock[p] = clk
            continue
        n = task_calls[tid]
        if n:
            xfer = task_xfer[tid]
            clk += xfer
            comm_time[p] += xfer
            get_time[p] += xfer
            get_calls[p] += n
            get_bytes[p] += task_bytes[tid]
        if comm_of is not None:
            clk = run_hook(comm_of, p, tid, clk)
        c = task_cost[tid]
        clk += c
        comp_time[p] += c
        executed_cost[p] += c
        executed[p] += 1
        if on_task is not None:
            clk = run_hook(on_task, p, tid, clk)
        tid += 1
        heapq.heapreplace(heap, (clk, p))

    # charge the ledger once per rank: one counter access per pull,
    # including each process's final failed pull
    pulls = np.array(executed, dtype=np.int64) + 1
    ga_calls = pulls + np.array(get_calls, dtype=np.int64)
    stats.clock[:nproc] = clock
    stats.comm_time[:nproc] = comm_time
    stats.comp_time[:nproc] = comp_time
    stats.calls[:nproc] += ga_calls
    stats.remote_calls[:nproc] += ga_calls
    stats.bytes[:nproc] += get_bytes
    stats.remote_bytes[:nproc] += get_bytes
    for p in range(nproc):
        stats.flight.record(p, CH_COUNTER, 0, int(pulls[p]), counter_time[p], t=clock[p])
        if get_calls[p]:
            stats.flight.record(
                p, CH_TASK_GET, get_bytes[p], get_calls[p], get_time[p], t=clock[p]
            )

    return CentralizedOutcome(
        finish_time=np.array(clock),
        executed_cost=np.array(executed_cost),
        executed_tasks=pulls - 1,
        counter_accesses=int(pulls.sum()),
    )
