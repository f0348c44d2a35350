"""The paper's algorithm: distributed Fock build, numeric mode (Algorithm 4).

Runs the full GTFock pipeline on the simulated runtime with *real* data
movement, so the resulting Fock matrix can be compared bit-for-bit
against the sequential reference:

1. static 2-D partition of shell-pair tasks over the process grid;
2. per-process prefetch of the D footprint into a local buffer
   (reads outside the prefetched footprint raise -- prefetch-sufficiency
   is *checked*, not assumed);
3. task execution through the work-stealing scheduler: each task reads
   the D blocks its quartets need from the local buffer (thieves receive
   the victim's D buffer on steal) and *records* the quartets;
4. one class-batched ERI + J/K sweep over the quartets recorded by live
   ranks, each rank's against its own D buffer into its own J/K pair;
5. one final accumulate of each process's local contribution into the
   distributed result, then ``F = Hcore + 2J - K``.

Simulated time never depends on host compute, so splitting steps 3 and
4 leaves every clock, counter and flight channel as a per-quartet
contraction inside each task would.

Every phase is observable through :mod:`repro.obs`: the host build is a
nested wall-clock span tree (setup / prefetch / schedule / sweep /
flush, with one ``task(m,n)`` span per executed shell-pair task), while the
simulated ranks get virtual-clock spans -- ``prefetch`` and ``flush``
bracketed by the :class:`CommStats` clocks, plus the scheduler's own
per-task/steal events -- one Perfetto row per rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from repro.fock.simulate import SimCapture

from repro.fock.cost import TaskCosts, quartet_cost_matrix
from repro.fock.partition import StaticPartition
from repro.fock.prefetch import (
    block_footprint,
    footprint_bounding_boxes,
    footprint_element_mask,
)
from repro.fock.screening_map import ScreeningMap
from repro.fock.stealing import StealingOutcome, run_work_stealing
from repro.fock.tasks import enumerate_task_quartets
from repro.integrals.class_batch import EIGHT_PERMUTATIONS, jk_for_quartets
from repro.integrals.engine import ERIEngine
from repro.obs import Tracer, get_tracer
from repro.obs.flight import CH_FOCK_ACC, CH_PREFETCH_GET, CH_STEAL_F, CH_TASK_GET
from repro.runtime.faults import FaultPlan, FaultState
from repro.runtime.ga import GlobalArray
from repro.runtime.machine import LONESTAR, MachineConfig
from repro.runtime.network import CommStats

#: quartet index positions of the D blocks its orbit images read, in
#: first-read order: image ``(a,b,c,d)`` reads ``D[c,d]`` then ``D[b,d]``
_D_READS: tuple[tuple[int, int], ...] = tuple(dict.fromkeys(
    pos
    for perm in EIGHT_PERMUTATIONS
    for pos in ((perm[2], perm[3]), (perm[1], perm[3]))
))


class PrefetchMiss(RuntimeError):
    """A task read a D element its process never prefetched (a real bug)."""


@dataclass
class GTFockBuildResult:
    fock: np.ndarray
    stats: CommStats
    outcome: StealingOutcome
    partition: StaticPartition
    screen: ScreeningMap
    costs: TaskCosts
    #: activated fault state when the build ran under fault injection
    faults: FaultState | None = None
    #: shell quartets contracted by the sweep (executed by live ranks)
    quartets_computed: int = 0


class _ProcessBuffers:
    """Per-process local state: prefetched D and its fetched mask."""

    def __init__(self, nbf: int):
        self.d_local = np.zeros((nbf, nbf))
        self.have = np.zeros((nbf, nbf), dtype=bool)
        #: on-demand fetch of an unprefetched D block; only installed
        #: under fault injection, where adopting a dead rank's orphaned
        #: tasks legitimately needs D outside this rank's footprint
        self.fetch: Callable[[slice, slice], np.ndarray] | None = None

    def read_d(self, rows: slice, cols: slice) -> np.ndarray:
        """Read a D block, exploiting D's symmetry like the real GTFock.

        The prefetch regions store each needed block in at least one
        orientation; the transpose is served from the mirrored block.
        A miss in *both* orientations is a genuine coverage bug --
        unless a fault-recovery fetcher is installed, in which case the
        block is fetched on demand (and charged) instead.
        """
        if self.have[rows, cols].all():
            return self.d_local[rows, cols]
        if self.have[cols, rows].all():
            return self.d_local[cols, rows].T
        if self.fetch is not None:
            self.d_local[rows, cols] = self.fetch(rows, cols)
            self.have[rows, cols] = True
            return self.d_local[rows, cols]
        raise PrefetchMiss(
            f"D[{rows}, {cols}] was not prefetched by this process"
        )

    def merge_from(self, other: "_ProcessBuffers") -> None:
        """Copy a steal victim's D coverage into this process."""
        new = other.have & ~self.have
        self.d_local[new] = other.d_local[new]
        self.have |= other.have


def gtfock_build(
    engine: ERIEngine,
    hcore: np.ndarray,
    density: np.ndarray,
    nproc: int,
    tau: float = 1e-11,
    config: MachineConfig = LONESTAR,
    enable_stealing: bool = True,
    screen: ScreeningMap | None = None,
    tracer: Tracer | None = None,
    faults: FaultPlan | FaultState | None = None,
    capture: "SimCapture | None" = None,
) -> GTFockBuildResult:
    """Numeric GTFock Fock-matrix construction on ``nproc`` simulated processes.

    The ``engine.basis`` ordering is used as-is; apply
    :func:`repro.fock.reorder.reorder_basis` beforehand (and pass matching
    ``hcore``/``density``) to include the Sec III-D reordering.

    ``faults`` runs the build under fault injection (stragglers, lossy
    one-sided ops with retry, rank deaths).  The build is engineered to
    produce the *same* Fock matrix regardless: retried accumulates are
    tag-deduplicated, a dead rank's partial flush epoch is aborted, and
    its orphaned tasks are re-executed by survivors (reading D on demand
    where their prefetch footprint falls short).  Only the virtual-time
    accounting, retry channel, and recovery records differ.

    ``capture`` is an optional
    :class:`~repro.fock.simulate.SimCapture` that the build fills with
    the raw per-rank accounting for the critical-path analyzer
    (:func:`repro.obs.critpath.analyze`).
    """
    if tracer is None:
        tracer = get_tracer()
    basis = engine.basis
    nbf = basis.nbf
    if hcore.shape != (nbf, nbf) or density.shape != (nbf, nbf):
        raise ValueError("hcore/density shape does not match the basis")
    if screen is not None and screen.tau != tau:
        raise ValueError(f"screen.tau = {screen.tau} but tau = {tau}")
    if isinstance(faults, FaultPlan):
        fstate: FaultState | None = faults.activate(nproc)
    else:
        fstate = faults
    if fstate is not None and fstate.nproc != nproc:
        raise ValueError(f"fault state is for {fstate.nproc} ranks, build has {nproc}")
    with tracer.span("gtfock_build", cat="fock", nproc=nproc, nbf=nbf) as top:
        with tracer.span("setup", cat="fock"):
            if screen is None:
                screen = ScreeningMap(basis, engine.schwarz(), tau)
            part = StaticPartition.build(basis.nshells, nproc)
            rb, cb = part.matrix_bounds(basis)
            stats = CommStats(nproc, config, faults=fstate)
            ga_d = GlobalArray(stats, nbf, nbf, rb, cb)
            ga_d.load(density)
            ga_g = GlobalArray(stats, nbf, nbf, rb, cb)
            costs = quartet_cost_matrix(screen)
            offsets = basis.offsets
            bufs = [_ProcessBuffers(nbf) for _ in range(nproc)]
            slices = basis.shell_slices
            if fstate is not None:
                for p in range(nproc):
                    def fetch(rows, cols, p=p):
                        return ga_d.get(
                            p, rows.start, rows.stop, cols.start, cols.stop,
                            channel=CH_TASK_GET,
                        )
                    bufs[p].fetch = fetch

        # -- prefetch phase (Algorithm 4, line 3) ----------------------------
        own_masks: list[np.ndarray] = []
        prefetch_time = np.zeros(nproc)
        with tracer.span("prefetch", cat="fock"):
            for p in range(nproc):
                clock0 = float(stats.clock[p])
                fp = block_footprint(screen, part.task_block(p))
                own_masks.append(footprint_element_mask(fp, basis))
                boxes = footprint_bounding_boxes(fp)
                for r0, r1, c0, c1 in boxes:
                    fr0, fr1 = int(offsets[r0]), int(offsets[r1])
                    fc0, fc1 = int(offsets[c0]), int(offsets[c1])
                    bufs[p].d_local[fr0:fr1, fc0:fc1] = ga_d.get(
                        p, fr0, fr1, fc0, fc1, channel=CH_PREFETCH_GET
                    )
                    bufs[p].have[fr0:fr1, fc0:fc1] = True
                prefetch_time[p] = float(stats.clock[p]) - clock0
                tracer.virtual_span(
                    "prefetch", p, clock0, float(stats.clock[p]), cat="comm",
                    boxes=len(boxes), elements=int(fp.elements),
                )

        # -- task execution through the work-stealing scheduler --------------
        t_task = config.t_int_gtfock / config.cores_per_node

        def cost_of(task: tuple[int, int]) -> float:
            m, n = task
            return float(costs.eris[m, n]) * t_task + config.task_overhead

        # the (M, P, N, Q) quartets each rank executed, one array per task
        recorded: list[list[np.ndarray]] = [[] for _ in range(nproc)]

        def on_task(proc: int, task: tuple[int, int]) -> None:
            m, n = task
            with tracer.span(f"task({m},{n})", cat="task", proc=proc) as sp:
                buf = bufs[proc]
                task_quartets = list(enumerate_task_quartets(screen, m, n))
                # touch each D block once, in the order a per-quartet
                # contraction would first read it: under fault injection
                # a miss is fetched (and charged) right here
                seen: set[tuple[int, int]] = set()
                for quartet in task_quartets:
                    for i, j in _D_READS:
                        blk = (quartet[i], quartet[j])
                        if blk not in seen:
                            seen.add(blk)
                            buf.read_d(slices[blk[0]], slices[blk[1]])
                recorded[proc].append(np.array(task_quartets, dtype=np.int64).reshape(-1, 4))
                sp["quartets"] = len(task_quartets)

        def on_steal(thief: int, victim: int) -> None:
            bufs[thief].merge_from(bufs[victim])

        seen_victims: set[tuple[int, int]] = set()

        def steal_cost(thief: int, victim: int) -> float:
            # copy the victim's D buffer (Sec III-F), once per new victim
            if (thief, victim) in seen_victims:
                return 0.0
            seen_victims.add((thief, victim))
            nbytes = int(bufs[victim].have.sum()) * config.element_size
            return stats.charge_steal(thief, nbytes, ncalls=1)

        event_observer = None
        if capture is not None:
            event_observer = lambda action, time, key: capture.events.append(
                (action, time, key)
            )

        with tracer.span("schedule", cat="fock"):
            queues = [part.task_block(p).tasks() for p in range(nproc)]
            outcome = run_work_stealing(
                queues,
                cost_of,
                (part.prow, part.pcol),
                stats=stats,
                steal_cost=steal_cost,
                on_task=on_task,
                on_steal=on_steal,
                enable_stealing=enable_stealing,
                tracer=tracer,
                faults=fstate,
                rng=fstate.rng if fstate is not None else None,
                event_observer=event_observer,
            )

        # -- one class-batched ERI + J/K sweep over the recorded quartets -----
        dead = set(outcome.dead_ranks)
        with tracer.span("sweep", cat="fock") as sw:
            # a dead rank's results died with it; survivors re-executed
            # (and recorded) its tasks
            live = [p for p in range(nproc) if p not in dead]
            counts = [sum(map(len, recorded[p])) for p in live]
            quartets = np.vstack(
                [np.empty((0, 4), np.int64)] + [a for p in live for a in recorded[p]]
            )
            recorded.clear()  # drop the per-task copies before the sweep's peak
            # each rank reads D only where it prefetched, fetched or
            # inherited it, in either orientation (D is symmetric)
            d_stack = np.stack([
                np.where(b.have, b.d_local, b.d_local.T) for b in bufs
            ])
            j, k = jk_for_quartets(
                engine, d_stack, quartets, nslots=nproc,
                slots=np.repeat(live, counts),
            )
            sw["quartets"] = len(quartets)

        # -- final flush (Algorithm 4, line 9) --------------------------------
        flush_time = np.zeros(nproc)
        with tracer.span("flush", cat="fock"):

            def acc_bbox(p: int, g: np.ndarray, channel: str) -> None:
                nz = np.nonzero(g)
                if nz[0].size == 0:
                    return
                r0, r1 = int(nz[0].min()), int(nz[0].max()) + 1
                c0, c1 = int(nz[1].min()), int(nz[1].max()) + 1
                epoch = ("flush", p) if fstate is not None else None
                tag = ("flush", p, channel) if fstate is not None else None
                ga_g.acc(
                    p, r0, c0, g[r0:r1, c0:c1], channel=channel,
                    tag=tag, epoch=epoch,
                )

            for p in range(nproc):
                if p in dead:
                    # the rank's J/K buffers died with it; its work was
                    # re-executed (and will be flushed) by survivors
                    continue
                clock0 = float(stats.clock[p])
                g = 2.0 * j[p] - k[p]
                if not g.any():
                    continue
                # attribute the flush: contributions inside this process's
                # own static-partition footprint are the ordinary F
                # accumulate; anything outside can only come from stolen
                # tasks and goes out on its own channel (non-thieves emit
                # exactly the single acc they always did)
                own = own_masks[p]
                if fstate is not None:
                    ga_g.begin_epoch(("flush", p))
                acc_bbox(p, np.where(own, g, 0.0), CH_FOCK_ACC)
                acc_bbox(p, np.where(own, 0.0, g), CH_STEAL_F)
                if fstate is not None:
                    ga_g.commit_epoch(("flush", p))
                flush_time[p] = float(stats.clock[p]) - clock0
                tracer.virtual_span(
                    "flush", p, clock0, float(stats.clock[p]), cat="comm"
                )
            fock = hcore + ga_g.to_numpy()
        top["steals"] = len(outcome.steals)
        top["quartets"] = len(quartets)
        if fstate is not None:
            top["dead_ranks"] = len(outcome.dead_ranks)
            top["reexecuted"] = outcome.reexecuted_tasks

    if capture is not None:
        capture.algorithm = "gtfock"
        capture.molecule = basis.molecule.name or basis.molecule.formula
        capture.cores = nproc * config.cores_per_node
        capture.nproc = nproc
        capture.config = config
        capture.stats = stats
        capture.outcome = outcome
        capture.finish = stats.clock.copy()
        capture.prefetch_time = prefetch_time
        capture.flush_time = flush_time
        capture.tracer = tracer
        # no resimulate closure: re-running the numeric build recomputes
        # real ERIs -- the analyzer's what-ifs stay projection-only here

    return GTFockBuildResult(
        fock=fock,
        stats=stats,
        outcome=outcome,
        partition=part,
        screen=screen,
        costs=costs,
        faults=fstate,
        quartets_computed=len(quartets),
    )
