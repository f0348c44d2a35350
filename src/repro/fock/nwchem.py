"""NWChem's Fock-build algorithm, numeric mode (Sec II-F, Algorithm 2).

The baseline the paper compares against:

* F and D distributed in **block-row** fashion by atoms over all
  processes;
* tasks of **5 atom quartets** dispensed by a **centralized** dynamic
  scheduler (one shared atomic counter, one ``GetTask`` per task);
* per task: fetch the 6 atom blocks of D it needs, compute its unique
  screened shell quartets, accumulate the 6 atom blocks of F.

No prefetching is possible because task placement is unknown a priori
(the paper's second criticism), so every task pays its own communication.

A task's contribution does not depend on which process runs it, so the
host computes the tasks' J/K in class-batched ERI + J/K sweeps, one
output slot per task, over windows of consecutive task ids (one sweep
per build unless the stacked J/K would outgrow ``_SWEEP_BYTES``);
``on_task`` accumulates the task's atom-pair blocks of ``2J - K``.
Simulated time never depends on host compute, so the clocks and
counters are those of a per-quartet contraction inside each task.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fock.centralized import CentralizedOutcome, run_centralized
from repro.fock.screening_map import ScreeningMap
from repro.fock.tasks import atom_quartet_shell_quartets, nwchem_task_list
from repro.integrals.class_batch import EIGHT_PERMUTATIONS, jk_for_quartets
from repro.integrals.engine import ERIEngine
from repro.obs.flight import CH_FOCK_ACC, CH_TASK_GET
from repro.runtime.ga import GlobalArray, block_bounds
from repro.runtime.machine import LONESTAR, MachineConfig
from repro.runtime.network import CommStats

#: quartet index positions of the F blocks its orbit images update, in
#: first-update order: image ``(a,b,c,d)`` updates ``J[a,b]`` then ``K[a,c]``
_F_WRITES: tuple[tuple[int, int], ...] = tuple(dict.fromkeys(
    pos
    for perm in EIGHT_PERMUTATIONS
    for pos in ((perm[0], perm[1]), (perm[0], perm[2]))
))

#: host-memory budget of one sweep's stacked per-task J and K
_SWEEP_BYTES = 32 << 20


@dataclass
class NWChemBuildResult:
    fock: np.ndarray
    stats: CommStats
    outcome: CentralizedOutcome
    screen: ScreeningMap
    ntasks: int


def atom_function_ranges(basis) -> list[tuple[int, int]]:
    """Function-index range [lo, hi) per atom (atom-ordered bases only)."""
    atom_of = basis.atom_of_shell
    if np.any(np.diff(atom_of) < 0):
        raise ValueError(
            "NWChem's block-row-by-atom distribution requires the "
            "atom-ordered (unpermuted) basis"
        )
    natoms = basis.molecule.natoms
    offs = basis.offsets
    ranges: list[tuple[int, int]] = []
    for a in range(natoms):
        sh = np.flatnonzero(atom_of == a)
        if sh.size == 0:
            raise ValueError(f"atom {a} has no shells")
        ranges.append((int(offs[sh[0]]), int(offs[sh[-1] + 1])))
    return ranges


def nwchem_build(
    engine: ERIEngine,
    hcore: np.ndarray,
    density: np.ndarray,
    nproc: int,
    tau: float = 1e-11,
    config: MachineConfig = LONESTAR,
    screen: ScreeningMap | None = None,
    chunk: int = 5,
) -> NWChemBuildResult:
    """Numeric NWChem-style Fock construction on ``nproc`` processes."""
    basis = engine.basis
    nbf = basis.nbf
    if hcore.shape != (nbf, nbf) or density.shape != (nbf, nbf):
        raise ValueError("hcore/density shape does not match the basis")
    if screen is None:
        screen = ScreeningMap(basis, engine.schwarz(), tau)
    elif screen.tau != tau:
        raise ValueError(f"screen.tau = {screen.tau} but tau = {tau}")
    if nproc > nbf:
        raise ValueError(f"cannot block-row distribute {nbf} rows over {nproc} procs")

    stats = CommStats(nproc, config)
    # block-row distribution: rows cut evenly, columns undivided
    rb = block_bounds(nbf, nproc)
    cb = np.array([0, nbf])
    ga_d = GlobalArray(stats, nbf, nbf, rb, cb)
    ga_d.load(density)
    ga_g = GlobalArray(stats, nbf, nbf, rb, cb)

    tasks = nwchem_task_list(screen, chunk=chunk)
    shells_of_atom = basis.atom_shell_lists()
    aranges = atom_function_ranges(basis)
    sizes = basis.shell_sizes().astype(float)
    atom_of = basis.atom_of_shell
    t_eri = config.t_int_nwchem  # one process per core

    # per task, enumerating its shell quartets once: the cost, the
    # atom-pair F blocks it updates, and the quartets as an array
    costs: list[float] = []
    task_pairs: list[list[tuple[int, int]]] = []
    task_quartets: list[np.ndarray] = []
    for task in tasks:
        quartets = [
            quartet
            for l_at in task.l_range()
            for quartet in atom_quartet_shell_quartets(
                screen, shells_of_atom, task.i_at, task.j_at, task.k_at, l_at
            )
        ]
        n_eri = 0.0
        touched: set[tuple[int, int]] = set()
        for quartet in quartets:
            m, n, p, q = quartet
            n_eri += sizes[m] * sizes[n] * sizes[p] * sizes[q]
            for i, j in _F_WRITES:
                touched.add((quartet[i], quartet[j]))
        costs.append(n_eri * t_eri + config.task_overhead)
        # the set is built in a per-quartet contraction's insertion order,
        # so it iterates -- and the accumulates charge clocks -- alike
        task_pairs.append(list({(int(atom_of[a]), int(atom_of[b])) for (a, b) in touched}))
        task_quartets.append(np.array(quartets, dtype=np.int64).reshape(-1, 4))

    def comm_of(proc: int, tid: int) -> None:
        # fetch the D atom blocks this task's quartets touch (6 pairs per
        # atom quartet: IJ, KL, IK, JL, IL, JK); Algorithm 2 line 14.
        task = tasks[tid]
        for l_at in task.l_range():
            i, jj, k = task.i_at, task.j_at, task.k_at
            for (a, b) in ((i, jj), (k, l_at), (i, k), (jj, l_at), (i, l_at), (jj, k)):
                (r0, r1), (c0, c1) = aranges[a], aranges[b]
                ga_d.get(proc, r0, r1, c0, c1, channel=CH_TASK_GET)

    # the tasks' contributions 2J - K, swept one window of consecutive
    # task ids at a time (one output slot per task) so the stacked J/K
    # stays within _SWEEP_BYTES; the counter hands ids out in order, so
    # each window is swept once
    counts = [len(q) for q in task_quartets]
    first = np.concatenate([[0], np.cumsum(counts)])
    quartets = np.vstack([np.empty((0, 4), np.int64), *task_quartets])
    del task_quartets
    width = max(1, _SWEEP_BYTES // (16 * nbf * nbf))
    lo = hi = 0
    g_win = None

    def on_task(proc: int, tid: int) -> None:
        nonlocal lo, hi, g_win
        if not lo <= tid < hi:
            g_win = None  # drop the previous window before the next peak
            lo, hi = tid, min(tid + width, len(tasks))
            g_win, k = jk_for_quartets(
                engine, density, quartets[first[lo]:first[hi]],
                slots=np.repeat(np.arange(hi - lo), counts[lo:hi]), nslots=hi - lo,
            )
            g_win *= 2.0
            g_win -= k
        # accumulate the updated F blocks back (Algorithm 2 line 16);
        # aggregate per touched atom-pair block like NWChem's 6 updates
        g = g_win[tid - lo]
        for (a_at, b_at) in task_pairs[tid]:
            (r0, r1), (c0, c1) = aranges[a_at], aranges[b_at]
            ga_g.acc(proc, r0, c0, g[r0:r1, c0:c1], channel=CH_FOCK_ACC)

    outcome = run_centralized(
        costs, nproc, stats, comm_of=comm_of, on_task=on_task,
    )
    fock = hcore + ga_g.to_numpy()
    return NWChemBuildResult(
        fock=fock, stats=stats, outcome=outcome, screen=screen, ntasks=len(tasks)
    )
