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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fock.centralized import CentralizedOutcome, run_centralized
from repro.fock.screening_map import ScreeningMap
from repro.fock.tasks import NWChemTask, atom_quartet_shell_quartets, nwchem_task_list
from repro.integrals.engine import ERIEngine
from repro.obs.flight import CH_FOCK_ACC, CH_TASK_GET
from repro.runtime.ga import GlobalArray, block_bounds
from repro.runtime.machine import LONESTAR, MachineConfig
from repro.runtime.network import CommStats
from repro.scf.fock import orbit_images


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
    slices = basis.shell_slices
    t_eri = config.t_int_nwchem  # one process per core

    def quartets_of(task: NWChemTask):
        for l_at in task.l_range():
            yield from atom_quartet_shell_quartets(
                screen, shells_of_atom, task.i_at, task.j_at, task.k_at, l_at
            )

    def cost_of(task: NWChemTask) -> float:
        n_eri = 0.0
        for (m, n, p, q) in quartets_of(task):
            n_eri += sizes[m] * sizes[n] * sizes[p] * sizes[q]
        return n_eri * t_eri + config.task_overhead

    def comm_of(proc: int, tid: int) -> None:
        # fetch the D atom blocks this task's quartets touch (6 pairs per
        # atom quartet: IJ, KL, IK, JL, IL, JK); Algorithm 2 line 14.
        task = tasks[tid]
        for l_at in task.l_range():
            i, jj, k = task.i_at, task.j_at, task.k_at
            for (a, b) in ((i, jj), (k, l_at), (i, k), (jj, l_at), (i, l_at), (jj, k)):
                (r0, r1), (c0, c1) = aranges[a], aranges[b]
                ga_d.get(proc, r0, r1, c0, c1, channel=CH_TASK_GET)

    # local accumulation buffer per process; flushed per task region
    jbuf = [np.zeros((nbf, nbf)) for _ in range(nproc)]
    kbuf = [np.zeros((nbf, nbf)) for _ in range(nproc)]

    def on_task(proc: int, tid: int) -> None:
        touched: set[tuple[int, int]] = set()
        for (m, n, p, q) in quartets_of(tasks[tid]):
            block = engine.quartet(m, n, p, q)
            for (a, b, c, d), blk in orbit_images((m, n, p, q), block):
                sa, sb, sc, sd = slices[a], slices[b], slices[c], slices[d]
                jbuf[proc][sa, sb] += np.einsum("abcd,cd->ab", blk, density[sc, sd])
                kbuf[proc][sa, sc] += np.einsum("abcd,bd->ac", blk, density[sb, sd])
                touched.add((a, b))
                touched.add((a, c))
        # accumulate the updated F blocks back (Algorithm 2 line 16);
        # aggregate per touched atom-pair block like NWChem's 6 updates
        atom_pairs = {
            (int(basis.atom_of_shell[a]), int(basis.atom_of_shell[b]))
            for (a, b) in touched
        }
        for (a_at, b_at) in atom_pairs:
            (r0, r1), (c0, c1) = aranges[a_at], aranges[b_at]
            g = 2.0 * jbuf[proc][r0:r1, c0:c1] - kbuf[proc][r0:r1, c0:c1]
            ga_g.acc(proc, r0, c0, g, channel=CH_FOCK_ACC)
            jbuf[proc][r0:r1, c0:c1] = 0.0
            kbuf[proc][r0:r1, c0:c1] = 0.0

    outcome = run_centralized(
        [cost_of(task) for task in tasks], nproc, stats,
        comm_of=comm_of, on_task=on_task,
    )
    fock = hcore + ga_g.to_numpy()
    return NWChemBuildResult(
        fock=fock, stats=stats, outcome=outcome, screen=screen, ntasks=len(tasks)
    )
