"""Task definitions for both Fock-build decompositions.

* **GTFock tasks** (Sec III-B): one task per shell pair ``(M,:|N,:)``,
  computing the parity-unique, screened quartets ``(MP|NQ)``.
  :func:`enumerate_task_quartets` is the numeric-mode equivalent of the
  paper's Algorithm 3 (dotask).
* **NWChem tasks** (Sec II-F, Algorithm 2): chunks of 5 atom quartets
  from a fixed global enumeration over unique atom triplets, dispensed by
  a centralized counter.  :func:`nwchem_task_list` materializes that
  enumeration; :func:`atom_quartet_shell_quartets` expands one atom
  quartet into the unique shell quartets it is responsible for.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.fock.screening_map import ScreeningMap
from repro.fock.symmetry import symmetry_check, task_computes


# ---------------------------------------------------------------------------
# GTFock shell-pair tasks
# ---------------------------------------------------------------------------


def enumerate_task_quartets(
    screen: ScreeningMap, m: int, n: int
) -> Iterator[tuple[int, int, int, int]]:
    """Quartets ``(M, P, N, Q)`` computed by task ``(M,:|N,:)`` -- Algorithm 3.

    Iterates P over Phi(M) and Q over Phi(N) (anything outside the
    significant sets cannot pass the product test), applying the parity
    uniqueness predicate and Cauchy-Schwarz screening.

    Yields quartets as ``(M, P, N, Q)``: bra pair (M, P), ket pair (N, Q);
    the ERI block to compute is ``(MP|NQ)``.
    """
    if not symmetry_check(m, n):
        return
    sigma = screen.sigma
    tau = screen.tau
    for p in screen.phi[m]:
        smp = sigma[m, p]
        if smp * screen.sigma_max <= tau:
            continue
        for q in screen.phi[n]:
            if smp * sigma[n, q] > tau and task_computes(m, n, int(p), int(q)):
                yield (m, int(p), n, int(q))


# ---------------------------------------------------------------------------
# NWChem atom-quartet tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NWChemTask:
    """One NWChem task: up to 5 consecutive atom quartets (I,J,K, L-range)."""

    i_at: int
    j_at: int
    k_at: int
    l_lo: int
    l_hi: int  # inclusive, as in Algorithm 2

    def l_range(self) -> range:
        return range(self.l_lo, self.l_hi + 1)


def atom_sigma(screen: ScreeningMap) -> np.ndarray:
    """Atom-pair screening values: max over the atoms' shell pairs."""
    basis = screen.basis
    natoms = basis.molecule.natoms
    atom_of = basis.atom_of_shell
    out = np.zeros((natoms, natoms))
    sig = screen.sigma
    # reduce shell-pair sigma to atom blocks
    order = np.argsort(atom_of, kind="stable")
    sorted_atoms = atom_of[order]
    starts = np.searchsorted(sorted_atoms, np.arange(natoms))
    bounds = np.append(starts, len(order))
    groups = [order[bounds[a] : bounds[a + 1]] for a in range(natoms)]
    for a in range(natoms):
        rows = sig[groups[a]]
        for b in range(a + 1):
            v = float(rows[:, groups[b]].max()) if groups[b].size else 0.0
            out[a, b] = out[b, a] = v
    return out


def nwchem_task_list(
    screen: ScreeningMap, chunk: int = 5
) -> list[NWChemTask]:
    """The global ordered task list of Algorithm 2.

    Tasks enumerate unique triplets (I >= J, K <= I) with significant
    (I, J), chunking the innermost L loop in strides of ``chunk``
    (NWChem's "5 atom quartets per task").  The list order *is* the
    dispatch order of the centralized scheduler.
    """
    sig_at = atom_sigma(screen)
    tau_sig = screen.tau / max(float(sig_at.max()), 1e-300)
    natoms = sig_at.shape[0]
    tasks: list[NWChemTask] = []
    for i_at in range(natoms):
        for j_at in range(i_at + 1):
            if sig_at[i_at, j_at] < tau_sig:
                continue
            for k_at in range(i_at + 1):
                l_hi = j_at if k_at == i_at else k_at
                for l_lo in range(0, l_hi + 1, chunk):
                    tasks.append(
                        NWChemTask(
                            i_at, j_at, k_at, l_lo, min(l_lo + chunk - 1, l_hi)
                        )
                    )
    return tasks


def atom_quartet_shell_quartets(
    screen: ScreeningMap,
    shells_of_atom: list[list[int]],
    i_at: int,
    j_at: int,
    k_at: int,
    l_at: int,
) -> Iterator[tuple[int, int, int, int]]:
    """Unique screened shell quartets owned by atom quartet (IJ|KL).

    The enumerated atom quartets (from :func:`nwchem_task_list`'s loop
    structure) visit exactly one instance of every atom-level
    permutational orbit.  A shell quartet instance (MN|PQ) with M in I,
    N in J, P in K, Q in L is owned by this atom quartet iff it is the
    lexicographically smallest instance of its *shell* orbit among those
    whose atom tuple equals (I, J, K, L) position-wise.  Every shell
    orbit has at least one instance over the enumerated atom
    representative, so the union over atom quartets covers each shell
    orbit exactly once (property-tested against the canonical
    enumeration).

    Yields ``(M, N, P, Q)`` meaning the ERI block (MN|PQ): bra (M, N),
    ket (P, Q).
    """
    from repro.fock.symmetry import orbit_tuples

    sigma = screen.sigma
    tau = screen.tau
    atom_of = screen.basis.atom_of_shell
    target = (i_at, j_at, k_at, l_at)
    for m in shells_of_atom[i_at]:
        for n in shells_of_atom[j_at]:
            smn = sigma[m, n]
            if smn * screen.sigma_max <= tau:
                continue
            for p in shells_of_atom[k_at]:
                for q in shells_of_atom[l_at]:
                    if smn * sigma[p, q] <= tau:
                        continue
                    instances = [
                        t
                        for t in orbit_tuples(m, n, p, q)
                        if (
                            atom_of[t[0]],
                            atom_of[t[1]],
                            atom_of[t[2]],
                            atom_of[t[3]],
                        )
                        == target
                    ]
                    if (m, n, p, q) == min(instances):
                        yield (m, n, p, q)
