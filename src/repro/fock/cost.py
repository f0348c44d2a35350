"""Per-task work estimation: the task cost matrix (Sec III-B/III-G).

``quartet_cost_matrix`` computes, for every shell-pair task ``(M, N)``,

* the number of shell quartets the task actually computes
  (parity-unique + Cauchy-Schwarz screened), and
* the number of ERIs those quartets contain (what ``t_int`` multiplies).

This is the quantity the timing-level simulation charges per task, and
summing it gives the exact total work both algorithms share.

The computation is fully vectorized: for each task row M, the surviving
(P, Q) count factorizes as  ``#{(P,Q) : sigma(M,P) * sigma(N,Q) > tau}``
with P restricted to M's parity-allowed set and Q to N's.  Sorting M's
values once and binary-searching all of row N's thresholds gives
O(nshells^2 * B) total work in NumPy primitives instead of the O(n^2 B^2)
quartet loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fock.screening_map import ScreeningMap


@dataclass
class TaskCosts:
    """Cost matrices over the task grid."""

    #: surviving shell quartets per task, shape (nshells, nshells)
    quartets: np.ndarray
    #: ERIs per task (quartets weighted by their function counts)
    eris: np.ndarray

    @property
    def total_quartets(self) -> float:
        return float(self.quartets.sum())

    @property
    def total_eris(self) -> float:
        return float(self.eris.sum())

    def block_sum(self, rows: np.ndarray, cols: np.ndarray) -> float:
        """Total ERIs of a rectangular task block."""
        return float(self.eris[np.ix_(rows, cols)].sum())


def parity_allowed(m: int, nshells: int) -> np.ndarray:
    """Boolean mask over P of SymmetryCheck(m, P) (see fock.symmetry)."""
    p = np.arange(nshells)
    mask = np.empty(nshells, dtype=bool)
    below = p < m
    above = p > m
    mask[below] = (m + p[below]) % 2 == 0
    mask[above] = (m + p[above]) % 2 == 1
    mask[m] = True
    return mask


def quartet_cost_matrix(screen: ScreeningMap, exact_diagonal: bool = False) -> TaskCosts:
    """Cost matrices for every task under parity uniqueness + screening.

    Diagonal tasks (M == N) carry the extra ``P <= Q`` tie-break; they are
    approximated as half the unrestricted count unless
    ``exact_diagonal=True`` (direct enumeration; only worth it for small
    systems and tests).  There are only nshells of them among nshells^2
    tasks, so the approximation is irrelevant for timing.
    """
    ns = screen.nshells
    sigma = screen.sigma
    tau = screen.tau
    sizes = screen.basis.shell_sizes().astype(float)
    sig = screen.significant

    # Per row M: significant, parity-allowed partners and their values.
    vals: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for m in range(ns):
        mask = parity_allowed(m, ns) & sig[m] & (sigma[m] > 1e-300)
        v = sigma[m, mask]
        order = np.argsort(v)[::-1]
        v = v[order]
        w = (sizes[m] * sizes[mask][order])
        vals.append(v)
        weights.append(w)

    # Flat concatenation of every row's (value, weight) lists for the
    # ket side, with segment boundaries for per-row reduction.
    seg_len = np.array([v.size for v in vals], dtype=np.int64)
    seg_start = np.concatenate([[0], np.cumsum(seg_len)])
    flat_vals = np.concatenate(vals) if ns else np.empty(0)
    flat_w = np.concatenate(weights) if ns else np.empty(0)
    # reduceat only over non-empty segments (empty rows contribute zero)
    nonempty_rows = np.flatnonzero(seg_len > 0)
    nonempty_starts = seg_start[:-1][nonempty_rows]

    quartets = np.zeros((ns, ns))
    eris = np.zeros((ns, ns))
    with np.errstate(divide="ignore"):
        flat_thresh = tau / flat_vals  # threshold on the bra value
    for m in range(ns):
        v = vals[m]
        if v.size == 0:
            continue
        w = weights[m]
        prefix_cnt = np.arange(1, v.size + 1, dtype=float)
        prefix_w = np.cumsum(w)
        # v is sorted descending: count of v > t  ==  searchsorted(-v, -t, 'left')
        k = np.searchsorted(-v, -flat_thresh, side="left")
        cnt_contrib = np.where(k > 0, prefix_cnt[np.maximum(k - 1, 0)], 0.0)
        w_contrib = np.where(k > 0, prefix_w[np.maximum(k - 1, 0)], 0.0)
        if flat_vals.size and nonempty_rows.size:
            quartets[m, nonempty_rows] = np.add.reduceat(
                cnt_contrib, nonempty_starts
            )
            eris[m, nonempty_rows] = np.add.reduceat(
                w_contrib * flat_w, nonempty_starts
            )

    # task-level gate: tasks failing SymmetryCheck(M, N) compute nothing
    gate = np.array([parity_allowed(m, ns) for m in range(ns)])
    quartets *= gate
    eris *= gate

    # diagonal tasks: P <= Q tie-break keeps roughly half the quartets
    if exact_diagonal:
        from repro.fock.tasks import enumerate_task_quartets

        for m in range(ns):
            cnt = 0.0
            eri = 0.0
            for (_mm, p, _nn, q) in enumerate_task_quartets(screen, m, m):
                cnt += 1.0
                eri += sizes[m] * sizes[p] * sizes[m] * sizes[q]
            quartets[m, m] = cnt
            eris[m, m] = eri
    else:
        quartets[np.diag_indices(ns)] *= 0.5
        eris[np.diag_indices(ns)] *= 0.5

    return TaskCosts(quartets=quartets, eris=eris)
