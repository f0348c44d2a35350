"""Sequential reference Fock construction.

This is the single-process "ground truth" every distributed builder in
:mod:`repro.fock` is validated against: it contracts the *canonical*
(8-fold-unique, Cauchy-Schwarz screened) shell quartets, scattering each
block to all of its permutation images, and assembles

``F = H^core + 2J - K``          (Eq 3 of the paper).

Every engine takes one route, the class plan
(:func:`repro.integrals.class_batch.jk_from_plan`), and the distributed
builders contract through the same scatter
(:func:`repro.integrals.class_batch.jk_for_quartets`), so numeric
equality is a test of *task coverage and data movement*, not of
contraction formulas.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.integrals.class_batch import iter_canonical_quartets, jk_from_plan
from repro.integrals.engine import ERIEngine
from repro.util.validation import check_symmetric

__all__ = [
    "canonical_shell_quartets",
    "build_jk",
    "fock_matrix",
    "hf_electronic_energy",
]


def canonical_shell_quartets(
    sigma: np.ndarray, tau: float
) -> Iterator[tuple[int, int, int, int]]:
    """Canonical (M>=N, pair(MN) >= pair(PQ)) screened shell quartets.

    ``sigma`` is the shell-pair Schwarz matrix; a quartet survives iff
    ``sigma[M,N] * sigma[P,Q] > tau``.  (The implementation lives in
    :func:`repro.integrals.class_batch.iter_canonical_quartets`, shared
    with the class planner; this alias keeps the historical API.)
    """
    return iter_canonical_quartets(sigma, tau)


def build_jk(
    engine: ERIEngine,
    density: np.ndarray,
    tau: float = 1e-11,
    threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Coulomb and exchange matrices over the screened canonical quartets.

    One call for every engine: the memoized class plan at ``tau`` runs
    through :func:`~repro.integrals.class_batch.jk_from_plan`, whose
    chunk resolver serves blocks from an attached integral store or
    computes them (the class-batched kernel where the engine supports
    it, else its own quartet kernel), applies seeded ``scf`` faults and
    the NaN/Inf sentinel, and contracts one batch at a time.

    Parameters
    ----------
    engine:
        ERI engine (provides quartets and the Schwarz matrix).
    density:
        Symmetric density matrix D, shape (nbf, nbf).
    tau:
        Cauchy-Schwarz drop tolerance (the paper uses 1e-10).
    threads:
        Worker threads for the contraction (``None`` reads
        ``REPRO_JK_THREADS``, default 1).
    """
    check_symmetric(density, "density", tol=1e-8)
    return jk_from_plan(
        engine, density, engine.class_plan(tau), tau=tau, threads=threads
    )


def fock_matrix(
    engine: ERIEngine,
    hcore: np.ndarray,
    density: np.ndarray,
    tau: float = 1e-11,
    threads: int | None = None,
) -> np.ndarray:
    """Closed-shell Fock matrix F = H^core + 2J - K (Eq 3)."""
    j, k = build_jk(engine, density, tau, threads=threads)
    return hcore + 2.0 * j - k


def hf_electronic_energy(
    hcore: np.ndarray, fock: np.ndarray, density: np.ndarray
) -> float:
    """Closed-shell electronic energy  E = sum_ij D_ij (H_ij + F_ij)."""
    return float(np.sum(density * (hcore + fock)))
