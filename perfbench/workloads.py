"""The benchmark's four workloads, driven through the public ``repro`` API.

Every workload has the same shape:

* ``setup()`` builds the seeded inputs, loads the reference and warms
  the code paths up on a small input, so one-time costs stay out of the
  timed ops.  It may be called several times; each call starts over.
* ``op()`` runs one operation from a cold engine, as a user runs it, and
  checks its output.  It returns an :class:`Outcome`.
* ``close()`` removes what the workload left on disk.

Inputs come only from the seed: each molecule gets a seeded rigid
rotation and translation before the program sees it.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.bench import experiments, harness
from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import benzene, water, water_cluster
from repro.chem.molecule import Molecule
from repro.fock.gtfock import gtfock_build
from repro.fock.nwchem import nwchem_build
from repro.integrals.engine import MDEngine
from repro.integrals.oneelec import core_hamiltonian, overlap
from repro.scf.fock import fock_matrix
from repro.scf.guess import core_guess
from repro.scf.hf import RHF
from repro.scf.orthogonalization import orthogonalizer

#: RHF/6-31G energies (Eh) of the unrotated molecules; a rigid motion
#: leaves them unchanged
WATER_631G_ENERGY = -75.98399747631574
BENZENE_631G_ENERGY = -230.61724425884884
ENERGY_TOL = 1e-8
FOCK_TOL = 1e-12
CELL_RTOL = 1e-12
DIST_RANKS = 4

#: experiment functions of one paper_artifacts pass, in report order
EXPERIMENTS = (
    "table2_molecules", "table3_times", "table4_speedup", "table5_t_int",
    "table6_volume", "table7_calls", "table8_load_balance",
    "table9_purification", "figure1_footprint", "figure2_overhead",
    "model_analysis",
)
#: Table V's t_int is wall-clock derived, so it is left out of the check
UNCHECKED = {"table5_t_int"}

REFERENCE_CELLS = Path(__file__).with_name("reference_artifacts.json")
REFERENCE_SEED = 0


@dataclass
class Outcome:
    """One checked op: pass/fail, largest deviation and exact counts."""

    ok: bool
    #: largest deviation from the reference, in units of the tolerance
    err: float
    counts: dict = field(default_factory=dict)
    detail: str = ""


def rigid_motion(mol: Molecule, rng: np.random.Generator) -> Molecule:
    """``mol`` under a random proper rotation and a translation (Angstrom)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    shift = rng.uniform(-5.0, 5.0, size=3)
    coords = mol.coords_angstrom @ q.T + shift
    return Molecule.from_arrays(
        mol.symbols, coords, charge=mol.charge, name=mol.name
    )


def quartet_use(*engines) -> tuple[int, float]:
    """Quartets the engines computed, and computed per quartet block used."""
    computed = sum(e.quartets_computed for e in engines)
    used = computed + sum(
        e.quartets_served_from_store + e.quartets_served_from_cache
        for e in engines
    )
    return computed, computed / used if used else 0.0


# ---------------------------------------------------------------------------
# RHF workloads
# ---------------------------------------------------------------------------


class ScfWorkload:
    """RHF/6-31G to convergence, direct or with a fresh integral store."""

    def __init__(self, make_molecule, reference: float, stored: bool,
                 seed: int, scratch: Path):
        self.make_molecule = make_molecule
        self.reference = reference
        self.stored = stored
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.molecule = rigid_motion(self.make_molecule(), rng)
        self.basis = BasisSet.build(self.molecule, "6-31g")
        warm = rigid_motion(water(), rng)
        self._run(warm, BasisSet.build(warm, "sto-3g"))

    def _run(self, molecule: Molecule, basis: BasisSet):
        store = (
            tempfile.mkdtemp(prefix="store-", dir=self.scratch)
            if self.stored else None
        )
        try:
            rhf = RHF(
                molecule, basis_name=basis.name, engine=MDEngine(basis),
                integral_store=store,
            )
            return rhf, rhf.run()
        finally:
            if store is not None:
                shutil.rmtree(store)

    def op(self) -> Outcome:
        rhf, res = self._run(self.molecule, self.basis)
        err = abs(res.energy - self.reference) / ENERGY_TOL
        computed, per_use = quartet_use(rhf.engine)
        return Outcome(
            ok=bool(res.converged) and err <= 1.0,
            err=err,
            counts={
                "scf.iterations": res.iterations,
                "integrals.quartets_computed": computed,
                "integrals.compute_per_use": per_use,
            },
            detail=f"E={res.energy:.12f} converged={res.converged}",
        )

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# dist_fock: numeric distributed builds against the sequential reference
# ---------------------------------------------------------------------------


class DistFockWorkload:
    """``gtfock_build`` and ``nwchem_build`` of one density at 4 ranks."""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    @staticmethod
    def _inputs(molecule: Molecule, basis_name: str):
        basis = BasisSet.build(molecule, basis_name)
        hcore = core_hamiltonian(basis)
        x = orthogonalizer(overlap(basis))
        density = core_guess(hcore, x, molecule.nelectrons // 2)
        return basis, hcore, density

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        mol = rigid_motion(water_cluster(2, 1, 1), rng)
        self.basis, self.hcore, self.density = self._inputs(mol, "6-31g")
        self.reference = fock_matrix(MDEngine(self.basis), self.hcore, self.density)
        warm = rigid_motion(water(), rng)
        basis, hcore, density = self._inputs(warm, "sto-3g")
        gtfock_build(MDEngine(basis), hcore, density, DIST_RANKS)
        nwchem_build(MDEngine(basis), hcore, density, DIST_RANKS)

    def op(self) -> Outcome:
        e_gt, e_nw = MDEngine(self.basis), MDEngine(self.basis)
        gt = gtfock_build(e_gt, self.hcore, self.density, DIST_RANKS)
        nw = nwchem_build(e_nw, self.hcore, self.density, DIST_RANKS)
        err = max(
            float(np.max(np.abs(gt.fock - self.reference))),
            float(np.max(np.abs(nw.fock - self.reference))),
        ) / FOCK_TOL
        computed, per_use = quartet_use(e_gt, e_nw)
        steals = {(s.thief, s.victim) for s in gt.outcome.steals}
        return Outcome(
            ok=err <= 1.0,
            err=err,
            counts={
                "integrals.quartets_computed": computed,
                "integrals.compute_per_use": per_use,
                "fock.tasks_dispatched": (
                    int(gt.outcome.executed_tasks.sum()) + nw.ntasks
                ),
                "fock.counter_accesses": nw.outcome.counter_accesses,
                "fock.steals": len(steals),
                "runtime.ga_calls": int(gt.stats.calls.sum() + nw.stats.calls.sum()),
                "runtime.ga_bytes": int(gt.stats.bytes.sum() + nw.stats.bytes.sum()),
            },
            detail=f"max|F-F_ref|={err * FOCK_TOL:.3e}",
        )

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# paper_artifacts: every experiment, every simulated cell recomputed
# ---------------------------------------------------------------------------


def flatten(value, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested report ``data`` dict, keyed by path."""
    if isinstance(value, dict):
        out: dict[str, float] = {}
        for key, sub in value.items():
            out.update(flatten(sub, f"{prefix}/{key}" if prefix else str(key)))
        return out
    if isinstance(value, (int, float, np.bool_, np.integer, np.floating)):
        return {prefix: float(value)}
    return {}


def cell_deviation(cells: dict[str, float], ref: dict[str, float]) -> float:
    """Largest relative deviation from ``ref``, in units of CELL_RTOL."""
    if cells.keys() != ref.keys():
        return math.inf
    worst = 0.0
    for key, want in ref.items():
        got = cells[key]
        diff = abs(got - want)
        if diff == 0.0:
            continue
        worst = max(worst, diff / (CELL_RTOL * abs(want)) if want else math.inf)
    return worst


def sim_invariants(results) -> list[str]:
    """Seed-independent checks on every simulated cell."""
    bad = []
    for key, r in results.items():
        times = (r.t_fock_max, r.t_fock_avg, r.t_comp_avg)
        if not all(math.isfinite(t) and t > 0 for t in times):
            bad.append(f"{key}: non-positive or non-finite time {times}")
        if r.algorithm == "nwchem" and r.counter_accesses != r.ntasks + r.nproc:
            bad.append(
                f"{key}: {r.counter_accesses} counter accesses for "
                f"{r.ntasks} tasks on {r.nproc} ranks"
            )
    return bad


class PaperArtifactsWorkload:
    """One pass of every ``repro.bench.experiments`` table and figure."""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.reference = None
        if seed == REFERENCE_SEED and REFERENCE_CELLS.exists():
            self.reference = json.loads(REFERENCE_CELLS.read_text())["cells"]
        self._default_molecules = harness.benchmark_molecules

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        molecules = {
            name: rigid_motion(mol, rng)
            for name, mol in self._default_molecules().items()
        }
        harness.benchmark_molecules = lambda: dict(molecules)
        self._clear_memos()
        setups = harness.all_setups()
        experiments.figure1_footprint()
        smallest = min(setups, key=lambda s: s.basis.nshells)
        experiments.run_cell(smallest, "gtfock", harness.CORE_COUNTS[0])
        experiments.run_cell(smallest, "nwchem", harness.CORE_COUNTS[0])
        experiments._SIM_CACHE.clear()

    @staticmethod
    def _clear_memos() -> None:
        # the module memos would otherwise serve the pass from a prior one
        experiments._SIM_CACHE.clear()
        harness._SETUP_CACHE.clear()

    def run_pass(self) -> dict[str, float]:
        """Every experiment once from empty memos; the checked cells by path."""
        self._clear_memos()
        cells: dict[str, float] = {}
        for name in EXPERIMENTS:
            report = getattr(experiments, name)()
            if name not in UNCHECKED:
                cells.update(flatten(report.data, name))
        return cells

    def op(self) -> Outcome:
        cells = self.run_pass()
        results = dict(experiments._SIM_CACHE)
        problems = sim_invariants(results)
        problems += [k for k, v in cells.items() if not math.isfinite(v)]
        err = 0.0
        if self.reference is not None:
            err = cell_deviation(cells, self.reference)
            if err > 1.0:
                problems.append(f"cells deviate from the reference by {err:.3g} rtol")
        return Outcome(
            ok=not problems,
            err=err,
            counts={
                "fock.cells": len(results),
                "fock.tasks_dispatched": sum(r.ntasks for r in results.values()),
                "fock.counter_accesses": sum(
                    r.counter_accesses for r in results.values()
                ),
                "fock.steals": sum(
                    round(r.steals_avg * r.nproc) for r in results.values()
                ),
                "runtime.ga_calls": sum(
                    round(r.ga_calls_per_proc * r.nproc) for r in results.values()
                ),
                "runtime.ga_bytes": sum(
                    round(r.comm_mb_per_proc * 1e6 * r.nproc)
                    for r in results.values()
                ),
            },
            detail="; ".join(problems[:3]) or f"{len(cells)} cells checked",
        )

    def close(self) -> None:
        harness.benchmark_molecules = self._default_molecules
        self._clear_memos()


# ---------------------------------------------------------------------------

WORKLOADS = {
    "scf_water_stored": lambda seed, scratch: ScfWorkload(
        water, WATER_631G_ENERGY, True, seed, scratch
    ),
    "scf_benzene_direct": lambda seed, scratch: ScfWorkload(
        benzene, BENZENE_631G_ENERGY, False, seed, scratch
    ),
    "paper_artifacts": PaperArtifactsWorkload,
    "dist_fock": DistFockWorkload,
}
