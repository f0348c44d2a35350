"""Chaos harness: prove the Fock build survives injected faults.

Runs the numeric GTFock build twice on identical inputs -- once
fault-free, once under a seeded :class:`~repro.runtime.faults.FaultPlan`
(stragglers, lossy one-sided ops, delayed messages, rank deaths) -- and
verifies the central robustness invariant:

    the faulted build's Fock matrix equals the fault-free one to
    ``<= 1e-12`` max elementwise difference, for *any* seeded plan that
    leaves at least one rank alive.

Only the virtual-time accounting may differ: retries, re-executed
tasks, and extra bytes show up as measurable recovery overhead (the
``retry`` flight channel, :class:`RecoveryRecord` entries, and the
fault-overhead counters), never as a numeric change.

The ``scf`` fault family (:func:`run_scf_chaos`) applies the same
invariant to *numerical* faults: a seeded
:class:`~repro.runtime.faults.SCFFaultPlan` corrupts batched ERI quartet
blocks with NaN/Inf, the convergence guard's chunk sentinel rescues
each one on the reference kernel, and the rescued Fock matrix
must still match the fault-free build to ``<= 1e-12``.

The ``sdc`` fault family (:func:`run_sdc_chaos`) is the *silent*
variant: a seeded :class:`~repro.runtime.sdc.SDCFaultPlan` bit-flips
on-disk store blocks and checkpoint files, exponent-flips in-memory F/D
elements, and corrupts GA accumulate payloads in flight -- none of
which raises anything on its own.  The gate demands every injected
corruption be *detected* by an integrity layer (zero silent
acceptances), zero detections on a fault-free run (zero false
positives), and the recovered run's F/E equal to the clean run's to
``<= 1e-12``.

Driven by the ``repro chaos`` CLI and ``tests/test_faults.py`` /
``tests/test_sdc.py``.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.fock.gtfock import GTFockBuildResult, gtfock_build
from repro.obs import Tracer
from repro.runtime.faults import FaultPlan, SCFFaultPlan, random_plan
from repro.runtime.machine import LONESTAR, MachineConfig
from repro.runtime.sdc import SDCFaultPlan, random_sdc_plan


@dataclass
class ChaosResult:
    """Fault-free vs faulted build comparison, plus recovery overhead."""

    molecule: str
    basis_name: str
    nproc: int
    plan: FaultPlan
    clean: GTFockBuildResult
    faulty: GTFockBuildResult
    #: max |F_faulty - F_clean| over all elements
    fock_error: float
    #: |E_faulty - E_clean| of the one-iteration electronic energy
    energy_error: float
    tolerance: float = 1e-12
    #: recovery-overhead summary (retries, re-executions, time ratio)
    overhead: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.fock_error <= self.tolerance

    def summary_lines(self) -> list[str]:
        o = self.overhead
        lines = [
            f"plan: {self.plan.describe()}",
            f"max |dF| = {self.fock_error:.3e} "
            f"(tolerance {self.tolerance:.0e}) -> "
            + ("PASS" if self.passed else "FAIL"),
            f"|dE| = {self.energy_error:.3e} Ha",
            f"dead ranks: {o.get('dead_ranks', [])}  "
            f"re-executed tasks: {o.get('reexecuted_tasks', 0)}  "
            f"recoveries: {o.get('recoveries', 0)}",
            f"retries: {o.get('retries_total', 0)}  "
            f"acks lost: {o.get('acks_lost_total', 0)}  "
            f"retry bytes: {o.get('retry_bytes', 0)}",
            f"makespan: {o.get('makespan_clean', 0.0):.4g} s clean -> "
            f"{o.get('makespan_faulty', 0.0):.4g} s under faults "
            f"(x{o.get('slowdown', 1.0):.2f})",
        ]
        return lines


def build_inputs(molecule: str, basis_name: str):
    """Molecule-name -> (engine, hcore, density, mol, basis), the same
    input pipeline the run-report driver uses."""
    from repro.chem import builders
    from repro.chem.basis.basisset import BasisSet
    from repro.chem.builders import paper_molecule
    from repro.fock.reorder import reorder_basis
    from repro.integrals.engine import MDEngine
    from repro.integrals.oneelec import core_hamiltonian, overlap
    from repro.scf.guess import core_guess
    from repro.scf.orthogonalization import orthogonalizer

    simple = {
        "water": builders.water,
        "h2": builders.h2,
        "methane": builders.methane,
        "benzene": builders.benzene,
    }
    mol = simple[molecule]() if molecule in simple else paper_molecule(molecule)
    basis = reorder_basis(BasisSet.build(mol, basis_name))
    engine = MDEngine(basis)
    hcore = core_hamiltonian(basis)
    x = orthogonalizer(overlap(basis))
    density = core_guess(hcore, x, mol.nelectrons // 2)
    return engine, hcore, density, mol, basis


def _one_iter_energy(density: np.ndarray, hcore: np.ndarray, fock: np.ndarray) -> float:
    """RHF electronic energy of this density/Fock pair: tr D (H + F)."""
    return float(np.sum(density * (hcore + fock)))


def run_chaos(
    molecule: str = "water",
    basis_name: str = "sto-3g",
    nproc: int = 4,
    tau: float = 1e-11,
    config: MachineConfig = LONESTAR,
    seed: int = 0,
    ndeaths: int = 1,
    nstragglers: int = 1,
    op_fail_rate: float = 0.05,
    delay_rate: float = 0.05,
    tolerance: float = 1e-12,
    plan: FaultPlan | None = None,
    tracer: Tracer | None = None,
) -> ChaosResult:
    """Run the fault-free/faulted build pair and compare.

    When ``plan`` is omitted, a :func:`random_plan` is derived from
    ``seed`` with the fault-free makespan as its horizon, so deaths land
    mid-execution regardless of problem size.  ``tracer`` (optional)
    captures the *faulted* run for report embedding.
    """
    engine, hcore, density, mol, basis = build_inputs(molecule, basis_name)
    clean = gtfock_build(
        engine, hcore, density, nproc, tau=tau, config=config
    )
    horizon = float(clean.outcome.makespan)
    if plan is None:
        plan = random_plan(
            seed,
            nproc,
            horizon,
            ndeaths=ndeaths,
            nstragglers=nstragglers,
            op_fail_rate=op_fail_rate,
            delay_rate=delay_rate,
        )
    faulty = gtfock_build(
        engine, hcore, density, nproc, tau=tau, config=config,
        screen=clean.screen, tracer=tracer, faults=plan,
    )
    fock_error = float(np.max(np.abs(faulty.fock - clean.fock)))
    energy_error = abs(
        _one_iter_energy(density, hcore, faulty.fock)
        - _one_iter_energy(density, hcore, clean.fock)
    )
    fstate = faulty.faults
    overhead = dict(fstate.overhead_summary()) if fstate is not None else {}
    overhead.update(
        dead_ranks=list(faulty.outcome.dead_ranks),
        reexecuted_tasks=int(faulty.outcome.reexecuted_tasks),
        recoveries=len(faulty.outcome.recoveries),
        retry_bytes=int(faulty.stats.flight.per_rank("retry", "bytes").sum()),
        makespan_clean=float(clean.stats.clock.max()),
        makespan_faulty=float(faulty.stats.clock.max()),
        slowdown=(
            float(faulty.stats.clock.max()) / float(clean.stats.clock.max())
            if float(clean.stats.clock.max()) > 0
            else 1.0
        ),
    )
    return ChaosResult(
        molecule=mol.name or mol.formula,
        basis_name=basis_name,
        nproc=nproc,
        plan=plan,
        clean=clean,
        faulty=faulty,
        fock_error=fock_error,
        energy_error=energy_error,
        tolerance=tolerance,
        overhead=overhead,
    )


@dataclass
class SCFChaosResult:
    """Clean vs NaN-corrupted-and-rescued Fock build comparison."""

    molecule: str
    basis_name: str
    plan: SCFFaultPlan
    #: max |F_rescued - F_clean| over all elements
    fock_error: float
    #: |dE| of the one-iteration electronic energy
    energy_error: float
    #: batched ERI blocks the plan corrupted
    quartets_corrupted: int
    #: corrupted blocks the sentinel recomputed on the reference kernel
    eri_rescues: int
    tolerance: float = 1e-12

    @property
    def passed(self) -> bool:
        return (
            self.fock_error <= self.tolerance
            and self.eri_rescues >= self.quartets_corrupted
        )

    def summary_lines(self) -> list[str]:
        return [
            f"plan: {self.plan.describe()}",
            f"corrupted quartet blocks: {self.quartets_corrupted}  "
            f"rescued on reference kernel: {self.eri_rescues}",
            f"max |dF| = {self.fock_error:.3e} "
            f"(tolerance {self.tolerance:.0e}) -> "
            + ("PASS" if self.passed else "FAIL"),
            f"|dE| = {self.energy_error:.3e} Ha",
        ]


def run_scf_chaos(
    molecule: str = "water",
    basis_name: str = "sto-3g",
    tau: float = 1e-11,
    seed: int = 0,
    quartet_nan_rate: float = 0.05,
    tolerance: float = 1e-12,
    plan: SCFFaultPlan | None = None,
) -> SCFChaosResult:
    """The ``scf`` fault family's invariant gate.

    Builds the Fock matrix twice from identical inputs on the batched
    MD engine -- once clean, once with a seeded
    :class:`~repro.runtime.faults.SCFFaultPlan` corrupting quartet
    blocks (drawn once over the class plan, so the result does not
    depend on ``REPRO_JK_THREADS``) and the chunk NaN/Inf sentinel
    armed -- and verifies every corruption was rescued (recomputed on
    the reference kernel) with ``max |dF| <= tolerance``.
    """
    from repro.scf.fock import fock_matrix

    engine, hcore, density, mol, basis = build_inputs(molecule, basis_name)
    clean = fock_matrix(engine, hcore, density, tau)
    if plan is None:
        plan = SCFFaultPlan(
            seed=seed,
            quartet_nan_rate=quartet_nan_rate / 2,
            quartet_inf_rate=quartet_nan_rate / 2,
        )
    faulty_engine, *_ = build_inputs(molecule, basis_name)
    fstate = plan.activate()
    faulty_engine.scf_faults = fstate
    faulty_engine.finite_check = True
    rescued = fock_matrix(faulty_engine, hcore, density, tau)
    fock_error = float(np.max(np.abs(rescued - clean)))
    energy_error = abs(
        _one_iter_energy(density, hcore, rescued)
        - _one_iter_energy(density, hcore, clean)
    )
    return SCFChaosResult(
        molecule=mol.name or mol.formula,
        basis_name=basis_name,
        plan=plan,
        fock_error=fock_error,
        energy_error=energy_error,
        quartets_corrupted=fstate.quartets_corrupted,
        eri_rescues=faulty_engine.eri_rescues,
        tolerance=tolerance,
    )


@dataclass
class SDCChaosResult:
    """Clean vs silently-corrupted-and-recovered SCF run comparison.

    ``injected`` / ``detected`` / ``silent`` count corruptions per kind
    (``store_block``, ``checkpoint``, ``matrix``, ``ga_payload``);
    ``silent[k] = max(0, injected[k] - detected[k])`` and the gate
    demands every ``silent`` entry be zero -- a corruption nobody
    noticed is exactly the failure mode this family exists to rule out.
    """

    molecule: str
    basis_name: str
    plan: SDCFaultPlan
    #: max |F_sdc - F_clean| of the final Fock matrices
    fock_error: float
    #: |E_sdc - E_clean| of the converged total energies
    energy_error: float
    injected: dict = field(default_factory=dict)
    detected: dict = field(default_factory=dict)
    silent: dict = field(default_factory=dict)
    #: detections on the fault-free integrity-on run (must be zero)
    false_positives: int = 0
    #: max |GA - expected| after checksummed accumulates under payload
    #: corruption (must be exactly zero: rejects are retransmitted)
    ga_error: float = 0.0
    #: an intact snapshot survived the checkpoint bit flips
    checkpoint_intact: bool = False
    #: :meth:`IntegrityMonitor.summary` of the corrupted run
    integrity_summary: dict | None = None
    #: fault-free warm-store wall time, integrity off / on
    wall_off_s: float = 0.0
    wall_on_s: float = 0.0
    tolerance: float = 1e-12

    @property
    def injections_total(self) -> int:
        return sum(self.injected.values())

    @property
    def silent_total(self) -> int:
        return sum(self.silent.values())

    @property
    def overhead(self) -> float:
        """Fractional integrity overhead on the fault-free warm run."""
        if self.wall_off_s <= 0:
            return 0.0
        return self.wall_on_s / self.wall_off_s - 1.0

    @property
    def passed(self) -> bool:
        return (
            self.injections_total > 0
            and self.silent_total == 0
            and self.false_positives == 0
            and self.fock_error <= self.tolerance
            and self.energy_error <= self.tolerance
            and self.ga_error == 0.0
            and self.checkpoint_intact
        )

    def summary_lines(self) -> list[str]:
        kinds = sorted(set(self.injected) | set(self.detected))
        lines = [f"plan: {self.plan.describe()}"]
        for kind in kinds:
            inj = self.injected.get(kind, 0)
            det = self.detected.get(kind, 0)
            sil = self.silent.get(kind, 0)
            lines.append(
                f"{kind}: injected {inj}  detected {det}  "
                + ("SILENT %d" % sil if sil else "silent 0")
            )
        lines += [
            f"false positives on clean run: {self.false_positives}",
            f"GA after retransmits: max error {self.ga_error:.3e}  "
            f"intact checkpoint survives: {self.checkpoint_intact}",
            f"max |dF| = {self.fock_error:.3e}  |dE| = "
            f"{self.energy_error:.3e} Ha (tolerance {self.tolerance:.0e})",
            f"integrity overhead (fault-free, warm store): "
            f"{self.overhead * 100:.1f}%",
            "verdict: " + ("PASS" if self.passed else "FAIL"),
        ]
        return lines


def run_sdc_chaos(
    molecule: str = "water",
    basis_name: str = "6-31g",
    tau: float = 1e-11,
    seed: int = 0,
    tolerance: float = 1e-12,
    plan: SDCFaultPlan | None = None,
    workdir: str | Path | None = None,
) -> SDCChaosResult:
    """The ``sdc`` fault family's zero-silent-acceptance gate.

    Five phases in one work directory (a temporary one unless
    ``workdir`` is given -- pass one to keep the corrupted tree for a
    ``repro verify`` audit):

    1. a clean stored-integral SCF run fills ``store/`` and writes
       clean checkpoints -- the trajectory baseline;
    2. fault-free integrity control: the same run, warm store, with
       integrity off then on -- wall-clock overhead plus the
       zero-false-positive check;
    3. the plan bit-flips on-disk store blocks;
    4. the corrupted run: same inputs, ``integrity=True``, sdc faults
       flipping F/D elements in memory and checkpoint files post-write,
       every store read CRC-verified -- must finish with F and E equal
       to the clean run's to ``tolerance`` (all recoveries recompute
       bitwise-identical data) and an intact snapshot still loadable;
    5. a checksummed :class:`~repro.runtime.ga.GlobalArray` under
       in-flight payload corruption -- every reject retransmitted, the
       final array exactly equal to the expected sum.
    """
    from repro.runtime.ga import GlobalArray, block_bounds
    from repro.runtime.network import CommStats
    from repro.scf.checkpoint import (
        checkpoint_paths,
        load_checkpoint,
        load_latest_intact,
    )
    from repro.scf.hf import RHF

    if plan is None:
        plan = random_sdc_plan(seed)
    tmp = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-sdc-")
        workdir = tmp.name
    workdir = Path(workdir)
    store_dir = workdir / "store"
    ckpt_clean = workdir / "ckpt-clean"
    ckpt_sdc = workdir / "ckpt-sdc"
    try:
        from repro.chem import builders
        from repro.chem.builders import paper_molecule

        simple = {
            "water": builders.water,
            "h2": builders.h2,
            "methane": builders.methane,
            "benzene": builders.benzene,
        }
        mol = (
            simple[molecule]()
            if molecule in simple
            else paper_molecule(molecule)
        )

        def make_rhf(ckpt_dir=None, integrity=False, sdc=None):
            return RHF(
                mol, basis_name=basis_name, tau=tau,
                integral_store=str(store_dir),
                checkpoint_dir=None if ckpt_dir is None else str(ckpt_dir),
                integrity=integrity, sdc_faults=sdc,
            )

        # 1. clean baseline (fills + finalizes the store)
        clean = make_rhf(ckpt_dir=ckpt_clean).run()

        # 2. fault-free control on the warm store: overhead + the
        #    false-positive gate (detections here must be zero)
        t0 = time.perf_counter()
        make_rhf().run()
        wall_off = time.perf_counter() - t0
        t0 = time.perf_counter()
        control = make_rhf(integrity=True).run()
        wall_on = time.perf_counter() - t0
        false_positives = control.integrity_summary["detections_total"]

        # 3. silently rot the on-disk store
        store_state = plan.activate()
        store_state.corrupt_store_dir(store_dir)

        # 4. the corrupted run: detectors armed, sdc matrix/file faults
        rhf = make_rhf(ckpt_dir=ckpt_sdc, integrity=True, sdc=plan)
        sdc_result = rhf.run()
        sdc_state = rhf.sdc_state
        summary = sdc_result.integrity_summary
        detections = summary["detections"]

        # offline checkpoint audit: every flipped file must fail
        # verification, and an intact snapshot must still be loadable
        import warnings as _warnings

        ckpt_detected = 0
        for path in checkpoint_paths(ckpt_sdc):
            try:
                load_checkpoint(path, verify=True)
            except Exception:
                ckpt_detected += 1
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            checkpoint_intact = load_latest_intact(ckpt_sdc) is not None

        # 5. checksummed GA accumulates under in-flight corruption
        ga_plan = SDCFaultPlan(seed=plan.seed, payload_flip_rate=0.25)
        ga_state = ga_plan.activate()
        rng = np.random.default_rng(plan.seed)
        n = 12
        bounds = block_bounds(n, 2)
        stats = CommStats(4, LONESTAR)
        ga = GlobalArray(
            stats, n, n, bounds, bounds, checksums=True, sdc=ga_state
        )
        expected = np.zeros((n, n))
        for k in range(32):
            r0, c0 = int(rng.integers(n - 4)), int(rng.integers(n - 4))
            block = rng.standard_normal((4, 4))
            ga.acc(k % 4, r0, c0, block, tag=("sdc", k))
            expected[r0:r0 + 4, c0:c0 + 4] += block
        ga_error = float(np.max(np.abs(ga.to_numpy() - expected)))

        injected = {
            "store_block": int(store_state.blocks_corrupted),
            "checkpoint": int(sdc_state.files_corrupted),
            "matrix": int(sdc_state.matrices_corrupted),
            "ga_payload": int(ga_state.payloads_corrupted),
        }
        detected = {
            "store_block": int(detections.get("store_block", 0)),
            "checkpoint": int(ckpt_detected),
            "matrix": int(
                detections.get("fock_matrix", 0)
                + detections.get("density_matrix", 0)
            ),
            "ga_payload": int(ga.checksum_rejects),
        }
        silent = {
            kind: max(0, injected[kind] - detected[kind])
            for kind in injected
        }
        return SDCChaosResult(
            molecule=mol.name or mol.formula,
            basis_name=basis_name,
            plan=plan,
            fock_error=float(
                np.max(np.abs(sdc_result.fock - clean.fock))
            ),
            energy_error=abs(sdc_result.energy - clean.energy),
            injected=injected,
            detected=detected,
            silent=silent,
            false_positives=int(false_positives),
            ga_error=ga_error,
            checkpoint_intact=checkpoint_intact,
            integrity_summary=summary,
            wall_off_s=wall_off,
            wall_on_s=wall_on,
            tolerance=tolerance,
        )
    finally:
        if tmp is not None:
            tmp.cleanup()
