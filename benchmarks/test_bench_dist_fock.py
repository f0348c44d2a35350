"""Numeric distributed Fock builds: GTFock and NWChem wall time.

Times the numeric :func:`~repro.fock.gtfock.gtfock_build` (Algorithm 4)
and :func:`~repro.fock.nwchem.nwchem_build` (the Algorithm 2 baseline)
at 4 simulated ranks on (H2O)2/6-31G -- the same system as the
``dist_fock`` workload of ``perfbench/``.  Both builds record their
quartets while the scheduler runs and contract them in one
class-batched ERI + J/K sweep, so the host cost is dominated by that
sweep rather than by per-quartet kernel calls.

Methodology: each round runs both builders on fresh engines, the order
alternating round by round so drift hits both alike, and the datapoint
keeps the min of each (scheduler noise is one-sided).  One extra
untimed build per builder runs under a :class:`Tracer` and a
:class:`PhaseProfiler` for the layer breakdown: the GTFock host phases
(setup / prefetch / schedule / sweep / flush) and the ERI-kernel and
J/K-scatter phases of each sweep.  Each full run appends one
``dist_fock_numeric`` datapoint, with the host fingerprint, to
``BENCH_fock.json``.  Run as a pytest benchmark or as a script;
``--quick`` uses fewer rounds and skips the history file.
"""

from __future__ import annotations

import os
import platform
import sys
import time

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import water_cluster
from repro.fock.gtfock import gtfock_build
from repro.fock.nwchem import nwchem_build
from repro.integrals.engine import MDEngine
from repro.integrals.oneelec import core_hamiltonian, overlap
from repro.obs import Tracer
from repro.obs.manifest import provenance
from repro.obs.profile import PHASE_ERI, PHASE_JK, PhaseProfiler, set_profiler
from repro.scf.fock import fock_matrix
from repro.scf.guess import core_guess
from repro.scf.orthogonalization import orthogonalizer

from test_bench_table3_times import append_history

ROUNDS = 7
NPROC = 4
FOCK_TOL = 1e-12
GTFOCK_PHASES = ("setup", "prefetch", "schedule", "sweep", "flush")
BUILDERS = {"gtfock": gtfock_build, "nwchem": nwchem_build}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _inputs():
    mol = water_cluster(2, 1, 1)
    basis = BasisSet.build(mol, "6-31g")
    hcore = core_hamiltonian(basis)
    density = core_guess(hcore, orthogonalizer(overlap(basis)), mol.nelectrons // 2)
    return basis, hcore, density


def _timed(name, basis, hcore, density):
    engine = MDEngine(basis)
    engine.schwarz()  # screening is setup shared with the reference build
    t0 = time.perf_counter()
    res = BUILDERS[name](engine, hcore, density, NPROC)
    return time.perf_counter() - t0, res


def _layers(basis, hcore, density) -> dict:
    """One traced + profiled build per builder: per-layer wall seconds."""
    layers: dict = {}
    for name, build in BUILDERS.items():
        tracer = Tracer()
        profiler = PhaseProfiler()
        engine = MDEngine(basis)
        engine.schwarz()
        prev = set_profiler(profiler)
        try:
            kwargs = {"tracer": tracer} if name == "gtfock" else {}
            build(engine, hcore, density, NPROC, **kwargs)
        finally:
            set_profiler(prev)
        phases = {p.name: p.wall_s for p in profiler.phases()}
        layers[f"{name}.eri_kernel_s"] = round(phases.get(PHASE_ERI, 0.0), 4)
        layers[f"{name}.jk_scatter_s"] = round(phases.get(PHASE_JK, 0.0), 4)
        if name == "gtfock":
            for span in tracer.spans(cat="fock"):
                if span.name in GTFOCK_PHASES:
                    layers[f"gtfock.{span.name}_s"] = round(span.dur, 4)
    return layers


def run_dist_fock_bench(rounds: int = ROUNDS) -> dict:
    """Interleaved min-of-N wall times for both numeric builders."""
    basis, hcore, density = _inputs()
    reference = fock_matrix(MDEngine(basis), hcore, density)
    times: dict[str, list[float]] = {name: [] for name in BUILDERS}
    max_err = 0.0
    for i in range(rounds):
        order = list(BUILDERS) if i % 2 == 0 else list(BUILDERS)[::-1]
        for name in order:
            t, res = _timed(name, basis, hcore, density)
            times[name].append(t)
            max_err = max(max_err, float(np.max(np.abs(res.fock - reference))))
    host = dict(
        provenance(), cpu=_cpu_model(),
        blas_threads=os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    )
    return {
        "benchmark": "dist_fock_numeric",
        "molecule": "(H2O)2",
        "basis": "6-31g",
        "nproc": NPROC,
        "nbf": basis.nbf,
        "method": f"min of {rounds} interleaved rounds, fresh engine per build",
        "t_gtfock_s": round(min(times["gtfock"]), 4),
        "t_nwchem_s": round(min(times["nwchem"]), 4),
        "max_abs_diff": max_err,
        "layers": _layers(basis, hcore, density),
        "host": host,
    }


def check_entry(entry: dict) -> None:
    """Both distributed builds must reproduce the sequential F."""
    assert entry["max_abs_diff"] <= FOCK_TOL, (
        f"distributed F differs from the sequential build by "
        f"{entry['max_abs_diff']:.3e}"
    )


def _describe(entry: dict) -> str:
    return (
        f"dist_fock_numeric: (H2O)2/6-31g at {entry['nproc']} ranks -- "
        f"gtfock {entry['t_gtfock_s']}s, nwchem {entry['t_nwchem_s']}s "
        f"(max |F - F_ref| {entry['max_abs_diff']:.1e})"
    )


def test_bench_dist_fock(benchmark, emit):
    entry = benchmark.pedantic(run_dist_fock_bench, rounds=1, iterations=1)
    emit(_describe(entry))
    check_entry(entry)
    append_history(entry)


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    entry = run_dist_fock_bench(rounds=2 if quick else ROUNDS)
    print(_describe(entry))
    check_entry(entry)
    if not quick:
        append_history(entry)
        print("appended dist_fock_numeric datapoint to BENCH_fock.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
