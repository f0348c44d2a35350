"""Command-line interface: ``python -m repro <command>``.

Commands
--------
scf MOLECULE [--basis NAME]     run RHF on a built-in molecule
                                (``--guard`` arms the convergence guard)
table{2..9} / fig1 / fig2       regenerate one evaluation artifact
model                           Sec III-G performance-model analysis
ablation {reorder,steal,grain}  design-choice ablations
report MOLECULE [--out PATH]    self-contained HTML run report; pass a
                                run *directory* instead of a molecule to
                                render a persisted run after the fact
analyze MOLECULE [--cores N]    critical-path analysis of a simulated
                                GTFock build: exact per-rank time
                                decomposition, blame table, what-if
                                projections (``--check`` gates the
                                invariants -- the CI gate)
chaos MOLECULE [--seed N]       fault-injected build, verified vs fault-free
                                (``--family scf`` = NaN/Inf ERI corruption;
                                ``--family service`` = seeded SIGKILLs of
                                real queue workers, jobs must still finish;
                                ``--family sdc`` = silent bit flips into
                                checkpoints, stored ERI blocks, accumulate
                                payloads, and in-flight matrices -- every
                                one must be detected and repaired)
verify DIR [--json PATH]        offline integrity audit: re-checksum every
                                store / checkpoint / run ledger under DIR;
                                exit 1 if anything fails verification
serve [--workers N] [--drain]   run the SCF-as-a-service worker pool over
                                a durable job queue (``--queue DIR``)
submit MOLECULE [--basis NAME]  enqueue an SCF job (returns its job id)
status [--json PATH]            job table + per-state counts of the queue
cancel JOB_ID                   cancel a queued/leased/running job
drain [--timeout S]             wait until the queue is empty; exit 0 only
                                if every job ended ``done``
torture [--quick]               SCF torture suite under the convergence guard
perf profile [MOLECULE]         profiled RHF: phase table + cProfile hotspots
perf check [--quick]            grade the BENCH_*.json perf trajectories
                                (exits nonzero on FAIL -- the CI gate)
perf history                    print the tracked-metric trajectories
info                            provenance: versions, git SHA, CPU count
list                            list built-in molecules and bases

Every command accepts ``--trace PATH`` (Chrome trace-event JSON --
open it at https://ui.perfetto.dev -- or raw span records with a
``.jsonl`` extension), ``--metrics PATH`` (JSON, or Prometheus text
exposition with a ``.prom`` extension), ``--profile`` (phase wall/CPU
attribution, table printed on exit), and ``--run-dir DIR`` (durable run
ledger: manifest.json + metrics.jsonl + summary.json, renderable later
with ``repro report DIR``).  See ``docs/OBSERVABILITY.md``.

Set ``REPRO_FULL=1`` to run evaluation commands at the paper's exact
molecule sizes.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.chem.basis.basisset import BASIS_REGISTRY, BasisSet
from repro.chem.builders import PAPER_MOLECULES, SCALED_MOLECULES, paper_molecule


def _build_molecule(name: str):
    """A built-in demo molecule or a paper molecule/stand-in by name."""
    from repro.chem import builders

    simple = {
        "water": builders.water,
        "h2": builders.h2,
        "methane": builders.methane,
        "benzene": builders.benzene,
    }
    if name in simple:
        return simple[name]()
    return paper_molecule(name)


def _run_scf(args: argparse.Namespace) -> int:
    from repro.scf import RHF, GuardConfig

    mol = _build_molecule(args.molecule)
    guard = None
    if args.guard:
        guard = GuardConfig(
            patience=args.guard_patience,
            window=args.guard_window,
            max_nonfinite=args.guard_max_nonfinite,
        )
    print(f"RHF/{args.basis} on {mol.formula} ({mol.nelectrons} electrons)")
    rhf = RHF(
        mol,
        basis_name=args.basis,
        use_diis=not args.no_diis,
        max_iter=args.max_iter,
        guard=guard,
        integral_store=args.store,
        jk_threads=args.jk_threads,
        integrity=args.integrity,
    )
    result = rhf.run()
    print(f"energy      = {result.energy:.8f} hartree")
    print(f"converged   = {result.converged} ({result.iterations} iterations)")
    store = rhf.engine.integral_store
    if store is not None:
        st = store.stats()
        print(
            f"store       = {st['nblocks']} blocks, "
            f"{st['nbytes'] / 2**20:.2f} MiB at {st['path']} "
            f"(served {rhf.engine.quartets_served_from_store}, "
            f"computed {rhf.engine.quartets_computed})"
        )
    if result.orbital_energies is not None:
        from repro.scf.properties import orbital_summary

        summary = orbital_summary(result.orbital_energies, mol.nelectrons // 2)
        print(f"HOMO        = {summary.homo:.6f}")
        if summary.lumo is not None:
            print(f"LUMO        = {summary.lumo:.6f}  (gap {summary.gap:.6f})")
    if result.guard_summary is not None:
        g = result.guard_summary
        print(
            f"guard       = {g['events']} events, rung {g['level']}, "
            f"final state {g['final_state']}"
        )
        for line in [ev.describe() for ev in result.guard_events]:
            print(f"  {line}")
    if result.integrity_summary is not None:
        s = result.integrity_summary
        print(
            f"integrity   = {s['checks_total']} checks, "
            f"{s['detections_total']} corruptions detected, "
            f"{s['recoveries_total']} recoveries"
        )
    return 0 if result.converged else 1


def _run_torture(args: argparse.Namespace) -> int:
    import json

    from repro.obs.report import render_torture_report
    from repro.scf.torture import run_torture, torture_json, torture_table

    outcomes = run_torture(quick=args.quick, vanilla=not args.no_vanilla)
    for line in torture_table(outcomes):
        print(line)
    records = torture_json(outcomes)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(render_torture_report(records))
        print(f"torture report written to {args.report}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
        print(f"torture summary written to {args.json}")
    failed = [o for o in outcomes if not o.passed]
    if failed:
        print(
            "torture gate FAILED for: "
            + ", ".join(o.case.name for o in failed),
            file=sys.stderr,
        )
        return 1
    return 0


def _run_experiment(name: str) -> int:
    from repro.bench import experiments as e

    dispatch = {
        "table2": e.table2_molecules,
        "table3": e.table3_times,
        "table4": e.table4_speedup,
        "table5": e.table5_t_int,
        "table6": e.table6_volume,
        "table7": e.table7_calls,
        "table8": e.table8_load_balance,
        "table9": e.table9_purification,
        "fig1": e.figure1_footprint,
        "fig2": e.figure2_overhead,
        "model": e.model_analysis,
    }
    print(dispatch[name]().text)
    return 0


def _run_ablation(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.fock.ablation import (
        granularity_ablation,
        reordering_ablation,
        stealing_ablation,
    )
    from repro.fock.screening_map import ScreeningMap
    from repro.integrals.schwarz import schwarz_model

    mol = paper_molecule(args.molecule)
    basis = BasisSet.build(mol, "vdz-sim")
    if args.kind == "reorder":
        rng = np.random.default_rng(0)
        scrambled = basis.permuted(rng.permutation(basis.nshells))
        rows = reordering_ablation(scrambled)
    else:
        from repro.fock.reorder import reorder_basis

        rb = reorder_basis(basis)
        screen = ScreeningMap(rb, schwarz_model(rb), 1e-10)
        if args.kind == "steal":
            rows = stealing_ablation(rb, screen)
        else:
            rows = granularity_ablation(rb, screen)
    for row in rows:
        print(row)
    return 0


def _run_report(args: argparse.Namespace) -> int:
    from repro.obs.report import run_report, write_report

    if os.path.isdir(args.molecule) or os.sep in args.molecule:
        # a run directory, not a molecule: render the persisted ledger
        from repro.obs.manifest import LedgerError, load_run
        from repro.obs.report import render_ledger_report

        try:
            record = load_run(args.molecule)
        except LedgerError as exc:
            print(f"repro report: {exc}", file=sys.stderr)
            return 2
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_ledger_report(record))
        print(f"report for run {record.title} written to {args.out}")
        return 0

    report, _result = run_report(
        molecule=args.molecule,
        basis_name=args.basis,
        nproc=args.nproc,
        with_trace=not args.no_embedded_trace,
        scf_guard=args.scf_guard,
    )
    write_report(args.out, report)
    print(report.validation.text())
    print(f"report written to {args.out}")
    if args.check and not report.validation.passed:
        print(
            "model validation FAILED (a deviation exceeded its fail "
            "threshold; see docs/OBSERVABILITY.md)",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.fock.reorder import reorder_basis
    from repro.fock.screening_map import ScreeningMap
    from repro.fock.simulate import SimCapture, simulate_gtfock
    from repro.integrals import schwarz_model
    from repro.obs import Tracer, get_tracer
    from repro.obs.critpath import analyze
    from repro.obs.manifest import get_ledger

    mol = _build_molecule(args.molecule)
    basis = reorder_basis(BasisSet.build(mol, args.basis))
    screen = ScreeningMap(basis, schwarz_model(basis), args.tau)
    # path extraction needs the run traced: use the ambient tracer when
    # --trace armed one, otherwise a local throwaway
    tracer = get_tracer()
    if not tracer.enabled:
        tracer = Tracer("analyze")
    capture = SimCapture()
    simulate_gtfock(
        basis, screen, args.cores, tracer=tracer, capture=capture
    )
    analysis = analyze(
        capture,
        resim=not args.no_resim,
        network_scale=args.network_scale,
    )
    print(analysis.text())
    analysis.export_metrics()
    get_ledger().add_summary(critpath=analysis.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(analysis.to_json(), fh, indent=2)
        print(f"analysis JSON written to {args.json}", file=sys.stderr)
    if args.report:
        from repro.obs.report import render_critpath_report

        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(render_critpath_report(analysis))
        print(
            f"critical-path report written to {args.report}", file=sys.stderr
        )
    if args.check:
        try:
            analysis.check()
        except AssertionError as exc:
            print(f"analyze check FAILED: {exc}", file=sys.stderr)
            return 1
        print("analyze check: decomposition exact, what-ifs within tolerance")
    return 0


def _run_scf_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.fock.chaos import run_scf_chaos

    cres = run_scf_chaos(
        molecule=args.molecule,
        basis_name=args.basis,
        seed=args.seed,
        quartet_nan_rate=args.quartet_nan_rate,
        tolerance=args.tolerance,
    )
    print(f"scf chaos run: {cres.molecule}/{cres.basis_name}")
    for line in cres.summary_lines():
        print(f"  {line}")
    if args.json:
        payload = {
            "family": "scf",
            "molecule": cres.molecule,
            "basis": cres.basis_name,
            "seed": cres.plan.seed,
            "fock_error": cres.fock_error,
            "energy_error": cres.energy_error,
            "tolerance": cres.tolerance,
            "quartets_corrupted": cres.quartets_corrupted,
            "eri_rescues": cres.eri_rescues,
            "passed": cres.passed,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"chaos summary written to {args.json}")
    if not cres.passed:
        print(
            f"scf chaos invariant FAILED: max |dF| {cres.fock_error:.3e} "
            f"(tolerance {cres.tolerance:.0e}), "
            f"{cres.quartets_corrupted} corrupted vs "
            f"{cres.eri_rescues} rescued",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_sdc_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.fock.chaos import run_sdc_chaos

    cres = run_sdc_chaos(
        molecule=args.molecule,
        basis_name=args.basis,
        seed=args.seed,
        tolerance=args.tolerance,
        workdir=args.workdir,
    )
    print(f"sdc chaos run: {cres.molecule}/{cres.basis_name}")
    for line in cres.summary_lines():
        print(f"  {line}")
    if args.workdir:
        print(f"  corrupted work tree kept at {args.workdir} "
              "(audit it with 'repro verify')")
    if args.json:
        payload = {
            "family": "sdc",
            "molecule": cres.molecule,
            "basis": cres.basis_name,
            "seed": cres.plan.seed,
            "fock_error": cres.fock_error,
            "energy_error": cres.energy_error,
            "tolerance": cres.tolerance,
            "injected": cres.injected,
            "detected": cres.detected,
            "silent": cres.silent,
            "false_positives": cres.false_positives,
            "ga_error": cres.ga_error,
            "checkpoint_intact": cres.checkpoint_intact,
            "overhead": cres.overhead,
            "passed": cres.passed,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"chaos summary written to {args.json}")
    if not cres.passed:
        print(
            "sdc chaos invariant FAILED: "
            f"{cres.silent_total} silent corruption(s), "
            f"{cres.false_positives} false positive(s), "
            f"max |dE| {cres.energy_error:.3e} "
            f"(tolerance {cres.tolerance:.0e})",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    import json

    from repro.obs.verify import verify_tree

    report = verify_tree(args.directory)
    for line in report.summary_lines():
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        print(f"verify report written to {args.json}")
    return 0 if report.clean else 1


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    result = serve(
        args.queue,
        workers=args.workers,
        poll_s=args.poll,
        drain=args.drain,
        grace_s=args.grace,
        wall_limit_s=args.wall_limit,
        verbose=True,
    )
    for line in result.summary_lines():
        print(line)
    if args.drain and not result.drained:
        print("serve: queue not drained (wall limit hit?)", file=sys.stderr)
        return 1
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    from repro.service import JobStore

    if args.cache_mb is not None and args.store:
        print("submit: --cache-mb and --store are exclusive", file=sys.stderr)
        return 2
    spec: dict = {"kind": "scf", "molecule": args.molecule, "basis": args.basis}
    if args.jk_threads is not None:
        spec["jk_threads"] = args.jk_threads
    if args.cache_mb is not None:
        spec["cache_mb"] = args.cache_mb
    if args.store:
        spec["store_dir"] = args.store
    if args.guard:
        spec["guard"] = True
    if args.integrity:
        spec["integrity"] = True
    if args.max_iter is not None:
        spec["max_iter"] = args.max_iter
    store = JobStore(args.queue)
    job = store.submit(
        spec,
        priority=args.priority,
        max_attempts=args.max_attempts,
        timeout_s=args.timeout,
        lease_s=args.lease,
    )
    print(f"submitted job {job.id}: {args.molecule}/{args.basis} "
          f"(priority {job.priority}, dir {job.job_dir})")
    return 0


def _run_status(args: argparse.Namespace) -> int:
    import json

    from repro.obs import get_metrics
    from repro.obs.metrics import export_service
    from repro.service import JobStore

    store = JobStore(args.queue)
    jobs = store.jobs()
    if jobs:
        print(f"{'id':>5} {'state':<12} {'att':>3} {'job':<22} "
              f"{'owner':<8} result/error")
        for job in jobs:
            what = job.spec.get("molecule", job.spec.get("kind", "?"))
            basis = job.spec.get("basis", "")
            label = f"{what}/{basis}" if basis else str(what)
            tail = ""
            if job.result is not None and "energy" in job.result:
                tail = f"E = {job.result['energy']:.10f}"
            elif job.result is not None:
                tail = "ok"
            elif job.error:
                tail = job.error.strip().splitlines()[-1][:50]
            print(f"{job.id:>5} {job.state:<12} {job.attempts:>3} "
                  f"{label:<22} {job.lease_owner or '-':<8} {tail}")
    counts = store.counts()
    print("counts:", ", ".join(f"{k} {v}" for k, v in counts.items() if v)
          or "empty queue")
    export_service(store.stats(), registry=get_metrics())
    if args.json:
        payload = {
            "counts": counts,
            "events": store.event_counts(),
            "jobs": [
                {
                    "id": j.id, "state": j.state, "attempts": j.attempts,
                    "spec": j.spec, "result": j.result, "error": j.error,
                    "job_dir": j.job_dir,
                }
                for j in jobs
            ],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"status written to {args.json}")
    return 0


def _run_cancel(args: argparse.Namespace) -> int:
    from repro.service import JobStore

    store = JobStore(args.queue)
    try:
        job = store.get(args.job_id)
    except KeyError as exc:
        print(f"repro cancel: {exc.args[0]}", file=sys.stderr)
        return 2
    if store.cancel(args.job_id):
        print(f"cancelled job {args.job_id}")
        return 0
    print(
        f"repro cancel: job {args.job_id} already terminal ({job.state})",
        file=sys.stderr,
    )
    return 1


def _run_drain(args: argparse.Namespace) -> int:
    import time as _time

    from repro.service import JobStore

    store = JobStore(args.queue)
    deadline = _time.time() + args.timeout
    while not store.drained():
        if _time.time() > deadline:
            counts = store.counts()
            print(
                "drain: timed out with jobs still in flight: "
                + ", ".join(f"{k} {v}" for k, v in counts.items() if v),
                file=sys.stderr,
            )
            return 2
        _time.sleep(args.poll)
    counts = store.counts()
    print("drained:", ", ".join(f"{k} {v}" for k, v in counts.items() if v)
          or "empty queue")
    bad = counts["failed"] + counts["quarantined"]
    if bad:
        print(
            f"drain: {bad} job(s) ended failed/quarantined "
            "(see 'repro status')",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_service_chaos(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from repro.service import run_service_chaos

    queue = args.queue or tempfile.mkdtemp(prefix="repro-service-chaos-")
    cres = run_service_chaos(
        queue,
        njobs=args.jobs,
        workers=args.workers,
        kills=args.kills,
        seed=args.seed,
        molecule=args.molecule,
        basis=args.service_basis,
        tolerance=args.tolerance,
        lease_s=args.lease,
    )
    print(
        f"service chaos run: {cres.njobs} jobs on {cres.workers} workers, "
        f"queue {queue}"
    )
    for line in cres.summary_lines():
        print(f"  {line}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(cres.to_json(), fh, indent=2, sort_keys=True)
        print(f"chaos summary written to {args.json}")
    if not cres.passed:
        print(
            "service chaos invariant FAILED: "
            f"{cres.counts.get('done', 0)}/{cres.njobs} done, "
            f"max |dE| {cres.max_energy_error:.3e} "
            f"(tolerance {cres.tolerance:.0e}), "
            f"{cres.double_records} double records",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.fock.chaos import run_chaos
    from repro.obs import get_metrics, get_tracer
    from repro.obs.metrics import export_faults
    from repro.obs.report import chaos_report, write_report
    from repro.obs.trace import Tracer

    if args.family == "scf":
        return _run_scf_chaos(args)
    if args.family == "service":
        return _run_service_chaos(args)
    if args.family == "sdc":
        return _run_sdc_chaos(args)

    # capture the faulted run for the report's embedded trace; reuse an
    # installed (--trace) tracer so both outputs describe the same run
    ambient = get_tracer()
    if ambient.enabled:
        tracer = ambient
    elif args.report:
        tracer = Tracer("repro-chaos")
    else:
        tracer = None
    cres = run_chaos(
        molecule=args.molecule,
        basis_name=args.basis,
        nproc=args.nproc,
        seed=args.seed,
        ndeaths=args.deaths,
        nstragglers=args.stragglers,
        op_fail_rate=args.op_fail_rate,
        delay_rate=args.delay_rate,
        tolerance=args.tolerance,
        tracer=tracer,
    )
    print(
        f"chaos run: {cres.molecule}/{cres.basis_name} on "
        f"{cres.nproc} simulated processes"
    )
    for line in cres.summary_lines():
        print(f"  {line}")
    if cres.faulty.faults is not None:
        export_faults(
            cres.faulty.faults, cres.faulty.outcome, registry=get_metrics()
        )
    if args.report:
        report = chaos_report(
            cres, trace=tracer.chrome_trace() if tracer is not None else None
        )
        write_report(args.report, report)
        print(f"chaos report written to {args.report}")
    if args.json:
        payload = {
            "molecule": cres.molecule,
            "basis": cres.basis_name,
            "nproc": cres.nproc,
            "seed": cres.plan.seed,
            "fock_error": cres.fock_error,
            "energy_error": cres.energy_error,
            "tolerance": cres.tolerance,
            "passed": cres.passed,
            "overhead": cres.overhead,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"chaos summary written to {args.json}")
    if not cres.passed:
        print(
            f"chaos invariant FAILED: max |dF| {cres.fock_error:.3e} exceeds "
            f"{cres.tolerance:.0e}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_info() -> int:
    from repro.obs.manifest import provenance

    pv = provenance()
    width = max(len(k) for k in pv)
    for key in (
        "package", "version", "git_sha", "git_dirty", "python", "numpy",
        "scipy", "platform", "cpu_count",
    ):
        print(f"{key:<{width}} = {pv[key]}")
    return 0


#: default BENCH history files graded by ``repro perf check`` (cwd-relative:
#: run from the repo root, or point --history elsewhere)
_DEFAULT_HISTORIES = (
    "BENCH_eri.json", "BENCH_fock.json", "BENCH_service.json",
)


def _run_perf_profile(args: argparse.Namespace) -> int:
    from repro.obs.manifest import get_ledger
    from repro.obs.profile import (
        PhaseProfiler,
        hotspot_text,
        profile_hotspots,
        set_profiler,
    )
    from repro.scf import RHF

    mol = _build_molecule(args.molecule)
    print(
        f"profiled RHF/{args.basis} on {mol.formula} "
        f"(cProfile top {args.top}"
        + (", tracemalloc phase attribution" if args.alloc else "")
        + ")"
    )
    profiler = PhaseProfiler(alloc=args.alloc)
    prev = set_profiler(profiler)
    try:
        result, hotspots = profile_hotspots(
            lambda: RHF(
                mol, basis_name=args.basis, max_iter=args.max_iter
            ).run(),
            top=args.top,
        )
    finally:
        set_profiler(prev)
    print(f"energy      = {result.energy:.8f} hartree")
    print(f"converged   = {result.converged} ({result.iterations} iterations)")
    print()
    print(profiler.table())
    print()
    print(hotspot_text(hotspots))
    profiler.export_metrics()
    get_ledger().attach_profile(profiler, hotspots)
    profiler.close()
    return 0 if result.converged else 1


def _run_perf_check(args: argparse.Namespace) -> int:
    import json

    from repro.obs.regress import grade

    histories = args.history or list(_DEFAULT_HISTORIES)
    report = grade(
        histories, quick=args.quick, window=args.last, runs=args.runs
    )
    print(report.text())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        print(f"check summary written to {args.json}")
    if not report.passed:
        print(
            "perf check FAILED: a tracked metric regressed beyond its "
            "fail threshold (see docs/PERFORMANCE.md)",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_perf_history(args: argparse.Namespace) -> int:
    from repro.obs.regress import history_text

    histories = args.history or list(_DEFAULT_HISTORIES)
    print(history_text(histories, last=args.points))
    return 0


def _run_perf(args: argparse.Namespace) -> int:
    if args.perf_command == "profile":
        return _run_perf_profile(args)
    if args.perf_command == "check":
        return _run_perf_check(args)
    return _run_perf_history(args)


def _run_list() -> int:
    print("paper molecules :", ", ".join(sorted(PAPER_MOLECULES)))
    print("scaled stand-ins:", ", ".join(sorted(SCALED_MOLECULES)))
    print("demo molecules  : water, h2, methane, benzene")
    print("basis sets      :", ", ".join(sorted(BASIS_REGISTRY)))
    return 0


def _obs_flags() -> argparse.ArgumentParser:
    """Shared observability flags for every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a trace: Chrome trace-event JSON (Perfetto-loadable),"
        " or raw span records if PATH ends in .jsonl",
    )
    parent.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write collected metrics: JSON, or Prometheus text"
        " exposition if PATH ends in .prom",
    )
    parent.add_argument(
        "--profile",
        action="store_true",
        help="attribute wall/CPU time to named pipeline phases; the phase"
        " table is printed on exit (and lands in the run ledger)",
    )
    parent.add_argument(
        "--run-dir",
        metavar="DIR",
        default=None,
        help="write a durable run directory (manifest.json, metrics.jsonl,"
        " summary.json); render it later with 'repro report DIR'",
    )
    return parent


class _VersionAction(argparse.Action):
    """``--version``: the provenance block's one-line form (lazy imports)."""

    def __call__(self, parser, namespace, values, option_string=None):
        from repro.obs.manifest import provenance

        pv = provenance()
        print(
            f"repro {pv['version']} (git {pv['git_sha'][:12]}, "
            f"python {pv['python']}, numpy {pv['numpy']}, "
            f"scipy {pv['scipy']})"
        )
        parser.exit(0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version", action=_VersionAction, nargs=0,
        help="print version, git SHA, and library versions, then exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    obs_flags = _obs_flags()

    p_scf = sub.add_parser(
        "scf", help="run RHF on a built-in molecule", parents=[obs_flags]
    )
    p_scf.add_argument("molecule")
    p_scf.add_argument("--basis", default="sto-3g")
    p_scf.add_argument("--max-iter", type=int, default=100)
    p_scf.add_argument(
        "--no-diis", action="store_true", help="disable DIIS acceleration"
    )
    p_scf.add_argument(
        "--store", metavar="DIR", default=None,
        help="directory for the memory-mapped stored-integral layer "
        "(conventional SCF: iterations after the first recompute zero "
        "ERIs; see docs/PERFORMANCE.md)",
    )
    p_scf.add_argument(
        "--jk-threads", type=int, default=None, metavar="N",
        help="worker threads for the class-batched J/K contraction "
        "(default: REPRO_JK_THREADS or serial)",
    )
    p_scf.add_argument(
        "--guard", action="store_true",
        help="arm the convergence guard (watchdog + remediation ladder; "
        "see docs/ROBUSTNESS.md)",
    )
    p_scf.add_argument(
        "--guard-patience", type=int, default=2, metavar="N",
        help="bad classifications before escalating one ladder rung",
    )
    p_scf.add_argument(
        "--guard-window", type=int, default=6, metavar="N",
        help="history length the classifier looks back over",
    )
    p_scf.add_argument(
        "--guard-max-nonfinite", type=int, default=3, metavar="N",
        help="non-finite events tolerated before aborting with GuardError",
    )
    p_scf.add_argument(
        "--integrity", action="store_true",
        help="arm the data-integrity layer: ABFT checks on F/D each "
        "iteration, CRC-verified stored-integral reads, verified "
        "recovery (see docs/ROBUSTNESS.md)",
    )

    for name in (
        "table2", "table3", "table4", "table5", "table6", "table7",
        "table8", "table9", "fig1", "fig2", "model",
    ):
        sub.add_parser(name, help=f"regenerate {name}", parents=[obs_flags])

    p_abl = sub.add_parser(
        "ablation", help="design-choice ablations", parents=[obs_flags]
    )
    p_abl.add_argument("kind", choices=["reorder", "steal", "grain"])
    p_abl.add_argument("--molecule", default="C24H12")

    p_rep = sub.add_parser(
        "report",
        help="run a numeric Fock build and write an HTML run report",
        parents=[obs_flags],
    )
    p_rep.add_argument("molecule", nargs="?", default="water")
    p_rep.add_argument("--basis", default="6-31g")
    p_rep.add_argument("--nproc", type=int, default=4)
    p_rep.add_argument("--out", default="run-report.html", metavar="PATH")
    p_rep.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero if any model-vs-measured deviation FAILs",
    )
    p_rep.add_argument(
        "--no-embedded-trace",
        action="store_true",
        help="skip embedding the Perfetto trace in the report",
    )
    p_rep.add_argument(
        "--scf-guard",
        action="store_true",
        help="run a guarded RHF of the same system first and include "
        "its convergence-guard section in the report",
    )

    p_an = sub.add_parser(
        "analyze",
        help="critical-path analysis + what-if projections of a simulated "
        "GTFock build (see docs/OBSERVABILITY.md)",
        parents=[obs_flags],
    )
    p_an.add_argument("molecule", nargs="?", default="water")
    p_an.add_argument("--basis", default="sto-3g")
    p_an.add_argument(
        "--cores", type=int, default=48,
        help="total simulated cores (ranks = cores // cores_per_node)",
    )
    p_an.add_argument(
        "--tau", type=float, default=1e-10, help="screening threshold"
    )
    p_an.add_argument(
        "--network-scale", type=float, default=2.0, metavar="F",
        help="slowdown factor of the network what-if (latency xF, "
        "bandwidth /F)",
    )
    p_an.add_argument(
        "--no-resim", action="store_true",
        help="skip the what-if re-simulation cross-checks (faster; "
        "verdicts stay PROJECTED)",
    )
    p_an.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full analysis as JSON",
    )
    p_an.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the critical-path HTML report",
    )
    p_an.add_argument(
        "--check", action="store_true",
        help="exit nonzero if the exact-decomposition invariant drifts "
        "or any cross-checked what-if FAILs",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="run a fault-injected numeric build and verify it against "
        "the fault-free run (see docs/ROBUSTNESS.md)",
        parents=[obs_flags],
    )
    p_chaos.add_argument("molecule", nargs="?", default="water")
    p_chaos.add_argument("--basis", default="sto-3g")
    p_chaos.add_argument("--nproc", type=int, default=4)
    p_chaos.add_argument(
        "--family", choices=["runtime", "scf", "service", "sdc"],
        default="runtime",
        help="runtime = rank deaths / lossy ops on the simulated machine; "
        "scf = seeded NaN/Inf corruption of batched ERI blocks, rescued "
        "by the convergence guard's sentinel; service = seeded SIGKILLs "
        "of real queue workers -- every job must still reach done with "
        "its fault-free energy; sdc = silent bit flips into checkpoint "
        "files, stored ERI blocks, accumulate payloads, and in-flight "
        "F/D matrices -- every one must be detected and repaired, and "
        "the run must still land on the clean energy",
    )
    p_chaos.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="(sdc family) work tree for stores/checkpoints; kept after "
        "the run so 'repro verify' can audit the planted corruption "
        "(default: a tempdir, removed on exit)",
    )
    p_chaos.add_argument(
        "--jobs", type=int, default=8,
        help="(service family) jobs to submit",
    )
    p_chaos.add_argument(
        "--workers", type=int, default=3,
        help="(service family) worker processes in the pool",
    )
    p_chaos.add_argument(
        "--kills", type=int, default=2,
        help="(service family) seeded worker SIGKILLs to inject",
    )
    p_chaos.add_argument(
        "--queue", default=None, metavar="DIR",
        help="(service family) queue directory (default: a fresh tempdir)",
    )
    p_chaos.add_argument(
        "--lease", type=float, default=2.0, metavar="S",
        help="(service family) job lease duration in seconds",
    )
    p_chaos.add_argument(
        "--service-basis", default="6-31g", metavar="NAME",
        help="(service family) basis for the submitted jobs (6-31g "
        "default: jobs must outlive the kill window to be interesting)",
    )
    p_chaos.add_argument(
        "--quartet-nan-rate", type=float, default=0.05,
        help="(scf family) per-quartet-block corruption probability",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0,
        help="seed of the random fault plan (same seed -> same run)",
    )
    p_chaos.add_argument(
        "--deaths", type=int, default=1, help="ranks to kill mid-run"
    )
    p_chaos.add_argument(
        "--stragglers", type=int, default=1, help="slowed-down ranks"
    )
    p_chaos.add_argument("--op-fail-rate", type=float, default=0.05)
    p_chaos.add_argument("--delay-rate", type=float, default=0.05)
    p_chaos.add_argument(
        "--tolerance", type=float, default=1e-12,
        help="max allowed |dF| vs the fault-free build",
    )
    p_chaos.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the chaos HTML run report",
    )
    p_chaos.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write a JSON summary (errors + recovery overhead)",
    )

    # -- SCF-as-a-service (docs/ROBUSTNESS.md "Service resilience") ------
    def _queue_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--queue", default="repro-queue", metavar="DIR",
            help="queue directory (holds queue.db + per-job artifact dirs)",
        )

    p_serve = sub.add_parser(
        "serve",
        help="run the durable-queue worker pool (leases, retries, "
        "timeouts; see docs/ROBUSTNESS.md)",
        parents=[obs_flags],
    )
    _queue_flag(p_serve)
    p_serve.add_argument(
        "--workers", type=int, default=3, metavar="N",
        help="worker processes in the pool",
    )
    p_serve.add_argument(
        "--drain", action="store_true",
        help="exit once every job is terminal (instead of serving forever)",
    )
    p_serve.add_argument(
        "--poll", type=float, default=0.25, metavar="S",
        help="supervisor tick / worker idle-claim interval",
    )
    p_serve.add_argument(
        "--grace", type=float, default=2.0, metavar="S",
        help="SIGTERM-to-SIGKILL grace window for timed-out workers",
    )
    p_serve.add_argument(
        "--wall-limit", type=float, default=None, metavar="S",
        help="hard bound on the serve loop (CI safety net)",
    )

    p_sub = sub.add_parser(
        "submit", help="enqueue an SCF job on the durable queue",
        parents=[obs_flags],
    )
    p_sub.add_argument("molecule")
    p_sub.add_argument("--basis", default="sto-3g")
    _queue_flag(p_sub)
    p_sub.add_argument("--priority", type=int, default=0)
    p_sub.add_argument(
        "--max-attempts", type=int, default=5, metavar="N",
        help="attempts before the job is quarantined",
    )
    p_sub.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="per-job wall-clock budget (exceeding it kills the worker)",
    )
    p_sub.add_argument(
        "--lease", type=float, default=30.0, metavar="S",
        help="lease duration; renewed by heartbeat every SCF iteration",
    )
    p_sub.add_argument("--max-iter", type=int, default=None)
    p_sub.add_argument(
        "--jk-threads", type=int, default=None, metavar="N",
        help="threaded J/K contraction width (dropped to 1 on "
        "MemoryError retries)",
    )
    p_sub.add_argument(
        "--cache-mb", type=float, default=None, metavar="MB",
        help="in-memory ERI store bound in MiB: the first Fock build "
        "records chunks up to it, later builds read them back (dropped "
        "on MemoryError retries; exclusive with --store)",
    )
    p_sub.add_argument(
        "--store", default=None, metavar="DIR",
        help="shared stored-integral directory (cross-process file "
        "locking keeps concurrent fills safe)",
    )
    p_sub.add_argument(
        "--guard", action="store_true", help="arm the convergence guard"
    )
    p_sub.add_argument(
        "--integrity", action="store_true",
        help="arm the data-integrity layer (unrecoverable corruption "
        "quarantines the job instead of retrying it)",
    )

    p_stat = sub.add_parser(
        "status", help="job table + per-state counts of the durable queue",
        parents=[obs_flags],
    )
    _queue_flag(p_stat)
    p_stat.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full job table as JSON",
    )

    p_cancel = sub.add_parser(
        "cancel", help="cancel a queued/leased/running job",
        parents=[obs_flags],
    )
    p_cancel.add_argument("job_id", type=int)
    _queue_flag(p_cancel)

    p_drain = sub.add_parser(
        "drain",
        help="wait until the queue is empty; exit 0 only if every job "
        "ended done",
        parents=[obs_flags],
    )
    _queue_flag(p_drain)
    p_drain.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="give up (exit 2) after this long",
    )
    p_drain.add_argument(
        "--poll", type=float, default=0.5, metavar="S",
        help="poll interval",
    )

    p_verify = sub.add_parser(
        "verify",
        help="offline integrity audit of every store / checkpoint / run "
        "ledger under a directory (see docs/ROBUSTNESS.md)",
        parents=[obs_flags],
    )
    p_verify.add_argument("directory", metavar="DIR")
    p_verify.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the audit report as JSON",
    )

    p_tort = sub.add_parser(
        "torture",
        help="run the SCF torture suite under the convergence guard "
        "(see docs/ROBUSTNESS.md)",
        parents=[obs_flags],
    )
    p_tort.add_argument(
        "--quick", action="store_true", help="CI subset of the suite"
    )
    p_tort.add_argument(
        "--no-vanilla", action="store_true",
        help="skip the guard-off contrast runs",
    )
    p_tort.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the torture HTML report",
    )
    p_tort.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the outcome records as JSON",
    )

    p_perf = sub.add_parser(
        "perf",
        help="phase/hotspot profiling and the perf-regression observatory "
        "(see docs/PERFORMANCE.md)",
    )
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)
    pp_prof = perf_sub.add_parser(
        "profile",
        help="run a profiled RHF: phase wall/CPU table + cProfile hotspots",
        parents=[obs_flags],
    )
    pp_prof.add_argument("molecule", nargs="?", default="water")
    pp_prof.add_argument("--basis", default="6-31g")
    pp_prof.add_argument("--max-iter", type=int, default=100)
    pp_prof.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="hotspot rows to keep (by cumulative time)",
    )
    pp_prof.add_argument(
        "--alloc", action="store_true",
        help="attribute tracemalloc peak allocations to phases (slow)",
    )
    pp_check = perf_sub.add_parser(
        "check",
        help="grade the BENCH_*.json trajectories; exit 1 on FAIL",
        parents=[obs_flags],
    )
    pp_check.add_argument(
        "--history", action="append", metavar="PATH",
        help="BENCH history file (repeatable; default: BENCH_eri.json "
        "and BENCH_fock.json in the current directory)",
    )
    pp_check.add_argument(
        "--quick", action="store_true",
        help="grade only machine-independent metrics (ratios, error "
        "bounds) -- for CI hardware that never wrote the history",
    )
    pp_check.add_argument(
        "--last", type=int, default=8, metavar="K",
        help="baseline window: median over the last K prior points",
    )
    pp_check.add_argument(
        "--runs", default=None, metavar="DIR",
        help="also grade completed run-ledger directories under DIR",
    )
    pp_check.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the findings as JSON",
    )
    pp_hist = perf_sub.add_parser(
        "history",
        help="print the tracked-metric trajectories",
        parents=[obs_flags],
    )
    pp_hist.add_argument(
        "--history", action="append", metavar="PATH",
        help="BENCH history file (repeatable)",
    )
    pp_hist.add_argument(
        "--points", type=int, default=6, metavar="N",
        help="trajectory points to show per metric",
    )

    sub.add_parser(
        "info",
        help="print the provenance block (versions, git SHA, CPU count)",
        parents=[obs_flags],
    )
    sub.add_parser(
        "list", help="list built-in molecules and bases", parents=[obs_flags]
    )

    args = parser.parse_args(argv)

    # fail fast on unwritable output paths -- a long run must not end
    # in a traceback with its trace/metrics lost
    out_path = getattr(args, "out", None)
    for path in (
        args.trace,
        args.metrics,
        out_path,
        getattr(args, "report", None),
        getattr(args, "json", None),
    ):
        if path:
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                parser.error(f"cannot write {path}: directory {parent!r} does not exist")
            if not os.access(parent, os.W_OK):
                parser.error(f"cannot write {path}: directory {parent!r} is not writable")

    from repro.obs import MetricsRegistry, Tracer, set_metrics, set_tracer

    tracer = Tracer("repro") if args.trace else None
    prev_tracer = set_tracer(tracer) if tracer is not None else None
    prev_metrics = set_metrics(MetricsRegistry()) if args.metrics else None
    profiler = None
    prev_profiler = None
    if getattr(args, "profile", False):
        from repro.obs.profile import PhaseProfiler, set_profiler

        profiler = PhaseProfiler()
        prev_profiler = set_profiler(profiler)
    ledger = None
    prev_ledger = None
    run_dir = getattr(args, "run_dir", None)
    if run_dir:
        from repro.obs.manifest import RunLedger, set_ledger

        config = {
            k: v for k, v in vars(args).items()
            if k not in ("command", "trace", "metrics", "run_dir")
            and v is not None
        }
        ledger = RunLedger(
            run_dir,
            command=args.command,
            config=config,
            molecule=getattr(args, "molecule", None),
            basis=getattr(args, "basis", None),
            seed=getattr(args, "seed", None),
            argv=list(argv) if argv is not None else None,
        )
        prev_ledger = set_ledger(ledger)
    rc = 1  # an escaping exception seals the ledger as a failed run
    try:
        if args.command == "scf":
            rc = _run_scf(args)
        elif args.command == "ablation":
            rc = _run_ablation(args)
        elif args.command == "report":
            rc = _run_report(args)
        elif args.command == "analyze":
            rc = _run_analyze(args)
        elif args.command == "chaos":
            rc = _run_chaos(args)
        elif args.command == "serve":
            rc = _run_serve(args)
        elif args.command == "submit":
            rc = _run_submit(args)
        elif args.command == "status":
            rc = _run_status(args)
        elif args.command == "cancel":
            rc = _run_cancel(args)
        elif args.command == "drain":
            rc = _run_drain(args)
        elif args.command == "verify":
            rc = _run_verify(args)
        elif args.command == "torture":
            rc = _run_torture(args)
        elif args.command == "perf":
            rc = _run_perf(args)
        elif args.command == "info":
            rc = _run_info()
        elif args.command == "list":
            rc = _run_list()
        else:
            rc = _run_experiment(args.command)
        return rc
    finally:
        if profiler is not None:
            from repro.obs.profile import set_profiler

            set_profiler(prev_profiler)
            profiler.export_metrics()
            if profiler.stats:
                print("phase profile:", file=sys.stderr)
                print(profiler.table(), file=sys.stderr)
            profiler.close()
        if ledger is not None:
            from repro.obs.manifest import set_ledger

            # attach before close: the summary carries the phase table
            if profiler is not None and profiler.stats:
                ledger.attach_profile(profiler)
            ledger.close(rc)
            set_ledger(prev_ledger)
            print(f"run ledger written to {run_dir}", file=sys.stderr)
        if tracer is not None:
            set_tracer(prev_tracer)
            tracer.write(args.trace)
            print(f"trace written to {args.trace}", file=sys.stderr)
        if prev_metrics is not None:
            from repro.obs import get_metrics

            get_metrics().write(args.metrics)
            set_metrics(prev_metrics)
            print(f"metrics written to {args.metrics}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
