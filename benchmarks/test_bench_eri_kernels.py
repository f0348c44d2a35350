"""ERI kernel microbenchmark: class-batched vs batched vs seed, store reuse.

Times the water Fock-build microbenchmark five ways:

* **seed**: the per-primitive Python-loop MD kernel
  (``MDEngine(batched=False)``), the original baseline;
* **batched**: the pair-cached, per-quartet batched-primitive kernel
  (``MDEngine(class_batched=False)``, :mod:`repro.integrals.pairdata`);
* **class**: the cross-quartet class-batched path
  (:mod:`repro.integrals.class_batch`) -- the default engine -- checked
  against the seed kernel to 1e-12 and gated at >= 10x over seed;
* **cached**: two successive direct-SCF-style builds through the
  byte-bounded in-memory :class:`~repro.integrals.store.ERIStore`
  behind ``cache_mb`` (second-iteration hit rate);
* **stored**: conventional-SCF mode through an on-disk
  :class:`~repro.integrals.store.ERIStore` -- iteration 1 fills the
  store, iteration 2 must recompute **zero** quartets.

A second measurement (``eri_kernels_large``) runs benzene/6-31G through
the class-batched and stored paths only (the seed kernel is impractical
at that size); numerics are spot-checked on a sampled quartet subset
against the PR-2 batched kernel.

Each full run appends one datapoint per benchmark to ``BENCH_eri.json``
at the repo root -- the perf trajectory future PRs extend and compare
against.

Run as a pytest benchmark (``pytest benchmarks/test_bench_eri_kernels.py``)
or as a script; ``--quick`` runs a small STO-3G smoke variant covering
the class-batched and stored paths (used by CI) and does not touch the
history file.
"""

from __future__ import annotations

import os
import pathlib
import sys
import tempfile
import time

import numpy as np

from repro.bench.harness import format_table
from repro.bench.record import append_history as _append_history
from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import benzene, water
from repro.integrals.class_batch import compute_class_rows
from repro.integrals.engine import MDEngine
from repro.obs.manifest import provenance
from repro.scf.fock import build_jk

from test_bench_dist_fock import _cpu_model

HISTORY_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_eri.json"

#: minimum acceptable batched-over-seed speedup in the full benchmark
#: (the PR-2 issue targets >= 3x; asserted with headroom for loaded machines)
FULL_SPEEDUP_FLOOR = 2.0

#: minimum acceptable class-batched-over-seed speedup in the full benchmark
#: (the PR-7 issue targets >= 10x on water/6-31G)
CLASS_SPEEDUP_FLOOR = 10.0


def _host() -> dict:
    """Host fingerprint stamped on every datapoint."""
    return dict(
        provenance(), cpu=_cpu_model(),
        blas_threads=os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    )


def _timed_build(engine, density, tau=1e-11):
    t0 = time.perf_counter()
    j, k = build_jk(engine, density, tau)
    return time.perf_counter() - t0, j, k


def _stored_iter2(basis, density, store_dir):
    """Fill an ERIStore in iteration 1; time iteration 2 served from it.

    Returns ``(t_iter2, recomputed_in_iter2, j, k)``.
    """
    engine = MDEngine(basis, store=store_dir)
    build_jk(engine, density)  # iteration 1: fills + finalizes the store
    computed0 = engine.quartets_computed
    t_iter2, j, k = _timed_build(engine, density)
    recomputed = engine.quartets_computed - computed0
    return t_iter2, recomputed, j, k


def run_eri_kernel_bench(basis_name: str = "6-31g") -> dict:
    """One full measurement: seed / batched / class / cached / stored."""
    mol = water()
    basis = BasisSet.build(mol, basis_name)
    rng = np.random.default_rng(17)
    d = rng.normal(size=(basis.nbf, basis.nbf))
    d = (d + d.T) / 2.0

    t_seed, j0, k0 = _timed_build(MDEngine(basis, batched=False), d)
    t_batched, j1, k1 = _timed_build(MDEngine(basis, class_batched=False), d)
    max_diff = float(
        max(np.max(np.abs(j0 - j1)), np.max(np.abs(k0 - k1)))
    )

    class_engine = MDEngine(basis)
    t_class, jc, kc = _timed_build(class_engine, d)
    class_diff = float(
        max(np.max(np.abs(j0 - jc)), np.max(np.abs(k0 - kc)))
    )

    cached = MDEngine(basis, cache_mb=64.0)
    t_iter1, _, _ = _timed_build(cached, d)
    hits0 = cached.quartets_served_from_cache
    misses0 = cached.quartets_computed
    t_iter2, j2, k2 = _timed_build(cached, d)
    hits = cached.quartets_served_from_cache - hits0
    misses = cached.quartets_computed - misses0
    cache_diff = float(
        max(np.max(np.abs(j0 - j2)), np.max(np.abs(k0 - k2)))
    )

    with tempfile.TemporaryDirectory(prefix="eri_store_") as store_dir:
        t_stored, recomputed, js, ks = _stored_iter2(basis, d, store_dir)
    stored_diff = float(
        max(np.max(np.abs(j0 - js)), np.max(np.abs(k0 - ks)))
    )

    return {
        "benchmark": "eri_kernels",
        "molecule": "H2O",
        "basis": basis_name,
        "nshells": basis.nshells,
        "nbf": basis.nbf,
        "quartets": class_engine.quartets_computed,
        "t_seed_s": round(t_seed, 4),
        "t_batched_s": round(t_batched, 4),
        "batched_speedup": round(t_seed / t_batched, 2),
        "max_abs_diff": max_diff,
        "t_class_s": round(t_class, 4),
        "class_batched_speedup": round(t_seed / t_class, 2),
        "class_max_abs_diff": class_diff,
        "cache_max_abs_diff": cache_diff,
        "t_cached_iter1_s": round(t_iter1, 4),
        "t_cached_iter2_s": round(t_iter2, 4),
        "cache_iter2_hits": hits,
        "cache_iter2_misses": misses,
        "cache_iter2_hit_rate": round(hits / max(1, hits + misses), 4),
        "cache_bytes_held": cached.integral_store.nbytes,
        "stored_iter2_s": round(t_stored, 4),
        "store_iter2_recomputed": recomputed,
        "stored_max_abs_diff": stored_diff,
        "host": _host(),
    }


def run_eri_large_bench(basis_name: str = "6-31g", nsample: int = 64) -> dict:
    """Benzene through the class-batched + stored paths (no seed timing).

    Numerics are verified on ``nsample`` randomly sampled surviving
    quartets against the per-quartet batched kernel.
    """
    mol = benzene()
    basis = BasisSet.build(mol, basis_name)
    rng = np.random.default_rng(23)
    d = rng.normal(size=(basis.nbf, basis.nbf))
    d = (d + d.T) / 2.0

    engine = MDEngine(basis)
    t_class, _, _ = _timed_build(engine, d)
    quartets = engine.quartets_computed

    # spot-check: sampled rows computed through the class-batched kernel
    # itself (compute_class_rows) vs the per-quartet batched kernel
    ref = MDEngine(basis, class_batched=False)
    plan = engine.class_plan(1e-11)
    batch_of = np.concatenate([
        np.full(b.nq, i, dtype=np.int64) for i, b in enumerate(plan.batches)
    ])
    row_of = np.concatenate([
        np.arange(b.nq, dtype=np.int64) for b in plan.batches
    ])
    pick = rng.choice(len(batch_of), size=min(nsample, len(batch_of)),
                      replace=False)
    sample_diff = 0.0
    for bi in np.unique(batch_of[pick]):
        batch = plan.batches[bi]
        rows = row_of[pick[batch_of[pick] == bi]]
        blocks = compute_class_rows(batch, rows)
        for blk, (m, n, p, q) in zip(blocks, batch.quartets[rows]):
            r = ref.quartet(int(m), int(n), int(p), int(q))
            sample_diff = max(sample_diff, float(np.max(np.abs(blk - r))))

    with tempfile.TemporaryDirectory(prefix="eri_store_") as store_dir:
        t_stored, recomputed, _, _ = _stored_iter2(basis, d, store_dir)

    return {
        "benchmark": "eri_kernels_large",
        "molecule": "C6H6",
        "basis": basis_name,
        "nshells": basis.nshells,
        "nbf": basis.nbf,
        "quartets": quartets,
        "t_class_s": round(t_class, 4),
        "stored_iter2_s": round(t_stored, 4),
        "store_iter2_recomputed": recomputed,
        "sample_max_abs_diff": sample_diff,
        "host": _host(),
    }


def append_history(entry: dict, path: pathlib.Path = HISTORY_PATH) -> None:
    """Append one datapoint to the BENCH_eri.json trajectory."""
    _append_history(
        entry, path,
        description="ERI kernel perf trajectory (see docs/PERFORMANCE.md)",
    )


def render_report(result: dict) -> str:
    rows = [
        ["seed per-primitive", result["t_seed_s"], 1.0],
        ["batched + pair cache", result["t_batched_s"],
         result["batched_speedup"]],
        ["class-batched", result["t_class_s"],
         result["class_batched_speedup"]],
        ["in-memory store iter 2", result["t_cached_iter2_s"],
         round(result["t_seed_s"] / max(result["t_cached_iter2_s"], 1e-12), 2)],
        ["stored iter 2", result["stored_iter2_s"],
         round(result["t_seed_s"] / max(result["stored_iter2_s"], 1e-12), 2)],
    ]
    table = format_table(
        ["kernel", "time [s]", "speedup"],
        rows,
        title=(
            f"ERI kernels: water/{result['basis']} J+K build "
            f"({result['quartets']} quartets, "
            f"class max |diff| {result['class_max_abs_diff']:.2e}, "
            f"iter-2 hit rate {result['cache_iter2_hit_rate']:.0%}, "
            f"stored iter-2 recomputed {result['store_iter2_recomputed']})"
        ),
    )
    return table


def render_large_report(result: dict) -> str:
    rows = [
        ["class-batched", result["t_class_s"]],
        ["stored iter 2", result["stored_iter2_s"]],
    ]
    return format_table(
        ["kernel", "time [s]"],
        rows,
        title=(
            f"ERI kernels (large): benzene/{result['basis']} J+K build "
            f"({result['quartets']} quartets, "
            f"sampled max |diff| {result['sample_max_abs_diff']:.2e}, "
            f"stored iter-2 recomputed {result['store_iter2_recomputed']})"
        ),
    )


def check_result(result: dict, quick: bool) -> None:
    """Regression gates: numerics exact, batched/class not slower than seed."""
    assert result["max_abs_diff"] < 1e-10, (
        f"batched kernel numerics drifted: {result['max_abs_diff']:.3e}"
    )
    assert result["class_max_abs_diff"] < 1e-12, (
        f"class-batched kernel numerics drifted: "
        f"{result['class_max_abs_diff']:.3e}"
    )
    assert result["cache_max_abs_diff"] < 1e-10, (
        f"cache-served blocks drifted: {result['cache_max_abs_diff']:.3e}"
    )
    assert result["stored_max_abs_diff"] < 1e-10, (
        f"store-served blocks drifted: {result['stored_max_abs_diff']:.3e}"
    )
    assert result["cache_iter2_hit_rate"] > 0.5, (
        f"second-iteration hit rate {result['cache_iter2_hit_rate']:.0%} <= 50%"
    )
    assert result["store_iter2_recomputed"] == 0, (
        f"stored mode recomputed {result['store_iter2_recomputed']} quartets "
        f"in iteration 2 (expected 0)"
    )
    floor = 1.0 if quick else FULL_SPEEDUP_FLOOR
    assert result["batched_speedup"] >= floor, (
        f"batched kernel is a speed regression: "
        f"{result['batched_speedup']:.2f}x < {floor}x over the seed path"
    )
    class_floor = 1.0 if quick else CLASS_SPEEDUP_FLOOR
    assert result["class_batched_speedup"] >= class_floor, (
        f"class-batched kernel below the speedup gate: "
        f"{result['class_batched_speedup']:.2f}x < {class_floor}x over seed"
    )


def check_large_result(result: dict) -> None:
    assert result["sample_max_abs_diff"] < 1e-10, (
        f"sampled class-batched blocks drifted: "
        f"{result['sample_max_abs_diff']:.3e}"
    )
    assert result["store_iter2_recomputed"] == 0, (
        f"stored mode recomputed {result['store_iter2_recomputed']} quartets "
        f"in iteration 2 (expected 0)"
    )


def test_eri_kernel_speedup(emit):
    result = run_eri_kernel_bench()
    emit(render_report(result))
    check_result(result, quick=False)
    append_history(result)


def test_eri_kernel_large(emit):
    result = run_eri_large_bench()
    emit(render_large_report(result))
    check_large_result(result)
    append_history(result)


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    result = run_eri_kernel_bench("sto-3g" if quick else "6-31g")
    print(render_report(result))
    check_result(result, quick=quick)
    if not quick:
        append_history(result)
        large = run_eri_large_bench()
        print(render_large_report(large))
        check_large_result(large)
        append_history(large)
        print(f"appended datapoints to {HISTORY_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
