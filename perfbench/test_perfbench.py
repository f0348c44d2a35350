"""Self-tests of the benchmark: its checks, its tracing and its inputs.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.chem.builders import water, water_cluster  # noqa: E402


def test_rigid_motion_is_seeded_and_rigid():
    mol = water_cluster(2, 1, 1)
    a = workloads.rigid_motion(mol, np.random.default_rng(5))
    b = workloads.rigid_motion(mol, np.random.default_rng(5))
    c = workloads.rigid_motion(mol, np.random.default_rng(6))
    assert np.array_equal(a.coords, b.coords)
    assert not np.allclose(a.coords, c.coords)

    def distances(m):
        r = m.coords
        return np.linalg.norm(r[:, None] - r[None], axis=-1)

    np.testing.assert_allclose(distances(a), distances(mol), atol=1e-12)


def test_scf_check_rejects_a_planted_energy(tmp_path):
    good = workloads.ScfWorkload(
        water, workloads.WATER_631G_ENERGY, True, 1, tmp_path
    )
    good.setup()
    assert good.op().ok
    planted = workloads.ScfWorkload(
        water, workloads.WATER_631G_ENERGY + 2 * workloads.ENERGY_TOL, True, 1,
        tmp_path,
    )
    planted.setup()
    out = planted.op()
    assert not out.ok and out.err > 1.0
    assert not list(tmp_path.iterdir()), "store directories were left behind"


def test_dist_check_rejects_a_planted_fock_element(tmp_path):
    wl = workloads.DistFockWorkload(0, tmp_path)
    wl.setup()
    wl.reference = wl.reference.copy()
    wl.reference[3, 5] += 10 * workloads.FOCK_TOL
    out = wl.op()
    assert not out.ok and out.err > 1.0


def test_artifact_checks_reject_planted_cells():
    ref = json.loads(workloads.REFERENCE_CELLS.read_text())["cells"]
    assert workloads.cell_deviation(dict(ref), ref) == 0.0
    key = next(k for k, v in ref.items() if k.startswith("table3_times/") and v)
    planted = dict(ref)
    planted[key] *= 1 + 10 * workloads.CELL_RTOL
    assert workloads.cell_deviation(planted, ref) > 1.0
    missing = dict(ref)
    missing.pop(key)
    assert workloads.cell_deviation(missing, ref) > 1.0


def test_artifact_invariants_reject_a_planted_counter():
    from repro.bench.harness import molecule_setup
    from repro.chem.builders import alkane
    from repro.fock.simulate import simulate_nwchem

    setup = molecule_setup("C4H10", alkane(4))
    res = simulate_nwchem(setup.basis, setup.screen, 12, costs=setup.costs)
    assert workloads.sim_invariants({"nw": res}) == []
    res.counter_accesses += 1
    assert workloads.sim_invariants({"nw": res})


def test_self_times_account_for_op_wall_time(tmp_path):
    wl = workloads.ScfWorkload(
        water, workloads.WATER_631G_ENERGY, True, 2, tmp_path
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_op("setup", wl.setup)
        outs = [tracer.run_op(i, wl.op) for i in range(3)]
    finally:
        tracer.uninstall()
    assert all(o.ok for o in outs)
    rows = [tracer.per_op()[i] for i in range(3)]
    for row in rows:
        assert row["accounted_s"] == pytest.approx(row["wall_s"], rel=1e-9)
        assert row["integrals.jk_scatter_s"] > 0
        assert row["integrals.store_read_s"] > 0
    # the traced layers, not the untraced remainder, hold the op's time;
    # a median, because freeing an op's arrays can stall one op briefly
    shares = sorted(r[tracing.UNATTRIBUTED] / r["wall_s"] for r in rows)
    assert shares[1] < 0.1, shares
    out = outs[0]

    # the traced run reports exactly the per-layer metrics BENCHMARK.json names
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = run.layer_metrics(tracer, [out], [1.0], [1.0])
    assert set(layers) | {"error_rate", "max_err"} == {
        m["name"] for m in spec["per_layer"]
    }
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]}
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_wrappers_are_gone_after_uninstall():
    import repro.scf.hf as hf
    from repro.integrals.engine import ERIEngine
    from repro.runtime.network import CommStats

    originals = (hf.fock_matrix, ERIEngine.__dict__["quartet"],
                 CommStats.__dict__["charge_comm"])
    assert tracing.installed_wrappers() == []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        found = tracing.installed_wrappers()
        assert "repro.scf.hf:fock_matrix" in found
        assert "repro.runtime.network:CommStats.charge_comm" in found
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert originals == (hf.fock_matrix, ERIEngine.__dict__["quartet"],
                         CommStats.__dict__["charge_comm"])


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dist_fock",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
