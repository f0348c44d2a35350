"""Tests for the memory-mapped stored-integral mode (conventional SCF).

A store must round-trip blocks bitwise across processes (simulated by
fresh engines attaching to the same directory), refuse to serve a
mismatched basis, record honest provenance, and give SCF iterations
>= 2 zero ERI recomputation -- verified by engine counters.
"""

from __future__ import annotations

import json
from datetime import datetime

import numpy as np
import pytest

from repro.chem.basis.basisset import BasisSet
from repro.chem.builders import water
from repro.integrals.engine import MDEngine
from repro.integrals.store import (
    STORE_VERSION,
    ERIStore,
    StoreInvalidatedWarning,
    basis_fingerprint,
)
from repro.scf.fock import build_jk
from repro.scf.hf import RHF


def rand_density(rng, n):
    d = rng.normal(size=(n, n))
    return (d + d.T) / 2.0


_KEY = np.zeros((1, 4), dtype=np.int64)  # the (0, 0, 0, 0) quartet


def record_one(store, value):
    """Record a one-element (0,0,0,0) block holding ``value``."""
    store.record_batch(_KEY, np.full((1, 1, 1, 1, 1), value))


def read_one(store):
    """The stored (0,0,0,0) element, or None if the key is absent."""
    offs = store.offsets_for(_KEY)
    if offs is None or offs[0] < 0:
        return None
    return float(store.read_stacked(offs, 1, (1, 1, 1, 1)).ravel()[0])


@pytest.fixture
def sto3g_basis():
    return BasisSet.build(water(), "sto-3g")


class TestStoreLifecycle:
    def test_fill_finalize_then_zero_recompute(self, tmp_path, sto3g_basis):
        rng = np.random.default_rng(3)
        d = rand_density(rng, sto3g_basis.nbf)
        engine = MDEngine(sto3g_basis, store=tmp_path / "store")
        assert engine.integral_store.filling
        j1, k1 = build_jk(engine, d)
        assert engine.integral_store.ready
        computed = engine.quartets_computed
        assert computed > 0
        j2, k2 = build_jk(engine, d)
        assert engine.quartets_computed == computed
        assert engine.quartets_served_from_store == computed
        assert np.array_equal(j1, j2)
        assert np.array_equal(k1, k2)

    def test_bitwise_round_trip_across_engines(self, tmp_path, sto3g_basis):
        """A fresh engine attaching to the same directory reads the
        identical bytes back (simulates a new process/session)."""
        rng = np.random.default_rng(7)
        d = rand_density(rng, sto3g_basis.nbf)
        writer = MDEngine(sto3g_basis, store=tmp_path / "store")
        j1, k1 = build_jk(writer, d)

        reader = MDEngine(sto3g_basis, store=tmp_path / "store")
        assert reader.integral_store.ready
        j2, k2 = build_jk(reader, d)
        assert reader.quartets_computed == 0
        assert reader.quartets_served_from_store == writer.quartets_computed
        assert np.array_equal(j1, j2)
        assert np.array_equal(k1, k2)


class TestInvalidation:
    def test_basis_change_invalidates_and_refills(self, tmp_path):
        rng = np.random.default_rng(11)
        small = BasisSet.build(water(), "sto-3g")
        d = rand_density(rng, small.nbf)
        build_jk(MDEngine(small, store=tmp_path / "store"), d)

        big = BasisSet.build(water(), "6-31g")
        with pytest.warns(StoreInvalidatedWarning):
            engine = MDEngine(big, store=tmp_path / "store")
        assert engine.integral_store.filling
        d2 = rand_density(rng, big.nbf)
        j_stored, k_stored = build_jk(engine, d2)
        assert engine.quartets_computed > 0
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert manifest["basis_sha256"] == basis_fingerprint(big)
        j_ref, k_ref = build_jk(MDEngine(big), d2)
        assert np.array_equal(j_stored, j_ref)
        assert np.array_equal(k_stored, k_ref)

    def test_unreadable_manifest_invalidates(self, tmp_path, sto3g_basis):
        rng = np.random.default_rng(13)
        d = rand_density(rng, sto3g_basis.nbf)
        build_jk(MDEngine(sto3g_basis, store=tmp_path / "store"), d)
        (tmp_path / "store" / "manifest.json").write_text("{not json")
        with pytest.warns(StoreInvalidatedWarning):
            store = ERIStore(tmp_path / "store", sto3g_basis).open_or_fill()
        assert store.filling and not store.ready


class TestManifestProvenance:
    def test_manifest_fields(self, tmp_path, sto3g_basis):
        rng = np.random.default_rng(17)
        d = rand_density(rng, sto3g_basis.nbf)
        engine = MDEngine(sto3g_basis, store=tmp_path / "store")
        build_jk(engine, d, tau=1e-11)
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert manifest["version"] == STORE_VERSION
        assert manifest["basis_sha256"] == basis_fingerprint(sto3g_basis)
        assert manifest["basis_name"] == "sto-3g"
        assert manifest["tau"] == 1e-11
        assert manifest["nbf"] == sto3g_basis.nbf
        assert manifest["nshells"] == sto3g_basis.nshells
        assert manifest["nblocks"] == engine.quartets_computed
        created = datetime.fromisoformat(manifest["created"])
        assert created.tzinfo is not None  # tz-aware UTC, never naive

    def test_stats_snapshot(self, tmp_path, sto3g_basis):
        rng = np.random.default_rng(19)
        d = rand_density(rng, sto3g_basis.nbf)
        engine = MDEngine(sto3g_basis, store=tmp_path / "store")
        build_jk(engine, d)
        stats = engine.integral_store.stats()
        assert stats["ready"] and not stats["filling"]
        assert stats["nblocks"] == engine.quartets_computed
        assert stats["nbytes"] > 0
        assert stats["pending_blocks"] == 0


class TestStoredSCF:
    def test_rhf_iterations_after_first_recompute_nothing(self, tmp_path):
        """The acceptance criterion: conventional SCF through
        ``RHF(integral_store=...)`` computes each screened quartet exactly
        once -- every iteration >= 2 is served entirely from the store."""
        scf = RHF(water(), integral_store=str(tmp_path / "store"))
        result = scf.run()
        assert result.converged
        assert result.iterations >= 2
        engine = scf.engine
        # each unique screened quartet computed exactly once, ever
        assert engine.quartets_computed == engine.integral_store.nblocks
        # every Fock build after the first (iterations 2..N plus the
        # final post-convergence build) is a full sweep served from disk
        assert engine.quartets_served_from_store == (
            result.iterations * engine.quartets_computed
        )

    def test_stored_scf_energy_matches_direct(self, tmp_path):
        direct = RHF(water()).run()
        stored = RHF(water(), integral_store=str(tmp_path / "store")).run()
        assert stored.energy == pytest.approx(direct.energy, abs=1e-10)

    def test_store_reused_across_scf_runs(self, tmp_path):
        first = RHF(water(), integral_store=str(tmp_path / "store"))
        first.run()
        second = RHF(water(), integral_store=str(tmp_path / "store"))
        result = second.run()
        assert result.converged
        assert second.engine.quartets_computed == 0
        assert second.engine.quartets_served_from_store > 0


class TestProcessSafety:
    """Cross-process hardening: atomic finalize, crash recovery, flock."""

    def _filled_store(self, tmp_path, basis, name="store"):
        store = ERIStore(tmp_path / name, basis).open_or_fill()
        record_one(store, 0.25)
        return store

    def test_crash_before_manifest_write_recovers(
        self, tmp_path, sto3g_basis, monkeypatch
    ):
        """A finalize killed after the data files but before the
        manifest leaves a store that a fresh open refills from scratch
        -- the manifest-last ordering makes the crash detectable."""
        import repro.integrals.store as store_mod

        store = self._filled_store(tmp_path, sto3g_basis)
        real_replace = store_mod.os.replace

        def crashing_replace(src, dst):
            if str(dst).endswith("manifest.json"):
                raise OSError("simulated crash mid-finalize")
            return real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "replace", crashing_replace)
        with pytest.raises(OSError, match="simulated crash"):
            store.finalize(tau=1e-10)
        monkeypatch.undo()
        # data files landed but no manifest: the store must NOT attach
        assert (tmp_path / "store" / "blocks.bin").exists()
        assert not (tmp_path / "store" / "manifest.json").exists()
        fresh = ERIStore(tmp_path / "store", sto3g_basis).open_or_fill()
        assert fresh.filling and not fresh.ready
        record_one(fresh, 0.25)
        fresh.finalize(tau=1e-10)
        assert fresh.ready
        assert read_one(fresh) == 0.25

    def test_crash_before_index_write_recovers(
        self, tmp_path, sto3g_basis, monkeypatch
    ):
        import repro.integrals.store as store_mod

        store = self._filled_store(tmp_path, sto3g_basis)
        real_replace = store_mod.os.replace

        def crashing_replace(src, dst):
            if str(dst).endswith("index.npz"):
                raise OSError("simulated crash mid-finalize")
            return real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "replace", crashing_replace)
        with pytest.raises(OSError):
            store.finalize(tau=1e-10)
        monkeypatch.undo()
        fresh = ERIStore(tmp_path / "store", sto3g_basis).open_or_fill()
        assert fresh.filling and not fresh.ready

    def test_concurrent_finalize_attaches_not_clobbers(
        self, tmp_path, sto3g_basis
    ):
        """Two writers race to finalize the same directory: the loser
        attaches to the winner's store instead of overwriting it."""
        winner = self._filled_store(tmp_path, sto3g_basis)
        winner.finalize(tau=1e-10)
        created = winner.manifest["created"]

        loser = ERIStore(tmp_path / "store", sto3g_basis)
        # simulate "was already filling when the winner finalized"
        loser.filling = True
        record_one(loser, 99.0)
        loser.finalize(tau=1e-10)
        assert loser.ready
        # the winner's bytes survived; the loser's 99.0 was discarded
        assert loser.manifest["created"] == created
        assert read_one(loser) == 0.25

    def test_lock_file_created_and_reentrant(self, tmp_path, sto3g_basis):
        store = self._filled_store(tmp_path, sto3g_basis)
        assert (tmp_path / "store" / ".lock").exists()
        with store._disk_lock():
            with store._disk_lock():  # reentrant: must not deadlock
                store.finalize(tau=1e-10)
        assert store.ready

    def test_two_processes_fill_same_store(self, tmp_path, sto3g_basis):
        """Real subprocesses racing open_or_fill/finalize on one
        directory both end up attached to a single consistent store."""
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from repro.chem.builders import water\n"
            "from repro.scf.hf import RHF\n"
            "r = RHF(water(), integral_store=sys.argv[1]).run()\n"
            "print(repr(r.energy))\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path / "store")],
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        energies = []
        for p in procs:
            out, _ = p.communicate(timeout=120)
            assert p.returncode == 0
            energies.append(float(out.strip()))
        assert energies[0] == energies[1]
        # the surviving store is valid for a third reader
        reader = ERIStore(tmp_path / "store", sto3g_basis).open_or_fill()
        assert reader.ready and reader.nblocks > 0


class TestInMemoryStore:
    """``cache_mb``: the in-memory backend, no files, bounded by bytes."""

    def test_rhf_builds_after_first_compute_nothing(self):
        rhf = RHF(water(), basis_name="6-31g", cache_mb=64)
        result = rhf.run()
        engine = rhf.engine
        store = engine.integral_store
        assert store.path is None and store.ready
        nq = engine.class_plan(rhf.tau).nquartets
        # one computing build, then iterations 2..N plus the final build
        assert engine.quartets_computed == nq
        assert engine.quartets_served_from_cache == result.iterations * nq
        assert engine.quartets_served_from_store == 0

    def test_bound_below_screened_set_matches_direct(self):
        direct = RHF(water(), basis_name="6-31g").run()
        rhf = RHF(water(), basis_name="6-31g", cache_mb=0.01)
        result = rhf.run()
        assert rhf.engine.integral_store.nbytes <= 0.01 * 2**20
        assert rhf.engine.quartets_served_from_cache > 0
        assert result.energy == pytest.approx(direct.energy, abs=1e-10)

    def test_cache_mb_and_disk_store_are_exclusive(self, tmp_path, sto3g_basis):
        with pytest.raises(ValueError, match="exclusive"):
            RHF(water(), cache_mb=64, integral_store=str(tmp_path / "s"))
        with pytest.raises(ValueError, match="exclusive"):
            MDEngine(sto3g_basis, cache_mb=64, store=tmp_path / "s")
        from repro.cli import main

        assert main([
            "submit", "water", "--cache-mb", "64",
            "--store", str(tmp_path / "s"), "--queue", str(tmp_path / "q"),
        ]) == 2
        assert not (tmp_path / "q").exists()
