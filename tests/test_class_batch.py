"""Tests for the cross-quartet class-batched ERI path.

The class-batched kernel, scatter, and threaded driver must reproduce
the per-quartet paths (PR-2 batched, seed MD, Obara-Saika) exactly to
summation order across mixed s/p/d bases, and its profiler attribution
must land one span per class chunk, not per quartet.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import Shell
from repro.chem.builders import water
from repro.integrals.class_batch import (
    EIGHT_PERMUTATIONS,
    build_class_plan,
    compute_class_rows,
    distinct_perms,
    iter_canonical_quartets,
    jk_for_quartets,
    jk_from_plan,
)
from repro.integrals.engine import MDEngine, OSEngine
from repro.obs.profile import (
    PHASE_ERI,
    PHASE_JK,
    PhaseProfiler,
    set_profiler,
)
from repro.scf.fock import build_jk


def rand_shell(rng, l, pure=False):
    n = int(rng.integers(1, 4))
    return Shell(
        l=l,
        exps=rng.uniform(0.2, 3.0, n),
        coefs=rng.uniform(0.3, 1.0, n),
        center=rng.uniform(-1.5, 1.5, 3),
        atom_index=0,
        pure=pure,
    )


def rand_basis(rng, nshells=6, lmax=2):
    """A small random mixed s/p/d basis (some pure d shells)."""
    shells = []
    for _ in range(nshells):
        l = int(rng.integers(0, lmax + 1))
        pure = bool(l == 2 and rng.integers(0, 2))
        shells.append(rand_shell(rng, l, pure=pure))
    return BasisSet(molecule=water(), shells=shells, name="rand")


def rand_density(rng, n):
    d = rng.normal(size=(n, n))
    return (d + d.T) / 2.0


class TestClassJKAgreement:
    """The class-batched J/K build vs every per-quartet path."""

    def test_matches_batched_seed_and_os_on_water(self):
        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(5)
        d = rand_density(rng, basis.nbf)
        j_cls, k_cls = build_jk(MDEngine(basis), d)
        j_bat, k_bat = build_jk(MDEngine(basis, class_batched=False), d)
        j_seed, k_seed = build_jk(MDEngine(basis, batched=False), d)
        j_os, k_os = build_jk(OSEngine(basis), d)
        for j, k in ((j_bat, k_bat), (j_seed, k_seed), (j_os, k_os)):
            assert np.allclose(j_cls, j, atol=1e-10, rtol=0)
            assert np.allclose(k_cls, k, atol=1e-10, rtol=0)

    @given(st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_matches_per_quartet_on_random_bases(self, seed):
        rng = np.random.default_rng(seed)
        basis = rand_basis(rng)
        d = rand_density(rng, basis.nbf)
        j_cls, k_cls = build_jk(MDEngine(basis), d, tau=0.0)
        j_ref, k_ref = build_jk(
            MDEngine(basis, class_batched=False), d, tau=0.0
        )
        assert np.allclose(j_cls, j_ref, atol=1e-10, rtol=0)
        assert np.allclose(k_cls, k_ref, atol=1e-10, rtol=0)

    def test_class_rows_match_engine_quartets(self):
        """compute_class_rows blocks == the per-quartet batched kernel."""
        basis = BasisSet.build(water(), "6-31g")
        engine = MDEngine(basis)
        ref = MDEngine(basis, class_batched=False)
        plan = engine.class_plan(1e-11)
        for batch in plan.batches[:4]:
            rows = np.arange(min(batch.nq, 8))
            blocks = compute_class_rows(batch, rows)
            for blk, (m, n, p, q) in zip(blocks, batch.quartets[rows]):
                expected = ref.quartet(int(m), int(n), int(p), int(q))
                assert np.allclose(blk, expected, atol=1e-12, rtol=0)

    def test_counts_computed_quartets_like_per_quartet_path(self):
        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(2)
        d = rand_density(rng, basis.nbf)
        e_cls = MDEngine(basis)
        e_ref = MDEngine(basis, class_batched=False)
        build_jk(e_cls, d)
        build_jk(e_ref, d)
        assert e_cls.quartets_computed == e_ref.quartets_computed


class TestDistinctPerms:
    """Pattern-uniform permutation lists behind the batched scatter."""

    @given(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_images_distinct_and_cover_orbit(self, vals):
        quartet = tuple(vals)
        perms = distinct_perms(quartet)
        images = [tuple(quartet[i] for i in perm) for perm in perms]
        assert len(images) == len(set(images))
        full_orbit = {
            tuple(quartet[i] for i in perm) for perm in EIGHT_PERMUTATIONS
        }
        assert set(images) == full_orbit

    def test_pattern_determines_perm_list(self):
        # quartets sharing an equality pattern share the distinct list
        assert distinct_perms((3, 1, 3, 1)) == distinct_perms((7, 2, 7, 2))
        assert distinct_perms((2, 2, 2, 2)) == distinct_perms((5, 5, 5, 5))
        assert len(distinct_perms((0, 0, 0, 0))) == 1
        assert len(distinct_perms((3, 2, 1, 0))) == 8


class TestThreadedContraction:
    def test_threaded_matches_serial(self):
        basis = BasisSet.build(water(), "6-31g")
        rng = np.random.default_rng(11)
        d = rand_density(rng, basis.nbf)
        engine = MDEngine(basis)
        plan = engine.class_plan(1e-11)
        j1, k1 = jk_from_plan(engine, d, plan, threads=1)
        j4, k4 = jk_from_plan(engine, d, plan, threads=4)
        assert np.allclose(j1, j4, atol=1e-12, rtol=0)
        assert np.allclose(k1, k4, atol=1e-12, rtol=0)

    def test_build_jk_threads_kwarg(self):
        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(13)
        d = rand_density(rng, basis.nbf)
        j1, k1 = build_jk(MDEngine(basis), d)
        j2, k2 = build_jk(MDEngine(basis), d, threads=3)
        assert np.allclose(j1, j2, atol=1e-12, rtol=0)
        assert np.allclose(k1, k2, atol=1e-12, rtol=0)


class TestPlanCaching:
    def test_plan_memoized_per_tau(self, water_basis):
        engine = MDEngine(water_basis)
        p1 = engine.class_plan(1e-11)
        p2 = engine.class_plan(1e-11)
        assert p1 is p2
        assert engine.class_plan(1e-9) is not p1

    def test_plan_lru_bounded(self, water_basis):
        engine = MDEngine(water_basis)
        for i in range(12):
            engine.class_plan(10.0 ** (-i - 3))
        assert len(engine._class_plans) <= 8

    def test_force_reference_path_disables_class_batching(self, water_basis):
        engine = MDEngine(water_basis)
        engine.class_plan(1e-11)
        engine.force_reference_path()
        assert not engine.supports_class_batched
        assert len(engine._class_plans) == 0

    def test_plan_covers_all_screened_quartets(self, water_basis):
        engine = MDEngine(water_basis)
        tau = 1e-11
        plan = engine.class_plan(tau)
        expected = set(iter_canonical_quartets(engine.schwarz(), tau))
        planned = {
            tuple(int(v) for v in row)
            for batch in plan.batches
            for row in batch.quartets
        }
        assert planned == expected


class TestJKForQuartets:
    """The explicit-quartet-list entry used by the mp Fock workers."""

    def test_non_canonical_tuples_give_same_jk(self):
        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(23)
        d = rand_density(rng, basis.nbf)
        engine = MDEngine(basis)
        canonical = list(iter_canonical_quartets(engine.schwarz(), 1e-11))
        # scramble each tuple to a random image of its symmetry orbit:
        # the distinct-image scatter must produce the identical J/K
        scrambled = []
        for quartet in canonical:
            perm = EIGHT_PERMUTATIONS[rng.integers(0, 8)]
            scrambled.append(tuple(quartet[i] for i in perm))
        j_ref, k_ref = jk_for_quartets(engine, d, canonical)
        j_scr, k_scr = jk_for_quartets(engine, d, scrambled)
        assert np.allclose(j_ref, j_scr, atol=1e-12, rtol=0)
        assert np.allclose(k_ref, k_scr, atol=1e-12, rtol=0)

    def test_partition_sums_to_whole(self):
        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(29)
        d = rand_density(rng, basis.nbf)
        engine = MDEngine(basis)
        quartets = list(iter_canonical_quartets(engine.schwarz(), 1e-11))
        j_all, k_all = jk_for_quartets(engine, d, quartets)
        half = len(quartets) // 2
        j1, k1 = jk_for_quartets(engine, d, quartets[:half])
        j2, k2 = jk_for_quartets(engine, d, quartets[half:])
        assert np.allclose(j_all, j1 + j2, atol=1e-12, rtol=0)
        assert np.allclose(k_all, k1 + k2, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_slots_route_each_quartet_to_its_own_jk(self, stacked, threads):
        """Slot s of a slotted sweep == an unslotted sweep of slot s's
        quartets against slot s's density (to summation order)."""
        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(37)
        nslots = 3
        dens = np.stack([rand_density(rng, basis.nbf) for _ in range(nslots)])
        engine = MDEngine(basis)
        quartets = list(iter_canonical_quartets(engine.schwarz(), 1e-11))
        slots = rng.integers(0, nslots, len(quartets))
        d_in = dens if stacked else dens[0]
        j, k = jk_for_quartets(
            engine, d_in, quartets, threads=threads, slots=slots, nslots=nslots
        )
        assert j.shape == k.shape == (nslots, basis.nbf, basis.nbf)
        for s in range(nslots):
            mine = [qt for qt, t in zip(quartets, slots) if t == s]
            j_s, k_s = jk_for_quartets(engine, dens[s] if stacked else dens[0], mine)
            assert np.allclose(j[s], j_s, atol=1e-12, rtol=0)
            assert np.allclose(k[s], k_s, atol=1e-12, rtol=0)

    def test_many_sparse_slots_sum_to_unslotted_sweep(self):
        """More slots than quartets per slot: the per-slot J/K still sum
        to the unslotted sweep's."""
        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(41)
        d = rand_density(rng, basis.nbf)
        engine = MDEngine(basis)
        quartets = list(iter_canonical_quartets(engine.schwarz(), 1e-11))
        nslots = 2000
        slots = rng.integers(0, nslots, len(quartets))
        j, k = jk_for_quartets(engine, d, quartets, slots=slots, nslots=nslots)
        j_all, k_all = jk_for_quartets(engine, d, quartets)
        assert np.allclose(j.sum(axis=0), j_all, atol=1e-12, rtol=0)
        assert np.allclose(k.sum(axis=0), k_all, atol=1e-12, rtol=0)

    def test_nslots_defaults_to_largest_slot(self):
        basis = BasisSet.build(water(), "sto-3g")
        j, k = jk_for_quartets(
            MDEngine(basis), np.eye(basis.nbf), [(0, 0, 0, 0)], slots=[2]
        )
        assert j.shape == k.shape == (3, basis.nbf, basis.nbf)
        assert not j[:2].any() and j[2].any()

    def test_generic_engine_through_same_scatter(self):
        """Engines without the class kernel stack engine.quartet blocks."""
        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(43)
        d = rand_density(rng, basis.nbf)
        md = MDEngine(basis)
        quartets = list(iter_canonical_quartets(md.schwarz(), 1e-11))
        os_engine = OSEngine(basis)
        j_os, k_os = jk_for_quartets(os_engine, d, quartets)
        j_md, k_md = jk_for_quartets(md, d, quartets)
        assert os_engine.quartets_computed == md.quartets_computed == len(quartets)
        assert np.allclose(j_os, j_md, atol=1e-10, rtol=0)
        assert np.allclose(k_os, k_md, atol=1e-10, rtol=0)


class TestProfilerAttribution:
    """Spans land per class chunk, not per quartet -- serial and threaded."""

    @pytest.mark.parametrize("threads", [1, 3])
    def test_eri_and_jk_phases_recorded_per_chunk(self, threads):
        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(31)
        d = rand_density(rng, basis.nbf)
        engine = MDEngine(basis)
        plan = engine.class_plan(1e-11)
        nchunks = len(plan.chunks())
        prof = PhaseProfiler()
        set_profiler(prof)
        try:
            jk_from_plan(engine, d, plan, threads=threads)
        finally:
            set_profiler(None)
        assert prof.stats[PHASE_ERI].calls == nchunks
        assert prof.stats[PHASE_JK].calls == nchunks
        assert prof.stats[PHASE_ERI].calls < plan.nquartets
        assert prof.stats[PHASE_ERI].wall_s > 0.0
        assert prof.stats[PHASE_JK].wall_s > 0.0


class TestFiniteCheckRescue:
    def test_poisoned_chunk_is_rescued_per_quartet(self, monkeypatch):
        """A NaN row in a batched sweep falls back to the reference
        kernel for that quartet only, matching the clean build."""
        import repro.integrals.class_batch as cb

        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(37)
        d = rand_density(rng, basis.nbf)
        j_ref, k_ref = build_jk(MDEngine(basis), d)

        real = cb.compute_class_rows
        poisoned = {"done": False}

        def poison(batch, rows):
            out = real(batch, rows)
            if not poisoned["done"]:
                out[0] = np.nan
                poisoned["done"] = True
            return out

        monkeypatch.setattr(cb, "compute_class_rows", poison)
        engine = MDEngine(basis)
        engine.finite_check = True
        j, k = build_jk(engine, d)
        assert poisoned["done"]
        assert engine.eri_rescues == 1
        assert np.allclose(j, j_ref, atol=1e-10, rtol=0)
        assert np.allclose(k, k_ref, atol=1e-10, rtol=0)


class TestCacheIntegration:
    def test_second_iteration_served_from_cache(self):
        basis = BasisSet.build(water(), "sto-3g")
        rng = np.random.default_rng(41)
        d = rand_density(rng, basis.nbf)
        engine = MDEngine(basis, cache_mb=64.0)
        j1, k1 = build_jk(engine, d)
        computed = engine.quartets_computed
        j2, k2 = build_jk(engine, d)
        assert engine.quartets_computed == computed
        assert engine.quartets_served_from_cache >= computed
        assert np.array_equal(j1, j2)
        assert np.array_equal(k1, k2)


class TestClassPlanStructure:
    def test_pattern_subgroups_are_uniform(self, water_basis):
        engine = MDEngine(water_basis)
        plan = engine.class_plan(1e-11)
        for batch in plan.batches:
            covered = 0
            for lo, hi, perms in batch.subgroups:
                assert hi > lo
                covered += hi - lo
                for row in batch.quartets[lo:hi]:
                    assert distinct_perms(tuple(int(v) for v in row)) == perms
            assert covered == batch.nq

    def test_throwaway_pair_cache(self, water_basis):
        quartets = [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1)]
        plan = build_class_plan(water_basis, None, quartets)
        assert plan.nquartets == 3
