"""Tests for shell-pair data caching, the batched ERI kernel, and the
byte-bounded in-memory ERI store behind ``cache_mb``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import Shell
from repro.chem.builders import water
from repro.integrals.engine import (
    MDEngine,
    OSEngine,
    SyntheticERIEngine,
)
from repro.integrals.eri_md import eri_shell_quartet
from repro.integrals.eri_os import eri_shell_quartet_os
from repro.integrals.pairdata import (
    ShellPairData,
    build_pair_data,
    eri_shell_quartet_batched,
)
from repro.integrals.store import ERIStore
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


class TestBatchedKernel:
    """The batched path must agree with the seed per-primitive path and
    with the independent Obara-Saika formulation."""

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_batched_matches_seed_and_os(self, seed):
        rng = np.random.default_rng(seed)
        ls = rng.integers(0, 3, 4)  # random s/p/d quartets
        shs = [rand_shell(rng, int(l)) for l in ls]
        batched = eri_shell_quartet_batched(*shs)
        reference = eri_shell_quartet(*shs)
        os_ = eri_shell_quartet_os(*shs)
        assert np.allclose(batched, reference, atol=1e-10, rtol=1e-10)
        assert np.allclose(batched, os_, atol=1e-10, rtol=1e-10)

    def test_pure_d_shells(self):
        rng = np.random.default_rng(3)
        shs = [
            rand_shell(rng, 2, pure=True),
            rand_shell(rng, 1),
            rand_shell(rng, 2, pure=True),
            rand_shell(rng, 0),
        ]
        batched = eri_shell_quartet_batched(*shs)
        assert batched.shape == (5, 3, 5, 1)
        assert np.allclose(batched, eri_shell_quartet(*shs), atol=1e-12)

    def test_precomputed_pair_data_gives_same_block(self):
        rng = np.random.default_rng(9)
        shs = [rand_shell(rng, l) for l in (1, 0, 2, 1)]
        bra = build_pair_data(shs[0], shs[1])
        ket = build_pair_data(shs[2], shs[3])
        with_pairs = eri_shell_quartet_batched(*shs, bra=bra, ket=ket)
        without = eri_shell_quartet_batched(*shs)
        assert np.array_equal(with_pairs, without)


class TestShellPairData:
    def test_each_pair_built_once(self, water_basis):
        cache = ShellPairData(water_basis)
        a = cache.get(1, 0)
        b = cache.get(1, 0)
        assert a is b
        assert cache.pairs_built == 1
        cache.get(0, 1)  # opposite orientation is a distinct record
        assert cache.pairs_built == 2
        assert len(cache) == 2
        assert cache.nbytes > 0

    def test_md_engine_reuses_pair_cache(self, water_basis):
        eng = MDEngine(water_basis)
        ns = water_basis.nshells
        for m in range(ns):
            for n in range(m + 1):
                eng.quartet(m, n, m, n)
        # ns*(ns+1)/2 distinct ordered pairs, each expanded exactly once
        assert eng.pair_cache.pairs_built == ns * (ns + 1) // 2

    def test_unbatched_engine_matches_batched(self, water_basis):
        batched = MDEngine(water_basis)
        seed = MDEngine(water_basis, batched=False)
        assert seed.pair_cache is None
        rng = np.random.default_rng(4)
        for _ in range(8):
            m, n, p, q = (int(i) for i in rng.integers(0, water_basis.nshells, 4))
            assert np.allclose(
                batched.quartet(m, n, p, q), seed.quartet(m, n, p, q), atol=1e-12
            )


class TestQuartetCacheLRU:
    """``cache_mb`` is an in-memory :class:`ERIStore`: a byte bound on
    whole recorded chunks instead of an LRU of single blocks."""

    def test_oversized_block_is_not_cached(self, water_basis):
        store = ERIStore(None, water_basis, max_bytes=100).open_or_fill()
        store.record_batch(np.zeros((1, 4), np.int64), np.zeros((1, 1000)))
        assert store.pending_blocks == 0
        assert store.nbytes == 0

    def test_rejects_nonpositive_bound(self, water_basis):
        with pytest.raises(ValueError):
            ERIStore(None, water_basis, max_bytes=0)


class TestEnginesThroughCacheLayer:
    """OSEngine / SyntheticERIEngine pass through the store layer unchanged,
    and the computed/served split keeps call-count benchmarks exact."""

    def test_counters_without_cache_match_seed_semantics(self, water_basis):
        eng = OSEngine(water_basis)
        eng.quartet(0, 0, 0, 0)
        eng.quartet(0, 1, 0, 1)
        assert eng.quartets_computed == 2
        assert eng.quartets_served_from_cache == 0

    @pytest.mark.parametrize("factory", [
        OSEngine,
        lambda b: SyntheticERIEngine(b),
    ])
    def test_cached_engine_serves_identical_blocks(self, water_basis, factory):
        plain = factory(water_basis)
        cached = factory(water_basis)
        cached.attach_store(ERIStore(None, water_basis, 8 * 2**20))
        rng = np.random.default_rng(6)
        d = rng.normal(size=(water_basis.nbf,) * 2)
        d = (d + d.T) / 2.0
        nq = cached.class_plan(1e-11).nquartets
        j_ref, k_ref = build_jk(plain, d)
        for _ in range(2):  # the second build is served by the store
            j, k = build_jk(cached, d)
            assert np.allclose(j, j_ref, atol=1e-13)
            assert np.allclose(k, k_ref, atol=1e-13)
        assert cached.quartets_served_from_cache == nq
        assert cached.quartets_computed + cached.quartets_served_from_cache == 2 * nq


class TestShellSlicesProperty:
    def test_matches_shell_slice_and_is_cached(self):
        basis = BasisSet.build(water(), "6-31g")
        slices = basis.shell_slices
        assert slices is basis.shell_slices  # computed once
        assert list(slices) == [
            basis.shell_slice(i) for i in range(basis.nshells)
        ]

    def test_permuted_basis_gets_fresh_slices(self, water_basis):
        order = np.arange(water_basis.nshells)[::-1]
        permuted = water_basis.permuted(order)
        assert list(permuted.shell_slices) == [
            permuted.shell_slice(i) for i in range(permuted.nshells)
        ]
