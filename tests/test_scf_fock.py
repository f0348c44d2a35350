"""Tests for the sequential reference Fock build."""

import numpy as np
import pytest

from repro.integrals.class_batch import distinct_perms
from repro.integrals.engine import MDEngine, OSEngine, SyntheticERIEngine
from repro.integrals.eri_tensor_util import dense_fock_reference
from repro.integrals.store import ERIStore
from repro.scf.fock import (
    build_jk,
    canonical_shell_quartets,
    fock_matrix,
    hf_electronic_energy,
)


def orbit_images(quartet, block):
    """The distinct orbit images the batched scatter applies to a quartet."""
    for perm in distinct_perms(quartet):
        yield tuple(quartet[i] for i in perm), np.transpose(block, perm)


class TestOrbitImages:
    def test_generic_quartet_eight_images(self):
        block = np.zeros((1, 2, 3, 4))
        images = list(orbit_images((0, 1, 2, 3), block))
        assert len(images) == 8
        targets = {t for t, _ in images}
        assert len(targets) == 8

    def test_coincident_bra_four_images(self):
        block = np.zeros((2, 2, 1, 3))
        images = list(orbit_images((5, 5, 0, 1), block))
        assert len(images) == 4

    def test_fully_diagonal_one_image(self):
        block = np.zeros((2, 2, 2, 2))
        images = list(orbit_images((3, 3, 3, 3), block))
        assert len(images) == 1

    def test_blocks_are_transposed_consistently(self):
        rng = np.random.default_rng(0)
        block = rng.normal(size=(2, 3, 4, 5))
        for target, blk in orbit_images((0, 1, 2, 3), block):
            # shape must match the target's shell sizes
            sizes = {0: 2, 1: 3, 2: 4, 3: 5}
            assert blk.shape == tuple(sizes[t] for t in target)


class TestCanonicalEnumeration:
    def test_no_screening_count(self):
        n = 5
        sigma = np.ones((n, n))
        npair = n * (n + 1) // 2
        quartets = list(canonical_shell_quartets(sigma, 0.0))
        assert len(quartets) == npair * (npair + 1) // 2

    def test_all_canonical_ordering(self):
        sigma = np.ones((6, 6))
        for (m, n, p, q) in canonical_shell_quartets(sigma, 0.0):
            assert m >= n and p >= q
            assert (m, n) >= (p, q)

    def test_screening_drops(self):
        sigma = np.eye(4) + 1e-8
        few = list(canonical_shell_quartets(sigma, 1e-3))
        all_ = list(canonical_shell_quartets(sigma, 0.0))
        assert 0 < len(few) < len(all_)


class TestJKCorrectness:
    """Screened symmetry-exploiting build vs dense no-symmetry reference."""

    def test_jk_vs_dense_reference(self, water_engine, water_matrices):
        _s, _h, _x, d = water_matrices
        j, k = build_jk(water_engine, d, tau=0.0)
        j_ref, k_ref = dense_fock_reference(water_engine, d)
        assert np.allclose(j, j_ref, atol=1e-11)
        assert np.allclose(k, k_ref, atol=1e-11)

    def test_jk_symmetric(self, water_engine, water_matrices):
        _s, _h, _x, d = water_matrices
        j, k = build_jk(water_engine, d, tau=1e-11)
        assert np.allclose(j, j.T, atol=1e-12)
        assert np.allclose(k, k.T, atol=1e-12)

    def test_screening_converges_to_unscreened(self, water_engine, water_matrices):
        _s, _h, _x, d = water_matrices
        j0, k0 = build_jk(water_engine, d, tau=0.0)
        j1, k1 = build_jk(water_engine, d, tau=1e-11)
        assert np.allclose(j0, j1, atol=1e-9)
        assert np.allclose(k0, k1, atol=1e-9)

    def test_aggressive_screening_differs(self, water_engine, water_matrices):
        _s, _h, _x, d = water_matrices
        j0, _ = build_jk(water_engine, d, tau=0.0)
        j1, _ = build_jk(water_engine, d, tau=1e-1)
        assert not np.allclose(j0, j1, atol=1e-9)

    def test_asymmetric_density_rejected(self, water_engine):
        n = water_engine.basis.nbf
        d = np.arange(n * n, dtype=float).reshape(n, n)
        with pytest.raises(ValueError):
            build_jk(water_engine, d)

    def test_synthetic_engine_closed_form(self, synthetic_engine, synthetic_density):
        """Screened task build vs closed-form J/K on the synthetic engine."""
        j, k = build_jk(synthetic_engine, synthetic_density, tau=1e-14)
        assert np.allclose(j, synthetic_engine.coulomb_exact(synthetic_density),
                           atol=1e-8)
        assert np.allclose(k, synthetic_engine.exchange_exact(synthetic_density),
                           atol=1e-8)


class TestEnergy:
    def test_energy_expression(self, water_engine, water_matrices, water_fock_reference):
        _s, h, _x, d = water_matrices
        e = hf_electronic_energy(h, water_fock_reference, d)
        assert e < 0  # electronic energy of a bound molecule

    def test_fock_is_h_plus_2j_minus_k(self, water_engine, water_matrices):
        _s, h, _x, d = water_matrices
        j, k = build_jk(water_engine, d, 1e-11)
        f = fock_matrix(water_engine, h, d, 1e-11)
        assert np.allclose(f, h + 2 * j - k, atol=1e-12)


def _reference_path_md(basis):
    engine = MDEngine(basis)
    engine.force_reference_path()
    return engine


_ENGINES = {
    "md": MDEngine,
    "md_reference_path": _reference_path_md,
    "os": OSEngine,
    "synthetic": SyntheticERIEngine,
}


@pytest.fixture(scope="module")
def dense_reference(water_basis, water_matrices):
    """Unscreened no-symmetry J/K for water/STO-3G (MD and OS agree to
    ~1e-15, so one reference serves every real engine)."""
    return dense_fock_reference(MDEngine(water_basis), water_matrices[3])


class TestOneRoute:
    """Every engine and memo tier runs the one class-plan route: J/K
    match the dense reference build after build, and every screened
    quartet is either computed or served exactly once per build."""

    @pytest.mark.parametrize("tier", [None, "disk", 64.0, "half"])
    @pytest.mark.parametrize("kind", sorted(_ENGINES))
    def test_two_builds_match_reference(
        self, water_basis, water_matrices, dense_reference, tmp_path, kind, tier
    ):
        d = water_matrices[3]
        engine = _ENGINES[kind](water_basis)
        plan = engine.class_plan(0.0)
        cap = None
        if tier == "disk":
            engine.attach_store(tmp_path / "store")
        elif tier is not None:
            full = sum(b.nq * b.block_size * 8 for b in plan.batches)
            cap = full // 2 if tier == "half" else int(tier * 2**20)
            engine.attach_store(ERIStore(None, water_basis, cap))
        if kind == "synthetic":
            j_ref = engine.coulomb_exact(d)
            k_ref = engine.exchange_exact(d)
        else:
            j_ref, k_ref = dense_reference
        served = []
        for _ in range(2):
            c0 = engine.quartets_computed
            s0 = engine.quartets_served_from_store + engine.quartets_served_from_cache
            j, k = build_jk(engine, d, tau=0.0)
            assert np.abs(j - j_ref).max() <= 1e-12
            assert np.abs(k - k_ref).max() <= 1e-12
            s1 = engine.quartets_served_from_store + engine.quartets_served_from_cache
            served.append(s1 - s0)
            assert (engine.quartets_computed - c0) + served[-1] == plan.nquartets
            if cap is not None:
                assert engine.integral_store.nbytes <= cap
        assert served[0] == 0
        if tier is None:
            assert served[1] == 0
        elif tier == "half":
            assert 0 < served[1] < plan.nquartets
        else:
            assert served[1] == plan.nquartets
