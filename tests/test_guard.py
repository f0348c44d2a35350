"""Tests for the SCF convergence guard: classifier, ladder, rescues,
checkpoint persistence, orthogonalizer hardening, and the scf chaos gate."""

import numpy as np
import pytest

from repro.chem.builders import water
from repro.fock.chaos import run_scf_chaos
from repro.integrals.engine import MDEngine, NonFiniteERIError, OSEngine
from repro.integrals.oneelec import overlap
from repro.runtime.faults import SCFFaultPlan, random_scf_plan
from repro.scf.checkpoint import (
    CheckpointCorruptionWarning,
    checkpoint_path,
    load_checkpoint,
    load_latest_intact,
    save_checkpoint,
)
from repro.scf.guard import (
    DEFAULT_LADDER,
    DIVERGING,
    HEALTHY,
    NON_FINITE,
    OSCILLATING,
    STAGNATING,
    ConvergenceClassifier,
    GuardConfig,
    GuardError,
    GuardEvent,
    Rung,
    SCFGuard,
)
from repro.scf.fock import build_jk
from repro.scf.hf import RHF
from repro.scf.orthogonalization import (
    LinearDependenceWarning,
    orthogonalizer_info,
)
from repro.scf.torture import near_singular_h4, stretched_water
from repro.scf.uhf import UHF


def classifier(**kw):
    return ConvergenceClassifier(GuardConfig(**kw), e_tol=1e-9, d_tol=1e-7)


class TestClassifier:
    def test_empty_and_short_history_healthy(self):
        c = classifier()
        assert c.classify([], []) == HEALTHY
        assert c.classify([-74.0], [0.5]) == HEALTHY

    def test_nan_energy_is_non_finite(self):
        c = classifier()
        assert c.classify([-74.0, float("nan")], [0.1, 0.1]) == NON_FINITE

    def test_inf_d_change_is_non_finite(self):
        c = classifier()
        assert c.classify([-74.0, -74.1], [0.1, float("inf")]) == NON_FINITE

    def test_period2_oscillation(self):
        # alternating energies with a large, non-shrinking density change
        e = [-74.0, -73.0, -74.0, -73.0, -74.0, -73.0]
        dd = [0.8] * 6
        assert classifier().classify(e, dd) == OSCILLATING

    def test_diverging_energy(self):
        e = [-74.0, -73.0, -70.0, -60.0, -40.0]
        dd = [0.5] * 5
        assert classifier().classify(e, dd) == DIVERGING

    def test_stagnating_window(self):
        e = [-74.0 - 1e-10 * i for i in range(8)]
        dd = [0.01000, 0.01001, 0.00999, 0.01000, 0.01001, 0.00999, 0.01000,
              0.01001]
        assert classifier().classify(e, dd) == STAGNATING

    def test_healthy_convergence(self):
        e = [-73.0, -74.0, -74.9, -74.96, -74.9630, -74.96302]
        dd = [0.5, 0.1, 0.02, 0.004, 8e-4, 1e-4]
        assert classifier().classify(e, dd) == HEALTHY

    def test_converged_scale_never_oscillating(self):
        # sign flips at the convergence threshold are noise, not pathology
        e = [-74.0 + ((-1) ** i) * 1e-6 for i in range(6)]
        dd = [1e-8] * 6
        assert classifier().classify(e, dd) == HEALTHY


class TestConfigAndEvents:
    def test_rung_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown remediation action"):
            Rung("reboot", {})

    def test_config_validation(self):
        with pytest.raises(ValueError, match="window"):
            GuardConfig(window=2)
        with pytest.raises(ValueError, match="patience"):
            GuardConfig(patience=0)
        with pytest.raises(ValueError, match="ladder"):
            GuardConfig(ladder=())

    def test_event_json_roundtrip(self):
        ev = GuardEvent(7, OSCILLATING, "damp", {"factor": 0.3})
        assert GuardEvent.from_json(ev.to_json()) == ev
        assert "it 7" in ev.describe()


class TestGuardStateMachine:
    def test_healthy_run_is_untouched(self):
        g = SCFGuard(GuardConfig())
        for i, (e, dd) in enumerate(
            zip([-73.0, -74.0, -74.9, -74.96], [0.5, 0.1, 0.02, 0.004]), 1
        ):
            assert g.observe(i, e, dd) == HEALTHY
        assert g.level == -1 and g.damping == 0.0 and not g.events

    def test_oscillation_escalates_ladder(self):
        g = SCFGuard(GuardConfig(patience=2))
        e, dd = [], []
        for i in range(1, 12):
            e.append(-74.0 if i % 2 else -73.0)
            dd.append(0.8)
            g.observe(i, e[-1], dd[-1])
        assert g.level >= 0
        assert g.damping > 0.0
        actions = {ev.action for ev in g.events}
        assert "damp" in actions

    def test_relax_halves_damping_after_healthy_streak(self):
        g = SCFGuard(GuardConfig(healthy_window=2))
        g.damping = 0.4
        g.observe(1, -74.0, 0.5)
        g.observe(2, -74.5, 0.3)
        assert g.damping == pytest.approx(0.2)
        assert any(ev.action == "relax" for ev in g.events)

    def test_nonfinite_jumps_to_fallback_rungs(self):
        g = SCFGuard(GuardConfig())
        assert not g.check_matrix("fock", np.array([[np.nan]]), 3)
        g.on_nonfinite(3, "fock")
        reset_rung = next(
            i for i, r in enumerate(DEFAULT_LADDER) if r.action == "diis_reset"
        )
        assert g.level == reset_rung
        assert g.consume_diis_reset()
        assert not g.consume_diis_reset()  # one-shot

    def test_nonfinite_exhaustion_aborts(self):
        g = SCFGuard(GuardConfig(max_nonfinite=1))
        bad = np.full((2, 2), np.nan)
        g.check_matrix("fock", bad, 1)
        g.check_matrix("fock", bad, 2)
        assert g.nonfinite_exhausted()
        err = g.fail(2, "test abort")
        assert isinstance(err, GuardError)
        assert err.events and err.events[-1].action == "abort"

    def test_state_roundtrip(self):
        g = SCFGuard(GuardConfig())
        for i in range(1, 10):
            g.observe(i, -74.0 if i % 2 else -73.0, 0.8)
        g.canonical_threshold = 1e-6
        g2 = SCFGuard.from_state_json(g.state_json())
        assert g2.level == g.level
        assert g2.damping == g.damping
        assert g2.canonical_threshold == 1e-6
        assert [e.to_json() for e in g2.events] == [
            e.to_json() for e in g.events
        ]


class TestGuardedSCF:
    def test_stretched_oscillator_fails_vanilla_converges_guarded(self):
        mol = stretched_water(2.5)
        vanilla = RHF(mol, use_diis=False, max_iter=60).run()
        assert not vanilla.converged
        guarded = RHF(mol, use_diis=False, max_iter=200, guard=True).run()
        assert guarded.converged
        assert np.isfinite(guarded.energy)
        actions = {ev.action for ev in guarded.guard_events}
        assert "damp" in actions
        assert guarded.guard_summary["final_state"] == HEALTHY

    def test_healthy_molecule_bitwise_unchanged_under_guard(self):
        plain = RHF(water()).run()
        guarded = RHF(water(), guard=True).run()
        assert guarded.energy == plain.energy
        assert guarded.iterations == plain.iterations
        assert not guarded.guard_events

    def test_nan_fock_injection_rescued(self):
        plan = SCFFaultPlan(seed=5, fock_nan_iterations=(2, 4))
        res = RHF(water(), guard=True, faults=plan).run()
        assert res.converged
        assert np.isfinite(res.energy)
        assert res.guard_summary["nonfinite"] >= 2
        assert any(ev.classification == NON_FINITE for ev in res.guard_events)

    def test_nan_quartet_injection_rescued_by_sentinel(self):
        plan = SCFFaultPlan(
            seed=11, quartet_nan_rate=0.02, quartet_inf_rate=0.02,
            max_corruptions=64,
        )
        clean = RHF(water()).run()
        rhf = RHF(water(), guard=True, faults=plan)
        res = rhf.run()
        assert res.converged
        assert res.energy == pytest.approx(clean.energy, abs=1e-9)
        assert rhf.engine.eri_rescues > 0

    def test_nonfinite_exhaustion_raises_guard_error(self):
        plan = SCFFaultPlan(seed=1, fock_nan_iterations=(1, 2, 3, 4, 5))
        rhf = RHF(
            water(),
            guard=GuardConfig(max_nonfinite=2),
            faults=plan,
        )
        with pytest.raises(GuardError) as exc_info:
            rhf.run()
        assert exc_info.value.events  # actionable trail

    def test_uhf_guard_smoke(self):
        res = UHF(water(), guard=True).run()
        assert res.converged
        assert res.guard_summary is not None


class TestCheckpointGuardPersistence:
    def test_guard_state_roundtrips_through_npz(self, tmp_path):
        g = SCFGuard(GuardConfig())
        for i in range(1, 8):
            g.observe(i, -74.0 if i % 2 else -73.0, 0.8)
        d = np.eye(3)
        save_checkpoint(tmp_path, 4, d, -74.0, [-73.0, -74.0], guard=g)
        ck = load_checkpoint(checkpoint_path(tmp_path, 4))
        assert ck.guard is not None
        g2 = SCFGuard(GuardConfig())
        g2.load_state(ck.guard)
        assert g2.level == g.level and g2.damping == g.damping

    def test_pre_guard_checkpoints_still_load(self, tmp_path):
        save_checkpoint(tmp_path, 1, np.eye(2), -1.0, [-1.0])
        ck = load_checkpoint(checkpoint_path(tmp_path, 1))
        assert ck.guard is None

    def test_corrupted_latest_falls_back_to_intact(self, tmp_path):
        save_checkpoint(tmp_path, 1, np.eye(2), -1.0, [-1.0])
        save_checkpoint(tmp_path, 2, 2 * np.eye(2), -2.0, [-1.0, -2.0])
        # truncate the newest snapshot mid-file
        newest = checkpoint_path(tmp_path, 2)
        newest.write_bytes(newest.read_bytes()[:40])
        with pytest.warns(CheckpointCorruptionWarning):
            ck = load_latest_intact(tmp_path)
        assert ck is not None and ck.iteration == 1

    def test_all_corrupt_returns_none(self, tmp_path):
        save_checkpoint(tmp_path, 1, np.eye(2), -1.0, [-1.0])
        checkpoint_path(tmp_path, 1).write_bytes(b"not a zipfile")
        with pytest.warns(CheckpointCorruptionWarning):
            assert load_latest_intact(tmp_path) is None

    def test_empty_dir_returns_none(self, tmp_path):
        assert load_latest_intact(tmp_path) is None

    def test_restart_skips_corrupted_checkpoint(self, tmp_path):
        mol = water()
        RHF(mol, checkpoint_dir=str(tmp_path)).run()
        # corrupt the newest snapshot; restart must fall back, not crash
        import repro.scf.checkpoint as ckpt

        newest = ckpt.checkpoint_paths(tmp_path)[0]
        newest.write_bytes(b"garbage")
        with pytest.warns(CheckpointCorruptionWarning):
            res = RHF(mol, checkpoint_dir=str(tmp_path), restart=True).run()
        assert res.converged


class TestOrthogonalizerHardening:
    def test_auto_switch_on_near_singular_overlap(self):
        from repro.chem.basis.basisset import BasisSet

        mol = near_singular_h4()
        s = overlap(BasisSet.build(mol, "sto-3g"))
        with pytest.warns(LinearDependenceWarning):
            x, info = orthogonalizer_info(s, threshold=1e-6)
        assert info.canonical
        assert info.condition > 1e6
        assert np.allclose(x.T @ s @ x, np.eye(x.shape[1]), atol=1e-8)

    def test_well_conditioned_stays_symmetric(self):
        from repro.chem.basis.basisset import BasisSet

        s = overlap(BasisSet.build(water(), "sto-3g"))
        x, info = orthogonalizer_info(s)
        assert not info.canonical
        assert info.n_dropped == 0

    def test_not_positive_definite_raises_field_named_error(self):
        s = -np.eye(3)
        with pytest.raises(ValueError, match="overlap.*not positive definite"):
            orthogonalizer_info(s)

    def test_rank_deficient_switches_and_drops(self):
        s = np.eye(3) * 1e-20
        s[0, 0] = 1.0
        with pytest.warns(LinearDependenceWarning):
            x, info = orthogonalizer_info(s, threshold=1e-6, cond_limit=1e8)
        assert info.canonical
        assert info.n_kept == 1
        assert info.n_dropped == 2

    def test_nan_overlap_raises_finite_error(self):
        s = np.eye(3)
        s[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            orthogonalizer_info(s)


def _faulted(engine):
    engine.finite_check = True
    engine.scf_faults = SCFFaultPlan(seed=3, quartet_nan_rate=0.1).activate()
    return engine


class TestERIFaultSeam:
    def test_sentinel_rescues_corrupted_batched_block(
        self, water_basis, water_matrices
    ):
        d = water_matrices[3]
        engine = MDEngine(water_basis)
        engine.finite_check = True
        engine.scf_faults = SCFFaultPlan(
            seed=0, quartet_nan_rate=1.0
        ).activate()
        j, k = build_jk(engine, d)
        assert np.isfinite(j).all() and np.isfinite(k).all()
        assert engine.eri_rescues >= 1
        # the tally reaches the engine from the resolver: one rescue per
        # corrupted block, no double count
        assert engine.eri_rescues == engine.scf_faults.quartets_corrupted
        j_ref, k_ref = build_jk(MDEngine(water_basis), d)
        assert np.abs(j - j_ref).max() <= 1e-12
        assert np.abs(k - k_ref).max() <= 1e-12

    @pytest.mark.parametrize("make", [
        lambda b: OSEngine(b),
        lambda b: _faulted(MDEngine(b)),
    ])
    def test_jk_threads_honoured_on_every_route(
        self, water_basis, water_matrices, make
    ):
        """``threads=2`` splits the chunk list across two workers for
        engines without the class kernel and for faulted engines too."""
        engine = make(water_basis)
        build_jk(engine, water_matrices[3], threads=2)
        assert len(engine.last_jk_worker_stats) == 2

    def test_faulted_run_reproducible_at_any_thread_count(self):
        """Fault draws are made once per build over the class plan, so
        a seeded run corrupts the same blocks at 1 and 2 threads."""
        plan = SCFFaultPlan(seed=11, quartet_nan_rate=0.02, quartet_inf_rate=0.02)
        runs = []
        for threads in (1, 2):
            rhf = RHF(water(), guard=True, faults=plan, jk_threads=threads)
            res = rhf.run()
            assert res.converged
            runs.append((rhf.engine.scf_faults.quartets_corrupted, res.energy))
        assert runs[0][0] == runs[1][0] > 0
        assert abs(runs[0][1] - runs[1][1]) <= 1e-12

    def test_engine_without_reference_path_raises(self, water_basis):
        engine = OSEngine(water_basis)
        assert not engine.supports_reference_path
        with pytest.raises(NonFiniteERIError, match="no rescue path"):
            engine._rescue_quartet(0, 0, 0, 0)

    def test_force_reference_path_disables_batched(self, water_basis):
        engine = MDEngine(water_basis)
        assert engine.supports_reference_path
        engine.force_reference_path()
        assert engine.pair_cache is None and not engine.batched

    def test_fault_plan_validation(self):
        with pytest.raises(ValueError, match="quartet_nan_rate"):
            SCFFaultPlan(quartet_nan_rate=1.5)
        with pytest.raises(ValueError, match="1-based"):
            SCFFaultPlan(fock_nan_iterations=(0,))
        plan = random_scf_plan(3)
        assert plan.has_faults
        assert plan.describe()

    def test_matrix_fault_fires_once_per_iteration(self):
        state = SCFFaultPlan(seed=0, fock_nan_iterations=(2,)).activate()
        a = np.ones((3, 3))
        first = state.corrupt_matrix(a, 2, "fock")
        assert np.isnan(first).any()
        again = state.corrupt_matrix(a, 2, "fock")
        assert np.isfinite(again).all()  # same (iteration, target): no re-fire
        assert np.isfinite(state.corrupt_matrix(a, 3, "fock")).all()


class TestSCFChaosGate:
    def test_scf_chaos_gate_passes(self):
        res = run_scf_chaos(seed=0, quartet_nan_rate=0.05)
        assert res.quartets_corrupted > 0
        assert res.eri_rescues >= res.quartets_corrupted
        assert res.fock_error <= 1e-12
        assert res.passed
