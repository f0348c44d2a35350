"""Numeric distributed builds: exact simulated accounting and ERI work.

The numeric ``gtfock_build``/``nwchem_build`` record quartets while the
scheduler runs and contract them in one class-batched sweep afterwards.
Simulated time never depends on host compute, so every clock, counter
and flight channel must equal what the per-quartet builds produced --
these values were captured from that implementation and are compared
with ``==``, not a tolerance.  The ``fetch`` cases drop every process's
prefetch footprint under fault injection, so each D block a task reads
is fetched on demand and charged in first-read order.
"""

import numpy as np
import pytest

import repro.fock.gtfock as gtfock_mod
import repro.fock.nwchem as nwchem_mod
from repro.fock.gtfock import gtfock_build
from repro.fock.nwchem import nwchem_build
from repro.fock.screening_map import ScreeningMap
from repro.integrals.engine import MDEngine, OSEngine, SyntheticERIEngine
from repro.obs import Tracer
from repro.runtime.faults import FaultPlan
from repro.scf.fock import fock_matrix

TAU = 1e-11

#: rank-1 death time per process count (mid-build at tau = 1e-11)
DEATH_AT = {4: 8e-5, 9: 1.5e-4}


def fault_plan(nproc: int) -> FaultPlan:
    return FaultPlan(
        seed=11, deaths={1: DEATH_AT[nproc]}, op_fail_rate=0.1,
        ack_loss_rate=0.5, delay_rate=0.1,
    )


PINNED = {
    ("gtfock", 4, "clean"): {
        "clock": [
            0.00014843423999999999, 0.00016800730666666666, 0.00020725024,
            0.00015455669333333332,
        ],
        "calls": [13, 13, 14, 13],
        "bytes": [2808, 2592, 3240, 2376],
        "flight": {
            "msgs": {
                "prefetch_get": 32, "fock_acc": 16, "steal_d": 5, "steal_task": 0,
                "queue": 0,
            },
            "bytes": {
                "prefetch_get": 5184, "fock_acc": 2592, "steal_d": 3240, "steal_task": 0,
                "queue": 0,
            },
            "time": {
                "prefetch_get": 0.00011073872, "fock_acc": 6.0401760000000006e-05,
                "steal_d": 2.5648000000000002e-05, "steal_task": 0.0, "queue": 0.0,
            },
            "ops": {
                "prefetch_get": 0, "fock_acc": 0, "steal_d": 0, "steal_task": 26,
                "queue": 4,
            },
        },
        "steals": 6,
        "recoveries": 0,
        "reexecuted": 0,
        "dead": [],
    },
    ("gtfock", 9, "clean"): {
        "clock": [
            0.00015480629333333333, 0.00015650346666666666, 0.0001920453866666666,
            0.00018008639999999998, 0.00016499199999999998, 0.0001554168,
            0.0001550520533333333, 0.00015650346666666666, 0.00016029509333333327,
        ],
        "calls": [26, 24, 26, 25, 24, 24, 26, 24, 29],
        "bytes": [2880, 1800, 2880, 2448, 1880, 1800, 2880, 1800, 4824],
        "flight": {
            "msgs": {
                "prefetch_get": 135, "fock_acc": 81, "steal_d": 12, "steal_task": 0,
                "queue": 0,
            },
            "bytes": {
                "prefetch_get": 9720, "fock_acc": 5696, "steal_d": 7776, "steal_task": 0,
                "queue": 0,
            },
            "time": {
                "prefetch_get": 0.0005716632, "fock_acc": 0.00036102256,
                "steal_d": 6.155520000000002e-05, "steal_task": 0.0, "queue": 0.0,
            },
            "ops": {
                "prefetch_get": 0, "fock_acc": 0, "steal_d": 0, "steal_task": 139,
                "queue": 9,
            },
        },
        "steals": 17,
        "recoveries": 0,
        "reexecuted": 0,
        "dead": [],
    },
    ("nwchem", 4, "clean"): {
        "clock": [
            0.0033676772799999736, 0.003220693759999974, 0.003429889439999969,
            0.0032940087999999653,
        ],
        "calls": [289, 378, 507, 494],
        "bytes": [7104, 7936, 10664, 9552],
        "flight": {
            "msgs": {"task_get": 856, "fock_acc": 753, "counter": 59},
            "bytes": {"task_get": 19840, "fock_acc": 15416, "counter": 0},
            "time": {
                "task_get": 0.0028728664000000053, "fock_acc": 0.002687322880000005,
                "counter": 0.002558579999999975,
            },
            "ops": {"task_get": 0, "fock_acc": 0, "counter": 0},
        },
        "counter_accesses": 59,
    },
    ("nwchem", 9, "clean"): {
        "clock": [
            0.0020209622399999937, 0.0019209622399999943, 0.00209095215999999,
            0.0021793551999999897, 0.0020459622399999935, 0.001995962239999994,
            0.001970962239999994, 0.002135146559999989, 0.0019459622399999944,
        ],
        "calls": [163, 210, 263, 224, 257, 190, 258, 305, 197],
        "bytes": [3192, 3840, 4560, 4680, 3584, 3736, 3672, 4352, 3640],
        "flight": {
            "msgs": {"task_get": 992, "fock_acc": 1011, "counter": 64},
            "bytes": {"task_get": 19840, "fock_acc": 15416, "counter": 0},
            "time": {
                "task_get": 0.004313515840000003, "fock_acc": 0.0044477404800000045,
                "counter": 0.004351471040000015,
            },
            "ops": {"task_get": 0, "fock_acc": 0, "counter": 0},
        },
        "counter_accesses": 64,
    },
    ("gtfock", 4, "faults"): {
        "clock": [
            0.00023533464339767538, 8e-05, 0.0002690632267533935, 0.0002545543193879905,
        ],
        "calls": [12, 8, 15, 13],
        "bytes": [2160, 1296, 3384, 2376],
        "flight": {
            "msgs": {
                "prefetch_get": 32, "fock_acc": 12, "steal_d": 2, "steal_task": 0,
                "queue": 0, "retry": 2,
            },
            "bytes": {
                "prefetch_get": 5184, "fock_acc": 1944, "steal_d": 1296, "steal_task": 0,
                "queue": 0, "retry": 792,
            },
            "time": {
                "prefetch_get": 0.00011073872, "fock_acc": 4.5298080000000005e-05,
                "steal_d": 1.0259200000000002e-05, "steal_task": 0.0, "queue": 0.0,
                "retry": 0.00012073156153349804,
            },
            "ops": {
                "prefetch_get": 0, "fock_acc": 0, "steal_d": 0, "steal_task": 26,
                "queue": 4, "retry": 0,
            },
        },
        "steals": 4,
        "recoveries": 5,
        "reexecuted": 7,
        "dead": [1],
    },
    ("gtfock", 9, "faults"): {
        "clock": [
            0.00029259481049325267, 0.00015, 0.00037287936481314736, 0.0003813200958930872,
            0.0004860787503974174, 0.0003262254534127224, 0.0003728988388910508,
            0.00031351365758932454, 0.00035124917077068116,
        ],
        "calls": [27, 16, 30, 30, 27, 30, 29, 30, 29],
        "bytes": [3528, 1352, 1968, 4672, 2056, 4504, 4824, 4504, 1776],
        "flight": {
            "msgs": {
                "prefetch_get": 135, "fock_acc": 72, "steal_d": 14, "steal_task": 0,
                "queue": 0, "retry": 27,
            },
            "bytes": {
                "prefetch_get": 9720, "fock_acc": 4912, "steal_d": 9072, "steal_task": 0,
                "queue": 0, "retry": 5480,
            },
            "time": {
                "prefetch_get": 0.0005716632, "fock_acc": 0.00032088016,
                "steal_d": 7.181440000000001e-05, "steal_task": 0.0, "queue": 0.0,
                "retry": 0.00150076602788643,
            },
            "ops": {
                "prefetch_get": 0, "fock_acc": 0, "steal_d": 0, "steal_task": 110,
                "queue": 9, "retry": 0,
            },
        },
        "steals": 15,
        "recoveries": 4,
        "reexecuted": 3,
        "dead": [1],
    },
    ("gtfock", 4, "fetch"): {
        "clock": [
            0.00022385639505377448, 8e-05, 0.00021605405344419091, 0.0001893528145613704,
        ],
        "calls": [15, 4, 9, 21],
        "bytes": [1632, 648, 1728, 2000],
        "flight": {
            "msgs": {
                "prefetch_get": 16, "task_get": 16, "fock_acc": 12, "steal_d": 2,
                "steal_f": 2, "steal_task": 0, "queue": 0, "retry": 1,
            },
            "bytes": {
                "prefetch_get": 2592, "task_get": 240, "fock_acc": 1944, "steal_d": 864,
                "steal_f": 360, "steal_task": 0, "queue": 0, "retry": 8,
            },
            "time": {
                "prefetch_get": 5.033696e-05, "task_get": 8.004800000000002e-05,
                "fock_acc": 4.5298080000000005e-05, "steal_d": 1.01728e-05,
                "steal_f": 1.0072000000000001e-05, "steal_task": 0.0, "queue": 0.0,
                "retry": 0.0002377237748203244,
            },
            "ops": {
                "prefetch_get": 0, "task_get": 0, "fock_acc": 0, "steal_d": 0, "steal_f": 0,
                "steal_task": 20, "queue": 4, "retry": 0,
            },
        },
        "steals": 2,
        "recoveries": 5,
        "reexecuted": 7,
        "dead": [1],
    },
    ("gtfock", 9, "fetch"): {
        "clock": [
            0.0004250618650614007, 0.000117206761643178, 0.00023825449800728114,
            0.0003427563071033791, 0.0003883677330373739, 0.0002764491602091899,
            0.00023769868479800633, 0.0002448278569748543, 0.00026724882184902014,
        ],
        "calls": [38, 9, 23, 20, 37, 19, 11, 22, 37],
        "bytes": [3048, 880, 2544, 1728, 3424, 1280, 1160, 2224, 2024],
        "flight": {
            "msgs": {
                "prefetch_get": 54, "task_get": 47, "fock_acc": 63, "steal_d": 14,
                "steal_f": 21, "steal_task": 0, "queue": 0, "retry": 17,
            },
            "bytes": {
                "prefetch_get": 3888, "task_get": 712, "fock_acc": 4400, "steal_d": 6960,
                "steal_f": 1704, "steal_task": 0, "queue": 0, "retry": 648,
            },
            "time": {
                "prefetch_get": 0.00021061344000000001, "task_get": 0.00023514240000000006,
                "fock_acc": 0.00028078352, "steal_d": 7.1392e-05,
                "steal_f": 0.00010030480000000001, "steal_task": 0.0, "queue": 0.0,
                "retry": 0.0013326369043843045,
            },
            "ops": {
                "prefetch_get": 0, "task_get": 0, "fock_acc": 0, "steal_d": 0, "steal_f": 0,
                "steal_task": 181, "queue": 9, "retry": 0,
            },
        },
        "steals": 18,
        "recoveries": 5,
        "reexecuted": 9,
        "dead": [1],
    },
}


def accounting(res) -> dict:
    stats = res.stats
    out = {
        "clock": [float(x) for x in stats.clock],
        "calls": [int(x) for x in stats.calls],
        "bytes": [int(x) for x in stats.bytes],
        "flight": {
            field: stats.flight.channel_totals(field)
            for field in ("msgs", "bytes", "time", "ops")
        },
    }
    outcome = res.outcome
    if hasattr(outcome, "steals"):
        out.update(
            steals=len(outcome.steals),
            recoveries=len(outcome.recoveries),
            reexecuted=int(outcome.reexecuted_tasks),
            dead=list(outcome.dead_ranks),
        )
    else:
        out["counter_accesses"] = int(outcome.counter_accesses)
    return out


def _build(case, basis, h, d, monkeypatch):
    builder, nproc, mode = case
    engine = MDEngine(basis)
    if builder == "nwchem":
        return nwchem_build(engine, h, d, nproc, TAU)
    if mode == "clean":
        return gtfock_build(engine, h, d, nproc, TAU)
    if mode == "fetch":
        original = gtfock_mod.block_footprint

        def no_cross_region(screen, block):
            fp = original(screen, block)
            fp.phi_rows[:] = False
            fp.phi_cols[:] = False
            return fp

        monkeypatch.setattr(gtfock_mod, "block_footprint", no_cross_region)
    return gtfock_build(engine, h, d, nproc, TAU, faults=fault_plan(nproc))


class TestPinnedAccounting:
    @pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "-".join(map(str, c)))
    def test_accounting_unchanged(
        self, case, methane_basis, methane_matrices, methane_fock_reference, monkeypatch
    ):
        _s, h, _x, d = methane_matrices
        res = _build(case, methane_basis, h, d, monkeypatch)
        assert accounting(res) == PINNED[case]
        assert np.max(np.abs(res.fock - methane_fock_reference)) <= 1e-12


class TestSweptQuartets:
    def test_fault_free_builds_compute_each_quartet_once(
        self, methane_basis, methane_matrices
    ):
        _s, h, _x, d = methane_matrices
        want = MDEngine(methane_basis).class_plan(TAU).nquartets
        tracer = Tracer()
        gt_engine = MDEngine(methane_basis)
        gt = gtfock_build(gt_engine, h, d, 4, TAU, tracer=tracer)
        assert gt_engine.quartets_computed == want
        assert gt.quartets_computed == want
        (top,) = [s for s in tracer.spans() if s.name == "gtfock_build"]
        assert top.args["quartets"] == want
        # executed tasks are far fewer than quartets
        assert int(gt.outcome.executed_tasks.sum()) < want
        nw_engine = MDEngine(methane_basis)
        nwchem_build(nw_engine, h, d, 4, TAU)
        assert nw_engine.quartets_computed == want

    def test_dead_ranks_quartets_are_not_swept(self, methane_basis, methane_matrices):
        _s, h, _x, d = methane_matrices
        res = gtfock_build(MDEngine(methane_basis), h, d, 4, TAU, faults=fault_plan(4))
        assert res.outcome.reexecuted_tasks > 0
        assert res.quartets_computed == MDEngine(methane_basis).class_plan(TAU).nquartets


class TestNWChemSweepWindows:
    def test_stacked_jk_is_bounded_by_the_budget(
        self, methane_basis, methane_matrices, methane_fock_reference, monkeypatch
    ):
        """A budget of three task slots sweeps the tasks three at a time:
        the stacked J/K never holds every task, and nothing else moves."""
        _s, h, _x, d = methane_matrices
        nbf = methane_basis.nbf
        monkeypatch.setattr(nwchem_mod, "_SWEEP_BYTES", 3 * 16 * nbf * nbf)
        widths = []
        sweep = nwchem_mod.jk_for_quartets

        def spy(*args, **kwargs):
            j, k = sweep(*args, **kwargs)
            widths.append(j.shape[0])
            return j, k

        monkeypatch.setattr(nwchem_mod, "jk_for_quartets", spy)
        res = nwchem_build(MDEngine(methane_basis), h, d, 4, TAU)
        assert max(widths) == 3 < res.ntasks
        assert sum(widths) == res.ntasks
        assert accounting(res) == PINNED[("nwchem", 4, "clean")]
        assert np.max(np.abs(res.fock - methane_fock_reference)) <= 1e-12


class TestGenericEngines:
    """Engines without the class kernel go through the same sweep."""

    @pytest.mark.parametrize("engine_cls", [OSEngine, SyntheticERIEngine])
    def test_builds_match_sequential(self, engine_cls, methane_basis, methane_matrices):
        _s, h, _x, d = methane_matrices
        ref = fock_matrix(engine_cls(methane_basis), h, d, TAU)
        gt = gtfock_build(engine_cls(methane_basis), h, d, 4, TAU)
        nw = nwchem_build(engine_cls(methane_basis), h, d, 3, TAU)
        assert np.max(np.abs(gt.fock - ref)) <= 1e-12
        assert np.max(np.abs(nw.fock - ref)) <= 1e-12


class TestScreenTau:
    def test_mismatched_screen_tau_rejected(self, methane_basis, methane_matrices):
        _s, h, _x, d = methane_matrices
        engine = MDEngine(methane_basis)
        screen = ScreeningMap(methane_basis, engine.schwarz(), 1e-10)
        with pytest.raises(ValueError, match="tau"):
            gtfock_build(engine, h, d, 4, TAU, screen=screen)
        with pytest.raises(ValueError, match="tau"):
            nwchem_build(engine, h, d, 4, TAU, screen=screen)
