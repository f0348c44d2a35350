"""Span tracing for the benchmark's traced run, from outside the program.

The program is left untouched: :class:`Tracer` replaces the public
functions and methods at each layer boundary with thin wrappers for the
length of the traced run, and puts the originals back afterwards.

* A *timed* target records one span per call: name, start, end, parent
  span and op id.  Spans stay in memory until :meth:`Tracer.write`.
* A *counted* target (the per-task hot methods of the simulator) only
  increments a counter, so tracing does not time ~10^7 tiny calls.

A layer's self time is its spans' duration minus the time covered by
their child spans, so the self times of one op add up to its wall time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

#: timed layer boundaries: metric -> (module, attribute path) targets.
#: A function imported by name into other modules is replaced in every
#: module namespace that holds it, so call sites that bound the name at
#: import time are traced too.
TIMED = {
    "chem.basis_build_s": [("repro.chem.basis.basisset", "BasisSet.build")],
    "integrals.schwarz_s": [("repro.integrals.engine", "ERIEngine.schwarz")],
    "integrals.class_plan_s": [("repro.integrals.engine", "ERIEngine.class_plan")],
    "integrals.eri_kernel_s": [("repro.integrals.class_batch", "compute_class_rows")],
    "integrals.jk_scatter_s": [("repro.integrals.class_batch", "jk_from_plan")],
    "integrals.store_write_s": [
        ("repro.integrals.store", "ERIStore.record_batch"),
        ("repro.integrals.store", "ERIStore.finalize"),
    ],
    "integrals.store_read_s": [("repro.integrals.store", "ERIStore.read_stacked")],
    "integrals.quartet_s": [("repro.integrals.engine", "ERIEngine.quartet")],
    "scf.fock_build_s": [("repro.scf.fock", "fock_matrix")],
    "scf.setup_s": [
        ("repro.integrals.oneelec", "overlap"),
        ("repro.integrals.oneelec", "core_hamiltonian"),
        ("repro.scf.orthogonalization", "orthogonalizer"),
        ("repro.scf.guess", "core_guess"),
    ],
    "scf.diis_s": [
        ("repro.scf.diis", "DIIS.error_vector"),
        ("repro.scf.diis", "DIIS.push"),
        ("repro.scf.diis", "DIIS.extrapolate"),
    ],
    "scf.density_s": [("repro.scf.orthogonalization", "density_from_fock")],
    "fock.molecule_setup_s": [("repro.bench.harness", "molecule_setup")],
    "fock.simulate_nwchem_s": [("repro.fock.simulate", "simulate_nwchem")],
    "fock.centralized_s": [("repro.fock.centralized", "run_centralized")],
    "fock.nwchem_task_arrays_s": [
        ("repro.fock.nwchem_cost", "build_nwchem_task_arrays")
    ],
    "fock.simulate_gtfock_s": [("repro.fock.simulate", "simulate_gtfock")],
    "fock.work_stealing_s": [("repro.fock.stealing", "run_work_stealing")],
    "fock.prefetch_footprint_s": [("repro.fock.prefetch", "block_footprint")],
    "fock.gtfock_build_s": [("repro.fock.gtfock", "gtfock_build")],
    "fock.nwchem_build_s": [("repro.fock.nwchem", "nwchem_build")],
    "bench.drivers_s": [
        ("repro.bench.experiments", name)
        for name in (
            "table2_molecules", "table3_times", "table4_speedup",
            "table5_t_int", "table6_volume", "table7_calls",
            "table8_load_balance", "table9_purification",
            "figure1_footprint", "figure2_overhead", "model_analysis",
        )
    ],
}

#: metrics reported as inclusive time (the span's whole duration): the
#: time of one whole Fock build, real or simulated, is the paper's own
#: metric.  Every other timed metric is self time.
INCLUSIVE = {
    "scf.fock_build_s", "fock.gtfock_build_s", "fock.nwchem_build_s",
    "fock.simulate_gtfock_s", "fock.simulate_nwchem_s",
}

#: timed metrics whose call count is reported too
CALL_COUNTS = {
    "integrals.kernel_calls": "integrals.eri_kernel_s",
    "integrals.quartet_calls": "integrals.quartet_s",
}

#: counted-only hot methods: metric -> (module, attribute path)
COUNTED = {
    "runtime.charge_comm_calls": ("repro.runtime.network", "CommStats.charge_comm"),
    "runtime.read_inc_calls": ("repro.runtime.ga", "SharedCounter.read_inc"),
    "runtime.event_pops": ("repro.runtime.event", "EventQueue.pop"),
    "obs.flight_records": ("repro.obs.flight", "FlightRecorder.record"),
}

#: the span that wraps each op; its self time is the op's wall time
#: spent outside every traced layer
OP_SPAN = "op"
UNATTRIBUTED = "op.unattributed_s"

_MARK = "__perfbench_wrapper__"


def _resolve(module: str, path: str):
    """(owner, attribute name, raw attribute) for ``module:path``."""
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], inspect.getattr_static(owner, parts[-1])


class Tracer:
    """Installs layer wrappers, records spans and counts, and removes them.

    Spans nest on one stack, so the traced program must run on one
    thread; the runner pins ``REPRO_JK_THREADS=1``.
    """

    def __init__(self) -> None:
        #: span name of each name id
        self.names: list[str] = []
        #: op id of each op index
        self.ops: list = []
        # one entry per span, in start order.  Flat arrays hold no
        # objects, so a garbage collection does not walk every span.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        #: counted-method calls per op id
        self.op_counts: dict = {}
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _enter(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id, fn):
        """Call ``fn()`` inside an :data:`OP_SPAN` span tagged ``op_id``."""
        self.ops.append(op_id)
        self._op = len(self.ops) - 1
        before = dict(self.counts)
        idx = self._enter(self._name_id(OP_SPAN))
        try:
            return fn()
        finally:
            self._exit(idx)
            self._op = -1
            self.op_counts[op_id] = {
                k: v - before.get(k, 0) for k, v in self.counts.items()
            }

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, name: str):
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            idx = self._enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _install(self, module: str, path: str, make) -> None:
        owner, attr, raw = _resolve(module, path)
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(make(raw.__func__))
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        wrapped = make(raw)
        if inspect.isclass(owner):
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        # a module-level function: replace it wherever it was imported
        for mod in list(sys.modules.values()):
            ns = getattr(mod, "__dict__", None)
            if not isinstance(ns, dict):
                continue
            for key, value in list(ns.items()):
                if value is raw:
                    self._restore.append((mod, key, raw))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        """Wrap every :data:`TIMED` and :data:`COUNTED` target."""
        if self._restore:
            raise RuntimeError("tracer wrappers are already installed")
        try:
            for metric, targets in TIMED.items():
                for module, path in targets:
                    self._install(
                        module, path, lambda fn, m=metric: self._timed(fn, m)
                    )
            for metric, (module, path) in COUNTED.items():
                self._install(
                    module, path, lambda fn, m=metric: self._counted(fn, m)
                )
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the time its direct children cover."""
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * len(dur)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def per_op(self) -> dict:
        """``{op id: {metric: value}}`` of every timed metric and count.

        Self time of the :data:`OP_SPAN` lands in :data:`UNATTRIBUTED`;
        the op's wall time is under ``"wall_s"`` and the sum of all its
        spans' self times under ``"accounted_s"``.
        """
        out: dict = defaultdict(lambda: defaultdict(float))
        spans = zip(self.span_name, self.span_start, self.span_end,
                    self.span_op, self.self_times())
        for name_id, start, end, op_idx, own in spans:
            name = self.names[name_id]
            row = out[self.ops[op_idx]]
            row["accounted_s"] += own
            if name == OP_SPAN:
                row[UNATTRIBUTED] += own
                row["wall_s"] += end - start
                continue
            row[name] += (end - start) if name in INCLUSIVE else own
            row["_calls." + name] += 1
        return {
            op: {
                **{m: row.get(m, 0.0) for m in TIMED},
                **{c: row.get("_calls." + m, 0) for c, m in CALL_COUNTS.items()},
                **{m: self.op_counts.get(op, {}).get(m, 0) for m in COUNTED},
                UNATTRIBUTED: row.get(UNATTRIBUTED, 0.0),
                "wall_s": row.get("wall_s", 0.0),
                "accounted_s": row["accounted_s"],
            }
            for op, row in out.items()
        }

    def write(self, path) -> None:
        """Write every span (and the hot-method counts) as one JSON file."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "names": self.names,
                    "ops": self.ops,
                    "spans": [
                        [n, round(s, 7), round(e, 7), p, o]
                        for n, s, e, p, o in zip(
                            self.span_name, self.span_start, self.span_end,
                            self.span_parent, self.span_op,
                        )
                    ],
                    "counts": dict(self.counts),
                },
                fh,
            )


def installed_wrappers() -> list[str]:
    """Every traced target that currently holds a tracer wrapper."""
    found = []
    targets = [t for ts in TIMED.values() for t in ts] + list(COUNTED.values())
    for module, path in targets:
        owner, attr, raw = _resolve(module, path)
        fn = getattr(raw, "__func__", raw)
        if getattr(fn, _MARK, False):
            found.append(f"{module}:{path}")
    for mod in list(sys.modules.values()):
        ns = getattr(mod, "__dict__", None)
        if isinstance(ns, dict):
            for key, value in list(ns.items()):
                if callable(value) and getattr(value, _MARK, False) is True:
                    found.append(f"{getattr(mod, '__name__', mod)}:{key}")
    return sorted(set(found))
