"""ERI engine abstraction consumed by all Fock builders.

An engine supplies two things:

* ``quartet(M, N, P, Q)`` -- the ERI block for four shell indices;
* ``schwarz()`` -- the shell-pair screening matrix sigma.

Engines provided:

* :class:`MDEngine` / :class:`OSEngine` -- real integrals
  (McMurchie-Davidson / Obara-Saika).
* :class:`SyntheticERIEngine` -- deterministic separable fake integrals
  with the full 8-fold permutational symmetry and distance-based decay.
  They admit *closed-form* J/K contractions, so distributed Fock builds
  on medium-size systems can be validated exactly without O(n^4) work.

Every engine can carry an :class:`~repro.integrals.store.ERIStore` of
canonical quartet blocks -- on disk (``store=``, conventional SCF) or in
memory (``cache_mb=``): ERIs are density-independent, so Fock builds
after the first read blocks back instead of recomputing them.  The
store sits under the class-plan chunk resolver
(:func:`repro.integrals.class_batch.jk_from_plan`), which produces every
block of every engine; ``quartets_computed`` keeps counting only *real*
computations (Table VII call-count benchmarks stay exact) while store
service is tallied separately.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.class_batch import (
    ClassPlan,
    build_class_plan,
    iter_canonical_quartets,
)
from repro.integrals.eri_md import eri_shell_quartet
from repro.integrals.eri_os import eri_shell_quartet_os
from repro.integrals.pairdata import ShellPairData, eri_shell_quartet_batched
from repro.integrals.schwarz import schwarz_matrix, schwarz_model
from repro.integrals.store import ERIStore

#: bound on memoized class plans per engine (IncrementalFockBuilder
#: cycles through a handful of effective thresholds per SCF run)
_MAX_CLASS_PLANS = 8


class NonFiniteERIError(RuntimeError):
    """An ERI block came back NaN/Inf and no rescue path could fix it."""

    def __init__(self, quartet: tuple[int, int, int, int], detail: str = ""):
        self.quartet = quartet
        msg = f"ERI quartet {quartet} is non-finite"
        super().__init__(msg + (f": {detail}" if detail else ""))


class ERIEngine(abc.ABC):
    """Interface between integral generation and Fock construction."""

    def __init__(
        self,
        basis: BasisSet,
        cache_mb: float | None = None,
        store: str | Path | ERIStore | None = None,
    ):
        if cache_mb is not None and store is not None:
            raise ValueError("cache_mb and store are exclusive: pick one ERI store")
        self.basis = basis
        self._schwarz: np.ndarray | None = None
        #: number of quartet blocks actually computed (used by
        #: benchmarks/tests; store service is counted separately)
        self.quartets_computed = 0
        #: number of quartet blocks served by an in-memory store (``cache_mb``)
        self.quartets_served_from_cache = 0
        #: number of quartet blocks read back from an on-disk store
        self.quartets_served_from_store = 0
        #: opt-in integral store (conventional SCF), on disk or in memory
        self.integral_store: ERIStore | None = None
        #: NaN/Inf sentinel on computed chunks (armed by the SCF guard);
        #: off by default so the hot path carries zero extra cost
        self.finite_check = False
        #: non-finite blocks rescued on the reference kernel
        self.eri_rescues = 0
        #: store blocks that failed their CRC and were recomputed
        self.crc_rescues = 0
        #: seeded numerical-corruption hook (the ``scf`` fault family),
        #: drawn once per build over the class plan; see
        #: :class:`repro.runtime.faults.SCFFaultState`
        self.scf_faults = None
        #: memoized class-batched execution plans, keyed by tau
        self._class_plans: OrderedDict[float, ClassPlan] = OrderedDict()
        if cache_mb is not None:
            self.attach_store(ERIStore(None, basis, int(cache_mb * 2**20)))
        if store is not None:
            self.attach_store(store)

    @abc.abstractmethod
    def _quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray: ...

    @abc.abstractmethod
    def _build_schwarz(self) -> np.ndarray: ...

    def attach_store(self, store: str | Path | ERIStore) -> ERIStore:
        """Attach an integral store under the chunk resolver.

        Accepts a directory path (an on-disk :class:`ERIStore` is created
        and opened there) or an already-constructed store, on disk or in
        memory.  An existing on-disk store is reused only if its
        manifest fingerprint matches this engine's basis; otherwise it
        is invalidated (with a warning) and refilled from the next Fock
        build.
        """
        if not isinstance(store, ERIStore):
            store = ERIStore(store, self.basis)
        self.integral_store = store.open_or_fill()
        return self.integral_store

    def detach_store(self) -> None:
        self.integral_store = None

    @property
    def supports_class_batched(self) -> bool:
        """Whether the cross-quartet class-batched J/K path applies."""
        return False

    def class_plan(self, tau: float) -> ClassPlan:
        """The class-batched execution plan for threshold ``tau``, memoized.

        Plans depend only on the basis and the Schwarz-screened quartet
        set, so one plan serves every SCF iteration at a given ``tau``
        (a small LRU absorbs the incremental builder's varying effective
        thresholds).  Planning time lands in the ``class_plan`` profiler
        phase.
        """
        plan = self._class_plans.get(tau)
        if plan is not None:
            self._class_plans.move_to_end(tau)
            return plan
        from repro.obs.profile import PHASE_CLASS_PLAN, get_profiler

        with get_profiler().phase(PHASE_CLASS_PLAN):
            plan = build_class_plan(
                self.basis,
                getattr(self, "pair_cache", None),
                iter_canonical_quartets(self.schwarz(), tau),
            )
        self._class_plans[tau] = plan
        while len(self._class_plans) > _MAX_CLASS_PLANS:
            self._class_plans.popitem(last=False)
        return plan

    def quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        """ERI block (MN|PQ) for shell indices, basis-function shape.

        Counts and computes one block: no store, sentinel or fault
        hook -- those live in the chunk resolver of
        :func:`repro.integrals.class_batch.jk_from_plan`.
        """
        self.quartets_computed += 1
        return self._quartet(m, n, p, q)

    def _rescue_quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        """Last resort for a non-finite block; engines without an
        independent slow path have nothing to degrade to."""
        raise NonFiniteERIError((m, n, p, q), "engine has no rescue path")

    @property
    def supports_reference_path(self) -> bool:
        """Whether :meth:`force_reference_path` can do anything here."""
        return False

    def force_reference_path(self) -> None:
        """Permanently drop to the engine's reference kernel (no-op here)."""

    def schwarz(self) -> np.ndarray:
        """Shell-pair screening values sigma(M,N), cached."""
        if self._schwarz is None:
            from repro.obs.profile import PHASE_SCHWARZ, get_profiler

            with get_profiler().phase(PHASE_SCHWARZ):
                self._schwarz = self._build_schwarz()
        return self._schwarz


class MDEngine(ERIEngine):
    """Real ERIs via McMurchie-Davidson (production engine).

    By default quartets go through the batched primitive kernel fed by a
    per-basis :class:`~repro.integrals.pairdata.ShellPairData` cache;
    ``batched=False`` falls back to the seed per-primitive path (kept as
    the cross-validation reference and for A/B benchmarking).
    """

    def __init__(
        self,
        basis: BasisSet,
        model_schwarz: bool = False,
        batched: bool = True,
        class_batched: bool = True,
        cache_mb: float | None = None,
        store: str | Path | ERIStore | None = None,
    ):
        super().__init__(basis, cache_mb=cache_mb, store=store)
        self.model_schwarz = model_schwarz
        self.batched = batched
        #: opt out of the cross-quartet class-batched J/K path while
        #: keeping the per-quartet batched kernel (A/B benchmarking)
        self.class_batched = class_batched
        self.pair_cache: ShellPairData | None = (
            ShellPairData(basis) if batched else None
        )

    def _quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        sh = self.basis.shells
        if self.pair_cache is not None:
            return eri_shell_quartet_batched(
                sh[m], sh[n], sh[p], sh[q],
                bra=self.pair_cache.get(m, n),
                ket=self.pair_cache.get(p, q),
            )
        return eri_shell_quartet(sh[m], sh[n], sh[p], sh[q])

    def _rescue_quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        """Graceful degradation at quartet granularity.

        A non-finite batched block is recomputed on the independent
        per-primitive reference kernel (the two agree to ~3e-15 per
        element, so a rescued build stays inside the 1e-12 chaos gate).
        """
        sh = self.basis.shells
        block = eri_shell_quartet(sh[m], sh[n], sh[p], sh[q])
        if not np.isfinite(block).all():
            raise NonFiniteERIError(
                (m, n, p, q), "reference kernel is non-finite too"
            )
        return block

    @property
    def supports_reference_path(self) -> bool:
        return True

    @property
    def supports_class_batched(self) -> bool:
        """The cross-quartet path shares the batched MD kernel math, so
        it is available exactly when the batched kernel is (and not
        explicitly opted out)."""
        return (
            self.class_batched and self.batched and self.pair_cache is not None
        )

    def force_reference_path(self) -> None:
        """Permanently fall back to the per-primitive reference kernel.

        The guard's last ladder rung: disables the batched kernel, its
        pair cache, and the class-batched plans, and detaches any integral
        store, in memory or on disk (stored blocks may have come from the
        distrusted fast path).
        """
        self.batched = False
        self.pair_cache = None
        self._class_plans.clear()
        self.integral_store = None

    def _build_schwarz(self) -> np.ndarray:
        if self.model_schwarz:
            return schwarz_model(self.basis)
        return schwarz_matrix(self.basis)


class OSEngine(ERIEngine):
    """Real ERIs via Obara-Saika (validation engine, Table V comparator)."""

    def _quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        sh = self.basis.shells
        return eri_shell_quartet_os(sh[m], sh[n], sh[p], sh[q])

    def _build_schwarz(self) -> np.ndarray:
        return schwarz_matrix(self.basis)


class SyntheticERIEngine(ERIEngine):
    """Deterministic symmetric fake ERIs with closed-form contractions.

    ``(ij|kl) = u_i u_j u_k u_l + v_ij v_kl`` with
    ``v_ij = w_i w_j exp(-gamma d_ij^2)`` (d = distance between the owning
    shells' centers).  This satisfies all permutational symmetries of
    Eq (4) exactly and decays with distance like real integrals, so
    Cauchy-Schwarz screening behaves realistically.

    Closed forms used by :meth:`coulomb_exact` / :meth:`exchange_exact`::

        J = (u^T D u) u u^T + (sum_kl D_kl v_kl) V
        K = (u^T D u) u u^T + V D V
    """

    def __init__(self, basis: BasisSet, gamma: float = 0.08, seed: int = 7):
        super().__init__(basis)
        rng = np.random.default_rng(seed)
        n = basis.nbf
        self.u = rng.uniform(0.05, 0.25, n)
        w = rng.uniform(0.3, 1.0, n)
        # function -> shell center map
        centers = np.empty((n, 3))
        for s in range(basis.nshells):
            centers[basis.shell_slice(s)] = basis.shells[s].center
        diff = centers[:, None, :] - centers[None, :, :]
        d2 = np.einsum("ijd,ijd->ij", diff, diff)
        self.v = w[:, None] * w[None, :] * np.exp(-gamma * d2)

    def _quartet(self, m: int, n: int, p: int, q: int) -> np.ndarray:
        b = self.basis
        sm, sn, sp, sq = (b.shell_slice(s) for s in (m, n, p, q))
        u = self.u
        out = (
            u[sm, None, None, None]
            * u[None, sn, None, None]
            * u[None, None, sp, None]
            * u[None, None, None, sq]
        )
        out = out + self.v[sm, sn][:, :, None, None] * self.v[sp, sq][None, None, :, :]
        return out

    def _build_schwarz(self) -> np.ndarray:
        # sigma(M,N) = max_{ij in MN} sqrt((ij|ij)); (ij|ij) = u_i^2 u_j^2 + v_ij^2
        b = self.basis
        fn = np.sqrt(self.u[:, None] ** 2 * self.u[None, :] ** 2 + self.v**2)
        ns = b.nshells
        sigma = np.empty((ns, ns))
        offsets = b.offsets
        for m in range(ns):
            rows = fn[offsets[m] : offsets[m + 1]]
            # reduce function rows to shell blocks along columns
            col_max = np.maximum.reduceat(rows.max(axis=0), offsets[:-1])
            sigma[m] = col_max
        return sigma

    # -- exact closed-form contractions (for validation) --------------------

    def coulomb_exact(self, density: np.ndarray) -> np.ndarray:
        """J_ij = sum_kl D_kl (kl|ij), computed in O(n^2)."""
        s1 = float(self.u @ density @ self.u)
        s2 = float(np.sum(density * self.v))
        return s1 * np.outer(self.u, self.u) + s2 * self.v

    def exchange_exact(self, density: np.ndarray) -> np.ndarray:
        """K_ij = sum_kl D_kl (ki|lj), computed in O(n^2) + one matmul."""
        s1 = float(self.u @ density @ self.u)
        return s1 * np.outer(self.u, self.u) + self.v @ density @ self.v

    def fock_exact(self, hcore: np.ndarray, density: np.ndarray) -> np.ndarray:
        """F = Hcore + 2J - K with *no screening* (tau = 0 reference)."""
        return hcore + 2.0 * self.coulomb_exact(density) - self.exchange_exact(density)
