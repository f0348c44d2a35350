"""Cross-quartet, class-batched ERI evaluation and J/K contraction.

A per-quartet Fock build pays interpreter and einsum-dispatch overhead
per shell quartet, exactly the loop structure the MPI/OpenMP Xeon Phi
HF restructure (arxiv 1708.00033) targets.  This module restructures
the loop the same way, and every J/K build of every engine runs
through it:

* **Class plan** (:func:`build_class_plan`): Schwarz-surviving canonical
  quartets are grouped by angular-momentum class -- the tuple
  ``(la, lb, lc, ld, pure flags, npp_bra, npp_ket)`` that fixes every
  array shape of the MD kernel.  Each class stacks the unique bra/ket
  :class:`~repro.integrals.pairdata.PairData` records into contiguous
  tensors once, and records per-quartet slots into those stacks.
* **Class-batched kernel** (one sweep per chunk): a single
  ``boys_array``/:func:`~repro.integrals.hermite.r_tensor_batch` call
  over *all* primitive quartets of up to thousands of shell quartets,
  followed by one 4-operand einsum with a leading quartet axis --
  replacing thousands of per-quartet kernel calls with a handful of
  large contractions.
* **Batched scatter** (:func:`_scatter_chunk`): quartets are sorted by
  their index-coincidence pattern, so each permutation image of a whole
  sub-batch is applied with one multi-quartet einsum against the
  gathered density blocks and one ``np.bincount`` scatter-add --
  replacing a per-quartet ``np.einsum`` pair.
* **Chunk resolver** (:func:`_resolve_chunk`): the one place a chunk's
  blocks come from -- a whole-chunk integral-store read, else the class
  kernel (or, for engines without it, their own quartet kernel
  stacked), then seeded ``scf`` corruption, the NaN/Inf sentinel's
  reference-kernel rescue, and recording to a filling store.
* **Threaded contraction** (:func:`jk_from_plan` ``threads=``): class
  chunks are dealt cost-sorted across a thread pool, each worker
  accumulating into private J/K buffers that are reduced at the end.

Numerics agree with per-quartet contraction to summation order (tests
pin <= 1e-10 elementwise across mixed s/p/d bases; the water benchmark
gate pins <= 1e-12 on J/K vs the seed kernel).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shells import (
    cartesian_components,
    component_scale,
    ncart,
    nsph,
)
from repro.integrals.hermite import r_tensor_batch
from repro.integrals.pairdata import (
    _TWO_PI_52,
    ShellPairData,
    StackedPairs,
    stack_pairs,
)
from repro.integrals.spherical import transform_matrix

#: The 8 axis permutations of an (ab|cd) block under Eq (4)'s
#: permutational symmetry.  This is the one shared definition -- the
#: distributed builders in ``repro.fock`` import it.
EIGHT_PERMUTATIONS: tuple[tuple[int, int, int, int], ...] = (
    (0, 1, 2, 3),
    (1, 0, 2, 3),
    (0, 1, 3, 2),
    (1, 0, 3, 2),
    (2, 3, 0, 1),
    (3, 2, 0, 1),
    (2, 3, 1, 0),
    (3, 2, 1, 0),
)

#: budget (float64 elements) for the Hermite r-recursion working set of
#: one sweep; bounds peak memory and keeps chunks cache-friendly
MAX_R_WORK = 1 << 22

#: hard cap on shell quartets per chunk (index/scatter array sizes)
MAX_CHUNK_QUARTETS = 8192


def iter_canonical_quartets(sigma: np.ndarray, tau: float):
    """Canonical (M>=N, pair(MN) >= pair(PQ)) screened shell quartets.

    ``sigma`` is the shell-pair Schwarz matrix; a quartet survives iff
    ``sigma[M,N] * sigma[P,Q] > tau``.  (Moved here from
    ``repro.scf.fock`` so the class planner sits below the Fock builders
    in the import graph; ``canonical_shell_quartets`` still re-exports
    it.)
    """
    ns = sigma.shape[0]
    for m in range(ns):
        for n in range(m + 1):
            smn = sigma[m, n]
            if smn <= 0.0:
                continue
            for p in range(m + 1):
                qmax = n if p == m else p
                for q in range(qmax + 1):
                    if smn * sigma[p, q] > tau:
                        yield (m, n, p, q)


def distinct_perms(
    quartet: tuple[int, int, int, int]
) -> tuple[tuple[int, int, int, int], ...]:
    """The permutations of :data:`EIGHT_PERMUTATIONS` whose images of
    ``quartet`` are distinct, in enumeration order.

    Which images coincide depends only on the *equality pattern* of the
    four indices (which positions hold equal values), so one
    representative answers for every quartet sharing its pattern --
    that is what lets the batched scatter apply a uniform permutation
    list to a whole sub-batch.
    """
    seen: set[tuple[int, int, int, int]] = set()
    perms = []
    for perm in EIGHT_PERMUTATIONS:
        img = (quartet[perm[0]], quartet[perm[1]],
               quartet[perm[2]], quartet[perm[3]])
        if img not in seen:
            seen.add(img)
            perms.append(perm)
    return tuple(perms)


@dataclass
class ClassBatch:
    """All surviving quartets of one angular-momentum class.

    ``quartets`` rows are sorted by index-coincidence pattern so each
    ``subgroups`` entry is a contiguous ``(lo, hi, perms)`` slice whose
    members share one distinct-permutation list.
    """

    lkey: tuple[int, int, int, int]
    pure: tuple[bool, bool, bool, bool]
    #: basis-function block shape (spherical length on pure axes)
    dims: tuple[int, int, int, int]
    lmax: int
    quartets: np.ndarray  # (nq, 4) int64
    bra_slots: np.ndarray  # (nq,) into ``bra`` stacks
    ket_slots: np.ndarray
    bra: StackedPairs
    ket: StackedPairs
    subgroups: list[tuple[int, int, tuple]]
    #: estimated primitive-quartet work (thread balancing / chunking)
    cost: float
    # -- precomputed kernel constants ------------------------------------
    TT: np.ndarray = field(repr=False, default=None)
    UU: np.ndarray = field(repr=False, default=None)
    VV: np.ndarray = field(repr=False, default=None)
    ket_sign: np.ndarray = field(repr=False, default=None)
    scales: tuple = field(repr=False, default=None)
    transforms: tuple = field(repr=False, default=None)
    #: memoized store-offset resolution: (store, generation, offsets)
    _store_res: tuple = field(repr=False, default=None, compare=False)
    #: per-row J/K output slot (``None``: one J/K pair), sorted with ``quartets``
    slots: np.ndarray | None = None

    @property
    def nq(self) -> int:
        return int(self.quartets.shape[0])

    @property
    def block_size(self) -> int:
        d = self.dims
        return d[0] * d[1] * d[2] * d[3]

    def chunk_rows(self) -> int:
        """Quartets per sweep under the :data:`MAX_R_WORK` budget."""
        per_q = self.bra.npp * self.ket.npp * (self.lmax + 1) ** 4
        return int(max(1, min(MAX_CHUNK_QUARTETS, MAX_R_WORK // max(per_q, 1))))


@dataclass
class ClassPlan:
    """The class-grouped execution plan of one screened quartet set."""

    batches: list[ClassBatch]
    nquartets: int
    #: number of stacked J/K outputs (``None``: one J/K pair)
    nslots: int | None = None

    def chunks(self) -> list[tuple[ClassBatch, int, int]]:
        """All ``(batch, lo, hi)`` work items, largest classes first."""
        out = []
        for batch in self.batches:
            step = batch.chunk_rows()
            for lo in range(0, batch.nq, step):
                out.append((batch, lo, min(lo + step, batch.nq)))
        return out


def _build_batch(
    basis: BasisSet, pair_cache: ShellPairData, qarr: np.ndarray,
    out_slots: np.ndarray | None,
) -> ClassBatch:
    shells = [basis.shells[int(i)] for i in qarr[0]]
    la, lb, lc, ld = (sh.l for sh in shells)
    pure = tuple(sh.pure for sh in shells)
    m, n, p, q = qarr.T
    pattern = (
        (m == n).astype(np.int64)
        | ((p == q).astype(np.int64) << 1)
        | ((m == p).astype(np.int64) << 2)
        | ((m == q).astype(np.int64) << 3)
        | ((n == p).astype(np.int64) << 4)
        | ((n == q).astype(np.int64) << 5)
    )
    order = np.argsort(pattern, kind="stable")
    qarr = qarr[order]
    if out_slots is not None:
        out_slots = out_slots[order]
    pattern = pattern[order]
    subgroups: list[tuple[int, int, tuple]] = []
    lo = 0
    nq = qarr.shape[0]
    while lo < nq:
        hi = lo + int(np.searchsorted(pattern[lo:], pattern[lo], side="right"))
        subgroups.append((lo, hi, distinct_perms(tuple(int(i) for i in qarr[lo]))))
        lo = hi

    def slot_pairs(cols: np.ndarray):
        index: dict[tuple[int, int], int] = {}
        ids = [index.setdefault(pk, len(index)) for pk in map(tuple, cols.tolist())]
        return np.array(ids, dtype=np.int64), list(index)

    bra_slots, bra_pairs = slot_pairs(qarr[:, :2])
    ket_slots, ket_pairs = slot_pairs(qarr[:, 2:])
    bra = stack_pairs(pair_cache, bra_pairs)
    ket = stack_pairs(pair_cache, ket_pairs)

    lmax = la + lb + lc + ld
    dims = tuple(
        nsph(l) if pu else ncart(l)
        for l, pu in zip((la, lb, lc, ld), pure)
    )
    TT = bra.tt[:, None] + ket.tt[None, :]
    UU = bra.uu[:, None] + ket.uu[None, :]
    VV = bra.vv[:, None] + ket.vv[None, :]
    ket_sign = (-1.0) ** (ket.tt + ket.uu + ket.vv)
    scales = tuple(
        np.array([component_scale(*c) for c in cartesian_components(l)])
        for l in (la, lb, lc, ld)
    )
    transforms = tuple(
        transform_matrix(l) if pu else None
        for l, pu in zip((la, lb, lc, ld), pure)
    )
    cost = float(nq) * bra.npp * ket.npp * (lmax + 1) ** 4
    return ClassBatch(
        lkey=(la, lb, lc, ld), pure=pure, dims=dims, lmax=lmax,
        quartets=qarr, bra_slots=bra_slots, ket_slots=ket_slots,
        bra=bra, ket=ket, subgroups=subgroups, cost=cost,
        TT=TT, UU=UU, VV=VV, ket_sign=ket_sign,
        scales=scales, transforms=transforms, slots=out_slots,
    )


def _quartet_rows(quartets) -> np.ndarray:
    """An iterable of shell-index 4-tuples (or an array) as ``(nq, 4)`` int64."""
    if not isinstance(quartets, np.ndarray):
        quartets = np.fromiter(quartets, dtype=np.dtype((np.int64, 4)))
    return quartets.reshape(-1, 4).astype(np.int64, copy=False)


def build_class_plan(
    basis: BasisSet,
    pair_cache: ShellPairData | None,
    quartets,
    slots=None,
    nslots: int | None = None,
) -> ClassPlan:
    """Group ``quartets`` (an iterable of shell-index 4-tuples, or an
    ``(nq, 4)`` array) by class, classes in order of first appearance.

    ``pair_cache`` supplies (and memoizes) the stacked
    :class:`~repro.integrals.pairdata.PairData`; pass ``None`` to use a
    throwaway per-plan cache.  ``slots`` (one int in ``[0, nslots)`` per
    quartet; ``nslots`` defaults to the largest slot + 1) routes each
    quartet to its own stacked J/K output.
    """
    if pair_cache is None:
        pair_cache = ShellPairData(basis)
    qarr = _quartet_rows(quartets)
    if slots is not None:
        slots = np.asarray(slots, dtype=np.int64)
        if nslots is None:
            nslots = int(slots.max()) + 1 if slots.size else 0
    # the class key (la, lb, lc, ld, pure flags, npp_bra, npp_ket) packed
    # into one int64 per quartet: 4 bits per l, 4 pure bits, 20 bits per
    # primitive-pair count
    shells = basis.shells
    lv = np.array([sh.l for sh in shells], dtype=np.int64)
    pv = np.array([sh.pure for sh in shells], dtype=np.int64)
    nv = np.array([sh.nprim for sh in shells], dtype=np.int64)
    m, n, p, q = qarr.T
    code = (((lv[m] * 16 + lv[n]) * 16 + lv[p]) * 16 + lv[q]) * 16
    code += pv[m] | pv[n] << 1 | pv[p] << 2 | pv[q] << 3
    code = code << 40 | nv[m] * nv[n] << 20 | nv[p] * nv[q]
    # group ids numbered in order of first appearance
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    gid = rank[inverse.ravel()]
    order = np.argsort(gid, kind="stable")
    batches = []
    start = 0
    for stop in np.cumsum(np.bincount(gid)):
        rows = order[start:stop]
        start = stop
        batches.append(_build_batch(
            basis, pair_cache, qarr[rows], None if slots is None else slots[rows]
        ))
    batches.sort(key=lambda b: -b.cost)
    return ClassPlan(
        batches=batches, nquartets=sum(b.nq for b in batches),
        nslots=None if slots is None else nslots,
    )


# ---------------------------------------------------------------------------
# the class-batched MD kernel
# ---------------------------------------------------------------------------


def compute_class_rows(batch: ClassBatch, rows) -> np.ndarray:
    """ERI blocks for ``rows`` of a class in one primitive sweep.

    Returns the stacked, finalized blocks of shape ``(nrows, *dims)``:
    one ``boys_array``/``r_tensor_batch`` evaluation and one einsum over
    every primitive quartet of every selected shell quartet.
    """
    bra, ket = batch.bra, batch.ket
    bs = batch.bra_slots[rows]
    ks = batch.ket_slots[rows]
    cb, pb, Pb, Eb = bra.coef[bs], bra.p[bs], bra.P[bs], bra.E[bs]
    ck, pk, Pk, Ek = ket.coef[ks], ket.p[ks], ket.P[ks], ket.E[ks]
    nq, nb = pb.shape
    nk = pk.shape[1]

    pbx = pb[:, :, None]
    qkx = pk[:, None, :]
    psum = pbx + qkx
    alpha = pbx * qkx / psum
    pq_vec = Pb[:, :, None, :] - Pk[:, None, :, :]
    r = r_tensor_batch(batch.lmax, alpha.ravel(), pq_vec.reshape(-1, 3))
    hb, hk = batch.TT.shape
    rmat = (
        (r[:, batch.TT, batch.UU, batch.VV] * batch.ket_sign[None, None, :])
        .reshape(nq, nb, nk, hb, hk)
    )
    pref = (
        cb[:, :, None] * ck[:, None, :] * _TWO_PI_52
        / (pbx * qkx * np.sqrt(psum))
    )
    # the 4-operand contraction sum_{x,y,i,j} Eb R Ek pref as two batched
    # matmuls (BLAS; no per-call einsum path search): fold pref into R,
    # then (ab, xi) @ (xi, yj) @ (yj, cd)
    rp = rmat * pref[:, :, :, None, None]
    na, nb_c = Eb.shape[2], Eb.shape[3]
    nc, nd = Ek.shape[2], Ek.shape[3]
    ebm = Eb.transpose(0, 2, 3, 1, 4).reshape(nq, na * nb_c, nb * hb)
    rpm = rp.transpose(0, 1, 3, 2, 4).reshape(nq, nb * hb, nk * hk)
    ekm = Ek.transpose(0, 1, 4, 2, 3).reshape(nq, nk * hk, nc * nd)
    out = np.matmul(np.matmul(ebm, rpm), ekm).reshape(nq, na, nb_c, nc, nd)
    return _finalize_class(out, batch)


def _finalize_class(out: np.ndarray, batch: ClassBatch) -> np.ndarray:
    """Batched component normalization + spherical transform.

    The stacked equivalent of
    :func:`repro.integrals.eri_md.finalize_quartet`: scales broadcast
    over the leading quartet axis; each pure axis is contracted with the
    shared solid-harmonic matrix of its angular momentum.
    """
    for axis, scale in enumerate(batch.scales):
        shape = [1, 1, 1, 1, 1]
        shape[axis + 1] = scale.size
        out *= scale.reshape(shape)
    for axis, t in enumerate(batch.transforms):
        if t is None:
            continue
        out = np.tensordot(out, t, axes=([axis + 1], [1]))
        out = np.moveaxis(out, -1, axis + 1)
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# the batched J/K scatter
# ---------------------------------------------------------------------------


def _scatter_chunk(
    jflat: np.ndarray,
    kflat: np.ndarray,
    density: np.ndarray,
    starts: np.ndarray,
    batch: ClassBatch,
    blocks: np.ndarray,
    lo: int,
    hi: int,
) -> None:
    """Accumulate one chunk's stacked blocks into flat J/K buffers.

    For every distinct permutation image of each coincidence subgroup::

        J[a,b] += sum_cd (ab|cd) D[c,d]
        K[a,c] += sum_bd (ab|cd) D[b,d]

    computed as one multi-quartet einsum per image and scattered with a
    single ``np.bincount`` per matrix.

    A slotted batch scatters row ``i`` into segment ``batch.slots[i]`` of
    the flat buffers (and reads ``density[slot]`` if D is stacked).
    """
    n = density.shape[-1]
    ranges = [np.arange(d) for d in batch.dims]
    for glo, ghi, perms in batch.subgroups:
        s, e = max(glo, lo), min(ghi, hi)
        if s >= e:
            continue
        blk_rows = blocks[s - lo:e - lo]
        img_q = batch.quartets[s:e]
        lead: tuple = ()
        base = None
        if batch.slots is not None:
            slot = batch.slots[s:e, None, None]
            base = slot * (n * n)
            if density.ndim == 3:
                lead = (slot,)
        for perm in perms:
            pq = img_q[:, perm]
            blkp = blk_rows.transpose(
                0, perm[0] + 1, perm[1] + 1, perm[2] + 1, perm[3] + 1
            )
            ra, rb, rc, rd = (ranges[i] for i in perm)
            ai = starts[pq[:, 0]][:, None] + ra
            bi = starts[pq[:, 1]][:, None] + rb
            ci = starts[pq[:, 2]][:, None] + rc
            di = starts[pq[:, 3]][:, None] + rd
            nq = pq.shape[0]
            da, db, dc, dd = (len(r) for r in (ra, rb, rc, rd))
            # J: sum_cd (ab|cd) D[c,d] -- one batched matvec per image
            dcd = density[lead + (ci[:, :, None], di[:, None, :])]
            cj = np.matmul(
                blkp.reshape(nq, da * db, dc * dd),
                dcd.reshape(nq, dc * dd, 1),
            )
            _scatter_add(jflat, ai[:, :, None] * n + bi[:, None, :], cj, base)
            # K: sum_bd (ab|cd) D[b,d] -- regroup axes to (ac, bd)
            dbd = density[lead + (bi[:, :, None], di[:, None, :])]
            ck = np.matmul(
                blkp.transpose(0, 1, 3, 2, 4).reshape(nq, da * dc, db * dd),
                dbd.reshape(nq, db * dd, 1),
            )
            _scatter_add(kflat, ai[:, :, None] * n + ci[:, None, :], ck, base)


def _scatter_add(
    flat: np.ndarray, idx: np.ndarray, weights: np.ndarray, base
) -> None:
    """``flat[idx + base] += weights``, summing repeated indices.

    A slotted (``nslots`` times larger) buffer is bincounted over the
    chunk's unique indices only: O(chunk), never O(nslots * n*n).
    """
    if base is None:
        flat += np.bincount(idx.ravel(), weights=weights.ravel(), minlength=flat.size)
        return
    uniq, inv = np.unique((idx + base).ravel(), return_inverse=True)
    flat[uniq] += np.bincount(inv.ravel(), weights=weights.ravel())


# ---------------------------------------------------------------------------
# chunk resolution: store -> compute -> faults -> sentinel -> store
# ---------------------------------------------------------------------------

#: per-chunk tallies, folded into the engine counters on the calling thread
_TALLIES = ("computed", "from_store", "corrupted", "rescued", "crc_rescued")


def _store_offsets(batch: ClassBatch, store) -> np.ndarray:
    """Per-row offsets of a batch in a ready store, memoized per store
    generation."""
    res = batch._store_res
    if res is not None and res[0] is store and res[1] == store.generation:
        return res[2]
    offs = store.offsets_for(batch.quartets)
    batch._store_res = (store, store.generation, offs)
    return offs


def _compute_rows(engine, batch: ClassBatch, rows: np.ndarray) -> np.ndarray:
    """Blocks for ``rows`` of a batch: one class-kernel sweep, or the
    engine's own quartet kernel stacked (OS, synthetic, reference path)."""
    if engine.supports_class_batched:
        return compute_class_rows(batch, rows)
    blocks = np.empty((len(rows),) + batch.dims)
    for i, quartet in enumerate(batch.quartets[rows].tolist()):
        blocks[i] = engine._quartet(*quartet)
    return blocks


def _fault_schedule(engine, plan: ClassPlan) -> dict | None:
    """One build's seeded ``scf`` corruption as per-batch ``(value,
    element)`` row arrays, drawn once in plan order (``value`` 0.0 is a
    clean row), so the build is reproducible at any thread count.

    ``None`` without faults, or when the class kernel does not compute
    the rows: the fault family models a bug in the fast kernel only.
    """
    state = getattr(engine, "scf_faults", None)
    if state is None or not engine.supports_class_batched:
        return None
    nq = [b.nq for b in plan.batches]
    sizes = np.repeat(np.array([b.block_size for b in plan.batches], np.int64), nq)
    value, elem = state.draw_quartet_faults(sizes)
    bounds = np.cumsum([0] + nq).tolist()
    return {
        id(b): (value[s:e], elem[s:e])
        for b, s, e in zip(plan.batches, bounds, bounds[1:])
    }


def _resolve_chunk(
    engine, batch: ClassBatch, lo: int, hi: int, store, faults
) -> tuple[np.ndarray, dict]:
    """The stacked blocks for rows ``[lo, hi)`` and their tallies.

    The one place a chunk's blocks are produced, in this order: a
    whole-chunk store read (CRC-failed rows recomputed); else compute
    (:func:`_compute_rows`), plant the build's seeded ``scf``
    corruption, rescue non-finite rows on the reference kernel when the
    sentinel is armed, and record the chunk to a filling store.
    """
    nrows = hi - lo
    counts = dict.fromkeys(_TALLIES, 0)
    rows = np.arange(lo, hi)
    if store is not None and store.ready:
        sel = _store_offsets(batch, store)[lo:hi]
        if (sel >= 0).all():
            blocks = store.read_stacked(sel, batch.block_size, batch.dims)
            if store.verify_reads:
                # rows whose bytes fail the finalize-time CRC are not
                # trusted: recompute them with the same kernel
                # (bitwise-identical values, so a corrupted store never
                # perturbs F)
                bad = np.flatnonzero(~store.verify_stacked(sel, blocks))
                if bad.size:
                    blocks[bad] = _compute_rows(engine, batch, rows[bad])
                    counts["crc_rescued"] = bad.size
            counts["from_store"] = nrows
            return blocks, counts
    blocks = _compute_rows(engine, batch, rows)
    counts["computed"] = nrows
    if faults is not None:
        value, elem = faults[id(batch)]
        hit = np.flatnonzero(value[lo:hi])  # NaN and Inf are nonzero
        blocks.reshape(nrows, -1)[hit, elem[lo + hit]] = value[lo + hit]
        counts["corrupted"] = hit.size
    # sum-reduction sentinel: any NaN/Inf element makes the sum non-finite
    if engine.finite_check and not np.isfinite(blocks.sum()):
        finite = np.isfinite(blocks.reshape(nrows, -1)).all(axis=1)
        for i in np.flatnonzero(~finite):
            blocks[i] = engine._rescue_quartet(*batch.quartets[lo + i].tolist())
        counts["rescued"] = int((~finite).sum())
    if store is not None and store.filling:
        store.record_batch(batch.quartets[lo:hi], blocks)
    return blocks, counts


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def resolve_jk_threads(threads: int | None) -> int:
    """Thread count for the J/K contraction (``REPRO_JK_THREADS`` default)."""
    if threads is None:
        threads = int(os.environ.get("REPRO_JK_THREADS", "1"))
    return max(1, int(threads))


#: set by :func:`interrupt_jk_threads` (a dying worker's SIGTERM handler):
#: threaded J/K workers stop between chunks instead of draining their
#: whole queue while the process is trying to exit
_JK_INTERRUPT = threading.Event()


def interrupt_jk_threads() -> None:
    """Ask in-flight threaded J/K workers to stop at the next chunk edge."""
    _JK_INTERRUPT.set()


def clear_jk_interrupt() -> None:
    _JK_INTERRUPT.clear()


class JKInterrupted(RuntimeError):
    """A threaded J/K contraction was interrupted mid-build (job teardown)."""


def _run_chunks(engine, density, chunks, starts, store, faults, size):
    """One worker's share: private J/K buffers + per-phase wall/cpu."""
    jflat = np.zeros(size)
    kflat = np.zeros(size)
    stats = {"eri_wall": 0.0, "eri_cpu": 0.0, "jk_wall": 0.0, "jk_cpu": 0.0,
             "calls": 0, **dict.fromkeys(_TALLIES, 0)}
    for batch, lo, hi in chunks:
        if _JK_INTERRUPT.is_set():
            raise JKInterrupted("threaded J/K interrupted between chunks")
        t0, c0 = time.perf_counter(), time.thread_time()
        blocks, counts = _resolve_chunk(engine, batch, lo, hi, store, faults)
        t1, c1 = time.perf_counter(), time.thread_time()
        _scatter_chunk(jflat, kflat, density, starts, batch, blocks, lo, hi)
        t2, c2 = time.perf_counter(), time.thread_time()
        stats["eri_wall"] += t1 - t0
        stats["eri_cpu"] += c1 - c0
        stats["jk_wall"] += t2 - t1
        stats["jk_cpu"] += c2 - c1
        stats["calls"] += 1
        for key in _TALLIES:
            stats[key] += counts[key]
    return jflat, kflat, stats


def jk_from_plan(
    engine,
    density: np.ndarray,
    plan: ClassPlan,
    tau: float | None = None,
    threads: int | None = None,
    use_store: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """J and K matrices from a class plan, one batched sweep per chunk.

    Every engine's J/K runs here; :func:`_resolve_chunk` produces each
    chunk's blocks.  ``threads > 1`` deals the cost-sorted chunk list
    round-robin across a thread pool; every worker owns private J/K
    accumulators (reduced at the end) plus private phase timings, which
    are folded into the active profiler as one
    ``eri_quartets``/``jk_contraction`` sample per chunk -- spans per
    class batch, never per quartet.  Chunk tallies reach the engine
    counters on the calling thread.  A slotted plan returns J and K
    stacked ``(plan.nslots, n, n)``.
    """
    from repro.obs import get_metrics
    from repro.obs.profile import PHASE_ERI, PHASE_JK, get_profiler

    basis = engine.basis
    n = basis.nbf
    shape = (n, n) if plan.nslots is None else (plan.nslots, n, n)
    size = int(np.prod(shape))
    starts = basis.offsets[:-1].astype(np.int64)
    store = getattr(engine, "integral_store", None) if use_store else None
    faults = _fault_schedule(engine, plan)
    chunks = plan.chunks()
    nthreads = resolve_jk_threads(threads)
    prof = get_profiler()
    totals = dict.fromkeys(_TALLIES, 0)

    if nthreads <= 1 or len(chunks) <= 1:
        jflat = np.zeros(size)
        kflat = np.zeros(size)
        eri_span = prof.phase(PHASE_ERI)
        jk_span = prof.phase(PHASE_JK)
        for batch, lo, hi in chunks:
            with eri_span:
                blocks, counts = _resolve_chunk(
                    engine, batch, lo, hi, store, faults
                )
            with jk_span:
                _scatter_chunk(
                    jflat, kflat, density, starts, batch, blocks, lo, hi
                )
            for key in _TALLIES:
                totals[key] += counts[key]
        engine.last_jk_worker_stats = []
    else:
        shares: list[list] = [[] for _ in range(nthreads)]
        for i, chunk in enumerate(chunks):  # chunks are cost-sorted
            shares[i % nthreads].append(chunk)
        shares = [s for s in shares if s]
        with ThreadPoolExecutor(max_workers=len(shares)) as pool:
            results = list(pool.map(
                lambda share: _run_chunks(
                    engine, density, share, starts, store, faults, size
                ),
                shares,
            ))
        jflat = np.zeros(size)
        kflat = np.zeros(size)
        for jp, kp, stats in results:
            jflat += jp
            kflat += kp
            prof.add_sample(
                PHASE_ERI, stats["eri_wall"], stats["eri_cpu"], stats["calls"]
            )
            prof.add_sample(
                PHASE_JK, stats["jk_wall"], stats["jk_cpu"], stats["calls"]
            )
            for key in _TALLIES:
                totals[key] += stats[key]
        engine.last_jk_worker_stats = [stats for (_, _, stats) in results]

    engine.quartets_computed += totals["computed"]
    engine.crc_rescues += totals["crc_rescued"]
    if totals["corrupted"]:
        engine.scf_faults.quartets_corrupted += totals["corrupted"]
    if totals["rescued"]:
        engine.eri_rescues += totals["rescued"]
        get_metrics().counter(
            "repro_scf_guard_eri_rescues_total",
            "non-finite batched ERI blocks recomputed on the reference kernel",
        ).inc(totals["rescued"])
    if store is not None:
        if store.path is None:
            engine.quartets_served_from_cache += totals["from_store"]
        else:
            engine.quartets_served_from_store += totals["from_store"]
        if store.filling and store.pending_blocks:
            store.finalize(tau)
    return jflat.reshape(shape), kflat.reshape(shape)


def jk_for_quartets(
    engine,
    density: np.ndarray,
    quartets,
    threads: int | None = 1,
    slots=None,
    nslots: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """J/K contribution of an explicit quartet list, class-batched.

    Used by the multiprocessing Fock workers and the numeric distributed
    builders: the quartets are grouped into a throwaway plan and run
    through the same batched sweep + scatter.  The quartet tuples may be
    in any index order: each is first turned to its canonical orientation
    (bra- and ket-sorted, bra >= ket), so a list shares classes and pair
    data with the sequential plan.  The sweep bypasses the integral
    store because worker-side fills would be lost with the forked
    process anyway.

    ``slots`` (see :func:`build_class_plan`) return J and K stacked
    ``(nslots, n, n)``; a stacked ``(nslots, n, n)`` ``density`` is read
    per slot.
    """
    # (bra, ket) pairs each sorted descending, then bra >= ket
    pairs = np.sort(_quartet_rows(quartets).reshape(-1, 2, 2), axis=2)[:, :, ::-1]
    bra, ket = pairs[:, 0], pairs[:, 1]
    swap = (bra[:, 0] < ket[:, 0]) | ((bra[:, 0] == ket[:, 0]) & (bra[:, 1] < ket[:, 1]))
    pairs[swap] = pairs[swap, ::-1]
    plan = build_class_plan(
        engine.basis, getattr(engine, "pair_cache", None), pairs.reshape(-1, 4),
        slots, nslots,
    )
    del pairs, bra, ket  # the plan holds its own per-class copies
    return jk_from_plan(engine, density, plan, threads=threads, use_store=False)
