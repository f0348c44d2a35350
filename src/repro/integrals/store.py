"""Memory-mapped stored-integral mode (conventional SCF).

Mitin (arxiv 1905.07779) shows that for mid-size systems a *conventional*
SCF -- compute the screened non-zero integrals once, store them, and
re-read them every iteration -- beats direct SCF, whose ERI work is paid
again on every Fock build.  This module is that storage layer:

* :class:`ERIStore` persists canonical screened quartet blocks to a flat
  ``float64`` file served back through ``np.memmap`` -- the OS page
  cache keeps hot blocks in RAM with zero deserialization cost, and the
  file stays usable across processes and sessions.
* An ``index.npz`` maps packed canonical quartet keys to element offsets
  (binary search at lookup; vectorized for whole class batches).
* A ``manifest.json`` records provenance -- a SHA-256 fingerprint of the
  basis (angular momenta, purity, centers, exponents, normalized
  coefficients), the screening threshold ``tau``, and shapes -- so a
  store can never silently serve integrals for the wrong basis: a
  fingerprint mismatch invalidates the store (with a warning) and
  refilling starts from scratch.

Lifecycle: ``open_or_fill()`` -> ``filling`` (first Fock build records
computed blocks) -> ``finalize(tau)`` -> ``ready`` (all later builds read
only).  The store sits under the class-plan chunk resolver
(:func:`repro.integrals.class_batch.jk_from_plan`), the one place a
chunk's blocks are produced, so SCF iterations >= 2 recompute zero ERIs
(tracked by ``quartets_served_from_store``).

In-memory backend: ``ERIStore(None, basis, max_bytes)`` keeps the same
lifecycle with no directory, lock, manifest or files -- finalize
installs the sorted blocks in a plain array instead of a memmap.  It is
what ``cache_mb`` attaches: recording is by whole chunk and stops
admitting chunks once ``max_bytes`` would be exceeded, so a store
smaller than the screened set serves the chunks it holds and the rest
are recomputed every build (tracked by ``quartets_served_from_cache``).

Cross-process safety (service workers share store directories):

* every disk transition (attach / finalize / invalidate) runs under an
  advisory ``flock`` on ``<store>/.lock``;
* finalize publishes atomically -- data files are staged as ``*.tmp``
  and ``os.replace``'d into place, with ``manifest.json`` written
  **last**, so a crash mid-finalize leaves a store with no (or the old)
  manifest, never a manifest describing partial data;
* a process that acquires the finalize lock and finds a valid store
  already on disk re-attaches to it instead of clobbering it.

Data integrity (store format v2): ``index.npz`` carries a per-block
CRC-32 array (``crcs``) written at finalize, and the manifest carries a
whole-file SHA-256 of ``blocks.bin`` (``blocks_sha256``).  With
``verify_reads`` enabled (the SCF ``integrity=`` knob arms it), every
block is CRC-checked the *first* time it is served per attach
(scrub-on-first-read): an intact block is marked verified and skips
the check on later reads, so the steady-state cost is near zero, while
a mismatching block is *not* served -- :meth:`verify_stacked` flags
bad rows for the chunk resolver to recompute -- and is never marked
verified, so it is re-detected on every read.  The whole-file digest is only checked by the
offline ``repro verify`` audit, keeping attach cheap.  A manifest with
a different store format version is invalidated with
:class:`StoreInvalidatedWarning` and refilled cleanly.  Threat model
and detector costs: ``docs/ROBUSTNESS.md`` ("Silent data corruption").
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.runtime.sdc import block_crc

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

# v2: index.npz gains per-block CRC-32s, manifest gains blocks_sha256
STORE_VERSION = 2
_MANIFEST = "manifest.json"
_INDEX = "index.npz"
_BLOCKS = "blocks.bin"
_LOCK = ".lock"


def basis_fingerprint(basis: BasisSet) -> str:
    """SHA-256 over everything that determines the ERI values.

    Covers each shell's angular momentum, purity flag, center,
    exponents, and *normalized* contraction coefficients (so a
    renormalization change invalidates stores too), plus the shell
    count/ordering implicitly through concatenation order.
    """
    h = hashlib.sha256()
    h.update(f"v{STORE_VERSION}:{basis.nbf}:{len(basis.shells)}".encode())
    for sh in basis.shells:
        h.update(f"|{sh.l}:{int(sh.pure)}".encode())
        h.update(np.ascontiguousarray(sh.center, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(sh.exps, dtype=np.float64).tobytes())
        h.update(
            np.ascontiguousarray(sh.norm_coefs, dtype=np.float64).tobytes()
        )
    return h.hexdigest()


class StoreInvalidatedWarning(UserWarning):
    """An on-disk integral store did not match the requested basis."""


class ERIStore:
    """Store of canonical screened ERI quartet blocks, on disk or in memory.

    States: ``filling`` (accepting :meth:`record_batch`) and ``ready``
    (read-only).  ``generation`` increments whenever the readable
    content changes, so callers can memoize offset resolutions against
    it.  ``path=None`` selects the in-memory backend, optionally bounded
    to ``max_bytes`` of block data.
    """

    def __init__(
        self,
        path: str | Path | None,
        basis: BasisSet,
        max_bytes: int | None = None,
    ):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"store bound must be positive, got {max_bytes}")
        self.path = None if path is None else Path(path)
        self.max_bytes = max_bytes
        self.basis = basis
        self.fingerprint = basis_fingerprint(basis)
        self.manifest: dict | None = None
        self.generation = 0
        self.filling = False
        self.ready = False
        self._keys: np.ndarray | None = None  # sorted packed keys
        self._offsets: np.ndarray | None = None  # element offsets, key order
        self._crcs: np.ndarray | None = None  # per-block CRC-32, key order
        self._verified: np.ndarray | None = None  # scrub-on-first-read marks
        self._flat: np.ndarray | None = None  # memmap on disk
        #: CRC-check every block on first read (armed by ``integrity=``)
        self.verify_reads = False
        self.crc_checks = 0
        self.crc_mismatches = 0
        #: recorded chunks: (packed keys, (nrows, block size) blocks)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending_bytes = 0
        self._lock = threading.Lock()
        self._flock_depth = 0
        self._nshells = len(basis.shells)
        self._reject_reason = "stale or unreadable manifest"

    @contextlib.contextmanager
    def _disk_lock(self):
        """Advisory cross-process lock on the store directory.

        Reentrant within this instance (``flock`` on a second fd from
        the same process would self-deadlock).  Closing the fd releases
        the lock, so a crashed holder never wedges other processes.
        """
        if self._flock_depth > 0:
            self._flock_depth += 1
            try:
                yield
            finally:
                self._flock_depth -= 1
            return
        self.path.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path / _LOCK, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            self._flock_depth = 1
            yield
        finally:
            self._flock_depth = 0
            os.close(fd)

    # -- key packing --------------------------------------------------------

    def pack_rows(self, quartets: np.ndarray) -> np.ndarray:
        s = self._nshells
        q = np.asarray(quartets, dtype=np.int64)
        return ((q[:, 0] * s + q[:, 1]) * s + q[:, 2]) * s + q[:, 3]

    # -- lifecycle ----------------------------------------------------------

    def open_or_fill(self) -> "ERIStore":
        """Attach to an existing valid store, or start filling a new one.

        An existing store whose manifest fingerprint does not match the
        current basis is *invalidated*: its files are removed, a
        :class:`StoreInvalidatedWarning` is emitted, and the store drops
        back to the filling state.  An in-memory store just starts
        filling.
        """
        if self.path is None:
            self.filling = True
            return self
        self.path.mkdir(parents=True, exist_ok=True)
        with self._disk_lock():
            if (self.path / _MANIFEST).exists():
                manifest = self._load_valid_manifest()
                if manifest is not None:
                    self._attach(manifest)
                    return self
                self.invalidate(self._reject_reason)
            self.filling = True
            self.ready = False
        return self

    def _load_valid_manifest(self) -> dict | None:
        """The on-disk manifest iff it matches this basis and is complete.

        On rejection, ``self._reject_reason`` says why -- a store format
        version mismatch is named explicitly so the resulting
        :class:`StoreInvalidatedWarning` is actionable.
        """
        self._reject_reason = "stale or unreadable manifest"
        try:
            manifest = json.loads((self.path / _MANIFEST).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        version = manifest.get("version")
        if version != STORE_VERSION:
            self._reject_reason = (
                f"store format version {version!r} != expected {STORE_VERSION}"
            )
            return None
        if (
            manifest.get("basis_sha256") == self.fingerprint
            and (self.path / _INDEX).exists()
            and (self.path / _BLOCKS).exists()
        ):
            return manifest
        return None

    def _attach(self, manifest: dict) -> None:
        with np.load(self.path / _INDEX) as idx:
            keys, offsets, crcs = idx["keys"], idx["offsets"], idx["crcs"]
        flat = np.memmap(self.path / _BLOCKS, dtype=np.float64, mode="r")
        self._serve(keys, offsets, crcs, flat)
        self.manifest = manifest

    def _serve(self, keys, offsets, crcs, flat) -> None:
        """Switch to ready, serving ``flat`` through the sorted index."""
        self._keys = keys
        self._offsets = offsets
        self._crcs = crcs
        self._verified = np.zeros(crcs.size, dtype=bool)
        self._flat = flat
        self.ready = True
        self.filling = False
        self.generation += 1

    def invalidate(self, reason: str) -> None:
        """Discard on-disk content and return to the filling state."""
        warnings.warn(
            f"integral store at {self.path} invalidated ({reason}); "
            "integrals will be recomputed and the store refilled",
            StoreInvalidatedWarning,
            stacklevel=2,
        )
        self._flat = None
        self._keys = None
        self._offsets = None
        self._crcs = None
        self._verified = None
        self.manifest = None
        with self._disk_lock():
            # manifest first: a crash mid-invalidate must never leave a
            # manifest describing files that are already gone
            for name in (_MANIFEST, _INDEX, _BLOCKS):
                try:
                    (self.path / name).unlink(missing_ok=True)
                except OSError:
                    pass
        self.ready = False
        self.filling = True
        self._pending.clear()
        self._pending_bytes = 0
        self.generation += 1

    # -- filling ------------------------------------------------------------

    @property
    def pending_blocks(self) -> int:
        return sum(len(keys) for keys, _ in self._pending)

    def record_batch(self, quartets: np.ndarray, blocks: np.ndarray) -> None:
        """Record a stacked chunk of canonical blocks while filling.

        Thread-safe.  A bounded store takes whole chunks only: a chunk
        that would push the held bytes past ``max_bytes`` is skipped.
        """
        if not self.filling:
            return
        keys = self.pack_rows(quartets)
        flat = np.ascontiguousarray(blocks, dtype=np.float64).reshape(
            len(keys), -1
        )
        with self._lock:
            if (
                self.max_bytes is not None
                and self._pending_bytes + flat.nbytes > self.max_bytes
            ):
                return
            self._pending.append((keys, flat))
            self._pending_bytes += flat.nbytes

    def finalize(self, tau: float | None = None) -> None:
        """Install the pending blocks and switch to the ready state.

        A disk store publishes atomically and in order: ``blocks.bin``
        and ``index.npz`` are staged as ``*.tmp`` and ``os.replace``'d
        into place first; ``manifest.json`` goes last.  A process killed
        at any point mid-finalize therefore leaves either no manifest
        (``open_or_fill`` refills from scratch) or a complete store --
        never a manifest pointing at partial data.
        """
        with self._lock:
            if not self.filling or not self._pending:
                return
            # sorted by packed key; a key recorded twice keeps its first block
            keys, first = np.unique(
                np.concatenate([k for k, _ in self._pending]), return_index=True
            )
            rows = [row for _, flat in self._pending for row in flat]
            rows = [rows[i] for i in first]
            sizes = np.array([r.size for r in rows], dtype=np.int64)
            offsets = np.cumsum(sizes) - sizes
            flat = np.concatenate(rows)
            crcs = np.array([block_crc(r) for r in rows], dtype=np.uint32)
            if self.path is None:
                self._serve(keys, offsets, crcs, flat)
            else:
                self._publish(keys, offsets, sizes, crcs, flat, tau)
            self._pending.clear()
            self._pending_bytes = 0

    def _publish(self, keys, offsets, sizes, crcs, flat, tau) -> None:
        """Write a disk store's files (manifest last) and attach to them."""
        self.path.mkdir(parents=True, exist_ok=True)
        with self._disk_lock():
            # another process may have finalized while this one was
            # still filling: attach to its store, don't clobber it
            existing = self._load_valid_manifest()
            if existing is not None:
                self._attach(existing)
                return
            tmp_blocks = self.path / (_BLOCKS + ".tmp")
            flat.tofile(tmp_blocks)
            os.replace(tmp_blocks, self.path / _BLOCKS)
            tmp_index = self.path / (_INDEX + ".tmp")
            with open(tmp_index, "wb") as fh:
                np.savez(fh, keys=keys, offsets=offsets, sizes=sizes,
                         crcs=crcs)
            os.replace(tmp_index, self.path / _INDEX)
            manifest = {
                "version": STORE_VERSION,
                "basis_sha256": self.fingerprint,
                "blocks_sha256": hashlib.sha256(flat.tobytes()).hexdigest(),
                "basis_name": self.basis.name,
                "tau": None if tau is None else float(tau),
                "nbf": int(self.basis.nbf),
                "nshells": self._nshells,
                "nblocks": int(keys.size),
                "nelements": int(flat.size),
                "created": datetime.now(timezone.utc).isoformat(),
            }
            tmp_manifest = self.path / (_MANIFEST + ".tmp")
            tmp_manifest.write_text(json.dumps(manifest, indent=2) + "\n")
            os.replace(tmp_manifest, self.path / _MANIFEST)
            self._attach(manifest)

    # -- reading ------------------------------------------------------------

    @property
    def nblocks(self) -> int:
        return 0 if self._keys is None else int(self._keys.size)

    @property
    def nbytes(self) -> int:
        """Bytes of block data held: pending while filling, served once ready."""
        return self._pending_bytes if self._flat is None else int(self._flat.nbytes)

    def offsets_for(self, quartets: np.ndarray) -> np.ndarray | None:
        """Element offsets for quartet rows; -1 where a key is missing."""
        if not self.ready:
            return None
        keys = self.pack_rows(quartets)
        pos = np.searchsorted(self._keys, keys)
        pos = np.minimum(pos, self._keys.size - 1)
        found = self._keys[pos] == keys
        out = np.where(found, self._offsets[pos], -1)
        return out

    def read_stacked(
        self, offsets: np.ndarray, block_size: int, dims: tuple
    ) -> np.ndarray:
        """Gather uniform-size blocks at ``offsets`` into one stacked array."""
        rows = self._flat[offsets[:, None] + np.arange(block_size)]
        return rows.reshape((len(offsets),) + tuple(dims))

    def verify_stacked(
        self, offsets: np.ndarray, blocks: np.ndarray
    ) -> np.ndarray:
        """CRC-check blocks just gathered at ``offsets``; True where intact.

        ``_offsets`` is a cumulative-sum array (ascending), so each
        offset maps back to its key position by binary search.  Blocks
        already scrubbed this attach skip the CRC; intact blocks are
        marked scrubbed; a mismatch never is, so corruption stays
        visible on every read.  The chunk resolver recomputes the rows
        flagged False.
        """
        pos = np.searchsorted(self._offsets, np.asarray(offsets, np.int64))
        good = np.ones(len(offsets), dtype=bool)
        todo = np.flatnonzero(~self._verified[pos])
        if todo.size:
            rows = np.ascontiguousarray(blocks, dtype=np.float64).reshape(
                len(offsets), -1
            )
            for i in todo:
                good[i] = block_crc(rows[i]) == int(self._crcs[pos[i]])
            self._verified[pos[todo[good[todo]]]] = True
            self.crc_checks += int(todo.size)
            self.crc_mismatches += int((~good).sum())
        return good

    def stats(self) -> dict:
        """Snapshot for reports/tests."""
        return {
            "path": None if self.path is None else str(self.path),
            "ready": self.ready,
            "filling": self.filling,
            "nblocks": self.nblocks,
            "nbytes": self.nbytes,
            "pending_blocks": self.pending_blocks,
            "tau": None if self.manifest is None else self.manifest.get("tau"),
            "verify_reads": self.verify_reads,
            "crc_checks": int(self.crc_checks),
            "crc_mismatches": int(self.crc_mismatches),
        }
