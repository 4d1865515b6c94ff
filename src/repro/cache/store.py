"""The fingerprint-keyed result store and its crash-safe writers.

Entries live as a ``<key>.npz`` / ``<key>.json`` pair under one cache
directory, where ``key`` is the SHA-256 of the canonical fingerprint
(:func:`repro.cache.fingerprint.fingerprint_key`).  The ``.npz`` holds
the result arrays plus the full fingerprint text (so a digest collision
or a corrupted entry can never be served); the ``.json`` sidecar holds
the human-readable metadata the service layer lists jobs from.

Every write is atomic -- a uniquely-named temp file in the destination
directory followed by ``os.replace`` -- so a killed writer leaves either
the old entry or the new one, never a truncated file, and two concurrent
writers of the same key simply race to an identical result.  The
streaming Monte-Carlo checkpoints (:mod:`repro.mc.streaming`) persist
through the same writers.

The store is bounded: :class:`ResultCache` evicts least-recently-used
entries (``.npz`` mtime, refreshed on every hit) once the configured
byte or entry budget is exceeded, and counts hits, misses, stores and
evictions for the service's operational metrics.  A store adds its
entry to running byte and entry totals; only when these exceed a
budget does the store list the directory, evict and reset them.

Each instance also keeps a small in-process *hot tier*: the decoded
arrays and metadata of recently stored or read entries, so a repeat
lookup skips the ``.npz`` decode.  The disk stays the cache.  Memory
serves an entry only while a ``stat`` of its ``.npz`` still shows the
inode, size and mtime recorded when it was decoded or last touched
(as the filesystem stored them), so eviction,
:meth:`ResultCache.clear` and another process rewriting, touching or
removing the entry all send the next lookup back to the verified disk
path.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ReproError
from .fingerprint import fingerprint_key


def _telemetry():
    # Late import: repro.telemetry's event sink builds on this module's
    # atomic writers, so the dependency must stay one-way at import time.
    from .. import telemetry
    return telemetry

__all__ = ["CachedResult", "CacheStats", "ResultCache",
           "atomic_write_bytes", "atomic_write_npz", "atomic_write_text"]

#: Default byte budget of a :class:`ResultCache` (1 GiB).
DEFAULT_MAX_BYTES = 1 << 30

#: Byte budget of each instance's in-process hot tier (decoded arrays,
#: fingerprint and metadata text of recently used entries).
HOT_MAX_BYTES = 32 << 20

#: npz member names reserved by the store itself.
_FINGERPRINT_KEY = "__fingerprint__"

# Distinguishes temp files of concurrent writers within one process
# (the pid distinguishes processes).
_tmp_counter = itertools.count()


def _tmp_path(path: Path) -> Path:
    """A unique temp-file name in ``path``'s own directory.

    Same directory, so ``os.replace`` is an atomic rename (never a
    cross-device copy); unique per (pid, call), so concurrent writers --
    two service workers checkpointing, a killed job's successor -- can
    never clobber each other's half-written file.
    """
    return path.with_name(
        f".{path.name}.{os.getpid()}.{next(_tmp_counter)}.tmp")


def atomic_write_bytes(path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``)."""
    path = Path(path)
    tmp = _tmp_path(path)
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def atomic_write_text(path, text: str) -> Path:
    """Write ``text`` (UTF-8) to ``path`` atomically."""
    return atomic_write_bytes(path, text.encode())


def atomic_write_npz(path, arrays: dict) -> Path:
    """Write a compressed ``.npz`` of ``arrays`` to ``path`` atomically.

    ``np.savez_compressed`` is handed an open file object, so it cannot
    append its own ``.npz`` suffix to the temp name and the final
    ``os.replace`` always targets the file actually written.
    """
    path = Path(path)
    tmp = _tmp_path(path)
    try:
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


@dataclass
class CacheStats:
    """Operational counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Hits served from the in-process hot tier (a subset of ``hits``).
    memory_hits: int = 0

    @property
    def requests(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0 when idle)."""
        return self.hits / self.requests if self.requests else 0.0

    def describe(self) -> str:
        return (f"cache: {self.hits} hit(s) ({self.memory_hits} from "
                f"memory), {self.misses} miss(es) "
                f"({100.0 * self.hit_rate:.1f}% hit rate), "
                f"{self.stores} store(s), {self.evictions} eviction(s)")


@dataclass
class CachedResult:
    """One stored result: the fingerprint it answers, its payload."""

    fingerprint: str
    key: str
    meta: dict
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class _HotEntry:
    """One decoded entry of the hot tier and the ``.npz`` it came from."""

    fingerprint: str
    arrays: dict[str, np.ndarray]
    meta_text: str
    #: ``(st_ino, st_size, st_mtime_ns)`` of the ``.npz`` it mirrors.
    stamp: tuple[int, int, int]
    nbytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.nbytes = (sum(array.nbytes for array in self.arrays.values())
                       + len(self.fingerprint) + len(self.meta_text))


def _stamp(stat: os.stat_result) -> tuple[int, int, int]:
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


def _touch(fd: int) -> tuple[int, int, int]:
    """Refresh the LRU position of the open ``.npz`` ``fd`` (the kernel
    picks the time); returns its stamp as the filesystem stored it."""
    os.utime(fd)
    return _stamp(os.fstat(fd))


class ResultCache:
    """Content-addressed result store with an LRU size bound.

    Parameters
    ----------
    directory:
        The cache directory (created if needed).  Entries from earlier
        processes are served as long as their fingerprints match --
        the on-disk format *is* the cache; instances only add counters.
    max_bytes:
        Byte budget over all entries; least-recently-used entries are
        evicted after a store once it is exceeded.  ``None`` disables
        the bound.  The instance lists the directory when it is made
        and then keeps running totals of what it stores, so another
        process's stores are counted at its next listing: the one its
        own totals trigger when they exceed a budget.
    max_entries:
        Optional entry-count bound, enforced the same way.

    Thread safety: one instance may be shared across threads (the
    :class:`repro.service.JobQueue` worker pool shares exactly one) --
    lookups, stores, eviction and the stats counters are serialised by
    an internal lock, so concurrent hits never lose counter increments
    and eviction never races a store's LRU refresh.  Cross-*process*
    safety comes from the atomic writers; only the in-memory counters
    and the hot tier are per-instance.
    """

    def __init__(self, directory, *, max_bytes: int | None = DEFAULT_MAX_BYTES,
                 max_entries: int | None = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ReproError("ResultCache.max_bytes must be >= 1 (or None)")
        if max_entries is not None and max_entries < 1:
            raise ReproError("ResultCache.max_entries must be >= 1 (or None)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._hot: OrderedDict[str, _HotEntry] = OrderedDict()
        self._hot_bytes = 0
        #: Running ``(bytes, entries)`` of the directory (``None`` when
        #: unbounded); an overwrite counts again until the next listing.
        self._usage: tuple[int, int] | None = None
        if max_bytes is not None or max_entries is not None:
            entries = self._entries()
            self._usage = (sum(size for _, _, size in entries), len(entries))

    # -- lookup -----------------------------------------------------------
    def get(self, fingerprint: str) -> CachedResult | None:
        """The stored result of ``fingerprint``, or ``None`` (a miss).

        A hit refreshes the entry's LRU position.  Unreadable or
        mismatched entries (truncated by an ancient non-atomic writer,
        or a digest collision) are dropped and reported as misses --
        the cache must never serve a result it cannot vouch for.  The
        hot tier answers only for an entry whose ``.npz`` is unchanged
        since it was decoded; a hit returns fresh arrays and metadata
        either way, so mutating one cannot change the next.
        """
        key = fingerprint_key(fingerprint)
        npz_path = self._npz(key)
        with self._lock:
            hit = self._hot_get(key, fingerprint, npz_path)
            if hit is not None:
                return hit
            try:
                handle = open(npz_path, "rb")
            except FileNotFoundError:
                return self._miss()
            with handle:
                try:
                    with np.load(handle) as data:
                        stored = bytes(data[_FINGERPRINT_KEY]).decode("utf-8")
                        if stored != fingerprint:
                            raise ReproError("fingerprint mismatch")
                        arrays = {name: data[name] for name in data.files
                                  if name != _FINGERPRINT_KEY}
                except Exception:
                    self._remove(key)
                    return self._miss()
                # Touch the inode just decoded, so the hot copy mirrors
                # exactly that file.
                stamp = _touch(handle.fileno())
            meta = {}
            json_path = self._json(key)
            try:
                meta = json.loads(json_path.read_text()).get("meta", {})
            except (OSError, ValueError):
                pass  # arrays are intact; metadata is advisory
            self._hot_put(key, _HotEntry(
                fingerprint, arrays, json.dumps(meta, sort_keys=True),
                stamp))
            self.stats.hits += 1
            _telemetry().counter_add("cache.hits")
        return CachedResult(fingerprint=fingerprint, key=key, meta=meta,
                            arrays={name: array.copy()
                                    for name, array in arrays.items()})

    def __contains__(self, fingerprint: str) -> bool:
        return self._npz(fingerprint_key(fingerprint)).exists()

    # -- store ------------------------------------------------------------
    def put(self, fingerprint: str, arrays: dict | None = None,
            meta: dict | None = None) -> CachedResult:
        """Store a result under its fingerprint (atomically), then evict.

        ``arrays`` maps names to numpy arrays; names starting with
        ``__`` are reserved.  ``meta`` must be JSON-serialisable.
        """
        arrays = dict(arrays or {})
        for name in arrays:
            if name.startswith("__"):
                raise ReproError(
                    f"cache array name {name!r} is reserved "
                    "(names must not start with '__')")
        meta = dict(meta or {})
        key = fingerprint_key(fingerprint)
        payload = {name: np.asarray(data) for name, data in arrays.items()}
        payload[_FINGERPRINT_KEY] = np.frombuffer(
            fingerprint.encode(), dtype=np.uint8)
        sidecar = json.dumps({"fingerprint": fingerprint, "meta": meta},
                             indent=2, sort_keys=True).encode()
        with self._lock:
            npz_path = atomic_write_npz(self._npz(key), payload)
            atomic_write_bytes(self._json(key), sidecar)
            npz_stat = npz_path.stat()
            if not any(array.dtype.hasobject for array in payload.values()):
                # Object arrays never load back (no pickles), so only
                # plain ones may be served from memory.
                self._hot_put(key, _HotEntry(
                    fingerprint,
                    {name: payload[name].copy() for name in arrays},
                    json.dumps(meta, sort_keys=True), _stamp(npz_stat)))
            self.stats.stores += 1
            _telemetry().counter_add("cache.stores")
            if self._usage is not None:
                total, count = self._usage
                self._usage = (total + npz_stat.st_size + len(sidecar),
                               count + 1)
                if self._over(*self._usage):
                    self._evict(protect=key)
        return CachedResult(fingerprint=fingerprint, key=key, meta=meta,
                            arrays=arrays)

    # -- maintenance ------------------------------------------------------
    def keys(self) -> list[str]:
        """Stored entry keys, least-recently-used first."""
        entries = self._entries()
        return [key for key, _, _ in entries]

    def __len__(self) -> int:
        return len(self._entries())

    def total_bytes(self) -> int:
        """Bytes currently occupied by all entries."""
        return sum(size for _, _, size in self._entries())

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        with self._lock:
            entries = self._entries()
            for key, _, _ in entries:
                self._remove(key)
            if self._usage is not None:
                self._usage = (0, 0)
        return len(entries)

    # -- internals --------------------------------------------------------
    def _npz(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def _json(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _miss(self) -> None:
        self.stats.misses += 1
        _telemetry().counter_add("cache.misses")

    def _remove(self, key: str) -> None:
        self._hot_drop(key)
        self._npz(key).unlink(missing_ok=True)
        self._json(key).unlink(missing_ok=True)

    def _hot_get(self, key: str, fingerprint: str,
                 npz_path: Path) -> CachedResult | None:
        """Serve ``key`` from memory if its ``.npz`` is unchanged.

        Callers hold :attr:`_lock`.  Anything else -- no hot copy,
        another fingerprint, a changed or vanished file -- drops the hot
        copy and returns ``None`` for the verified disk path.
        """
        entry = self._hot.get(key)
        if entry is None:
            return None
        try:
            fd = os.open(npz_path, os.O_RDONLY)
        except OSError:
            self._hot_drop(key)
            return None
        try:
            if (entry.fingerprint != fingerprint
                    or _stamp(os.fstat(fd)) != entry.stamp):
                self._hot_drop(key)
                return None
            entry.stamp = _touch(fd)
        finally:
            os.close(fd)
        self._hot.move_to_end(key)
        self.stats.hits += 1
        self.stats.memory_hits += 1
        _telemetry().counter_add("cache.hits")
        _telemetry().counter_add("cache.memory_hits")
        return CachedResult(
            fingerprint=fingerprint, key=key,
            meta=json.loads(entry.meta_text),
            arrays={name: array.copy()
                    for name, array in entry.arrays.items()})

    def _hot_put(self, key: str, entry: _HotEntry) -> None:
        """Keep ``entry`` (arrays owned by the tier) in memory, evicting
        the least recently used copies beyond :data:`HOT_MAX_BYTES`."""
        self._hot_drop(key)
        if entry.nbytes > HOT_MAX_BYTES:
            return
        self._hot[key] = entry
        self._hot_bytes += entry.nbytes
        while self._hot_bytes > HOT_MAX_BYTES:
            _, evicted = self._hot.popitem(last=False)
            self._hot_bytes -= evicted.nbytes

    def _hot_drop(self, key: str) -> None:
        entry = self._hot.pop(key, None)
        if entry is not None:
            self._hot_bytes -= entry.nbytes

    def _entries(self) -> list[tuple[str, float, int]]:
        """``(key, mtime, bytes)`` per entry, oldest-access first."""
        entries = []
        for npz_path in self.directory.glob("*.npz"):
            try:
                stat = npz_path.stat()
                size = stat.st_size
                json_path = self._json(npz_path.stem)
                if json_path.exists():
                    size += json_path.stat().st_size
                entries.append((npz_path.stem, stat.st_mtime, size))
            except OSError:
                continue  # entry vanished under us (concurrent eviction)
        entries.sort(key=lambda entry: entry[1])
        return entries

    def _over(self, total: int, count: int) -> bool:
        """Whether ``total`` bytes in ``count`` entries exceed a budget."""
        return ((self.max_bytes is not None and total > self.max_bytes)
                or (self.max_entries is not None
                    and count > self.max_entries))

    def _evict(self, protect: str) -> None:
        """List the directory and drop LRU entries until both budgets
        hold (sparing ``protect``, the entry just stored); the listing
        resets the running totals.  Callers hold :attr:`_lock`."""
        entries = self._entries()
        total = sum(size for _, _, size in entries)
        count = len(entries)
        for key, _, size in entries:
            if not self._over(total, count):
                break
            if key == protect:
                continue
            self._remove(key)
            self.stats.evictions += 1
            _telemetry().counter_add("cache.evictions")
            total -= size
            count -= 1
        self._usage = (total, count)
