"""The persistent, content-addressed solve cache.

A :class:`Store` is a directory of immutable JSON entries, addressed
by the sha256 keys of :mod:`repro.store.keys` and sharded git-style::

    <root>/objects/ab/cdef0123....json    # envelope + payload
    <root>/locks/ab.lock                  # per-shard writer lock

Design rules:

* **Writers are exclusive, readers are lock-free.** Every write goes
  through :func:`repro.io.atomic.atomic_write` under an ``fcntl`` lock
  on the key's shard, so two processes racing on one key converge to a
  single valid entry (first writer wins; the loser observes the entry
  and skips). Readers never block: an atomic rename means they see
  either no entry or a complete one.
* **Hits are suspects.** :meth:`get` validates the envelope (schema,
  key, kind, salt, payload digest); anything torn, tampered or stale is
  treated as a *miss* and the damaged file is removed so the next
  write repairs it. Consumers re-verify decoded payloads on top (the
  Tier A path runs the independent feasibility checker before trusting
  a stored result).
* **Bounded by gc, not by writes.** Entries accumulate until
  :meth:`gc` evicts least-recently-used ones (hits bump mtime) down to
  a byte cap. With ``max_bytes`` set, a gc pass also runs
  opportunistically every :data:`GC_PUT_INTERVAL` puts.

Every hit/miss/put/evict is counted in the per-process ``counters``
dict and mirrored to the installed :mod:`repro.obs` tracer
(``store_*`` metrics, ``cache_hit``/``cache_miss`` events).

Stores pickle by configuration (root path + settings), so a store
handed to a :class:`repro.service.ShardCoordinator` crosses process
boundaries and every shard shares the same on-disk cache.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

try:  # POSIX advisory locks; Windows falls back to lock-free writes
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.errors import ReproError
from repro.io.atomic import atomic_write
from repro.obs.trace import current_tracer, obs_event
from repro.store.keys import code_salt

#: Version tag stamped into every entry envelope. Bump on any
#: incompatible change to the envelope shape (payload compatibility is
#: governed separately by the key salt).
STORE_SCHEMA = "repro-store-v1"

#: With ``max_bytes`` set, a put triggers an opportunistic gc pass
#: every this many puts (per process) so long-running services stay
#: under the cap without an external cron.
GC_PUT_INTERVAL = 64

_COUNTER_NAMES = ("hits", "misses", "puts", "put_races", "evictions",
                  "corrupt", "verify_failed")


class StoreError(ReproError):
    """A store operation failed in a way the caller must see."""


def _payload_sha(payload: Any) -> str:
    import hashlib

    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class Store:
    """A sharded, content-addressed, LRU-gc'd on-disk cache."""

    def __init__(self, root: Union[str, Path],
                 max_bytes: Optional[int] = None,
                 instance: Optional[str] = None) -> None:
        self.root = Path(root)
        #: Metric namespace for this store's tracer counters. Defaults
        #: to the root directory's name so two stores in one process
        #: (a test fixture's cache next to a service's) never add into
        #: the same ``store_*`` registry instruments.
        self.instance = instance if instance is not None else self.root.name
        #: Byte cap enforced by :meth:`gc` (None = unbounded).
        self.max_bytes = max_bytes
        self.counters: Dict[str, int] = {name: 0 for name in _COUNTER_NAMES}
        self._puts_since_gc = 0

    # -- pickling (configuration only; counters are per-process) -------
    def __getstate__(self) -> Dict[str, Any]:
        return {"root": str(self.root), "max_bytes": self.max_bytes,
                "instance": self.instance}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(state["root"], max_bytes=state["max_bytes"],
                      instance=state.get("instance"))

    def __repr__(self) -> str:
        return f"Store({str(self.root)!r}, max_bytes={self.max_bytes})"

    # -- layout --------------------------------------------------------
    def _object_path(self, key: str) -> Path:
        self._check_key(key)
        return self.root / "objects" / key[:2] / f"{key[2:]}.json"

    @staticmethod
    def _check_key(key: str) -> None:
        if not (isinstance(key, str) and len(key) == 64
                and all(c in "0123456789abcdef" for c in key)):
            raise StoreError(f"malformed store key {key!r}")

    @contextlib.contextmanager
    def _shard_lock(self, key: str) -> Iterator[None]:
        """Exclusive writer lock for the key's shard (POSIX fcntl)."""
        lock_dir = self.root / "locks"
        lock_dir.mkdir(parents=True, exist_ok=True)
        lock_path = lock_dir / f"{key[:2]}.lock"
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with lock_path.open("a") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    # -- observability -------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        tracer = current_tracer()
        if tracer is not None:
            tracer.metrics.counter(f"store_{name}",
                                   instance=self.instance).inc(amount)

    # -- read path -----------------------------------------------------
    def get(self, key: str, kind: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key``, or None.

        Any damage — unreadable JSON, a mismatched envelope, a payload
        that fails its own digest — counts as a miss; the broken file
        is removed so the next writer repairs the entry instead of
        racing a corpse.
        """
        path = self._object_path(key)
        entry = self._load_entry(path, key, kind)
        if entry is None:
            self._count("misses")
            obs_event("cache_miss", kind=kind, key=key[:16])
            return None
        self._count("hits")
        obs_event("cache_hit", kind=kind, key=key[:16])
        # LRU recency bump, lock-free. A concurrent gc may unlink the
        # file between our read and this utime — ENOENT is then fine
        # (the payload is already in hand; the next writer repopulates).
        with contextlib.suppress(OSError):
            os.utime(path)
        return entry["payload"]

    def _load_entry(self, path: Path, key: Optional[str],
                    kind: Optional[str]) -> Optional[Dict[str, Any]]:
        """Read + validate one entry; quarantine (delete) damage."""
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return None
        problem = None
        entry: Optional[Dict[str, Any]] = None
        try:
            entry = json.loads(raw)
        except ValueError:
            problem = "unparseable JSON"
        if entry is not None:
            problem = self._envelope_problem(entry, key, kind)
        if problem is not None:
            self._count("corrupt")
            obs_event("store_corrupt", key=path.stem[:16], problem=problem)
            with contextlib.suppress(OSError):
                path.unlink()
            return None
        return entry

    @staticmethod
    def _envelope_problem(entry: Any, key: Optional[str],
                          kind: Optional[str]) -> Optional[str]:
        if not isinstance(entry, dict):
            return "entry is not an object"
        if entry.get("schema") != STORE_SCHEMA:
            return f"schema {entry.get('schema')!r} != {STORE_SCHEMA!r}"
        if key is not None and entry.get("key") != key:
            return "key mismatch"
        if kind is not None and entry.get("kind") != kind:
            return f"kind {entry.get('kind')!r} != {kind!r}"
        if entry.get("salt") != code_salt():
            return "stale salt"
        if "payload" not in entry:
            return "payload missing"
        if entry.get("payload_sha") != _payload_sha(entry["payload"]):
            return "payload digest mismatch"
        return None

    def contains(self, key: str, kind: str) -> bool:
        """Validity check without counting a hit/miss or bumping LRU."""
        entry = self._load_entry(self._object_path(key), key, kind)
        return entry is not None

    # -- write path ----------------------------------------------------
    def put(self, key: str, kind: str, payload: Dict[str, Any]) -> bool:
        """Store ``payload`` under ``key``; returns False on a lost race.

        Entries are immutable: if a valid entry already exists the
        write is skipped (content addressing makes both writers'
        payloads equivalent). An *invalid* existing entry is replaced.
        """
        path = self._object_path(key)
        entry = {
            "schema": STORE_SCHEMA,
            "key": key,
            "kind": kind,
            "salt": code_salt(),
            "created_unix": round(time.time(), 3),
            "payload_sha": _payload_sha(payload),
            "payload": payload,
        }
        with self._shard_lock(key):
            if self._load_entry(path, key, kind) is not None:
                self._count("put_races")
                return False
            with atomic_write(path) as fh:
                json.dump(entry, fh)
        self._count("puts")
        self._puts_since_gc += 1
        if self.max_bytes is not None \
                and self._puts_since_gc >= GC_PUT_INTERVAL:
            self._puts_since_gc = 0
            self.gc()
        return True

    def delete(self, key: str) -> bool:
        path = self._object_path(key)
        with self._shard_lock(key):
            existed = path.exists()
            with contextlib.suppress(OSError):
                path.unlink()
        return existed

    # -- maintenance ---------------------------------------------------
    def _entries(self) -> List[Tuple[Path, float, int]]:
        """Every entry as ``(json path, mtime, bytes)``."""
        objects = self.root / "objects"
        found: List[Tuple[Path, float, int]] = []
        if not objects.is_dir():
            return found
        for path in sorted(objects.glob("*/*.json")):
            try:
                stat = path.stat()
            except OSError:
                continue  # evicted or repaired concurrently
            found.append((path, stat.st_mtime, stat.st_size))
        return found

    def gc(self, max_bytes: Optional[int] = None) -> Dict[str, int]:
        """Evict least-recently-used entries down to the byte cap.

        Returns ``{"evicted": n, "freed_bytes": b, "kept": k,
        "kept_bytes": b2}``. With no cap configured or given, nothing
        is evicted (the scan still reports sizes).
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        entries = self._entries()
        total = sum(size for _, _, size in entries)
        evicted = freed = 0
        if cap is not None:
            for path, scanned_mtime, size in sorted(
                    entries, key=lambda e: (e[1], e[0])):
                if total <= cap:
                    break
                key = f"{path.parent.name}{path.stem}"
                with self._shard_lock(key):
                    # Readers bump mtime lock-free, so the recency this
                    # scan saw may be stale by the time we get here.
                    # Re-stat under the shard lock: an entry hit since
                    # the scan is *recently used* and must survive; one
                    # already gone (concurrent gc/repair) frees its
                    # bytes without counting as our eviction.
                    try:
                        current_mtime = path.stat().st_mtime
                    except OSError:
                        total -= size
                        continue
                    if current_mtime > scanned_mtime:
                        continue
                    with contextlib.suppress(OSError):
                        path.unlink()
                total -= size
                freed += size
                evicted += 1
                obs_event("store_evict", key=key[:16], bytes=size)
        if evicted:
            self._count("evictions", evicted)
        return {"evicted": evicted, "freed_bytes": freed,
                "kept": len(entries) - evicted, "kept_bytes": total}

    def verify(self, repair: bool = True) -> Dict[str, Any]:
        """Validate every entry; optionally remove the damaged ones.

        Returns ``{"checked": n, "valid": v, "invalid": [...]}`` where
        each invalid item is ``{"key": ..., "problem": ...}``. With
        ``repair=True`` (default) damaged entries are deleted — the
        same quarantine a :meth:`get` would perform lazily.
        """
        checked = valid = 0
        invalid: List[Dict[str, str]] = []
        for path, _, _ in self._entries():
            checked += 1
            key = f"{path.parent.name}{path.stem}"
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                entry = None
            problem = ("unreadable entry" if entry is None
                       else self._envelope_problem(entry, key, None))
            if problem is None:
                valid += 1
                continue
            invalid.append({"key": key, "problem": problem})
            self._count("verify_failed")
            if repair:
                with self._shard_lock(key), contextlib.suppress(OSError):
                    path.unlink()
        return {"checked": checked, "valid": valid, "invalid": invalid}

    def stats(self) -> Dict[str, Any]:
        """Disk usage by kind plus this process's hit/miss counters."""
        entries = self._entries()
        kinds: Dict[str, int] = {}
        for path, _, _ in entries:
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
                kind = str(entry.get("kind"))
            except (OSError, ValueError):
                kind = "corrupt"
            kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _, _, size in entries),
            "max_bytes": self.max_bytes,
            "by_kind": dict(sorted(kinds.items())),
            "salt": code_salt(),
            "counters": dict(self.counters),
        }


__all__ = ["Store", "StoreError", "STORE_SCHEMA", "GC_PUT_INTERVAL"]
