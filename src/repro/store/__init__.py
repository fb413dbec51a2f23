"""Persistent content-addressed solve cache (``repro.store``).

The store is the cross-run, cross-process sibling of the in-memory
caches that already exist (the path-catalog LRU, compiled-model
caches, :class:`~repro.opt.incremental.SolveContext`): results that
used to die with the process now live in a shared directory, so a
weight sweep, a batch campaign, a second tenant of the service or a
CI re-run can answer work it has already solved from disk.

**Tier A — exact result reuse.** Key = case fingerprint ⊕ config
fingerprint ⊕ fault mask ⊕ code-version salt. A hit returns the
stored proven-optimal :class:`~repro.core.solution.SynthesisResult`,
re-verified by the independent feasibility checker before it is
trusted, without touching a solver. (The warm artifacts of a former
Tier B — path catalogs and incumbents — are no longer written or
read; entries left by older versions age out through ``gc``.)

Activation is explicit: pass a :class:`Store` via
``SynthesisOptions.store`` (which ``run_batch`` and ``weight_sweep``
hand to every run) or ``SynthesisService(store=...)``, or export
``REPRO_STORE=/path/to/cache`` to make one ambient. No store, no
behaviour change.

See ``docs/caching.md`` for the layout, key derivation and the gc
runbook; ``repro cache stats|gc|verify`` manages a store from the
command line.
"""

from __future__ import annotations

import os
import threading
from typing import Optional

from repro.store.codec import (
    decode_result,
    encodable,
    encode_result,
    load_result,
    store_result,
)
from repro.store.keys import (
    CACHE_EPOCH,
    code_salt,
    digest,
    fault_salt,
    result_key,
)
from repro.store.store import GC_PUT_INTERVAL, STORE_SCHEMA, Store, StoreError

_LOCK = threading.Lock()
_ENV_STORE: Optional[Store] = None


def active_store() -> Optional[Store]:
    """The ambient store, if any: the one ``REPRO_STORE`` in the
    environment names (opened lazily, reused across calls)."""
    global _ENV_STORE
    with _LOCK:
        path = os.environ.get("REPRO_STORE")
        if not path:
            return None
        if _ENV_STORE is None or str(_ENV_STORE.root) != path:
            _ENV_STORE = Store(path)
        return _ENV_STORE


__all__ = [
    "Store",
    "StoreError",
    "STORE_SCHEMA",
    "GC_PUT_INTERVAL",
    "CACHE_EPOCH",
    "code_salt",
    "digest",
    "fault_salt",
    "result_key",
    "active_store",
    "encodable",
    "encode_result",
    "decode_result",
    "load_result",
    "store_result",
]
