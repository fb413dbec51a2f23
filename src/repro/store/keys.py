"""Key derivation for the persistent solve cache.

Every entry in the content-addressed store is identified by a sha256
hex digest computed here. Two rules keep the store trustworthy:

* **Content addressing** — a key is a pure function of the work it
  names: the case fingerprint, the config fingerprint, and (for warm
  artifacts) the structural identity of the model. Equal keys mean
  equal inputs, so a hit can be *re-verified* cheaply instead of
  trusted blindly.
* **Salting** — every key folds in :func:`code_salt`, a version salt
  derived from the library version plus a hand-bumped
  :data:`CACHE_EPOCH`. Changing either invalidates the whole store at
  zero cost (old entries simply stop being addressed; ``gc`` reclaims
  them). Bump :data:`CACHE_EPOCH` whenever a change alters what any
  cached payload *means* — a new objective term, a different path
  enumeration order, a changed result schema. ``REPRO_STORE_SALT``
  overrides the salt entirely (useful to segregate tenants or force a
  cold run without clearing the store).

Case and config fingerprints come from :mod:`repro.obs.manifest` — the
single canonical implementation; nothing in the store re-hashes specs
or options on its own.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

from repro.obs.manifest import case_fingerprint, config_fingerprint

#: Bump to invalidate every existing store entry (see module docstring).
#: 2: masked switches lost their rotation symmetry row, so a stored
#: "optimal" result for a masked spec may be suboptimal.
CACHE_EPOCH = 2

#: Entry kinds with a defined payload shape (open vocabulary, like
#: obs event names — producers may add more).
KNOWN_KINDS = (
    "result",       # Tier A: a complete verified SynthesisResult
    "catalog",      # Tier B: an enumerated path catalog
    "incumbent",    # Tier B: an optimal assignment (name -> value)
)


def code_salt() -> str:
    """The version salt folded into every key."""
    override = os.environ.get("REPRO_STORE_SALT")
    if override:
        return override
    import repro  # deferred: repro.store is importable mid-package-init

    return f"epoch{CACHE_EPOCH}:{repro.__version__}"


def digest(*parts: Any) -> str:
    """sha256 hex over the canonical JSON of ``parts`` (salt included).

    Tuples/sets inside ``parts`` are canonicalized via ``default=str``
    fallbacks only after an explicit conversion — callers pass
    JSON-able shapes or hashables with stable ``repr``.
    """
    canonical = json.dumps([code_salt(), *[_canonical(p) for p in parts]],
                           sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _canonical(part: Any) -> Any:
    """A JSON-stable form of one key component."""
    if isinstance(part, (str, int, bool)) or part is None:
        return part
    if isinstance(part, float):
        return repr(part)  # repr is shortest-round-trip, stable in py3
    if isinstance(part, (list, tuple)):
        return [_canonical(p) for p in part]
    if isinstance(part, (set, frozenset)):
        return sorted(_canonical(p) for p in part)
    if isinstance(part, dict):
        return {str(k): _canonical(v) for k, v in sorted(part.items())}
    return repr(part)


def result_key(spec: Any, options: Any) -> str:
    """Tier A key: case ⊕ config fingerprint ⊕ fault mask ⊕ salt.

    The fault-mask component makes degraded hardware a different
    address: a cached healthy-chip result can never be served for a
    chip with masked valves/segments, and two different fault sets
    never share an entry. (The case fingerprint also sees the faults
    via the spec's switch serialization — the explicit component keeps
    the guarantee even for spec types that bypass it.)
    """
    return digest("result", case_fingerprint(spec),
                  config_fingerprint(options), fault_salt(spec))


def fault_salt(spec: Any) -> str:
    """Canonical digest of the spec's active fault mask."""
    mask = getattr(getattr(spec, "switch", None), "health", None)
    if mask is None or mask.is_empty:
        return "healthy"
    return mask.digest()


def artifact_key(kind: str, *parts: Any) -> str:
    """Tier B key for a structure-addressed warm artifact."""
    return digest(kind, *parts)


__all__ = ["CACHE_EPOCH", "KNOWN_KINDS", "code_salt", "digest",
           "fault_salt", "result_key", "artifact_key"]
