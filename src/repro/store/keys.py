"""Key derivation for the persistent solve cache.

Every entry in the content-addressed store is identified by a sha256
hex digest computed here. Two rules keep the store trustworthy:

* **Content addressing** — a key is a pure function of the work it
  names: the case fingerprint, the config fingerprint and the fault
  mask. Equal keys mean
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
)


def code_salt() -> str:
    """The version salt folded into every key."""
    override = os.environ.get("REPRO_STORE_SALT")
    if override:
        return override
    import repro  # deferred: repro.store is importable mid-package-init

    return f"epoch{CACHE_EPOCH}:{repro.__version__}"


def digest(*parts: Any) -> str:
    """sha256 hex over the JSON of ``parts``, salt included.

    Parts are JSON values; tuples serialize as lists, and floats by
    their shortest round-trip repr, so equal parts give equal keys.
    """
    canonical = json.dumps([code_salt(), *parts], sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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


__all__ = ["CACHE_EPOCH", "KNOWN_KINDS", "code_salt", "digest",
           "fault_salt", "result_key"]
