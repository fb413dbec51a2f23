"""Run manifests: everything needed to reproduce a recorded run.

A manifest is a flat JSON-compatible dict stamped into every exported
trace (and writable standalone next to BENCH/CSV artifacts). It
answers "what produced these numbers": the exact configuration
(fingerprinted), the case (fingerprinted via its canonical JSON form),
the backend, the LP engine of the branch-and-bound relaxations, and the
environment (python / platform / library versions / git describe).

Fingerprints are sha256 over canonical JSON (sorted keys), truncated
to 16 hex chars — collision-safe at the scale of a benchmark matrix
and short enough to eyeball-diff in a table.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.obs.trace import OBS_SCHEMA


def _sha16(payload: Any) -> str:
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def config_fingerprint(options: Any) -> str:
    """Stable hash of a configuration object.

    Dataclasses (e.g. :class:`~repro.core.synthesizer.SynthesisOptions`)
    hash their field dict minus the fields declared ``compare=False`` —
    the dataclass's own marker for members that do not affect what is
    computed (an attached tracer, the persistent cache handle). Plain
    dicts hash as-is.

    This digest keys Tier A of the persistent solve cache and the
    service's job identity, so it must stay stable across releases;
    ``tests/test_fingerprints.py`` pins known values.
    """
    if dataclasses.is_dataclass(options) and not isinstance(options, type):
        payload = {
            f.name: getattr(options, f.name)
            for f in dataclasses.fields(options)
            if f.compare
        }
    elif isinstance(options, dict):
        payload = options
    else:
        payload = repr(options)
    return _sha16(payload)


def case_fingerprint(spec: Any) -> str:
    """Structural hash of a spec via its canonical JSON form."""
    from repro.io.spec_json import spec_to_dict

    return _sha16(spec_to_dict(spec))


@functools.lru_cache(maxsize=None)
def git_describe(root: Optional[Path] = None) -> str:
    """``git describe --always --dirty`` of the source tree, or "unknown".

    Asked once per process and root: a process runs the code it
    imported, so the first answer stays right.
    """
    if root is None:
        root = Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=root, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _library_versions() -> Dict[str, str]:
    versions: Dict[str, str] = {}
    for lib in ("numpy", "scipy", "networkx"):
        try:
            versions[lib] = __import__(lib).__version__
        except Exception:  # missing or broken: the manifest still stands
            versions[lib] = "unavailable"
    return versions


def run_manifest(spec: Any = None, options: Any = None,
                 extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build the manifest for one run (all arguments optional)."""
    from repro.opt import incremental

    manifest: Dict[str, Any] = {
        "schema": OBS_SCHEMA,
        "created_unix": round(time.time(), 3),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git": git_describe(),
        "libraries": _library_versions(),
        "lp_engine": incremental.LP_ENGINE,
    }
    if spec is not None:
        manifest["case"] = getattr(spec, "name", str(spec))
        manifest["case_fingerprint"] = case_fingerprint(spec)
    if options is not None:
        manifest["config_fingerprint"] = config_fingerprint(options)
        backend = getattr(options, "backend", None)
        if backend is not None:
            manifest["backend"] = backend
    if extra:
        manifest.update(extra)
    return manifest


def save_manifest(manifest: Dict[str, Any], path) -> Path:
    from repro.io.atomic import atomic_write_text

    return atomic_write_text(
        path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


__all__ = ["config_fingerprint", "case_fingerprint", "git_describe",
           "run_manifest", "save_manifest"]
