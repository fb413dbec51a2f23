"""Encoding/decoding of cached payloads (Tier A results).

The store holds plain JSON; this module is the boundary between that
JSON and the in-memory types. Two properties matter:

* **Self-contained encoding** — a stored result names routes by their
  vertex sequences (not catalog indices), valves by explicit node
  pairs (not joined strings), so decoding needs only the spec the
  caller already holds. Nothing positional, nothing ambiguous.
* **Zero-trust decoding** — :func:`decode_result` rebuilds paths on
  the *caller's* switch (a vertex sequence that is not a real channel
  fails immediately), recomputes the valve analysis and switch
  reduction from scratch, re-checks the stored pressure cover, and
  then :func:`load_result` runs the full independent verifier
  (:func:`repro.core.verify.verify_result`). A forged or stale entry
  can cost a failed validation; it can never produce a wrong answer.

Only **proven-optimal, non-degraded** results are encoded: feasible
and timed-out outcomes depend on the time budget of the run that
produced them, so replaying them for a different caller would change
answers.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.solution import (
    PressureSharingResult,
    SynthesisResult,
    SynthesisStatus,
    ValveAnalysis,
)
from repro.errors import ReproError, VerificationError
from repro.store.store import Store

#: Payload format version inside "result" entries; bump together with
#: :data:`repro.store.keys.CACHE_EPOCH` when the shape changes.
RESULT_FORMAT = 1


def encodable(result: SynthesisResult) -> bool:
    """Whether a result is safe to serve to *any* future caller."""
    return (result.status is SynthesisStatus.OPTIMAL
            and result.error is None
            and not result.counters.get("degraded"))


def encode_result(result: SynthesisResult) -> Dict[str, Any]:
    """The JSON payload for one proven-optimal synthesis result."""
    if not encodable(result):
        raise ReproError(
            f"only proven-optimal results are cacheable, not "
            f"{result.status.value!r}")
    payload: Dict[str, Any] = {
        "format": RESULT_FORMAT,
        "case": result.spec.name,
        "objective": result.objective,
        "solver": result.solver,
        "binding": dict(result.binding),
        "routes": [{"id": fid, "route": list(path.vertices)}
                   for fid, path in sorted(result.flow_paths.items())],
        "flow_sets": [list(group) for group in result.flow_sets],
    }
    if result.pressure is not None:
        payload["pressure"] = {
            "method": result.pressure.method,
            "degraded": bool(result.pressure.degraded),
            "groups": [sorted([a, b] for a, b in group)
                       for group in result.pressure.groups],
        }
    return payload


def decode_result(spec: Any, payload: Dict[str, Any]) -> SynthesisResult:
    """Rebuild a :class:`SynthesisResult` for ``spec`` from a payload.

    Raises :class:`VerificationError` (or a plain decoding error
    wrapped into one) on anything that does not reconstruct cleanly;
    callers treat that as a cache miss.
    """
    from repro.core.pressure import _check_cover, compatibility_graph
    from repro.core.valves import analyze_valves
    from repro.switches.paths import path_from_vertices
    from repro.switches.reduce import reduce_switch

    try:
        if payload.get("format") != RESULT_FORMAT:
            raise VerificationError(
                f"unknown result payload format {payload.get('format')!r}")
        flow_paths = {}
        for index, item in enumerate(payload["routes"]):
            flow_paths[item["id"]] = path_from_vertices(
                spec.switch, index, [str(v) for v in item["route"]])
        used: set = set()
        for path in flow_paths.values():
            used.update(path.segments)
        result = SynthesisResult(
            spec=spec,
            status=SynthesisStatus.OPTIMAL,
            objective=payload["objective"],
            binding={str(m): str(p)
                     for m, p in payload["binding"].items()},
            flow_paths=flow_paths,
            flow_sets=[[fid for fid in group]
                       for group in payload["flow_sets"]],
            used_segments=used,
            solver=str(payload.get("solver", "")),
        )
        valves = analyze_valves(spec.switch, result.flow_paths,
                                result.flow_sets)
        result.valves = valves
        result.reduced = reduce_switch(spec.switch, result.used_segments,
                                       valves.essential)
        pressure = payload.get("pressure")
        if pressure is not None:
            groups = [[(str(a), str(b)) for a, b in group]
                      for group in pressure["groups"]]
            graph = compatibility_graph(valves.status,
                                        sorted(valves.essential))
            _check_cover(graph, groups)  # raises on an invalid cover
            result.pressure = PressureSharingResult(
                groups=groups,
                method=str(pressure.get("method", "ilp")),
                degraded=bool(pressure.get("degraded", False)),
            )
        return result
    except VerificationError:
        raise
    except Exception as exc:  # malformed payload shapes, unknown channels
        raise VerificationError(
            f"stored result does not decode against spec "
            f"{getattr(spec, 'name', spec)!r}: "
            f"{type(exc).__name__}: {exc}") from exc


def load_result(store: Store, key: str, spec: Any) -> \
        Optional[SynthesisResult]:
    """Tier A read: fetch, decode and *independently verify* a result.

    Returns None on miss, on decode failure, and on verification
    failure — the caller falls through to a real solve either way. A
    hit that fails verification additionally deletes the entry and
    counts ``verify_failed`` (a content-addressed entry that fails the
    checker is damage, not a version skew — skew is excluded by the
    key salt).
    """
    from repro.core.verify import verify_result
    from repro.obs.trace import obs_event

    payload = store.get(key, "result")
    if payload is None:
        return None
    try:
        result = decode_result(spec, payload)
        verify_result(result)
    except VerificationError as exc:
        store._count("verify_failed")
        obs_event("store_verify_failed", key=key[:16], error=str(exc))
        store.delete(key)
        return None
    return result


def store_result(store: Store, key: str, result: SynthesisResult) -> bool:
    """Tier A write; silently skips non-cacheable results."""
    if not encodable(result):
        return False
    return store.put(key, "result", encode_result(result))


__all__ = [
    "RESULT_FORMAT", "encodable", "encode_result", "decode_result",
    "load_result", "store_result",
]
