"""Trace exporters and loaders: JSONL, Chrome ``trace_event``, text summary.

Three views of the same record stream:

* **JSONL** (`write_trace_jsonl`) — the canonical artifact: one header
  line (schema + manifest), then one JSON object per record, in seq
  order. Append-friendly, greppable, and diffable across runs.
* **Chrome trace** (`write_chrome_trace`) — the ``trace_event`` JSON
  consumed by Perfetto / ``chrome://tracing``: spans become ``B``/``E``
  duration events, point events become instants (``i``), counters and
  gauges become ``C`` counter tracks.
* **Summary / compare** (`format_summary`, `format_comparison`) — the
  plain-text digest behind ``repro obs summarize`` and ``obs compare``.

`validate_trace_records` is the schema check used by the tests and the
CI smoke step; it enforces the invariants documented in
docs/observability.md (monotonic timestamps, balanced spans, correct
parentage).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.io.atomic import atomic_write, atomic_write_text
from repro.obs.trace import OBS_SCHEMA, Tracer

PathLike = Union[str, Path]


@dataclass
class TraceData:
    """One loaded trace: header dict plus the record stream."""

    header: Dict[str, Any] = field(default_factory=dict)
    records: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def manifest(self) -> Dict[str, Any]:
        return self.header.get("manifest", {})

    def by_type(self, record_type: str) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("type") == record_type]

    def events_named(self, name: str) -> List[Dict[str, Any]]:
        return [r for r in self.records
                if r.get("type") == "event" and r.get("name") == name]

    @property
    def duration(self) -> float:
        return max((r.get("t", 0.0) for r in self.records), default=0.0)


def _records_of(trace: Union[Tracer, List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    return trace.records() if isinstance(trace, Tracer) else list(trace)


def write_trace_jsonl(trace: Union[Tracer, List[Dict[str, Any]]],
                      path: PathLike,
                      manifest: Optional[Dict[str, Any]] = None,
                      name: str = "", dropped: int = 0) -> Path:
    """Write the canonical JSONL artifact (header line + one record/line).

    The header's ``name`` and ``dropped`` (records lost to a buffer cap)
    are a :class:`Tracer`'s own, its ``dropped`` counting what each
    absorbed stream lost too; a record list takes them from the
    keywords.
    """
    records = _records_of(trace)
    if isinstance(trace, Tracer):
        name = trace.name
        dropped = trace.dropped + sum(
            s["dropped"] for s in trace.streams().values())
    header: Dict[str, Any] = {"type": "header", "schema": OBS_SCHEMA}
    if name:
        header["name"] = name
    if dropped:
        header["dropped"] = dropped
    if manifest is not None:
        header["manifest"] = manifest
    path = Path(path)
    with atomic_write(path) as fh:
        fh.write(json.dumps(header, sort_keys=False) + "\n")
        for record in records:
            fh.write(json.dumps(record, sort_keys=False) + "\n")
    return path


def read_trace_jsonl(path: PathLike) -> TraceData:
    """Load a JSONL trace; raises ValueError on a malformed file."""
    path = Path(path)
    data = TraceData()
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from None
            if record.get("type") == "header":
                data.header = record
            else:
                data.records.append(record)
    if data.header.get("schema") not in (None, OBS_SCHEMA):
        raise ValueError(
            f"{path}: unsupported trace schema {data.header.get('schema')!r} "
            f"(this reader understands {OBS_SCHEMA})")
    return data


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
def validate_trace_records(records: List[Dict[str, Any]]) -> None:
    """Assert the stream invariants; raises ValueError on violation.

    Checks: required fields per record type, non-decreasing ``seq``,
    non-decreasing ``t`` *per thread*, every ``span_end`` matches an
    open ``span_begin``, and every span/event parent was begun before
    its child.
    """
    last_seq = -1
    last_t_by_tid: Dict[int, float] = {}
    begun: Dict[int, Dict[str, Any]] = {}
    ended: set = set()
    for i, record in enumerate(records):
        rtype = record.get("type")
        if rtype == "metric":
            if "name" not in record or "kind" not in record:
                raise ValueError(f"record {i}: metric needs name and kind")
            continue
        if rtype not in ("span_begin", "span_end", "event"):
            raise ValueError(f"record {i}: unknown type {rtype!r}")
        for key in ("t", "seq", "name"):
            if key not in record:
                raise ValueError(f"record {i}: missing {key!r}")
        if record["seq"] <= last_seq:
            raise ValueError(f"record {i}: seq {record['seq']} not increasing")
        last_seq = record["seq"]
        tid = record.get("tid", 0)
        if record["t"] < last_t_by_tid.get(tid, 0.0) - 1e-9:
            raise ValueError(f"record {i}: timestamp went backwards on tid {tid}")
        last_t_by_tid[tid] = record["t"]
        if rtype == "span_begin":
            span = record["span"]
            if span in begun:
                raise ValueError(f"record {i}: span {span} begun twice")
            parent = record.get("parent")
            if parent is not None and parent not in begun:
                raise ValueError(
                    f"record {i}: span {span} parent {parent} never begun")
            begun[span] = record
        elif rtype == "span_end":
            span = record["span"]
            if span not in begun:
                raise ValueError(f"record {i}: span {span} ended but never begun")
            if span in ended:
                raise ValueError(f"record {i}: span {span} ended twice")
            ended.add(span)
        else:  # event
            span = record.get("span")
            if span is not None and span not in begun:
                raise ValueError(
                    f"record {i}: event under unknown span {span}")
    unclosed = set(begun) - ended
    if unclosed:
        raise ValueError(f"spans never closed: {sorted(unclosed)}")


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------
def chrome_trace_events(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Map our records onto ``trace_event`` dicts (ts in microseconds)."""
    out: List[Dict[str, Any]] = []
    for record in records:
        rtype = record.get("type")
        ts = round(record.get("t", 0.0) * 1e6, 3)
        tid = record.get("tid", 0)
        if rtype == "span_begin":
            out.append({"ph": "B", "name": record["name"], "cat": "span",
                        "ts": ts, "pid": 1, "tid": tid,
                        "args": record.get("attrs", {})})
        elif rtype == "span_end":
            out.append({"ph": "E", "name": record["name"], "cat": "span",
                        "ts": ts, "pid": 1, "tid": tid})
        elif rtype == "event":
            out.append({"ph": "i", "name": record["name"], "cat": "event",
                        "ts": ts, "pid": 1, "tid": tid, "s": "t",
                        "args": record.get("attrs", {})})
        elif rtype == "metric":
            value = record.get("value", record.get("mean"))
            if value is not None:
                out.append({"ph": "C", "name": record["name"], "cat": "metric",
                            "ts": ts, "pid": 1, "tid": 0,
                            "args": {"value": value}})
    return out


def write_chrome_trace(trace: Union[Tracer, List[Dict[str, Any]]],
                       path: PathLike,
                       manifest: Optional[Dict[str, Any]] = None) -> Path:
    """Write a Perfetto / chrome://tracing loadable JSON file."""
    payload: Dict[str, Any] = {
        "traceEvents": chrome_trace_events(_records_of(trace)),
        "displayTimeUnit": "ms",
        "otherData": {"schema": OBS_SCHEMA},
    }
    if manifest is not None:
        payload["otherData"]["manifest"] = manifest
    return atomic_write_text(path, json.dumps(payload) + "\n")


def validate_chrome_trace(payload: Dict[str, Any]) -> None:
    """Check a loaded Chrome-trace JSON against the ``trace_event`` shape."""
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("chrome trace must be an object with 'traceEvents'")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    open_depth: Dict[int, int] = {}
    for i, ev in enumerate(events):
        for key in ("ph", "name", "ts", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"traceEvents[{i}]: missing {key!r}")
        if ev["ph"] not in ("B", "E", "X", "i", "C", "M"):
            raise ValueError(f"traceEvents[{i}]: unexpected phase {ev['ph']!r}")
        if ev["ph"] == "B":
            open_depth[ev["tid"]] = open_depth.get(ev["tid"], 0) + 1
        elif ev["ph"] == "E":
            depth = open_depth.get(ev["tid"], 0) - 1
            if depth < 0:
                raise ValueError(f"traceEvents[{i}]: E without matching B")
            open_depth[ev["tid"]] = depth
    if any(open_depth.values()):
        raise ValueError("unbalanced B/E events")


# ---------------------------------------------------------------------------
# text summary / compare
# ---------------------------------------------------------------------------
def _span_totals(records: List[Dict[str, Any]]) -> Dict[str, Tuple[int, float]]:
    """``name -> (count, total seconds)`` over the closed spans."""
    totals: Dict[str, Tuple[int, float]] = {}
    for record in records:
        if record.get("type") != "span_end":
            continue
        count, total = totals.get(record["name"], (0, 0.0))
        totals[record["name"]] = (count + 1, total + record.get("dur", 0.0))
    return totals


def _event_counts(records: List[Dict[str, Any]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in records:
        if record.get("type") == "event":
            counts[record["name"]] = counts.get(record["name"], 0) + 1
    return counts


def _metrics(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    return {r["name"]: r for r in records if r.get("type") == "metric"}


def format_summary(data: TraceData, indent: str = "  ") -> str:
    """The ``repro obs summarize`` digest of one trace."""
    lines: List[str] = []
    name = data.header.get("name", "")
    lines.append(f"trace{f' {name!r}' if name else ''}: "
                 f"{len(data.records)} records over {data.duration:.4f}s")
    manifest = data.manifest
    if manifest:
        fields = [f"{k}={manifest[k]}" for k in
                  ("case", "backend", "python", "git",
                   "case_fingerprint", "config_fingerprint")
                  if k in manifest]
        lines.append(f"{indent}manifest: " + "  ".join(fields))
    dropped = data.header.get("dropped") or next(
        (r.get("value", 0) for r in data.records
         if r["type"] == "metric" and r["name"] == "trace_dropped"), 0)
    if dropped:
        lines.append(f"{indent}WARNING: {dropped} event(s) dropped at the "
                     f"bounded buffer — this trace is incomplete")

    totals = _span_totals(data.records)
    if totals:
        lines.append("spans:")
        width = max(len(n) for n in totals)
        for span_name, (count, total) in sorted(
                totals.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"{indent}{span_name.ljust(width)}  x{count:<4d} "
                         f"{total:9.4f}s")
    counts = _event_counts(data.records)
    if counts:
        lines.append("events: " + ", ".join(
            f"{n} x{c}" for n, c in sorted(counts.items())))
    incumbents = data.events_named("incumbent")
    if incumbents:
        lines.append("incumbents:")
        for ev in incumbents:
            attrs = ev.get("attrs", {})
            detail = "  ".join(f"{k}={attrs[k]}" for k in
                               ("objective", "source", "nodes") if k in attrs)
            lines.append(f"{indent}t={ev['t']:.4f}s  {detail}")
    metrics = _metrics(data.records)
    if metrics:
        lines.append("metrics:")
        width = max(len(n) for n in metrics)
        for metric_name, record in sorted(metrics.items()):
            if record["kind"] == "histogram":
                value = (f"count={record.get('count', 0)} "
                         f"mean={record.get('mean', 0)}")
            else:
                value = str(record.get("value"))
            lines.append(f"{indent}{metric_name.ljust(width)}  {value}")
    return "\n".join(lines)


def format_comparison(a: TraceData, b: TraceData,
                      label_a: str = "A", label_b: str = "B",
                      indent: str = "  ") -> str:
    """Side-by-side digest of two traces (``repro obs compare``)."""
    lines: List[str] = [
        f"{label_a}: {len(a.records)} records over {a.duration:.4f}s   "
        f"{label_b}: {len(b.records)} records over {b.duration:.4f}s"
    ]
    for key in ("case_fingerprint", "config_fingerprint", "git", "backend"):
        va, vb = a.manifest.get(key), b.manifest.get(key)
        if va is not None or vb is not None:
            marker = "==" if va == vb else "!="
            lines.append(f"{indent}{key}: {va} {marker} {vb}")
    totals_a, totals_b = _span_totals(a.records), _span_totals(b.records)
    names = sorted(set(totals_a) | set(totals_b))
    if names:
        lines.append(f"spans ({label_a} vs {label_b}):")
        width = max(len(n) for n in names)
        for name in names:
            ta = totals_a.get(name, (0, 0.0))[1]
            tb = totals_b.get(name, (0, 0.0))[1]
            delta = tb - ta
            lines.append(f"{indent}{name.ljust(width)}  {ta:9.4f}s  "
                         f"{tb:9.4f}s  {delta:+9.4f}s")
    metrics_a, metrics_b = _metrics(a.records), _metrics(b.records)
    shared = sorted(set(metrics_a) & set(metrics_b))
    diffs = []
    for name in shared:
        va = metrics_a[name].get("value", metrics_a[name].get("count"))
        vb = metrics_b[name].get("value", metrics_b[name].get("count"))
        if va != vb:
            diffs.append(f"{indent}{name}: {va} -> {vb}")
    if diffs:
        lines.append("metrics (changed):")
        lines.extend(diffs)
    return "\n".join(lines)


__all__ = [
    "TraceData",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "validate_trace_records",
    "chrome_trace_events",
    "write_chrome_trace",
    "validate_chrome_trace",
    "format_summary",
    "format_comparison",
]
