"""Cross-process telemetry shipping and deterministic merge.

The `repro.obs` tracer is strictly per-process: spans, events and
metrics recorded inside a shard child or a ``parallel_bb`` worker
never reach the parent on their own. This module is the plane that
moves them:

* :class:`TelemetryShipper` — child side. Wraps the process-local
  :class:`~repro.obs.trace.Tracer` and cuts bounded, *framed* batches
  by taking what it ships out of that tracer, so records ship exactly
  once and a child holds at most one cut's worth of them; metric
  snapshots are cumulative.
* The parent side is the parent's own tracer:
  :meth:`~repro.obs.trace.Tracer.absorb_batch` validates each batch's
  framing (a batch from a SIGKILLed child that was torn mid-build is
  refused whole — never half-absorbed), keys what it takes in by
  ``(source, pid)``, so a respawned shard is a *new* stream rather
  than a rollback of the old one, and keeps the records once, in one
  store bounded by its ``max_events``. :func:`aggregate_metrics` sums
  the streams' latest snapshots.
* :func:`merge_streams` — the deterministic merge behind
  :meth:`~repro.obs.trace.Tracer.records`. Records are ordered by
  ``(logical_clock, pid, seq)`` and re-identified (span ids, thread
  ids and sequence numbers are reassigned in merge order), so the
  output is a pure function of the input batches: the same batches
  produce byte-identical output no matter how many processes produced
  them or in what order they arrived.
* :func:`render_prometheus` / :func:`validate_prometheus_text` — text
  exposition of per-stream metric snapshots (no client library
  required), plus the validator CI uses to gate the format.
* :func:`correlated_trace` — one job's records out of that store, by
  correlation ID or job id, behind ``GET /jobs/<id>/trace``.

Wire format (``TELEMETRY_VERSION = 1``)::

    {"v": 1, "source": "shard-0", "pid": 4242, "clock": 57,
     "n": 12, "complete": true,          # framing: count + end marker
     "records": [...],                   # repro-obs-v1 records
     "metrics": {"name": {...}, ...},    # cumulative registry snapshot
     "dropped": 0,                       # cumulative tracer drop count
     "foreign": [...]}                   # optional: relayed batches

Everything here is stdlib-only and JSON-compatible, so batches travel
over the existing pickled-pipe RPC seams unchanged.
"""

from __future__ import annotations

import json
import os
import re
from collections import OrderedDict, deque
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import OBS_SCHEMA, Tracer

#: Bump on any incompatible change to the batch envelope above.
TELEMETRY_VERSION = 1

#: Default per-batch record bound: a shipper never puts more than this
#: many records in one batch (the remainder ships on the next cut), so
#: a chatty child cannot wedge the RPC pipe with one giant message.
MAX_BATCH_RECORDS = 10_000


# ---------------------------------------------------------------------------
# correlation ids
# ---------------------------------------------------------------------------
def correlation_id(job_id: str, submission: int) -> str:
    """The correlation ID for one accepted submission of one job.

    ``job_id`` is already the ``case_fingerprint-config_fingerprint``
    pair, so the pair plus a per-service submission ordinal uniquely
    names "this acceptance of this work" across the whole platform.
    """
    return f"{job_id}#{submission}"


def correlation_job(corr: str) -> str:
    """The job id a correlation ID belongs to."""
    return corr.split("#", 1)[0]


# ---------------------------------------------------------------------------
# child side: cut framed batches off a live tracer
# ---------------------------------------------------------------------------
class TelemetryShipper:
    """Cuts incremental, framed batches off a process-local tracer."""

    def __init__(self, tracer: Tracer, source: str = "",
                 max_batch: int = MAX_BATCH_RECORDS) -> None:
        self.tracer = tracer
        self.source = source or tracer.name or "proc"
        self.max_batch = max_batch

    def collect(self) -> Dict[str, Any]:
        """One batch of everything recorded since the previous cut.

        The batch takes its records out of the tracer, up to
        ``max_batch`` of them (the rest ship on the next cut), so each
        ships exactly once and the tracer keeps none it has shipped.
        The metric snapshot and drop count are cumulative, so the
        parent always holds the child's latest totals even if an
        intermediate batch is lost with the child. Every stream the
        tracer absorbed from *its own* children (B&B workers under a
        shard) leaves it too, riding along in ``foreign`` as one batch
        of its records and latest totals, so grandchild telemetry
        reaches the top-level tracer as its own stream. Records of
        those streams that the tracer's bound evicted count in the
        tracer's own drop count, since the next tier never sees them.
        """
        tracer = self.tracer
        with tracer._lock:
            records = tracer._records[:self.max_batch]
            del tracer._records[:len(records)]
            streams, tracer._streams = tracer._streams, {}
            absorbed, tracer._absorbed = tracer._absorbed, deque()
            tracer._by_job = {}
            tracer.dropped += sum(s["evicted"] for s in streams.values())
            dropped = tracer.dropped
            clock = tracer.clock
        relayed: Dict[Tuple[str, int], List[Dict[str, Any]]] = {
            key: [] for key in streams}
        for key, record in absorbed:
            relayed[key].append(record)
        batch = {
            "v": TELEMETRY_VERSION,
            "source": self.source,
            "pid": os.getpid(),
            "clock": clock,
            "records": records,
            "metrics": tracer.metrics.snapshot(),
            "dropped": dropped,
        }
        if streams:
            batch["foreign"] = [_framed({
                "v": TELEMETRY_VERSION,
                "source": key[0],
                "pid": key[1],
                "clock": stream["clock"],
                "records": relayed[key],
                "metrics": stream["metrics"],
                "dropped": stream["dropped"],
            }) for key, stream in streams.items()]
        return _framed(batch)


def _framed(batch: Dict[str, Any]) -> Dict[str, Any]:
    """Write the framing last: a dict built by a process that dies
    mid-way never carries a matching count and end marker."""
    batch["n"] = len(batch["records"])
    batch["complete"] = True
    return batch


def validate_batch(batch: Any) -> bool:
    """True when ``batch`` is a whole, well-framed telemetry batch."""
    if not isinstance(batch, dict):
        return False
    if batch.get("v") != TELEMETRY_VERSION or not batch.get("complete"):
        return False
    records = batch.get("records")
    if not isinstance(records, list) or batch.get("n") != len(records):
        return False
    if not isinstance(batch.get("pid"), int):
        return False
    if not isinstance(batch.get("metrics"), dict):
        return False
    return all(isinstance(r, dict) and "type" in r for r in records)


# ---------------------------------------------------------------------------
# the deterministic merge
# ---------------------------------------------------------------------------
def _sanitize_source(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Repair one source's concatenated batches into a balanced stream.

    A child sampled mid-run (or killed) leaves dangling structure: a
    ``span_begin`` whose end never shipped, a ``span_end`` whose begin
    was dropped by the bounded buffer, an event pointing at a span we
    never saw. Torn *batches* are rejected whole upstream; this pass
    repairs torn *spans* so the merged stream always validates.
    """
    begun: Dict[int, Dict[str, Any]] = {}
    ended: set = set()
    out: List[Dict[str, Any]] = []
    for record in records:
        record = dict(record)
        rtype = record.get("type")
        if rtype == "span_begin":
            span = record["span"]
            if span in begun or span in ended:
                continue  # duplicate shipment; keep the first
            if record.get("parent") not in begun:
                record.pop("parent", None)
            begun[span] = record
        elif rtype == "span_end":
            span = record.get("span")
            if span not in begun or span in ended:
                continue  # end without a begin (or doubled): drop
            ended.add(span)
        elif rtype == "event":
            if record.get("span") is not None and record["span"] not in begun:
                record.pop("span", None)
        out.append(record)
    # Close anything still open, innermost (largest span id) first, so
    # the merged stream is balanced like a live tracer snapshot.
    last_t = out[-1].get("t", 0.0) if out else 0.0
    last_clock = out[-1].get("clock", 0) if out else 0
    last_seq = out[-1].get("seq", 0) if out else 0
    for span in sorted(set(begun) - ended, reverse=True):
        begin = begun[span]
        last_seq += 1
        out.append({
            "type": "span_end",
            "t": max(last_t, begin.get("t", 0.0)),
            "seq": last_seq,
            "clock": last_clock,
            "span": span,
            "name": begin.get("name", ""),
            "dur": round(max(0.0, last_t - begin.get("t", 0.0)), 7),
            "tid": begin.get("tid", 0),
            "truncated": True,
        })
    return out


def merge_streams(
        sources: Iterable[Tuple[str, int, List[Dict[str, Any]]]],
) -> List[Dict[str, Any]]:
    """Merge per-process record streams into one valid obs stream.

    ``sources`` is an iterable of ``(source_name, pid, records)``. The
    merge is deterministic: records are ordered by
    ``(logical_clock, pid, seq, source_name)``, then re-identified —
    span ids, thread ids and sequence numbers are reassigned in merge
    order so the output passes
    :func:`~repro.obs.export.validate_trace_records` as one stream.
    Each record is annotated with its origin (``src``/``pid``) so a
    merged trace stays attributable per process.
    """
    keyed: List[Tuple[Tuple[int, int, int, str], str, int, Dict[str, Any]]] = []
    for name, pid, records in sorted(sources, key=lambda s: (s[0], s[1])):
        for record in _sanitize_source(records):
            key = (record.get("clock", 0), pid, record.get("seq", 0), name)
            keyed.append((key, name, pid, record))
    keyed.sort(key=lambda item: item[0])

    out: List[Dict[str, Any]] = []
    span_map: Dict[Tuple[str, int, int], int] = {}
    tid_map: Dict[Tuple[str, int, int], int] = {}
    next_span = 1
    clock_floor: Dict[int, float] = {}  # merged tid -> last t seen
    for seq, (_, name, pid, record) in enumerate(keyed):
        record = dict(record)
        record["seq"] = seq
        record["src"] = name
        record["pid"] = pid
        tkey = (name, pid, record.get("tid", 0))
        tid = tid_map.get(tkey)
        if tid is None:
            tid = tid_map[tkey] = len(tid_map)
        record["tid"] = tid
        # Clamp per-merged-tid timestamps monotonic: t is relative to
        # each source tracer's birth, so it is only meaningful within a
        # source — which is exactly the per-tid granularity after the
        # tid remap above.
        t = record.get("t", 0.0)
        floor = clock_floor.get(tid, 0.0)
        if t < floor:
            t = record["t"] = floor
        clock_floor[tid] = t
        for field in ("span", "parent"):
            if field in record:
                skey = (name, pid, record[field])
                mapped = span_map.get(skey)
                if mapped is None:
                    mapped = span_map[skey] = next_span
                    next_span += 1
                record[field] = mapped
        out.append(record)
    return out


# ---------------------------------------------------------------------------
# parent side: sum the absorbed streams' metric snapshots
# ---------------------------------------------------------------------------
def aggregate_metrics(
        snapshots: Iterable[Dict[str, Dict[str, Any]]],
) -> Dict[str, Dict[str, Any]]:
    """Sum counters/histograms and last-write gauges across snapshots.

    ``snapshots`` are the streams' latest metric snapshots in arrival
    order, as :meth:`~repro.obs.trace.Tracer.streams` holds them. Sums
    run across *all* incarnations of a source, so aggregate counters
    are monotonic across a kill+respawn; gauges take the newest
    incarnation's value (the old process no longer has a queue depth).
    """
    out: Dict[str, Dict[str, Any]] = {}
    for snapshot in snapshots:
        for name, snap in snapshot.items():
            merged = out.get(name)
            if merged is None:
                out[name] = json.loads(json.dumps(snap))
                continue
            kind = snap.get("kind")
            if kind == "counter":
                merged["value"] += snap.get("value", 0)
            elif kind == "gauge":
                merged["value"] = snap.get("value", 0)
            elif kind == "histogram":
                _merge_histogram(merged, snap)
    return dict(sorted(out.items()))


def _merge_histogram(into: Dict[str, Any], snap: Dict[str, Any]) -> None:
    into["count"] += snap.get("count", 0)
    into["sum"] = round(into.get("sum", 0.0) + snap.get("sum", 0.0), 9)
    if snap.get("count"):
        into["min"] = min(into.get("min", snap["min"]), snap["min"])
        into["max"] = max(into.get("max", snap["max"]), snap["max"])
        into["mean"] = round(into["sum"] / into["count"], 9) \
            if into["count"] else 0.0
        buckets = into.setdefault("buckets", {})
        for le, count in snap.get("buckets", {}).items():
            buckets[le] = buckets.get(le, 0) + count


# ---------------------------------------------------------------------------
# one job's records out of the absorbed store
# ---------------------------------------------------------------------------
def correlated_trace(tracer: Tracer,
                     key: str) -> Optional[List[Dict[str, Any]]]:
    """One job's absorbed records as one small schema-valid stream.

    ``key`` is a correlation ID, or a bare job id standing for the
    newest of its correlation IDs in ``tracer``'s store. The records
    are merged per process of origin, so the result passes
    ``validate_trace_records`` on its own even where the store's bound
    cut a span in two. None when the store holds nothing of the job.
    """
    job = correlation_job(key)
    with tracer._lock:
        corrs = tracer._by_job.get(job, {})
        if key not in corrs and key == job:
            key = next(reversed(corrs), key)
        entries = list(corrs.get(key, ()))
    if not entries:
        return None
    streams: Dict[Tuple[str, int], List[Dict[str, Any]]] = {}
    for stream, record in entries:
        streams.setdefault(stream, []).append(record)
    return merge_streams(
        [(name, pid, records) for (name, pid), records in streams.items()])


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(\{[^{}]*\})?"
    r" (?:[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)|NaN|[+-]?Inf)"
    r"(?: [0-9]+)?$")


def _metric_name(name: str) -> str:
    """Sanitize an instrument name into a legal Prometheus name."""
    name = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not name or not re.match(r"[a-zA-Z_:]", name[0]):
        name = "_" + name
    return name


def _labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    pairs = []
    for key in sorted(labels):
        value = str(labels[key]).replace("\\", r"\\").replace(
            '"', r'\"').replace("\n", r"\n")
        pairs.append(f'{key}="{value}"')
    return "{" + ",".join(pairs) + "}"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == float("inf"):
            return "+Inf"
        if value == float("-inf"):
            return "-Inf"
        return repr(value)
    return str(value)


def render_prometheus(
        series: Iterable[Tuple[str, Dict[str, str], Dict[str, Any]]],
) -> str:
    """Render ``(name, labels, snapshot)`` series as text exposition.

    Snapshots are the :class:`~repro.obs.metrics.MetricsRegistry` shape
    (``{"kind": "counter"|"gauge"|"histogram", ...}``). Histograms emit
    cumulative ``_bucket{le=...}`` samples plus ``_sum``/``_count``,
    per the exposition format. Series sharing a name are grouped under
    one ``# TYPE`` header; a name seen with two different kinds raises
    ``ValueError`` (that is the collision this layer exists to
    prevent).
    """
    grouped: "OrderedDict[str, List[Tuple[Dict[str, str], Dict[str, Any]]]]" \
        = OrderedDict()
    kinds: Dict[str, str] = {}
    for name, labels, snap in series:
        name = _metric_name(name)
        kind = snap.get("kind", "gauge")
        if kinds.setdefault(name, kind) != kind:
            raise ValueError(f"metric {name!r} exported as both "
                             f"{kinds[name]} and {kind}")
        grouped.setdefault(name, []).append((dict(labels), snap))
    lines: List[str] = []
    for name in sorted(grouped):
        kind = kinds[name]
        prom_kind = {"counter": "counter", "gauge": "gauge",
                     "histogram": "histogram"}[kind]
        lines.append(f"# HELP {name} repro {kind}")
        lines.append(f"# TYPE {name} {prom_kind}")
        for labels, snap in grouped[name]:
            if kind == "histogram":
                cumulative = 0
                buckets = snap.get("buckets", {})
                bounds = sorted((float(le), le) for le in buckets
                                if le != "inf")
                for _, le in bounds:
                    cumulative += buckets[le]
                    sample_labels = dict(labels, le=le)
                    lines.append(f"{name}_bucket{_labels(sample_labels)} "
                                 f"{cumulative}")
                cumulative += buckets.get("inf", 0)
                lines.append(f"{name}_bucket"
                             f"{_labels(dict(labels, le='+Inf'))} "
                             f"{cumulative}")
                lines.append(f"{name}_sum{_labels(labels)} "
                             f"{_fmt(snap.get('sum', 0.0))}")
                lines.append(f"{name}_count{_labels(labels)} "
                             f"{snap.get('count', 0)}")
            else:
                lines.append(f"{name}{_labels(labels)} "
                             f"{_fmt(snap.get('value', 0))}")
    return "\n".join(lines) + "\n" if lines else ""


def series_from_sources(
        metrics_by_source: Dict[str, Dict[str, Any]],
) -> List[Tuple[str, Dict[str, str], Dict[str, Any]]]:
    """Per-source snapshots → labelled series (``instance`` label).

    A snapshot key of the ``name[instance]`` form (an instanced
    instrument, see :class:`~repro.obs.metrics.MetricsRegistry`) wins
    over the stream's source name (the key up to any ``@pid``) for the
    ``instance`` label. Snapshots that share an instance fold into one
    series with :func:`aggregate_metrics`, in the order of
    ``metrics_by_source``, so no series repeats: the incarnations of a
    respawned shard (counters summed, so they never go backwards, and
    gauges from the newest), and the shards that count into one shared
    store.
    """
    from repro.obs.metrics import split_metric_key
    by_instance: Dict[str, List[Dict[str, Dict[str, Any]]]] = {}
    for source, snapshot in metrics_by_source.items():
        stream = source.split("@", 1)[0]
        per: Dict[str, Dict[str, Dict[str, Any]]] = {}
        for key, snap in snapshot.items():
            name, instance = split_metric_key(key)
            label = snap.get("instance") or instance or stream
            per.setdefault(label, {})[name] = {
                k: v for k, v in snap.items() if k != "instance"}
        for label, snaps in per.items():
            by_instance.setdefault(label, []).append(snaps)
    return [(name, {"instance": label}, snap)
            for label, snaps in sorted(by_instance.items())
            for name, snap in aggregate_metrics(snaps).items()]


def validate_prometheus_text(text: str) -> int:
    """Validate exposition text; returns the sample count or raises.

    A sample whose name and label set already appeared is refused, as
    a Prometheus scrape refuses it.
    """
    samples = 0
    typed: Dict[str, str] = {}
    seen: set = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment: {line!r}")
            if not _NAME_OK.match(parts[2]):
                raise ValueError(f"line {lineno}: bad metric name "
                                 f"{parts[2]!r}")
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                        "counter", "gauge", "histogram", "summary",
                        "untyped"):
                    raise ValueError(f"line {lineno}: bad TYPE: {line!r}")
                if parts[2] in typed:
                    raise ValueError(f"line {lineno}: duplicate TYPE for "
                                     f"{parts[2]!r}")
                typed[parts[2]] = parts[3]
            continue
        match = _SAMPLE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name, labelstr = match.group(1), match.group(2)
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if typed and name not in typed and base not in typed:
            raise ValueError(f"line {lineno}: sample {name!r} has no TYPE")
        pairs = _LABEL_PAIR.findall(labelstr[1:-1]) if labelstr else []
        if labelstr and ",".join(f'{k}="{v}"' for k, v in pairs) \
                != labelstr[1:-1].rstrip(","):
            raise ValueError(
                f"line {lineno}: malformed labels: {labelstr!r}")
        series = (name, tuple(sorted(pairs)))
        if series in seen:
            raise ValueError(f"line {lineno}: repeated series: {line!r}")
        seen.add(series)
        samples += 1
    if not samples:
        raise ValueError("no samples in exposition output")
    return samples


__all__ = [
    "TELEMETRY_VERSION",
    "MAX_BATCH_RECORDS",
    "OBS_SCHEMA",
    "TelemetryShipper",
    "aggregate_metrics",
    "correlation_id",
    "correlation_job",
    "validate_batch",
    "merge_streams",
    "correlated_trace",
    "render_prometheus",
    "series_from_sources",
    "validate_prometheus_text",
]
