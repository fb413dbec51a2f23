"""Observability: spans, solver event streams, metrics, run manifests.

``repro.obs`` is the always-on-cheap telemetry layer (schema
``repro-obs-v1``, see docs/observability.md). Install a
:class:`Tracer` and every pipeline phase becomes a span, the solver
internals emit ``incumbent`` / ``bound`` / ``cut_round`` / ``deadline``
events, and metrics accumulate in a registry — all exportable as JSONL,
Chrome ``trace_event`` JSON (Perfetto-loadable) or a text summary, each
stamped with a reproducibility manifest::

    from repro.obs import Tracer, run_manifest, use_tracer, write_trace_jsonl

    tracer = Tracer("demo")
    with use_tracer(tracer):
        result = synthesize(spec, options)
    write_trace_jsonl(tracer, "trace.jsonl",
                      manifest=run_manifest(spec, options))

With no tracer installed every instrumentation site is a context
lookup and an ``is None`` check — disabled tracing costs nothing
measurable.
"""

from repro.obs.export import (
    TraceData,
    chrome_trace_events,
    format_comparison,
    format_summary,
    read_trace_jsonl,
    validate_chrome_trace,
    validate_trace_records,
    write_chrome_trace,
    write_trace_jsonl,
)
from repro.obs.manifest import (
    case_fingerprint,
    config_fingerprint,
    git_describe,
    run_manifest,
    save_manifest,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.telemetry import (
    TelemetryShipper,
    aggregate_metrics,
    correlated_trace,
    correlation_id,
    correlation_job,
    merge_streams,
    render_prometheus,
    series_from_sources,
    validate_batch,
    validate_prometheus_text,
)
from repro.obs.timeline import ascii_timeline, incumbent_trajectory, timeline_points
from repro.obs.trace import (
    KNOWN_EVENTS,
    OBS_SCHEMA,
    Tracer,
    correlate,
    current_correlation,
    current_tracer,
    obs_event,
    obs_span,
    use_tracer,
)

__all__ = [
    "OBS_SCHEMA",
    "KNOWN_EVENTS",
    "Tracer",
    "current_tracer",
    "use_tracer",
    "obs_event",
    "obs_span",
    "correlate",
    "current_correlation",
    "TelemetryShipper",
    "aggregate_metrics",
    "correlated_trace",
    "correlation_id",
    "correlation_job",
    "merge_streams",
    "validate_batch",
    "render_prometheus",
    "series_from_sources",
    "validate_prometheus_text",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceData",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "write_chrome_trace",
    "chrome_trace_events",
    "validate_trace_records",
    "validate_chrome_trace",
    "format_summary",
    "format_comparison",
    "run_manifest",
    "save_manifest",
    "config_fingerprint",
    "case_fingerprint",
    "git_describe",
    "ascii_timeline",
    "incumbent_trajectory",
    "timeline_points",
]
