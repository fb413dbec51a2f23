"""Batch sweeps with CSV export.

For larger studies than the paper's tables: run a grid of artificial
cases (or any list of specs), collect one row per run, and write a CSV
that survives the session — the raw material for scaling plots and
statistical summaries.

Sweeps are embarrassingly parallel (each spec is an independent MILP),
so :func:`run_batch` takes ``workers=N`` to run N specs at a time on
threads. The threads share the GIL: they overlap solver-bound specs
but not Python-bound ones (docs/performance.md). Rows come back in
spec order regardless of which worker finishes first, so a parallel
sweep writes a CSV identical to the serial one (see
``tests/test_determinism.py``).

Every spec gets one attempt: a spec whose synthesis raises produces a
``status="error"`` row (exception text in the ``error`` column) instead
of sinking every other row with it, and a run out of time is its
``timeout`` row. ``journal=`` records each run as a job of a
``repro-service-v1`` write-ahead journal (:mod:`repro.service.journal`)
under the service's job id, :func:`~repro.service.service.job_id_for`.
A re-run on the same journal reuses the row of every job the journal
holds as terminal and runs the rest, so a batch interrupted or killed
mid-run resumes where it stopped, and a batch whose options changed
runs every spec again.
"""

from __future__ import annotations

import csv
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.spec import SwitchSpec
from repro.core.synthesizer import (
    SynthesisOptions,
    SynthesisResult,
    publish_metrics,
    synthesize,
)
from repro.errors import ReproError, SpecError
from repro.io.spec_json import spec_to_dict
from repro.obs.trace import (
    Tracer,
    correlate,
    current_tracer,
    obs_event,
    use_tracer,
)
from repro.service.journal import (
    CSV_COLUMNS,
    JobRecord,
    Journal,
    error_row,
    spec_row,
)
from repro.service.service import job_id_for, options_to_dict

Outcome = Tuple[Dict[str, object], Optional[SynthesisResult]]

#: Numbers the batches of this process, so two batches that run the
#: same job on one tracer still stamp it with different correlation IDs.
_batch_numbers = itertools.count(1)


@dataclass
class BatchResult:
    """All rows of one batch run."""

    rows: List[Dict[str, object]] = field(default_factory=list)
    started_at: float = field(default_factory=time.time)

    @property
    def solved(self) -> int:
        return sum(1 for r in self.rows if r["status"] in ("optimal", "feasible"))

    @property
    def errors(self) -> int:
        """Rows whose synthesis crashed (captured, not propagated)."""
        return sum(1 for r in self.rows if r["status"] == "error")

    @property
    def failed(self) -> int:
        return len(self.rows) - self.solved

    def summary(self) -> str:
        text = f"{len(self.rows)} runs: {self.solved} solved, {self.failed} not"
        if self.errors:
            text += f" ({self.errors} crashed)"
        return text

    def to_csv(self, path: Union[str, Path]) -> Path:
        from repro.io.atomic import atomic_write

        path = Path(path)
        with atomic_write(path, newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: row.get(k) for k in CSV_COLUMNS})
        return path

    def group_mean(self, key: str, value: str) -> Dict[object, float]:
        """Mean of a numeric column per value of a grouping column."""
        groups: Dict[object, List[float]] = {}
        for row in self.rows:
            v = row.get(value)
            if v is None or v == "":
                continue
            groups.setdefault(row.get(key), []).append(float(v))
        return {k: sum(vals) / len(vals) for k, vals in groups.items()}


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_one(spec: SwitchSpec, options: SynthesisOptions) -> Outcome:
    """One attempt at one spec: its row, and its result unless it raised.

    The exception is caught here, so one crashing spec cannot sink the
    batch and its error row is the same at every worker count.
    """
    try:
        result = synthesize(spec, options)
    except Exception as exc:
        return error_row(spec, _describe(exc)), None
    return spec_row(spec, result), result


def _job_state(row: Dict[str, object],
               result: Optional[SynthesisResult]) -> str:
    """The terminal journal state of one batch row."""
    if row["status"] == "error":
        return "failed"
    if result is not None and result.counters.get("degraded"):
        return "degraded"
    return "done"


class _BatchJournal:
    """A batch's jobs in its journal, appended to from worker threads.

    :class:`Journal` is not thread-safe, so every append holds one lock.
    """

    def __init__(self, path: Union[str, Path],
                 options: SynthesisOptions) -> None:
        self.journal = Journal(path).open()
        self.options = options_to_dict(options)
        self.lock = threading.Lock()

    def rows(self) -> Dict[str, Dict[str, object]]:
        """Job id -> row of every job the journal holds as terminal."""
        return {job.id: job.row for job in self.journal.jobs.values()
                if job.terminal and job.row is not None}

    def declare(self, job_id: str, spec: SwitchSpec, corr: str) -> None:
        with self.lock:
            if job_id not in self.journal.jobs:
                self.journal.record_job(JobRecord(
                    job_id, spec_to_dict(spec), self.options, corr=corr))

    def record(self, job_id: str, state: str,
               row: Optional[Dict[str, object]] = None) -> None:
        with self.lock:
            attempts = self.journal.jobs[job_id].attempts
            if state == "running":
                attempts += 1
            self.journal.record_state(
                job_id, state, attempts, row=row,
                error=None if row is None else row.get("error"))

    def close(self) -> None:
        with self.lock:
            self.journal.close()


def run_batch(
    specs: Iterable[SwitchSpec],
    options: Optional[SynthesisOptions] = None,
    on_result: Optional[Callable] = None,
    workers: int = 1,
    journal: Optional[Union[str, Path]] = None,
    trace_dir: Optional[Union[str, Path]] = None,
    on_progress: Optional[Callable] = None,
    service=None,
    store=None,
) -> BatchResult:
    """Synthesize every spec and collect one CSV row per run.

    With ``workers > 1`` up to that many specs run at once on threads;
    rows (and ``on_result`` / ``on_progress`` callbacks) are still
    delivered in spec order, so results are independent of worker
    scheduling.

    Each spec gets one attempt. A spec that raises contributes a
    ``status="error"`` row instead of aborting the batch; ``on_result``
    is not invoked for such rows (there is no result to pass).

    ``journal`` is the path of a ``repro-service-v1`` journal that
    records every spec as a job under
    :func:`~repro.service.service.job_id_for`, its row journaled the
    moment it is final. A re-run on that journal reuses
    the rows of the jobs it holds as terminal — without calling
    ``on_result`` for them — and runs the rest, so the rows, and the
    CSV, equal those of an uninterrupted run apart from ``runtime_s``.
    The job id covers the options, so a re-run with other options runs
    every spec again. Specs with the same job id run once per journaled
    batch. A ``KeyboardInterrupt`` cancels the specs not yet started and
    waits for those in flight on worker threads (with one worker, the
    spec runs on the calling thread and the interrupt stops it), so
    every row emitted so far is journaled and a re-run completes the
    rest.

    ``service`` delegates execution to a started
    :class:`repro.service.SynthesisService` instead of running here:
    every spec is submitted (idempotently — a journaled completion from
    a previous run is reused, not recomputed) and the batch blocks
    until each job reaches a terminal state. A spec the service refuses
    as malformed becomes its error row. Workers, retries and circuit
    breakers then follow the service's configuration; ``workers`` and
    ``trace_dir`` are ignored, and the service keeps its own journal,
    so ``journal`` must be None.

    Observability: the batch's tracer is ``options.trace`` or else the
    installed one; it is installed for the whole batch, so the worker
    threads record into it, each spec under its own correlation ID.
    ``trace_dir`` cuts each executed spec's records out of that tracer
    (a fresh one when none is installed) into a JSONL trace artifact
    ``NNNN_<case>.jsonl`` with its manifest (``batch_index`` included)
    and the spec's own ``synthesize`` metrics; its header counts the
    events the tracer's cap dropped while the spec ran.
    With a tracer, the batch also maintains ``batch_queue_depth`` /
    ``batch_rows_done`` gauges and emits one ``batch_row`` event per row.

    ``store`` attaches a persistent :class:`repro.store.Store` to every
    run: repeated sweeps answer already-solved specs from disk (Tier A).
    Rows are identical with or without a store, cold or warm (only
    ``runtime_s`` differs).

    ``on_progress(done, total, row)`` is a live callback fired after
    *every* row (error and reused rows included), in spec order.
    """
    options = options or SynthesisOptions()
    tracer = options.trace if options.trace is not None else current_tracer()
    if tracer is None and trace_dir is not None:
        tracer = Tracer("batch")
    options = replace(options, trace=None,
                      store=options.store if store is None else store)
    spec_list = list(specs)
    total = len(spec_list)
    batch = BatchResult()
    if service is not None:
        if journal is not None:
            raise ReproError("run_batch(service=...) records its jobs in "
                             "the service's journal; pass journal=None")
        outcomes = _run_via_service(spec_list, options, service)
    else:
        if trace_dir is not None:
            Path(trace_dir).mkdir(parents=True, exist_ok=True)
        outcomes = _run_here(spec_list, options, workers, journal,
                             trace_dir, tracer)

    with use_tracer(tracer), closing(outcomes):
        try:
            for index, (row, result) in enumerate(outcomes):
                batch.rows.append(row)
                if tracer is not None:
                    tracer.metrics.gauge("batch_queue_depth").set(
                        total - len(batch.rows))
                    tracer.metrics.gauge("batch_rows_done").set(
                        len(batch.rows))
                    tracer.event("batch_row", index=index,
                                 case=row.get("case"),
                                 status=row.get("status"))
                if on_progress is not None:
                    on_progress(len(batch.rows), total, row)
                if on_result is not None and result is not None:
                    on_result(spec_list[index], result)
        except KeyboardInterrupt:
            obs_event("interrupt", where="run_batch",
                      done=len(batch.rows), total=total)
            raise
    return batch


def _run_here(spec_list: List[SwitchSpec], options: SynthesisOptions,
              workers: int, journal: Optional[Union[str, Path]],
              trace_dir: Optional[Union[str, Path]],
              tracer: Optional[Tracer]) -> Iterator[Outcome]:
    """Run the specs in this process; yield their outcomes in spec order.

    With one worker each spec runs on the calling thread when its turn
    comes; with more, every spec is handed to a thread pool up front.
    """
    batch_number = next(_batch_numbers)
    ids = [job_id_for(spec, options) for spec in spec_list]
    corrs = [f"{job_id}#{batch_number}.{index}"
             for index, job_id in enumerate(ids)]
    book = _BatchJournal(journal, options) if journal is not None else None
    # job id -> row, for the journaled jobs: terminal ones from the
    # journal, the rest once this batch has run them.
    done = book.rows() if book is not None else {}
    todo = set()
    for index, job_id in enumerate(ids):
        if book is None or job_id not in done:
            todo.add(index)
            if book is not None:
                done[job_id] = None  # later copies wait for this run
                book.declare(job_id, spec_list[index], corrs[index])

    def execute(index: int) -> Outcome:
        spec = spec_list[index]
        if book is not None:
            book.record(ids[index], "running")
        if trace_dir is not None:
            since, dropped = len(tracer), tracer.dropped
        with correlate(corrs[index]):
            row, result = _run_one(spec, options)
        if book is not None:
            book.record(ids[index], _job_state(row, result), row)
        if trace_dir is not None:
            _write_task_trace(tracer, trace_dir, index, spec, options,
                              corrs[index], since,
                              tracer.dropped - dropped, result)
        return row, result

    pool = (ThreadPoolExecutor(max_workers=workers)
            if workers > 1 and len(todo) > 1 else None)
    try:
        futures = {index: pool.submit(execute, index)
                   for index in sorted(todo)} if pool is not None else {}
        for index, job_id in enumerate(ids):
            if index in futures:
                row, result = futures[index].result()
            elif index in todo:
                row, result = execute(index)
            else:
                row, result = dict(done[job_id]), None
            if book is not None and done[job_id] is None:
                done[job_id] = row
            yield row, result
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        if book is not None:
            book.close()


def _write_task_trace(tracer: Tracer, trace_dir: Union[str, Path],
                      index: int, spec: SwitchSpec,
                      options: SynthesisOptions, corr: str, since: int,
                      dropped: int, result: Optional[SynthesisResult]) -> None:
    """Cut one spec's records off the batch's tracer into its own trace
    artifact; never fails the spec itself.

    ``since`` is the tracer's length when the spec started. ``dropped``
    counts the events the tracer's cap dropped while the spec ran; the
    cap holds once reached, so any such drop may be one of this spec's.
    The spec's ``synthesize`` metrics close the artifact.
    """
    from repro.obs import MetricsRegistry, run_manifest, write_trace_jsonl

    try:
        records = tracer.correlated(corr, since)
        begun = {r["span"] for r in records if r["type"] == "span_begin"}
        for i, record in enumerate(records):
            # A spec run on the calling thread hangs its top span on the
            # caller's open span, which is not part of this spec's stream.
            if "parent" in record and record["parent"] not in begun:
                records[i] = {k: v for k, v in record.items()
                              if k != "parent"}
        if result is not None:
            metrics = MetricsRegistry()
            publish_metrics(metrics, result)
            records += [dict(r, corr=corr) for r in metrics.records()]
        path = Path(trace_dir) / f"{index:04d}_{spec.name}.jsonl"
        write_trace_jsonl(records, path,
                          manifest=run_manifest(spec, options,
                                                extra={"batch_index": index}),
                          name=spec.name, dropped=dropped)
    except Exception:
        pass


def _run_via_service(spec_list: List[SwitchSpec], options: SynthesisOptions,
                     service) -> Iterator[Outcome]:
    """Delegate execution to a :class:`repro.service.SynthesisService`.

    Submission is idempotent (keyed by spec/config fingerprints), so a
    batch re-run over a journal-backed service reuses completed jobs
    instead of recomputing them. Rows are yielded in spec order.
    """
    jobs: List[Union[str, Dict[str, object]]] = []
    for spec in spec_list:
        try:
            jobs.append(service.submit(spec, options))
        except SpecError as exc:
            jobs.append(error_row(spec, _describe(exc)))
    for job in jobs:
        if isinstance(job, str):
            job = dict(service.wait(job).row or {})
        yield job, None


def load_csv(path: Union[str, Path]) -> List[Dict[str, str]]:
    """Read a batch CSV back (strings; callers convert as needed)."""
    path = Path(path)
    if not path.exists():
        raise ReproError(f"no batch CSV at {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
