"""Append-only write-ahead journal for synthesis jobs.

The journal is the service's single source of truth: every job payload
and every state transition is appended (and flushed) *before* the
in-memory structures change, so a process killed at any instant can be
restarted and replayed into exactly the state it died in — terminal
jobs stay terminal (never re-executed), in-flight and queued jobs come
back as pending work.

**Format** (``repro-service-v1``): JSONL. The first line is a header;
a ``job`` line carries the full payload of one job (spec and options in
their canonical JSON forms, plus the current state when written by a
rotation); a ``state`` line records one transition of a previously
declared job. Appends are flushed per line (``fsync`` optional), so the
only loss a kill can cause is a *truncated final line* — replay detects
and drops it (the transition it recorded simply re-happens). Torn lines
anywhere else mean real corruption and raise :class:`JournalError`.

**Rotation**: the journal grows by one line per transition forever, so
:meth:`Journal.rotate` compacts it — the live state is rewritten as one
``job`` line per job through :func:`repro.io.atomic.atomic_write`
(temp file + ``os.replace`` + fsync), which a crash can never turn
into a half-written journal: readers see the old segment or the new
one, nothing in between.

**Rows**: a terminal job carries its outcome as one flat row, the
shape :func:`spec_row` and :func:`error_row` build and a batch CSV
holds (:data:`CSV_COLUMNS`). The service and ``run_batch`` write the
same rows, so either can read the other's journal.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import JournalError
from repro.io.atomic import atomic_write
from repro.obs.manifest import case_fingerprint

#: Schema tag of the journal format; bump on incompatible change.
JOURNAL_SCHEMA = "repro-service-v1"

#: Job states a journal may record. ``submitted`` and ``pending`` are
#: queued work (pending = waiting on a retry backoff), ``running`` is
#: in-flight; the last three are terminal and never re-executed.
TERMINAL_STATES = ("done", "degraded", "failed")
JOB_STATES = ("submitted", "pending", "running") + TERMINAL_STATES

#: The columns of a job row, in batch CSV order.
CSV_COLUMNS = [
    "case", "fingerprint", "binding", "switch", "modules", "flows",
    "conflicts", "status", "runtime_s", "objective", "length_mm",
    "num_sets", "num_valves", "num_control_inlets", "error",
]


def _case_columns(spec: Any) -> Dict[str, Any]:
    return {
        "case": spec.name,
        "fingerprint": case_fingerprint(spec),
        "binding": spec.binding.value,
        "switch": spec.switch.size_label,
        "modules": len(spec.modules),
        "flows": len(spec.flows),
        "conflicts": len(spec.conflicts),
    }


def spec_row(spec: Any, result: Any) -> Dict[str, Any]:
    """The row of one synthesis run."""
    row = _case_columns(spec)
    row["status"] = result.status.value
    row["runtime_s"] = round(result.runtime, 4)
    if result.status.solved:
        row.update({
            "objective": result.objective,
            "length_mm": round(result.flow_channel_length, 4),
            "num_sets": result.num_flow_sets,
            "num_valves": result.num_valves,
            "num_control_inlets": result.num_control_inlets,
        })
    if result.error:
        row["error"] = result.error
    return row


def error_row(spec: Any, message: str) -> Dict[str, Any]:
    """The row of a spec whose synthesis raised.

    Deliberately runtime-free: wall time of a crash depends on worker
    scheduling, and error rows must be identical between serial and
    parallel runs.
    """
    row = _case_columns(spec)
    row["status"] = "error"
    row["error"] = message
    return row


@dataclass
class JobRecord:
    """The journaled identity and current state of one job."""

    id: str
    spec: Dict[str, Any]
    options: Dict[str, Any]
    state: str = "submitted"
    attempts: int = 0
    row: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    #: Multi-tenant accounting labels (quota admission, shed events,
    #: queue priority). Absent from pre-platform journals; replay
    #: defaults them, so old segments stay readable.
    tenant: Optional[str] = None
    priority: int = 0
    #: Correlation ID (job fingerprint ⊕ submission ordinal) stamped on
    #: every span/event this job produces anywhere in the platform.
    #: Persisted so a replayed job keeps its original identity in the
    #: telemetry stream; absent from pre-telemetry journals.
    corr: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_line(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "type": "job", "id": self.id, "state": self.state,
            "attempts": self.attempts, "submitted_at": self.submitted_at,
            "spec": self.spec, "options": self.options,
        }
        if self.row is not None:
            record["row"] = self.row
        if self.error is not None:
            record["error"] = self.error
        if self.tenant is not None:
            record["tenant"] = self.tenant
        if self.priority:
            record["priority"] = self.priority
        if self.corr is not None:
            record["corr"] = self.corr
        return record

    @classmethod
    def from_line(cls, record: Dict[str, Any]) -> "JobRecord":
        try:
            job = cls(
                id=record["id"], spec=record["spec"],
                options=record.get("options", {}),
                state=record.get("state", "submitted"),
                attempts=int(record.get("attempts", 0)),
                row=record.get("row"), error=record.get("error"),
                submitted_at=float(record.get("submitted_at", 0.0)),
                tenant=record.get("tenant"),
                priority=int(record.get("priority", 0)),
                corr=record.get("corr"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"malformed job record: {exc}") from exc
        if job.state not in JOB_STATES:
            raise JournalError(f"job {job.id}: unknown state {job.state!r}")
        return job


class Journal:
    """One JSONL write-ahead journal file with replay and rotation."""

    def __init__(self, path: Union[str, Path], sync: bool = False,
                 rotate_after: int = 10_000) -> None:
        self.path = Path(path)
        self.sync = sync
        #: Rotate automatically once this many lines have accumulated.
        self.rotate_after = rotate_after
        self.jobs: Dict[str, JobRecord] = {}
        self._fh = None
        self._lines = 0
        #: Whether replay dropped a truncated trailing line (diagnostic).
        self.recovered_truncation = False

    # -- lifecycle -------------------------------------------------------
    def open(self) -> "Journal":
        """Replay any existing segment, then open for appending."""
        if self._fh is not None:
            return self
        if self.path.exists():
            self._replay()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")
        if self._lines == 0:
            self._append({"type": "header", "schema": JOURNAL_SCHEMA,
                          "created_unix": round(time.time(), 3)})
        return self

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- replay ----------------------------------------------------------
    def _replay(self) -> None:
        replay = replay_journal(self.path)
        self.jobs = replay.jobs
        self._lines = replay.lines
        self.recovered_truncation = replay.truncated
        if replay.truncated:
            # Cut the torn tail off *before* appending, or the next
            # line would concatenate onto it and corrupt the segment.
            with self.path.open("r+b") as fh:
                fh.truncate(replay.valid_bytes)
        else:
            # A parseable final record missing only its newline (killed
            # between the payload and the terminator) gets one now, so
            # the next append starts on a fresh line.
            raw = self.path.read_bytes()
            if raw and not raw.endswith(b"\n"):
                with self.path.open("ab") as fh:
                    fh.write(b"\n")

    # -- appends ---------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            raise JournalError("journal is not open")
        self._fh.write(json.dumps(record, sort_keys=False) + "\n")
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())
        self._lines += 1

    def record_job(self, job: JobRecord) -> None:
        """Journal a new job's full payload (the WAL write of submit)."""
        self._append(job.to_line())
        self.jobs[job.id] = job

    def record_state(self, job_id: str, state: str, attempts: int,
                     row: Optional[Dict[str, Any]] = None,
                     error: Optional[str] = None) -> None:
        """Journal one state transition, then apply it in memory."""
        if state not in JOB_STATES:
            raise JournalError(f"unknown state {state!r}")
        job = self.jobs.get(job_id)
        if job is None:
            raise JournalError(f"state transition for unknown job {job_id}")
        record: Dict[str, Any] = {
            "type": "state", "id": job_id, "state": state,
            "attempts": attempts, "t": round(time.time(), 3),
        }
        if row is not None:
            record["row"] = row
        if error is not None:
            record["error"] = error
        self._append(record)
        job.state = state
        job.attempts = attempts
        if row is not None:
            job.row = row
        if error is not None:
            job.error = error
        if self._lines >= self.rotate_after:
            self.rotate()

    # -- rotation --------------------------------------------------------
    def rotate(self) -> None:
        """Compact the journal to one ``job`` line per live job.

        Written atomically (temp file + ``os.replace`` + fsync), so a
        crash mid-rotate leaves the previous segment fully intact.
        """
        was_open = self._fh is not None
        if was_open:
            self._fh.close()
            self._fh = None
        with atomic_write(self.path, fsync=True) as fh:
            fh.write(json.dumps({
                "type": "header", "schema": JOURNAL_SCHEMA,
                "created_unix": round(time.time(), 3),
                "rotated": True,
            }) + "\n")
            for job_id in sorted(self.jobs):
                fh.write(json.dumps(self.jobs[job_id].to_line()) + "\n")
        self._lines = 1 + len(self.jobs)
        if was_open:
            self._fh = self.path.open("a", encoding="utf-8")

    # -- queries ---------------------------------------------------------
    def pending(self) -> List[JobRecord]:
        """Jobs replay considers runnable (everything non-terminal)."""
        return [job for job in self.jobs.values() if not job.terminal]

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self.jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts


@dataclass
class ReplayResult:
    """What :func:`replay_journal` recovered from one segment."""

    jobs: Dict[str, JobRecord]
    lines: int
    truncated: bool
    #: File size up to (and including) the last intact newline; a
    #: repairing caller truncates the segment to this many bytes.
    valid_bytes: int


def replay_journal(path: Union[str, Path]) -> ReplayResult:
    """Read one journal segment back into job records.

    A truncated final line — the signature of a crash mid-append — is
    dropped (``truncated=True``); a malformed line anywhere else raises
    :class:`JournalError`.
    """
    path = Path(path)
    jobs: Dict[str, JobRecord] = {}
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    # A complete journal ends with a newline; bytes past the last one
    # are a torn append unless they happen to parse as a full record
    # (a kill between write() and the implicit newline flush).
    cut = raw.rfind(b"\n") + 1
    body, tail = raw[:cut], raw[cut:]
    truncated = bool(tail)
    valid_bytes = cut
    lines = 0
    for lineno, line in enumerate(body.decode("utf-8").split("\n"), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JournalError(f"{path}:{lineno}: not JSON: {exc}") from exc
        _apply(jobs, record, path, lineno)
        lines += 1
    if truncated:
        try:
            record = json.loads(tail.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            record = None  # torn mid-append: drop it, the WAL re-does it
        if record is not None:
            _apply(jobs, record, path, lines + 1)
            lines += 1
            truncated = False
            valid_bytes = len(raw)
    return ReplayResult(jobs, lines, truncated, valid_bytes)


def _apply(jobs: Dict[str, JobRecord], record: Dict[str, Any],
           path: Path, lineno: int) -> None:
    rtype = record.get("type")
    if rtype == "header":
        schema = record.get("schema")
        if schema != JOURNAL_SCHEMA:
            raise JournalError(
                f"{path}:{lineno}: unsupported journal schema {schema!r} "
                f"(this reader understands {JOURNAL_SCHEMA})")
    elif rtype == "job":
        job = JobRecord.from_line(record)
        jobs[job.id] = job
    elif rtype == "state":
        job = jobs.get(record.get("id"))
        if job is None:
            raise JournalError(
                f"{path}:{lineno}: state for undeclared job {record.get('id')!r}")
        state = record.get("state")
        if state not in JOB_STATES:
            raise JournalError(f"{path}:{lineno}: unknown state {state!r}")
        job.state = state
        job.attempts = int(record.get("attempts", job.attempts))
        if "row" in record:
            job.row = record["row"]
        if "error" in record:
            job.error = record["error"]
    else:
        raise JournalError(f"{path}:{lineno}: unknown record type {rtype!r}")


def validate_journal(path: Union[str, Path]) -> Dict[str, int]:
    """Schema-check one journal; returns the job-state counts.

    Used by the chaos tests and CI: replays the file with full strict
    checks and additionally asserts that no terminal job ever recorded
    a second terminal transition (exactly-once completion).
    """
    path = Path(path)
    terminal_seen: Dict[str, int] = {}
    jobs: Dict[str, JobRecord] = {}
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JournalError(f"{path}:{lineno}: not JSON: {exc}") from exc
        _apply(jobs, record, path, lineno)
        if record.get("type") == "state" and \
                record.get("state") in TERMINAL_STATES:
            job_id = record["id"]
            terminal_seen[job_id] = terminal_seen.get(job_id, 0) + 1
            if terminal_seen[job_id] > 1:
                raise JournalError(
                    f"{path}:{lineno}: job {job_id} completed twice")
    counts: Dict[str, int] = {}
    for job in jobs.values():
        counts[job.state] = counts.get(job.state, 0) + 1
    return counts


__all__ = ["JOURNAL_SCHEMA", "JOB_STATES", "TERMINAL_STATES", "CSV_COLUMNS",
           "JobRecord", "Journal", "error_row", "replay_journal", "spec_row",
           "validate_journal"]
