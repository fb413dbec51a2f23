"""Stdlib HTTP/JSON front-end for the sharded synthesis platform.

One small, dependency-free network surface over a
:class:`~repro.service.coordinator.ShardCoordinator` — enough for a
cluster of solver boxes behind a load balancer, a CI smoke test, or
``repro submit --url`` from a laptop, without pulling a web framework
into a reproduction repo:

========================  ============================================
``POST /jobs``            body ``{"spec": {...}, "options"?: {...},
                          "tenant"?: str, "priority"?: int}`` →
                          ``202`` + job JSON (accepted / already in
                          flight), ``200`` when the job is already
                          terminal (idempotent resubmission or a
                          store-dedup admission hit), ``400`` malformed,
                          ``429`` shed (queue full / tenant quota),
                          ``503`` shard unavailable.
``GET /jobs/<id>``        ``200`` + job JSON, ``404`` unknown.
                          ``?wait=SECONDS`` long-polls until the job is
                          terminal or the wait (capped at
                          ``MAX_WAIT``) expires — the response is the
                          job's state either way; callers re-poll.
``GET /jobs/<id>/trace``  ``200`` + the job's trace
                          (``{"job", "records": [...]}``, a standalone
                          schema-valid ``repro-obs-v1`` stream), ``404``
                          when the job was never seen or its records
                          have aged out of the coordinator's bounded
                          telemetry store.
``GET /health``           ``200`` when every shard is live+ready,
                          else ``503``; body is the rolled-up dict.
``GET /stats``            ``200`` + aggregated coordinator stats
                          (queue depth high-water, latency histograms,
                          telemetry plane counters).
``GET /metrics``          ``200`` + Prometheus text exposition of every
                          stream's metrics (per-shard ``instance``
                          labels) plus platform rollups with per-tenant
                          and per-state labels.
========================  ============================================

Requests are served by :class:`ThreadingHTTPServer` — one thread per
connection, which is fine because handlers only do pipe RPCs and block
on the coordinator's completion condition; the coordinator's per-shard
locks serialize actual shard traffic. Long-polling happens here
(coordinator ``wait``, woken by the line the shard pushes when the job
finishes), never inside a shard, so a slow client cannot stall a
shard's RPC loop.
"""

from __future__ import annotations

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import AdmissionError, ReproError
from repro.service.coordinator import ShardCoordinator, ShardError

#: Per-request cap on ``?wait=`` long-polls, so a client cannot pin a
#: handler thread forever; clients needing longer just poll again.
MAX_WAIT = 30.0
#: Refuse request bodies larger than this (a spec is a few KB).
MAX_BODY = 4 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the coordinator attached to the server."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------
    @property
    def coordinator(self) -> ShardCoordinator:
        return self.server.coordinator  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        pass  # obs events carry the signal; stderr chatter does not

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):
            self.wfile.write(body)

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; version=0.0.4") -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):
            self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> Optional[Dict[str, Any]]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._error(400, "bad Content-Length")
            return None
        if length <= 0 or length > MAX_BODY:
            self._error(400, f"body required, at most {MAX_BODY} bytes")
            return None
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(payload, dict):
            self._error(400, "body must be a JSON object")
            return None
        return payload

    def _route(self) -> Tuple[str, Dict[str, Any]]:
        parts = urlsplit(self.path)
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        return parts.path.rstrip("/") or "/", query

    def _metrics_text(self) -> str:
        """Prometheus exposition: per-stream series + platform rollups."""
        from repro.obs.telemetry import render_prometheus, series_from_sources

        coordinator = self.coordinator
        series = series_from_sources(coordinator.metrics_snapshot())
        stats = coordinator.stats()
        for state, count in sorted(stats.get("jobs", {}).items()):
            series.append(("platform_jobs", {"state": state},
                           {"kind": "gauge", "value": count}))
        for tenant, per in sorted(stats.get("tenants", {}).items()):
            for state, count in sorted(per.items()):
                series.append(("platform_tenant_jobs",
                               {"tenant": tenant, "state": state},
                               {"kind": "gauge", "value": count}))
        for name, kind in (("queue_depth", "gauge"), ("in_flight", "gauge"),
                           ("queue_depth_max", "gauge"), ("shed", "counter"),
                           ("restarts", "counter"),
                           ("worker_crashes", "counter")):
            series.append((f"platform_{name}", {},
                           {"kind": kind, "value": stats.get(name, 0)}))
        for name, value in sorted(stats.get("telemetry", {}).items()):
            series.append((f"platform_telemetry_{name}", {},
                           {"kind": "gauge", "value": value}))
        for name, snap in sorted(stats.get("latency", {}).items()):
            series.append((f"platform_{name}", {},
                           dict(snap, kind="histogram")))
        return render_prometheus(series)

    # -- verbs -----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        path, _ = self._route()
        if path.startswith("/jobs/") and path.endswith("/repair"):
            self._post_repair(path[len("/jobs/"):-len("/repair")])
            return
        if path != "/jobs":
            self._error(404, f"no such resource: {path}")
            return
        payload = self._read_body()
        if payload is None:
            return
        spec = payload.get("spec")
        if not isinstance(spec, dict):
            self._error(400, 'body must carry a "spec" object')
            return
        options = payload.get("options")
        if options is not None and not isinstance(options, dict):
            self._error(400, '"options" must be an object when given')
            return
        tenant = payload.get("tenant")
        if tenant is not None and not isinstance(tenant, str):
            self._error(400, '"tenant" must be a string when given')
            return
        try:
            priority = int(payload.get("priority", 0))
        except (TypeError, ValueError):
            self._error(400, '"priority" must be an integer')
            return
        corr = payload.get("corr")
        if corr is not None and not isinstance(corr, str):
            self._error(400, '"corr" must be a string when given')
            return
        try:
            job = self.coordinator.submit(spec, options,
                                          tenant=tenant, priority=priority,
                                          corr=corr)
        except AdmissionError as exc:
            self._send_json(429, {"error": str(exc), "shed": True})
            return
        except ShardError as exc:
            self._error(503, str(exc))
            return
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            self._error(400, f"invalid submission: {exc}")
            return
        from repro.service.journal import TERMINAL_STATES

        status = 200 if job.get("state") in TERMINAL_STATES else 202
        self._send_json(status, job)

    def _post_repair(self, job_id: str) -> None:
        """``POST /jobs/<id>/repair`` — journal a repair of a prior job.

        Body: ``{"faults": [[a, b, kind], ...]}`` using the canonical
        health-mask triples (kinds ``stuck_open``/``stuck_closed``/
        ``blocked_segment``). Dedup follows the normal submission path:
        the same fault set against the same job yields the same repair
        job id, so retries are exactly-once.
        """
        if not job_id or "/" in job_id:
            self._error(404, f"no such resource: /jobs/{job_id}/repair")
            return
        payload = self._read_body()
        if payload is None:
            return
        faults = payload.get("faults")
        if not isinstance(faults, list) or not faults:
            self._error(400, 'body must carry a non-empty "faults" array')
            return
        try:
            job = self.coordinator.submit_repair(job_id, faults)
        except KeyError:
            self._error(404, f"unknown job {job_id}")
            return
        except AdmissionError as exc:
            self._send_json(429, {"error": str(exc), "shed": True})
            return
        except ShardError as exc:
            self._error(503, str(exc))
            return
        except (ReproError, TypeError, ValueError) as exc:
            self._error(400, f"invalid repair request: {exc}")
            return
        from repro.service.journal import TERMINAL_STATES

        status = 200 if job.get("state") in TERMINAL_STATES else 202
        self._send_json(status, job)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path, query = self._route()
        if path == "/health":
            health = self.coordinator.health()
            self._send_json(200 if health.get("ok") else 503, health)
            return
        if path == "/stats":
            self._send_json(200, self.coordinator.stats())
            return
        if path == "/metrics":
            try:
                self._send_text(200, self._metrics_text())
            except ShardError as exc:
                self._error(503, str(exc))
            return
        if path.startswith("/jobs/") and path.endswith("/trace"):
            job_id = path[len("/jobs/"):-len("/trace")]
            if not job_id or "/" in job_id:
                self._error(404, f"no such resource: {path}")
                return
            try:
                records = self.coordinator.job_trace(job_id)
            except KeyError:
                self._error(404, f"no retained trace for job {job_id}")
                return
            except ShardError as exc:
                self._error(503, str(exc))
                return
            self._send_json(200, {"job": job_id, "records": records})
            return
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            if not job_id or "/" in job_id:
                self._error(404, f"no such resource: {path}")
                return
            wait = 0.0
            if "wait" in query:
                try:
                    wait = min(max(0.0, float(query["wait"])), MAX_WAIT)
                except ValueError:
                    self._error(400, '"wait" must be a number of seconds')
                    return
            try:
                if wait > 0:
                    job = self.coordinator.wait(job_id, timeout=wait)
                else:
                    job = self.coordinator.job(job_id)
            except KeyError:
                self._error(404, f"unknown job {job_id}")
                return
            except ShardError as exc:
                self._error(503, str(exc))
                return
            self._send_json(200, job)
            return
        self._error(404, f"no such resource: {path}")


class ServiceHTTPServer:
    """A coordinator bound to a listening socket, served from a thread.

    ``port=0`` binds an ephemeral port; read the bound one back from
    :attr:`port` (the CLI prints it so scripts can scrape it). The
    server owns only the socket and handler threads — coordinator
    lifecycle (start/stop/drain) stays with the caller, so a test can
    keep shards alive across a server restart.
    """

    def __init__(self, coordinator: ShardCoordinator,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.coordinator = coordinator
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.coordinator = coordinator  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceHTTPServer":
        """Serve in a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
                name="repro-http", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and join the serving thread (idempotent)."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "ServiceHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


# -- client ----------------------------------------------------------------

class HTTPServiceError(ReproError):
    """A platform HTTP call failed; carries the response status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _request(method: str, url: str,
             body: Optional[Dict[str, Any]] = None,
             timeout: float = 60.0) -> Tuple[int, Dict[str, Any]]:
    """One JSON request/response against the platform (stdlib only)."""
    import urllib.error
    import urllib.request

    data = None
    headers = {"Accept": "application/json"}
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers,
                                     method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        try:
            payload = json.loads(exc.read() or b"{}")
        except (json.JSONDecodeError, UnicodeDecodeError):
            payload = {"error": str(exc)}
        return exc.code, payload


def submit_job(base_url: str, spec_dict: Dict[str, Any],
               options_dict: Optional[Dict[str, Any]] = None, *,
               tenant: Optional[str] = None, priority: int = 0,
               timeout: float = 60.0) -> Dict[str, Any]:
    """POST a submission; returns the job JSON or raises
    :class:`HTTPServiceError` (status 429 = shed, 400 = malformed)."""
    body: Dict[str, Any] = {"spec": spec_dict, "priority": priority}
    if options_dict:
        body["options"] = options_dict
    if tenant is not None:
        body["tenant"] = tenant
    status, payload = _request(
        "POST", f"{base_url.rstrip('/')}/jobs", body, timeout=timeout)
    if status not in (200, 202):
        raise HTTPServiceError(
            status, payload.get("error", f"submit failed ({status})"))
    return payload


def submit_repair(base_url: str, job_id: str, faults: Any, *,
                  timeout: float = 60.0) -> Dict[str, Any]:
    """POST a repair of ``job_id`` with fault triples ``[[a, b, kind]]``;
    returns the repair job JSON or raises :class:`HTTPServiceError`."""
    triples = [list(t) for t in faults]
    status, payload = _request(
        "POST", f"{base_url.rstrip('/')}/jobs/{job_id}/repair",
        {"faults": triples}, timeout=timeout)
    if status not in (200, 202):
        raise HTTPServiceError(
            status, payload.get("error", f"repair failed ({status})"))
    return payload


def fetch_job(base_url: str, job_id: str, *,
              wait: Optional[float] = None,
              timeout: float = 60.0) -> Dict[str, Any]:
    """GET one job, optionally long-polling ``wait`` seconds server-side."""
    url = f"{base_url.rstrip('/')}/jobs/{job_id}"
    if wait is not None:
        url += f"?wait={min(wait, MAX_WAIT)}"
    status, payload = _request("GET", url, timeout=timeout + MAX_WAIT)
    if status != 200:
        raise HTTPServiceError(
            status, payload.get("error", f"fetch failed ({status})"))
    return payload


def fetch_metrics(base_url: str, *, timeout: float = 60.0) -> str:
    """GET ``/metrics``; returns the raw Prometheus exposition text."""
    import urllib.error
    import urllib.request

    url = f"{base_url.rstrip('/')}/metrics"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        raise HTTPServiceError(exc.code, f"metrics failed ({exc.code})") \
            from exc


def fetch_trace(base_url: str, job_id: str, *,
                timeout: float = 60.0) -> Dict[str, Any]:
    """GET a job's trace (``{"job", "records"}``)."""
    status, payload = _request(
        "GET", f"{base_url.rstrip('/')}/jobs/{job_id}/trace",
        timeout=timeout)
    if status != 200:
        raise HTTPServiceError(
            status, payload.get("error", f"trace failed ({status})"))
    return payload


def wait_job(base_url: str, job_id: str, *,
             timeout: Optional[float] = None) -> Dict[str, Any]:
    """Long-poll (re-polling past the server's per-request cap) until
    the job is terminal or ``timeout`` elapses; returns its last JSON."""
    import time as _time

    from repro.service.journal import TERMINAL_STATES

    deadline = None if timeout is None else _time.monotonic() + timeout
    while True:
        remaining = MAX_WAIT if deadline is None \
            else min(MAX_WAIT, deadline - _time.monotonic())
        job = fetch_job(base_url, job_id, wait=max(0.0, remaining))
        if job.get("state") in TERMINAL_STATES:
            return job
        if deadline is not None and _time.monotonic() >= deadline:
            return job


__all__ = ["MAX_WAIT", "MAX_BODY", "ServiceHTTPServer", "HTTPServiceError",
           "submit_job", "submit_repair", "fetch_job", "fetch_metrics",
           "fetch_trace", "wait_job"]
