"""Live campaign telemetry: a zero-dependency HTTP scrape service.

Three endpoints, all derived from state the campaign already maintains:

``/metrics``
    The campaign's metrics in the Prometheus textfile exposition
    format - the same bytes ``campaign run --metrics`` writes at exit,
    scrapeable mid-run.
``/status``
    JSON per-(app, region) tallies with Cochran CI half-widths - the
    same rows as ``campaign status --json``, but folded incrementally
    from live trial results (or streamed from a store), never by
    loading a full store.
``/progress``
    Trials done/planned, throughput, and ETA.

Two sources can sit behind the endpoints:

* :class:`TelemetryHub` - a :class:`~repro.engine.progress.TrialSink`
  of a running campaign engine and the campaign's one metrics fold:
  ``/metrics``, ``--metrics FILE``, artifact flushes and ``trace run
  --metrics-out`` all read :meth:`TelemetryHub.metrics_text` or
  :meth:`TelemetryHub.metrics_snapshot`.  The hub folds every finished
  trial under its lock; readers copy state under that lock and compose
  and render *outside* it, so a slow scraper can never stall trial
  dispatch (each request also runs on its own daemon thread - the
  server applies backpressure to clients, not to the campaign).
* :class:`StoreTelemetry` - ``python -m repro serve --store X``: a hub
  fed by following an append-only result store *incrementally* (only
  bytes appended since the previous scrape are parsed), so serving a
  million-trial store needs memory for the summary fold, not the
  store.

A :class:`TelemetryServer` passes every other request to its
``routes``, when given: ``campaign run --distribute`` serves its lease
executor's coordination routes
(:meth:`~repro.engine.coordination.LeaseExecutor.route`) this way.

Everything is stdlib: :mod:`http.server` + :mod:`threading`.  The HTTP
half is imported only when a :class:`TelemetryServer` is built, so a
campaign that only writes ``--metrics`` never loads it.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

from repro.engine.progress import TrialSink
from repro.engine.store import StoreSummary, open_store
from repro.observability.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    render_prometheus,
)

#: Version stamped into every ``/status`` and ``/progress`` payload.
SERVE_SCHEMA_VERSION = 1

#: The host a bare ``PORT`` endpoint binds.
LOOPBACK = "127.0.0.1"


def parse_endpoint(text: str) -> tuple[str, int]:
    """``[HOST:]PORT`` -> ``(host, port)``; bare port binds loopback."""
    host, sep, port_text = text.rpartition(":")
    if not sep:
        port_text = text
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad serve endpoint {text!r}; expected [HOST:]PORT")
    if not 0 <= port <= 65535:
        raise ValueError(f"serve port out of range: {port}")
    return host or LOOPBACK, port


def serve_endpoint(telemetry, endpoint: str, routes=None) -> "TelemetryServer":
    """Parse ``[HOST:]PORT``, bind a :class:`TelemetryServer` to it and
    start serving.

    The one parse-and-bind home shared by ``campaign run --serve``
    (telemetry, plus the lease executor's ``routes`` under
    ``--distribute``) and ``python -m repro serve``; raises
    :class:`ValueError` for a malformed endpoint (the CLIs report it
    and exit 2) and lets :class:`OSError` from a busy port propagate.
    """
    host, port = parse_endpoint(endpoint)
    return TelemetryServer(telemetry, host, port, routes).start()


class TelemetryHub(TrialSink):
    """Thread-safe live telemetry state, and the metrics, of one
    campaign.

    Two folds make up the campaign's metrics.  :attr:`summary` (a
    :class:`~repro.engine.store.StoreSummary`) counts every trial, and
    :meth:`~repro.engine.store.StoreSummary.fill_registry` derives the
    campaign families from it (trials done and errors, outcomes, pruned
    trials, error latencies).  :attr:`registry` merges each executed
    trial's worker-side snapshot (VM, channel, injection and detector
    families) and holds the progress families.  :attr:`lock` is the
    registry's lock and guards both; readers take it just long enough
    to copy and do all composing and rendering outside it.
    """

    reads = frozenset({"metrics"})

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.lock = self.registry.lock
        self.summary = StoreSummary()
        self.started = time.monotonic()
        #: ``(app, region) -> planned trials`` (``None`` = open-ended).
        self._planned: dict[tuple[str, str], int | None] = {}

    # -- sink side ----------------------------------------------------
    def region_start(self, app: str, region: str, planned: int | None) -> None:
        with self.lock:
            self._planned[(app, region)] = planned

    def trial(self, result) -> None:
        with self.lock:
            self.summary.add(result)
            if result.metrics is not None:
                self.registry.merge(result.metrics)

    def progress(self, event) -> None:
        labels = {"app": event.app, "region": event.region}
        with self.lock:
            self.registry.gauge("repro_campaign_achieved_d", **labels).set(
                event.achieved_d
            )
            self.registry.counter(
                "repro_campaign_progress_events_total", **labels
            ).inc()

    # -- reader-side payloads -----------------------------------------
    def refresh(self) -> None:
        """Bring the state up to date before a read; the engine pushes
        into a live hub, so there is nothing to pull."""

    def _payload(self, **fields) -> dict:
        return {"schema_version": SERVE_SCHEMA_VERSION, **fields}

    def metrics_snapshot(self) -> MetricsSnapshot:
        """The registry composed with the summary's campaign families."""
        self.refresh()
        campaign = MetricsRegistry()
        with self.lock:
            snapshot = self.registry.snapshot()
            self.summary.fill_registry(campaign)
        return snapshot.merge(campaign.snapshot())

    def metrics_text(self) -> str:
        return render_prometheus(self.metrics_snapshot())

    def status_payload(self) -> dict:
        self.refresh()
        with self.lock:
            rows = self.summary.rows()
        return self._payload(regions=[row.to_json() for row in rows])

    def progress_payload(self) -> dict:
        self.refresh()
        with self.lock:
            done = self.summary.trials
            errors = self.summary.errors
            planned = dict(self._planned)
            elapsed = time.monotonic() - self.started
        total: int | None = None
        if planned and all(n is not None for n in planned.values()):
            total = sum(planned.values())
        throughput = done / elapsed if elapsed > 0 else 0.0
        eta = None
        if total is not None and throughput > 0 and total > done:
            eta = (total - done) / throughput
        return self._payload(
            trials_done=done,
            trials_planned=total,
            errors=errors,
            elapsed_seconds=elapsed,
            throughput_trials_per_second=throughput,
            eta_seconds=eta,
            regions=[
                {"app": app, "region": region, "planned": n}
                for (app, region), n in sorted(planned.items())
            ],
        )


class StoreTelemetry(TelemetryHub):
    """Store-backed telemetry source: the standalone ``serve`` mode.

    A hub fed by a result store of either backend, followed
    incrementally through the store's follower: each refresh hands the
    hub only the trials stored since the last one, once per key.  A
    follower-reported reset (the store was rewritten) restarts the fold
    from zero.  No region announces a plan, so ``/progress`` reports no
    total, and ``/metrics`` holds the campaign families only.
    """

    def __init__(self, path) -> None:
        store = open_store(path)
        super().__init__()
        self.path = Path(store.path)
        self._follower = store.follower()
        self._seen: set[str] = set()
        store.close()

    def refresh(self) -> None:
        with self.lock:
            results, reset = self._follower.poll()
            if reset:
                self._seen.clear()
                self.summary = StoreSummary()
            for result in results:
                if result.key not in self._seen:
                    self._seen.add(result.key)
                    self.trial(result)

    def _payload(self, **fields) -> dict:
        return super()._payload(store=str(self.path), **fields)


_INDEX = (
    "repro campaign telemetry\n"
    "  /metrics   Prometheus textfile exposition\n"
    "  /status    per-region tallies + Cochran half-widths (JSON)\n"
    "  /progress  trials done/planned, throughput, ETA (JSON)\n"
)


def _json(payload: dict) -> tuple[bytes, str]:
    body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return body.encode(), "application/json"


class _Handler:
    """One request: the routes of a request handler that
    :class:`TelemetryServer` mixes into
    :class:`http.server.BaseHTTPRequestHandler` and binds ``telemetry``
    and ``routes`` on.

    ``telemetry`` answers the three scrape endpoints.  ``routes``, when
    set, answers every other request: ``routes(method, path, body)``
    returns a JSON-ready reply, or ``None`` for a route it does not
    serve (404).  A distributed campaign's lease executor serves
    ``/manifest``, ``/work``, ``/lease`` and ``/submit`` this way.
    """

    telemetry: TelemetryHub | StoreTelemetry
    routes = None

    def _answer(self, method: str) -> tuple[bytes, str] | None:
        """This request's ``(body, content type)``, or ``None``."""
        path = self.path.split("?", 1)[0]
        body = b""
        if method == "GET":
            if path == "/metrics":
                text = self.telemetry.metrics_text()
                return text.encode(), "text/plain; version=0.0.4; charset=utf-8"
            if path == "/status":
                return _json(self.telemetry.status_payload())
            if path == "/progress":
                return _json(self.telemetry.progress_payload())
            if path == "/":
                return _INDEX.encode(), "text/plain; charset=utf-8"
        else:
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b""
        reply = self.routes(method, path, body) if self.routes else None
        return None if reply is None else _json(reply)

    def _handle(self, method: str) -> None:
        try:
            hit = self._answer(method)
        except Exception as exc:  # a failed request must not kill the thread
            self.send_error(500, str(exc) or type(exc).__name__)
            return
        if hit is None:
            self.send_error(404, "unknown endpoint")
            return
        body, ctype = hit
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._handle("POST")

    def log_message(self, *_args) -> None:
        """Scrapes are routine; keep the campaign's stderr clean."""


class TelemetryServer:
    """A threaded HTTP server bound to one telemetry source, plus the
    ``routes`` that answer every other request (see :class:`_Handler`).

    ``port=0`` binds an ephemeral port (tests); :attr:`port` and
    :attr:`url` report the bound address.  ``start`` serves from a
    daemon thread; ``stop`` shuts the listener down and joins it.
    """

    def __init__(
        self,
        telemetry: TelemetryHub | StoreTelemetry,
        host: str = LOOPBACK,
        port: int = 0,
        routes=None,
    ) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        self.telemetry = telemetry
        handler = type(
            "BoundHandler",
            (_Handler, BaseHTTPRequestHandler),
            {"telemetry": telemetry, "routes": routes and staticmethod(routes)},
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TelemetryServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-telemetry",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
