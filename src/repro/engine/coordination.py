"""Distributed campaign coordination: leased trial batches over HTTP.

The campaign engine already has everything a fleet needs *except* the
transport: picklable :class:`~repro.engine.trial.TrialSpec`s, one
deterministic ``execute_trial`` authority, content-hash-keyed stores,
and an order-independent tally fold.  This module adds the coordination
plane on top of the PR 9 telemetry HTTP stack:

* :class:`LeaseBook` - the pure lease state machine.  Batches move
  ``pending -> leased(deadline) -> done``; a lease that outlives its
  deadline is requeued, so a dead or hung worker's batch is eventually
  re-served to a live one.  Time is injected explicitly, which makes
  the machine property-testable under arbitrary interleavings.
* :class:`CampaignCoordinator` - plans every trial spec up front
  (satisfying what it can from the store and the masking oracle, like a
  local run), partitions the rest into batches, folds submitted results
  idempotently by trial key, and finalizes per-region results in trial
  index order - bit-identical to a local ``jobs=N`` run by the same
  determinism argument that makes worker count irrelevant locally.
* :class:`CoordinatorService` - the telemetry facade bound to a
  :class:`~repro.observability.serve.TelemetryServer`: the PR 9 scrape
  endpoints (``/metrics`` ``/status`` ``/progress``) plus ``/manifest``
  (GET, JSON), ``/work`` (GET, JSON lease accounting), ``/lease`` and
  ``/submit`` (POST).
* :class:`WorkerClient` - ``campaign work COORD:PORT``: pulls a batch,
  executes through the one ``execute_trial`` authority (flags inherited
  from the coordinator's manifest), pushes results back as plain JSON.

Wire-format trust is asymmetric by design: workers unpickle lease
payloads from the coordinator they chose to connect to, but the
coordinator never unpickles worker data - submissions are JSON, result
keys are validated against the leased batch, and duplicate keys (a
requeued batch delivered twice) are dropped, so a confused or duplicate
worker cannot corrupt or double-count a tally.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.engine.trial import TrialResult, TrialSpec
from repro.injection.faults import Region

#: Version stamped into the ``/manifest`` and ``/work`` payloads and
#: checked by workers before executing anything.
WORK_SCHEMA_VERSION = 2

#: Default trials per leased batch.
DEFAULT_BATCH_SIZE = 8

#: Default lease deadline in seconds: a batch not acknowledged within
#: this window is requeued for another worker.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Seconds a worker waits between polls when no batch is pending.
DEFAULT_POLL_INTERVAL = 0.5

#: Consecutive connection failures a worker tolerates (the coordinator
#: may not be up yet, or may be briefly unreachable) before giving up.
CONNECT_RETRIES = 40

#: Test hook: a worker sleeps this many seconds after leasing a batch
#: and before executing it.  Lets the chaos suite park a worker
#: mid-batch deterministically, then SIGKILL it.
HOLD_ENV = "REPRO_WORK_HOLD_SECONDS"

PENDING = "pending"
LEASED = "leased"
DONE = "done"


@dataclass
class _Lease:
    state: str = PENDING
    worker: str | None = None
    deadline: float | None = None
    #: Times this batch was granted (first lease plus every regrant).
    grants: int = 0


class LeaseBook:
    """Deadline-leased batch bookkeeping with injected time.

    Guarantees (property-tested in ``tests/props``):

    * a batch is never granted to two workers at once *within* a lease
      window - a regrant happens only after the previous deadline;
    * every batch is eventually grantable while not done (expiry always
      returns it to pending), so no trial is ever lost to a dead
      worker;
    * ``ack`` is idempotent and accepts late acknowledgements from
      presumed-dead workers (their results are valid by determinism;
      the coordinator's key-dedup fold prevents double counting).
    """

    def __init__(
        self, batch_ids: Iterable[int], lease_timeout: float = DEFAULT_LEASE_TIMEOUT
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive: {lease_timeout}")
        self.lease_timeout = lease_timeout
        self._leases: dict[int, _Lease] = {
            bid: _Lease() for bid in sorted(batch_ids)
        }
        #: Leases returned to pending after their deadline passed.
        self.requeues = 0

    # -- state transitions --------------------------------------------
    def expire(self, now: float) -> list[int]:
        """Requeue every lease whose deadline has passed; returns the
        requeued batch ids."""
        requeued = []
        for bid, lease in self._leases.items():
            if lease.state == LEASED and lease.deadline is not None and (
                now >= lease.deadline
            ):
                lease.state = PENDING
                lease.worker = None
                lease.deadline = None
                self.requeues += 1
                requeued.append(bid)
        return requeued

    def lease(self, worker: str, now: float) -> int | None:
        """Grant the lowest pending batch to ``worker``, or ``None``
        when nothing is pending (outstanding leases may still expire
        and become grantable later)."""
        self.expire(now)
        for bid in sorted(self._leases):
            lease = self._leases[bid]
            if lease.state == PENDING:
                lease.state = LEASED
                lease.worker = worker
                lease.deadline = now + self.lease_timeout
                lease.grants += 1
                return bid
        return None

    def ack(self, batch_id: int, now: float) -> bool:
        """Mark a batch done; returns False when it already was.

        Accepted from any state: a worker whose lease expired (and
        whose batch may have been regranted) still completed real,
        deterministic work - the batch is done either way.
        """
        lease = self._leases[batch_id]
        if lease.state == DONE:
            return False
        lease.state = DONE
        lease.worker = None
        lease.deadline = None
        return True

    # -- accounting ---------------------------------------------------
    def _count(self, state: str) -> int:
        return sum(1 for lease in self._leases.values() if lease.state == state)

    @property
    def pending(self) -> int:
        return self._count(PENDING)

    @property
    def leased(self) -> int:
        return self._count(LEASED)

    @property
    def done(self) -> int:
        return self._count(DONE)

    @property
    def all_done(self) -> bool:
        return all(lease.state == DONE for lease in self._leases.values())

    def state(self, batch_id: int) -> str:
        return self._leases[batch_id].state

    def snapshot(self, now: float) -> dict:
        """JSON-ready accounting for the ``/work`` endpoint."""
        return {
            "batches": len(self._leases),
            "pending": self.pending,
            "leased": self.leased,
            "done": self.done,
            "requeues": self.requeues,
            "lease_timeout": self.lease_timeout,
            "leases": [
                {
                    "batch": bid,
                    "worker": lease.worker,
                    "expires_in": (
                        max(0.0, lease.deadline - now)
                        if lease.deadline is not None
                        else None
                    ),
                }
                for bid, lease in sorted(self._leases.items())
                if lease.state == LEASED
            ],
        }


def _chunks(specs: Sequence[TrialSpec], size: int) -> list[list[TrialSpec]]:
    return [list(specs[i : i + size]) for i in range(0, len(specs), size)]


class CampaignCoordinator:
    """Partitions one campaign into leased batches and folds results.

    Wraps a fully configured :class:`~repro.engine.driver.CampaignEngine`
    (sampler, store, telemetry hub, prune oracle): the coordinator does
    everything the local driver does except execute - trials proven
    masked are tallied synthetically, stored trials are resumed, and
    only the rest are served to workers.

    The fold is idempotent by trial key, so requeued batches delivered
    twice (once by the presumed-dead worker, once by its replacement)
    count once; :meth:`finalize` rebuilds the per-region results in
    trial index order, making every tally bit-identical to a local
    ``jobs=N`` run over the same campaign.
    """

    def __init__(
        self,
        engine,
        regions: Iterable[Region],
        n: int | None = None,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        resume: bool = False,
        clock=time.monotonic,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {batch_size}")
        if engine.stratifier is not None:
            raise ValueError(
                "serve-work campaigns are fixed-n uniform; stratified "
                "Neyman waves need complete-wave feedback and stay local"
            )
        self.engine = engine
        self.clock = clock
        self.lock = threading.RLock()
        self._results: dict[str, TrialResult] = {}
        self._specs_by_region: dict[Region, list[TrialSpec]] = {}
        self._batches: dict[int, list[TrialSpec]] = {}
        self._batch_keys: dict[int, frozenset[str]] = {}

        stored = engine._stored_results(resume)
        for region in regions:
            count = n if n is not None else engine.plan.n_for(region.value)
            specs = [engine.make_spec(region, i) for i in range(count)]
            self._specs_by_region[region] = specs
            if engine.telemetry is not None:
                engine.telemetry.note_region(
                    engine.context.app, region.value, count
                )
            missing: list[TrialSpec] = []
            for spec in specs:
                hit = stored.get(spec.key)
                if hit is not None:
                    self._accept_local(hit, append=False)
                    continue
                if engine.prune is not None:
                    verdict = engine.prune(spec.fault)
                    if verdict.masked:
                        self._accept_local(
                            engine._pruned_result(spec, verdict.reason),
                            append=True,
                        )
                        continue
                missing.append(spec)
            for chunk in _chunks(missing, batch_size):
                bid = len(self._batches)
                self._batches[bid] = chunk
                self._batch_keys[bid] = frozenset(s.key for s in chunk)
        self.book = LeaseBook(self._batches, lease_timeout)

    # ------------------------------------------------------------------
    # result fold (one key, one count - ever)
    # ------------------------------------------------------------------
    def _accept_local(self, result: TrialResult, *, append: bool) -> None:
        """Fold a coordinator-side result (stored-resumed or pruned)."""
        self._results[result.key] = result
        if append and self.engine.store is not None:
            self.engine.store.append(result)
        with self.engine._sink_lock():
            self.engine._observe(result)
            if self.engine.telemetry is not None:
                self.engine.telemetry.note_trial(result)

    @property
    def trials(self) -> int:
        return sum(len(s) for s in self._specs_by_region.values())

    @property
    def done(self) -> bool:
        return self.book.all_done

    # ------------------------------------------------------------------
    # protocol payloads
    # ------------------------------------------------------------------
    def manifest(self) -> dict:
        """Everything a worker needs to rebuild the one execution
        authority this campaign runs under."""
        ctx = self.engine.context
        return {
            "schema_version": WORK_SCHEMA_VERSION,
            "app": ctx.app,
            "nprocs": ctx.config.nprocs,
            "app_params": dict(self.engine.app_params),
            "seed": self.engine.seed,
            "config_seed": ctx.config.seed,
            "regions": [r.value for r in self._specs_by_region],
            "trials": self.trials,
            "batches": len(self._batches),
            "lease_timeout": self.book.lease_timeout,
        }

    def lease_payload(self, worker: str) -> dict:
        """One worker's next unit of work: a batch grant, a wait hint,
        or the done signal."""
        with self.lock:
            bid = self.book.lease(worker, self.clock())
            if bid is None:
                if self.book.all_done:
                    return {"done": True}
                return {"wait": min(self.book.lease_timeout / 2, 2.0)}
            return {
                "batch": bid,
                "attempt": self.book._leases[bid].grants,
                "specs": self._batches[bid],
            }

    def submit(self, worker: str, batch_id: int, payloads: list[dict]) -> dict:
        """Fold one batch's submitted results; idempotent per key.

        Results are accepted only for keys belonging to the named
        batch; the batch is acknowledged once every one of its keys has
        been folded (by this submission or an earlier duplicate).
        """
        with self.lock:
            keys = self._batch_keys.get(batch_id)
            if keys is None:
                return {"error": f"unknown batch {batch_id}", "accepted": 0}
            accepted = duplicate = rejected = 0
            for obj in payloads:
                try:
                    result = TrialResult.from_json(obj)
                except (KeyError, ValueError, TypeError, AttributeError):
                    rejected += 1
                    continue
                if result.key not in keys:
                    rejected += 1
                    continue
                if result.key in self._results:
                    duplicate += 1
                    continue
                # Rehydration marks results resumed; these were freshly
                # executed, just remotely.
                result.resumed = False
                self._results[result.key] = result
                if self.engine.store is not None:
                    self.engine.store.append(result)
                with self.engine._sink_lock():
                    self.engine._observe(result)
                    if self.engine.telemetry is not None:
                        self.engine.telemetry.note_trial(result)
                accepted += 1
            if keys <= self._results.keys():
                self.book.ack(batch_id, self.clock())
            return {
                "worker": worker,
                "accepted": accepted,
                "duplicate": duplicate,
                "rejected": rejected,
                "done": self.book.all_done,
            }

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def wait(self, poll_interval: float = 0.2, timeout: float | None = None) -> bool:
        """Block until every batch is done; returns False on timeout."""
        deadline = None if timeout is None else self.clock() + timeout
        while not self.done:
            if deadline is not None and self.clock() >= deadline:
                return False
            time.sleep(poll_interval)
        return True

    def finalize(self):
        """Fold the complete result set into a
        :class:`~repro.injection.campaign.CampaignResult`.

        Ingests per region in trial index order - a fixed order chosen
        once, independent of which worker produced which result and
        when - so the tallies are bit-identical to a local run's.
        """
        from repro.injection.campaign import CampaignResult, RegionResult

        if not self.done:
            raise RuntimeError(
                f"campaign incomplete: {self.book.pending} pending, "
                f"{self.book.leased} leased of {len(self._batches)} batches"
            )
        ctx = self.engine.context
        campaign_result = CampaignResult(
            app_name=ctx.app, nprocs=ctx.config.nprocs, seed=self.engine.seed
        )
        for region, specs in self._specs_by_region.items():
            row = RegionResult(region)
            for spec in specs:
                result = self._results[spec.key]
                row.tally.add(result.manifestation)
                row.delivered += int(result.delivered)
                if result.resumed:
                    row.resumed += 1
                elif result.detail.startswith("pruned:"):
                    row.pruned += 1
            campaign_result.regions[region] = row
        return campaign_result


class CoordinatorService:
    """The telemetry source a coordinator binds to its HTTP server.

    Scrape endpoints delegate to the engine's
    :class:`~repro.observability.serve.TelemetryHub` (which the
    coordinator's fold feeds, so ``/status`` totals track submissions
    live); the coordination routes are served via the handler's
    ``handle_get``/``handle_post`` extension points.
    """

    def __init__(self, coordinator: CampaignCoordinator) -> None:
        hub = coordinator.engine.telemetry
        if hub is None:
            raise ValueError("CoordinatorService needs an engine telemetry hub")
        self.coordinator = coordinator
        self.hub = hub

    # -- scrape endpoints (delegated) ---------------------------------
    def metrics_text(self) -> str:
        return self.hub.metrics_text()

    def status_payload(self) -> dict:
        return self.hub.status_payload()

    def progress_payload(self) -> dict:
        return self.hub.progress_payload()

    # -- coordination routes ------------------------------------------
    def handle_get(self, path: str):
        if path == "/manifest":
            body = json.dumps(
                self.coordinator.manifest(), indent=2, sort_keys=True
            )
            return (body + "\n").encode(), "application/json"
        if path == "/work":
            with self.coordinator.lock:
                payload = self.coordinator.book.snapshot(
                    self.coordinator.clock()
                )
            payload["schema_version"] = WORK_SCHEMA_VERSION
            body = json.dumps(payload, indent=2, sort_keys=True)
            return (body + "\n").encode(), "application/json"
        return None

    def handle_post(self, path: str, body: bytes):
        if path == "/lease":
            obj = json.loads(body.decode() or "{}")
            payload = self.coordinator.lease_payload(
                str(obj.get("worker", "anonymous"))
            )
            return pickle.dumps(payload), "application/octet-stream"
        if path == "/submit":
            obj = json.loads(body.decode())
            payload = self.coordinator.submit(
                str(obj.get("worker", "anonymous")),
                int(obj["batch"]),
                obj.get("results", []),
            )
            return (
                json.dumps(payload, sort_keys=True) + "\n"
            ).encode(), "application/json"
        return None


class WorkerError(RuntimeError):
    """The coordinator is unreachable or served an unusable payload."""


def coordinator_url(endpoint: str) -> str:
    """``HOST:PORT``/``PORT``/full URL -> a base ``http://`` URL."""
    if "://" in endpoint:
        return endpoint.rstrip("/")
    from repro.observability.serve import parse_endpoint

    host, port = parse_endpoint(endpoint)
    return f"http://{host}:{port}"


@dataclass
class WorkerStats:
    batches: int = 0
    trials: int = 0
    duplicates: int = 0


class WorkerClient:
    """One campaign worker: lease, execute, submit, repeat.

    Builds its campaign from the coordinator's ``/manifest`` through
    the same registry path the local CLI uses, so
    ``execute_trial`` runs under a context equal to the coordinator's -
    the precondition for bit-identical results.  ``jobs`` forwards to
    the worker's own engine, so one worker can drive a local process
    pool between HTTP round-trips.

    Run one client per OS process (``campaign work`` does): trial
    execution scopes the per-process observability runtime, so two
    clients executing concurrently on threads of one process would
    cross their propagation timelines.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        jobs: int | None = 1,
        name: str | None = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        max_batches: int | None = None,
        hold_seconds: float | None = None,
        log=None,
    ) -> None:
        self.url = coordinator_url(endpoint)
        self.jobs = jobs
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.poll_interval = poll_interval
        self.max_batches = max_batches
        if hold_seconds is None:
            hold_seconds = float(os.environ.get(HOLD_ENV, "0") or 0)
        self.hold_seconds = hold_seconds
        self.log = log or (lambda _msg: None)
        self.stats = WorkerStats()

    # -- transport ----------------------------------------------------
    def _request(
        self, path: str, data: bytes | None = None, retries: int = CONNECT_RETRIES
    ) -> bytes:
        request = urllib.request.Request(
            self.url + path,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
        )
        last: Exception | None = None
        for _ in range(retries):
            try:
                with urllib.request.urlopen(request, timeout=30) as response:
                    return response.read()
            except urllib.error.HTTPError as exc:
                # The endpoint answered; a non-200 is a protocol error,
                # not a transient outage.
                raise WorkerError(
                    f"{self.url}{path}: HTTP {exc.code} {exc.reason}"
                ) from exc
            except (urllib.error.URLError, OSError, TimeoutError) as exc:
                last = exc
                time.sleep(self.poll_interval)
        raise WorkerError(
            f"coordinator unreachable after {retries} attempts: "
            f"{self.url}{path}: {last}"
        )

    def _get_json(self, path: str) -> dict:
        return json.loads(self._request(path).decode())

    def _post_json(self, path: str, payload: dict) -> bytes:
        return self._request(path, json.dumps(payload).encode())

    # -- the work loop ------------------------------------------------
    def _build_engine(self, manifest: dict):
        from repro.injection.campaign import Campaign

        if manifest.get("schema_version") != WORK_SCHEMA_VERSION:
            raise WorkerError(
                f"coordinator speaks work schema "
                f"{manifest.get('schema_version')!r}, worker expects "
                f"{WORK_SCHEMA_VERSION}"
            )
        campaign = Campaign.from_registry(
            manifest["app"],
            nprocs=int(manifest["nprocs"]),
            app_params=manifest.get("app_params") or {},
            seed=int(manifest["seed"]),
        )
        return campaign.engine(jobs=self.jobs)

    def _check_specs(self, engine, specs: list[TrialSpec]) -> None:
        """A leased spec must match the worker's rebuilt execution
        identity exactly; anything else would execute (and store) under
        the wrong trial keys."""
        ctx = engine.context
        for spec in specs:
            if (
                spec.app != ctx.app
                or spec.nprocs != ctx.config.nprocs
                or spec.config_seed != ctx.config.seed
                or spec.campaign_seed != engine.seed
            ):
                raise WorkerError(
                    f"leased spec {spec.key} does not match the "
                    f"manifest-built context (app/nprocs/seed drift)"
                )

    def run(self) -> WorkerStats:
        manifest = self._get_json("/manifest")
        self.log(
            f"worker {self.name}: joined {manifest['app']} campaign at "
            f"{self.url} ({manifest['trials']} trials, "
            f"{manifest['batches']} batches)"
        )
        with self._build_engine(manifest) as engine:
            while True:
                if (
                    self.max_batches is not None
                    and self.stats.batches >= self.max_batches
                ):
                    return self.stats
                try:
                    grant = pickle.loads(
                        self._request(
                            "/lease",
                            json.dumps({"worker": self.name}).encode(),
                            retries=6,
                        )
                    )
                except WorkerError:
                    # Unreachable while holding no work: the campaign
                    # finished (the coordinator stopped serving after
                    # its linger window) or died - either way nothing
                    # is lost; any lease we never took requeues.
                    self.log(
                        f"worker {self.name}: coordinator gone; exiting"
                    )
                    return self.stats
                if grant.get("done"):
                    self.log(f"worker {self.name}: campaign complete")
                    return self.stats
                if "batch" not in grant:
                    time.sleep(float(grant.get("wait", self.poll_interval)))
                    continue
                specs = grant["specs"]
                self._check_specs(engine, specs)
                if self.hold_seconds:
                    time.sleep(self.hold_seconds)
                results = engine.run_trials(specs)
                reply = json.loads(self._post_json("/submit", {
                    "worker": self.name,
                    "batch": grant["batch"],
                    "results": [result.to_json() for result in results],
                }).decode())
                self.stats.batches += 1
                self.stats.trials += len(results)
                self.stats.duplicates += int(reply.get("duplicate", 0))
                self.log(
                    f"worker {self.name}: batch {grant['batch']} "
                    f"(attempt {grant.get('attempt', 1)}): "
                    f"{reply.get('accepted', 0)} accepted, "
                    f"{reply.get('duplicate', 0)} duplicate"
                )
                if reply.get("done"):
                    # Exit on the submit acknowledgement rather than an
                    # extra lease round: the coordinator may stop
                    # serving shortly after the campaign completes.
                    self.log(f"worker {self.name}: campaign complete")
                    return self.stats
