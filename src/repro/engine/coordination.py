"""Distributed campaigns: leased trial batches over HTTP.

:class:`~repro.engine.driver.CampaignEngine` plans, resumes, prunes,
runs adaptive and stratified waves, tallies and stores a campaign the
same way whichever executor runs its trials.  This module supplies the
executor whose trials run in other processes, on other machines:

* :class:`LeaseBook` - the pure lease state machine.  Batches move
  ``pending -> leased(deadline) -> done``; a lease that outlives its
  deadline is requeued, so a dead or hung worker's batch is eventually
  re-served to a live one.  Time is injected explicitly, which makes
  the machine property-testable under arbitrary interleavings.
* :class:`LeaseExecutor` - the engine's executor for a distributed
  campaign, built from the campaign and its sinks.  Each dispatch the
  engine makes (a fixed-n region, an adaptive wave, a stratified wave)
  becomes leased batches; results are yielded in submission order, as
  the process pool yields them, so tallies are bit-identical to a local
  ``jobs=N`` run.  It answers the coordination routes itself
  (:meth:`LeaseExecutor.route`): ``/manifest`` and ``/work`` (GET,
  JSON) and ``/lease`` and ``/submit`` (POST, JSON), which
  ``campaign run --distribute`` serves beside the telemetry hub's
  scrape endpoints through :mod:`repro.observability.serve`.
* :class:`WorkerClient` - ``campaign work COORD:PORT``: pulls a batch,
  executes it through the one ``execute_trial`` authority, pushes
  results back.

Both directions of the wire are plain JSON.  A trial is a pure function
of its campaign and its ``(region, index)``, so a lease carries only
``[region, index]`` pairs: each worker builds its campaign from
``/manifest``, which carries
:meth:`~repro.injection.campaign.Campaign.manifest`, and samples every
spec with its own engine's ``make_spec``, so it can never execute a
spec of another campaign.  A
submission carries :meth:`~repro.engine.trial.TrialResult.to_json`
payloads plus the observations the campaign's sinks read (``/manifest``
lists them): a ``metrics`` snapshot
(:meth:`~repro.observability.metrics.MetricsSnapshot.to_json`) and
``trace_events``.  A distributed campaign's metrics and trace therefore
equal a local run's.  Submitted keys are validated against the leased
batch and duplicates (a requeued batch delivered twice) are dropped, so
a confused or duplicate worker cannot corrupt or double-count a tally.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.engine.progress import OBSERVATIONS, observations
from repro.engine.trial import TrialResult, TrialSpec
from repro.injection.faults import Region
from repro.observability.metrics import MetricsSnapshot

#: Version stamped into the ``/manifest`` and ``/work`` payloads and
#: checked by workers before executing anything.
WORK_SCHEMA_VERSION = 5

#: Default trials per leased batch.
DEFAULT_BATCH_SIZE = 8

#: Default lease deadline in seconds: a batch not acknowledged within
#: this window is requeued for another worker.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Seconds ``campaign run --distribute`` keeps serving after the
#: campaign ends, so idle workers' polls are answered ``done``.
LINGER_SECONDS = 3.0

#: Longest a ``/lease`` request is held open waiting for a batch; the
#: next adaptive or stratified wave usually arrives within it.
LEASE_POLL = 1.0

#: Seconds a worker waits between connection retries.
DEFAULT_POLL_INTERVAL = 0.5

#: Consecutive connection failures a worker tolerates (the coordinator
#: may not be up yet, or may be briefly unreachable) before giving up.
CONNECT_RETRIES = 40

#: The campaign fields of ``/manifest`` - the keywords of
#: :meth:`~repro.injection.campaign.Campaign.from_registry` that
#: :meth:`~repro.injection.campaign.Campaign.manifest` names - and the
#: JSON type a worker requires of each.
CAMPAIGN_FIELDS = {
    "app": str,
    "nprocs": int,
    "app_params": dict,
    "seed": int,
    "config_seed": int,
}

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
      the executor's key-dedup fold prevents double counting).
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
    def add(self, batch_id: int) -> None:
        """Register a new pending batch (ids are never reused)."""
        if batch_id in self._leases:
            raise ValueError(f"batch {batch_id} already exists")
        self._leases[batch_id] = _Lease()

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


def _result_payload(result: TrialResult) -> dict:
    """One result on the submission wire: its store fields plus the
    observations it collected."""
    obj = result.to_json()
    if result.metrics is not None:
        obj["metrics"] = result.metrics.to_json()
    if result.trace_events is not None:
        obj["trace_events"] = result.trace_events
    return obj


def _parse_result(obj: dict) -> TrialResult:
    """Inverse of :func:`_result_payload`; raises ``ValueError`` on a
    malformed payload, observations included."""
    result = TrialResult.from_json(obj)
    if obj.get("metrics") is not None:
        try:
            result.metrics = MetricsSnapshot.from_json(obj["metrics"])
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed metrics: {exc!r}") from exc
    events = obj.get("trace_events")
    if events is not None:
        if not isinstance(events, list) or not all(
            isinstance(event, dict) for event in events
        ):
            raise ValueError("trace_events must be a list of objects")
        result.trace_events = events
    return result


class LeaseExecutor:
    """The engine's executor for a distributed campaign.

    :meth:`run` splits one dispatch into batches of ``batch_size``,
    adds them to the :class:`LeaseBook` and returns an iterator that
    waits for their submissions and yields results in submission
    order, the order ``ParallelExecutor`` yields, so the engine's
    ingest is the same as a local run's.  Nothing executes here: HTTP
    handler threads call :meth:`route`, which answers from
    :meth:`lease_payload` and :meth:`submit`, and a condition variable
    hands results to the waiting engine.

    Built from the ``campaign`` whose trials it leases and the
    ``sinks`` its engine feeds (for the observations they read), so
    it serves ``/manifest`` before the engine exists: early workers
    are told to wait.
    """

    def __init__(
        self,
        campaign,
        sinks=(),
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        clock=time.monotonic,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {batch_size}")
        self.batch_size = batch_size
        self.clock = clock
        self.book = LeaseBook((), lease_timeout)
        #: The ``/manifest`` payload: the campaign's name plus what its
        #: workers send back.
        self.manifest = {
            "schema_version": WORK_SCHEMA_VERSION,
            **campaign.manifest(),
            "lease_timeout": lease_timeout,
            "observations": observations(sinks),
        }
        self.cond = threading.Condition()
        #: batch id -> ``{trial key: spec}`` in trial order.
        self._batches: dict[int, dict[str, TrialSpec]] = {}
        #: batch id -> keys not yet submitted.
        self._missing: dict[int, set[str]] = {}
        #: Submitted results the engine has not consumed yet.
        self._results: dict[str, TrialResult] = {}
        self._closed = False

    def run(self, specs: Iterable[TrialSpec]) -> Iterator[TrialResult]:
        specs = list(specs)
        with self.cond:
            for start in range(0, len(specs), self.batch_size):
                bid = len(self._batches)
                chunk = specs[start : start + self.batch_size]
                self._batches[bid] = {spec.key: spec for spec in chunk}
                self._missing[bid] = set(self._batches[bid])
                self.book.add(bid)
            self.cond.notify_all()
        return self._collect(specs)

    def _collect(self, specs: list[TrialSpec]) -> Iterator[TrialResult]:
        for spec in specs:
            with self.cond:
                self.cond.wait_for(lambda: spec.key in self._results)
                result = self._results.pop(spec.key)
            yield result

    def close(self) -> None:
        """End the campaign: from now on every ``/lease`` gets ``done``."""
        with self.cond:
            self._closed = True
            self.cond.notify_all()

    # -- protocol payloads --------------------------------------------
    def lease_payload(self, worker: str) -> dict:
        """One worker's next unit of work: a batch grant, ``wait``
        (nothing leasable: the engine is between waves or every batch
        is out) or ``done``.  The request is held up to
        :data:`LEASE_POLL` seconds for a batch to arrive."""
        deadline = time.monotonic() + LEASE_POLL
        with self.cond:
            while not self._closed:
                bid = self.book.lease(worker, self.clock())
                if bid is not None:
                    return {
                        "batch": bid,
                        "attempt": self.book._leases[bid].grants,
                        "trials": [
                            [spec.region.value, spec.index]
                            for spec in self._batches[bid].values()
                        ],
                    }
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return {"wait": 0.0}
                self.cond.wait(remaining)
            return {"done": True}

    def submit(self, worker: str, batch_id: int, payloads: list[dict]) -> dict:
        """Accept one batch's results; idempotent per key.

        A result counts only for a key of the named batch whose region
        and index match the leased spec, whose observations parse, and
        only once; the batch is acknowledged when all its keys have
        arrived (in this submission or earlier ones).
        """
        with self.cond:
            batch = self._batches.get(batch_id)
            if batch is None:
                return {"error": f"unknown batch {batch_id}", "accepted": 0}
            missing = self._missing[batch_id]
            accepted = duplicate = rejected = 0
            for obj in payloads:
                try:
                    result = _parse_result(obj)
                except ValueError:
                    rejected += 1
                    continue
                if result.key not in batch:
                    rejected += 1
                elif result.key not in missing:
                    duplicate += 1
                elif (result.region, result.index) != (
                    batch[result.key].region,
                    batch[result.key].index,
                ):
                    rejected += 1
                else:
                    # Rehydration marks results resumed; these were
                    # freshly executed, just remotely.
                    result.resumed = False
                    missing.discard(result.key)
                    self._results[result.key] = result
                    accepted += 1
            if not missing:
                self.book.ack(batch_id, self.clock())
            self.cond.notify_all()
            return {
                "worker": worker,
                "accepted": accepted,
                "duplicate": duplicate,
                "rejected": rejected,
                "done": self._closed,
            }

    def snapshot(self) -> dict:
        """The ``/work`` payload: lease-book accounting."""
        with self.cond:
            payload = self.book.snapshot(self.clock())
        payload["schema_version"] = WORK_SCHEMA_VERSION
        return payload

    def route(self, method: str, path: str, body: bytes) -> dict | None:
        """The JSON reply to one coordination request, or ``None`` for a
        route that is not one of them."""
        if method == "GET":
            if path == "/manifest":
                return self.manifest
            return self.snapshot() if path == "/work" else None
        if path not in ("/lease", "/submit"):
            return None
        obj = json.loads(body.decode() or "{}")
        worker = str(obj.get("worker", "anonymous"))
        if path == "/lease":
            return self.lease_payload(worker)
        return self.submit(worker, int(obj["batch"]), obj.get("results", []))


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
    the same registry path the local CLI uses, so its engine samples
    the coordinator's specs from each leased ``[region, index]`` pair
    and ``execute_trial`` runs under a context equal to the
    coordinator's - the precondition for bit-identical results - and
    collects the observations the manifest lists.  ``jobs`` forwards to
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
        log=None,
    ) -> None:
        self.url = coordinator_url(endpoint)
        self.jobs = jobs
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.poll_interval = poll_interval
        self.max_batches = max_batches
        self.hold_seconds = float(os.environ.get(HOLD_ENV, "0") or 0)
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

    def _reply(self, path: str, body: bytes) -> dict:
        """The coordinator's reply to ``path`` as a JSON object."""
        try:
            reply = json.loads(body.decode())
            if not isinstance(reply, dict):
                raise TypeError(f"not a JSON object: {reply!r:.60}")
        except (TypeError, ValueError) as exc:
            raise WorkerError(self._malformed(path, exc)) from exc
        return reply

    def _malformed(self, path: str, exc: Exception) -> str:
        return f"malformed {path} reply from {self.url}: {exc!r}"

    def _get_json(self, path: str) -> dict:
        return self._reply(path, self._request(path))

    def _post_json(self, path: str, payload: dict) -> dict:
        return self._reply(path, self._request(path, json.dumps(payload).encode()))

    # -- the work loop ------------------------------------------------
    def _build_engine(self, manifest: dict):
        """The engine of the campaign ``manifest`` names, collecting the
        observations it lists.  Each campaign field must have its JSON
        type and the registry must build the campaign; otherwise the
        manifest is refused before anything runs."""
        from repro.injection.campaign import Campaign

        if manifest.get("schema_version") != WORK_SCHEMA_VERSION:
            raise WorkerError(
                f"coordinator speaks work schema "
                f"{manifest.get('schema_version')!r}, worker expects "
                f"{WORK_SCHEMA_VERSION}"
            )
        fields = {name: manifest.get(name) for name in CAMPAIGN_FIELDS}
        observed = manifest.get("observations")
        try:
            for name, kind in CAMPAIGN_FIELDS.items():
                if type(fields[name]) is not kind:
                    raise TypeError(f"{name} is not {kind.__name__}: {fields[name]!r}")
            if fields["nprocs"] < 1:
                raise ValueError(f"nprocs must be >= 1: {fields['nprocs']}")
            if not isinstance(observed, list) or not OBSERVATIONS.issuperset(observed):
                raise ValueError(f"unknown observations: {observed!r}")
            campaign = Campaign.from_registry(**fields)
        except (KeyError, TypeError, ValueError) as exc:
            raise WorkerError(self._malformed("/manifest", exc)) from exc
        engine = campaign.engine(jobs=self.jobs)
        # Before the first dispatch, which may pickle the context.
        engine.context.observe(observed)
        return engine

    def _lease(self) -> tuple[dict, list[tuple[Region, int]]] | None:
        """The next grant with its parsed ``(region, index)`` pairs and
        ``wait`` seconds, or ``None`` when the coordinator is
        unreachable."""
        try:
            body = self._request(
                "/lease", json.dumps({"worker": self.name}).encode(), retries=6
            )
        except WorkerError:
            return None
        grant = self._reply("/lease", body)
        try:
            trials = grant.get("trials", [])
            if not isinstance(trials, list):
                raise TypeError(f"trials is not a list: {trials!r}")
            pairs = []
            for region, index in trials:
                if type(index) is not int or index < 0:
                    raise ValueError(f"bad trial index {index!r}")
                pairs.append((Region(region), index))
            grant["wait"] = float(grant.get("wait", self.poll_interval))
            if not grant["wait"] >= 0:
                raise ValueError(f"bad wait {grant['wait']!r}")
        except (TypeError, ValueError) as exc:
            raise WorkerError(self._malformed("/lease", exc)) from exc
        return grant, pairs

    def run(self) -> WorkerStats:
        manifest = self._get_json("/manifest")
        with self._build_engine(manifest) as engine:
            self.log(
                f"worker {self.name}: joined {manifest['app']} campaign at "
                f"{self.url}"
            )
            while True:
                if (
                    self.max_batches is not None
                    and self.stats.batches >= self.max_batches
                ):
                    return self.stats
                leased = self._lease()
                if leased is None:
                    # Unreachable while holding no work: the campaign
                    # finished (the coordinator stopped serving after
                    # its linger window) or died - either way nothing
                    # is lost; any lease we never took requeues.
                    self.log(
                        f"worker {self.name}: coordinator gone; exiting"
                    )
                    return self.stats
                grant, pairs = leased
                if grant.get("done"):
                    self.log(f"worker {self.name}: campaign complete")
                    return self.stats
                if "batch" not in grant:
                    time.sleep(grant["wait"])
                    continue
                specs = [engine.make_spec(*pair) for pair in pairs]
                if self.hold_seconds:
                    time.sleep(self.hold_seconds)
                results = engine.run_trials(specs)
                reply = self._post_json("/submit", {
                    "worker": self.name,
                    "batch": grant["batch"],
                    "results": [_result_payload(result) for result in results],
                })
                if reply.get("rejected"):
                    # Keys the coordinator did not lease: this worker's
                    # manifest-built campaign is not the coordinator's.
                    raise WorkerError(
                        f"coordinator rejected {reply['rejected']} result(s) "
                        f"of batch {grant['batch']}"
                    )
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
                    # A late submission after the campaign closed.
                    self.log(f"worker {self.name}: campaign complete")
                    return self.stats
