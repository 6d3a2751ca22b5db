"""Distributed campaigns: lease bookkeeping, the lease protocol, and
end-to-end equivalence with a local run.

The load-bearing claim mirrors the executor suite's: a campaign whose
trials run on HTTP workers produces region results (and a store)
bit-identical to the same campaign run locally, for every sampling
design.  The LeaseBook units pin the state machine with an explicit
clock; the protocol units drive a :class:`LeaseExecutor` directly; the
equivalence tests run the engine on a thread behind a real coordinator
server and execute its leases with in-process workers.
"""

import itertools
import json
import sys
import threading
import time
import urllib.request

import pytest

from repro.engine import coordination
from repro.engine.coordination import (
    WORK_SCHEMA_VERSION,
    LeaseBook,
    LeaseExecutor,
    WorkerClient,
    WorkerError,
    coordinator_url,
)
from repro.engine.store import merge_stores
from repro.engine.trial import TrialResult
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.injection.outcomes import Manifestation
from repro.observability.export import TraceCollector
from repro.observability.metrics import MetricsRegistry
from repro.observability.serve import TelemetryHub, TelemetryServer
from tests.conftest import SMALL_MOLDYN, SMALL_NPROCS, SMALL_WAVETOY, RecordingSink
from tests.engine.test_store_reads import MISTYPED, mistyped

REGIONS = (Region.MESSAGE, Region.STACK)
N = 6


def small_campaign():
    return Campaign.from_registry(
        "wavetoy", nprocs=SMALL_NPROCS, app_params=SMALL_WAVETOY
    )


def lease_executor(sinks=(), **options):
    """A lease executor of the small campaign."""
    return LeaseExecutor(small_campaign(), sinks, **options)


def correct(spec):
    """A synthetic submission for ``spec`` (nothing executes)."""
    return TrialResult(
        key=spec.key,
        app="wavetoy",
        region=spec.region,
        index=spec.index,
        manifestation=Manifestation.CORRECT,
        delivered=True,
    ).to_json()


def granted(grant, specs):
    """The dispatched specs a grant's ``[region, index]`` pairs name."""
    by_trial = {(spec.region.value, spec.index): spec for spec in specs}
    return [by_trial[tuple(pair)] for pair in grant["trials"]]


@pytest.fixture(scope="module")
def reference():
    """The local-run baseline: same campaign, ``jobs=2``, no store."""
    return small_campaign().run(REGIONS, N, jobs=2)


@pytest.fixture(scope="module")
def specs():
    engine = small_campaign().engine()
    return [engine.make_spec(region, i) for region in REGIONS for i in range(N)]


@pytest.fixture
def quick_polls(monkeypatch):
    """Idle ``/lease`` requests are answered at once instead of held."""
    monkeypatch.setattr(coordination, "LEASE_POLL", 0.0)


class TestLeaseBook:
    def test_grants_lowest_pending_once(self):
        book = LeaseBook([0, 1, 2], lease_timeout=10.0)
        assert book.lease("a", now=0.0) == 0
        assert book.lease("b", now=1.0) == 1
        assert book.lease("c", now=2.0) == 2
        assert book.lease("d", now=3.0) is None  # all leased, none expired
        assert (book.pending, book.leased, book.done) == (0, 3, 0)

    def test_expiry_requeues_and_regrants(self):
        book = LeaseBook([0], lease_timeout=10.0)
        assert book.lease("a", now=0.0) == 0
        assert book.lease("b", now=9.9) is None  # within the window
        assert book.lease("b", now=10.0) == 0  # deadline passed
        assert book.requeues == 1

    def test_ack_idempotent_and_late(self):
        book = LeaseBook([0, 1], lease_timeout=5.0)
        book.lease("a", now=0.0)
        assert book.ack(0, now=1.0) is True
        assert book.ack(0, now=2.0) is False
        # A presumed-dead worker's late ack (post-expiry, post-regrant)
        # still completes the batch.
        book.lease("b", now=0.0)  # batch 1
        book.expire(now=100.0)
        assert book.lease("c", now=100.0) == 1
        assert book.ack(1, now=101.0) is True
        assert book.all_done

    def test_done_batches_never_regrant(self):
        book = LeaseBook([0], lease_timeout=1.0)
        book.lease("a", now=0.0)
        book.ack(0, now=0.5)
        assert book.lease("b", now=100.0) is None
        assert book.requeues == 0

    def test_add_extends_the_book(self):
        book = LeaseBook((), lease_timeout=10.0)
        assert book.lease("a", now=0.0) is None
        book.add(0)
        book.add(1)
        assert book.lease("a", now=0.0) == 0
        book.ack(0, now=1.0)
        book.add(2)
        assert book.lease("b", now=1.0) == 1
        assert (book.pending, book.leased, book.done) == (1, 1, 1)
        with pytest.raises(ValueError):
            book.add(0)

    def test_snapshot_accounting(self):
        book = LeaseBook([0, 1, 2], lease_timeout=10.0)
        book.lease("a", now=0.0)
        book.ack(0, now=1.0)
        book.lease("b", now=2.0)
        snap = book.snapshot(now=4.0)
        assert (snap["pending"], snap["leased"], snap["done"]) == (1, 1, 1)
        (lease,) = snap["leases"]
        assert lease["worker"] == "b"
        assert lease["expires_in"] == pytest.approx(8.0)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            LeaseBook([0], lease_timeout=0.0)


class TestCoordinatorProtocol:
    """Batching, lease payloads, submission validation and the worker's
    manifest and grant checks; submissions are synthetic and nothing
    executes."""

    def test_batches_partition_all_specs(self, specs, quick_polls):
        executor = lease_executor(batch_size=4)
        executor.run(specs)
        grants = []
        while "batch" in (payload := executor.lease_payload("w")):
            grants.append(granted(payload, specs))
        assert [spec for grant in grants for spec in grant] == specs
        assert all(len(grant) <= 4 for grant in grants)

    def test_lease_then_wait_then_done(self, specs, quick_polls):
        executor = lease_executor(batch_size=4)
        assert executor.lease_payload("w") == {"wait": 0.0}  # no dispatch yet
        stream = executor.run(specs)
        grants = []
        while "batch" in (payload := executor.lease_payload("w")):
            grants.append(payload)
        assert payload == {"wait": 0.0}  # all leased out
        for grant in grants:
            reply = executor.submit(
                "w", grant["batch"], [correct(s) for s in granted(grant, specs)]
            )
            assert (reply["accepted"], reply["done"]) == (4, False)
        results = list(stream)
        assert [r.key for r in results] == [s.key for s in specs]
        assert not any(r.resumed or r.record for r in results)
        # Between waves workers wait; only close() ends the campaign.
        assert executor.lease_payload("w") == {"wait": 0.0}
        executor.close()
        assert executor.lease_payload("w") == {"done": True}

    def test_held_lease_is_answered_by_the_next_wave(self, specs):
        executor = lease_executor()
        threading.Timer(0.1, executor.run, [specs[:2]]).start()
        grant = executor.lease_payload("w")  # held up to LEASE_POLL
        assert granted(grant, specs) == specs[:2]

    def test_submit_validation(self, specs, quick_polls):
        executor = lease_executor(batch_size=4)
        executor.run(specs)
        grant = executor.lease_payload("w")
        leased = granted(grant, specs)
        good = correct(leased[0])
        reply = executor.submit(
            "w",
            grant["batch"],
            [
                good,
                good,  # duplicate of the same key in one submission
                correct(specs[-1]),  # a key of another batch
                {"key": "garbage"},  # unparseable
            ],
        )
        assert [reply[k] for k in ("accepted", "duplicate", "rejected")] == [1, 1, 2]
        # A leased key relabelled as another trial is refused too.
        relabelled = dict(correct(leased[1]), index=leased[1].index + 1)
        assert executor.submit("w", grant["batch"], [relabelled])["rejected"] == 1
        # Partial batch: not acknowledged yet.
        assert executor.book.state(grant["batch"]) == "leased"
        assert "error" in executor.submit("w", 999, [])

    @pytest.mark.parametrize("field", sorted(MISTYPED))
    def test_mistyped_result_is_rejected(self, specs, quick_polls, field):
        """A result whose field has the wrong JSON type is rejected
        whole, as a torn one is, and its trial stays missing."""
        executor = lease_executor(batch_size=4)
        executor.run(specs[:4])
        grant = executor.lease_payload("w")
        leased = granted(grant, specs)
        assert leased[3].index == 3  # so a coerced 3.7 would match it
        payload = mistyped(field, correct(leased[3]))
        reply = executor.submit("w", grant["batch"], [payload])
        assert (reply["accepted"], reply["rejected"]) == (0, 1)
        assert executor._missing[grant["batch"]] == {s.key for s in leased}

    def test_submitted_observations_are_parsed_or_rejected(
        self, specs, quick_polls
    ):
        """A well-formed submission attaches its metrics snapshot and
        trace events; a malformed observation rejects the result, which
        stays missing."""
        executor = lease_executor(batch_size=4)
        stream = executor.run(specs[:4])
        grant = executor.lease_payload("w")
        leased = granted(grant, specs)
        registry = MetricsRegistry()
        registry.counter("repro_vm_blocks_total").inc(7)
        registry.histogram("repro_error_latency_blocks", region="stack").observe(3)
        snapshot = registry.snapshot()
        events = [{"name": "kernel:k", "ph": "X", "ts": 0, "dur": 2, "tid": 1}]
        bad = [
            {"metrics": [1, 2]},
            {"metrics": {"counters": {}}},
            {"metrics": {"counters": {"x": "many"}, "gauges": {}, "histograms": {}}},
            {"trace_events": {"name": "not a list"}},
            {"trace_events": [events[0], "not an object"]},
        ]
        for spec in leased[1:]:
            for fields in bad:
                reply = executor.submit(
                    "w", grant["batch"], [dict(correct(spec), **fields)]
                )
                assert (reply["accepted"], reply["rejected"]) == (0, 1), fields
        assert executor._missing[grant["batch"]] == {s.key for s in leased}
        wire = dict(
            correct(leased[0]), metrics=snapshot.to_json(), trace_events=events
        )
        reply = executor.submit("w", grant["batch"], [json.loads(json.dumps(wire))])
        assert reply["accepted"] == 1
        for spec in leased[1:]:
            executor.submit("w", grant["batch"], [correct(spec)])
        first, *rest = list(stream)
        assert first.metrics == snapshot
        assert first.trace_events == events
        assert all(r.metrics is None and r.trace_events is None for r in rest)

    def test_requeued_batch_counts_once(self, specs, quick_polls):
        now = [0.0]
        executor = lease_executor(
            batch_size=4, lease_timeout=5.0, clock=lambda: now[0]
        )
        stream = executor.run(specs[:4])
        grant = executor.lease_payload("dead")
        payloads = [correct(s) for s in granted(grant, specs)]
        now[0] = 10.0  # the lease expires; a second worker regrants
        regrant = executor.lease_payload("alive")
        assert regrant["batch"] == grant["batch"]
        assert regrant["attempt"] == 2
        first = executor.submit("alive", regrant["batch"], payloads)
        late = executor.submit("dead", grant["batch"], payloads)
        assert first["accepted"] == len(payloads)
        assert (late["accepted"], late["duplicate"]) == (0, len(payloads))
        assert executor.book.requeues == 1
        assert [r.key for r in stream] == [s.key for s in specs[:4]]

    def test_racing_workers_lose_and_double_nothing(self, specs, quick_polls):
        """Six threads lease and submit against the consuming engine
        while every lease expires at once, so batches are regranted and
        delivered more than once: each result still arrives once, in
        order."""
        executor = lease_executor(
            batch_size=1, lease_timeout=1.0, clock=itertools.count().__next__
        )
        accepted, errors = [], []

        def work(name):
            try:
                while "done" not in (grant := executor.lease_payload(name)):
                    if "batch" not in grant:
                        continue
                    payloads = [correct(s) for s in granted(grant, specs)]
                    time.sleep(0)  # let others lease (and requeue) meanwhile
                    reply = executor.submit(name, grant["batch"], payloads)
                    accepted.append(reply["accepted"])
            except Exception as exc:  # asserted on below
                errors.append(exc)

        workers = [
            threading.Thread(target=work, args=(f"w{i}",)) for i in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            results = list(executor.run(specs))
            executor.close()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert [r.key for r in results] == [s.key for s in specs]
        assert sum(accepted) == len(specs)
        assert executor.book.all_done

    def test_manifest_carries_execution_identity(self):
        hub = TelemetryHub()
        executor = lease_executor([RecordingSink(), hub])
        assert executor.manifest == {
            "schema_version": WORK_SCHEMA_VERSION,
            "app": "wavetoy",
            "nprocs": SMALL_NPROCS,
            "app_params": SMALL_WAVETOY,
            "seed": 20040607,
            "config_seed": small_campaign().config.seed,
            "lease_timeout": coordination.DEFAULT_LEASE_TIMEOUT,
            "observations": ["metrics"],
        }
        assert executor.route("GET", "/manifest", b"") == executor.manifest
        traced = lease_executor([TraceCollector(), hub])
        assert traced.manifest["observations"] == ["metrics", "trace_events"]

    def test_worker_collects_what_the_manifest_lists(self):
        hub = TelemetryHub()
        for sinks, flags in (
            ((), (False, False)),
            ((hub,), (True, False)),
            ((TraceCollector(), hub), (True, True)),
        ):
            manifest = json.loads(json.dumps(lease_executor(sinks).manifest))
            with WorkerClient("127.0.0.1:9")._build_engine(manifest) as engine:
                ctx = engine.context
                assert (ctx.collect_metrics, ctx.trace) == flags

    @pytest.mark.parametrize(
        "app, params",
        [
            ("wavetoy", dict(SMALL_WAVETOY, r2c=0.25, output_format="binary")),
            ("moldyn", dict(SMALL_MOLDYN, checksums=False, dt=0.04)),
        ],
        ids=["wavetoy-float-str", "moldyn-bool-float"],
    )
    def test_worker_samples_exactly_the_coordinators_specs(self, app, params):
        """A campaign rebuilt from its manifest after a trip through
        JSON - the registry call a worker makes - and a worker's engine
        built from ``/manifest`` both have the campaign's identity and
        make its spec from every leased pair: the same key, fault and
        RNG state, in every region."""
        campaign = Campaign.from_registry(
            app, nprocs=SMALL_NPROCS, app_params=params, seed=11, config_seed=5
        )
        rebuilt = Campaign.from_registry(**json.loads(json.dumps(campaign.manifest())))
        assert rebuilt.identity == campaign.identity
        manifest = json.loads(json.dumps(LeaseExecutor(campaign).manifest))
        worker = WorkerClient("127.0.0.1:9")
        with (
            campaign.engine() as mine,
            rebuilt.engine() as again,
            worker._build_engine(manifest) as theirs,
        ):
            assert theirs.campaign.identity == campaign.identity
            for region in Region:
                for index in (0, 1, 7, 300):
                    want = mine.make_spec(region, index)
                    for got in (
                        again.make_spec(region, index),
                        theirs.make_spec(region, index),
                    ):
                        assert got.key == want.key
                        assert got.fault == want.fault
                        assert got.rng_state == want.rng_state

    def test_worker_of_another_campaign_stops_at_its_first_rejection(
        self, specs, monkeypatch
    ):
        """A worker whose manifest-built campaign differs (here: its
        seed) makes other keys from the leased pairs; the coordinator
        rejects them and the worker stops instead of retrying."""
        executor = lease_executor()
        executor.run(specs[:2])
        with TelemetryServer(TelemetryHub(), routes=executor.route) as server:
            worker = WorkerClient(server.url, max_batches=1)
            other = dict(executor.manifest, seed=1)
            monkeypatch.setattr(worker, "_get_json", lambda path: other)
            with pytest.raises(WorkerError, match="rejected 2 result"):
                worker.run()
        assert executor._missing[0] == {s.key for s in specs[:2]}

    def test_lease_body_is_json(self, specs):
        executor = lease_executor()
        executor.run(specs[:3])
        with TelemetryServer(TelemetryHub(), routes=executor.route) as server:
            request = urllib.request.Request(
                server.url + "/lease", data=json.dumps({"worker": "w"}).encode()
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                body = response.read()
        grant = json.loads(body)
        # A grant names trials; it carries no fault and no RNG state.
        assert set(grant) == {"batch", "attempt", "trials"}
        assert grant["trials"] == [[s.region.value, s.index] for s in specs[:3]]
        assert granted(grant, specs) == specs[:3]

    @pytest.mark.parametrize(
        "body",
        [
            b'{"batch": 0, "trials": [["nowhere", 0]]}',
            b'{"batch": 0, "trials": [["heap", -1]]}',
            b'{"batch": 0, "trials": [["heap", 1.5]]}',
            b'{"batch": 0, "trials": [["heap", "1"]]}',
            b'{"batch": 0, "trials": {"heap": 0}}',
            b'{"wait": "soon"}',
            b'{"wait": -1}',
            b"\x80\x04\x95 not json",
            b"[]",
        ],
        ids=[
            "unknown-region", "negative-index", "float-index", "str-index",
            "trials-not-a-list", "wait-not-a-number", "negative-wait",
            "not-json", "json-list",
        ],
    )
    def test_malformed_grant_refused_before_execution(self, monkeypatch, body):
        class Untouchable:
            """An engine no malformed grant may reach."""

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def make_spec(self, *args):
                raise AssertionError("a malformed grant reached the engine")

            run_trials = make_spec

        worker = WorkerClient("127.0.0.1:9")
        monkeypatch.setattr(worker, "_get_json", lambda path: {"app": "wavetoy"})
        monkeypatch.setattr(worker, "_build_engine", lambda manifest: Untouchable())
        monkeypatch.setattr(worker, "_request", lambda *args, **kwargs: body)
        with pytest.raises(WorkerError, match="malformed /lease reply"):
            worker.run()

    @pytest.mark.parametrize(
        "change",
        [
            b"<html>not json</html>",
            b'["wavetoy", 2]',
            {"app": "nowhere"},
            {"nprocs": None},
            {"nprocs": 2.5},
            {"nprocs": "2"},
            {"nprocs": 0},
            {"seed": 1.5},
            {"config_seed": True},
            {"app_params": [["nx", 32]]},
            {"app_params": {"nowhere": 1}},
            {"app_params": dict(SMALL_WAVETOY, nx="32")},
            {"app_params": dict(SMALL_WAVETOY, nx=32.0)},
            {"app_params": dict(SMALL_WAVETOY, nx=True)},
            {"app_params": dict(SMALL_WAVETOY, damping="0.1")},
            {"observations": "metrics"},
            {"observations": ["metrics", "profile"]},
        ],
        ids=[
            "not-json", "json-list", "unknown-app", "no-nprocs",
            "float-nprocs", "str-nprocs", "zero-nprocs", "float-seed",
            "bool-config-seed", "params-not-an-object", "unknown-param",
            "str-int-param", "float-int-param", "bool-int-param",
            "str-float-param", "observations-not-a-list",
            "unknown-observation",
        ],
    )
    def test_malformed_manifest_refused_before_execution(self, monkeypatch, change):
        """A ``/manifest`` that is not a JSON object, whose campaign
        fields lack their JSON type, whose campaign the registry cannot
        build, or whose observations are not known names ends the worker
        in one :class:`WorkerError` before an engine exists.  ``change``
        is the body, or fields replacing the good manifest's (``None``
        leaves one out)."""
        body = change
        if isinstance(change, dict):
            manifest = dict(lease_executor().manifest, **change)
            body = json.dumps(
                {k: v for k, v in manifest.items() if v is not None}
            ).encode()

        def no_engine(*args, **kwargs):
            raise AssertionError("an engine was built from a malformed manifest")

        monkeypatch.setattr(Campaign, "engine", no_engine)
        worker = WorkerClient("127.0.0.1:9")
        monkeypatch.setattr(worker, "_request", lambda *args, **kwargs: body)
        with pytest.raises(WorkerError, match="malformed /manifest reply") as exc:
            worker.run()
        assert "\n" not in str(exc.value)

    def test_malformed_manifest_ends_the_work_command(self, capsys):
        """``campaign work`` prints the refusal as one line, exit 1."""
        from repro.__main__ import main

        def routes(method, path, body):
            return ["wavetoy", 2] if path == "/manifest" else None

        with TelemetryServer(TelemetryHub(), routes=routes) as server:
            assert main(["campaign", "work", server.url]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"malformed /manifest reply from {server.url}")

    def test_badly_typed_param_ends_the_work_command(self, capsys):
        """A param value of the wrong type is refused the same way,
        naming the parameter, before the worker leases anything."""
        from repro.__main__ import main

        manifest = dict(
            lease_executor().manifest, app_params=dict(SMALL_WAVETOY, nx="32")
        )

        asked = []

        def routes(method, path, body):
            asked.append(path)
            return manifest if path == "/manifest" else None

        with TelemetryServer(TelemetryHub(), routes=routes) as server:
            assert main(["campaign", "work", server.url]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"malformed /manifest reply from {server.url}")
        assert "parameter 'nx' of wavetoy must be int" in line
        assert asked == ["/manifest"]

    @pytest.mark.parametrize(
        "body", [b"<html>not json</html>", b"[1]"], ids=["not-json", "json-list"]
    )
    def test_malformed_submit_reply_stops_the_worker(self, monkeypatch, body):
        class Engine:
            """Runs a leased batch without executing anything."""

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def make_spec(self, region, index):
                return region, index

            def run_trials(self, specs):
                return []

        replies = {
            "/lease": b'{"batch": 0, "attempt": 1, "trials": [["heap", 0]]}',
            "/submit": body,
        }
        worker = WorkerClient("127.0.0.1:9")
        monkeypatch.setattr(worker, "_get_json", lambda path: {"app": "wavetoy"})
        monkeypatch.setattr(worker, "_build_engine", lambda manifest: Engine())
        monkeypatch.setattr(
            worker, "_request", lambda path, *args, **kwargs: replies[path]
        )
        with pytest.raises(WorkerError, match="malformed /submit reply"):
            worker.run()
        assert worker.stats.batches == 0

    def test_stale_manifest_refused_before_engine_build(self, monkeypatch):
        """A version-2 manifest promises the whole campaign's regions,
        trials and batches up front; the worker must refuse it, not
        guess."""
        stale = dict(lease_executor().manifest, schema_version=2)
        stale.update(regions=["message"], trials=6, batches=1)
        worker = WorkerClient("127.0.0.1:9")
        monkeypatch.setattr(worker, "_get_json", lambda path: stale)

        def no_build(*args, **kwargs):
            raise AssertionError("engine built from a stale manifest")

        monkeypatch.setattr(Campaign, "from_registry", no_build)
        with pytest.raises(WorkerError, match="schema 2"):
            worker.run()

    def test_coordinator_url_forms(self):
        assert coordinator_url("9200") == "http://127.0.0.1:9200"
        assert coordinator_url("0.0.0.0:81") == "http://0.0.0.0:81"
        assert coordinator_url("http://h:9/") == "http://h:9"


class TestDistributedEquivalence:
    """Engine + LeaseExecutor + HTTP workers == one local run, bit for
    bit, for fixed-n, adaptive (with masked-site pruning) and stratified
    designs."""

    def _check(self, tmp_path, regions, run_options, **engine_options):
        """Run locally at ``jobs=1`` and ``jobs=2``, then with the engine
        on a thread behind a coordinator server and two in-process
        workers taking turns (one batch, then the rest): trial execution
        scopes a per-process observability runtime, so concurrent
        workers belong in separate processes, as in the chaos test.  The
        three runs must return equal region rows, and a recording sink
        on each must see the same calls in the same order.  Each side
        also has a telemetry hub and a trace collector, whose metrics
        (but for the pid-labelled worker counter) and merged traces
        must be equal too."""
        local, local_sinks = {}, {}
        for jobs in (1, 2):
            local_sinks[jobs] = [RecordingSink(), TelemetryHub(), TraceCollector()]
            local[jobs] = small_campaign().run(
                regions,
                jobs=jobs,
                store=tmp_path / f"jobs{jobs}.jsonl",
                sinks=local_sinks[jobs],
                log_interval=4,
                **run_options,
                **engine_options,
            )
        dist_sink, hub, trace = RecordingSink(), TelemetryHub(), TraceCollector()
        sinks = [dist_sink, hub, trace]
        campaign = small_campaign()
        executor = LeaseExecutor(campaign, sinks, batch_size=4)
        engine = campaign.engine(
            executor=executor,
            sinks=sinks,
            log_interval=4,
            store=tmp_path / "dist.sqlite",
            **engine_options,
        )
        outcome = {}

        def drive():
            with engine:
                outcome["result"] = engine.run(regions, **run_options)

        coordinator = threading.Thread(target=drive, daemon=True)
        with TelemetryServer(hub, routes=executor.route) as server:
            coordinator.start()
            workers = [
                WorkerClient(server.url, name="w0", max_batches=1),
                WorkerClient(server.url, name="w1"),
            ]
            for worker in workers:
                worker.run()
            coordinator.join(timeout=60)
        assert not coordinator.is_alive()
        distributed = outcome["result"]
        serial_rows, pool_rows, dist_rows = (
            [run.regions[region] for region in regions]
            for run in (local[1], local[2], distributed)
        )
        assert serial_rows == pool_rows == dist_rows
        # Byte-identical stores across backends and executors.
        merge_stores([tmp_path / "dist.sqlite"], tmp_path / "dist.jsonl")
        serial_lines, pool_lines, dist_lines = (
            sorted((tmp_path / name).read_text().splitlines())
            for name in ("jobs1.jsonl", "jobs2.jsonl", "dist.jsonl")
        )
        assert serial_lines == pool_lines == dist_lines
        assert dist_sink.events
        assert (
            local_sinks[1][0].calls == local_sinks[2][0].calls == dist_sink.calls
        )

        def metrics(hub):
            snapshot = hub.metrics_snapshot()
            snapshot.counters = {
                key: value
                for key, value in snapshot.counters.items()
                if key[0] != "repro_worker_trials_total"
            }
            return snapshot

        serial_metrics = metrics(local_sinks[1][1])
        assert serial_metrics.counters[("repro_vm_blocks_total", ())] > 0
        assert serial_metrics == metrics(local_sinks[2][1]) == metrics(hub)
        serial_trace = local_sinks[1][2].merged_events()
        assert serial_trace
        assert serial_trace == local_sinks[2][2].merged_events()
        assert serial_trace == trace.merged_events()
        # Every executed trial went to a worker; the first took one batch.
        executed = distributed.total_injections() - sum(
            r.pruned for r in distributed.regions.values()
        )
        assert workers[0].stats.batches == 1
        assert sum(w.stats.trials for w in workers) == executed
        # The coordinator's live telemetry folded every result.
        payload = hub.status_payload()
        assert sum(r["trials"] for r in payload["regions"]) == (
            distributed.total_injections()
        )
        return distributed

    def test_tallies_and_store_match_local_run(self, tmp_path):
        self._check(tmp_path, REGIONS, {"n": N})

    def test_adaptive_pruned_matches_local_run(self, tmp_path):
        distributed = self._check(
            tmp_path, (Region.MESSAGE, Region.BSS), {"target_d": 0.2}
        )
        rows = distributed.regions.values()
        assert all(row.adaptive_d is not None for row in rows)
        assert sum(row.pruned for row in rows) > 0

    def test_stratified_matches_local_run(self, tmp_path):
        distributed = self._check(
            tmp_path, (Region.TEXT,), {"n": 24}, stratify=True
        )
        assert distributed.regions[Region.TEXT].stratified is not None

    def test_resume_satisfies_everything_locally(self, tmp_path, reference):
        store = tmp_path / "full.jsonl"
        small_campaign().run(REGIONS, N, jobs=2, store=store)
        executor = lease_executor()
        result = small_campaign().run(
            REGIONS, N, resume=True, store=store, executor=executor
        )
        assert executor.snapshot()["batches"] == 0
        for region in REGIONS:
            row = result.regions[region]
            assert row.resumed == N
            assert dict(row.tally.counts) == dict(
                reference.regions[region].tally.counts
            )
