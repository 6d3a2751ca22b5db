"""The distributed coordination layer: lease bookkeeping, the
coordinator's fold, and end-to-end worker equivalence.

The load-bearing claim mirrors the executor suite's: a campaign run by
a coordinator and any number of workers produces region tallies (and a
store) bit-identical to the same campaign run locally.  The LeaseBook
units pin the state machine with an explicit clock; the integration
test runs a real coordinator HTTP service against two in-process
workers and compares against a local ``jobs=2`` run.
"""

import json

import pytest

from repro.engine.coordination import (
    WORK_SCHEMA_VERSION,
    CampaignCoordinator,
    CoordinatorService,
    LeaseBook,
    WorkerClient,
    WorkerError,
    coordinator_url,
)
from repro.engine.trial import TrialResult
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.injection.outcomes import Manifestation
from repro.observability.serve import TelemetryHub, TelemetryServer
from tests.conftest import SMALL_NPROCS, SMALL_WAVETOY

REGIONS = (Region.MESSAGE, Region.STACK)
N = 6


def small_campaign():
    return Campaign.from_registry(
        "wavetoy", nprocs=SMALL_NPROCS, app_params=SMALL_WAVETOY
    )


@pytest.fixture(scope="module")
def reference():
    """The local-run baseline: same campaign, ``jobs=2``, no store."""
    return small_campaign().run(REGIONS, N, jobs=2)


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
    """Planning, lease payloads and submission validation - no trial is
    ever executed here, so these run on a bare engine."""

    def _coordinator(self, clock=None, **kwargs):
        engine = small_campaign().engine(telemetry=TelemetryHub())
        kwargs.setdefault("batch_size", 4)
        if clock is not None:
            kwargs["clock"] = clock
        return CampaignCoordinator(engine, REGIONS, N, **kwargs)

    def _result_for(self, coordinator, spec):
        return TrialResult(
            key=spec.key,
            app=spec.app,
            region=spec.region,
            index=spec.index,
            manifestation=Manifestation.CORRECT,
            delivered=True,
        )

    def test_batches_partition_all_specs(self):
        coordinator = self._coordinator()
        batched = [
            spec.key
            for bid in sorted(coordinator._batches)
            for spec in coordinator._batches[bid]
        ]
        planned = [
            spec.key
            for specs in coordinator._specs_by_region.values()
            for spec in specs
        ]
        assert sorted(batched) == sorted(planned)
        assert coordinator.trials == len(REGIONS) * N
        assert all(
            len(specs) <= 4 for specs in coordinator._batches.values()
        )

    def test_manifest_carries_execution_identity(self):
        coordinator = self._coordinator()
        manifest = coordinator.manifest()
        assert manifest["schema_version"] == WORK_SCHEMA_VERSION
        assert manifest["app"] == "wavetoy"
        assert manifest["nprocs"] == SMALL_NPROCS
        assert manifest["app_params"] == SMALL_WAVETOY
        assert manifest["trials"] == len(REGIONS) * N
        assert json.dumps(manifest)  # wire format is plain JSON

    def test_lease_then_wait_then_done(self):
        now = [0.0]
        coordinator = self._coordinator(clock=lambda: now[0])
        grants = []
        while True:
            payload = coordinator.lease_payload("w")
            if "batch" not in payload:
                break
            grants.append(payload)
        assert payload == {"wait": pytest.approx(2.0)}  # all leased out
        for grant in grants:
            reply = coordinator.submit(
                "w",
                grant["batch"],
                [self._result_for(coordinator, s).to_json()
                 for s in grant["specs"]],
            )
            assert reply["accepted"] == len(grant["specs"])
        assert coordinator.done
        assert coordinator.lease_payload("w") == {"done": True}

    def test_submit_validation(self):
        coordinator = self._coordinator()
        grant = coordinator.lease_payload("w")
        specs = grant["specs"]
        foreign = [
            s
            for bid, chunk in coordinator._batches.items()
            if bid != grant["batch"]
            for s in chunk
        ][0]
        good = self._result_for(coordinator, specs[0]).to_json()
        reply = coordinator.submit(
            "w",
            grant["batch"],
            [
                good,
                good,  # duplicate of the same key in one submission
                self._result_for(coordinator, foreign).to_json(),  # not leased
                {"key": "garbage"},  # unparseable
            ],
        )
        assert reply["accepted"] == 1
        assert reply["duplicate"] == 1
        assert reply["rejected"] == 2
        # Partial batch: not acknowledged yet.
        assert not coordinator.book.state(grant["batch"]) == "done"
        assert "error" in coordinator.submit("w", 999, [])

    def test_requeued_batch_counts_once(self):
        now = [0.0]
        coordinator = self._coordinator(
            clock=lambda: now[0], lease_timeout=5.0
        )
        grant = coordinator.lease_payload("dead")
        payloads = [
            self._result_for(coordinator, s).to_json()
            for s in grant["specs"]
        ]
        now[0] = 10.0  # the lease expires; a second worker regrants
        regrant = coordinator.lease_payload("alive")
        assert regrant["batch"] == grant["batch"]
        assert regrant["attempt"] == 2
        first = coordinator.submit("alive", regrant["batch"], payloads)
        late = coordinator.submit("dead", grant["batch"], payloads)
        assert first["accepted"] == len(payloads)
        assert late["accepted"] == 0
        assert late["duplicate"] == len(payloads)
        assert coordinator.book.requeues == 1

    def test_finalize_requires_completion(self):
        coordinator = self._coordinator()
        with pytest.raises(RuntimeError, match="incomplete"):
            coordinator.finalize()

    def test_stratified_engines_rejected(self):
        engine = small_campaign().engine(
            telemetry=TelemetryHub(), stratify=True
        )
        with pytest.raises(ValueError, match="stratified"):
            CampaignCoordinator(engine, REGIONS, N)

    def test_stale_manifest_refused_before_engine_build(self, monkeypatch):
        """A version-1 manifest still names execution modes that no
        longer exist; the worker must refuse it, not guess."""
        stale = dict(self._coordinator().manifest(), schema_version=1)
        stale.update(fastpath=True, checkpoint_stride=16)
        worker = WorkerClient("127.0.0.1:9")
        monkeypatch.setattr(worker, "_get_json", lambda path: stale)

        def no_build(*args, **kwargs):
            raise AssertionError("engine built from a stale manifest")

        monkeypatch.setattr(Campaign, "from_registry", no_build)
        with pytest.raises(WorkerError, match="schema 1"):
            worker.run()

    def test_coordinator_url_forms(self):
        assert coordinator_url("9200") == "http://127.0.0.1:9200"
        assert coordinator_url("0.0.0.0:81") == "http://0.0.0.0:81"
        assert coordinator_url("http://h:9/") == "http://h:9"


class TestDistributedEquivalence:
    """Coordinator + two HTTP workers == one local run, bit for bit.

    The two workers alternate over the wire (trial execution scopes a
    per-process observability runtime, so concurrent clients belong in
    separate processes - the chaos integration test runs them that
    way); the coordinator's fold sees exactly the interleaved
    multi-worker submission stream.
    """

    def _run_distributed(self, tmp_path, store_name):
        engine = small_campaign().engine(
            telemetry=TelemetryHub(), store=tmp_path / store_name
        )
        coordinator = CampaignCoordinator(
            engine, REGIONS, N, batch_size=4, lease_timeout=60.0
        )
        server = TelemetryServer(CoordinatorService(coordinator)).start()
        try:
            workers = [
                WorkerClient(
                    server.url, name=f"w{i}", poll_interval=0.05,
                    max_batches=2,
                )
                for i in range(2)
            ]
            for worker in workers:
                worker.run()
            assert coordinator.done
            result = coordinator.finalize()
        finally:
            server.stop()
            engine.close()
        return result, engine, workers

    def test_tallies_and_store_match_local_run(self, tmp_path, reference):
        local = small_campaign().run(
            REGIONS, N, jobs=2, store=tmp_path / "local.jsonl"
        )
        distributed, engine, workers = self._run_distributed(
            tmp_path, "dist.jsonl"
        )
        for region in REGIONS:
            a, b = local.regions[region], distributed.regions[region]
            assert dict(a.tally.counts) == dict(b.tally.counts)
            assert a.delivered == b.delivered
            assert a.resumed == b.resumed == 0
            assert a.pruned == b.pruned == 0
            # And both equal the module baseline.
            ref = reference.regions[region]
            assert dict(ref.tally.counts) == dict(b.tally.counts)
        # Byte-identical stores (modulo append order).
        local_lines = sorted((tmp_path / "local.jsonl").read_text().split())
        dist_lines = sorted((tmp_path / "dist.jsonl").read_text().split())
        assert local_lines == dist_lines
        # Both workers did real work (4 batches, 2 each by alternation
        # is not guaranteed - but every batch went to somebody).
        assert sum(w.stats.batches for w in workers) == 4
        assert sum(w.stats.trials for w in workers) == len(REGIONS) * N
        # The coordinator's live telemetry folded every submission.
        payload = engine.telemetry.status_payload()
        assert sum(r["trials"] for r in payload["regions"]) == len(REGIONS) * N

    def test_resume_satisfies_everything_locally(self, tmp_path, reference):
        small_campaign().run(REGIONS, N, jobs=2, store=tmp_path / "full.jsonl")
        engine = small_campaign().engine(
            telemetry=TelemetryHub(), store=tmp_path / "full.jsonl"
        )
        coordinator = CampaignCoordinator(engine, REGIONS, N, resume=True)
        try:
            # Nothing to lease: the store already holds every trial.
            assert coordinator.done
            assert coordinator.lease_payload("w") == {"done": True}
            result = coordinator.finalize()
        finally:
            engine.close()
        for region in REGIONS:
            row = result.regions[region]
            assert row.resumed == N
            assert dict(row.tally.counts) == dict(
                reference.regions[region].tally.counts
            )
