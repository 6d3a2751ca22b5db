"""TrialSpec/TrialResult identity, pickling, and the JSONL ResultStore."""

import json
import pickle

import numpy as np
import pytest

from repro.engine.store import ResultStore, merge_stores
from repro.engine.trial import (
    TrialResult,
    TrialSpec,
    region_salt,
    restore_rng,
    trial_key,
    trial_rng,
)
from repro.injection.faults import FaultSpec, Region
from repro.injection.outcomes import Manifestation


def make_spec(index=0, region=Region.HEAP, seed=7):
    rng = trial_rng(seed, region, index)
    fault = FaultSpec(region, rank=int(rng.integers(4)), time_blocks=5, bit=3)
    return TrialSpec(
        key=trial_key("wavetoy", {"nx": 32, "ny": 8}, 4, 12345, seed, region, index),
        region=region,
        index=index,
        fault=fault,
        rng_state=rng.bit_generator.state,
    )


def make_result(index=0, manifestation=Manifestation.CORRECT, app="wavetoy"):
    spec = make_spec(index)
    return TrialResult(
        key=spec.key,
        app=app,
        region=spec.region,
        index=index,
        manifestation=manifestation,
        delivered=True,
        detail="chunk",
    )


class TestTrialSpec:
    def test_pickle_round_trip(self):
        spec = make_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.key == spec.key

    def test_rng_state_round_trip(self):
        rng = trial_rng(11, Region.STACK, 3)
        expected = rng.integers(1 << 30)
        restored = restore_rng(trial_rng(11, Region.STACK, 3).bit_generator.state)
        assert restored.integers(1 << 30) == expected

    def test_key_stable(self):
        assert make_spec(index=2).key == make_spec(index=2).key

    def test_key_distinguishes_every_identity_field(self):
        base = make_spec().key
        assert trial_key("moldyn", {"nx": 32, "ny": 8}, 4, 12345, 7,
                         Region.HEAP, 0) != base
        assert trial_key("wavetoy", {"nx": 64, "ny": 8}, 4, 12345, 7,
                         Region.HEAP, 0) != base
        assert trial_key("wavetoy", {"nx": 32, "ny": 8}, 8, 12345, 7,
                         Region.HEAP, 0) != base
        assert trial_key("wavetoy", {"nx": 32, "ny": 8}, 4, 54321, 7,
                         Region.HEAP, 0) != base
        assert trial_key("wavetoy", {"nx": 32, "ny": 8}, 4, 12345, 8,
                         Region.HEAP, 0) != base
        assert trial_key("wavetoy", {"nx": 32, "ny": 8}, 4, 12345, 7,
                         Region.STACK, 0) != base
        assert trial_key("wavetoy", {"nx": 32, "ny": 8}, 4, 12345, 7,
                         Region.HEAP, 1) != base

    def test_key_ignores_param_order(self):
        assert trial_key("w", {"a": 1, "b": 2}, 4, 1, 2, Region.HEAP, 0) == \
            trial_key("w", {"b": 2, "a": 1}, 4, 1, 2, Region.HEAP, 0)

    def test_region_salt_is_crc_not_hash(self):
        import zlib

        assert region_salt(Region.MESSAGE) == zlib.crc32(b"message")


class TestTrialResultJson:
    def test_round_trip(self):
        result = make_result(manifestation=Manifestation.CRASH)
        clone = TrialResult.from_json(result.to_json())
        assert clone.key == result.key
        assert clone.manifestation is Manifestation.CRASH
        assert clone.delivered is True
        assert clone.detail == "chunk"
        assert clone.resumed is True
        assert clone.record is None


class TestResultStore:
    def test_append_load_dedup(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with ResultStore(path) as store:
            store.append(make_result(0))
            store.append(make_result(1, Manifestation.HANG))
            store.append(make_result(0))  # duplicate key
        loaded = ResultStore(path).load()
        assert len(loaded) == 2
        assert sum(1 for _ in open(path)) == 3

    def test_load_tolerates_truncated_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with ResultStore(path) as store:
            store.append(make_result(0))
        with open(path, "a") as fh:
            fh.write('{"key": "cut-short", "app": "wav')  # interrupted write
        assert len(ResultStore(path).load()) == 1

    def test_load_missing_file(self, tmp_path):
        assert ResultStore(tmp_path / "absent.jsonl").load() == {}

    def test_load_skips_valid_json_of_wrong_shape(self, tmp_path):
        """Lines that parse as JSON but are not trial records (a bare
        number, a list, a string, an empty object, an array nested too
        deep for the parser) are corrupt records: skip them, never
        crash, never double-count."""
        path = tmp_path / "s.jsonl"
        with ResultStore(path) as store:
            store.append(make_result(0))
        deep = "[" * 100_000 + "]" * 100_000
        with open(path, "a") as fh:
            for junk in ("123", "[1, 2]", '"x"', "{}", "null", deep):
                fh.write(junk + "\n")
        loaded = ResultStore(path).load()
        assert len(loaded) == 1
        assert next(iter(loaded.values())).index == 0

    def test_status_groups_and_counts(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with ResultStore(path) as store:
            store.append(make_result(0, Manifestation.CORRECT))
            store.append(make_result(1, Manifestation.CRASH))
            store.append(make_result(2, Manifestation.HANG))
        (status,) = ResultStore(path).status()
        assert (status.app, status.region) == ("wavetoy", "heap")
        assert status.trials == 3
        assert status.errors == 2
        assert status.error_rate_percent == pytest.approx(200 / 3)
        assert status.achieved_d_percent > 0

    def test_merge_dedups_and_sorts(self, tmp_path):
        a, b, out = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "m.jsonl"
        with ResultStore(a) as store:
            store.append(make_result(1))
            store.append(make_result(0))
        with ResultStore(b) as store:
            store.append(make_result(1))
            store.append(make_result(2))
        assert merge_stores([a, b], out) == 3
        rows = [json.loads(line) for line in open(out)]
        assert [r["index"] for r in rows] == [0, 1, 2]


class TestStreamingStatus:
    """``iter_results`` / the streaming ``status()`` (ISSUE 9): exact
    tally parity with full ``load()`` at a fraction of the memory."""

    def _mixed_store(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with ResultStore(path) as store:
            store.append(make_result(0, Manifestation.CORRECT))
            store.append(make_result(1, Manifestation.CRASH))
            store.append(make_result(2, Manifestation.HANG))
            store.append(make_result(1, Manifestation.CRASH))  # duplicate
        with open(path, "a") as fh:
            fh.write('{"key": "torn-in-fligh')  # interrupted append
        return path

    def test_iter_results_matches_load(self, tmp_path):
        path = self._mixed_store(tmp_path)
        streamed = {r.key: r for r in ResultStore(path).iter_results()}
        loaded = ResultStore(path).load()
        assert streamed.keys() == loaded.keys()
        for key, result in streamed.items():
            assert result.manifestation is loaded[key].manifestation
            assert result.resumed is True

    def test_status_identical_streaming_vs_full_load(self, tmp_path):
        """The acceptance check: ``campaign status`` built by streaming
        equals a fold over the fully-loaded store, row for row."""
        from repro.engine.store import StoreSummary

        path = self._mixed_store(tmp_path)
        streaming = ResultStore(path).status()
        full = StoreSummary.from_results(
            ResultStore(path).load().values()
        ).rows()
        assert [s.to_json() for s in streaming] == [s.to_json() for s in full]

    @pytest.mark.parametrize("suffix", [".jsonl", ".sqlite"], ids=["jsonl", "sqlite"])
    def test_streaming_memory_bounded(self, tmp_path, suffix):
        """Peak memory of the streaming fold must not scale with the
        per-record payload the way ``load()`` does, on either backend."""
        import dataclasses
        import tracemalloc

        from repro.engine.store import open_store

        path = tmp_path / f"big{suffix}"
        with open_store(path) as store:
            for i in range(1500):
                store.append(
                    dataclasses.replace(make_result(i), detail="x" * 2048)
                )

        tracemalloc.start()
        open_store(path).status()
        _, stream_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        loaded = open_store(path).load()
        _, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(loaded) == 1500

        # load() retains every parsed record (~2KB of detail each);
        # streaming retains seen keys and per-region counters only.
        assert stream_peak < load_peak / 3
