"""Stored trials are read one way.

Both store backends share one read path (``TrialStore``), every JSONL
file the program reads back goes through one line reader
(``read_jsonl``), and every trial record through one decoder
(``TrialResult.from_json``).  So every reader of a store skips a
mistyped record the same way, and every reader leaves a last line
without its newline unread until a newline ends it.  The ``/submit``
and artifact-event readers of a mistyped record are held to the same
rule in ``tests/engine/test_coordination.py`` and
``tests/observability/test_artifacts.py``.
"""

import json
import sqlite3

import pytest

from repro.__main__ import main
from repro.engine.store import ResultStore, merge_stores, open_store
from repro.engine.trial import TrialResult
from repro.observability.serve import StoreTelemetry
from tests.engine.test_store_contract import BACKENDS, path_for
from tests.engine.test_trial_store import make_result

#: One field of a good record given the wrong JSON type: values a
#: coercing decoder would misread (a number as a detail, ``"false"`` as
#: true, 3.7 as trial 3) or crash on (a list as a key).
MISTYPED = {
    "detail": 5,
    "delivered": "false",
    "index": 3.7,
    "key": ["a"],
}


def mistyped(field: str, base: dict) -> dict:
    """``base`` with ``field`` given its wrong type from :data:`MISTYPED`."""
    record = dict(base)
    record[field] = MISTYPED[field]
    return record


def good_store(path, backend, *raw: dict):
    """A store of ``make_result(0)`` followed by the ``raw`` records,
    written as the backend stores a record."""
    with open_store(path) as store:
        store.append(make_result(0))
    if backend == "jsonl":
        with open(path, "a") as fh:
            for record in raw:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return
    conn = sqlite3.connect(path)
    with conn:
        for n, record in enumerate(raw):
            conn.execute(
                "INSERT INTO trials (key, app, region, idx, payload) "
                "VALUES (?, ?, ?, ?, ?)",
                (f"raw-{n}", "wavetoy", "heap", 3, json.dumps(record, sort_keys=True)),
            )
    conn.close()


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


class TestDecoder:
    @pytest.mark.parametrize("field", sorted(MISTYPED))
    def test_mistyped_field_raises_value_error(self, field):
        with pytest.raises(ValueError, match=field):
            TrialResult.from_json(mistyped(field, make_result(3).to_json()))

    @pytest.mark.parametrize(
        "record",
        [None, [1], "x", {}, {"key": "k"}],
        ids=["null", "list", "str", "empty", "partial"],
    )
    def test_what_is_not_a_record_raises_value_error(self, record):
        with pytest.raises(ValueError):
            TrialResult.from_json(record)

    def test_optional_fields_stay_optional(self):
        record = {
            k: v
            for k, v in make_result(3).to_json().items()
            if k in ("key", "app", "region", "index", "manifestation", "delivered")
        }
        result = TrialResult.from_json(record)
        assert result.detail == ""
        assert result.latency_blocks is None and result.divergence_kind is None
        assert TrialResult.from_json(dict(record, detail=None)).detail == ""


class TestMistypedStoreRecord:
    """A mistyped line of either backend is skipped by ``load``,
    ``iter_results``, ``status``, the follower, ``campaign status`` and
    ``campaign merge`` alike."""

    @pytest.mark.parametrize("field", sorted(MISTYPED))
    def test_every_store_reader_skips_it(self, tmp_path, backend, field):
        path = path_for(tmp_path, backend)
        follower = open_store(path).follower()
        good_store(path, backend, mistyped(field, make_result(3).to_json()))
        store = open_store(path)
        assert list(store.load()) == [make_result(0).key]
        assert [r.index for r in store.iter_results()] == [0]
        assert [row.trials for row in store.status()] == [1]
        results, reset = follower.poll()
        assert [r.index for r in results] == [0] and not reset
        assert StoreTelemetry(path).status_payload()["regions"][0]["trials"] == 1
        assert merge_stores([path], tmp_path / "merged.jsonl") == 1

    @pytest.mark.parametrize("field", sorted(MISTYPED))
    def test_campaign_commands_skip_it(self, tmp_path, capsys, backend, field):
        path = path_for(tmp_path, backend)
        good_store(path, backend, mistyped(field, make_result(3).to_json()))
        assert main(["campaign", "status", "--store", str(path), "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["regions"]
        assert row["trials"] == 1
        merged = tmp_path / "merged.jsonl"
        assert main(["campaign", "merge", str(path), "--out", str(merged)]) == 0
        assert merged.read_text() == (
            json.dumps(make_result(0).to_json(), sort_keys=True) + "\n"
        )

    def test_a_store_of_one_mistyped_record_reads_empty(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        path.write_text(
            json.dumps(mistyped("detail", make_result(3).to_json())) + "\n"
        )
        assert main(["campaign", "status", "--store", str(path)]) == 0
        assert "no stored trials" in capsys.readouterr().out


class TestUnterminatedLastLine:
    """A last line without its newline may be a write still in flight:
    every reader leaves it unread, even when it is a whole record, and
    every reader reads it once a newline ends it."""

    def test_left_unread_until_a_newline_ends_it(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with ResultStore(path) as store:
            store.append(make_result(0))
        follower = ResultStore(path).follower()
        with open(path, "a") as fh:
            fh.write(json.dumps(make_result(1).to_json(), sort_keys=True))
        store = ResultStore(path)
        assert list(store.load()) == [make_result(0).key]
        assert [r.index for r in store.iter_results()] == [0]
        assert [row.trials for row in store.status()] == [1]
        assert [r.index for r in follower.poll()[0]] == [0]

        with open(path, "a") as fh:
            fh.write("\n")
        assert len(store.load()) == 2
        assert [r.index for r in store.iter_results()] == [0, 1]
        assert [row.trials for row in store.status()] == [2]
        assert [r.index for r in follower.poll()[0]] == [1]
