"""The ``python -m repro`` command-line interface."""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "E12" in out

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "E4"]) == 0
        out = capsys.readouterr().out
        assert "3.93e+06" in out

    def test_run_with_override(self, capsys):
        assert main(["run", "E2", "40"]) == 0
        out = capsys.readouterr().out
        assert "1-bit upsets" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "T99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_import_loads_no_scipy(self):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        code = "import sys, repro.__main__; assert 'scipy' not in sys.modules"
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        )

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


SMALL_PARAMS = "nx=32,ny=8,steps=6,cold_heap_factor=3,output_stride=1"


def campaign_run_args(store, extra=()):
    return [
        "campaign", "run", "--app", "wavetoy", "--regions", "message",
        "--params", SMALL_PARAMS, "--nprocs", "4", "--store", str(store),
        "--log-interval", "0", *extra,
    ]


class TestCampaignCli:
    def test_run_and_status_and_merge(self, capsys, tmp_path):
        store = tmp_path / "out.jsonl"
        assert main(campaign_run_args(store, ["-n", "3"])) == 0
        out = capsys.readouterr().out
        assert "Fault Injection Results (wavetoy)" in out
        assert "Message" in out

        assert main(["campaign", "status", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "wavetoy" in out and "message" in out

        merged = tmp_path / "merged.jsonl"
        assert main([
            "campaign", "merge", str(store), str(store), "--out", str(merged)
        ]) == 0
        assert "3 unique trials" in capsys.readouterr().out

    def test_resume_round_trip(self, capsys, tmp_path):
        store = tmp_path / "out.jsonl"
        assert main(campaign_run_args(store, ["-n", "2"])) == 0
        capsys.readouterr()
        assert main(campaign_run_args(store, ["-n", "4", "--resume"])) == 0
        err = capsys.readouterr().err
        assert "2 resumed from store" in err
        assert sum(1 for _ in open(store)) == 4

    def test_progress_lines_on_stderr(self, capsys, tmp_path):
        store = tmp_path / "out.jsonl"
        args = campaign_run_args(store, ["-n", "2"])
        args[args.index("--log-interval") + 1] = "1"
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "[wavetoy:message]" in err
        assert "[done]" in err

    def test_repeated_region_runs_once(self, capsys, tmp_path):
        store = tmp_path / "out.jsonl"
        args = campaign_run_args(store, ["-n", "3"])
        args[args.index("--regions") + 1] = "message,message"
        args[args.index("--log-interval") + 1] = "1"
        assert main(args) == 0
        err = capsys.readouterr().err
        assert sum(1 for _ in open(store)) == 3
        assert err.count("[done]") == 1

    def test_summary_reports_workers_from_the_environment(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CAMPAIGN_JOBS", "2")
        assert main(campaign_run_args(tmp_path / "out.jsonl", ["-n", "2"])) == 0
        assert "with jobs=2" in capsys.readouterr().err

    def test_resume_requires_store(self, capsys):
        args = [
            "campaign", "run", "--app", "wavetoy", "--regions", "message",
            "--params", SMALL_PARAMS, "--nprocs", "4", "-n", "2", "--resume",
        ]
        assert main(args) == 2
        assert "--resume requires --store" in capsys.readouterr().err

    def test_unknown_app(self, capsys):
        assert main(["campaign", "run", "--app", "nosuch", "-n", "1"]) == 2
        assert "unknown application" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value", [("-n", "0"), ("-n", "-3"), ("--target-d", "1.5")]
    )
    def test_out_of_range_campaign_size(self, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "run", "--app", "wavetoy", option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra", [[], ["--serve", "0", "--jobs", "2"]])
    def test_distribute_needs_serve_and_no_local_pool(self, capsys, extra):
        args = ["campaign", "run", "--app", "wavetoy", "--distribute", *extra]
        assert main(args) == 2
        assert "--distribute requires --serve" in capsys.readouterr().err

    @pytest.mark.parametrize("store", [False, True], ids=["no-store", "store"])
    def test_interrupted_distributed_run_names_only_its_store(
        self, capsys, monkeypatch, tmp_path, store
    ):
        """An interrupted ``--distribute`` run points at the store for
        ``--resume`` only when it was given one."""
        from repro.injection.campaign import Campaign

        def interrupted(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(Campaign, "run", interrupted)
        argv = [
            "campaign", "run", "--app", "wavetoy", "--params", SMALL_PARAMS,
            "--nprocs", "2", "-n", "1", "--log-interval", "0",
            "--distribute", "--serve", "127.0.0.1:0",
        ]
        if store:
            argv += ["--store", str(tmp_path / "out.sqlite")]
        assert main(argv) == 1
        (line,) = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("interrupted")
        ]
        assert ("completed trials are in the store" in line) == store

    def test_metrics_file_without_serving_loads_no_http_server(self, tmp_path):
        """``--metrics`` reads the telemetry hub, which never needs the
        HTTP half of its module."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        metrics = tmp_path / "metrics.prom"
        argv = campaign_run_args(
            tmp_path / "out.jsonl", ["-n", "1", "--metrics", str(metrics)]
        )
        code = (
            "import sys\n"
            "from repro.__main__ import main\n"
            f"assert main({argv!r}) == 0\n"
            "assert 'http.server' not in sys.modules\n"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        )
        assert "repro_trial_outcomes_total" in metrics.read_text()

    def test_pruning_is_not_an_option(self, capsys):
        # Every campaign prunes; the old opt-in flag is gone.
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "run", "--help"])
        assert exc.value.code == 0
        assert "prune" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "run", "--app", "wavetoy", "--prune-masked"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --prune-masked" in capsys.readouterr().err

    def test_unknown_region(self):
        with pytest.raises(SystemExit):
            main([
                "campaign", "run", "--app", "wavetoy", "--regions", "bogus",
                "--params", SMALL_PARAMS, "-n", "1",
            ])

    def test_empty_status(self, capsys, tmp_path):
        assert main([
            "campaign", "status", "--store", str(tmp_path / "none.jsonl")
        ]) == 0
        assert "no stored trials" in capsys.readouterr().out

    def test_merge_of_a_missing_input(self, capsys, tmp_path):
        """A missing input exits 2 naming it, and leaves an earlier
        output as it was."""
        merged = tmp_path / "merged.jsonl"
        merged.write_text("earlier\n")
        missing = tmp_path / "nosuch.jsonl"
        assert main([
            "campaign", "merge", str(missing), "--out", str(merged)
        ]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert str(missing) in line
        assert merged.read_text() == "earlier\n"

    @pytest.mark.parametrize(
        "command",
        [
            ["campaign", "status", "--store", "{store}"],
            ["campaign", "merge", "{store}", "--out", "{out}"],
            ["serve", "--store", "{store}", "--endpoint", "127.0.0.1:0"],
            campaign_run_args("{store}", ["-n", "1"]),
        ],
        ids=["status", "merge", "serve", "run"],
    )
    def test_sqlite_store_that_is_not_a_database(
        self, capsys, tmp_path, monkeypatch, command
    ):
        """Each store consumer exits 2 with one line naming the file,
        before it serves, writes or runs anything."""
        from repro.engine import executors

        store = tmp_path / "x.sqlite"
        store.write_text("not a database")
        out = tmp_path / "merged.jsonl"
        monkeypatch.setattr(
            executors, "execute_trial", lambda *a: pytest.fail("a trial ran")
        )

        def interrupt(seconds):
            raise KeyboardInterrupt  # a serve loop that started stops

        monkeypatch.setattr(time, "sleep", interrupt)
        argv = [arg.format(store=store, out=out) for arg in command]
        assert main(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.splitlines() == [f"{store}: not a SQLite database"]
        assert store.read_text() == "not a database"
        assert not out.exists()

    @pytest.mark.parametrize("suffix", ["jsonl", "sqlite"])
    def test_empty_merge_leaves_its_output(self, capsys, tmp_path, suffix):
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        merged = tmp_path / f"merged.{suffix}"
        assert main(["campaign", "merge", str(empty), "--out", str(merged)]) == 0
        assert "wrote 0 unique trials" in capsys.readouterr().out
        assert merged.exists()
        assert main(["campaign", "status", "--store", str(merged)]) == 0
        assert "no stored trials" in capsys.readouterr().out


def error_lines(err: str) -> list[str]:
    return [line for line in err.splitlines() if not line.startswith(("usage:", " "))]


class TestMalformedInput:
    """Malformed input exits 2 with one error line: never a traceback,
    never a silently empty run."""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["campaign", "run", "--app", "wavetoy", "--regions", ","], "--regions"),
            (["campaign", "run", "--app", "wavetoy", "--nprocs", "0"], "--nprocs"),
            (["trace", "run", "--app", "wavetoy", "--region", ","], "--region"),
            (["trace", "run", "--app", "wavetoy", "--nprocs", "0"], "--nprocs"),
            (["trace", "run", "--app", "wavetoy", "--index", "-1"], "--index"),
            (["analyze", "--mpi", "--nprocs", "0", "wavetoy"], "--nprocs"),
            (["analyze", "--mpi", "--outcomes", "--nprocs", "2", "wavetoy"],
             "--outcomes"),
            (["analyze", "--translate", "--propagation", "wavetoy"],
             "--propagation"),
            (["campaign", "run", "--app", "wavetoy", "--jobs", "0"], "--jobs"),
            (["campaign", "run", "--app", "wavetoy", "--jobs", "-1"], "--jobs"),
            (["campaign", "run", "--app", "wavetoy", "--log-interval", "-3"],
             "--log-interval"),
            (["campaign", "work", "127.0.0.1:9", "--jobs", "0"], "--jobs"),
            (["campaign", "work", "127.0.0.1:9", "--poll-interval", "-1"],
             "--poll-interval"),
            (["campaign", "work", "127.0.0.1:9", "--poll-interval", "0"],
             "--poll-interval"),
        ],
        ids=[
            "campaign-regions", "campaign-nprocs", "trace-region",
            "trace-nprocs", "trace-index", "analyze-nprocs",
            "analyze-mpi-outcomes", "analyze-translate-propagation",
            "campaign-jobs-0",
            "campaign-jobs-negative", "campaign-log-interval", "work-jobs",
            "work-poll-interval-negative", "work-poll-interval-0",
        ],
    )
    def test_rejected_option(self, capsys, tmp_path, argv, option):
        out = tmp_path / "trace.json"
        if argv[0] == "trace":
            argv = [*argv, "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        (line,) = error_lines(capsys.readouterr().err)
        assert f"error: argument {option}: " in line
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["campaign", "run", "-n", "1"], ["trace", "run"]],
        ids=["campaign", "trace"],
    )
    @pytest.mark.parametrize(
        "params, message",
        [
            ("bogus=1", "unknown parameter 'bogus' for wavetoy; known: "),
            ("nx=abc", "bad --params value nx='abc'; expected an integer"),
            ("r2c=fast", "bad --params value r2c='fast'; expected a number"),
            ("nx", "bad --params entry 'nx'; expected key=value"),
        ],
        ids=["unknown-name", "int", "float", "no-value"],
    )
    def test_rejected_params(self, capsys, tmp_path, command, params, message):
        argv = [*command, "--app", "wavetoy", "--params", params]
        if command[0] == "trace":
            argv += ["--out", str(tmp_path / "trace.json")]
        assert main(argv) == 2
        (line,) = error_lines(capsys.readouterr().err)
        assert line.startswith(message)

    def test_rejected_bool_param(self, capsys):
        argv = [
            "campaign", "run", "--app", "moldyn", "-n", "1",
            "--params", "checksums=maybe",
        ]
        assert main(argv) == 2
        (line,) = error_lines(capsys.readouterr().err)
        assert line == "bad --params value checksums='maybe'; expected true or false"

    def test_int_text_is_not_a_bool(self, capsys):
        """A bool param reads only ``true``/``false``: ``1`` is no
        more a bool on the command line than in Python."""
        argv = [
            "campaign", "run", "--app", "moldyn", "-n", "1",
            "--params", "checksums=1",
        ]
        assert main(argv) == 2
        (line,) = error_lines(capsys.readouterr().err)
        assert line == "bad --params value checksums='1'; expected true or false"

    @pytest.mark.parametrize(
        "text, value",
        [
            ("checksums=False", False),
            ("checksums=true", True),
            ("dt=0.04", 0.04),
            ("dt=1", 1.0),
            ("energy_precision=3", 3),
        ],
    )
    def test_params_take_the_type_of_their_default(
        self, monkeypatch, tmp_path, text, value
    ):
        from repro.injection.campaign import Campaign

        built = []
        from_registry = Campaign.from_registry.__func__

        def recorded(cls, app, **kwargs):
            built.append(kwargs["app_params"])
            return from_registry(cls, app, **kwargs)

        monkeypatch.setattr(Campaign, "from_registry", classmethod(recorded))
        small = "atoms_per_rank=64,boundary=16,steps=5,cold_heap_factor=3"
        assert main([
            "campaign", "run", "--app", "moldyn", "--nprocs", "2", "-n", "1",
            "--regions", "message", "--log-interval", "0",
            "--store", str(tmp_path / "out.jsonl"),
            "--params", f"{small},{text}",
        ]) == 0
        key = text.split("=")[0]
        assert type(built[0][key]) is type(value) and built[0][key] == value


class TestServeAndArtifactsCli:
    def test_run_with_serve_and_artifacts(self, capsys, tmp_path):
        """End-to-end --serve + --artifacts: the campaign binds an
        ephemeral port, leaves a complete run directory, and 'report
        DIR --check' confirms bit-identical regeneration."""
        run_dir = tmp_path / "run"
        args = campaign_run_args(
            tmp_path / "out.jsonl",
            [
                "-n", "2",
                "--serve", "127.0.0.1:0",
                "--artifacts", str(run_dir),
            ],
        )
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "serving telemetry at http://127.0.0.1:" in err
        assert f"wrote artifacts: {run_dir}" in err
        for name in (
            "manifest.json",
            "events.jsonl",
            "metrics.jsonl",
            "summary.json",
            "report.html",
            "reproduce.sh",
        ):
            assert (run_dir / name).exists(), name
        # reproduce.sh carries the exact invocation.
        assert "--serve 127.0.0.1:0" in (run_dir / "reproduce.sh").read_text()

        assert main(["report", str(run_dir), "--check"]) == 0
        assert "reproduce exactly" in capsys.readouterr().out

    def test_artifacts_directory_holds_one_run(self, capsys, tmp_path):
        """A second run into a used directory exits 2 with one line,
        stops its server, and leaves the first run's record intact."""
        import threading

        run_dir = tmp_path / "run"
        assert main(campaign_run_args(
            tmp_path / "out.jsonl", ["-n", "3", "--artifacts", str(run_dir)]
        )) == 0
        capsys.readouterr()
        record = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        again = campaign_run_args(
            tmp_path / "again.jsonl",
            ["-n", "3", "--serve", "127.0.0.1:0", "--artifacts", str(run_dir)],
        )
        assert main(again) == 2
        (line,) = [
            line for line in capsys.readouterr().err.splitlines()
            if not line.startswith("serving telemetry")
        ]
        assert str(run_dir) in line and "already holds a run" in line
        assert "repro-telemetry" not in {t.name for t in threading.enumerate()}
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == record
        assert not (tmp_path / "again.jsonl").exists()
        assert main(["report", str(run_dir), "--check"]) == 0
        summary = json.loads((run_dir / "summary.json").read_text())
        assert sum(row["trials"] for row in summary["regions"]) == 3

    def test_manifest_records_params_once(self, tmp_path):
        """The manifest's top-level ``app_params`` is the one record of
        the ``--params`` a run was given: the manifest carries the
        campaign's own, which names the campaign."""
        from repro.injection.campaign import Campaign

        run_dir = tmp_path / "run"
        assert main(campaign_run_args(
            tmp_path / "out.jsonl", ["-n", "1", "--artifacts", str(run_dir)]
        )) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["app_params"] == dict(
            nx=32, ny=8, steps=6, cold_heap_factor=3, output_stride=1
        )
        campaign = Campaign.from_registry(
            "wavetoy", nprocs=4, app_params=manifest["app_params"]
        )
        assert {k: manifest[k] for k in campaign.manifest()} == campaign.manifest()

        def param_fields(obj, path=()):
            if isinstance(obj, dict):
                for key, value in obj.items():
                    if "param" in key:
                        yield (*path, key)
                    yield from param_fields(value, (*path, key))

        assert list(param_fields(manifest)) == [("app_params",)]

    def test_report_regenerates_deleted_outputs(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        assert main(campaign_run_args(
            tmp_path / "out.jsonl", ["-n", "2", "--artifacts", str(run_dir)]
        )) == 0
        capsys.readouterr()
        expected = (run_dir / "summary.json").read_bytes()
        (run_dir / "summary.json").unlink()
        (run_dir / "report.html").unlink()
        assert main(["report", str(run_dir)]) == 0
        assert "regenerated" in capsys.readouterr().out
        assert (run_dir / "summary.json").read_bytes() == expected

    def test_report_check_fails_on_drift(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        assert main(campaign_run_args(
            tmp_path / "out.jsonl", ["-n", "2", "--artifacts", str(run_dir)]
        )) == 0
        with open(run_dir / "summary.json", "a") as fh:
            fh.write(" ")
        assert main(["report", str(run_dir), "--check"]) == 1
        assert "differs from regeneration" in capsys.readouterr().err

    def test_report_bad_target(self, capsys):
        assert main(["report", "no-such-thing"]) == 2
        assert "neither an artifact run directory" in capsys.readouterr().err

    def test_bad_serve_endpoint(self, capsys, tmp_path):
        args = campaign_run_args(
            tmp_path / "out.jsonl", ["-n", "1", "--serve", "not-a-port"]
        )
        assert main(args) == 2
        assert "expected [HOST:]PORT" in capsys.readouterr().err

    def test_status_streams_store(self, capsys, tmp_path):
        """campaign status --json rows come from the streaming fold."""
        import json as _json

        store = tmp_path / "out.jsonl"
        assert main(campaign_run_args(store, ["-n", "3"])) == 0
        capsys.readouterr()
        assert main(["campaign", "status", "--store", str(store), "--json"]) == 0
        payload = _json.loads(capsys.readouterr().out)
        (row,) = payload["regions"]
        assert row["region"] == "message"
        assert row["trials"] == 3
        assert "manifestations" in row
