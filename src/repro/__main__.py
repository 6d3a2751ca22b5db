"""Command-line entry point: run paper experiments.

Usage::

    python -m repro list                    # show all experiments
    python -m repro run T2 [n]              # regenerate one artifact
    python -m repro report [n] [--out FILE] # run everything, emit markdown
    python -m repro analyze wavetoy         # static AVF prediction
    python -m repro analyze --lint moldyn   # assembly diagnostics
    python -m repro analyze --mpi climate   # communication skeleton + map
    python -m repro analyze --mpi --lint buggy  # SA1xx gate (exits 1)
    python -m repro analyze --propagation moldyn  # taint cones + SA2xx audit
    python -m repro analyze --outcomes wavetoy  # strata + SA3xx audit
    python -m repro campaign run --app wavetoy --regions message,stack \
        --jobs 8 --target-d 0.05 --store out.jsonl --resume
    python -m repro campaign run --app wavetoy --regions text,data \
        -n 100 --store out.jsonl       # every design tallies provably-
                                       # masked sites as correct unrun
    python -m repro campaign run --app wavetoy --regions text,data \
        --stratify --target-d 0.05     # Neyman-allocate over predicted
                                       # outcome strata, reweight rates
                                       # (the masked stratum is that
                                       # same proof, never dispatched)
    python -m repro campaign run --app wavetoy -n 4 \
        --trace trace.json --metrics metrics.prom
    python -m repro campaign run --app wavetoy -n 40 \
        --serve 9100 --artifacts runs/wavetoy   # live /metrics + /status
                                       # + an artifact run directory
    python -m repro serve --store out.jsonl --endpoint 9100
                                       # scrape a store without a campaign
    python -m repro campaign run --app wavetoy -n 200 --distribute \
        --serve 9200 --store out.sqlite    # distributed campaign: lease
                                           # trial batches to workers
                                           # over HTTP
    python -m repro campaign work 127.0.0.1:9200 --jobs 4
                                       # pull, execute, and submit leased
                                       # batches until the campaign is done
    python -m repro report runs/wavetoy [--check]
                                       # regenerate summary.json/report.html
    python -m repro campaign status --store out.jsonl [--json]
    python -m repro campaign merge --out all.jsonl a.jsonl b.jsonl
    python -m repro trace run --app wavetoy --region message \
        --out trace.json --metrics-out metrics.prom
    python -m repro trace check --trace trace.json \
        --require vm,channel,injection
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from repro.harness.experiments import EXPERIMENTS, get_experiment
from repro.harness.report import Report

#: Version of every ``analyze ... --json`` payload.  All four emitters
#: (``--lint``/plain, ``--mpi``, ``--propagation``, ``--outcomes``)
#: stamp this shared number so downstream consumers can gate on one
#: field; bump it when any payload shape changes.
ANALYZE_SCHEMA_VERSION = 1


def _diag_payload(diags):
    from repro.staticanalysis.lint import sort_diagnostics

    return [
        {
            "code": d.code,
            "function": d.function,
            "insn_index": d.insn_index,
            "message": d.message,
        }
        for d in sort_diagnostics(diags)
    ]


def cmd_list(_args) -> int:
    width = max(len(e.paper_artifact) for e in EXPERIMENTS.values())
    for exp in EXPERIMENTS.values():
        print(f"{exp.id:>4}  {exp.paper_artifact:<{width}}  {exp.description}")
    return 0


def cmd_run(args) -> int:
    try:
        exp = get_experiment(args.experiment)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    t0 = time.time()
    artifact, _metrics = exp.run(args.n)
    print(f"=== {exp.id} ({exp.paper_artifact}) - {time.time() - t0:.1f}s ===")
    print(artifact)
    return 0


def cmd_report(args) -> int:
    import os

    target = args.target
    if target is not None and os.path.isdir(str(target)):
        return cmd_report_artifacts(args)
    if target is not None:
        try:
            args.n = int(target)
        except ValueError:
            print(
                f"report target {target!r} is neither an artifact run "
                "directory nor a trial-count override",
                file=sys.stderr,
            )
            return 2
    else:
        args.n = None
    report = Report(title="Paper reproduction report")
    for exp_id in EXPERIMENTS:
        t0 = time.time()
        report.run_experiment(exp_id, args.n)
        print(f"{exp_id}: done in {time.time() - t0:.1f}s", file=sys.stderr)
    markdown = report.render_markdown()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(markdown)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(markdown)
    return 0


def cmd_report_artifacts(args) -> int:
    """Regenerate ``summary.json`` + ``report.html`` of an artifact run
    directory from its manifest/events/metrics files alone.  With
    ``--check``, verify the on-disk derived files are bit-identical to
    a fresh derivation instead (exit 1 on drift)."""
    from repro.observability.artifacts import check_outputs, write_outputs

    target = args.target
    try:
        if args.check:
            stale = check_outputs(target)
            if stale:
                for name in stale:
                    print(
                        f"{target}/{name}: differs from regeneration",
                        file=sys.stderr,
                    )
                return 1
            print(f"{target}: summary.json and report.html reproduce exactly")
            return 0
        summary = write_outputs(target)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(
        f"regenerated {target}/summary.json and {target}/report.html "
        f"({summary['trials']} trials, {summary['errors']} errors)"
    )
    return 0


def cmd_serve(args) -> int:
    """Serve live telemetry for an append-only result store: the store
    is followed incrementally (only newly appended bytes are parsed per
    scrape), so other campaign processes can keep writing to it."""
    from repro.observability.serve import StoreTelemetry, serve_endpoint

    try:
        server = serve_endpoint(StoreTelemetry(args.store), args.endpoint)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(
        f"serving {args.store} at {server.url} "
        "(/metrics /status /progress; Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def cmd_analyze_mpi(args) -> int:
    from repro.apps import APPLICATION_SUITE
    from repro.staticanalysis.mpicheck import (
        BuggyApp,
        build_vulnerability_map,
        check_skeleton,
        extract_skeleton,
    )

    factories = dict(APPLICATION_SUITE)
    factories["buggy"] = BuggyApp
    factory = factories.get(args.target)
    if factory is None:
        print(
            f"unknown MPI analysis target {args.target!r}; choose one of: "
            f"{', '.join(sorted(factories))}",
            file=sys.stderr,
        )
        return 2

    skeleton = extract_skeleton(factory(), args.nprocs)
    vmap = build_vulnerability_map(skeleton)
    diags = check_skeleton(skeleton) if args.lint else []

    if args.json:
        payload = {
            "schema_version": ANALYZE_SCHEMA_VERSION,
            "target": args.target,
            "nprocs": args.nprocs,
            "status": skeleton.status.value,
            "skeleton": {
                "events": len(skeleton.events),
                "packets": len(skeleton.packets),
                "kernel_calls": len(skeleton.kernel_calls),
            },
            "vulnerability": {
                "total_bytes": vmap.total_bytes,
                "structural_score": vmap.structural_score,
                "detected_score": vmap.detected_score,
                "byte_classes": vmap.byte_class_totals(),
                "ranks": [
                    {
                        "rank": r.rank,
                        "total_bytes": r.total_bytes,
                        "header_fraction": r.header_fraction,
                        "structural_score": r.structural_score,
                    }
                    for r in vmap.ranks
                ],
            },
        }
        if args.lint:
            payload["diagnostics"] = _diag_payload(diags)
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{args.target}: {args.nprocs} ranks, dry run "
            f"{skeleton.status.value}, {len(skeleton.events)} MPI events, "
            f"{len(skeleton.packets)} packets, "
            f"{len(skeleton.kernel_calls)} elided kernel calls"
        )
        print(vmap.report())
        if args.lint:
            for d in diags:
                print(d)
            print(f"lint: {len(diags)} diagnostic(s)")
    return 1 if diags else 0


def cmd_analyze_propagation(args) -> int:
    """Per-site taint classification plus the SA2xx coverage audit for
    one suite application.  Exit 1 iff the audit has open findings."""
    from repro.apps import APPLICATION_SUITE
    from repro.staticanalysis.lint import sort_diagnostics
    from repro.staticanalysis.propagation import (
        TaintAnalysis,
        audit_app,
        class_counts,
        coverage_for,
        kernel_sites,
    )

    factory = APPLICATION_SUITE.get(args.target)
    if factory is None:
        print(
            f"unknown propagation target {args.target!r}; choose one of: "
            f"{', '.join(sorted(APPLICATION_SUITE))}",
            file=sys.stderr,
        )
        return 2

    coverage = coverage_for(args.target)
    program = factory().program()
    kernels = []
    for name in sorted(program.functions):
        sites = kernel_sites(
            TaintAnalysis.from_function(program.functions[name]), coverage
        )
        kernels.append((name, sites, class_counts(sites)))
    open_findings, suppressed = audit_app(coverage)

    if args.json:
        payload = {
            "schema_version": ANALYZE_SCHEMA_VERSION,
            "target": args.target,
            "kernels": [
                {"function": name, "sites": len(sites), "classes": counts}
                for name, sites, counts in kernels
            ],
            "audit": {
                "open": _diag_payload(open_findings),
                "suppressed": _diag_payload(suppressed),
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, sites, counts in kernels:
            classes = ", ".join(f"{v} {k}" for k, v in counts.items())
            print(f"{name}: {len(sites)} register sites ({classes})")
        for d in sort_diagnostics(open_findings):
            print(d)
        for d in sort_diagnostics(suppressed):
            print(f"{d}  [accepted]")
        print(
            f"audit: {len(open_findings)} open, "
            f"{len(suppressed)} accepted finding(s)"
        )
    return 1 if open_findings else 0


def cmd_analyze_outcomes(args) -> int:
    """Predicted-outcome strata plus the SA3xx audit for one suite
    application.  Exit 1 iff the audit has findings."""
    from repro.injection.campaign import Campaign
    from repro.staticanalysis.outcomes import audit_outcomes, build_probe

    try:
        campaign = Campaign.from_registry(args.target, nprocs=args.nprocs)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    probe = build_probe(campaign.outcome_predictor())
    diags = audit_outcomes(probe)

    if args.json:
        payload = {
            "schema_version": ANALYZE_SCHEMA_VERSION,
            "target": args.target,
            "nprocs": args.nprocs,
            "block_limit": probe.block_limit,
            "hang_bit_floor": probe.hang_floor,
            "windows": {
                "static": list(probe.windows[0]),
                "stack": list(probe.windows[1]),
            },
            "kernels": [
                {
                    "function": k.name,
                    "memory_sites": k.memory_sites,
                    "blind_sites": k.blind_sites,
                    "loops": k.loops,
                    "counterless_loops": k.counterless_loops,
                }
                for k in probe.kernels
            ],
            "regions": [
                {
                    "region": r.region,
                    "strata": dict(r.strata),
                    "masked_oracle_proven": r.masked_oracle_proven,
                }
                for r in probe.regions
            ],
            "diagnostics": _diag_payload(diags),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{args.target}: block limit {probe.block_limit}, hang-bit "
            f"floor {probe.hang_floor}"
        )
        for k in probe.kernels:
            print(
                f"{k.name}: {k.memory_sites} access sites "
                f"({k.blind_sites} blind), {k.loops} loop(s) "
                f"({k.counterless_loops} counterless)"
            )
        for r in probe.regions:
            strata = ", ".join(f"{n} {name}" for name, n in r.strata)
            print(f"{r.region}: {strata}")
        for d in diags:
            print(d)
        print(f"audit: {len(diags)} finding(s)")
    return 1 if diags else 0


def _regions(text: str):
    """An argparse type: comma-separated region names, or ``all``."""
    from repro.injection.faults import Region

    if text == "all":
        return tuple(Region)
    regions = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            regions.append(Region(token))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"unknown region {token!r}; choose from: "
                f"{', '.join(r.value for r in Region)}"
            ) from None
    if not regions:
        raise argparse.ArgumentTypeError(f"no region named in {text!r}")
    return tuple(regions)


def _param_value(kind: type, text: str):
    """``text`` as a build parameter whose default is a ``kind``: an
    int, a float, ``true``/``false`` for a bool, or the text itself for
    a str.  Raises ValueError."""
    if kind is bool and text.lower() in ("true", "false"):
        return text.lower() == "true"
    if kind in (int, float, str):
        return kind(text)
    raise ValueError(text)


def _parse_params(text: str | None, app_cls) -> dict:
    """``k=v,k=v`` build parameters of ``app_cls``, each value parsed by
    :func:`_param_value`; an unknown name or a bad value raises
    ValueError."""
    defaults = app_cls.DEFAULTS
    params = {}
    for token in (text or "").split(","):
        token = token.strip()
        if not token:
            continue
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"bad --params entry {token!r}; expected key=value")
        if key not in defaults:
            raise ValueError(
                f"unknown parameter {key!r} for {app_cls.name}; known: "
                f"{', '.join(sorted(defaults))}"
            )
        kind = type(defaults[key])
        try:
            params[key] = _param_value(kind, value)
        except ValueError:
            expected = {bool: "true or false", int: "an integer", float: "a number"}
            raise ValueError(
                f"bad --params value {key}={value!r}; expected "
                f"{expected.get(kind, kind.__name__)}"
            ) from None
    return params


def _campaign(args):
    """The campaign ``--app``, ``--nprocs``, ``--params`` and ``--seed``
    name.  An unknown application raises KeyError, a bad parameter
    ValueError, each with a one-line message."""
    from repro.apps import APPLICATION_SUITE
    from repro.injection.campaign import Campaign

    app_cls = APPLICATION_SUITE.get(args.app)
    return Campaign.from_registry(
        args.app,
        nprocs=args.nprocs,
        app_params=_parse_params(args.params, app_cls) if app_cls else {},
        seed=args.seed,
    )


def _checked(cast, valid, expected: str):
    """An argparse type: ``cast`` the text, then require ``valid``."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_positive = _checked(int, lambda n: n >= 1, "an integer >= 1")
_non_negative = _checked(int, lambda n: n >= 0, "an integer >= 0")


def cmd_campaign_run(args) -> int:
    from repro.engine.executors import resolve_jobs
    from repro.engine.progress import ProgressPrinter
    from repro.harness.tables import render_campaign_table

    if args.resume and not args.store:
        print("--resume requires --store", file=sys.stderr)
        return 2
    if args.distribute and (not args.serve or args.jobs is not None):
        # Workers run the trials, so there is no local pool to size.
        print("--distribute requires --serve and excludes --jobs",
              file=sys.stderr)
        return 2
    try:
        campaign = _campaign(args)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    sinks = [ProgressPrinter()] if args.log_interval else []
    hub = collector = server = executor = None
    if args.metrics or args.serve or args.artifacts:
        # One hub backs every metrics consumer: the textfile export, the
        # live /metrics endpoint and the artifact flushes all read it,
        # so their totals agree exactly.
        from repro.observability.serve import TelemetryHub

        hub = TelemetryHub()
        sinks.append(hub)
    if args.trace:
        from repro.observability.export import TraceCollector

        collector = TraceCollector()
        if hub is not None:
            # Dropped trials show on the scrape path too.
            collector.metrics = hub.registry
        sinks.append(collector)
    if args.serve:
        from repro.observability.serve import serve_endpoint

        if args.distribute:
            from repro.engine.coordination import LeaseExecutor

            executor = LeaseExecutor(campaign, sinks)
        try:
            server = serve_endpoint(hub, args.serve, executor and executor.route)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(
            f"serving {'workers and ' if executor else ''}telemetry "
            f"at {server.url}",
            file=sys.stderr,
        )

    try:
        artifacts = None
        if args.artifacts:
            from repro.observability.artifacts import (
                RunArtifacts,
                reproduce_command,
            )

            try:
                artifacts = RunArtifacts(
                    args.artifacts,
                    {
                        **campaign.manifest(),
                        "regions": [r.value for r in args.regions],
                        "n": args.n,
                        "target_d": args.target_d,
                        "jobs": args.jobs,
                        "command": reproduce_command(getattr(args, "_argv", None)),
                    },
                    hub=hub,
                )
            except FileExistsError as exc:
                print(exc, file=sys.stderr)
                return 2
            sinks.append(artifacts)

        t0 = time.time()
        try:
            result = campaign.run(
                args.regions,
                args.n,
                resume=args.resume,
                target_d=args.target_d,
                jobs=args.jobs,
                store=args.store,
                log_interval=args.log_interval,
                stratify=args.stratify,
                sinks=sinks,
                executor=executor,
            )
        except KeyboardInterrupt:
            if executor is None:
                raise
            kept = "; completed trials are in the store (resume with --resume)"
            print(f"interrupted{kept if args.store else ''}", file=sys.stderr)
            return 1
        elapsed = time.time() - t0
        if artifacts is not None:
            artifacts.finalize()
            print(f"wrote artifacts: {args.artifacts}", file=sys.stderr)
        if collector is not None:
            collector.write(args.trace, metadata=campaign.manifest())
            print(f"wrote trace: {args.trace}", file=sys.stderr)
        if args.metrics:
            with open(args.metrics, "w") as fh:
                fh.write(hub.metrics_text())
            print(f"wrote metrics: {args.metrics}", file=sys.stderr)
        print(
            render_campaign_table(
                result,
                include_detection_columns=args.app != "wavetoy",
                title=f"Fault Injection Results ({args.app})",
            )
        )
        if args.stratify:
            # The table above shows raw allocation counts; these are the
            # importance-weighted (unbiased) estimates per region.
            print("\nStratified estimates (importance-weighted):")
            for region, row in result.regions.items():
                est = row.stratified
                if est is None:
                    continue
                strata = ", ".join(
                    f"{c.name} W={est.weight(c):.2f} n={c.executed}"
                    + (" (proven)" if c.known_zero else "")
                    for c in est.cells
                )
                print(
                    f"  {region.value}: error rate "
                    f"{100 * est.error_rate:.1f}% +- "
                    f"{100 * est.half_width:.1f}%, {est.executed} executed "
                    f"(uniform Cochran would need {est.uniform_equivalent_n}); "
                    f"{strata}"
                )
        resumed = sum(r.resumed for r in result.regions.values())
        pruned = sum(r.pruned for r in result.regions.values())
        where = (
            f"over leased batches ({executor.book.requeues} requeued)"
            if executor is not None
            else f"with jobs={resolve_jobs(args.jobs)}"
        )
        print(
            f"{result.total_injections()} injections "
            f"({resumed} resumed from store, {pruned} statically pruned) "
            f"in {elapsed:.1f}s {where}",
            file=sys.stderr,
        )
        if executor is not None:
            # Idle workers poll /lease between batches; keep answering
            # "done" for a grace window so they exit cleanly.
            from repro.engine.coordination import LINGER_SECONDS

            time.sleep(LINGER_SECONDS)
        return 0
    finally:
        if server is not None:
            server.stop()


def cmd_campaign_status(args) -> int:
    from repro.engine.store import open_store

    # ``status()`` streams the store through the incremental summary
    # fold - memory stays bounded by the number of distinct trial keys,
    # never by full parsed results.  ``open_store`` picks the backend
    # (JSONL or SQLite) from the path, so either store reads the same.
    statuses = open_store(args.store).status()
    if args.json:
        payload = {
            "store": str(args.store),
            "regions": [s.to_json() for s in statuses],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not statuses:
        print(f"{args.store}: no stored trials")
        return 0
    print(f"{'app':<10} {'region':<12} {'trials':>6} {'errors':>6} "
          f"{'pruned':>6} {'error %':>8} {'d %':>6}")
    for s in statuses:
        print(
            f"{s.app:<10} {s.region:<12} {s.trials:>6} {s.errors:>6} "
            f"{s.pruned:>6} {s.error_rate_percent:>8.1f} "
            f"{s.achieved_d_percent:>6.1f}"
        )
    return 0


def cmd_campaign_work(args) -> int:
    """Join a distributed campaign as a worker: pull leased batches from
    the coordinator, execute them through the local engine, and submit
    the results until the coordinator reports the campaign done."""
    from repro.engine.coordination import WorkerClient, WorkerError

    client = WorkerClient(
        args.coordinator,
        jobs=args.jobs,
        name=args.name,
        poll_interval=args.poll_interval,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    try:
        stats = client.run()
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(
        f"worker done: {stats.trials} trials in {stats.batches} batch(es)"
        + (f", {stats.duplicates} duplicate(s)" if stats.duplicates else ""),
        file=sys.stderr,
    )
    return 0


def cmd_trace_run(args) -> int:
    """Trace one chosen injection trial end to end: spans from the VM,
    the MPI stack, and the injector land in one Perfetto-loadable file,
    with the trial's metrics rendered alongside."""
    from repro.observability.export import TraceCollector
    from repro.observability.serve import TelemetryHub

    try:
        campaign = _campaign(args)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    hub, collector = TelemetryHub(), TraceCollector()
    with campaign.engine(sinks=[hub, collector]) as eng:
        specs = [eng.make_spec(region, args.index) for region in args.region]
        results = eng.run_trials(specs)
    for result in sorted(results, key=lambda r: r.region.value):
        latency = (
            f", latency {result.latency_blocks} blocks"
            if result.latency_blocks is not None
            else ""
        )
        print(
            f"{result.region.value}#{result.index}: "
            f"{result.manifestation.value}"
            f" ({result.divergence_kind or 'no divergence'}{latency})",
            file=sys.stderr,
        )
    collector.write(args.out, metadata=dict(campaign.manifest(), index=args.index))
    print(f"wrote trace: {args.out}", file=sys.stderr)
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(hub.metrics_text())
        print(f"wrote metrics: {args.metrics_out}", file=sys.stderr)
    return 0


def cmd_trace_check(args) -> int:
    """Validate a trace file (and optionally a metrics textfile): the
    Chrome trace schema must hold, every ``--require`` category must be
    present, and the metrics file must parse.  Exit 1 on any problem."""
    from repro.observability.export import trace_categories, validate_chrome_trace
    from repro.observability.metrics import parse_prometheus

    with open(args.trace) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            print(f"{args.trace}: not JSON: {exc}", file=sys.stderr)
            return 1
    problems = validate_chrome_trace(obj)
    for problem in problems:
        print(f"{args.trace}: {problem}", file=sys.stderr)
    present = trace_categories(obj)
    required = {
        token.strip()
        for token in (args.require or "").split(",")
        if token.strip()
    }
    missing = sorted(required - present)
    for cat in missing:
        print(f"{args.trace}: missing required category {cat!r}", file=sys.stderr)
    n_events = len(obj.get("traceEvents", []))
    metrics_note = ""
    samples = None
    if args.metrics:
        with open(args.metrics) as fh:
            try:
                samples = parse_prometheus(fh.read())
            except ValueError as exc:
                print(f"{args.metrics}: {exc}", file=sys.stderr)
                return 1
        metrics_note = f", {len(samples)} metric samples"
    if problems or missing:
        return 1
    print(
        f"ok: {n_events} events, categories "
        f"{','.join(sorted(present))}{metrics_note}"
    )
    return 0


def cmd_campaign_merge(args) -> int:
    from repro.engine.store import merge_stores

    try:
        count = merge_stores(args.stores, args.out)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"wrote {count} unique trials to {args.out}")
    return 0


def _select_kernels(target: str) -> list:
    """The shipped ``(owner, kernel)`` pairs an app or kernel name
    selects; an unknown name is reported on stderr (the caller exits
    2) and selects nothing."""
    from repro.staticanalysis.lint import iter_shipped_kernels

    kernels = list(iter_shipped_kernels())
    selected = [
        (owner, fn) for owner, fn in kernels if target in (owner, fn.name)
    ]
    if not selected:
        owners = {owner for owner, _ in kernels}
        names = sorted(owners | {fn.name for _, fn in kernels})
        print(
            f"unknown analysis target {target!r}; choose an "
            f"application or kernel: {', '.join(names)}",
            file=sys.stderr,
        )
    return selected


def cmd_analyze_translate(args) -> int:
    """Translatability audit: which instructions of each shipped kernel
    the fast path runs translated, and why the rest fall back to the
    interpreter.  Report-only (always exit 0): an untranslatable block
    costs throughput, not correctness."""
    from repro.cpu.translate import audit_function

    selected = _select_kernels(args.target)
    if not selected:
        return 2

    reports = [(owner, audit_function(fn)) for owner, fn in selected]
    if args.json:
        payload = {
            "schema_version": ANALYZE_SCHEMA_VERSION,
            "target": args.target,
            "kernels": [
                dict(report, owner=owner) for owner, report in reports
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for _, rep in reports:
            if rep["reason"]:
                print(f"{rep['name']}: untranslatable ({rep['reason']})")
                continue
            pct = (
                100.0 * rep["translated_insns"] / rep["insns"]
                if rep["insns"]
                else 0.0
            )
            print(
                f"{rep['name']}: {rep['translated_insns']}/{rep['insns']} "
                f"insns translated ({pct:.0f}%), {rep['units']} unit(s) "
                f"over {rep['blocks']} block(s), {rep['call_splits']} call "
                f"split(s), {rep['cost_splits']} cost split(s)"
            )
            for skip in rep["untranslatable"]:
                print(
                    f"  insn {skip['index']}: interpreted "
                    f"({skip['reason']})"
                )
    return 0


def cmd_analyze(args) -> int:
    from repro.staticanalysis.avf import analyze_function
    from repro.staticanalysis.lint import lint_function

    selected = _select_kernels(args.target)
    if not selected:
        return 2

    reports = [(fn, analyze_function(fn)) for _, fn in selected]
    diags = (
        [d for _, fn in selected for d in lint_function(fn)]
        if args.lint
        else []
    )

    if args.json:
        payload = {
            "schema_version": ANALYZE_SCHEMA_VERSION,
            "target": args.target,
            "functions": [rep.to_dict() for _, rep in reports],
        }
        if args.lint:
            payload["diagnostics"] = _diag_payload(diags)
        print(json.dumps(payload, indent=2))
    else:
        for fn, rep in reports:
            print(
                f"{rep.name}: {rep.n_insns} insns, {rep.n_blocks} blocks, "
                f"program AVF {rep.program_avf:.3f}, text AVF "
                f"{rep.text_avf:.3f}"
            )
            for reg, score in sorted(
                rep.register_avf.items(), key=lambda kv: -kv[1]
            ):
                if score > 0.0:
                    print(f"  {reg}: {score:.3f}")
            bits = rep.text_bits
            print(
                f"  text bits: {bits['crash']} crash, "
                f"{bits['incorrect']} incorrect, {bits['benign']} benign"
            )
        if args.lint:
            for d in diags:
                print(d)
            print(f"lint: {len(diags)} diagnostic(s)")
    return 1 if diags else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce 'Assessing Fault Sensitivity in MPI "
        "Applications' (Lu & Reed, SC 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list all experiments").set_defaults(fn=cmd_list)
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment id, e.g. T2 or E5")
    run.add_argument("n", nargs="?", type=int, default=None,
                     help="campaign size / trial count override")
    run.set_defaults(fn=cmd_run)
    rep = sub.add_parser(
        "report",
        help="run everything and emit markdown, or regenerate an "
        "artifact run directory's summary.json/report.html",
    )
    rep.add_argument(
        "target", nargs="?", default=None,
        help="artifact run directory to regenerate, or trial-count "
        "override for the markdown report (default: full report)",
    )
    rep.add_argument("--out", default=None, help="output file")
    rep.add_argument(
        "--check", action="store_true",
        help="with a run directory: verify summary.json/report.html "
        "are bit-identical to a fresh derivation (exit 1 on drift)",
    )
    rep.set_defaults(fn=cmd_report)
    ana = sub.add_parser(
        "analyze",
        help="static fault-vulnerability analysis of shipped kernels",
    )
    ana.add_argument(
        "target", help="application (wavetoy, moldyn, climate, ablation) "
        "or kernel function name (e.g. wt_step); with --mpi, an "
        "application or the 'buggy' fixture"
    )
    ana.add_argument(
        "--lint", action="store_true",
        help="run the diagnostics too (exit 1 on any diagnostic)",
    )
    ana.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    # Each mode flag names the command that runs in place of the kernel
    # analysis; argparse refuses two of them.
    mode = ana.add_mutually_exclusive_group()
    mode.add_argument(
        "--mpi", action="store_const", dest="fn", const=cmd_analyze_mpi,
        help="analyze the MPI communication skeleton instead of kernels "
        "(match graph, SA1xx passes, message-vulnerability map)",
    )
    ana.add_argument(
        "--nprocs", type=_positive, default=4,
        help="ranks for the --mpi dry run (default 4)",
    )
    mode.add_argument(
        "--propagation", action="store_const", dest="fn", const=cmd_analyze_propagation,
        help="per-site taint classification and the SA2xx detector-"
        "coverage audit for one application (exit 1 on open findings)",
    )
    mode.add_argument(
        "--outcomes", action="store_const", dest="fn", const=cmd_analyze_outcomes,
        help="predicted-outcome strata (crash/hang/detectable/sdc/"
        "masked) and the SA3xx audit for one application (exit 1 on "
        "findings); --nprocs sets the reference-run ranks",
    )
    mode.add_argument(
        "--translate", action="store_const", dest="fn", const=cmd_analyze_translate,
        help="translatability audit: per-kernel fast-path coverage and "
        "the instructions the dual-mode engine must interpret (report "
        "only, always exit 0)",
    )
    ana.set_defaults(fn=cmd_analyze)

    camp = sub.add_parser(
        "campaign",
        help="run injection campaigns through the parallel engine",
    )
    camp_sub = camp.add_subparsers(dest="campaign_command", required=True)
    crun = camp_sub.add_parser(
        "run", help="run a (possibly parallel, resumable) campaign"
    )
    crun.add_argument("--app", required=True,
                      help="suite application: wavetoy, moldyn, climate")
    crun.add_argument("--regions", type=_regions, default="all",
                      help="comma-separated regions (default: all eight)")
    crun.add_argument("-n", type=_positive, default=None,
                      help="injections per region (default: plan / "
                      "REPRO_CAMPAIGN_N)")
    crun.add_argument("--target-d", dest="target_d", default=None,
                      type=_checked(float, lambda d: 0 < d < 1,
                                    "a half-width in (0, 1)"),
                      help="adaptive mode: dispatch batches until the "
                      "observed Cochran half-width d drops below this "
                      "(e.g. 0.05)")
    crun.add_argument("--jobs", type=_positive, default=None,
                      help="parallel worker processes (default: "
                      "REPRO_CAMPAIGN_JOBS or 1)")
    crun.add_argument("--store", default=None,
                      help="append-only result store: JSONL, or SQLite "
                      "for .sqlite/.sqlite3/.db paths")
    crun.add_argument("--resume", action="store_true",
                      help="skip trials already present in --store")
    crun.add_argument("--seed", type=int, default=20040607,
                      help="campaign seed (default 20040607)")
    crun.add_argument("--nprocs", type=_positive, default=8,
                      help="simulated MPI ranks (default 8)")
    crun.add_argument("--params", default=None,
                      help="application build parameters, k=v,k=v")
    crun.add_argument("--log-interval", type=_non_negative, default=10,
                      dest="log_interval",
                      help="progress line every N trials (0 disables; "
                      "default 10)")
    crun.add_argument("--trace", default=None, metavar="FILE",
                      help="write a merged Chrome trace (Perfetto-"
                      "loadable) of the campaign's trials to FILE")
    crun.add_argument("--metrics", default=None, metavar="FILE",
                      help="write the aggregated campaign metrics as a "
                      "Prometheus textfile to FILE")
    crun.add_argument("--serve", default=None, metavar="[HOST:]PORT",
                      help="serve live telemetry over HTTP while the "
                      "campaign runs: /metrics (Prometheus), /status "
                      "(per-region tallies), /progress (throughput, "
                      "ETA); bare ports bind 127.0.0.1")
    crun.add_argument("--distribute", action="store_true",
                      help="run the trials on 'campaign work' workers: "
                      "the --serve endpoint also leases trial batches "
                      "(/manifest /lease /submit /work); excludes --jobs")
    crun.add_argument("--artifacts", default=None, metavar="DIR",
                      help="write an artifact-grade run directory: "
                      "manifest.json, events.jsonl, metrics.jsonl, "
                      "summary.json, report.html, reproduce.sh "
                      "(regenerable later via 'report DIR')")
    crun.add_argument("--stratify", action="store_true",
                      help="stratified sampling over predicted-outcome "
                      "strata: classify a pool statically, Neyman-"
                      "allocate trials by observed per-stratum "
                      "variance, importance-weight the rates back to "
                      "unbiased region estimates")
    crun.set_defaults(fn=cmd_campaign_run)
    cstat = camp_sub.add_parser("status", help="summarize a result store")
    cstat.add_argument("--store", required=True,
                       help="result store, JSONL or SQLite")
    cstat.add_argument("--json", action="store_true",
                       help="machine-readable output (tallies + "
                       "Cochran half-width)")
    cstat.set_defaults(fn=cmd_campaign_status)
    cmerge = camp_sub.add_parser(
        "merge", help="merge result stores, deduplicating by trial key"
    )
    cmerge.add_argument("stores", nargs="+",
                        help="input stores, JSONL or SQLite in any mix")
    cmerge.add_argument("--out", required=True,
                        help="merged output store (backend chosen from "
                        "the suffix: .sqlite/.sqlite3/.db = SQLite, "
                        "anything else = JSONL)")
    cmerge.set_defaults(fn=cmd_campaign_merge)
    cwork = camp_sub.add_parser(
        "work",
        help="join a distributed campaign as a worker: lease, execute, "
        "submit until done",
    )
    cwork.add_argument("coordinator", metavar="[HOST:]PORT",
                       help="the --serve endpoint of a 'campaign run "
                       "--distribute' (bare port = 127.0.0.1)")
    cwork.add_argument("--jobs", type=_positive, default=None,
                       help="local worker processes per batch (default: "
                       "REPRO_CAMPAIGN_JOBS or 1)")
    cwork.add_argument("--name", default=None,
                       help="worker name shown in coordinator accounting "
                       "(default: host:pid)")
    cwork.add_argument("--poll-interval", default=0.5,
                       type=_checked(float, lambda s: 0 < s < math.inf,
                                     "a number of seconds > 0"),
                       dest="poll_interval", metavar="SECONDS",
                       help="wait between connection retries "
                       "(default 0.5)")
    cwork.set_defaults(fn=cmd_campaign_work)

    srv = sub.add_parser(
        "serve",
        help="serve live telemetry for a result store over HTTP",
    )
    srv.add_argument("--store", required=True,
                     help="result store to follow, JSONL or SQLite")
    srv.add_argument("--endpoint", default="127.0.0.1:9100",
                     metavar="[HOST:]PORT",
                     help="bind address (default 127.0.0.1:9100)")
    srv.set_defaults(fn=cmd_serve)

    trc = sub.add_parser(
        "trace",
        help="trace single injection trials and validate trace files",
    )
    trc_sub = trc.add_subparsers(dest="trace_command", required=True)
    trun = trc_sub.add_parser(
        "run", help="execute chosen trials with full tracing enabled"
    )
    trun.add_argument("--app", required=True,
                      help="suite application: wavetoy, moldyn, climate")
    trun.add_argument("--region", type=_regions, default="all",
                      help="comma-separated regions to trace one trial "
                      "of each (default: all eight)")
    trun.add_argument("--index", default=0,
                      type=_non_negative,
                      help="trial index within each region (default 0)")
    trun.add_argument("--nprocs", type=_positive, default=4,
                      help="simulated MPI ranks (default 4)")
    trun.add_argument("--params", default=None,
                      help="application build parameters, k=v,k=v")
    trun.add_argument("--seed", type=int, default=20040607,
                      help="campaign seed (default 20040607)")
    trun.add_argument("--out", required=True,
                      help="Chrome trace JSON output file")
    trun.add_argument("--metrics-out", default=None, dest="metrics_out",
                      help="Prometheus textfile output")
    trun.set_defaults(fn=cmd_trace_run)
    tchk = trc_sub.add_parser(
        "check", help="schema-validate a trace (and metrics) file"
    )
    tchk.add_argument("--trace", required=True, help="trace JSON file")
    tchk.add_argument("--metrics", default=None,
                      help="Prometheus textfile to parse-check")
    tchk.add_argument("--require", default=None,
                      help="comma-separated trace categories that must "
                      "be present (e.g. vm,channel,injection)")
    tchk.set_defaults(fn=cmd_trace_check)
    args = parser.parse_args(argv)
    # The raw argv backs reproduce.sh in artifact run directories (the
    # test harness calls main() with an explicit list, so sys.argv is
    # not authoritative here).
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
