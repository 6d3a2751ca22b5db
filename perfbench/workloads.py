"""The three campaign workloads and how each becomes a CLI command line.

Each workload is one closed-loop campaign: a single driver process
(plus at most two pool workers for ``climate-parallel``) that dispatches
the next trial only after ingesting results.  The runner's ``--seed``
selects the campaign seed; the program only ever sees the resulting
``campaign run`` argument vector.

Why these three (see ``BENCHMARK.json`` for the one-line reasons):

* ``wavetoy-stratified`` is VM-bound, the only workload whose TEXT
  faults force re-translation, and the only one that builds the outcome
  predictor and classifies a stratification pool.
* ``climate-parallel`` is the only workload with the process pool,
  worker metric snapshots crossing IPC and SQLite writes; driver and
  IPC changes show here and nowhere else.
* ``moldyn-adaptive`` measures time to the paper's stated half-width
  (d = 0.05) with masked-site pruning; it is scheduler-heavy and has no
  pool.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``campaign run``'s own default seed; runner seed ``s`` maps to
#: campaign seed ``CAMPAIGN_SEED_BASE + s``, so seed 0 is the CLI default.
CAMPAIGN_SEED_BASE = 20040607

#: The runner seed whose per-region tallies are pinned in ``pins.json``.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    app: str
    nprocs: int
    regions: tuple[str, ...]
    #: ``"fixed"`` (``-n`` trials per region), ``"stratified"`` (``-n``
    #: budget per region over predicted-outcome strata) or
    #: ``"adaptive"`` (``--target-d``).
    design: str
    #: Per-size design parameter: ``-n`` or ``--target-d``.
    sizes: dict
    jobs: int = 1
    store_suffix: str = ".jsonl"
    metrics: bool = False
    #: Request ``--prune-masked`` (passed only while the CLI lists it).
    prune: bool = False

    def argv(self, size: str, seed: int, outdir: str, cli_flags: frozenset[str]) -> list[str]:
        """The ``repro`` command line for one run.  ``cli_flags`` is the
        set of optional flags ``campaign run --help`` still lists:
        ``--fastpath`` and ``--prune-masked`` are passed only while they
        exist, because those modes are slated to become unconditional."""
        value = self.sizes[size]
        argv = [
            "campaign", "run",
            "--app", self.app,
            "--nprocs", str(self.nprocs),
            "--regions", ",".join(self.regions),
            "--seed", str(CAMPAIGN_SEED_BASE + seed),
            "--store", f"{outdir}/store{self.store_suffix}",
            "--log-interval", "0",
            "--jobs", str(self.jobs),
        ]
        if self.design == "adaptive":
            argv += ["--target-d", str(value)]
        else:
            argv += ["-n", str(value)]
        if self.design == "stratified":
            argv.append("--stratify")
        if self.metrics:
            argv += ["--metrics", f"{outdir}/metrics.prom"]
        if "--fastpath" in cli_flags:
            argv.append("--fastpath")
        if self.prune and "--prune-masked" in cli_flags:
            argv.append("--prune-masked")
        return argv

    def planned_per_region(self, size: str) -> int | None:
        """Trial slots a fixed budget allots each region (``None`` for
        adaptive designs, whose allotment the engine decides)."""
        return None if self.design == "adaptive" else int(self.sizes[size])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wavetoy-stratified",
            app="wavetoy",
            nprocs=2,
            regions=("text", "data", "regular_reg"),
            design="stratified",
            # The slowest trials are TEXT faults that run on after
            # re-translation, so which sites a seed draws moves the
            # latency quantiles; 400 per region (about 680 executed
            # trials) roughly halves the seed-to-seed spread of
            # trial_ms.p50 and campaign_s seen at 200.
            sizes={"full": 400, "tiny": 6},
        ),
        Workload(
            name="climate-parallel",
            app="climate",
            nprocs=8,
            regions=("message", "heap", "stack"),
            design="fixed",
            sizes={"full": 150, "tiny": 4},
            jobs=2,
            store_suffix=".sqlite",
            metrics=True,
        ),
        Workload(
            name="moldyn-adaptive",
            app="moldyn",
            nprocs=4,
            regions=("message", "fp_reg", "bss"),
            design="adaptive",
            sizes={"full": 0.05, "tiny": 0.3},
            prune=True,
        ),
    )
}
