"""Campaign driver tests (small campaigns over the wavetoy miniature)."""

import numpy as np
import pytest

from repro.engine.progress import TrialCollector
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.injection.outcomes import Manifestation
from repro.mpi.simulator import JobConfig
from repro.sampling.plans import CampaignPlan
from tests.conftest import SMALL_NPROCS, SMALL_WAVETOY


def small_campaign(seed=3):
    from repro.apps import WavetoyApp

    return Campaign(
        lambda: WavetoyApp(**SMALL_WAVETOY),
        JobConfig(nprocs=SMALL_NPROCS),
        plan=CampaignPlan(per_region={r.value: 4 for r in Region}),
        seed=seed,
    )


class TestReference:
    def test_reference_profile(self):
        c = small_campaign()
        ref = c.reference()
        assert ref.result.completed
        assert len(ref.blocks_per_rank) == SMALL_NPROCS
        assert all(b > 0 for b in ref.blocks_per_rank)
        assert any(b > 0 for b in ref.received_bytes_per_rank)
        assert ref.block_limit > max(ref.blocks_per_rank)
        assert ref.round_limit > ref.rounds
        assert ref.dictionary.size("text") > 0

    def test_reference_cached(self):
        c = small_campaign()
        assert c.reference() is c.reference()


class TestSampling:
    @pytest.mark.parametrize("region", list(Region))
    def test_specs_valid_for_every_region(self, region, rng):
        c = small_campaign()
        for i in range(5):
            spec = c.sample_spec(region, np.random.default_rng(i))
            assert spec.region is region
            assert 0 <= spec.rank < SMALL_NPROCS
            if region is not Region.MESSAGE:
                assert spec.time_blocks >= 1

    def test_message_target_within_volume(self):
        c = small_campaign()
        ref = c.reference()
        for i in range(10):
            spec = c.sample_spec(Region.MESSAGE, np.random.default_rng(i))
            assert spec.target_byte < max(ref.received_bytes_per_rank)


class TestExecution:
    def test_run_region_tally(self):
        c = small_campaign()
        sink = TrialCollector()
        row = c.run_region(Region.REGULAR_REG, 5, sinks=[sink])
        assert row.executions == 5
        assert [r.index for r in sink.results] == list(range(5))
        assert all(r.record is not None for r in sink.results)
        assert 0 <= row.error_rate_percent <= 100
        assert row.estimation_error_percent > 0

    def test_injection_reproducible(self):
        runs = []
        for _ in range(2):
            sink = TrialCollector()
            small_campaign(seed=11).run_region(Region.MESSAGE, 4, sinks=[sink])
            runs.append([(r.record, r.manifestation) for r in sink.results])
        assert len(runs[0]) == 4
        assert runs[0] == runs[1]

    def test_full_run_covers_requested_regions(self):
        c = small_campaign()
        result = c.run(regions=(Region.HEAP, Region.MESSAGE))
        assert set(result.regions) == {Region.HEAP, Region.MESSAGE}
        assert result.total_injections() == 8
        assert result.app_name == "wavetoy"

    def test_run_injection_computes_the_reference_on_demand(self):
        """A hand-made fault runs on a fresh campaign: the reference run
        it is classified against is made on demand."""
        from repro.injection.faults import FaultSpec

        c = small_campaign()
        spec = FaultSpec(Region.MESSAGE, 0, bit=0, target_byte=10**9)
        manifestation, record, _ = c.run_injection(spec, np.random.default_rng(0))
        assert manifestation is Manifestation.CORRECT
        assert not record.delivered
        assert c._reference is not None

    def test_fault_free_determinism_guard(self):
        """Two fresh fault-free runs must classify as CORRECT against the
        reference - otherwise the whole campaign is unsound."""
        c = small_campaign()
        ref = c.reference()
        from repro.mpi.simulator import Job

        result = Job(c.app_factory(), c.config).run()
        from repro.injection.outcomes import classify

        assert classify(result, ref.result) is Manifestation.CORRECT


@pytest.fixture
def oracle_builds(monkeypatch):
    """Every ``MaskingOracle`` built while the test runs."""
    from repro.staticanalysis.propagation.pruning import MaskingOracle

    builds = []
    init = MaskingOracle.__init__

    def counted(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MaskingOracle, "__init__", counted)
    return builds


class TestOneOracle:
    """A campaign builds its masking oracle once, and only when a region
    loop asks it: every region run and the outcome predictor share it."""

    def test_region_runs_and_engines_share_one_build(
        self, monkeypatch, oracle_builds
    ):
        from repro.staticanalysis.propagation.pruning import MaskingOracle

        builds = oracle_builds
        asked = []
        verdict = MaskingOracle.verdict

        def noted(self, spec):
            asked.append(self)
            return verdict(self, spec)

        monkeypatch.setattr(MaskingOracle, "verdict", noted)

        def campaign():
            return Campaign.from_registry(
                "wavetoy", nprocs=SMALL_NPROCS, app_params=SMALL_WAVETOY, seed=5
            )

        first = campaign()
        for region in (Region.TEXT, Region.BSS, Region.MESSAGE):
            first.run_region(region, 2)
        asked.clear()
        with first.engine(stratify=True) as eng:
            eng.run_region(Region.TEXT, 2)
        assert asked and set(asked) == {first.masking_oracle()}
        with first.engine() as eng:
            eng.run_trials([eng.make_spec(Region.HEAP, 0)])
        assert builds == [first.masking_oracle()]
        # A second campaign builds its own oracle, and its predictor
        # uses that oracle.
        second = campaign()
        with second.engine(stratify=True):
            pass
        second.run_region(Region.TEXT, 2)
        assert second.masking_oracle() is second.outcome_predictor().oracle
        assert builds == [first.masking_oracle(), second.masking_oracle()]

    def test_explicit_trials_build_no_oracle(self, oracle_builds, tmp_path):
        """``trace run`` and a distributed worker's engine only run
        explicit trials, which no oracle judges."""
        import json

        from repro.__main__ import main
        from repro.engine.coordination import LeaseExecutor, WorkerClient

        params = ",".join(f"{k}={v}" for k, v in SMALL_WAVETOY.items())
        assert main([
            "trace", "run", "--app", "wavetoy", "--nprocs", str(SMALL_NPROCS),
            "--params", params, "--region", "text,data",
            "--out", str(tmp_path / "trial.json"),
        ]) == 0
        campaign = Campaign.from_registry(
            "wavetoy", nprocs=SMALL_NPROCS, app_params=SMALL_WAVETOY
        )
        manifest = json.loads(json.dumps(LeaseExecutor(campaign).manifest))
        with WorkerClient("127.0.0.1:9")._build_engine(manifest) as engine:
            engine.run_trials([engine.make_spec(Region.TEXT, 0)])
        assert oracle_builds == []


class TestIdentity:
    """The app a campaign's factory builds names the program its trials
    are keyed by: how the factory is written never moves a key, a param
    given at its default value keys as if omitted, and a store of one
    program never answers another's trials."""

    INDICES = (0, 1, 7)

    def keys(self, campaign):
        with campaign.engine() as eng:
            return [
                eng.make_spec(region, index).key
                for region in Region
                for index in self.INDICES
            ]

    def test_every_factory_of_one_program_makes_its_keys(self):
        import functools

        from repro.apps import WavetoyApp

        config = JobConfig(nprocs=2)
        small = [
            Campaign(functools.partial(WavetoyApp, **SMALL_WAVETOY), config, seed=9),
            Campaign(lambda: WavetoyApp(**SMALL_WAVETOY), config, seed=9),
            Campaign.from_registry(
                "wavetoy", nprocs=2, app_params=SMALL_WAVETOY, seed=9
            ),
            Campaign.from_registry(
                "wavetoy", nprocs=2, app_params=dict(SMALL_WAVETOY, damping=0.15),
                seed=9,
            ),
        ]
        keys = [self.keys(c) for c in small]
        assert len(set(keys[0])) == len(Region) * len(self.INDICES)
        assert keys[1:] == [keys[0]] * 3
        assert all(c.app_params == SMALL_WAVETOY for c in small)
        default = self.keys(Campaign.from_registry("wavetoy", nprocs=2, seed=9))
        assert set(default).isdisjoint(keys[0])
        assert self.keys(
            Campaign.from_registry(
                "wavetoy", nprocs=2, app_params={"damping": 0.15}, seed=9
            )
        ) == default

    def test_resume_never_reads_another_programs_trials(self, tmp_path):
        from repro.apps import WavetoyApp

        store = tmp_path / "default.jsonl"
        default = Campaign.from_registry("wavetoy", nprocs=2, seed=9)
        assert default.run_region(Region.MESSAGE, 3, store=store).executed == 3
        small = Campaign(lambda: WavetoyApp(**SMALL_WAVETOY), JobConfig(nprocs=2), seed=9)
        row = small.run_region(Region.MESSAGE, 3, store=store, resume=True)
        assert (row.executed, row.resumed) == (3, 0)
