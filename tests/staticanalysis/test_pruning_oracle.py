"""Masking-oracle verdicts, reason by reason, plus a soundness gate
against real executions: nothing the oracle prunes may ever err, in
any app's statically prunable region."""

import pytest

from repro.engine.trial import Manifestation
from repro.injection.campaign import Campaign
from repro.injection.faults import FaultSpec, Region
from repro.staticanalysis.propagation.pruning import FP_BOOKKEEPING


@pytest.fixture(scope="module")
def campaign():
    return Campaign.from_registry("wavetoy", nprocs=2, seed=77)


@pytest.fixture(scope="module")
def oracle(campaign):
    return campaign.masking_oracle()


@pytest.fixture(scope="module")
def symtab(campaign):
    return campaign.reference().symtab


def addr_in(symtab, name, offset=0):
    return symtab.lookup(name).addr + offset


class TestTextVerdicts:
    def test_cold_padding_text_is_masked(self, oracle, symtab):
        spec = FaultSpec(
            Region.TEXT, rank=0, address=addr_in(symtab, "wt_io_cold", 64)
        )
        v = oracle.verdict(spec)
        assert v.masked and v.reason == "cold-text"

    def test_benign_kernel_bit_is_masked(self, oracle, symtab, campaign):
        # scan the first kernel word for a bit the AVF classifier proves
        # dead; the shipped encodings always have unused operand bits
        base = addr_in(symtab, "wt_step")
        masked = [
            bit
            for bit in range(8)
            for off in range(8)
            if oracle.verdict(
                FaultSpec(Region.TEXT, 0, address=base + off, bit=bit)
            ).reason
            == "benign-text-bit"
        ]
        assert masked

    def test_live_kernel_bits_run(self, oracle, symtab):
        base = addr_in(symtab, "wt_step")
        reasons = {
            oracle.verdict(
                FaultSpec(Region.TEXT, 0, address=base + off, bit=bit)
            ).reason
            for off in range(16)
            for bit in range(8)
        }
        assert "dynamic-target" in reasons

    def test_mpi_library_text_runs(self, oracle, symtab):
        lib = [
            s for s in symtab.symbols(section="text")
            if s.library != "user"
        ]
        assert lib
        spec = FaultSpec(Region.TEXT, 0, address=lib[0].addr)
        assert not oracle.verdict(spec).masked


class TestStaticDataVerdicts:
    def test_cold_symbol_is_masked(self, oracle, symtab):
        spec = FaultSpec(
            Region.DATA, 0, address=addr_in(symtab, "wt_coeff_table", 100)
        )
        v = oracle.verdict(spec)
        assert v.masked and v.reason == "cold-symbol"

    def test_hot_symbol_runs(self, oracle, symtab):
        spec = FaultSpec(Region.DATA, 0, address=addr_in(symtab, "wt_source"))
        assert not oracle.verdict(spec).masked

    def test_cold_bss_is_masked(self, oracle, symtab):
        spec = FaultSpec(
            Region.BSS, 0, address=addr_in(symtab, "wt_workspace", 8)
        )
        assert oracle.verdict(spec).reason == "cold-symbol"


class TestFpVerdicts:
    @pytest.mark.parametrize("target", sorted(FP_BOOKKEEPING))
    def test_bookkeeping_words_are_masked(self, oracle, target):
        spec = FaultSpec(Region.FP_REG, 0, fp_target=target)
        assert oracle.verdict(spec).reason == "fp-bookkeeping"

    @pytest.mark.parametrize("target", ["st0", "st5", "cwd", "swd", "twd"])
    def test_stack_and_control_words_run(self, oracle, target):
        spec = FaultSpec(Region.FP_REG, 0, fp_target=target)
        assert not oracle.verdict(spec).masked


class TestDynamicRegionsNeverPruned:
    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec(Region.HEAP, 0, address=0),
            FaultSpec(Region.STACK, 0),
            FaultSpec(Region.REGULAR_REG, 0, reg_index=0),
            FaultSpec(Region.MESSAGE, 0, target_byte=0),
        ],
        ids=lambda s: s.region.value,
    )
    def test_runs(self, oracle, spec):
        v = oracle.verdict(spec)
        assert not v.masked and v.reason == "dynamic-target"


#: Every campaign prunes, so the oracle's soundness is every campaign's
#: correctness: each app's statically prunable regions are gated.
SOUNDNESS_APPS = ("wavetoy", "moldyn", "climate")
SOUNDNESS_REGIONS = (Region.TEXT, Region.DATA, Region.BSS, Region.FP_REG)


@pytest.fixture(scope="module")
def soundness_campaigns():
    return {
        app: Campaign.from_registry(app, nprocs=2, seed=20040607)
        for app in SOUNDNESS_APPS
    }


class TestSoundness:
    @pytest.mark.parametrize("region", SOUNDNESS_REGIONS, ids=lambda r: r.value)
    @pytest.mark.parametrize("app", SOUNDNESS_APPS)
    def test_every_pruned_fault_is_correct(self, soundness_campaigns, app, region):
        # the differential that matters: execute the faults the
        # campaign's oracle, which every region loop asks, would skip and
        # demand they all come back CORRECT
        campaign = soundness_campaigns[app]
        with campaign.engine() as eng:
            specs = [eng.make_spec(region, i) for i in range(24)]
            verdict = campaign.masking_oracle().verdict
            pruned = [s for s in specs if verdict(s.fault).masked]
            assert pruned  # every one of these regions has cold sites
            for result in eng.run_trials(pruned):
                assert result.manifestation is Manifestation.CORRECT, (
                    result.key,
                    result.detail,
                )
