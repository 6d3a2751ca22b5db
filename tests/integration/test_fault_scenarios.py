"""End-to-end fault scenarios: specific mechanisms the paper describes,
each driven through the full stack (app + runtime + injector +
classifier) by ``Campaign.run_injection``, which replays the golden
prefix up to each fault."""

import numpy as np
import pytest

from repro.injection.campaign import Campaign
from repro.injection.faults import FaultSpec, Region
from repro.injection.outcomes import Manifestation
from repro.mpi.simulator import JobConfig
from tests.conftest import SMALL_NPROCS, SMALL_WAVETOY


def wavetoy():
    from repro.apps import WavetoyApp

    return WavetoyApp(**SMALL_WAVETOY)


@pytest.fixture(scope="module")
def cfg():
    return JobConfig(nprocs=SMALL_NPROCS)


@pytest.fixture(scope="module")
def campaign(cfg):
    return Campaign(wavetoy, cfg)


@pytest.fixture(scope="module")
def reference(campaign):
    return campaign.reference().result


def inject(campaign, spec, seed=0):
    return campaign.run_injection(spec, np.random.default_rng(seed))


class TestRegisterScenarios:
    def test_esp_flip_crashes(self, campaign, reference):
        """A corrupted stack pointer derails the next push/pop/ret.

        A single flip can be healed when the epilogue's ``mov esp, ebp``
        overwrites it before any stack access (a genuine masking path),
        so several injection times are sampled: at least one must crash
        or hang."""
        outcomes = []
        for frac in (3, 5, 7):
            spec = FaultSpec(
                Region.REGULAR_REG, 1,
                time_blocks=reference.blocks_per_rank[1] * frac // 10,
                bit=28, reg_index=4,
            )
            m, record, _ = inject(campaign, spec)
            assert record.delivered
            outcomes.append(m)
        assert any(
            m in (Manifestation.CRASH, Manifestation.HANG) for m in outcomes
        )

    def test_fp_inert_special_register_is_benign(self, campaign, reference):
        """FIP holds the last FP instruction pointer; nothing consumes
        it, so flips there never manifest (section 6.1.1)."""
        spec = FaultSpec(
            Region.FP_REG, 0,
            time_blocks=reference.blocks_per_rank[0] // 2,
            bit=9, fp_target="fip",
        )
        m, record, _ = inject(campaign, spec)
        assert record.delivered
        assert m is Manifestation.CORRECT


class TestMemoryScenarios:
    def test_text_flip_before_execution_can_sigill(self, campaign, reference):
        """Flip the opcode byte of the step kernel's first instruction:
        the next fetch decodes a corrupted word."""
        from repro.mpi.simulator import Job

        probe = Job(wavetoy(), campaign.config)
        addr = probe.images[0].addr_of("wt_step")
        spec = FaultSpec(
            Region.TEXT, 0, time_blocks=10, bit=7, address=addr
        )
        m, record, result = inject(campaign, spec)
        assert record.delivered
        assert m in (Manifestation.CRASH, Manifestation.HANG, Manifestation.INCORRECT)

    def test_cold_text_flip_is_benign(self, campaign, reference):
        """Flips in never-executed padding code cannot manifest."""
        from repro.mpi.simulator import Job

        probe = Job(wavetoy(), campaign.config)
        addr = probe.images[0].addr_of("wt_io_cold") + 100
        spec = FaultSpec(Region.TEXT, 0, time_blocks=10, bit=3, address=addr)
        m, record, _ = inject(campaign, spec)
        assert record.delivered
        assert m is Manifestation.CORRECT

    def test_unread_bss_flip_is_benign(self, campaign, reference):
        from repro.mpi.simulator import Job

        probe = Job(wavetoy(), campaign.config)
        addr = probe.images[0].addr_of("wt_workspace") + 64
        spec = FaultSpec(Region.BSS, 0, time_blocks=10, bit=3, address=addr)
        m, record, _ = inject(campaign, spec)
        assert record.delivered
        assert m is Manifestation.CORRECT

    def test_solver_constant_flip_changes_output(self, campaign, reference):
        """The r^2 coefficient is loaded every row: a high-exponent-bit
        flip destabilises the integration."""
        from repro.mpi.simulator import Job

        probe = Job(wavetoy(), campaign.config)
        addr = probe.images[0].addr_of("wt_r2c") + 7  # exponent byte
        spec = FaultSpec(Region.DATA, 0, time_blocks=10, bit=5, address=addr)
        m, record, _ = inject(campaign, spec)
        assert record.delivered
        assert m is not Manifestation.CORRECT


class TestStackScenarios:
    def test_stack_faults_sampleable_every_time(self, campaign, reference):
        """Stack injection must always find live user frames."""
        delivered = 0
        for i in range(6):
            spec = FaultSpec(
                Region.STACK, i % SMALL_NPROCS,
                time_blocks=1 + (reference.blocks_per_rank[0] * i) // 6,
                bit=i % 8,
            )
            _, record, _ = inject(campaign, spec, seed=i)
            delivered += record.delivered
        assert delivered == 6

    def test_descriptor_flip_can_trigger_mpi_detected(self, campaign, reference):
        """Deterministically corrupt an MPI-call descriptor in the stack
        locals: the next send sees an invalid rank and the registered
        error handler fires (the paper's stack->MPI-Detected pathway)."""
        from repro.injection.outcomes import classify
        from repro.mpi.simulator import Job

        job = Job(wavetoy(), campaign.config)

        def corrupt(j):
            # Flip a high bit in rank 1's "up" descriptor (4 bytes before
            # "down"); the next halo exchange reads it back as a huge
            # rank and MPI argument checking rejects it.
            vm = j.vms[1]

            def hook(v):
                image = v.image
                # locals frame is the outermost user frame
                frames = list(image.stack.walk_frames())
                ebp, _ = frames[-1]
                # named fields sit just below EBP; "up" is field index 6
                # of 8 -> offset 4*(8-6) = 8 below EBP
                v.image.stack_segment.flip_bit(ebp - 8, 6)

            vm.schedule_hook(5, hook)

        job.pre_run_hooks.append(corrupt)
        result = job.run()
        m = classify(result, reference)
        assert m is Manifestation.MPI_DETECTED


class TestHeapScenarios:
    def test_hot_array_exponent_flip_manifests(self, campaign, reference):
        """Force the scan to land in u_curr by seeding: across several
        seeds at least one heap fault must manifest (the arrays are hot),
        and at least one must be masked (the cold buffer dominates)."""
        outcomes = []
        for i in range(10):
            spec = FaultSpec(
                Region.HEAP, 0,
                time_blocks=1 + (reference.blocks_per_rank[0] * i) // 10,
                bit=7,
            )
            m, record, _ = inject(campaign, spec, seed=100 + i)
            if record.delivered:
                outcomes.append(m)
        assert outcomes.count(Manifestation.CORRECT) > 0
