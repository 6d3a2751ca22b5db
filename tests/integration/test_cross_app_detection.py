"""Cross-application detection scenarios: each app's characteristic
detector, driven end-to-end through the injector."""

import numpy as np
import pytest

from repro.injection.campaign import Campaign
from repro.injection.faults import FaultSpec, Region
from repro.injection.outcomes import Manifestation
from repro.mpi.simulator import Job, JobConfig, JobStatus
from tests.conftest import SMALL_CLIMATE, SMALL_MOLDYN, SMALL_NPROCS


def moldyn():
    from repro.apps import MoldynApp

    return MoldynApp(**SMALL_MOLDYN)


def climate():
    from repro.apps import ClimateApp

    return ClimateApp(**SMALL_CLIMATE)


@pytest.fixture(scope="module")
def cfg():
    return JobConfig(nprocs=SMALL_NPROCS)


class TestMoldynDetectors:
    def test_nan_check_catches_velocity_corruption(self, cfg):
        """A huge exponent flip in the velocity array drives the kinetic
        energy to Inf/NaN; moldyn's per-step NaN check aborts."""
        ref = Job(moldyn(), cfg).run()
        assert ref.completed
        job = Job(moldyn(), cfg)

        def corrupt(j):
            vm = j.vms[1]

            def hook(v):
                # chunk order: cold, x, v, f, ...
                chunks = v.image.heap.user_chunks()
                v_chunk = chunks[2]
                v.image.heap_segment.flip_bit(v_chunk.addr + 40 * 8 + 7, 6)

            vm.schedule_hook(ref.blocks_per_rank[1] // 2, hook)

        job.pre_run_hooks.append(corrupt)
        result = job.run()
        assert result.status is JobStatus.APP_DETECTED
        assert "NaN" in result.detail or "bound" in result.detail

    def test_register_fault_can_crash_moldyn(self, cfg):
        campaign = Campaign(moldyn, cfg)
        ref = campaign.reference().result
        spec = FaultSpec(
            Region.REGULAR_REG, 2,
            time_blocks=ref.blocks_per_rank[2] // 2, bit=27, reg_index=4,
        )
        m, record, _ = campaign.run_injection(spec, np.random.default_rng(0))
        assert record.delivered
        assert m in (Manifestation.CRASH, Manifestation.HANG)


class TestClimateDetectors:
    def test_moisture_check_catches_q_corruption(self, cfg):
        """Flipping the sign bit of a moisture cell drives it below the
        minimum threshold: the QNEG check aborts (the CAM mechanism)."""
        ref = Job(climate(), cfg).run()
        assert ref.completed
        job = Job(climate(), cfg)

        def corrupt(j):
            vm = j.vms[1]

            def hook(v):
                q = v.image.addr_of("cam_Q")
                v.image.bss.flip_bit(q + 5 * 8 + 7, 7)  # sign bit

            vm.schedule_hook(ref.blocks_per_rank[1] // 2, hook)

        job.pre_run_hooks.append(corrupt)
        result = job.run()
        assert result.status is JobStatus.APP_DETECTED
        assert "moisture" in result.detail or "QNEG" in result.detail

    def test_temperature_corruption_is_silent(self, cfg):
        """A modest T perturbation passes the NaN check and lands in the
        binary history output: Incorrect Output, CAM's dominant silent
        mode."""
        ref = Job(climate(), cfg).run()
        assert ref.completed
        job = Job(climate(), cfg)

        def corrupt(j):
            vm = j.vms[2]

            def hook(v):
                t = v.image.addr_of("cam_T")
                v.image.bss.flip_bit(t + 9 * 8 + 5, 3)  # mid-mantissa

            vm.schedule_hook(ref.blocks_per_rank[2] // 2, hook)

        job.pre_run_hooks.append(corrupt)
        result = job.run()
        assert result.status is JobStatus.COMPLETED
        assert result.outputs != ref.outputs  # silent data corruption

    def test_fp_stack_fault_during_physics(self, cfg):
        campaign = Campaign(climate, cfg)
        ref = campaign.reference().result
        outcomes = set()
        for i in range(4):
            spec = FaultSpec(
                Region.FP_REG, 1,
                time_blocks=1 + (ref.blocks_per_rank[1] * i) // 4,
                bit=72, fp_target="st0",
            )
            m, record, _ = campaign.run_injection(spec, np.random.default_rng(i))
            outcomes.add(m)
        assert Manifestation.CORRECT in outcomes or len(outcomes) > 0
