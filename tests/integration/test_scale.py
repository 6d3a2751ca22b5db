"""Scale and soak checks (marked slow): larger rank counts, longer runs."""

import pytest

from repro.mpi.simulator import Job, JobConfig, JobStatus


@pytest.mark.slow
class TestScale:
    def test_wavetoy_sixteen_ranks(self):
        from repro.apps import WavetoyApp

        result = Job(WavetoyApp(), JobConfig(nprocs=16)).run()
        assert result.status is JobStatus.COMPLETED

    def test_moldyn_sixteen_ranks(self):
        from repro.apps import MoldynApp

        result = Job(MoldynApp(), JobConfig(nprocs=16)).run()
        assert result.status is JobStatus.COMPLETED

    def test_climate_sixteen_ranks(self):
        from repro.apps import ClimateApp

        result = Job(ClimateApp(), JobConfig(nprocs=16)).run()
        assert result.status is JobStatus.COMPLETED

    def test_wavetoy_longer_run_amplifies_perturbation(self):
        """Section 6.2: "executing more Cactus Wavetoy iterations will
        almost always yield incorrect outputs (the error amplifies)" -
        with damping disabled, a perturbation visible at few steps stays
        visible at many."""
        from repro.apps import WavetoyApp
        from repro.injection import classify, Manifestation

        params = dict(steps=48, damping=0.0, output_stride=1)
        cfg = JobConfig(nprocs=8)
        ref = Job(WavetoyApp(**params), cfg).run()
        assert ref.completed
        job = Job(WavetoyApp(**params), cfg)

        def corrupt(j):
            vm = j.vms[3]

            def hook(v):
                chunks = v.image.heap.user_chunks()
                ucurr = chunks[3]
                v.image.heap_segment.flip_bit(ucurr.addr + (3 * 96 + 40) * 8 + 6, 4)

            vm.schedule_hook(2000, hook)

        job.pre_run_hooks.append(corrupt)
        result = job.run()
        assert classify(result, ref) is Manifestation.INCORRECT

    def test_rank_counts_change_decomposition_not_physics(self):
        """The gathered wavetoy field must agree (to roundoff) across
        rank counts: decomposition is purely a communication concern."""
        import numpy as np

        from repro.apps import WavetoyApp
        from repro.apps.wavetoy.io import parse_field

        fields = {}
        for n in (2, 4, 8):
            result = Job(
                WavetoyApp(output_precision=12, output_stride=1),
                JobConfig(nprocs=n),
            ).run()
            assert result.status is JobStatus.COMPLETED
            fields[n] = parse_field(result.outputs["wavetoy.out"])
        np.testing.assert_allclose(fields[2], fields[4], rtol=1e-9)
        np.testing.assert_allclose(fields[4], fields[8], rtol=1e-9)
