"""The golden recording is exact and deterministic.

``_RecordingVM`` keeps one snapshot buffer per writable segment and
diffs 8-byte words before bytes; the reference below is the plain
copy-and-compare diff (fresh copies before every call, a bytewise
comparison after), and both must record the same run identically.
A recording must also not depend on the interpreter that made it.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.apps import ClimateApp, MoldynApp, WavetoyApp
from repro.engine import checkpoint
from repro.mpi.simulator import Job, JobConfig
from tests.conftest import SMALL_CLIMATE, SMALL_MOLDYN, SMALL_NPROCS, SMALL_WAVETOY

APPS = [
    pytest.param(WavetoyApp, SMALL_WAVETOY, id="wavetoy"),
    pytest.param(MoldynApp, SMALL_MOLDYN, id="moldyn"),
    pytest.param(ClimateApp, SMALL_CLIMATE, id="climate"),
]


class CopyCompareRecordingVM(checkpoint._RecordingVM):
    def call(self, function, args=()):
        vm = self._vm
        image = vm.image
        segments = checkpoint._rw_segments(image)
        before = [seg.buf.copy() for seg in segments]
        start_blocks = vm.clock.blocks
        start_insns = vm.instructions_retired
        eax = vm.call(function, args)
        deltas = []
        for i, (seg, old) in enumerate(zip(segments, before)):
            changed = np.flatnonzero(seg.buf != old)
            if changed.size:
                deltas.append(
                    checkpoint.SegDelta(
                        seg=i,
                        indices=changed.astype(np.int64).tobytes(),
                        values=seg.buf[changed].tobytes(),
                    )
                )
        self._sink.append(
            checkpoint.CallRecord(
                round=self._job.rounds,
                name=checkpoint._norm_function(function),
                args=checkpoint._norm_args(args),
                start_blocks=start_blocks,
                end_blocks=vm.clock.blocks,
                start_insns=start_insns,
                end_insns=vm.instructions_retired,
                eax=eax,
                regs=vm.regs.capture_state(),
                fpu=vm.fpu.capture_state(),
                esp=image.stack.esp,
                ebp=image.stack.ebp,
                seg_versions=tuple(seg.version for seg in segments),
                deltas=tuple(deltas),
            )
        )
        return eax


@pytest.mark.parametrize("factory, params", APPS)
def test_recording_equals_copy_and_compare(factory, params, monkeypatch):
    config = JobConfig(nprocs=SMALL_NPROCS)
    result, recording = checkpoint.record_golden(Job(factory(**params), config))
    monkeypatch.setattr(checkpoint, "_RecordingVM", CopyCompareRecordingVM)
    ref_result, reference = checkpoint.record_golden(Job(factory(**params), config))
    assert result.completed and ref_result.completed
    assert any(rec.deltas for per_rank in recording.calls for rec in per_rank)
    assert recording == reference


RECORD = """
import pickle, sys
from repro.apps import MoldynApp
from repro.engine.checkpoint import record_golden
from repro.mpi.simulator import Job, JobConfig
_, recording = record_golden(Job(MoldynApp(**{params!r}), JobConfig(nprocs=2)))
sys.stdout.buffer.write(pickle.dumps(recording))
"""


def test_recording_is_identical_across_interpreters():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = RECORD.format(params=SMALL_MOLDYN)
    a, b = (
        pickle.loads(
            subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True, env=env
            ).stdout
        )
        for _ in range(2)
    )
    assert a.total_calls > 0
    assert a == b
