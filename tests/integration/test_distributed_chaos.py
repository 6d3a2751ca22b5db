"""Chaos test: a worker dies mid-batch; the campaign doesn't notice.

One coordinator (the engine on a thread of this process, so the test
can watch the lease book) and two real ``python -m repro campaign work``
subprocesses.  The victim worker leases a batch and parks on the
:data:`HOLD_ENV` test hook; the test SIGKILLs it while the lease is
outstanding.  The coordinator must requeue the orphaned batch at its
deadline, the surviving worker must drain everything, and the final
tallies, store and metrics must be identical to a serial local run
of the same campaign - fault tolerance with zero statistical footprint.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.engine.coordination import HOLD_ENV, LeaseExecutor
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.observability.serve import TelemetryHub, TelemetryServer
from tests.conftest import SMALL_NPROCS, SMALL_WAVETOY

REGIONS = (Region.MESSAGE, Region.STACK)
N = 4
LEASE_TIMEOUT = 3.0
DEADLINE = 180.0

SMALL_PARAMS = ",".join(f"{k}={v}" for k, v in SMALL_WAVETOY.items())


def worker_argv(port, name):
    return [
        sys.executable, "-m", "repro", "campaign", "work",
        f"127.0.0.1:{port}", "--name", name, "--poll-interval", "0.2",
    ]


def worker_env(**extra):
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(repo_src)
    env.update(extra)
    return env


def wait_until(predicate, timeout=DEADLINE, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.mark.slow
def test_sigkilled_worker_batch_is_requeued_and_tallies_match(tmp_path):
    campaign = Campaign.from_registry(
        "wavetoy", nprocs=SMALL_NPROCS, app_params=SMALL_WAVETOY
    )
    serial_hub = TelemetryHub()
    reference = campaign.run(
        REGIONS, N, store=tmp_path / "serial.jsonl", sinks=[serial_hub]
    )

    hub = TelemetryHub()
    executor = LeaseExecutor(
        campaign, [hub], batch_size=2, lease_timeout=LEASE_TIMEOUT
    )
    engine = campaign.engine(
        executor=executor,
        sinks=[hub],
        store=tmp_path / "dist.jsonl",
    )
    outcome = {}

    def drive():
        with engine:
            outcome["result"] = engine.run(REGIONS, N)

    coordinator = threading.Thread(target=drive, daemon=True)
    server = TelemetryServer(hub, routes=executor.route).start()
    coordinator.start()
    victim = survivor = None
    try:
        # The victim parks (holding its lease) before executing anything.
        victim = subprocess.Popen(
            worker_argv(server.port, "victim"),
            env=worker_env(**{HOLD_ENV: str(DEADLINE)}),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

        def victim_holds_lease():
            leases = executor.snapshot()["leases"]
            return any(lease["worker"] == "victim" for lease in leases)

        assert wait_until(victim_holds_lease), "victim never leased a batch"
        victim.send_signal(signal.SIGKILL)
        assert victim.wait(timeout=30) == -signal.SIGKILL

        survivor = subprocess.Popen(
            worker_argv(server.port, "survivor"),
            env=worker_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        coordinator.join(timeout=DEADLINE)
        assert not coordinator.is_alive(), (
            f"campaign never completed: {executor.snapshot()}"
        )
        # The engine closed its executor: the survivor is told done.
        _, err = survivor.communicate(timeout=60)
        assert survivor.returncode == 0, err.decode()
    finally:
        for proc in (victim, survivor):
            if proc is not None and proc.poll() is None:
                proc.kill()
        server.stop()

    # The orphaned lease was requeued, not lost.
    assert executor.book.requeues >= 1
    result = outcome["result"]

    # Zero statistical footprint: tallies identical to the serial run...
    for region in REGIONS:
        a, b = reference.regions[region], result.regions[region]
        assert dict(a.tally.counts) == dict(b.tally.counts)
        assert a.delivered == b.delivered
        assert (b.resumed, b.pruned) == (0, 0)

    # ...and the stores hold byte-identical record sets.
    serial = sorted(
        (tmp_path / "serial.jsonl").read_text().splitlines()
    )
    distributed = sorted(
        (tmp_path / "dist.jsonl").read_text().splitlines()
    )
    assert serial == distributed

    # ...and so are the metrics, but for the per-worker pid counter: the
    # victim's batch counts once, from the survivor.
    def metrics(hub):
        return [
            line
            for line in hub.metrics_text().splitlines()
            if "repro_worker_trials_total" not in line
        ]

    assert "repro_vm_blocks_total" in hub.metrics_text()
    assert metrics(serial_hub) == metrics(hub)

    # Every record is a well-formed sorted-keys JSON line (the exact
    # payload the SQLite backend stores too).
    for line in distributed:
        obj = json.loads(line)
        assert line == json.dumps(obj, sort_keys=True)
