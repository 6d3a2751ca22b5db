"""Live telemetry serving overhead bound (observability contract).

``campaign run --serve`` must not slow the campaign down.  A served
campaign's telemetry hub is the same sink ``--metrics`` adds: it reads
per-trial metrics (whose collection cost is bounded by
``test_observability_overhead``) and folds each trial under its lock;
*serving* then adds only scrapes, which copy under that lock and
render outside it.  This bench isolates the serving increment: the
same hub-fed campaign runs unserved and served (scraper thread
sweeping all three endpoints) in alternating rounds (:func:`benchmarks.conftest.interleave`) - so
CPU-frequency ramps and container-quota epochs hit both sides alike -
and the median of the per-round served/unserved wall-time ratios must
stay within 5% of 1.
"""

import statistics
import threading
import time
import urllib.request

from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.observability.serve import TelemetryHub, TelemetryServer

from .conftest import interleave

#: Same small-but-real wavetoy as the disabled-path bench: long enough
#: to amortize process startup, short enough for CI.
PARAMS = dict(nx=32, ny=8, steps=6, cold_heap_factor=3, output_stride=1)
NPROCS = 4
SEED = 20040607

#: Trials per region; two regions per run.
N = 12

#: Interleaved measurement rounds (one unserved + one served run each).
ROUNDS = 5

#: Untimed runs before measuring, besides ``interleave``'s one per
#: side: the first seconds on a cold or quota-throttled machine run up
#: to 20% slow, on both sides.
WARMUP_RUNS = 3

#: Pause between scrape sweeps.  Still ~60x harsher than a stock
#: Prometheus scrape interval (seconds to minutes); pushing much below
#: this measures GIL handoff jitter, not serving cost.
SCRAPE_PERIOD = 0.25

OVERHEAD_BOUND = 0.05


def _campaign():
    return Campaign.from_registry(
        "wavetoy", nprocs=NPROCS, app_params=PARAMS, seed=SEED
    )


def _run_regions(engine):
    engine.run_region(Region.STACK, N)
    engine.run_region(Region.HEAP, N)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _unserved_run():
    with _campaign().engine(sinks=[TelemetryHub()]) as eng:
        _run_regions(eng)


class _Scraper:
    """Sweeps /metrics, /status and /progress while armed.

    The thread lives for the whole bench; server startup/teardown and
    thread creation stay outside every timed region (the bound is on
    the *campaign*, and ``TelemetryServer.stop`` otherwise charges the
    stdlib ``shutdown()`` poll interval - up to 500ms - to the run).
    """

    def __init__(self, url):
        self.url = url
        self.armed = threading.Event()
        self.stopped = threading.Event()
        self.sweeps = 0
        self.thread = threading.Thread(target=self._loop)
        self.thread.start()

    def _loop(self):
        while not self.stopped.is_set():
            if not self.armed.wait(timeout=0.05):
                continue
            for endpoint in ("/metrics", "/status", "/progress"):
                urllib.request.urlopen(self.url + endpoint, timeout=10).read()
            self.sweeps += 1
            self.stopped.wait(SCRAPE_PERIOD)

    def stop(self):
        self.stopped.set()
        self.thread.join()


def test_served_campaign_overhead_under_5_percent(capsys):
    hub = TelemetryHub()
    with TelemetryServer(hub) as srv:
        scraper = _Scraper(srv.url)

        def served_run():
            with _campaign().engine(sinks=[hub]) as eng:
                _run_regions(eng)

        def served():
            scraper.armed.set()
            try:
                return _timed(served_run), None
            finally:
                scraper.armed.clear()

        def unserved():
            return _timed(_unserved_run), None

        try:
            for _ in range(WARMUP_RUNS):
                _unserved_run()
            # The served side is the "slow" one: ``speedup`` is then the
            # median of the per-round served/unserved ratios.
            run = interleave(served, unserved, ROUNDS)
        finally:
            scraper.stop()
    assert scraper.sweeps > 0, "scraper never completed a sweep"

    overhead = run.speedup - 1.0
    with capsys.disabled():
        print(
            f"\n=== live telemetry serving overhead ===\n"
            f"unserved (median of {ROUNDS}): "
            f"{statistics.median(run.fast_s) * 1e3:.1f} ms\n"
            f"served + scraped every {SCRAPE_PERIOD * 1e3:.0f} ms "
            f"(median of {ROUNDS}): {statistics.median(run.slow_s) * 1e3:.1f} ms\n"
            f"scrape sweeps completed: {scraper.sweeps}\n"
            f"overhead (median of per-round ratios): {100 * overhead:+.2f}% "
            f"(bound: {100 * OVERHEAD_BOUND:.0f}%)"
        )
    assert overhead < OVERHEAD_BOUND
