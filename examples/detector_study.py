#!/usr/bin/env python3
"""Detector effectiveness study (sections 6.2 and 7).

Compares the molecular-dynamics application *with* and *without* its
NAMD-style message checksums under identical message-fault campaigns:
the checksummed build converts silent corruption and crashes into
Application Detected outcomes at a small runtime cost.  Also
demonstrates the section-7 progress-metric hang detector.

Run:  python examples/detector_study.py [n_injections]
"""

from __future__ import annotations

import sys

from repro import Campaign, JobConfig, Manifestation, MoldynApp, Region
from repro.detectors.progress import ProgressMonitor, ProgressSample
from repro.sampling.plans import CampaignPlan


def message_campaign(checksums: bool, n: int) -> Campaign:
    return Campaign(
        lambda: MoldynApp(checksums=checksums),
        JobConfig(nprocs=8),
        plan=CampaignPlan(per_region={"message": n}),
        seed=1234,  # identical fault sample for both builds
    )


def main(argv: list[str]) -> None:
    n = int(argv[1]) if len(argv) > 1 else 40

    print("=== message-checksum effectiveness (NAMD mechanism) ===")
    campaigns, rows = {}, {}
    for checksums in (True, False):
        label = "with checksums" if checksums else "without checksums"
        campaign = campaigns[checksums] = message_campaign(checksums, n)
        row = rows[checksums] = campaign.run_region(Region.MESSAGE, n)
        t = row.tally
        print(
            f"{label:20s}: error rate {row.error_rate_percent:5.1f}%  "
            f"crash {t.counts[Manifestation.CRASH]:2d}  "
            f"hang {t.counts[Manifestation.HANG]:2d}  "
            f"incorrect {t.counts[Manifestation.INCORRECT]:2d}  "
            f"app-detected {t.counts[Manifestation.APP_DETECTED]:2d}"
        )
    detected = rows[True].tally.counts[Manifestation.APP_DETECTED]
    silent = rows[False].tally.counts[Manifestation.INCORRECT]
    print(
        f"-> checksums converted corruption into detection "
        f"({detected} detected vs {silent} silent without)"
    )

    print("\n=== checksum runtime overhead ===")
    # Each build's fault-free reference run, made once by its campaign.
    with_ck, without = (
        max(campaigns[checksums].reference().blocks_per_rank)
        for checksums in (True, False)
    )
    print(
        f"blocks {without} -> {with_ck}: "
        f"{100 * (with_ck - without) / without:.1f}% overhead "
        f"(NAMD measured ~3%)"
    )

    print("\n=== progress-metric hang detection (section 7) ===")
    monitor = ProgressMonitor(window=4, threshold=0.1)
    for tick in range(1, 11):  # healthy phase at ~1000 blocks/tick
        monitor.record(ProgressSample(tick=tick, blocks=1000 * tick))
    rate = monitor.calibrate()
    for tick in range(11, 25):  # a corrupted loop bound: no progress
        monitor.record(ProgressSample(tick=tick, blocks=10_000))
    print(
        f"calibrated {rate:.0f} blocks/tick; stall begins at tick 10; "
        f"detector fires at tick {monitor.detection_tick()}"
    )
    print("(the job-level budget would need ~2.5x the expected runtime)")


if __name__ == "__main__":
    main(sys.argv)
