#!/usr/bin/env python3
"""Quickstart: run one application, inject one fault, classify it.

This walks the full pipeline of the paper in miniature:

1. run Cactus Wavetoy fault-free to obtain the reference output and the
   execution profile (basic blocks per rank, received message volume,
   the fault dictionary of symbol addresses);
2. arm a single-bit fault - here a flip in a live integer register at a
   random time, the paper's most sensitive region - via the MPI_Init
   wrapper mechanism;
3. run again and classify the outcome into the paper's taxonomy
   (Correct / Crash / Hang / Incorrect / App Detected / MPI Detected).

Every faulted run goes through a ``Campaign``, so it replays the
reference run's golden prefix up to the fault and executes only the
rest.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import Campaign, FaultSpec, JobConfig, Region, WavetoyApp
from repro.memory.layout import TEXT_BASE


def main() -> None:
    config = JobConfig(nprocs=8, seed=42)
    campaign = Campaign(WavetoyApp, config)

    # ------------------------------------------------------------------
    # 1. fault-free reference
    # ------------------------------------------------------------------
    print("running fault-free reference ...")
    profile = campaign.reference()
    reference = profile.result
    blocks = profile.blocks_per_rank
    print(f"  completed in {reference.rounds} scheduler rounds")
    print(f"  basic blocks per rank: {blocks[0]} (x{len(blocks)} ranks)")
    print(f"  output: {len(reference.outputs['wavetoy.out'])} bytes of text")
    print(f"  process image loads at 0x{TEXT_BASE:08x} (the Figure-1 layout)")

    # ------------------------------------------------------------------
    # 2 + 3. inject one bit flip per region and classify
    # ------------------------------------------------------------------
    rng = np.random.default_rng(7)
    print("\none injection per region (single-bit flips):")
    for region in Region:
        rank = int(rng.integers(config.nprocs))
        common = dict(rank=rank, time_blocks=int(rng.integers(1, blocks[rank])))
        if region is Region.REGULAR_REG:
            spec = FaultSpec(region, bit=int(rng.integers(32)),
                             reg_index=int(rng.integers(8)), **common)
        elif region is Region.FP_REG:
            spec = FaultSpec(region, bit=int(rng.integers(80)),
                             fp_target=f"st{int(rng.integers(8))}", **common)
        elif region is Region.MESSAGE:
            volume = 4096  # anywhere in the early traffic
            spec = FaultSpec(region, rank=rank, bit=int(rng.integers(8)),
                             target_byte=int(rng.integers(volume)))
        elif region in (Region.TEXT, Region.DATA, Region.BSS):
            # Sample a user symbol address via the fault dictionary.
            entry = profile.dictionary.sample(region.value, rng)
            spec = FaultSpec(region, bit=int(rng.integers(8)),
                             address=entry.address, **common)
        else:  # heap, stack resolve their targets at injection time
            spec = FaultSpec(region, bit=int(rng.integers(8)), **common)

        manifestation, record, result = campaign.run_injection(
            spec, np.random.default_rng(int(rng.integers(1 << 30)))
        )
        where = record.detail or (record.symbol or "")
        print(
            f"  {region.value:12s} -> {manifestation.value:12s} "
            f"(delivered={record.delivered}, target={where})"
        )

    print("\ndone - see examples/fault_campaign.py for the full Table-2 style sweep")


if __name__ == "__main__":
    main()
