"""Deliberately broken predictor probes, one per SA3xx code.

Mirrors :mod:`repro.staticanalysis.propagation.fixtures`: the audit
passes are only trustworthy if each can be made to fire on demand.
Every builder starts from the real WaveToy probe and
``dataclasses.replace``-s one specific defect into it; the triggered
code is the builder's name, and :data:`FIXTURES` maps code -> builder
for the drift test that insists every documented code has a triggering
fixture.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from repro.staticanalysis.outcomes.passes import (
    KernelProbe,
    PredictorProbe,
    RegionProbe,
    build_probe,
)


@lru_cache(maxsize=1)
def _base() -> PredictorProbe:
    from repro.injection.campaign import Campaign

    campaign = Campaign.from_registry("wavetoy", nprocs=2)
    return build_probe(campaign.outcome_predictor())


def interval_blindness() -> PredictorProbe:
    """SA301: a kernel whose every access base degraded to TOP."""
    base = _base()
    blind = KernelProbe(
        name="wt_blind_kernel",
        memory_sites=6,
        blind_sites=6,
        loops=1,
        counterless_loops=0,
    )
    return replace(base, kernels=base.kernels + (blind,))


def hang_blindness() -> PredictorProbe:
    """SA302: loops present, no counter recognized in any of them."""
    base = _base()
    blind = KernelProbe(
        name="wt_wild_loop",
        memory_sites=4,
        blind_sites=0,
        loops=2,
        counterless_loops=2,
    )
    return replace(base, kernels=base.kernels + (blind,))


def masked_leak() -> PredictorProbe:
    """SA303: a region claiming masked sites beyond the oracle's proof."""
    base = _base()
    leaky = RegionProbe(
        region="data",
        strata=(("masked", 5), ("sdc-risk", 3)),
        masked_oracle_proven=3,
    )
    regions = tuple(
        leaky if r.region == "data" else r for r in base.regions
    )
    return replace(base, regions=regions)


def starvation() -> PredictorProbe:
    """SA304: a steerable region that is uncertain wall to wall."""
    base = _base()
    starved = RegionProbe(
        region="message",
        strata=(("uncertain", 64),),
        masked_oracle_proven=0,
    )
    regions = tuple(
        starved if r.region == "message" else r for r in base.regions
    )
    return replace(base, regions=regions)


def budget_drift() -> PredictorProbe:
    """SA305: the recorded hang floor no longer matches the budget."""
    base = _base()
    return replace(base, hang_floor=base.hang_floor + 3)


def layout_drift() -> PredictorProbe:
    """SA306: predictor windows diverged from the layout authority."""
    base = _base()
    static_w, stack_w = base.windows
    return replace(
        base, windows=(static_w, (stack_w[0] - 0x1000, stack_w[1]))
    )


#: code -> builder whose audit must report that code.
FIXTURES = {
    "SA301": interval_blindness,
    "SA302": hang_blindness,
    "SA303": masked_leak,
    "SA304": starvation,
    "SA305": budget_drift,
    "SA306": layout_drift,
}
