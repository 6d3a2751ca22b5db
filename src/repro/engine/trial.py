"""Trial descriptions: the unit of campaign work.

A trial is a pure function of its campaign and its ``(region,
index)``: :meth:`~repro.engine.driver.CampaignEngine.make_spec` draws
its fault from the per-trial RNG stream of the campaign seed and turns
the pair into a :class:`TrialSpec`.  The spec carries what an executor
needs beyond the campaign's :class:`~repro.engine.core.ExecutionContext`:
the sampled :class:`~repro.injection.faults.FaultSpec` and the exact RNG
state the injector must resume from (so results are bit-identical to
the serial driver no matter which worker runs the trial, or in what
order).  Distributed workers are leased ``[region, index]`` pairs and
sample their specs from their own manifest-built campaign.

Every trial also has a stable *key* - a content hash of
``(app, params, nprocs, config seed, campaign seed, region, index)`` -
used by the :class:`~repro.engine.store.ResultStore` to resume
interrupted or extended campaigns.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.injection.faults import FaultSpec, InjectionRecord, Region
from repro.injection.outcomes import Manifestation
from repro.observability.metrics import MetricsSnapshot


def region_salt(region: Region) -> int:
    """Per-region seed-stream salt.

    crc32, not ``hash()``: str hashing is salted per process and would
    make campaigns irreproducible across runs (and across workers).
    """
    return zlib.crc32(region.value.encode())


def trial_rng(campaign_seed: int, region: Region, index: int) -> np.random.Generator:
    """The deterministic per-trial generator: sampling draws from it
    first, then the injector continues the same stream."""
    return np.random.default_rng([campaign_seed, region_salt(region), index])


def restore_rng(state: dict) -> np.random.Generator:
    """Rebuild a generator from a captured ``bit_generator.state``."""
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def canonical_params(params: dict[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    """Sorted, hash-stable view of the application parameters."""
    return tuple(sorted((params or {}).items()))


def trial_key(
    app: str,
    app_params: tuple[tuple[str, Any], ...] | dict[str, Any] | None,
    nprocs: int,
    config_seed: int,
    campaign_seed: int,
    region: Region,
    index: int,
) -> str:
    """Content hash identifying one trial of one campaign."""
    if isinstance(app_params, dict) or app_params is None:
        app_params = canonical_params(app_params)
    payload = json.dumps(
        {
            "app": app,
            "params": [[k, v] for k, v in app_params],
            "nprocs": nprocs,
            "config_seed": config_seed,
            "campaign_seed": campaign_seed,
            "region": region.value,
            "index": index,
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


@dataclass(frozen=True)
class TrialSpec:
    """One planned injection trial of a campaign, picklable."""

    #: :func:`trial_key` of the campaign's identity and this trial's
    #: ``(region, index)``, computed once where the spec is made.
    key: str
    region: Region
    index: int
    fault: FaultSpec
    #: Captured ``bit_generator.state`` after fault sampling; the
    #: injector resumes this exact stream (bit-identical to the serial
    #: path, independent of worker count and completion order).
    rng_state: dict = field(hash=False)


@dataclass
class TrialResult:
    """The classified outcome of one trial.

    ``record`` holds the full :class:`InjectionRecord` for freshly
    executed trials; results rehydrated from a store carry only the
    summary fields (enough to rebuild tallies and delivery counts).
    """

    key: str
    app: str
    region: Region
    index: int
    manifestation: Manifestation
    delivered: bool
    detail: str = ""
    record: InjectionRecord | None = None
    #: True when this result was loaded from a store instead of executed.
    resumed: bool = False
    #: Fault-propagation timeline digest (see
    #: :mod:`repro.observability.timeline`).  Serialized with the result
    #: so resumed campaigns rebuild identical error-latency histograms.
    injected_at_blocks: int | None = None
    injected_at_insns: int | None = None
    injected_byte: int | None = None
    diverged_at_blocks: int | None = None
    divergence_kind: str | None = None
    latency_blocks: int | None = None
    #: Optional observations, collected by fresh trials only when a
    #: campaign sink reads them (``TrialSink.reads``): the worker-side
    #: metrics snapshot and the trace events.  Both cross the lease
    #: wire but are never serialized to the store.
    metrics: MetricsSnapshot | None = None
    trace_events: list | None = None

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "app": self.app,
            "region": self.region.value,
            "index": self.index,
            "manifestation": self.manifestation.value,
            "delivered": self.delivered,
            "detail": self.detail,
            "injected_at_blocks": self.injected_at_blocks,
            "injected_at_insns": self.injected_at_insns,
            "injected_byte": self.injected_byte,
            "diverged_at_blocks": self.diverged_at_blocks,
            "divergence_kind": self.divergence_kind,
            "latency_blocks": self.latency_blocks,
        }

    @classmethod
    def from_json(cls, obj) -> "TrialResult":
        """The one decoder of a trial record: a store line, a
        ``/submit`` result or an artifact trial event.  Every field
        must have its JSON type (a bool is not an int, ``"false"`` is
        not a bool); anything else raises ``ValueError``, and only
        that, so every reader skips or rejects a bad record the same
        way."""
        if not isinstance(obj, dict):
            raise ValueError(f"not a JSON object: {obj!r:.60}")
        fields = {}
        for name, kinds in _RECORD_FIELDS.items():
            value = obj.get(name)
            if type(value) not in kinds:
                raise ValueError(f"{name} has the wrong type: {value!r:.60}")
            if value is not None:
                fields[name] = value
        fields["region"] = Region(fields["region"])
        fields["manifestation"] = Manifestation(fields["manifestation"])
        return cls(**fields, resumed=True)


_NULL = type(None)

#: The JSON types each field of a trial record may take.  A field that
#: may be null may also be absent; ``detail`` then reads ``""``.
_RECORD_FIELDS = {
    "key": (str,),
    "app": (str,),
    "region": (str,),
    "index": (int,),
    "manifestation": (str,),
    "delivered": (bool,),
    "detail": (str, _NULL),
    "injected_at_blocks": (int, _NULL),
    "injected_at_insns": (int, _NULL),
    "injected_byte": (int, _NULL),
    "diverged_at_blocks": (int, _NULL),
    "divergence_kind": (str, _NULL),
    "latency_blocks": (int, _NULL),
}
