"""The coverage join: linked symbols x declared model x comm skeleton.

The taint engine (:mod:`.taint`) works per kernel; this module lifts its
tokens to app level by joining three independent sources of truth:

* the **linker inventory** - every user symbol the app links, split into
  *hot* (referenced by a kernel relocation, named as a kernel function,
  or declared read by the model) and *cold* (everything else: the
  padding text, lookup tables and staging buffers the paper's Table 1
  sections are mostly made of);
* the app's **propagation model** (:mod:`.model`) - which tokens feed
  the output files, which ride a message corridor, which detectors tap
  what;
* the **communication skeleton** (:mod:`repro.staticanalysis.mpicheck`)
  - the tags and collectives the app actually exercises, so corridor
  declarations are checked against observed traffic rather than
  trusted.

The join's product is :meth:`AppCoverage.paths_from_token`: for a taint
token, every route to app output and the detectors sitting on each
route.  The SA2xx audit passes and the per-site classifier are both thin
consumers of that one query.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.memory.symbols import Linker
from repro.staticanalysis.propagation.model import (
    Corridor,
    DetectorSite,
    PropagationModel,
)

#: nprocs used for skeleton extraction: the smallest job that exercises
#: every corridor (all shipped apps communicate at 2 ranks).
AUDIT_NPROCS = 2


def hot_symbols(program, model: PropagationModel) -> frozenset[str]:
    """The user symbols some kernel can address: those a kernel
    relocation references, the kernels themselves and the model's
    declared reads, less the symbols the model declares cold."""
    referenced = {
        r.symbol for fn in program.functions.values() for r in fn.relocations
    }
    return frozenset(
        referenced | set(program.functions) | set(model.app_read_symbols)
    ) - model.cold_symbols


@dataclass(frozen=True)
class OutputPath:
    """One route from a tainted token to the app's observable output."""

    source: str
    #: ``"direct"`` (token feeds the output files) or
    #: ``"corridor:<token>"`` (taint rides a message to a peer rank).
    route: str
    detectors: tuple[DetectorSite, ...]

    @property
    def covered(self) -> bool:
        return bool(self.detectors)

    def describe(self) -> str:
        dets = (
            "+".join(d.name for d in self.detectors)
            if self.detectors
            else "no detector"
        )
        return f"{self.source} -> {self.route} [{dets}]"


@dataclass(frozen=True)
class AppCoverage:
    app: str
    model: PropagationModel
    #: User symbols a kernel can address (relocation-referenced), the
    #: kernels themselves, and the model's declared reads.
    hot_symbols: frozenset[str]
    #: Remaining user symbols: never addressed by any kernel.
    cold_symbols: frozenset[str]
    #: All user symbols by section, for the audits.
    symbols_by_section: dict[str, frozenset[str]]
    #: Kernel (text) function names.
    kernel_names: frozenset[str]
    #: Point-to-point tags the dry run observed.
    observed_tags: frozenset[int]
    #: Whether the dry run observed any collective.
    observed_collectives: bool
    #: Tag -> payload class from ``app.message_classes()``.
    message_classes: dict[int, str]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, app) -> "AppCoverage":
        """Join the three sources for one application instance."""
        from repro.staticanalysis.mpicheck import extract_skeleton

        program = app.program()
        linker = Linker()
        program.add_to_linker(linker)
        app.add_static_objects(linker)

        by_section: dict[str, set[str]] = {"text": set(), "data": set(), "bss": set()}
        for obj in linker.objects(library="user"):
            by_section[obj.section].add(obj.name)

        kernel_names = frozenset(program.functions)
        model: PropagationModel = app.propagation_model()
        hot = hot_symbols(program, model)
        all_user = frozenset().union(*by_section.values())
        cold = all_user - hot

        skeleton = extract_skeleton(app, AUDIT_NPROCS)
        tags = frozenset(
            e.tag for e in skeleton.sends() if e.tag is not None
        )
        collectives = bool(skeleton.collectives())

        return cls(
            app=model.app,
            model=model,
            hot_symbols=hot,
            cold_symbols=cold,
            symbols_by_section={
                k: frozenset(v) for k, v in by_section.items()
            },
            kernel_names=kernel_names,
            observed_tags=tags,
            observed_collectives=collectives,
            message_classes=dict(app.message_classes()),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_hot(self, token: str) -> bool:
        if token in ("heap", "stack"):
            return True  # dynamically allocated state is always in play
        if token.startswith("sym:"):
            return token.split(":", 1)[1] in self.hot_symbols
        return token.startswith("tag:") or token == "collective"

    def corridor_detectors(self, corridor: Corridor) -> tuple[DetectorSite, ...]:
        """Detectors guarding a corridor: those tapping the corridor's
        own token plus those tapping any of its payload sources (a seal
        computed over the staged bytes guards the message too)."""
        dets = list(self.model.detectors_tapping(corridor.token))
        for src in sorted(corridor.sources):
            for d in self.model.detectors_tapping(src):
                if d not in dets:
                    dets.append(d)
        return tuple(dets)

    def paths_from_token(self, token: str) -> tuple[OutputPath, ...]:
        """Every route from a tainted ``token`` to observable output."""
        paths: list[OutputPath] = []
        if token in self.model.output_sources:
            paths.append(
                OutputPath(token, "direct", self.model.detectors_tapping(token))
            )
        for corridor in self.model.corridors:
            if token in corridor.sources:
                paths.append(
                    OutputPath(
                        token,
                        f"corridor:{corridor.token}",
                        self.corridor_detectors(corridor),
                    )
                )
        return tuple(paths)

    def paths_from_tokens(self, tokens) -> tuple[OutputPath, ...]:
        out: list[OutputPath] = []
        for token in sorted(tokens):
            out.extend(self.paths_from_token(token))
        return tuple(out)


@lru_cache(maxsize=16)
def _cached_coverage(app_name: str, params_key: tuple) -> AppCoverage:
    from repro.apps import APPLICATION_SUITE

    app = APPLICATION_SUITE[app_name](**dict(params_key))
    return AppCoverage.build(app)


def coverage_for(app_name: str, app_params: dict | None = None) -> AppCoverage:
    """Cached app-level coverage (the skeleton dry run dominates)."""
    params_key = tuple(sorted((app_params or {}).items()))
    return _cached_coverage(app_name, params_key)
