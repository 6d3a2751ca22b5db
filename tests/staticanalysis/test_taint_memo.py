"""The memoised taint engine against the walk it replaced.

:meth:`TaintAnalysis._run` walks each block through a memo keyed by
``(taint state, instruction position)`` and starts a seeded block from a
prefix memoised per ``(block-entry state, block)``.  The reference below
is the engine before those memos: every query steps every instruction of
every block, sharing only single steps.  A cone is a pure function of
its site, so both must agree on every site - whichever sites earlier
queries on the same analysis happened to warm the memos with.
"""

import collections

import pytest

from repro.apps import APPLICATION_SUITE
from repro.cpu.registers import EAX
from repro.injection.campaign import Campaign
from repro.staticanalysis.dataflow import solve
from repro.staticanalysis.outcomes.predictor import OutcomePredictor
from repro.staticanalysis.propagation.taint import TaintAnalysis, _is_mem_token


class ReferenceTaint:
    """Instruction-by-instruction cones over one analysis's transfer."""

    def __init__(self, analysis: TaintAnalysis) -> None:
        self.analysis = analysis
        self.reachable = analysis.cfg.reachable()
        self.steps: dict = {}

    def step(self, taint, i):
        key = (taint, i)
        if key not in self.steps:
            self.steps[key] = self.analysis._taint_step(taint, i)
        return self.steps[key]

    def run(self, seed_entry, seed_site):
        cfg = self.analysis.cfg

        def transfer(b, taint):
            for i in cfg.blocks[b].insn_indices():
                taint = self.step(taint, i)
                if seed_site is not None and i == seed_site[0]:
                    taint = taint | {f"reg:{seed_site[1]}"}
            return taint

        block_in, block_out = solve(
            cfg, backward=False, boundary=seed_entry, transfer=transfer
        )
        ever, exit_state, saw_exit = set(), set(), False
        for block in cfg.blocks:
            if block.index not in self.reachable:
                continue
            taint = block_in[block.index]
            if block.index == 0:
                taint = taint | seed_entry
            for i in block.insn_indices():
                ever |= taint
                taint = self.step(taint, i)
                if seed_site is not None and i == seed_site[0]:
                    taint = taint | {f"reg:{seed_site[1]}"}
                ever |= taint
            if not block.succs:
                saw_exit = True
                exit_state |= taint
        if not saw_exit:
            for b in self.reachable:
                exit_state |= block_out[b]
        escapes = set()
        for t in ever:
            if t == "stackmem":
                escapes.add("stack")
            elif _is_mem_token(t) or t in ("branch", "wild_store"):
                escapes.add(t)
        for token, name in (("x87", "x87"), ("flags", "flags"), (f"reg:{EAX}", "ret")):
            if token in exit_state:
                escapes.add(name)
        return frozenset(ever), frozenset(escapes)


def kernels(app: str) -> list[TaintAnalysis]:
    program = APPLICATION_SUITE[app]().program()
    return [TaintAnalysis.from_function(fn) for fn in program.functions.values()]


def reachable_sites(analysis: TaintAnalysis) -> list[tuple[int, int]]:
    reachable = analysis.cfg.reachable()
    return [
        (i, reg)
        for i in range(len(analysis.cfg.insns))
        if analysis.cfg.block_of[i] in reachable
        for reg in analysis.written_gprs(i)
    ]


def assert_cone_matches(cone, reference):
    assert (cone.tainted, cone.escapes) == reference, cone.site


#: Every site of wavetoy's kernels; every SAMPLE-th of the larger apps'.
SAMPLE = {"wavetoy": 1, "moldyn": 9, "climate": 9}


@pytest.mark.parametrize("app", sorted(SAMPLE))
def test_site_cones_match_the_instruction_walk(app):
    checked = 0
    for analysis in kernels(app):
        reference = ReferenceTaint(analysis)
        for site in reachable_sites(analysis)[:: SAMPLE[app]]:
            assert_cone_matches(
                analysis.cone_after(*site), reference.run(frozenset(), site)
            )
            checked += 1
    assert checked > 200


@pytest.mark.parametrize("app", sorted(SAMPLE))
def test_token_cones_match_the_instruction_walk(app):
    """Every ``sym:`` token the kernels relocate, plus heap and stack,
    asked after the site queries have warmed the memos."""
    for analysis in kernels(app):
        for site in reachable_sites(analysis)[:: 4 * SAMPLE[app]]:
            analysis.cone_after(*site)
        reference = ReferenceTaint(analysis)
        tokens = {f"sym:{sym}" for sym in analysis.reloc_symbols.values()}
        for token in sorted(tokens) + ["heap", "stack"]:
            seed = "stackmem" if token == "stack" else token
            assert_cone_matches(
                analysis.cone_from_tokens(frozenset({token})),
                reference.run(frozenset({seed}), None),
            )


def test_one_wavetoy_build_solves_each_site_once(monkeypatch):
    """A wavetoy predictor build solves one fixpoint per register site
    (the text strata and the register table share it) and evaluates
    each taint step about once: the instruction walk made 2,504
    fixpoints and 5.78 M step lookups for the same 1,252 sites."""
    campaign = Campaign.from_registry("wavetoy", nprocs=2)
    campaign.reference()
    campaign.masking_oracle()
    fixpoints = collections.Counter()
    steps = collections.Counter()
    run, step = TaintAnalysis._run, TaintAnalysis._taint_step

    def counted_run(self, seed_entry, seed_site, label):
        fixpoints[seed_site is not None] += 1
        return run(self, seed_entry, seed_site, label)

    def counted_step(self, taint, i):
        steps[(id(self), taint, i)] += 1
        return step(self, taint, i)

    monkeypatch.setattr(TaintAnalysis, "_run", counted_run)
    monkeypatch.setattr(TaintAnalysis, "_taint_step", counted_step)
    predictor = OutcomePredictor.from_campaign(campaign)
    sites = sum(
        len(reachable_sites(kernel.taint)) for kernel in predictor.kernels.values()
    )
    assert sites == 1252
    assert fixpoints == {True: sites}
    assert len(steps) < 7000
    assert sum(steps.values()) < 2 * len(steps)
