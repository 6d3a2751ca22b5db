"""Cochran sampling theory as applied in paper section 4.3.

The injection space has three axes - the bit target b, the MPI process m
and the injection time t - of size b x m x t (at least ~3.9e6 points for
the smallest region).  Exhaustive injection being impossible, the paper
draws a random sample of size n chosen so that the estimated proportion p
of each error-manifestation class satisfies

    Pr(|P - p| < d) >= 1 - alpha                                      (1)

With N >> n and p approximately normal,

    n >= P (1 - P) (z_{alpha/2} / d)^2

and because P is unknown, *oversampling* takes P = 0.5 (the maximizer):

    n >= 0.25 (z_{alpha/2} / d)^2

"For each of the test applications, we performed 400-500 injections in
most regions.  With a confidence interval of 95 percent ... the
estimation error d is 4.4-4.9 percent."
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

#: z_{0.025} exactly as stored results, pinned tallies and adaptive
#: stopping points have always used it; ``NormalDist().inv_cdf`` lands
#: two ulps lower (1.9599639845400536).
Z_95 = 1.959963984540054


def z_alpha(alpha: float = 0.05) -> float:
    """Double-tailed alpha point of the standard normal distribution
    (z_{alpha/2}); 1.96 for alpha = 5 %."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1): {alpha}")
    if alpha == 0.05:
        return Z_95
    return NormalDist().inv_cdf(1 - alpha / 2)


def sample_size(d: float, alpha: float = 0.05, p: float = 0.5) -> int:
    """Minimum n for estimation error ``d`` at confidence ``1 - alpha``
    when the true proportion is ``p`` (equation (1) solved for n)."""
    if not 0 < d < 1:
        raise ValueError(f"estimation error d must be in (0, 1): {d}")
    if not 0 <= p <= 1:
        raise ValueError(f"proportion p must be in [0, 1]: {p}")
    z = z_alpha(alpha)
    return math.ceil(p * (1 - p) * (z / d) ** 2)


def sample_size_oversampled(d: float, alpha: float = 0.05) -> int:
    """The paper's oversampling bound: n >= 0.25 (z/d)^2 (P = 0.5)."""
    return sample_size(d, alpha, p=0.5)


def achieved_error(n: int, alpha: float = 0.05) -> float:
    """Estimation error d achieved by ``n`` oversampled injections - the
    inverse of :func:`sample_size_oversampled`.  For n in [400, 500] at
    95 % confidence this is the paper's 4.4-4.9 percent."""
    if n <= 0:
        raise ValueError(f"sample size must be positive: {n}")
    return z_alpha(alpha) * math.sqrt(0.25 / n)


def proportion_ci(
    successes: int, n: int, alpha: float = 0.05
) -> tuple[float, float, float]:
    """``(p, lo, hi)``: the sample proportion and its normal-approximation
    confidence interval (used to annotate campaign tables)."""
    if n <= 0:
        raise ValueError(f"sample size must be positive: {n}")
    if not 0 <= successes <= n:
        raise ValueError(f"successes {successes} outside [0, {n}]")
    p = successes / n
    half = z_alpha(alpha) * math.sqrt(p * (1 - p) / n)
    return p, max(0.0, p - half), min(1.0, p + half)


def stratified_error_rate(
    errors: int, executed: int, pruned: int, pruned_rate: float = 0.0
) -> float:
    """Importance-weighted region error rate when a campaign executes
    only part of its sample: every campaign prunes the sites the
    masking oracle proves masked.

    The sampled faults split into two strata: ``executed`` trials that
    ran, and ``pruned`` trials the masking oracle proved masked.  The
    stratified estimator weights each stratum's rate by its share of
    the sample:

        p = (executed/n) * (errors/executed) + (pruned/n) * pruned_rate

    The oracle's soundness contract makes ``pruned_rate`` *known* to be
    0.0 - a pruned stratum with any other rate would be a proof-rule
    bug, not a sampling artifact - so the estimator reduces to
    ``errors / n``: exactly what falls out of tallying each pruned
    trial as a synthetic CORRECT.  This function is that equivalence,
    written down so the pruning layer's differential tests can assert
    it rather than assume it."""
    if executed < 0 or pruned < 0 or executed + pruned <= 0:
        raise ValueError(
            f"need a nonempty sample: executed={executed} pruned={pruned}"
        )
    if not 0 <= errors <= executed:
        raise ValueError(f"errors {errors} outside [0, {executed}]")
    if not 0 <= pruned_rate <= 1:
        raise ValueError(f"pruned_rate must be in [0, 1]: {pruned_rate}")
    n = executed + pruned
    executed_term = (executed / n) * (errors / executed) if executed else 0.0
    return executed_term + (pruned / n) * pruned_rate


@dataclass(frozen=True)
class StratumCell:
    """One stratum of a stratified region estimate.

    ``population`` counts the classification pool's members landing in
    this stratum (the weight numerator); ``executed``/``errors`` are the
    dynamic trials actually run there.  ``known_zero`` marks strata
    whose error rate is statically *proven* 0 - the predictor's masked
    stratum, backed by the oracle soundness contract - so they need no
    trials and contribute neither rate nor variance.
    """

    name: str
    population: int
    executed: int = 0
    errors: int = 0
    known_zero: bool = False

    @property
    def rate(self) -> float:
        if self.known_zero:
            return 0.0
        return self.errors / self.executed if self.executed else 0.0

    def variance_term(self, floor: bool = True) -> float:
        """``p_h (1 - p_h)`` with the same endpoint clamp the uniform
        adaptive driver applies, so an all-correct pilot cannot report
        zero width and stop a campaign after eight trials."""
        if self.known_zero:
            return 0.0
        if not self.executed:
            return 0.25  # unsampled: worst case
        p = self.rate
        if floor:
            eps = 1.0 / (self.executed + 1)
            p = min(max(p, eps), 1.0 - eps)
        return p * (1.0 - p)


@dataclass(frozen=True)
class StratifiedEstimate:
    """Importance-weighted region estimate over predicted-outcome strata.

    The classification pool is a uniform sample of the region's
    injection space, so stratum weights ``W_h = population_h / pool``
    are unbiased; executing trials *within* strata at any allocation
    and re-weighting by ``W_h`` recovers the unbiased region rate

        p = sum_h W_h p_h

    with half-width

        d = z * sqrt(sum_h W_h^2 p_h (1 - p_h) / n_h)

    which Neyman allocation (:func:`neyman_allocation`) minimizes for a
    given trial budget.  Known-zero strata (the oracle-proven masked
    stratum) carry weight but no variance: their savings are exactly
    the pruning savings of a uniform design, folded into the
    estimator, because the ``masked`` stratum and the pruned sites
    are one proof.
    """

    pool: int
    cells: tuple[StratumCell, ...]
    alpha: float = 0.05

    def weight(self, cell: StratumCell) -> float:
        return cell.population / self.pool if self.pool else 0.0

    @property
    def executed(self) -> int:
        return sum(c.executed for c in self.cells)

    @property
    def error_rate(self) -> float:
        return sum(self.weight(c) * c.rate for c in self.cells)

    @property
    def half_width(self) -> float:
        var = 0.0
        for c in self.cells:
            if c.known_zero:
                continue
            if not c.executed:
                if not c.population:
                    continue
                return float("inf")  # weighted stratum with no data
            var += self.weight(c) ** 2 * c.variance_term() / c.executed
        return z_alpha(self.alpha) * math.sqrt(var)

    @property
    def uniform_equivalent_n(self) -> int:
        """Trials a uniform oversampled Cochran campaign would need to
        guarantee this estimate's half-width - the savings baseline."""
        d = self.half_width
        if not 0.0 < d < 1.0:
            return 0
        return sample_size_oversampled(d, self.alpha)


def neyman_allocation(
    cells: tuple[StratumCell, ...],
    pool: int,
    total: int,
) -> dict[str, int]:
    """Allocate ``total`` further trials across strata minimizing the
    stratified variance: ``n_h`` proportional to ``W_h * s_h`` (Neyman),
    with deterministic largest-remainder rounding and per-stratum caps
    at the remaining unexecuted population (each pool member is one
    concrete, addressable trial spec).  Known-zero and exhausted strata
    get nothing."""
    if total < 0:
        raise ValueError(f"allocation total must be >= 0: {total}")
    live = [
        c for c in cells
        if not c.known_zero and c.population > c.executed
    ]
    scores = {
        c.name: (c.population / pool) * math.sqrt(c.variance_term())
        for c in live
    }
    mass = sum(scores.values())
    out = {c.name: 0 for c in cells}
    if not live or mass <= 0.0 or total == 0:
        return out
    remaining = {c.name: c.population - c.executed for c in live}
    # Iterate until the budget is spent or every stratum is capped;
    # largest-remainder keeps the split deterministic and exact.
    budget = total
    while budget > 0:
        open_cells = [c for c in live if out[c.name] < remaining[c.name]]
        open_mass = sum(scores[c.name] for c in open_cells)
        if not open_cells or open_mass <= 0.0:
            break
        shares = []
        for c in sorted(open_cells, key=lambda c: c.name):
            exact = budget * scores[c.name] / open_mass
            shares.append((c.name, int(exact), exact - int(exact)))
        given = 0
        for name, base, _ in shares:
            take = min(base, remaining[name] - out[name])
            out[name] += take
            given += take
        leftovers = sorted(shares, key=lambda s: (-s[2], s[0]))
        for name, _, _ in leftovers:
            if given >= budget:
                break
            if out[name] < remaining[name]:
                out[name] += 1
                given += 1
        if given == 0:
            break
        budget -= given
    return out


def injection_space_size(bits: int, processes: int, time_points: int) -> int:
    """Size of the b x m x t injection space (section 4.3 computes at
    least 512 x 64 x 120 ~ 3.9e6 for the register region)."""
    for name, v in (("bits", bits), ("processes", processes), ("time_points", time_points)):
        if v <= 0:
            raise ValueError(f"{name} must be positive: {v}")
    return bits * processes * time_points
