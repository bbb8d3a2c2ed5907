"""Brute-force ground truth.

Computes posteriors straight from per-state signal tables, enumerates every
Bayes-plausible grid experiment, and exhaustively scans grid strategy
profiles for profitable deviations and non-revealing equilibria.  Slow by
design; used to validate the closed-form machinery on small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .beliefs import Belief
from .exceptions import EnumerationTooLarge, ZeroProbabilityEvent
from .experiments import (
    Experiment,
    SignalStructure,
    StrategyProfile,
    product,
)
from .utilities import (
    GamePayoffs,
    conditional_payoff_against,
    expected_utility,
    memoized,
)

DEFAULT_ENUMERATION_CAP = 500_000


@dataclass(frozen=True)
class GridSpec:
    """Discretization: beliefs with coordinates in multiples of
    1/belief_resolution, masses in multiples of 1/mass_resolution, at most
    max_support atoms per experiment."""

    belief_resolution: int
    mass_resolution: int
    max_support: int
    cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        if min(self.belief_resolution, self.mass_resolution, self.max_support) < 1:
            raise ValueError("grid resolutions must be >= 1")


def raw_posterior(
    structures: Sequence[SignalStructure],
    realized: Sequence[int | str],
    prior: Belief,
) -> Belief:
    """Posterior by direct Bayes' rule on signal tables:
    Pr(state l | signals) proportional to prior_l * prod_i Pr(s_i | l)."""
    n = prior.n_states
    indices = []
    for structure, s in zip(structures, realized):
        if isinstance(s, str):
            s = structure.signals.index(s)
        indices.append(s)
    weights = []
    for l in range(n):
        w = prior[l]
        for structure, s in zip(structures, indices):
            w *= structure.table[l][s]
        weights.append(w)
    total = sum(weights)
    if total == 0:
        raise ZeroProbabilityEvent("signal tuple has zero joint likelihood")
    return Belief(tuple(w / total for w in weights))


def grid_beliefs(n_states: int, resolution: int) -> list[Belief]:
    """All beliefs with coordinates that are multiples of 1/resolution, in
    lexicographic order of the probability tuples."""
    out = []
    for combo in itertools.combinations(
        range(resolution + n_states - 1), n_states - 1
    ):
        cuts = (-1,) + combo + (resolution + n_states - 1,)
        counts = [b - a - 1 for a, b in zip(cuts, cuts[1:])]
        out.append(Belief(tuple(Fraction(c, resolution) for c in counts)))
    return sorted(out, key=lambda b: b.probs)


def _mass_splits(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # compositions of `total` into `parts` strictly positive integers
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _mass_splits(total - first, parts - 1):
            yield (first,) + rest


def enumeration_bound(n_states: int, grid: GridSpec) -> int:
    """Upper bound on the number of (support, masses) combinations tried."""
    from math import comb

    g = comb(grid.belief_resolution + n_states - 1, n_states - 1)
    total = 0
    for s in range(1, grid.max_support + 1):
        total += comb(g, s) * comb(grid.mass_resolution - 1, s - 1)
    return total


def enumerate_grid_strategies(
    prior: Belief, grid: GridSpec
) -> list[Experiment]:
    """Every Bayes-plausible experiment with grid-belief support and
    grid-resolution masses, in deterministic lexicographic order."""
    if enumeration_bound(prior.n_states, grid) > grid.cap:
        raise EnumerationTooLarge(
            f"grid enumeration bound exceeds cap {grid.cap}"
        )
    beliefs = grid_beliefs(prior.n_states, grid.belief_resolution)
    r = grid.mass_resolution
    out = []
    for size in range(1, grid.max_support + 1):
        for support in itertools.combinations(beliefs, size):
            for split in _mass_splits(r, size):
                mean = tuple(
                    sum(
                        (Fraction(c, r) * b[l] for c, b in zip(split, support)),
                        Fraction(0),
                    )
                    for l in range(prior.n_states)
                )
                if mean != prior.probs:
                    continue
                out.append(
                    Experiment(
                        prior,
                        tuple(
                            (b, Fraction(c, r)) for b, c in zip(support, split)
                        ),
                    )
                )
    return out


@dataclass(frozen=True)
class ScanResult:
    improved: bool
    experiment: Optional[Experiment] = None
    gain: Optional[Fraction] = None


def _joint(experiments: tuple[Experiment, ...], cache: dict) -> Experiment:
    joint = cache.get(experiments)
    if joint is None:
        joint = cache[experiments] = product(experiments)
    return joint


def _deviation_value(
    u: Callable[[Belief], Fraction],
    others: Optional[Experiment],
    e: Experiment,
    payoffs: dict[Belief, Fraction],
) -> Fraction:
    """A sender's expected payoff after replacing her experiment with e,
    against the opponents' joint experiment ``others`` (None when she plays
    alone); ``payoffs`` keeps her conditional payoff at each interim belief
    against these opponents."""
    if others is None:
        return sum((m * u(b) for b, m in e.atoms), Fraction(0))
    total = Fraction(0)
    for b, m in e.atoms:
        w = payoffs.get(b)
        if w is None:
            w = payoffs[b] = conditional_payoff_against(u, others, b)
        total += m * w
    return total


def best_response_scan(
    g: GamePayoffs,
    profile: StrategyProfile,
    i: int,
    grid: GridSpec,
) -> ScanResult:
    """Exhaustive grid deviation search for one sender."""
    base = expected_utility(g, profile, i)
    others = profile.without(i)
    joint = product(others) if others else None
    u = memoized(g.utilities[i])
    payoffs: dict[Belief, Fraction] = {}
    for e in enumerate_grid_strategies(profile.prior, grid):
        value = _deviation_value(u, joint, e, payoffs)
        if value > base:
            return ScanResult(True, e, value - base)
    return ScanResult(False)


@dataclass(frozen=True)
class RevelationScanResult:
    only_fully_revealing: bool
    profile: Optional[StrategyProfile] = None


def full_revelation_scan(
    g: GamePayoffs, prior: Belief, grid: GridSpec
) -> RevelationScanResult:
    """Scans every grid strategy profile; reports the first grid equilibrium
    whose joint posterior distribution is not fully revealing.

    Grid equilibrium is a necessary condition for true equilibrium, so
    "only fully revealing found" at grid scale is evidence, not proof, in
    the direction of full revelation — while any non-revealing grid
    equilibrium it does return survives every grid deviation.
    """
    strategies = enumerate_grid_strategies(prior, grid)
    m = g.n_senders
    if len(strategies) ** m > grid.cap:
        raise EnumerationTooLarge(
            f"{len(strategies)}^{m} profiles exceed cap {grid.cap}"
        )
    # one memo per sender for the whole scan; cache holds joint experiments
    # by their experiments, and conditional payoffs by (sender, opponents)
    values = [memoized(u) for u in g.utilities]
    cache: dict = {}
    for combo in itertools.product(strategies, repeat=m):
        joint = _joint(combo, cache)
        if joint.is_fully_revealing():
            continue
        equilibrium = True
        for i, u in enumerate(values):
            base = sum((m_ * u(b) for b, m_ in joint.atoms), Fraction(0))
            others = combo[:i] + combo[i + 1:]
            against = _joint(others, cache) if others else None
            payoffs = cache.setdefault((i, others), {})
            if any(
                _deviation_value(u, against, e, payoffs) > base
                for e in strategies
            ):
                equilibrium = False
                break
        if equilibrium:
            return RevelationScanResult(False, StrategyProfile(combo))
    return RevelationScanResult(True)
