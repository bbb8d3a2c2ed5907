"""Brute-force ground truth.

Enumerates every Bayes-plausible grid experiment, and exhaustively scans
grid strategy profiles for profitable deviations and non-revealing
equilibria.  Used to validate the closed-form machinery on small instances.

The scans visit every profile and every deviation, but build no joint
experiment per profile: whether a profile reveals the state is read from
its atoms' supports, and a sender's payoff under her own experiment or a
deviation is summed from her conditional payoffs at its atoms, through one
``utilities.Pullback`` per (sender, opponents' joint).  A grid strategy's
payoff against a pullback is an integer score over a scale common to every
grid strategy, so strategies are compared in integers.

The grid of beliefs with coordinates in multiples of 1/R is built from
integer count vectors (``grid_counts``), counted against the enumeration
cap first.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .beliefs import Belief, ray, ray_belief
from .exceptions import EnumerationTooLarge, PreconditionFailed
from .experiments import Experiment, StrategyProfile, product, uninformative
from .utilities import GamePayoffs, PiecewiseAffineUtility, Pullback

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
        if self.cap < 1:
            raise ValueError("the enumeration cap must be >= 1")


def grid_counts(
    n_states: int, resolution: int, cap: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Every vector of ``n_states`` nonnegative integers summing to
    ``resolution``, in lexicographic order: the grid beliefs, as counts k
    of k / resolution.  The resolution and the number of vectors,
    C(resolution + N - 1, N - 1), against ``cap``
    (``DEFAULT_ENUMERATION_CAP`` when None) are checked when called; the
    vectors are then generated one at a time."""
    if resolution < 1:
        raise ValueError("grid resolution must be >= 1")
    if cap is None:
        cap = DEFAULT_ENUMERATION_CAP
    size = math.comb(resolution + n_states - 1, n_states - 1)
    if size > cap:
        raise EnumerationTooLarge(f"{size} grid beliefs exceed cap {cap}")
    # the n - 1 bar positions among resolution + n - 1 slots, in
    # lexicographic order, give the counts between bars in that order
    slots = resolution + n_states - 1
    return (
        tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
        for bars in itertools.combinations(range(slots), n_states - 1)
    )


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
    g = math.comb(grid.belief_resolution + n_states - 1, n_states - 1)
    total = 0
    for s in range(1, grid.max_support + 1):
        total += math.comb(g, s) * math.comb(grid.mass_resolution - 1, s - 1)
    return total


def enumerate_grid_strategies(
    prior: Belief, grid: GridSpec
) -> list[Experiment]:
    """Every Bayes-plausible experiment with grid-belief support and
    grid-resolution masses, in deterministic lexicographic order.

    Plausibility is tested in integers: with coordinates k/R and masses c/r,
    the mean equals the prior iff sum c*k = prior_l*r*R in every state l, so
    a prior off that grid has no plausible grid experiment at all.
    """
    if enumeration_bound(prior.n_states, grid) > grid.cap:
        raise EnumerationTooLarge(
            f"grid enumeration bound exceeds cap {grid.cap}"
        )
    big_r = grid.belief_resolution
    r = grid.mass_resolution
    scaled = [p * r * big_r for p in prior.probs]
    if any(t.denominator != 1 for t in scaled):
        return []
    targets = [t.numerator for t in scaled]
    beliefs = [
        (ray_belief(k), k) for k in grid_counts(prior.n_states, big_r, grid.cap)
    ]
    out = []
    for size in range(1, grid.max_support + 1):
        for support in itertools.combinations(beliefs, size):
            for split in _mass_splits(r, size):
                if any(
                    sum(c * k[l] for c, (_, k) in zip(split, support)) != t
                    for l, t in enumerate(targets)
                ):
                    continue
                out.append(
                    Experiment(
                        prior,
                        tuple(
                            (b, Fraction(c, r))
                            for c, (b, _) in zip(split, support)
                        ),
                    )
                )
    return out


@dataclass(frozen=True)
class ScanResult:
    improved: bool
    experiment: Optional[Experiment] = None
    gain: Optional[Fraction] = None


def _grid_atoms(
    e: Experiment, grid: GridSpec
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """A grid experiment's atoms as (k, c): the belief k / R in grid counts,
    sum(k) = R the belief resolution, and the mass c / r, r the mass
    resolution."""
    big_r, r = grid.belief_resolution, grid.mass_resolution
    return tuple(
        (
            tuple(p.numerator * (big_r // p.denominator) for p in b.probs),
            m.numerator * (r // m.denominator),
        )
        for b, m in e.atoms
    )


class _Scores:
    """A sender's grid strategies scored against one pullback.  A strategy
    with ``_grid_atoms`` (k_j, c_j) pays sum_j (c_j / r) payoff(k_j), which
    is the integer sum_j c_j numerator(k_j) over ``scale`` = E Lam R r, the
    same for every grid strategy; strategies compare by that integer.  Each
    grid belief's numerator is computed once."""

    def __init__(self, pullback: Pullback, grid: GridSpec):
        self.pullback = pullback
        self.scale = (
            pullback.denominator * grid.belief_resolution * grid.mass_resolution
        )
        self.numerators: dict[tuple[int, ...], int] = {}

    def __call__(self, atoms: Sequence[tuple[tuple[int, ...], int]]) -> int:
        total = 0
        for k, c in atoms:
            v = self.numerators.get(k)
            if v is None:
                v = self.numerators[k] = self.pullback.numerator(k)
            total += c * v
        return total


def best_response_scan(
    g: GamePayoffs,
    profile: StrategyProfile,
    i: int,
    grid: GridSpec,
) -> ScanResult:
    """Exhaustive grid deviation search for one sender.  Every grid strategy
    is scored in integers (``_Scores``); her own experiment, which may lie
    off the grid, is scored as a ``Fraction`` through ``Pullback.payoff``."""
    pullback = Pullback(g.utilities[i], profile.opponents(i))
    base = sum(
        (m * pullback.payoff(ray(b)) for b, m in profile.experiments[i].atoms),
        Fraction(0),
    )
    score = _Scores(pullback, grid)
    bar = math.floor(base * score.scale)
    for e in enumerate_grid_strategies(profile.prior, grid):
        value = score(_grid_atoms(e, grid))
        if value > bar:
            return ScanResult(True, e, Fraction(value, score.scale) - base)
    return ScanResult(False)


@dataclass(frozen=True)
class RevelationScanResult:
    only_fully_revealing: bool
    profile: Optional[StrategyProfile] = None


def _support_masks(e: Experiment) -> tuple[int, ...]:
    """Each atom's support as a bitmask over the states."""
    return tuple(
        sum(1 << l for l, p in enumerate(b.probs) if p) for b, _ in e.atoms
    )


def _reveals_fully(masks: Sequence[tuple[int, ...]]) -> bool:
    """Whether the product of experiments with these atom supports is fully
    revealing, without building it: a tuple of atoms has positive
    probability iff their supports meet, and its posterior's support is
    where they meet, so every tuple must meet in at most one state."""
    for supports in itertools.product(*masks):
        meet = functools.reduce(operator.and_, supports)
        if meet & (meet - 1):
            return False
    return True


def full_revelation_scan(
    g: GamePayoffs, prior: Belief, grid: GridSpec
) -> RevelationScanResult:
    """Scans every grid strategy profile; reports the first grid equilibrium
    whose joint posterior distribution is not fully revealing.

    No profile's joint is built: full revelation is read from the atom
    supports, and each sender's payoff, her own experiment's and every
    deviation's alike, is an integer score against her pullback of the
    opponents' joint (``_Scores``), one per (sender, opponents) for the
    whole scan.

    A sender can always deviate to full revelation, on the grid or off it:
    the joint then reveals the state whatever the others play, and pays her
    sum_l prior_l u(delta_l), which is 0 under ``normalize_payoffs``.  So a
    profile in which some sender's own payoff is below that is no
    equilibrium, and is skipped before any deviation is scored.

    Grid equilibrium is a necessary condition for true equilibrium, so
    "only fully revealing found" at grid scale is evidence, not proof, in
    the direction of full revelation — while any non-revealing grid
    equilibrium it does return survives every grid deviation and full
    revelation.  An empty grid is no evidence: it raises PreconditionFailed.
    """
    if not (strategies := enumerate_grid_strategies(prior, grid)):
        raise PreconditionFailed("no grid experiment is Bayes-plausible for the prior")
    m = g.n_senders
    if len(strategies) ** m > grid.cap:
        raise EnumerationTooLarge(
            f"{len(strategies)}^{m} profiles exceed cap {grid.cap}"
        )
    masks = [_support_masks(e) for e in strategies]
    atoms = [_grid_atoms(e, grid) for e in strategies]
    revealed = [_full_revelation_payoff(u, prior) for u in g.utilities]
    # profiles and opponents are tuples of indices into strategies; a lone
    # sender's opponents, (), reveal nothing
    joints: dict[tuple[int, ...], Experiment] = {(): uninformative(prior)}
    # per (sender, opponents): her scores, and the least score that pays
    # her at least full revelation
    pulled: dict[tuple[int, tuple[int, ...]], tuple[_Scores, int]] = {}
    for combo in itertools.product(range(len(strategies)), repeat=m):
        if _reveals_fully([masks[j] for j in combo]):
            continue
        scored = []
        for i, own in enumerate(combo):
            others = combo[:i] + combo[i + 1:]
            pair = pulled.get((i, others))
            if pair is None:
                against = joints.get(others)
                if against is None:
                    against = joints[others] = product(
                        [strategies[j] for j in others]
                    )
                score = _Scores(Pullback(g.utilities[i], against), grid)
                pair = pulled[(i, others)] = (
                    score, math.ceil(revealed[i] * score.scale)
                )
            score, least = pair
            base = score(atoms[own])
            if base < least:
                break
            scored.append((score, base))
        else:
            if not any(
                score(a) > base for score, base in scored for a in atoms
            ):
                return RevelationScanResult(
                    False, StrategyProfile(tuple(strategies[j] for j in combo))
                )
    return RevelationScanResult(True)


def _full_revelation_payoff(
    u: PiecewiseAffineUtility, prior: Belief
) -> Fraction:
    """A sender's payoff when the joint reveals the state:
    sum_l prior_l u(delta_l), 0 for a normalized utility."""
    return sum(
        (p * v for p, v in zip(prior.probs, u.vertex_values)), Fraction(0)
    )
