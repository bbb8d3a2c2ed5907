"""Brute-force ground truth.

Enumerates every Bayes-plausible grid experiment, and exhaustively scans
grid strategy profiles for profitable deviations and non-revealing
equilibria.  Used to validate the closed-form machinery on small instances.

The scans work on grid strategies as integer atoms (k, c), a belief k / R
in grid counts with mass c / r, and build an ``Experiment`` only for a
profile or deviation they return and for the opponents ``product`` folds
when there are three senders or more.  The enumeration solves each
strategy's last atom from the others and the prior.  Whether a profile
reveals the state is read from its atoms' supports, and a sender's payoff
under her own experiment or a deviation is summed from her conditional
payoffs at its atoms, through one ``utilities.Pullback`` per (sender,
opponents' joint), built from the opponents' likelihood rows; each grid
belief's row is computed once per scan.  A grid strategy's payoff against
a pullback is an integer score over a scale common to every grid strategy,
so strategies are compared in integers.

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

from .beliefs import Belief, ray_belief
from .exceptions import EnumerationTooLarge, PreconditionFailed
from .experiments import (
    Experiment,
    StrategyProfile,
    likelihood_row,
    over_one_denominator,
    product,
    ratio_weights,
    uninformative,
)
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


# a grid strategy: its atoms (k, c), the belief k / R in grid counts,
# sum(k) = R the belief resolution, and the mass c / r, r the mass
# resolution, in increasing order of k
GridAtoms = tuple[tuple[tuple[int, ...], int], ...]


def _grid_strategies(prior: Belief, grid: GridSpec) -> Iterator[GridAtoms]:
    """Every Bayes-plausible grid strategy, in the order of
    ``enumerate_grid_strategies``: by support size, then support in
    lexicographic order of the beliefs, then mass split in the order of
    ``_mass_splits``.

    With coordinates k/R and masses c/r, the mean equals the prior iff
    sum_j c_j k_j = t, t = prior * r * R, so a prior off that grid has no
    plausible grid strategy, and the last atom of a support is solved, not
    searched: k_s = (t - sum_{j<s} c_j k_j) / c_s, kept when it is a
    nonnegative integer vector after the support's other beliefs.  It then
    sums to R, since t does to r R.  The enumeration bound is checked
    against the cap first.
    """
    if enumeration_bound(prior.n_states, grid) > grid.cap:
        raise EnumerationTooLarge(
            f"grid enumeration bound exceeds cap {grid.cap}"
        )
    big_r, r = grid.belief_resolution, grid.mass_resolution
    scaled = [p * r * big_r for p in prior.probs]
    if any(t.denominator != 1 for t in scaled):
        return
    target = tuple(t.numerator for t in scaled)
    beliefs = list(grid_counts(prior.n_states, big_r, grid.cap))
    for size in range(1, grid.max_support + 1):
        splits = list(_mass_splits(r, size))
        for prefix in itertools.combinations(beliefs, size - 1):
            solved = []
            for rank, split in enumerate(splits):
                rest = target
                for c, k in zip(split, prefix):
                    rest = [t - c * v for t, v in zip(rest, k)]
                last = split[-1]
                if any(v < 0 or v % last for v in rest):
                    continue
                k = tuple(v // last for v in rest)
                if not prefix or k > prefix[-1]:
                    solved.append((k, rank, split))
            solved.sort()
            for k, _, split in solved:
                yield tuple(zip(prefix + (k,), split))


def _experiment(prior: Belief, grid: GridSpec, atoms: GridAtoms) -> Experiment:
    """A grid strategy as an ``Experiment``."""
    r = grid.mass_resolution
    return Experiment(
        prior, tuple((ray_belief(k), Fraction(c, r)) for k, c in atoms)
    )


def enumerate_grid_strategies(
    prior: Belief, grid: GridSpec
) -> list[Experiment]:
    """Every Bayes-plausible experiment with grid-belief support and
    grid-resolution masses, in deterministic lexicographic order."""
    return [_experiment(prior, grid, a) for a in _grid_strategies(prior, grid)]


class _LikelihoodRows:
    """``Experiment.likelihood_rows`` of grid strategies, from their atoms:
    each grid belief's row Z over D (``experiments.likelihood_row``) is
    computed once, and an atom's mass c / r gives c / (r D) = M / E."""

    def __init__(self, prior: Belief, grid: GridSpec):
        self.r = grid.mass_resolution
        self.weights = ratio_weights(prior)
        self.beliefs: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}

    def row(self, k: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """(Z, D) for the belief k / R."""
        out = self.beliefs.get(k)
        if out is None:
            out = self.beliefs[k] = likelihood_row(k, self.weights)
        return out

    def __call__(self, atoms: GridAtoms):
        """(E, rows) of the grid strategy with these atoms."""
        return over_one_denominator((self.row(k), c, self.r) for k, c in atoms)


@dataclass(frozen=True)
class ScanResult:
    improved: bool
    experiment: Optional[Experiment] = None
    gain: Optional[Fraction] = None


class _Scores:
    """A sender's grid strategies scored against one pullback.  A strategy
    with atoms (k_j, c_j) pays sum_j (c_j / r) payoff(k_j), which
    is the integer sum_j c_j numerator(k_j) over ``scale`` = E Lam R r, the
    same for every grid strategy; strategies compare by that integer.  Each
    grid belief's numerator is computed once."""

    def __init__(self, pullback: Pullback, grid: GridSpec):
        self.pullback = pullback
        self.scale = (
            pullback.denominator * grid.belief_resolution * grid.mass_resolution
        )
        self.numerators: dict[tuple[int, ...], int] = {}

    def __call__(self, atoms: GridAtoms) -> int:
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
    off the grid, is scored as a ``Fraction`` by ``Pullback.expected``."""
    pullback = Pullback(g.utilities[i], profile.opponents(i))
    base = pullback.expected(profile.experiments[i])
    score = _Scores(pullback, grid)
    bar = math.floor(base * score.scale)
    for atoms in _grid_strategies(profile.prior, grid):
        value = score(atoms)
        if value > bar:
            return ScanResult(
                True,
                _experiment(profile.prior, grid, atoms),
                Fraction(value, score.scale) - base,
            )
    return ScanResult(False)


@dataclass(frozen=True)
class RevelationScanResult:
    only_fully_revealing: bool
    profile: Optional[StrategyProfile] = None


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
    whole scan.  A lone opponent's joint is her grid strategy, so its
    likelihood rows come straight from her atoms (``_LikelihoodRows``);
    only two opponents or more are folded by ``product``.

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
    if not (strategies := list(_grid_strategies(prior, grid))):
        raise PreconditionFailed("no grid experiment is Bayes-plausible for the prior")
    m = g.n_senders
    if len(strategies) ** m > grid.cap:
        raise EnumerationTooLarge(
            f"{len(strategies)}^{m} profiles exceed cap {grid.cap}"
        )
    masks = [
        tuple(sum(1 << l for l, v in enumerate(k) if v) for k, _ in atoms)
        for atoms in strategies
    ]
    revealed = [_full_revelation_payoff(u, prior) for u in g.utilities]
    rows = _LikelihoodRows(prior, grid)
    experiments: dict[int, Experiment] = {}

    def experiment(j: int) -> Experiment:
        e = experiments.get(j)
        if e is None:
            e = experiments[j] = _experiment(prior, grid, strategies[j])
        return e

    def joint_rows(others: tuple[int, ...]):
        # a lone sender's opponents, (), reveal nothing
        if len(others) == 1:
            return rows(strategies[others[0]])
        if not others:
            return uninformative(prior).likelihood_rows
        return product([experiment(j) for j in others]).likelihood_rows

    # profiles and opponents are tuples of indices into strategies
    joints: dict[tuple[int, ...], tuple] = {}
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
                    against = joints[others] = joint_rows(others)
                score = _Scores(Pullback.of_rows(g.utilities[i], *against), grid)
                pair = pulled[(i, others)] = (
                    score, math.ceil(revealed[i] * score.scale)
                )
            score, least = pair
            base = score(strategies[own])
            if base < least:
                break
            scored.append((score, base))
        else:
            if not any(
                score(a) > base for score, base in scored for a in strategies
            ):
                return RevelationScanResult(
                    False, StrategyProfile(tuple(experiment(j) for j in combo))
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
