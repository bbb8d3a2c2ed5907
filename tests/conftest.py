"""Shared builders: the uniform belief, constant utilities, the worked
two-state game, random zero-sum game generators, and random
Bayes-plausible experiments."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from zspersuasion.affine import AffineForm, Constraint
from zspersuasion.beliefs import Belief, belief
from zspersuasion.experiments import Experiment
from zspersuasion.utilities import (
    GamePayoffs,
    Piece,
    PiecewiseAffineUtility,
    normalize_payoffs,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def uniform(n_states: int) -> Belief:
    return Belief(tuple(Fraction(1, n_states) for _ in range(n_states)))


def constant_utility(n_states: int) -> PiecewiseAffineUtility:
    """The utility that is 0 at every belief."""
    return PiecewiseAffineUtility((Piece((), AffineForm.zero(n_states)),))


def negate_utility(u: PiecewiseAffineUtility) -> PiecewiseAffineUtility:
    return PiecewiseAffineUtility(
        tuple(Piece(p.guard, -p.form) for p in u.pieces)
    )


def jump_game() -> GamePayoffs:
    """Two states, two senders.  Sender 0's utility is the probability of
    state 1 below the discontinuity at 3/5 and one minus it from there on;
    sender 1 is the exact opposite."""
    below = Constraint(
        AffineForm(Fraction(-3, 5), (Fraction(0), Fraction(1))), "<"
    )
    u0 = PiecewiseAffineUtility(
        (
            Piece((below,), AffineForm(Fraction(0), (Fraction(0), Fraction(1)))),
            Piece((), AffineForm(Fraction(0), (Fraction(1), Fraction(0)))),
        )
    )
    return normalize_payoffs(GamePayoffs((u0, negate_utility(u0))))


def edge_piecewise_utility(values: list[Fraction]) -> PiecewiseAffineUtility:
    """Two-state utility, continuous piecewise-linear in the probability of
    state 1, hitting ``values`` at the breakpoints k/(len-1)."""
    d = len(values) - 1
    assert values[0] == 0 and values[-1] == 0
    pieces = []
    for k in range(d):
        t0, t1 = Fraction(k, d), Fraction(k + 1, d)
        slope = (values[k + 1] - values[k]) / (t1 - t0)
        form = AffineForm(values[k] - slope * t0, (Fraction(0), slope))
        if k < d - 1:
            guard = (
                Constraint(AffineForm(-t1, (Fraction(0), Fraction(1))), "<"),
            )
        else:
            guard = ()
        pieces.append(Piece(guard, form))
    return PiecewiseAffineUtility(tuple(pieces))


def random_binary_game(
    rng: random.Random, resolution: int = 5, n_senders: int = 2
) -> GamePayoffs:
    """Normalized zero-sum two-state game with continuous piecewise-linear
    utilities breaking at multiples of 1/resolution."""
    from zspersuasion.scenario import _negated_sum

    utilities = []
    for _ in range(n_senders - 1):
        values = (
            [Fraction(0)]
            + [Fraction(rng.randint(-3, 3)) for _ in range(resolution - 1)]
            + [Fraction(0)]
        )
        utilities.append(edge_piecewise_utility(values))
    utilities.append(_negated_sum(utilities))
    return normalize_payoffs(GamePayoffs(tuple(utilities)))


def random_ternary_game(rng: random.Random) -> GamePayoffs:
    """Normalized zero-sum three-state, two-sender game.

    Sender 0's utility has three cells split by thresholds on the first two
    coordinates; each cell's form vanishes at the simplex vertices inside
    the cell, so the game is normalized by construction.
    """
    a = Fraction(rng.randint(1, 3), 4)
    b = Fraction(rng.randint(1, 3), 4)

    def coef() -> Fraction:
        return Fraction(rng.randint(-2, 2))

    le_a = Constraint(AffineForm(-a, (Fraction(1), Fraction(0), Fraction(0))), "<=")
    le_b = Constraint(AffineForm(-b, (Fraction(0), Fraction(1), Fraction(0))), "<=")
    zero = Fraction(0)
    pieces = (
        # contains delta_2 only
        Piece((le_a, le_b), AffineForm(zero, (coef(), coef(), zero))),
        # contains delta_1 only
        Piece((le_a,), AffineForm(zero, (coef(), zero, coef()))),
        # contains delta_0 only
        Piece((), AffineForm(zero, (zero, coef(), coef()))),
    )
    u0 = PiecewiseAffineUtility(pieces)
    return normalize_payoffs(GamePayoffs((u0, negate_utility(u0))))


def random_experiment(
    prior: Belief, rng: random.Random, splits: int = 2
) -> Experiment:
    """Random Bayes-plausible experiment built by repeatedly splitting an
    atom into two mean-preserving halves."""
    atoms = [(prior, Fraction(1))]
    n = prior.n_states
    for _ in range(splits):
        j = rng.randrange(len(atoms))
        base, mass = atoms.pop(j)
        d = [Fraction(rng.randint(-2, 2), 7) for _ in range(n)]
        shift = sum(d) / n
        d = [v - shift for v in d]  # direction sums to zero
        if all(v == 0 for v in d):
            atoms.append((base, mass))
            continue
        scale = Fraction(1)
        for l in range(n):
            if d[l] != 0:
                # keep both base + scale*d and base - scale*d in the simplex
                scale = min(scale, (1 - base[l]) / abs(d[l]), base[l] / abs(d[l]))
        scale = scale / 2
        hi = Belief(tuple(base[l] + scale * d[l] for l in range(n)))
        lo = Belief(tuple(base[l] - scale * d[l] for l in range(n)))
        atoms.extend([(hi, mass / 2), (lo, mass / 2)])
    merged: dict[Belief, Fraction] = {}
    for b, m in atoms:
        merged[b] = merged.get(b, Fraction(0)) + m
    return Experiment(prior, tuple(merged.items()))


def random_prior(n: int, rng: random.Random) -> Belief:
    weights = [rng.randint(1, 6) for _ in range(n)]
    total = sum(weights)
    return belief([Fraction(w, total) for w in weights])


@pytest.fixture
def figure_game() -> GamePayoffs:
    return jump_game()
