"""Finite receiver-action games and their induced persuasion games."""

import random
from fractions import Fraction

import pytest

from zspersuasion.actions import ActionGame, induced_game
from zspersuasion.analysis import classify_full_revelation
from zspersuasion.beliefs import Belief, belief, degenerate
from zspersuasion.equilibrium import construct_fully_revealing
from zspersuasion.exceptions import InvariantViolation
from zspersuasion.experiments import StrategyProfile, uninformative
from zspersuasion.geometry import (
    overlay_regions,
    piece_regions,
    strictly_feasible_point,
)
from zspersuasion.scenario import load_scenario
from zspersuasion.utilities import check_zero_sum, normalize_payoffs

from conftest import FIXTURES, uniform
from reference import (
    best_action,
    classify_action_game,
    first_best_check,
    grid_beliefs,
    induced_payoff,
)


def matching_game() -> ActionGame:
    return load_scenario(str(FIXTURES / "matching_action_game.json")).action_game


def random_action_game(
    rng: random.Random, n: int, a: int, m: int = 2
) -> ActionGame:
    """Random generic zero-sum action game with m senders, the last one
    paid minus the others (resampled until generic)."""
    while True:
        receiver = tuple(
            tuple(Fraction(rng.randint(-20, 20)) for _ in range(n))
            for _ in range(a)
        )
        tables = [
            tuple(
                tuple(Fraction(rng.randint(-20, 20)) for _ in range(n))
                for _ in range(a)
            )
            for _ in range(m - 1)
        ]
        last = tuple(
            tuple(-sum(t[b][l] for t in tables) for l in range(n))
            for b in range(a)
        )
        try:
            return ActionGame(
                tuple(f"a{j}" for j in range(a)), receiver, (*tables, last)
            )
        except InvariantViolation:
            continue


class TestInvariants:
    def test_rejects_non_zero_sum(self):
        with pytest.raises(InvariantViolation):
            ActionGame(
                ("a", "b"),
                ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
                (
                    ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))),
                    ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
                ),
            )

    def test_rejects_receiver_indifference(self):
        with pytest.raises(InvariantViolation):
            ActionGame(
                ("a", "b"),
                ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))),
                (
                    ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1))),
                    ((Fraction(-1), Fraction(1)), (Fraction(1), Fraction(-1))),
                ),
            )


class TestBestAction:
    def test_vertices(self):
        ag = matching_game()
        assert best_action(ag, degenerate(2, 0)) == 0
        assert best_action(ag, degenerate(2, 1)) == 1

    def test_lowest_index_tie_break(self):
        ag = matching_game()
        # at the uniform belief both actions give 1/2; index 0 wins
        assert best_action(ag, uniform(2)) == 0

    def test_induced_utility_matches_pointwise(self):
        rng = random.Random(31)
        for _ in range(25):
            ag = random_action_game(rng, rng.randint(2, 4), rng.randint(2, 4))
            n = ag.n_states
            game = induced_game(ag)
            for i in range(2):
                u = game.utilities[i]
                for _ in range(20):
                    weights = [rng.randint(0, 8) for _ in range(n)]
                    if sum(weights) == 0:
                        weights[0] = 1
                    b = Belief(
                        tuple(
                            Fraction(w, sum(weights)) for w in weights
                        )
                    )
                    assert u(b) == induced_payoff(ag, i, b)

    def test_best_action_regions_are_convex(self):
        rng = random.Random(41)
        for _ in range(20):
            ag = random_action_game(rng, 2, 3)
            picks = []
            for k in range(41):
                t = Fraction(k, 40)
                picks.append(best_action(ag, Belief((1 - t, t))))
            # on an edge, each action's weakly-best region is an interval;
            # with lowest-index tie-breaks the pick changes at most A-1 times
            changes = sum(1 for a, b in zip(picks, picks[1:]) if a != b)
            assert changes <= ag.n_actions - 1


class TestInducedGame:
    def test_zero_sum(self):
        ag = matching_game()
        g = induced_game(ag)
        assert check_zero_sum(g).ok

    def test_classification_agrees_with_induced_analysis(self):
        rng = random.Random(43)
        for _ in range(30):
            ag = random_action_game(rng, rng.randint(2, 3), rng.randint(2, 3))
            cls = classify_action_game(ag)
            g = normalize_payoffs(induced_game(ag))
            report = classify_full_revelation(g)
            assert cls.full_revelation == report.full_revelation

    def test_overlay_sums_forms_on_the_shared_partition(self):
        rng = random.Random(47)
        for _ in range(12):
            n = rng.randint(2, 4)
            ag = random_action_game(rng, n, rng.randint(2, 4), m=3)
            raw = induced_game(ag)
            for g in (raw, normalize_payoffs(raw)):
                # two of the three senders, so the sum is not identically 0
                utilities = g.utilities[:2]
                cells = list(overlay_regions(utilities))
                # one partition: the regions of a single utility
                assert [c for c, _ in cells] == [
                    c for c, _ in piece_regions(utilities[0].pieces)
                ]
                for cell, form in cells:
                    p = Belief(strictly_feasible_point(n, cell))
                    assert form(p) == sum(u(p) for u in utilities)
                # the cells tile the simplex
                for b in grid_beliefs(n, 6):
                    hits = [
                        form for cell, form in cells
                        if all(c.holds(b) for c in cell)
                    ]
                    assert len(hits) == 1, b
                    assert hits[0](b) == sum(u(b) for u in utilities)

    def test_matching_game_fully_revealing(self):
        cls = classify_action_game(matching_game())
        assert cls.full_revelation
        assert cls.vertex_actions == (0, 1)


class TestFirstBest:
    def test_fully_revealing_profile_passes(self):
        ag = matching_game()
        profile = construct_fully_revealing(belief(["1/2", "1/2"]), 2)
        assert first_best_check(ag, profile).ok

    def test_pooling_distinct_actions_fails(self):
        ag = matching_game()
        prior = belief(["1/2", "1/2"])
        profile = StrategyProfile((uninformative(prior), uninformative(prior)))
        result = first_best_check(ag, profile)
        assert not result.ok
        assert result.posterior == prior
