"""Brute-force oracle: raw Bayes updates, grid enumeration, deviation scans."""

import random
from fractions import Fraction

import pytest

from zspersuasion.beliefs import belief, combine
from zspersuasion.exceptions import EnumerationTooLarge
from zspersuasion.experiments import (
    StrategyProfile,
    fully_revealing,
    uninformative,
)
from zspersuasion.oracle import (
    GridSpec,
    best_response_scan,
    enumerate_grid_strategies,
    enumeration_bound,
    full_revelation_scan,
)

from conftest import constant_utility, random_experiment, random_prior
from reference import (
    ZeroProbabilityEvent,
    grid_beliefs,
    raw_posterior,
    to_signal_structure,
)


HALF = belief(["1/2", "1/2"])


class TestRawPosterior:
    def test_worked_value(self):
        rng = random.Random(0)
        prior = HALF
        e = random_experiment(prior, rng)
        from zspersuasion.experiments import Experiment

        e = Experiment(
            prior,
            (
                (belief(["3/5", "2/5"]), Fraction(1, 2)),
                (belief(["2/5", "3/5"]), Fraction(1, 2)),
            ),
        )
        s = to_signal_structure(e)
        # the second signal of each structure carries the (3/5, 2/5) atom
        assert raw_posterior([s, s], [1, 1], prior) == belief(["9/13", "4/13"])

    def test_signal_names(self):
        e = fully_revealing(HALF)
        s = to_signal_structure(e)
        by_name = raw_posterior([s], ["s1"], HALF)
        by_index = raw_posterior([s], [1], HALF)
        assert by_name == by_index

    def test_zero_probability(self):
        e = fully_revealing(HALF)
        s = to_signal_structure(e)
        with pytest.raises(ZeroProbabilityEvent):
            raw_posterior([s, s], [0, 1], HALF)


class TestGridEnumeration:
    def test_grid_beliefs_lexicographic(self):
        grid = grid_beliefs(2, 2)
        assert [b.probs for b in grid] == [
            (Fraction(0), Fraction(1)),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1), Fraction(0)),
        ]

    def test_resolution_one_only_reveals(self):
        out = enumerate_grid_strategies(HALF, GridSpec(1, 2, 2))
        assert out == [fully_revealing(HALF)]

    def test_resolution_two(self):
        out = enumerate_grid_strategies(HALF, GridSpec(2, 2, 2))
        assert len(out) == 2
        assert uninformative(HALF) in out
        assert fully_revealing(HALF) in out

    def test_frozen_count(self):
        out = enumerate_grid_strategies(HALF, GridSpec(4, 4, 3))
        assert len(out) == 7
        assert all(e.mean() == HALF for e in out)

    def test_deterministic_order(self):
        a = enumerate_grid_strategies(HALF, GridSpec(4, 4, 3))
        b = enumerate_grid_strategies(HALF, GridSpec(4, 4, 3))
        assert a == b

    def test_cap(self):
        with pytest.raises(EnumerationTooLarge):
            enumerate_grid_strategies(HALF, GridSpec(30, 30, 8, cap=100))
        assert enumeration_bound(2, GridSpec(30, 30, 8)) > 100


class TestScans:
    def test_quiet_pair_improvable_by_trailing_sender(self, figure_game):
        profile = StrategyProfile((uninformative(HALF), uninformative(HALF)))
        result = best_response_scan(
            figure_game, profile, 1, GridSpec(5, 4, 3)
        )
        assert result.improved
        assert result.gain > 0

    def test_leading_sender_cannot_improve_on_quiet_pair(self, figure_game):
        # sender 0's utility is bounded by the belief coordinate, so the
        # quiet profile already pays out its ceiling of 1/2
        profile = StrategyProfile((uninformative(HALF), uninformative(HALF)))
        result = best_response_scan(
            figure_game, profile, 0, GridSpec(5, 4, 3)
        )
        assert not result.improved

    def test_fully_revealing_unimprovable(self, figure_game):
        profile = StrategyProfile(
            (fully_revealing(HALF), fully_revealing(HALF))
        )
        for i in range(2):
            assert not best_response_scan(
                figure_game, profile, i, GridSpec(5, 4, 3)
            ).improved

    def test_jump_game_scan_finds_only_revelation(self, figure_game):
        result = full_revelation_scan(figure_game, HALF, GridSpec(5, 4, 3))
        assert result.only_fully_revealing

    def test_flat_game_scan_finds_pooling(self):
        from zspersuasion.utilities import GamePayoffs

        g = GamePayoffs((constant_utility(2), constant_utility(2)))
        result = full_revelation_scan(g, HALF, GridSpec(2, 2, 2))
        assert not result.only_fully_revealing
        assert result.profile is not None


class TestAgainstCombine:
    def test_posteriors_agree_on_random_instances(self):
        rng = random.Random(97)
        for _ in range(200):
            n = rng.randint(2, 4)
            prior = random_prior(n, rng)
            m = rng.randint(1, 3)
            exps = [
                random_experiment(prior, rng, splits=rng.randint(0, 2))
                for _ in range(m)
            ]
            structures = [to_signal_structure(e) for e in exps]
            picks = [rng.randrange(len(e.atoms)) for e in exps]
            interim = [e.atoms[j][0] for e, j in zip(exps, picks)]
            if not set.intersection(*(set(b.support) for b in interim)):
                continue
            assert raw_posterior(structures, picks, prior) == combine(
                prior, interim
            )
