"""End-to-end acceptance checks, one test class per criterion."""

import itertools
import random
from fractions import Fraction

import pytest

from zspersuasion.actions import induced_game
from zspersuasion.analysis import (
    classify_full_revelation,
    classify_pooling,
    condition1_report,
    is_zero_on_subsimplex,
    strict_surplus_sufficiency,
)
from zspersuasion.beliefs import Belief, belief, combine, degenerate
from zspersuasion.equilibrium import (
    construct_fully_revealing,
    construct_pooling_equilibrium,
    synthesize_exploit,
    verify_profile,
)
from zspersuasion.exceptions import NotPoolable, PreconditionFailed
from zspersuasion.experiments import StrategyProfile, product, uninformative
from zspersuasion.oracle import (
    GridSpec,
    enumerate_grid_strategies,
    full_revelation_scan,
)
from zspersuasion.scenario import load_scenario
from zspersuasion.utilities import (
    GamePayoffs,
    conditional_payoff,
    normalize_payoffs,
)

from conftest import (
    FIXTURES,
    constant_utility,
    edge_piecewise_utility,
    negate_utility,
    random_binary_game,
    random_experiment,
    random_action_game,
    random_prior,
    random_ternary_game,
    uniform,
)
from reference import (
    best_action,
    classify_action_game,
    expected_utility,
    first_best_check,
    max_total_surplus,
    raw_posterior,
    to_signal_structure,
)


HALF = belief(["1/2", "1/2"])


def single_signed_binary_game(rng: random.Random) -> GamePayoffs:
    """Zero-sum two-state game whose first utility never changes sign, with
    breakpoints at multiples of 1/5; coarse enough for the grid oracle to
    certify every verdict."""
    values = [Fraction(0)] * 6
    j = rng.randint(1, 4)
    sign = rng.choice([-1, 1])
    values[j] = Fraction(sign * rng.randint(1, 2))
    if rng.random() < 0.5:
        j2 = rng.randint(1, 4)
        if j2 != j:
            values[j2] = Fraction(sign * rng.randint(1, 2))
    u = edge_piecewise_utility(values)
    return normalize_payoffs(GamePayoffs((u, negate_utility(u))))


class TestCriterion1PosteriorEngine:
    def test_worked_posterior(self):
        x = belief(["3/5", "2/5"])
        assert combine(HALF, [x, x]) == belief(["9/13", "4/13"])

    def test_worked_product_distribution(self):
        from zspersuasion.experiments import Experiment

        e = Experiment(
            HALF,
            (
                (belief(["3/5", "2/5"]), Fraction(1, 2)),
                (belief(["2/5", "3/5"]), Fraction(1, 2)),
            ),
        )
        joint = product((e, e))
        assert sorted(m for _, m in joint.atoms) == [
            Fraction(13, 50),
            Fraction(13, 50),
            Fraction(12, 25),
        ]
        assert {b.probs for b, _ in joint.atoms} == {
            (Fraction(9, 13), Fraction(4, 13)),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(4, 13), Fraction(9, 13)),
        }

    def test_combine_agrees_with_raw_bayes_on_1000_instances(self):
        rng = random.Random(12345)
        checked = 0
        while checked < 1000:
            n = rng.randint(2, 4)
            prior = random_prior(n, rng)
            m = rng.randint(1, 3)
            exps = [
                random_experiment(prior, rng, splits=rng.randint(0, 2))
                for _ in range(m)
            ]
            if any(len(e.atoms) > 5 for e in exps):
                continue
            structures = [to_signal_structure(e) for e in exps]
            picks = [rng.randrange(len(e.atoms)) for e in exps]
            interim = [e.atoms[j][0] for e, j in zip(exps, picks)]
            if not set.intersection(*(set(b.support) for b in interim)):
                continue
            assert raw_posterior(structures, picks, prior) == combine(
                prior, interim
            )
            checked += 1


class TestCriterion2TrivialEquilibrium:
    def test_full_revelation_pays_zero_and_verifies(self):
        rng = random.Random(777)
        for k in range(100):
            if k % 2 == 0:
                g = random_binary_game(
                    rng, resolution=5, n_senders=rng.choice([2, 3])
                )
                prior = random_prior(2, rng)
            else:
                g = random_ternary_game(rng)
                prior = random_prior(3, rng)
            profile = construct_fully_revealing(prior, g.n_senders)
            for i in range(g.n_senders):
                assert expected_utility(g, profile, i) == 0
            assert verify_profile(g, profile).ok


class TestCriterion3JumpGameReproduction:
    def test_caption_values_at_21_points(self, figure_game):
        u = figure_game.utilities[0]
        for k in range(21):
            t = Fraction(k, 20)
            expected = t if t < Fraction(3, 5) else 1 - t
            assert u(Belief((1 - t, t))) == expected

    def test_conditional_payoff_at_jump(self, figure_game):
        profile = StrategyProfile((uninformative(HALF), uninformative(HALF)))
        x = Belief((Fraction(2, 5), Fraction(3, 5)))
        assert conditional_payoff(figure_game, profile, 0, x) == Fraction(2, 5)

    def test_exploits_every_non_revealing_grid_opponent(self, figure_game):
        candidates = enumerate_grid_strategies(HALF, GridSpec(10, 4, 3))
        exploited = 0
        for gamma2 in candidates:
            if gamma2.is_fully_revealing():
                continue
            profile = StrategyProfile((uninformative(HALF), gamma2))
            cert = synthesize_exploit(figure_game, profile, (0, 1))
            assert cert.payoff > 0
            exploited += 1
        assert exploited >= 10


class TestCriterion4TheoremVsOracle:
    def test_binary_games(self):
        rng = random.Random(20240824)
        prior = uniform(2)
        grid = GridSpec(5, 4, 3)
        for _ in range(50):
            g = single_signed_binary_game(rng)
            report = classify_full_revelation(g)
            scan = full_revelation_scan(g, prior, grid)
            if report.full_revelation:
                assert scan.only_fully_revealing
            else:
                assert not scan.only_fully_revealing
                eq = construct_pooling_equilibrium(
                    g, prior, report.counterexample
                )
                assert verify_profile(g, eq).ok

    def test_ternary_games(self):
        rng = random.Random(5)
        prior = uniform(3)
        grid = GridSpec(4, 3, 3)
        for _ in range(10):
            ag = random_action_game(rng, 3, rng.choice([3, 4]))
            g = normalize_payoffs(induced_game(ag))
            report = classify_full_revelation(g)
            scan = full_revelation_scan(g, prior, grid)
            if report.full_revelation:
                assert scan.only_fully_revealing
            else:
                assert not scan.only_fully_revealing
                eq = construct_pooling_equilibrium(
                    g, prior, report.counterexample
                )
                assert verify_profile(g, eq).ok


class TestCriterion5PoolingDuality:
    SUBSETS = [(0, 1), (0, 2), (1, 2), (0, 1, 2)]

    def games(self):
        rng = random.Random(99)
        out = [random_ternary_game(rng) for _ in range(18)]
        out.append(
            GamePayoffs((constant_utility(3), constant_utility(3)))
        )
        from test_equilibrium import interior_bump_game

        out.append(interior_bump_game())
        return out

    def test_exactly_one_construction_succeeds_per_subset(self):
        prior = belief(["1/6", "1/3", "1/2"])
        quiet = StrategyProfile((uninformative(prior), uninformative(prior)))
        for g in self.games():
            for omega in self.SUBSETS:
                verdict = classify_pooling(g, omega)
                if verdict.never_pooled:
                    with pytest.raises(NotPoolable):
                        construct_pooling_equilibrium(g, prior, omega)
                    cert = synthesize_exploit(g, quiet, omega)
                    assert cert.payoff > 0
                else:
                    eq = construct_pooling_equilibrium(g, prior, omega)
                    assert verify_profile(g, eq).ok
                    with pytest.raises(PreconditionFailed):
                        synthesize_exploit(g, quiet, omega)


class TestCriterion5PoolingDualityActionGames:
    """The same duality on random zero-sum action games of 4 and 5 states,
    over every state subset of size 2 or more."""

    def test_exactly_one_construction_succeeds_per_subset(self):
        rng = random.Random(5)
        pooled = exploited = 0
        for _ in range(8):
            n, a = rng.randint(4, 5), rng.randint(2, 4)
            g = normalize_payoffs(induced_game(random_action_game(rng, n, a)))
            prior = random_prior(n, rng)
            quiet = StrategyProfile((uninformative(prior), uninformative(prior)))
            for size in range(2, n + 1):
                for omega in itertools.combinations(range(n), size):
                    if classify_pooling(g, omega).never_pooled:
                        with pytest.raises(NotPoolable):
                            construct_pooling_equilibrium(g, prior, omega)
                        assert synthesize_exploit(g, quiet, omega).payoff > 0
                        exploited += 1
                    else:
                        eq = construct_pooling_equilibrium(g, prior, omega)
                        assert verify_profile(g, eq, 4).ok
                        with pytest.raises(PreconditionFailed):
                            synthesize_exploit(g, quiet, omega)
                        pooled += 1
        assert pooled > 0 and exploited > 0


class TestCriterion6FiniteActionSuite:
    def test_500_random_action_tables(self):
        rng = random.Random(2718)
        for _ in range(500):
            n = rng.randint(2, 4)
            a = rng.randint(2, 4)
            ag = random_action_game(rng, n, a)
            g = normalize_payoffs(induced_game(ag))
            vertex_actions = [
                best_action(ag, degenerate(n, l)) for l in range(n)
            ]
            # edge-zero verdicts match vertex best-action equality
            for l in range(n):
                for k in range(l + 1, n):
                    all_zero = all(
                        is_zero_on_subsimplex(u, (l, k)).zero
                        for u in g.utilities
                    )
                    assert all_zero == (
                        vertex_actions[l] == vertex_actions[k]
                    )
            # vertex-action classifier agrees with the induced-game one
            cls = classify_action_game(ag)
            report = classify_full_revelation(g)
            assert cls.full_revelation == report.full_revelation
            # constructed equilibria always give the receiver her
            # full-information action
            prior = random_prior(n, rng)
            assert first_best_check(
                ag, construct_fully_revealing(prior, 2)
            ).ok
            if not cls.full_revelation:
                eq = construct_pooling_equilibrium(
                    g, prior, report.counterexample
                )
                assert first_best_check(ag, eq).ok


class TestCriterion7Robustness:
    ZERO_SUM_FIXTURES = ["figure1.json", "example_b51.json"]

    def zero_sum_games(self):
        games = [
            normalize_payoffs(
                load_scenario(str(FIXTURES / name)).payoffs
            )
            for name in self.ZERO_SUM_FIXTURES
        ]
        games.append(
            normalize_payoffs(
                load_scenario(
                    str(FIXTURES / "matching_action_game.json")
                ).payoffs
            )
        )
        return games

    def test_zero_surplus_for_zero_sum_fixtures(self):
        for g in self.zero_sum_games():
            assert max_total_surplus(g) == 0

    def test_strict_surplus_verdicts(self):
        negative = normalize_payoffs(
            load_scenario(str(FIXTURES / "example_b21.json")).payoffs
        )
        assert strict_surplus_sufficiency(negative).holds
        for g in self.zero_sum_games():
            assert not strict_surplus_sufficiency(g).holds


class TestCriterion8Condition1:
    def test_jump_game_satisfied(self, figure_game):
        report = condition1_report(figure_game)
        assert report.overall
        assert report.edges[0] == ((0, 1), True)

    def test_zero_end_slope_bump_not_satisfied(self):
        bump = edge_piecewise_utility(
            [Fraction(0), Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
        )
        g = GamePayoffs((bump, negate_utility(bump)))
        assert not condition1_report(g).overall

    def test_all_zero_game_not_satisfied(self):
        g = GamePayoffs((constant_utility(2), constant_utility(2)))
        assert not condition1_report(g).overall

    def test_stable_across_first_match_preserving_reorderings(self):
        import itertools

        from zspersuasion.affine import AffineForm, Constraint
        from zspersuasion.utilities import Piece, PiecewiseAffineUtility

        third = Constraint(
            AffineForm(Fraction(-1, 3), (Fraction(0), Fraction(1))), "<"
        )
        middle_lo = Constraint(
            AffineForm(Fraction(-1, 3), (Fraction(0), Fraction(1))), ">="
        )
        middle_hi = Constraint(
            AffineForm(Fraction(-2, 3), (Fraction(0), Fraction(1))), "<"
        )
        top = Constraint(
            AffineForm(Fraction(-2, 3), (Fraction(0), Fraction(1))), ">="
        )
        pieces = [
            Piece((third,), AffineForm(Fraction(0), (Fraction(0), Fraction(3)))),
            Piece(
                (middle_lo, middle_hi),
                AffineForm(Fraction(2), (Fraction(0), Fraction(-3))),
            ),
            Piece((top,), AffineForm(Fraction(-1), (Fraction(0), Fraction(1)))),
        ]
        reference = None
        for order in itertools.permutations(pieces):
            u = PiecewiseAffineUtility(tuple(order))
            g = GamePayoffs((u, negate_utility(u)))
            report = condition1_report(g)
            if reference is None:
                reference = report
            else:
                assert report == reference
