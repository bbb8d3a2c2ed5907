"""Piecewise-affine utilities, edge restrictions, payoffs, surplus."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zspersuasion.affine import AffineForm, Constraint
from zspersuasion.beliefs import Belief, belief, degenerate
from zspersuasion.exceptions import NoPieceMatches
from zspersuasion.experiments import (
    StrategyProfile,
    fully_revealing,
    uninformative,
)
from zspersuasion.geometry import piece_regions
from zspersuasion.utilities import (
    GamePayoffs,
    Piece,
    PiecewiseAffineUtility,
    check_zero_sum,
    conditional_payoff,
    edge_restriction,
    normalize_payoffs,
)

from conftest import (
    constant_utility,
    edge_piecewise_utility,
    jump_game,
    negate_utility,
    random_binary_game,
    random_experiment,
    random_prior,
    uniform,
)
from reference import expected_utility, max_total_surplus


def edge_belief(t: Fraction) -> Belief:
    return Belief((1 - t, t))


class TestEvaluation:
    def test_jump_utility_both_branches(self, figure_game):
        u = figure_game.utilities[0]
        # identity below the jump at 3/5, one-minus above it
        for k in range(21):
            t = Fraction(k, 20)
            expected = t if t < Fraction(3, 5) else 1 - t
            assert u(edge_belief(t)) == expected

    def test_first_match_order_decides_overlaps(self):
        low = Constraint(
            AffineForm(Fraction(-1, 2), (Fraction(0), Fraction(1))), "<="
        )
        one = AffineForm(Fraction(1), (Fraction(0), Fraction(0)))
        two = AffineForm(Fraction(2), (Fraction(0), Fraction(0)))
        u = PiecewiseAffineUtility(
            (Piece((low,), one), Piece((), two))
        )
        assert u(edge_belief(Fraction(1, 2))) == 1
        assert u(edge_belief(Fraction(3, 4))) == 2

    def test_uncovered_belief_raises(self):
        never = Constraint(
            AffineForm(Fraction(-2), (Fraction(0), Fraction(1))), ">"
        )
        u = PiecewiseAffineUtility(
            (Piece((never,), AffineForm.zero(2)),)
        )
        with pytest.raises(NoPieceMatches):
            u(uniform(2))
        with pytest.raises(NoPieceMatches):
            piece_regions(u.pieces)

    def test_coverage_gap_at_the_centroid_only(self):
        def diff(l, k):
            return AffineForm(0, tuple(int(m == l) - int(m == k) for m in range(3)))

        guards = [
            (Constraint(diff(0, 1), "<"),),
            (Constraint(diff(0, 1), ">"),),
            (Constraint(diff(0, 1), "=="), Constraint(diff(1, 2), "<")),
            (Constraint(diff(0, 1), "=="), Constraint(diff(1, 2), ">")),
        ]
        u = PiecewiseAffineUtility(
            tuple(Piece(guard, AffineForm.zero(3)) for guard in guards)
        )
        centroid = r'belief \["1/3", "1/3", "1/3"\]$'
        with pytest.raises(NoPieceMatches, match=centroid):
            u(uniform(3))
        with pytest.raises(NoPieceMatches, match=centroid):
            piece_regions(u.pieces)


class TestNormalization:
    def test_idempotent(self):
        rng = random.Random(5)
        g = random_binary_game(rng)
        again = normalize_payoffs(g)
        for u, v in zip(g.utilities, again.utilities):
            for k in range(11):
                b = edge_belief(Fraction(k, 10))
                assert u(b) == v(b)

    def test_zeroes_vertices_and_preserves_zero_sum(self):
        shift = AffineForm(Fraction(0), (Fraction(3), Fraction(-2)))
        base = jump_game()
        tilted = GamePayoffs(
            (
                base.utilities[0].shifted(shift),
                base.utilities[1].shifted(
                    AffineForm(Fraction(0), (Fraction(-3), Fraction(2)))
                ),
            )
        )
        g = normalize_payoffs(tilted)
        for u in g.utilities:
            assert u(degenerate(2, 0)) == 0
            assert u(degenerate(2, 1)) == 0
        assert check_zero_sum(g).ok

    def test_preserves_profile_preferences(self):
        """The normalizing shift has equal expectation under every
        Bayes-plausible experiment, so profile rankings are unchanged."""
        rng = random.Random(17)
        shift = AffineForm(Fraction(0), (Fraction(5), Fraction(-1)))
        u_raw = edge_piecewise_utility(
            [Fraction(0), Fraction(2), Fraction(-1), Fraction(0)]
        ).shifted(shift)
        g_raw = GamePayoffs((u_raw, negate_utility(u_raw)))
        g = normalize_payoffs(g_raw)
        prior = random_prior(2, rng)
        for _ in range(20):
            e1 = random_experiment(prior, rng, splits=2)
            e2 = random_experiment(prior, rng, splits=2)
            p1 = StrategyProfile((e1, e2))
            raw_1 = expected_utility(g_raw, p1, 0)
            norm_1 = expected_utility(g, p1, 0)
            # the gap is the same constant for every profile
            p2 = StrategyProfile((e2, e1))
            assert raw_1 - norm_1 == expected_utility(
                g_raw, p2, 0
            ) - expected_utility(g, p2, 0)


class TestEdgeRestriction:
    def test_breakpoint_at_jump(self, figure_game):
        f = edge_restriction(figure_game.utilities[0], 0, 1)
        assert Fraction(3, 5) in f.breakpoints
        assert f(Fraction(3, 5)) == Fraction(2, 5)
        assert f(Fraction(1, 2)) == Fraction(1, 2)
        assert f(Fraction(4, 5)) == Fraction(1, 5)

    def test_slopes(self, figure_game):
        f = edge_restriction(figure_game.utilities[0], 0, 1)
        assert f.start_slope == 1
        assert f.end_slope == -1

    @given(seed=st.integers(min_value=0, max_value=99_999))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_direct_evaluation(self, seed):
        rng = random.Random(seed)
        g = random_binary_game(rng, resolution=4)
        u = g.utilities[0]
        f = edge_restriction(u, 0, 1)
        for _ in range(100):
            t = Fraction(rng.randint(0, 997), 997)
            assert f(t) == u(edge_belief(t))


class TestPayoffs:
    def test_conditional_payoff_worked_value(self, figure_game):
        """Against an uninformative opponent the conditional payoff at the
        jump point is exactly 2/5."""
        prior = belief(["1/2", "1/2"])
        profile = StrategyProfile((uninformative(prior), uninformative(prior)))
        x = edge_belief(Fraction(3, 5))
        assert conditional_payoff(figure_game, profile, 0, x) == Fraction(2, 5)
        assert conditional_payoff(figure_game, profile, 1, x) == Fraction(-2, 5)

    def test_fully_revealing_profile_zeroes_out(self, figure_game):
        prior = belief(["1/3", "2/3"])
        profile = StrategyProfile(
            (fully_revealing(prior), fully_revealing(prior))
        )
        assert expected_utility(figure_game, profile, 0) == 0
        assert expected_utility(figure_game, profile, 1) == 0

    @given(seed=st.integers(min_value=0, max_value=99_999))
    @settings(max_examples=30, deadline=None)
    def test_expected_utility_decomposes_over_own_atoms(self, seed):
        """U_i equals the own-atom-mass-weighted sum of conditional payoffs."""
        rng = random.Random(seed)
        g = random_binary_game(rng, resolution=4)
        prior = random_prior(2, rng)
        e1 = random_experiment(prior, rng, splits=2)
        e2 = random_experiment(prior, rng, splits=2)
        profile = StrategyProfile((e1, e2))
        for i in range(2):
            total = sum(
                m * conditional_payoff(g, profile, i, x)
                for x, m in profile.experiments[i].atoms
            )
            assert total == expected_utility(g, profile, i)

    def test_zero_sum_conservation_under_any_profile(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_binary_game(rng, resolution=5, n_senders=3)
            prior = random_prior(2, rng)
            profile = StrategyProfile(
                tuple(
                    random_experiment(prior, rng, splits=2) for _ in range(3)
                )
            )
            assert (
                sum(expected_utility(g, profile, i) for i in range(3)) == 0
            )


class TestZeroSumAndSurplus:
    def test_check_zero_sum_catches_violations(self):
        u = edge_piecewise_utility([Fraction(0), Fraction(1), Fraction(0)])
        g = GamePayoffs((u, u))
        result = check_zero_sum(g)
        assert not result.ok
        assert sum(v(result.witness) for v in g.utilities) != 0

    def test_check_zero_sum_catches_a_single_interior_point(self):
        # the pooled sum is 1 at the centroid and 0 everywhere else
        centroid = (
            Constraint(AffineForm(0, (1, -1, 0)), "=="),
            Constraint(AffineForm(0, (0, 1, -1)), "=="),
        )
        u = PiecewiseAffineUtility(
            (
                Piece(centroid, AffineForm(1, (0, 0, 0))),
                Piece((), AffineForm.zero(3)),
            )
        )
        result = check_zero_sum(GamePayoffs((u, constant_utility(3))))
        assert not result.ok
        assert result.witness == uniform(3)

    def test_surplus_attained_at_a_single_interior_point(self):
        # 1 where beta_l >= 1/4 for every l, which is the centroid alone
        quarter = tuple(
            Constraint(
                AffineForm(Fraction(-1, 4), tuple(int(m == l) for m in range(4))),
                ">=",
            )
            for l in range(4)
        )
        u = PiecewiseAffineUtility(
            (
                Piece(quarter, AffineForm(1, (0, 0, 0, 0))),
                Piece((), AffineForm.zero(4)),
            )
        )
        assert max_total_surplus(GamePayoffs((u, constant_utility(4)))) == 1

    def test_surplus_zero_for_zero_sum(self, figure_game):
        assert max_total_surplus(figure_game) == 0

    def test_surplus_of_jump_plus_silent_partner(self, figure_game):
        g = GamePayoffs((figure_game.utilities[0], constant_utility(2)))
        assert max_total_surplus(g) == Fraction(3, 5)

    def test_ternary_exact_surplus(self):
        # tent on the (1,2) edge, zero elsewhere: sup is the peak value 1/2
        tri = edge_piecewise_utility(
            [Fraction(0), Fraction(1, 2), Fraction(0)]
        )
        lifted = PiecewiseAffineUtility(
            tuple(
                Piece(
                    tuple(
                        Constraint(
                            AffineForm(
                                c.expr.const,
                                (Fraction(0),) + c.expr.coeffs[1:]
                                + (Fraction(0),),
                            ),
                            c.op,
                        )
                        for c in p.guard
                    )
                    + (
                        Constraint(
                            AffineForm(
                                Fraction(0),
                                (Fraction(1), Fraction(0), Fraction(0)),
                            ),
                            "==",
                        ),
                    ),
                    AffineForm(
                        p.form.const,
                        (Fraction(0), p.form.coeffs[1], Fraction(0)),
                    ),
                )
                for p in tri.pieces
            )
            + (Piece((), AffineForm.zero(3)),)
        )
        g = GamePayoffs((lifted, constant_utility(3)))
        assert max_total_surplus(g) == Fraction(1, 2)
