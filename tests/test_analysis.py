"""Classifiers: face-zero tests, pooling, revelation, slope and surplus
sufficient conditions."""

from fractions import Fraction

import pytest

from zspersuasion import geometry
from zspersuasion.affine import AffineForm, Constraint
from zspersuasion.analysis import (
    classify_full_revelation,
    classify_pooling,
    condition1_report,
    is_zero_on_subsimplex,
    minimal_subsets,
    strict_surplus_sufficiency,
)
from zspersuasion.exceptions import InvariantViolation, NotNormalized
from zspersuasion.scenario import load_scenario
from zspersuasion.utilities import (
    GamePayoffs,
    Piece,
    PiecewiseAffineUtility,
    normalize_payoffs,
)

from conftest import FIXTURES, constant_utility, edge_piecewise_utility, negate_utility


def b51_game() -> GamePayoffs:
    return normalize_payoffs(
        load_scenario(str(FIXTURES / "example_b51.json")).payoffs
    )


class TestZeroOnSubsimplex:
    def test_rejects_unnormalized(self):
        u = PiecewiseAffineUtility(
            (Piece((), AffineForm(Fraction(1), (Fraction(0), Fraction(0)))),)
        )
        with pytest.raises(NotNormalized):
            is_zero_on_subsimplex(u, (0, 1))

    def test_not_normalized_message(self):
        """The error names the first sender and state whose vertex value is
        not zero, with the value as a fraction."""
        raw = load_scenario(str(FIXTURES / "matching_action_game.json")).payoffs
        with pytest.raises(NotNormalized) as caught:
            classify_full_revelation(raw)
        assert str(caught.value) == (
            "utility 0 is 1 at state 0; normalize_payoffs first"
        )
        zero = constant_utility(2)
        tilted = zero.shifted(AffineForm(Fraction(0), (Fraction(0), Fraction(-3, 2))))
        with pytest.raises(NotNormalized) as caught:
            condition1_report(GamePayoffs((zero, tilted)))
        assert str(caught.value) == (
            "utility 1 is -3/2 at state 1; normalize_payoffs first"
        )

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_normalize_payoffs_is_idempotent_on_fixtures(self, name):
        once = normalize_payoffs(load_scenario(str(FIXTURES / name)).payoffs)
        twice = normalize_payoffs(once)
        n = once.n_states
        for u, v in zip(once.utilities, twice.utilities):
            assert v is u
            assert u.vertex_values == (0,) * n
        condition1_report(twice)  # passes the normalization check

    def test_singleton_always_zero(self, figure_game):
        assert is_zero_on_subsimplex(figure_game.utilities[0], (0,)).zero

    def test_edge_with_jump(self, figure_game):
        check = is_zero_on_subsimplex(figure_game.utilities[0], (0, 1))
        assert not check.zero
        assert figure_game.utilities[0](check.witness) != 0

    def test_zero_utility(self):
        assert is_zero_on_subsimplex(constant_utility(3), (0, 1, 2)).zero

    def test_isolated_interior_points(self):
        g = b51_game()
        u0 = g.utilities[0]
        # nonzero only at three isolated edge midpoints
        for omega in [(0, 1), (0, 2), (1, 2)]:
            check = is_zero_on_subsimplex(u0, omega)
            assert not check.zero
            assert u0(check.witness) != 0
        full = is_zero_on_subsimplex(u0, (0, 1, 2))
        assert not full.zero

    def test_face_zero_despite_interior_advantage(self):
        # strictly positive strictly inside, zero on every edge
        interior = tuple(
            Constraint(
                AffineForm(Fraction(0), tuple(
                    Fraction(1) if m == l else Fraction(0) for m in range(3)
                )),
                ">",
            )
            for l in range(3)
        )
        u = PiecewiseAffineUtility(
            (
                Piece(
                    interior,
                    AffineForm(Fraction(-1), (Fraction(1), Fraction(1), Fraction(2))),
                ),
                Piece((), AffineForm.zero(3)),
            )
        )
        for omega in [(0, 1), (0, 2), (1, 2)]:
            assert is_zero_on_subsimplex(u, omega).zero
        check = is_zero_on_subsimplex(u, (0, 1, 2))
        assert not check.zero
        assert u(check.witness) != 0


class TestPoolingAndRevelation:
    def test_jump_game_edge_never_pooled(self, figure_game):
        verdict = classify_pooling(figure_game, (0, 1))
        assert verdict.never_pooled
        assert figure_game.utilities[verdict.witness_sender](
            verdict.witness_belief
        ) > 0

    def test_poolable_when_all_flat(self):
        g = GamePayoffs((constant_utility(2), constant_utility(2)))
        assert not classify_pooling(g, (0, 1)).never_pooled

    def test_nonzero_face_without_a_positive_sender(self):
        # not zero-sum: the first sender is negative inside the edge, the
        # second is zero, so the witness has no sender positive at it
        dip = edge_piecewise_utility([Fraction(0), Fraction(-1), Fraction(0)])
        g = GamePayoffs((dip, constant_utility(2)))
        with pytest.raises(InvariantViolation, match="not zero-sum"):
            classify_pooling(g, (0, 1))

    def test_full_revelation_report(self, figure_game):
        report = classify_full_revelation(figure_game)
        assert report.full_revelation
        assert report.counterexample is None

    def test_b51_all_edges_never_pooled(self):
        report = classify_full_revelation(b51_game())
        assert report.full_revelation
        by_edge = {v.omega: v for v in report.edges}
        assert set(by_edge) == {(0, 1), (0, 2), (1, 2)}
        assert all(v.never_pooled for v in report.edges)
        # the lone advantage on the (1, 2) edge belongs to the second sender
        assert by_edge[(1, 2)].witness_sender == 1
        assert by_edge[(0, 1)].witness_sender == 0
        assert by_edge[(0, 2)].witness_sender == 0

    def test_counterexample_edge(self):
        # nonzero only on the (0, 1) edge: states 0 and 2 are poolable
        tent = edge_piecewise_utility([Fraction(0), Fraction(1), Fraction(0)])
        u = PiecewiseAffineUtility(
            tuple(
                Piece(
                    tuple(
                        Constraint(
                            AffineForm(
                                c.expr.const,
                                (Fraction(0), c.expr.coeffs[1], Fraction(0)),
                            ),
                            c.op,
                        )
                        for c in p.guard
                    )
                    + (
                        Constraint(
                            AffineForm(
                                Fraction(0),
                                (Fraction(0), Fraction(0), Fraction(1)),
                            ),
                            "==",
                        ),
                    ),
                    AffineForm(
                        p.form.const,
                        (Fraction(0), p.form.coeffs[1], Fraction(0)),
                    ),
                )
                for p in tent.pieces
            )
            + (Piece((), AffineForm.zero(3)),)
        )
        g = GamePayoffs((u, negate_utility(u)))
        report = classify_full_revelation(g)
        assert not report.full_revelation
        assert report.counterexample == (0, 2)
        assert minimal_subsets(g) == [(0, 1)]


class TestMinimalSubsets:
    def test_jump_game(self, figure_game):
        assert minimal_subsets(figure_game) == [(0, 1)]

    def test_b51(self):
        assert minimal_subsets(b51_game()) == [(0, 1), (0, 2), (1, 2)]

    def test_all_zero(self):
        g = GamePayoffs((constant_utility(3), constant_utility(3)))
        assert minimal_subsets(g) == []


class TestCondition1:
    def test_jump_game_satisfied(self, figure_game):
        report = condition1_report(figure_game)
        assert report.overall
        assert report.edges == (((0, 1), True),)

    def test_zero_end_slope_bump_not_satisfied(self):
        bump = edge_piecewise_utility(
            [Fraction(0), Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
        )
        g = GamePayoffs((bump, negate_utility(bump)))
        report = condition1_report(g)
        assert not report.overall

    def test_all_zero_not_satisfied(self):
        g = GamePayoffs((constant_utility(2), constant_utility(2)))
        assert not condition1_report(g).overall

    def test_stable_under_piece_reordering(self):
        low = Constraint(
            AffineForm(Fraction(-1, 2), (Fraction(0), Fraction(1))), "<"
        )
        high = Constraint(
            AffineForm(Fraction(-1, 2), (Fraction(0), Fraction(1))), ">="
        )
        rising = AffineForm(Fraction(0), (Fraction(0), Fraction(1)))
        falling = AffineForm(Fraction(0), (Fraction(1), Fraction(0)))
        u_a = PiecewiseAffineUtility(
            (Piece((low,), rising), Piece((high,), falling))
        )
        u_b = PiecewiseAffineUtility(
            (Piece((high,), falling), Piece((low,), rising))
        )
        g_a = GamePayoffs((u_a, negate_utility(u_a)))
        g_b = GamePayoffs((u_b, negate_utility(u_b)))
        assert condition1_report(g_a) == condition1_report(g_b)


class TestStrictSurplus:
    def test_holds_on_strictly_negative_sum(self):
        g = load_scenario(str(FIXTURES / "example_b21.json")).payoffs
        result = strict_surplus_sufficiency(normalize_payoffs(g))
        assert result.holds

    def test_inconclusive_for_zero_sum(self, figure_game):
        result = strict_surplus_sufficiency(figure_game)
        assert not result.holds
        total = sum(u(result.witness) for u in figure_game.utilities)
        assert total >= 0
        assert not result.witness.is_degenerate()

    def test_inconclusive_when_sum_touches_zero_off_vertices(self):
        tent = edge_piecewise_utility([Fraction(0), Fraction(-1), Fraction(0)])
        g = GamePayoffs((tent, constant_utility(2)))
        # the sum is negative strictly inside but we add a utility that
        # cancels it on half the edge
        half = edge_piecewise_utility([Fraction(0), Fraction(1), Fraction(0)])
        g2 = GamePayoffs((tent, half))
        assert strict_surplus_sufficiency(normalize_payoffs(g)).holds
        assert not strict_surplus_sufficiency(normalize_payoffs(g2)).holds

    def test_holds_without_vertex_enumeration(self, monkeypatch):
        # sender 0 is induced by a receiver who plays action 0 where
        # beta_0 >= beta_1 and action 1 elsewhere; sender 1 gets
        # max_l beta_l - 1 minus sender 0, so the sum is negative except at
        # the simplex vertices
        n = 3
        table = [(2, -1, 1), (-1, 3, 0)]  # sender 0's payoff by action, state
        guards = [(Constraint(AffineForm(0, (-1, 1, 0)), "<="),), ()]
        u = PiecewiseAffineUtility(tuple(
            Piece(guard, AffineForm(0, row)) for guard, row in zip(guards, table)
        ))
        v = []
        for l in range(n):
            unit = [int(i == l) for i in range(n)]
            top = tuple(  # beta_j <= beta_l
                Constraint(
                    AffineForm(0, tuple(int(i == j) - unit[i] for i in range(n))), "<="
                )
                for j in range(n)
                if j != l
            )
            v += [
                Piece(top + guard, AffineForm(-1, [e - x for e, x in zip(unit, row)]))
                for guard, row in zip(guards, table)
            ]
        g = normalize_payoffs(GamePayoffs((u, PiecewiseAffineUtility(tuple(v)))))
        calls = []
        enumerate_vertices = geometry.polytope_vertices

        def counted(*args):
            calls.append(args)
            return enumerate_vertices(*args)

        monkeypatch.setattr(geometry, "polytope_vertices", counted)
        assert strict_surplus_sufficiency(g).holds
        assert calls == []
