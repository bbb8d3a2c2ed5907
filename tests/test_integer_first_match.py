"""Integer first-match evaluation and edge restrictions against the
``Fraction`` versions they replaced (``reference.evaluate`` and
``reference.edge_restriction``): equal values, equal edge functions and the
same ``NoPieceMatches`` at the same points, on seeded utilities whose guard
boundaries pass through the beliefs evaluated."""

import itertools
import random
from fractions import Fraction

import pytest

from zspersuasion.actions import induced_game
from zspersuasion.affine import OPS, AffineForm, Constraint
from zspersuasion.beliefs import ray_belief
from zspersuasion.exceptions import NoPieceMatches
from zspersuasion.oracle import grid_counts
from zspersuasion.utilities import (
    GamePayoffs,
    Piece,
    PiecewiseAffineUtility,
    edge_restriction,
    normalize_payoffs,
)

import reference
from conftest import random_action_game
from test_first_match import random_form, random_utility

RESOLUTION = {2: 12, 3: 8, 4: 6}


def boundary_form(rng, n):
    """A form with rational coefficients whose zero set passes through a
    grid belief of ``RESOLUTION[n]``."""
    coeffs = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n))
    point = ray_belief(rng.choice(list(grid_counts(n, RESOLUTION[n]))))
    return AffineForm(-sum(c * p for c, p in zip(coeffs, point)), coeffs)


def hand_built_utility(rng, n):
    """One to four pieces guarded by one to three constraints of every op,
    each tight at some grid belief; a catch-all last piece unless the draw
    leaves room for a coverage gap."""
    pieces = [
        Piece(
            tuple(
                Constraint(boundary_form(rng, n), rng.choice(OPS))
                for _ in range(rng.randint(1, 3))
            ),
            boundary_form(rng, n),
        )
        for _ in range(rng.randint(1, 4))
    ]
    if rng.random() < 0.6:
        pieces.append(Piece((), random_form(rng, n)))
    return PiecewiseAffineUtility(tuple(pieces))


def seeded_utilities():
    rng = random.Random(20261019)
    out = []
    for n in RESOLUTION:
        for _ in range(12):
            out.append(hand_built_utility(rng, n))
            out.append(random_utility(rng, n))
        for a in (2, 3):
            g = induced_game(random_action_game(rng, n, a))
            out += g.utilities + normalize_payoffs(g).utilities
    return out


UTILITIES = seeded_utilities()


def outcome(f, *args):
    """f's value, or the message of the NoPieceMatches it raises."""
    try:
        return f(*args)
    except NoPieceMatches as exc:
        return ("NoPieceMatches", str(exc))


class TestEvaluation:
    def test_equal_values_and_gaps_at_every_grid_belief(self):
        boundary_hits = gaps = 0
        for u in UTILITIES:
            n = u.n_states
            for k in grid_counts(n, RESOLUTION[n]):
                b = ray_belief(k)
                expected = outcome(reference.evaluate, u, b)
                assert outcome(u, b) == expected, (u, b)
                gaps += isinstance(expected, tuple)
                boundary_hits += any(
                    c.expr(b) == 0 for p in u.pieces for c in p.guard
                )
        # the draw exercises guard boundaries and coverage gaps
        assert boundary_hits > 500 and gaps > 100, (boundary_hits, gaps)

    def test_vertex_values_are_kept_once(self):
        """Read off the guards and forms, they are the values at the
        vertices, or the NoPieceMatches of the first vertex with none; a
        utility ``normalize_payoffs`` shifts starts with zeros, which
        evaluation confirms."""
        gaps = shifted = 0
        for u in UTILITIES:
            n = u.n_states
            vertices = [ray_belief([int(i == l) for i in range(n)]) for l in range(n)]
            expected = tuple(outcome(reference.evaluate, u, b) for b in vertices)
            gap = next((v for v in expected if isinstance(v, tuple)), None)
            if gap is not None:
                assert outcome(lambda: u.vertex_values) == gap
                gaps += 1
                continue
            assert u.vertex_values == expected
            assert u.vertex_values is u.vertex_values
            (v,) = normalize_payoffs(GamePayoffs((u,))).utilities
            assert v.vertex_values == (0,) * n
            assert tuple(reference.evaluate(v, b) for b in vertices) == (0,) * n
            shifted += v is not u
        assert gaps >= 5 and shifted >= 50, (gaps, shifted)

    def test_constraint_shares_its_forms_integer_row(self):
        form = AffineForm(Fraction(1, 6), (Fraction(-1, 4), Fraction(3), Fraction(0)))
        assert form.integer_row == (12, (-3, 36, 0), 2)
        assert Constraint(form, "<").integer_row is form.integer_row


class TestEdges:
    def test_equal_to_the_fraction_restriction_on_every_edge(self):
        gaps = 0
        for u in UTILITIES:
            for l, k in itertools.permutations(range(u.n_states), 2):
                expected = outcome(reference.edge_restriction, u, l, k)
                assert outcome(edge_restriction, u, l, k) == expected, (u, l, k)
                assert outcome(u.on_edge, l, k) == expected, (u, l, k)
                gaps += isinstance(expected, tuple)
        assert gaps > 20, gaps

    def test_kept_restriction_equals_a_fresh_one(self):
        for u in UTILITIES[:12]:
            for l, k in itertools.permutations(range(u.n_states), 2):
                try:
                    kept = u.on_edge(l, k)
                except NoPieceMatches:
                    continue
                assert u.on_edge(l, k) is kept
                fresh = edge_restriction(u, l, k)
                assert fresh is not kept and fresh == kept

    def test_shifted_and_normalized_utilities_keep_their_own_edges(self):
        g = induced_game(random_action_game(random.Random(3), 3, 3))
        normalized = normalize_payoffs(g)
        delta = AffineForm(Fraction(0), (Fraction(1), Fraction(-2), Fraction(1, 2)))
        for u, v in zip(g.utilities, normalized.utilities):
            kept = {e: u.on_edge(*e) for e in itertools.permutations(range(3), 2)}
            for other in (v, u.shifted(delta)):
                for e, f in kept.items():
                    assert other.on_edge(*e) is not f
                    assert other.on_edge(*e) == reference.edge_restriction(other, *e)
            assert v.vertex_values == (0, 0, 0)
            assert u.shifted(delta).vertex_values != u.vertex_values

    @pytest.mark.parametrize("edge", [(0, -1), (0, 3), (-1, 0), (3, 1)])
    def test_endpoints_outside_the_states_are_rejected(self, edge):
        u = next(u for u in UTILITIES if u.n_states == 3)
        with pytest.raises(ValueError, match=r"out of range for N=3"):
            u.on_edge(*edge)
        assert edge not in u._edges
