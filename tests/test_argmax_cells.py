"""Argmax guard sequences get their first-match cells in closed form: the
closed form against the sweep it skips, the near misses that still go
through the sweep, and the one emptiness test per action it asks."""

import json
import random
from fractions import Fraction

import pytest

from zspersuasion import geometry
from zspersuasion.actions import ActionGame, induced_game
from zspersuasion.affine import AffineForm, Constraint
from zspersuasion.exceptions import NoPieceMatches
from zspersuasion.geometry import cell_is_nonempty, complement_cells
from zspersuasion.scenario import scenario_from_json, utility_to_json
from zspersuasion.utilities import normalize_payoffs

from conftest import random_action_game
from test_first_match import GridMasks, count_lps, pieces_by_belief


def argmax_guards(rng, n, a):
    u = induced_game(random_action_game(rng, n, a)).utilities[0]
    return [p.guard for p in u.pieces]


def first_pieces(masks, guards, start):
    """For each grid belief, [the first piece whose guard holds there] when
    the belief lies in ``start``, else []."""
    inside = masks(start)
    held = [masks(guard) for guard in guards]
    return [
        [next(k for k, mask in enumerate(held) if mask >> i & 1)] if inside >> i & 1 else []
        for i in range(len(masks.beliefs))
    ]


def outcome(cells, n, guards):
    """The cells, or the NoPieceMatches message in their place."""
    try:
        return cells(n, guards)
    except NoPieceMatches as exc:
        return str(exc)


class TestAgainstTheSweep:
    def test_agrees_on_seeded_action_games(self):
        rng = random.Random(25)
        seen = set()
        for _ in range(100):
            n, a = rng.randint(2, 5), rng.randint(2, 6)
            g = induced_game(random_action_game(rng, n, a))
            normalized = rng.random() < 0.5
            u = (normalize_payoffs(g) if normalized else g).utilities[0]
            guards = [p.guard for p in u.pieces]
            assert geometry._is_argmax(guards)
            start = ()
            if rng.random() < 0.5:
                # the overlay refines each cell of an earlier guard sequence
                start = rng.choice(geometry.first_match_cells(n, argmax_guards(rng, n, 3)))[1]
            closed = geometry.first_match_cells(n, guards, start)
            swept = geometry._sweep_cells(n, guards, start)
            if not start:
                assert u.first_match_cells() == closed
            # one cell per piece that first-matches somewhere, in piece order
            pieces = [k for k, _ in closed]
            assert pieces == sorted(set(pieces)) == sorted({k for k, _ in swept})
            # no point in a closed-form cell of one piece and a swept cell of
            # another, and none in a swept cell outside its piece's closed
            # form: the two cover the same region of each piece
            by_piece = dict(closed)
            for k, cell in closed:
                assert cell[:len(start)] == start
                for j, other in swept:
                    if j != k:
                        assert not cell_is_nonempty(n, cell + other), (guards, start, k, j)
            for k, other in swept:
                for tail in complement_cells(by_piece[k][len(start):]):
                    assert not cell_is_nonempty(n, other + tail), (guards, start, k)
            # both give every grid belief of start the first-match piece
            masks = GridMasks(n, 6)
            expected = first_pieces(masks, guards, start)
            assert pieces_by_belief(masks, closed) == expected
            assert pieces_by_belief(masks, swept) == expected
            seen.update({("N", n), ("A", a), normalized, bool(start)})
        assert seen == {
            *(("N", n) for n in range(2, 6)), *(("A", a) for a in range(2, 7)), True, False
        }


def near_misses(rng):
    """Guard sequences of four actions over three states that miss the
    argmax syntax in one place each, by name."""
    guards = argmax_guards(rng, 3, 4)

    def edit(a, new_guard):
        return guards[:a] + [tuple(new_guard)] + guards[a + 1:]

    c0, c1, c2 = guards[2]
    doubled = AffineForm(2 * c1.expr.const, tuple(2 * v for v in c1.expr.coeffs))
    shifted = AffineForm(c1.expr.const + 1, c1.expr.coeffs)
    state_0 = Constraint(AffineForm(Fraction(0), (-1, 0, 0)), "<=")
    # an antisymmetric table of pairwise forms that does not add up
    pairwise = {
        (c, a): AffineForm(
            Fraction(rng.randint(-3, 3), 2),
            tuple(rng.randint(-5, 5) for _ in range(3)),
        )
        for a in range(4)
        for c in range(a + 1, 4)
    }
    tournament = [
        tuple(
            Constraint(pairwise[c, a] if c > a else -pairwise[a, c], "<=")
            for c in range(4)
            if c != a
        )
        for a in range(4)
    ]
    return {
        "scaled": edit(2, (c0, Constraint(doubled, "<="), c2)),
        "shifted": edit(2, (c0, Constraint(shifted, "<="), c2)),
        "swapped": edit(2, (c1, c0, c2)),
        "strict": edit(2, (Constraint(c0.expr, "<"), c1, c2)),
        "extra": edit(2, (c0, c1, c2, state_0)),
        "non_additive": tournament,
    }


class TestFallThrough:
    @pytest.mark.parametrize(
        "name", ["scaled", "shifted", "swapped", "strict", "extra", "non_additive"]
    )
    def test_a_near_miss_is_swept(self, monkeypatch, name):
        guards = near_misses(random.Random(4))[name]
        assert not geometry._is_argmax(guards)
        swept = outcome(geometry._sweep_cells, 3, guards)
        calls = []
        sweep = geometry._sweep_cells
        monkeypatch.setattr(
            geometry, "_sweep_cells", lambda *args: calls.append(args) or sweep(*args)
        )
        assert outcome(geometry.first_match_cells, 3, guards) == swept
        assert len(calls) == 1

    def test_scenario_file_argmax_guards_are_detected(self, monkeypatch):
        """A utility written out in argmax form reads back as new guard
        objects from strings, and is still decomposed in closed form."""
        rng = random.Random(5)
        u = induced_game(random_action_game(rng, 4, 5)).utilities[0]
        written = utility_to_json(u)
        scenario = scenario_from_json(json.loads(json.dumps({
            "states": 4,
            "prior": ["1/4"] * 4,
            "senders": 2,
            "payoffs": [written, {"pieces": [{"form": {"coeffs": ["0"] * 4}}]}],
        })))
        read = scenario.payoffs.utilities[0]
        assert read.pieces[0].guard[0] is not u.pieces[0].guard[0]
        assert geometry._is_argmax([p.guard for p in read.pieces])
        calls = count_lps(monkeypatch)
        cells = read.first_match_cells()
        assert len(calls) <= 5
        assert cells == u.first_match_cells()


class TestLpCount:
    @pytest.mark.parametrize("a", range(2, 7))
    def test_one_emptiness_test_per_action(self, monkeypatch, a):
        rng = random.Random(a)
        guards = argmax_guards(rng, 4, a)
        start = geometry.first_match_cells(4, argmax_guards(rng, 4, 3))[-1][1]
        calls = count_lps(monkeypatch)
        assert geometry.first_match_cells(4, guards)
        assert len(calls) <= a
        calls.clear()
        assert geometry.first_match_cells(4, guards, start)
        assert len(calls) <= a
