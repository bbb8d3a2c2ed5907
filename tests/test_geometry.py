"""Convex cells over the simplex: vertices, feasibility, decompositions."""

import random
from fractions import Fraction

from zspersuasion.affine import OPS, AffineForm, Constraint
from zspersuasion.beliefs import Belief
from zspersuasion.geometry import (
    cell_is_nonempty,
    closure_vertices,
    complement_cells,
    nondegenerate_point,
    piece_regions,
    polytope_vertices,
    strictly_feasible_point,
    subsimplex_constraints,
)
from zspersuasion.utilities import Piece, PiecewiseAffineUtility


def half(n, l, op, bound=Fraction(1, 2)):
    coeffs = tuple(
        Fraction(1) if m == l else Fraction(0) for m in range(n)
    )
    return Constraint(AffineForm(-bound, coeffs), op)


class TestVertices:
    def test_whole_simplex(self):
        vs = set(polytope_vertices(3, ()))
        assert vs == {
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        }

    def test_halfspace_cut(self):
        vs = set(polytope_vertices(2, (half(2, 1, "<="),)))
        assert vs == {
            (Fraction(1), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2)),
        }

    def test_face_equality(self):
        face = tuple(subsimplex_constraints(3, (1, 2)))
        vs = set(closure_vertices(3, face))
        assert vs == {
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        }


class TestFeasibility:
    def test_strict_cell_nonempty(self):
        cell = (half(2, 1, "<"), half(2, 1, ">", Fraction(1, 4)))
        assert cell_is_nonempty(2, cell)
        p = strictly_feasible_point(2, cell)
        assert all(c.holds(p) for c in cell)

    def test_degenerate_strict_cell_empty(self):
        cell = (half(2, 1, "<"), half(2, 1, ">"))
        assert not cell_is_nonempty(2, cell)
        assert strictly_feasible_point(2, cell) is None

    def test_point_cell(self):
        cell = (half(2, 1, "<="), half(2, 1, ">="))
        assert cell_is_nonempty(2, cell)
        assert strictly_feasible_point(2, cell) == (
            Fraction(1, 2),
            Fraction(1, 2),
        )


def random_cell(rng, n):
    """A few random constraints over n states, some paired with their
    negation, sometimes pinned to a face."""
    cell = []
    for _ in range(rng.randint(1, 6 - n)):
        form = AffineForm(
            Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)),
        )
        c = Constraint(form, rng.choice(OPS))
        cell.append(c)
        if c.op != "==" and rng.random() < 0.2:
            cell.append(c.negated())
    if rng.random() < 0.3:
        cell += subsimplex_constraints(n, rng.sample(range(n), rng.randint(1, n)))
    rng.shuffle(cell)
    return tuple(cell)


_STRICTER = {"<=": "<", ">=": ">"}


class TestSimplexAgainstVertices:
    def test_agrees_with_closure_vertices_on_3000_cells(self):
        rng = random.Random(2024)
        outcomes = set()
        for _ in range(1000):
            n = rng.randint(2, 5)
            drawn = random_cell(rng, n)
            # one closure, three cells: as drawn, all weak, all strict
            vertices = closure_vertices(n, drawn)
            for cell in (
                drawn,
                tuple(c.weakened() for c in drawn),
                tuple(Constraint(c.expr, _STRICTER.get(c.op, c.op)) for c in drawn),
            ):
                # reference: the closure has a vertex, and every strict
                # constraint holds strictly at one of them
                expected = bool(vertices) and all(
                    any(c.holds(v) for v in vertices) for c in cell if c.is_strict
                )
                assert cell_is_nonempty(n, cell) == expected, (n, cell)
                point = strictly_feasible_point(n, cell)
                assert (point is not None) == expected, (n, cell)
                off_vertices = expected and (
                    len(vertices) > 1 or not Belief(vertices[0]).is_degenerate()
                )
                off_point = nondegenerate_point(n, cell)
                assert (off_point is not None) == off_vertices, (n, cell)
                # each point is a belief satisfying every constraint, the
                # strict ones strictly; the second is not a simplex vertex
                for p in (point, off_point):
                    if p is not None:
                        assert min(p) >= 0 and sum(p) == 1, (n, cell, p)
                        assert all(c.holds(p) for c in cell), (n, cell, p)
                if off_point is not None:
                    assert not Belief(off_point).is_degenerate(), (n, cell)
                outcomes.add((n, expected, off_vertices))
        assert len(outcomes) == 4 * 3  # every N sees all three verdicts


class TestDecompositions:
    def test_complement_covers_without_overlap(self):
        guard = (half(3, 0, "<="), half(3, 1, "<", Fraction(1, 3)))
        cells = complement_cells(guard)
        # sample a few beliefs: exactly one region (guard or a complement
        # cell) should contain each
        probe = [
            Belief((Fraction(a, 4), Fraction(b, 4), Fraction(4 - a - b, 4)))
            for a in range(5)
            for b in range(5 - a)
        ]
        for b in probe:
            in_guard = all(c.holds(b) for c in guard)
            hits = sum(
                1 for cell in cells if all(c.holds(b) for c in cell)
            )
            assert hits == (0 if in_guard else 1)

    def test_piece_regions_partition(self):
        u = PiecewiseAffineUtility(
            (
                Piece((half(2, 1, "<"),), AffineForm(Fraction(1), (Fraction(0), Fraction(0)))),
                Piece((), AffineForm(Fraction(2), (Fraction(0), Fraction(0)))),
            )
        )
        regions = piece_regions(u.pieces)
        for k in range(9):
            b = Belief((Fraction(k, 8), Fraction(8 - k, 8)))
            matches = [
                form
                for cell, form in regions
                if all(c.holds(b) for c in cell)
            ]
            assert len(matches) == 1
            assert matches[0](b) == u(b)
