"""The fraction-free simplex of ``geometry._has_strict_point`` against the
Fraction simplex it replaced (``reference.has_strict_point``).  Both pivot
under Bland's rule from the same rows, up to one constant factor, so on
every cell they must stop at the identical point or both find none."""

import random
from fractions import Fraction

import pytest

from zspersuasion import geometry
from zspersuasion.affine import OPS, AffineForm, Constraint
from zspersuasion.geometry import subsimplex_constraints

import reference
from test_geometry import _STRICTER, random_cell


def off_vertices(n):
    """beta_l < 1 for every l: the cut of ``nondegenerate_point``."""
    return tuple(
        Constraint(
            AffineForm(Fraction(-1), tuple(Fraction(i == l) for i in range(n))), "<"
        )
        for l in range(n)
    )


def assert_same(n, cell):
    """Both kernels give the identical point (or None), from rows that are
    the rational rows times one constant."""
    rows, expected_rows = geometry._lp_rows(n, cell), reference.lp_rows(n, cell)
    if expected_rows is None:
        assert rows is None, (n, cell)
    else:
        scale, rows = rows
        assert scale >= 1 and all(isinstance(v, int) for a, b, _ in rows for v in (*a, b))
        assert rows == [
            (tuple(scale * v for v in a), scale * b, eq) for a, b, eq in expected_rows
        ], (n, cell)
    point = geometry._has_strict_point(n, cell)
    assert point == reference.has_strict_point(n, cell), (n, cell)
    if point is not None:
        assert all(type(v) is Fraction for v in point)
        assert min(point) >= 0 and sum(point) == 1
        assert all(c.holds(point) for c in cell), (n, cell, point)
    return point


def wide_cell(rng, n):
    """Constraints with about 110-bit integer coefficients, as in the
    generated receiver tables, crossing near one random belief; some are
    divided by a wide odd integer, so the rows have different scales."""
    weights = [rng.randint(0, 5) for _ in range(n)]
    weights[rng.randrange(n)] += 1
    point = [Fraction(w, sum(weights)) for w in weights]
    cell = []
    for _ in range(rng.randint(1, 7)):
        coeffs = [rng.getrandbits(110) - (1 << 109) for _ in range(n)]
        offset = rng.choice((-1, 0, 0, 1)) * rng.getrandbits(rng.choice((4, 60, 100)))
        const = offset - sum(c * p for c, p in zip(coeffs, point))
        scale = Fraction(1, rng.getrandbits(60) | 1) if rng.random() < 0.3 else 1
        form = AffineForm(const * scale, tuple(c * scale for c in coeffs))
        cell.append(Constraint(form, rng.choice(OPS)))
    return tuple(cell)


def small_form(rng, n):
    return AffineForm(
        Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)),
    )


def special_cell(rng, n):
    """Equality rows, duplicate rows, rows that are positive multiples of
    one another and constant rows (equal coefficients, so no variable is
    left once beta_{n-1} is substituted), shuffled together."""
    cell = []
    for _ in range(rng.randint(1, 4)):
        c = Constraint(small_form(rng, n), rng.choice(OPS))
        k = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        multiple = Constraint(AffineForm(k * c.expr.const, tuple(k * v for v in c.expr.coeffs)), c.op)
        cell += [c, Constraint(c.expr, c.op), multiple]
    t = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    const = rng.choice((-t, -t, -t + Fraction(1, 5), -t - Fraction(1, 5)))
    cell.append(Constraint(AffineForm(const, (t,) * n), rng.choice(OPS)))
    cell.append(Constraint(small_form(rng, n), "=="))
    if rng.random() < 0.5:
        cell += subsimplex_constraints(n, rng.sample(range(n), rng.randint(1, n)))
    rng.shuffle(cell)
    return tuple(rng.sample(cell, rng.randint(1, len(cell))))


class TestAgainstFractionSimplex:
    def test_3000_cells_of_the_geometry_family(self):
        """The cells of ``test_geometry``'s 3,000-cell test: each drawn
        cell, all weak and all strict, alone and cut off the vertices."""
        rng = random.Random(2024)
        outcomes = set()
        for _ in range(1000):
            n = rng.randint(2, 5)
            drawn = random_cell(rng, n)
            for cell in (
                drawn,
                tuple(c.weakened() for c in drawn),
                tuple(Constraint(c.expr, _STRICTER.get(c.op, c.op)) for c in drawn),
            ):
                for extra in ((), off_vertices(n)):
                    outcomes.add((n, assert_same(n, cell + extra) is not None))
        assert outcomes == {(n, found) for n in range(2, 6) for found in (True, False)}

    @pytest.mark.parametrize("n", range(2, 7))
    def test_110_bit_coefficients(self, n):
        rng = random.Random(f"wide:{n}")
        found = [assert_same(n, wide_cell(rng, n)) is not None for _ in range(60)]
        assert any(found) and not all(found)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_equal_duplicate_multiple_and_constant_rows(self, n):
        rng = random.Random(f"special:{n}")
        found = set()
        for _ in range(150):
            cell = special_cell(rng, n)
            found.add(assert_same(n, cell) is not None)
            found.add(assert_same(n, cell + off_vertices(n)) is not None)
        assert found == {True, False}


class TestIntegerRow:
    def test_least_scale_and_its_row(self):
        c = Constraint(
            AffineForm(Fraction(5, 6), (Fraction(-1, 4), Fraction(3), Fraction(2, 9))), "<"
        )
        assert c.integer_row == (36, (-9, 108, 8), 30)
        assert c.integer_row is c.integer_row  # computed once

    def test_integer_form_has_scale_one(self):
        c = Constraint(AffineForm(Fraction(0), (Fraction(7), Fraction(-2))), "==")
        assert c.integer_row == (1, (7, -2), 0)
