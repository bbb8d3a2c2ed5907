"""Exact rationals as integer rows: the scenario parser's fast path for the
spellings ``frac_to_str`` writes, pinned against ``Fraction(s)``, and
``AffineForm`` as its integer row, checked against ``Fraction`` arithmetic
on seeded random forms."""

import math
import random
from fractions import Fraction

import pytest

import reference
from zspersuasion import geometry
from zspersuasion.affine import OPS, AffineForm, Constraint
from zspersuasion.beliefs import Belief
from zspersuasion.exceptions import ScenarioError
from zspersuasion.scenario import frac_from_str, frac_to_str


class TestFracFromStr:
    @pytest.mark.parametrize("s", [
        "7", "-3/5", "-0", "+3", "1_000", " 3/5", "1.5", "1e2", "٣",
    ])
    def test_accepted_strings_read_as_fraction_reads_them(self, s):
        value = frac_from_str(s)
        assert type(value) is Fraction
        assert value == Fraction(s)

    @pytest.mark.parametrize("s", [
        "3/0", "3/ 5", "1/-2", "0x10", "", "-", "--1", "²",
    ])
    def test_rejected_strings_give_fractions_message(self, s):
        with pytest.raises((ValueError, ZeroDivisionError)) as want:
            Fraction(s)
        with pytest.raises(ScenarioError) as got:
            frac_from_str(s)
        assert str(got.value) == f"bad rational {s!r}: {want.value}"

    @pytest.mark.parametrize("value, kind", [
        (0.5, "floats"), (1.0, "floats"), (True, "booleans"), (False, "booleans"),
    ])
    def test_floats_and_booleans_are_refused(self, value, kind):
        with pytest.raises(ScenarioError, match=f"{kind} are not allowed"):
            frac_from_str(value)

    def test_every_written_rational_reads_back(self):
        rng = random.Random(20261022)
        for _ in range(500):
            v = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
            assert frac_from_str(frac_to_str(v)) == v


def random_form(rng: random.Random, n: int) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(const, coeffs) with small numerators and denominators, some 0."""
    def value():
        if rng.random() < 0.2:
            return Fraction(0)
        return Fraction(rng.randint(-40, 40), rng.randint(1, 24))

    return value(), tuple(value() for _ in range(n))


def fraction_row(const: Fraction, coeffs) -> tuple[int, tuple[int, ...], int]:
    """(lam, lam * coeffs, lam * const), lam the lcm of the denominators."""
    lam = math.lcm(const.denominator, *(c.denominator for c in coeffs))
    return lam, tuple(int(c * lam) for c in coeffs), int(const * lam)


def seeded_forms(count: int = 300):
    rng = random.Random(20261023)
    for _ in range(count):
        n = rng.randint(1, 5)
        yield rng, n, random_form(rng, n), random_form(rng, n)


class TestAffineFormRows:
    def test_the_row_is_the_least_integer_scaling(self):
        for _, _, (const, coeffs), _ in seeded_forms():
            f = AffineForm(const, coeffs)
            assert f.integer_row == fraction_row(const, coeffs)
            lam, a, c = f.integer_row
            assert lam > 0 and math.gcd(lam, c, *a) == 1

    def test_of_row_of_any_positive_multiple_is_the_same_form(self):
        for rng, _, (const, coeffs), _ in seeded_forms():
            f = AffineForm(const, coeffs)
            lam, a, c = f.integer_row
            m = rng.randint(1, 1000)
            g = AffineForm.of_row(m * lam, tuple(m * v for v in a), m * c)
            assert g == f and hash(g) == hash(f)
            assert g.integer_row == f.integer_row

    def test_arithmetic_agrees_with_fractions(self):
        for rng, n, (const, coeffs), (const2, coeffs2) in seeded_forms():
            f, g = AffineForm(const, coeffs), AffineForm(const2, coeffs2)
            assert (f.const, f.coeffs) == (const, coeffs)
            assert all(type(v) is Fraction for v in (f.const, *f.coeffs))
            assert f + g == AffineForm(
                const + const2, tuple(map(sum, zip(coeffs, coeffs2)))
            )
            assert -f == AffineForm(-const, tuple(-v for v in coeffs))
            assert (f + g).integer_row == fraction_row(
                const + const2, tuple(map(sum, zip(coeffs, coeffs2)))
            )
            if n > 1:
                l, k = rng.sample(range(n), 2)
                assert f.on_edge(l, k) == (
                    const + coeffs[l], coeffs[k] - coeffs[l]
                )
            weights = [rng.randint(0, 9) for _ in range(n)]
            weights[rng.randrange(n)] += 1
            b = Belief(tuple(Fraction(w, sum(weights)) for w in weights))
            assert f(b) == const + sum(c * p for c, p in zip(coeffs, b))
            point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(n))
            assert f(point) == const + sum(c * p for c, p in zip(coeffs, point))

    def test_zero_and_equality(self):
        assert AffineForm.zero(3) == AffineForm(0, (0, 0, 0))
        assert AffineForm.zero(3).integer_row == (1, (0, 0, 0), 0)
        assert AffineForm("1/2", (1, "-3/4")) == AffineForm(
            Fraction(1, 2), (Fraction(1), Fraction(-3, 4))
        )
        assert AffineForm(1, (0,)) != AffineForm(1, (0, 0))
        with pytest.raises(TypeError):
            AffineForm(0.5, (0,))
        with pytest.raises(AttributeError):
            AffineForm.zero(2).integer_row = (1, (1, 1), 0)

    def test_lp_rows_are_the_rational_rows_over_one_scale(self):
        """The rows the simplex method pivots on are those of the forms'
        Fraction coefficients times one integer, as before forms kept
        their rows, so every LP pivots as it did."""
        for rng, n, (const, coeffs), (const2, coeffs2) in seeded_forms(200):
            if n < 2:
                continue
            cons = [
                Constraint(AffineForm(const, coeffs), rng.choice(OPS)),
                Constraint(AffineForm(const2, coeffs2), rng.choice(OPS)),
            ]
            got = geometry._lp_rows(n, cons)
            want = reference.lp_rows(n, cons)
            if want is None:
                assert got is None
                continue
            scale, rows = got
            assert rows == [
                (tuple(scale * v for v in a), scale * b, eq)
                for a, b, eq in want
            ]
