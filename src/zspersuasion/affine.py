"""Affine forms and affine constraints over belief coordinates.

A form is its integer row: the coefficients and constant times the least
positive integer that makes them integers.  Every computation on forms is
in those integers; a ``Fraction`` is built only where a coefficient, a
constant or a value is handed back to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, eq, ge, gt, le, lt
from typing import Sequence

from .beliefs import Belief, as_fraction

# the test each op makes of a value v of the form: SIGN_TESTS[op](v, 0)
SIGN_TESTS = {"<": lt, "<=": le, ">": gt, ">=": ge, "==": eq}
OPS = tuple(SIGN_TESTS)

_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_WEAKENED = {"<": "<=", "<=": "<=", ">": ">=", ">=": ">=", "==": "=="}


class AffineForm:
    """const + sum_l coeffs[l] * beta_l, kept as its integer row
    (lam, lam * coeffs, lam * const) for the least positive integer lam
    that makes the coefficients and the constant integers, so
    gcd(lam, row) == 1 and equal forms have equal rows.

    ``AffineForm(const, coeffs)`` reads rationals (ints, Fractions or
    strings) and ``of_row`` takes any positive multiple of a row.  Sums,
    negation, edge restriction, equality and hashing work on the row;
    ``const`` and ``coeffs`` are ``Fraction`` views, built on first use.
    """

    __slots__ = ("integer_row", "__dict__")

    def __init__(self, const, coeffs):
        values = [as_fraction(const), *map(as_fraction, coeffs)]
        lam = math.lcm(*(v.denominator for v in values))
        c, *a = (v.numerator * (lam // v.denominator) for v in values)
        object.__setattr__(self, "integer_row", (lam, tuple(a), c))

    @classmethod
    def of_row(cls, lam: int, a: Sequence[int], c: int) -> "AffineForm":
        """The form (c + a . beta) / lam, for integers with lam > 0."""
        g = math.gcd(lam, c, *a)
        if g != 1:
            lam, c, a = lam // g, c // g, (v // g for v in a)
        out = cls.__new__(cls)
        object.__setattr__(out, "integer_row", (lam, tuple(a), c))
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"AffineForm is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineForm):
            return NotImplemented
        return self.integer_row == other.integer_row

    def __hash__(self) -> int:
        return hash(self.integer_row)

    def __repr__(self) -> str:
        return f"AffineForm(const={self.const!r}, coeffs={self.coeffs!r})"

    @cached_property
    def const(self) -> Fraction:
        lam, _, c = self.integer_row
        return Fraction(c, lam)

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        lam, a, _ = self.integer_row
        return tuple(Fraction(v, lam) for v in a)

    @property
    def n_states(self) -> int:
        return len(self.integer_row[1])

    def __call__(self, b: Belief | Sequence[Fraction]) -> Fraction:
        """The value at a rational point b, over one common denominator."""
        lam, a, c = self.integer_row
        d = math.lcm(*(p.denominator for p in b))
        total = sum(v * p.numerator * (d // p.denominator) for v, p in zip(a, b))
        return Fraction(c * d + total, lam * d)

    def __add__(self, other: "AffineForm") -> "AffineForm":
        lam, a, c = self.integer_row
        lam2, a2, c2 = other.integer_row
        if lam == lam2:
            return AffineForm.of_row(lam, tuple(map(add, a, a2)), c + c2)
        scale = math.lcm(lam, lam2)
        f, f2 = scale // lam, scale // lam2
        return AffineForm.of_row(
            scale, tuple(f * v + f2 * w for v, w in zip(a, a2)), f * c + f2 * c2
        )

    def __neg__(self) -> "AffineForm":
        lam, a, c = self.integer_row
        out = AffineForm.__new__(AffineForm)
        object.__setattr__(out, "integer_row", (lam, tuple(-v for v in a), -c))
        return out

    def on_edge(self, l: int, k: int) -> tuple[Fraction, Fraction]:
        """Restrict to beta(t) = (1-t) delta_l + t delta_k; returns
        (constant, slope) in the edge parameter t."""
        lam, a, c = self.integer_row
        return Fraction(c + a[l], lam), Fraction(a[k] - a[l], lam)

    @staticmethod
    def zero(n_states: int) -> "AffineForm":
        return AffineForm.of_row(1, (0,) * n_states, 0)


@dataclass(frozen=True)
class Constraint:
    """The affine inequality or equality ``expr op 0``."""

    expr: AffineForm
    op: str

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"unknown constraint op {self.op!r}")

    def holds(self, b: Belief | tuple[Fraction, ...]) -> bool:
        return self.holds_value(self.expr(b))

    def holds_value(self, v: Fraction | int) -> bool:
        """Whether a value of the form, or any positive multiple of one,
        satisfies ``op 0``."""
        return SIGN_TESTS[self.op](v, 0)

    def negated(self) -> "Constraint":
        if self.op == "==":
            raise ValueError("cannot negate an equality into one constraint")
        return Constraint(self.expr, _NEGATED[self.op])

    def weakened(self) -> "Constraint":
        return Constraint(self.expr, _WEAKENED[self.op])

    @property
    def is_strict(self) -> bool:
        return self.op in ("<", ">")

    @property
    def integer_row(self) -> tuple[int, tuple[int, ...], int]:
        """The integer row of the constraint's form
        (``AffineForm.integer_row``), kept once by the form."""
        return self.expr.integer_row
