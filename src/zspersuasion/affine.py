"""Affine forms and affine constraints over belief coordinates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import eq, ge, gt, le, lt

from .beliefs import Belief, as_fraction

# the test each op makes of a value v of the form: SIGN_TESTS[op](v, 0)
SIGN_TESTS = {"<": lt, "<=": le, ">": gt, ">=": ge, "==": eq}
OPS = tuple(SIGN_TESTS)

_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_WEAKENED = {"<": "<=", "<=": "<=", ">": ">=", ">=": ">=", "==": "=="}


@dataclass(frozen=True)
class AffineForm:
    """const + sum_l coeffs[l] * beta_l."""

    const: Fraction
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "const", as_fraction(self.const))
        object.__setattr__(
            self, "coeffs", tuple(as_fraction(c) for c in self.coeffs)
        )

    @property
    def n_states(self) -> int:
        return len(self.coeffs)

    def __call__(self, b: Belief | tuple[Fraction, ...]) -> Fraction:
        return self.const + sum(
            (c * p for c, p in zip(self.coeffs, b)), Fraction(0)
        )

    def __add__(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(
            self.const + other.const,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "AffineForm":
        return AffineForm(-self.const, tuple(-c for c in self.coeffs))

    @cached_property
    def integer_row(self) -> tuple[int, tuple[int, ...], int]:
        """(lam, lam * coeffs, lam * const) for the least positive integer
        lam that makes the coefficients and the constant integers.  Computed
        on first use and kept as long as the form.  At the belief k / K of
        a nonnegative integer vector k with K = sum(k), the form's value is
        (lam * const * K + (lam * coeffs) . k) / (lam * K)."""
        lam = math.lcm(
            self.const.denominator, *(c.denominator for c in self.coeffs)
        )
        return (
            lam,
            tuple(c.numerator * (lam // c.denominator) for c in self.coeffs),
            self.const.numerator * (lam // self.const.denominator),
        )

    def on_edge(self, l: int, k: int) -> tuple[Fraction, Fraction]:
        """Restrict to beta(t) = (1-t) delta_l + t delta_k; returns
        (constant, slope) in the edge parameter t."""
        return (self.const + self.coeffs[l], self.coeffs[k] - self.coeffs[l])

    @staticmethod
    def zero(n_states: int) -> "AffineForm":
        return AffineForm(Fraction(0), tuple(Fraction(0) for _ in range(n_states)))


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
