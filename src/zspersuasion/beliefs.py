"""Exact simplex geometry: beliefs, state subsets, and Bayesian combination
of conditionally independent interim beliefs.

All arithmetic is over ``fractions.Fraction`` or integers; nothing in this
module touches floating point.  A belief is also its primitive integer
ray: the vector k of coprime nonnegative integers with belief k / sum(k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exceptions import UndefinedPosterior


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like ``"3/5"``, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact belief arithmetic")
    return Fraction(value)


@dataclass(frozen=True)
class Belief:
    """A rational point of the probability simplex over N states."""

    probs: tuple[Fraction, ...]

    def __post_init__(self):
        probs = tuple(as_fraction(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if not probs:
            raise ValueError("belief needs at least one state")
        # the probabilities over their least common denominator, which is
        # the primitive ray when they sum to one
        scale = math.lcm(*(p.denominator for p in probs))
        k = tuple(p.numerator * (scale // p.denominator) for p in probs)
        if any(v < 0 for v in k):
            raise ValueError(f"negative probability in {probs}")
        if sum(k) != scale:
            raise ValueError(
                f"probabilities sum to {Fraction(sum(k), scale)}, not 1"
            )
        object.__setattr__(self, "_ray", k)

    @property
    def n_states(self) -> int:
        return len(self.probs)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(l for l, p in enumerate(self.probs) if p > 0)

    def has_full_support(self) -> bool:
        return all(p > 0 for p in self.probs)

    def is_degenerate(self) -> bool:
        return any(p == 1 for p in self.probs)

    def __getitem__(self, l: int) -> Fraction:
        return self.probs[l]

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)


def belief(values: Iterable) -> Belief:
    """Build a Belief from any iterable of rational-like values."""
    return Belief(tuple(as_fraction(v) for v in values))


def ray(b: Belief) -> tuple[int, ...]:
    """The primitive integer ray of b: coprime k with b = k / sum(k), where
    sum(k) is the least common denominator of b's coordinates.  The belief
    keeps it from its construction."""
    return b._ray


def ray_belief(k: Sequence[int]) -> Belief:
    """The belief k / sum(k) of a nonnegative integer vector with a positive
    entry."""
    total = sum(k)
    return Belief(tuple(Fraction(v, total) for v in k))


def degenerate(n_states: int, l: int) -> Belief:
    """The belief putting probability one on state ``l``."""
    return Belief(tuple(Fraction(1 if i == l else 0) for i in range(n_states)))


def state_set(members: Iterable[int], n_states: int) -> tuple[int, ...]:
    """Normalize a non-empty set of state indices to a sorted tuple."""
    omega = tuple(sorted(set(members)))
    if not omega:
        raise ValueError("state set must be non-empty")
    if omega[0] < 0 or omega[-1] >= n_states:
        raise ValueError(f"state indices {omega} out of range for N={n_states}")
    return omega


def combine(prior: Belief, interim: Sequence[Belief]) -> Belief:
    """Posterior from conditionally independent interim beliefs.

    The posterior weight of state l is (prod_i x^i_l) / prior_l^(T-1); the
    result's support is the intersection of the interim supports.

    Raises UndefinedPosterior when that intersection is empty (the interim
    beliefs contradict each other; probability-zero on valid profiles).
    Nothing in the package calls it: the tests check the Bayes step of
    ``experiments.conditional_posteriors`` and ``product`` against it.
    """
    if not prior.has_full_support():
        raise ValueError("prior must have full support")
    interim = list(interim)
    if not interim:
        return prior
    n = prior.n_states
    for x in interim:
        if x.n_states != n:
            raise ValueError("state-count mismatch between prior and interim beliefs")
    t = len(interim)
    weights = []
    for l in range(n):
        w = Fraction(1)
        for x in interim:
            w *= x[l]
        weights.append(w / prior[l] ** (t - 1))
    total = sum(weights)
    if total == 0:
        raise UndefinedPosterior("interim beliefs have disjoint supports")
    return Belief(tuple(w / total for w in weights))
