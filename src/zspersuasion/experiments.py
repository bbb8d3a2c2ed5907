"""Finite-signal experiments as Bayes-plausible interim-belief distributions.

An experiment is stored in the belief-distribution form: a finite list of
(posterior belief, mass) atoms relative to a full-support prior.  Conversions
to raw per-state signal tables, products of conditionally independent
experiments, and conditional atom distributions live here.  The Bayes step
is one function, ``conditional_posteriors``: ``product`` folds experiments
through it, and ``utilities.conditional_payoff_against`` sums over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .beliefs import Belief, as_fraction, degenerate
from .exceptions import EnumerationTooLarge

DEFAULT_PRODUCT_CAP = 10**6

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Experiment:
    """Finite-support distribution over interim beliefs for a fixed prior.

    Atoms are kept sorted by belief so value equality is canonical.  Masses
    must be positive and sum to one; Bayes-plausibility is checked separately
    via :func:`check_bayes_plausible` so that violating inputs can be
    represented and reported.
    """

    prior: Belief
    atoms: tuple[tuple[Belief, Fraction], ...]

    def __post_init__(self):
        if not self.prior.has_full_support():
            raise ValueError("experiment prior must have full support")
        atoms = tuple(
            (b, as_fraction(m))
            for b, m in sorted(self.atoms, key=lambda a: a[0].probs)
        )
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("experiment needs at least one atom")
        if any(m <= 0 for _, m in atoms):
            raise ValueError("atom masses must be strictly positive")
        if sum(m for _, m in atoms) != 1:
            raise ValueError("atom masses must sum to 1")
        for (a, _), (b, _) in zip(atoms, atoms[1:]):
            if a == b:
                raise ValueError(f"duplicate atom belief {a.probs}")
        for b, _ in atoms:
            if b.n_states != self.prior.n_states:
                raise ValueError("atom belief dimension differs from prior")

    @property
    def n_states(self) -> int:
        return self.prior.n_states

    def mean(self) -> Belief:
        n = self.n_states
        totals = [Fraction(0)] * n
        for b, m in self.atoms:
            for l in range(n):
                totals[l] += m * b[l]
        return Belief(tuple(totals))

    def is_fully_revealing(self) -> bool:
        return all(b.is_degenerate() for b, _ in self.atoms)


@dataclass(frozen=True)
class SignalStructure:
    """Per-state signal distributions: table[state][signal] = probability."""

    signals: tuple[str, ...]
    table: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for l, row in enumerate(self.table):
            if len(row) != len(self.signals):
                raise ValueError("table row length differs from signal count")
            if any(p < 0 for p in row):
                raise ValueError("signal probabilities must be >= 0")
            if sum(row) != 1:
                raise ValueError(f"state {l} signal probabilities do not sum to 1")


@dataclass(frozen=True)
class StrategyProfile:
    """One experiment per sender, all sharing the same prior."""

    experiments: tuple[Experiment, ...]

    def __post_init__(self):
        if not self.experiments:
            raise ValueError("profile needs at least one experiment")
        prior = self.experiments[0].prior
        for e in self.experiments:
            if e.prior != prior:
                raise ValueError("experiments in a profile must share one prior")
        for e in self.experiments:
            result = check_bayes_plausible(e)
            if not result.ok:
                raise ValueError(
                    f"experiment mean {result.got.probs} differs from prior "
                    f"{result.expected.probs}"
                )

    @property
    def prior(self) -> Belief:
        return self.experiments[0].prior

    @property
    def n_senders(self) -> int:
        return len(self.experiments)

    def opponents(self, i: int) -> Experiment:
        """The joint experiment of every sender but i; a lone sender's
        opponents reveal nothing, so theirs is ``uninformative``."""
        others = self.experiments[:i] + self.experiments[i + 1:]
        return product(others) if others else uninformative(self.prior)


@dataclass(frozen=True)
class PlausibilityCheck:
    ok: bool
    expected: Belief
    got: Belief


def fully_revealing(prior: Belief) -> Experiment:
    """Gamma^FR: degenerate beliefs realized with the prior probabilities."""
    n = prior.n_states
    return Experiment(prior, tuple((degenerate(n, l), prior[l]) for l in range(n)))


def uninformative(prior: Belief) -> Experiment:
    """Gamma^U: the prior realized with probability one."""
    return Experiment(prior, ((prior, Fraction(1)),))


def check_bayes_plausible(e: Experiment) -> PlausibilityCheck:
    """Exact mean test: the atom-weighted mean belief must equal the prior."""
    mean = e.mean()
    return PlausibilityCheck(mean == e.prior, e.prior, mean)


def to_signal_structure(e: Experiment) -> SignalStructure:
    """Raw signal table with one signal per atom:
    Pr(s_x | w=l) = mass(x) * x_l / prior_l."""
    n = e.n_states
    signals = tuple(f"s{j}" for j in range(len(e.atoms)))
    table = tuple(
        tuple(m * b[l] / e.prior[l] for b, m in e.atoms) for l in range(n)
    )
    return SignalStructure(signals, table)


def conditional_posteriors(
    x: Belief, other: Experiment
) -> Iterator[tuple[Belief, Fraction]]:
    """The Bayes step: for each atom (y, m) of the independent experiment
    ``other``, the posterior w / sum_l w_l of seeing x and y and the
    probability m * sum_l w_l of y given x, where w_l = x_l y_l / prior_l.
    Atoms of zero probability are skipped."""
    prior = other.prior
    n = prior.n_states
    ratios = [(l, x_l / prior[l]) for l, x_l in enumerate(x.probs) if x_l]
    for y, m in other.atoms:
        w = [_ZERO] * n
        total = _ZERO
        for l, r in ratios:
            y_l = y.probs[l]
            if y_l:
                w[l] = w_l = r * y_l
                total += w_l
        if total:
            yield Belief(tuple(w_l / total for w_l in w)), m * total


def product(
    profile: StrategyProfile | Sequence[Experiment],
    cap: int = DEFAULT_PRODUCT_CAP,
) -> Experiment:
    """The experiment induced by observing all senders' realizations.

    A single experiment is its own product and comes back as it is.
    Otherwise the experiments are folded in one at a time: each atom (x, m)
    of the product so far meets the next experiment through
    ``conditional_posteriors``, an atom of posterior b gains m * p(b | x),
    and atoms with equal posteriors merge before the next fold.  The cap
    bounds the number of support tuples, prod_i |atoms_i|, and is checked
    first.
    """
    if isinstance(profile, StrategyProfile):
        experiments = profile.experiments
    else:
        experiments = tuple(profile)
        if len({e.prior for e in experiments}) != 1:
            raise ValueError("experiments in a product must share one prior")
    count = math.prod(len(e.atoms) for e in experiments)
    if count > cap:
        raise EnumerationTooLarge(f"{count} support tuples exceed cap {cap}")
    if len(experiments) == 1:
        return experiments[0]
    atoms = experiments[0].atoms
    for e in experiments[1:]:
        merged: dict[Belief, Fraction] = {}
        for x, m in atoms:
            for b, p in conditional_posteriors(x, e):
                merged[b] = merged.get(b, _ZERO) + m * p
        atoms = merged.items()
    return Experiment(experiments[0].prior, tuple(atoms))


def conditional_dist(
    other: Experiment, x: Belief
) -> tuple[tuple[Belief, Fraction], ...]:
    """Distribution of ``other``'s atoms conditional on an independently
    generated interim belief ``x``: p(y|x) = sum_k x_k y_k p(y) / pi_k.

    Only atoms with positive conditional probability are returned; the
    probabilities sum to one exactly whenever ``other`` is Bayes-plausible.
    Nothing in the package calls it: the tests check
    ``conditional_posteriors`` against it.
    """
    prior = other.prior
    n = prior.n_states
    out = []
    for y, m in other.atoms:
        p = sum((x[k] * y[k] * m / prior[k] for k in range(n)), Fraction(0))
        if p > 0:
            out.append((y, p))
    return tuple(out)
