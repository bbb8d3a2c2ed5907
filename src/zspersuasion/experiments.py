"""Finite-signal experiments as Bayes-plausible interim-belief distributions.

An experiment is stored in the belief-distribution form: a finite list of
(posterior belief, mass) atoms relative to a full-support prior.  Conversions
to raw per-state signal tables, products of conditionally independent
experiments, and conditional atom distributions live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .beliefs import Belief, as_fraction, degenerate
from .exceptions import EnumerationTooLarge

DEFAULT_PRODUCT_CAP = 10**6


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

    def without(self, i: int) -> tuple[Experiment, ...]:
        return self.experiments[:i] + self.experiments[i + 1:]


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


def product(
    profile: StrategyProfile | Sequence[Experiment],
    cap: int = DEFAULT_PRODUCT_CAP,
) -> Experiment:
    """The experiment induced by observing all senders' realizations.

    A single experiment is its own product and comes back as it is.
    Otherwise enumerates all support tuples: a tuple of interim beliefs
    x^1..x^M has weights w_l = prod_i x^i_l / prior_l^(M-1), joint
    probability (prod of masses) * sum_l w_l, and posterior w / sum_l w_l
    (the posterior of ``beliefs.combine``).  Zero-probability tuples are
    dropped and atoms with equal posteriors merged.
    """
    if isinstance(profile, StrategyProfile):
        experiments = profile.experiments
    else:
        experiments = tuple(profile)
        if len({e.prior for e in experiments}) != 1:
            raise ValueError("experiments in a product must share one prior")
    prior = experiments[0].prior
    count = 1
    for e in experiments:
        count *= len(e.atoms)
    if count > cap:
        raise EnumerationTooLarge(f"{count} support tuples exceed cap {cap}")
    if len(experiments) == 1:
        return experiments[0]
    scale = [p ** (len(experiments) - 1) for p in prior.probs]
    merged: dict[Belief, Fraction] = {}
    for combo in itertools.product(*(e.atoms for e in experiments)):
        weights = []
        for l, s in enumerate(scale):
            w = Fraction(1)
            for b, _ in combo:
                w *= b.probs[l]
            weights.append(w / s)
        total = sum(weights)
        if not total:
            continue
        mass = Fraction(1)
        for _, m in combo:
            mass *= m
        post = Belief(tuple(w / total for w in weights))
        merged[post] = merged.get(post, Fraction(0)) + mass * total
    return Experiment(prior, tuple(merged.items()))


def conditional_dist(
    other: Experiment, x: Belief
) -> tuple[tuple[Belief, Fraction], ...]:
    """Distribution of ``other``'s atoms conditional on an independently
    generated interim belief ``x``: p(y|x) = sum_k x_k y_k p(y) / pi_k.

    Only atoms with positive conditional probability are returned; the
    probabilities sum to one exactly whenever ``other`` is Bayes-plausible.
    """
    prior = other.prior
    n = prior.n_states
    out = []
    for y, m in other.atoms:
        p = sum((x[k] * y[k] * m / prior[k] for k in range(n)), Fraction(0))
        if p > 0:
            out.append((y, p))
    return tuple(out)
