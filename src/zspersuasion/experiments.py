"""Finite-signal experiments as Bayes-plausible interim-belief distributions.

An experiment is stored in the belief-distribution form: a finite list of
(posterior belief, mass) atoms relative to a full-support prior.  Products
of conditionally independent experiments and conditional atom distributions
live here.

The Bayes step is one function, ``conditional_posteriors``, and it runs in
integers.  An experiment keeps one likelihood row per atom (y, m), over one
denominator E for the whole experiment: the integers Z with
y_l / prior_l = Z_l / D and the integer weight M with m / D = M / E.  An
interim belief x = k / K with integer k then meets atom y at the posterior
proportional to w_l = k_l Z_l, with probability M sum(w) / (E K), so a
posterior is an integer vector, its probability an integer over E K, and no
division is made per state or per atom.  ``product`` folds experiments
through it, merging atoms by the primitive ray of w.  The rows come from
the integer rays of the atoms and the prior (``likelihood_row``), put over
one denominator by ``over_one_denominator``, which ``oracle`` shares, and
the checks of masses and of Bayes plausibility run in integers too.
``utilities.Pullback``, the one conditional-payoff engine, reads the same
rows to pull a utility's pieces back to the interim belief.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .beliefs import Belief, as_fraction, degenerate, ray, ray_belief
from .exceptions import EnumerationTooLarge

DEFAULT_PRODUCT_CAP = 10**6


@dataclass(frozen=True)
class Experiment:
    """Finite-support distribution over interim beliefs for a fixed prior.

    Atoms are kept sorted by belief so value equality is canonical.  Masses
    must be positive and sum to one; Bayes-plausibility, a mean equal to
    the prior, is checked by the ``StrategyProfile`` that holds it.
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
        # the masses over their least common denominator
        scale = math.lcm(*(m.denominator for _, m in atoms))
        masses = [m.numerator * (scale // m.denominator) for _, m in atoms]
        if any(v <= 0 for v in masses):
            raise ValueError("atom masses must be strictly positive")
        if sum(masses) != scale:
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

    @cached_property
    def likelihood_rows(
        self,
    ) -> tuple[int, tuple[tuple[tuple[int, ...], int], ...]]:
        """(E, rows): per atom (y, m), in atom order, the integers Z and M
        with y_l / prior_l = Z_l / D, D the least common denominator of the
        ratios, and m / D = M / E, E the least common denominator of every
        atom's m / D.  Computed on first use and kept as long as the
        experiment."""
        weights = ratio_weights(self.prior)
        return over_one_denominator(
            (likelihood_row(ray(y), weights), m.numerator, m.denominator)
            for y, m in self.atoms
        )

    def is_bayes_plausible(self) -> bool:
        """Whether the mean of the atoms is the prior, state by state, in
        integers: with atom beliefs k_j / K_j and masses p_j / q_j over
        L = lcm(q_j K_j), sum_j p_j k_jl L / (q_j K_j) == prior_l L."""
        atoms = [(ray(b), m) for b, m in self.atoms]
        dens = [m.denominator * sum(k) for k, m in atoms]
        scale = math.lcm(*dens)
        totals = [0] * self.n_states
        for (k, m), d in zip(atoms, dens):
            f = m.numerator * (scale // d)
            totals = [t + f * v for t, v in zip(totals, k)]
        t = ray(self.prior)
        return all(v * sum(t) == tl * scale for v, tl in zip(totals, t))


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
            if not e.is_bayes_plausible():
                raise ValueError(
                    f"experiment mean {e.mean().probs} differs from prior "
                    f"{prior.probs}"
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


def fully_revealing(prior: Belief) -> Experiment:
    """Gamma^FR: degenerate beliefs realized with the prior probabilities."""
    n = prior.n_states
    return Experiment(prior, tuple((degenerate(n, l), prior[l]) for l in range(n)))


def uninformative(prior: Belief) -> Experiment:
    """Gamma^U: the prior realized with probability one."""
    return Experiment(prior, ((prior, Fraction(1)),))


def ratio_weights(prior: Belief) -> tuple[int, tuple[int, ...]]:
    """(P, w) for the prior t / T, t its primitive ray and T = sum(t): P
    the lcm of t and w_l = T P / t_l, so a belief k / K has
    y_l / prior_l = k_l w_l / (K P) (``likelihood_row``)."""
    t = ray(prior)
    scale = math.lcm(*t)
    total = sum(t)
    return scale, tuple(total * (scale // tl) for tl in t)


def likelihood_row(
    k: Sequence[int], weights: tuple[int, tuple[int, ...]]
) -> tuple[tuple[int, ...], int]:
    """(Z, D) with y_l / prior_l = Z_l / D for the belief y = k / sum(k) of
    a nonnegative integer vector k, D the least common denominator of the
    ratios, from the prior's ``ratio_weights``."""
    scale, w = weights
    z = tuple(map(operator.mul, k, w))
    d = sum(k) * scale
    g = math.gcd(d, *z)
    return (tuple(v // g for v in z), d // g) if g != 1 else (z, d)


def over_one_denominator(
    atoms: Iterable[tuple[tuple[tuple[int, ...], int], int, int]],
) -> tuple[int, tuple[tuple[tuple[int, ...], int], ...]]:
    """(E, rows), in the form of ``Experiment.likelihood_rows``, for atoms
    given as ((Z, D), p, q): a likelihood row Z over D and the atom's mass
    p / q.  Each p / (q D) is reduced by its gcd, E is the lcm of the
    reduced denominators, and each numerator is scaled to E, so the row's
    M is p / (q D) times E."""
    reduced = []
    for (z, d), p, q in atoms:
        den = q * d
        g = math.gcd(p, den)
        reduced.append((z, p // g, den // g))
    e = math.lcm(*(den for _, _, den in reduced))
    return e, tuple((z, p * (e // den)) for z, p, den in reduced)


def conditional_posteriors(
    k: Sequence[int], other: Experiment
) -> Iterator[tuple[tuple[int, ...], int]]:
    """The Bayes step for the interim belief x = k / K, K = sum(k), of a
    nonnegative integer vector k.  For each likelihood row (Z, M) of the
    independent experiment ``other``, over its denominator E, the posterior
    of seeing x and its atom is w / sum(w) with w_l = k_l Z_l, and the
    atom's probability given x is M sum(w) / (E K).  Yields the primitive
    ray of w and the integer M sum(w), E K times that probability; atoms of
    zero probability are skipped."""
    for z, c in other.likelihood_rows[1]:
        w = tuple(map(operator.mul, k, z))
        t = sum(w)
        if t:
            g = math.gcd(*w)
            yield (tuple(v // g for v in w) if g != 1 else w), c * t


def product(profile: StrategyProfile | Sequence[Experiment]) -> Experiment:
    """The experiment induced by observing all senders' realizations.

    A single experiment is its own product and comes back as it is.
    Otherwise the experiments are folded in one at a time: each atom of
    the product so far, an integer ray k with mass m, meets the next
    experiment through ``conditional_posteriors``, an atom of ray w gains
    m * p(w | k), and atoms with equal rays merge before the next fold.
    Each fold sums those masses as integers over one common denominator
    and divides once per merged atom.  Beliefs are built for the final
    atoms only.  ``DEFAULT_PRODUCT_CAP``, read at each call, bounds the
    number of support tuples, prod_i |atoms_i|, and is checked first.
    """
    if isinstance(profile, StrategyProfile):
        experiments = profile.experiments
    else:
        experiments = tuple(profile)
        if len({e.prior for e in experiments}) != 1:
            raise ValueError("experiments in a product must share one prior")
    count = math.prod(len(e.atoms) for e in experiments)
    if count > DEFAULT_PRODUCT_CAP:
        raise EnumerationTooLarge(
            f"{count} support tuples exceed cap {DEFAULT_PRODUCT_CAP}"
        )
    if len(experiments) == 1:
        return experiments[0]
    atoms = [(ray(b), m) for b, m in experiments[0].atoms]
    for e in experiments[1:]:
        # m * q / (E * sum(k)) over the common denominator E * L
        dens = [m.denominator * sum(k) for k, m in atoms]
        lcm = math.lcm(*dens)
        merged: dict[tuple[int, ...], int] = {}
        for (k, m), d in zip(atoms, dens):
            scale = m.numerator * (lcm // d)
            for w, q in conditional_posteriors(k, e):
                merged[w] = merged.get(w, 0) + scale * q
        den = e.likelihood_rows[0] * lcm
        atoms = [(w, Fraction(v, den)) for w, v in merged.items()]
    return Experiment(
        experiments[0].prior, tuple((ray_belief(w), m) for w, m in atoms)
    )


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
