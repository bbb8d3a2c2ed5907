"""Experiments: plausibility, signal tables, products, conditioning."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zspersuasion import experiments
from zspersuasion.beliefs import belief, combine, ray
from zspersuasion.exceptions import EnumerationTooLarge
from zspersuasion.experiments import (
    Experiment,
    StrategyProfile,
    conditional_dist,
    conditional_posteriors,
    fully_revealing,
    product,
    uninformative,
)

from conftest import random_experiment, random_prior
from reference import to_signal_structure
from test_posterior_engine import random_face_experiment


HALF = belief(["1/2", "1/2"])


def skew() -> Experiment:
    return Experiment(
        HALF,
        (
            (belief(["3/5", "2/5"]), Fraction(1, 2)),
            (belief(["2/5", "3/5"]), Fraction(1, 2)),
        ),
    )


class TestBasics:
    def test_fully_revealing_atoms(self):
        e = fully_revealing(belief(["1/6", "1/3", "1/2"]))
        assert all(b.is_degenerate() for b, _ in e.atoms)
        assert sorted(m for _, m in e.atoms) == [
            Fraction(1, 6),
            Fraction(1, 3),
            Fraction(1, 2),
        ]
        assert e.is_fully_revealing()

    def test_uninformative(self):
        e = uninformative(HALF)
        assert e.atoms == ((HALF, Fraction(1)),)

    def test_plausibility_flags_mean_mismatch(self):
        e = Experiment(
            belief(["1/3", "2/3"]),
            (
                (belief(["1", "0"]), Fraction(1, 2)),
                (belief(["0", "1"]), Fraction(1, 2)),
            ),
        )
        assert e.mean() != e.prior
        assert e.mean() == HALF

    def test_signal_table(self):
        s = to_signal_structure(skew())
        # atoms sort by belief, so signal s1 carries the (3/5, 2/5) atom
        assert s.table[1][1] == Fraction(2, 5)
        assert s.table[0][1] == Fraction(3, 5)
        for row in s.table:
            assert sum(row) == 1


class TestProduct:
    def test_worked_distribution(self):
        e = skew()
        joint = product((e, e))
        got = {b.probs: m for b, m in joint.atoms}
        assert got == {
            (Fraction(9, 13), Fraction(4, 13)): Fraction(13, 50),
            (Fraction(1, 2), Fraction(1, 2)): Fraction(12, 25),
            (Fraction(4, 13), Fraction(9, 13)): Fraction(13, 50),
        }

    def test_uninformative_is_identity(self):
        e = skew()
        assert product((e, uninformative(HALF))) == e

    def test_fully_revealing_absorbs(self):
        joint = product((skew(), fully_revealing(HALF)))
        assert joint.is_fully_revealing()
        assert {m for _, m in joint.atoms} == {Fraction(1, 2)}

    def test_cap(self, monkeypatch):
        """The cap is read at each call: 2^3 tuples pass a cap of 10 and
        2^4 exceed it, before anything is folded."""
        monkeypatch.setattr(experiments, "DEFAULT_PRODUCT_CAP", 10)
        e = skew()
        assert len(product((e,) * 3).atoms) == 4
        with pytest.raises(EnumerationTooLarge, match="16 support tuples"):
            product((e,) * 4)

    def test_random_products_stay_plausible(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 4)
            prior = random_prior(n, rng)
            exps = [
                random_experiment(prior, rng, splits=rng.randint(0, 3))
                for _ in range(rng.randint(1, 3))
            ]
            joint = product(tuple(exps))
            assert joint.mean() == joint.prior

    def test_product_atoms_match_pairwise_combination(self):
        rng = random.Random(13)
        prior = random_prior(3, rng)
        e1 = random_experiment(prior, rng, splits=2)
        e2 = random_experiment(prior, rng, splits=2)
        joint = product((e1, e2))
        expected = {}
        for b1, m1 in e1.atoms:
            for b2, m2 in e2.atoms:
                beta = combine(prior, [b1, b2])
                # joint mass of the signal pair, by Bayes
                mass = sum(
                    prior[l] * (m1 * b1[l] / prior[l]) * (m2 * b2[l] / prior[l])
                    for l in range(3)
                )
                expected[beta.probs] = expected.get(beta.probs, Fraction(0)) + mass
        assert {b.probs: m for b, m in joint.atoms} == expected


def reference_product(experiments) -> Experiment:
    """Merges ``combine`` over the positive-probability support tuples, each
    weighted by its probability from the signal likelihoods
    Pr(x | l) = mass(x) * x_l / prior_l."""
    prior = experiments[0].prior
    merged: dict = {}
    for combo in itertools.product(*(e.atoms for e in experiments)):
        probability = Fraction(0)
        for l in range(prior.n_states):
            likelihood = prior[l]
            for b, m in combo:
                likelihood *= m * b[l] / prior[l]
            probability += likelihood
        if probability == 0:
            continue
        posterior = combine(prior, [b for b, _ in combo])
        merged[posterior] = merged.get(posterior, Fraction(0)) + probability
    return Experiment(prior, tuple(merged.items()))


class TestProductAgainstCombine:
    def test_equals_the_combine_reference(self):
        rng = random.Random(5150)
        seen = {"senders": set(), "states": set(), "face_atoms": 0,
                "dropped_tuples": 0}
        for _ in range(500):
            n = rng.randint(2, 5)
            prior = random_prior(n, rng)
            exps = tuple(
                random_face_experiment(prior, rng, rng.randint(0, 2))
                if rng.random() < 0.7
                else random_experiment(prior, rng, splits=rng.randint(0, 2))
                for _ in range(rng.randint(1, 3))
            )
            assert product(exps) == reference_product(exps)
            seen["senders"].add(len(exps))
            seen["states"].add(n)
            seen["face_atoms"] += sum(
                not b.has_full_support() for e in exps for b, _ in e.atoms
            )
            seen["dropped_tuples"] += sum(
                not frozenset.intersection(*(b.support for b, _ in combo))
                for combo in itertools.product(*(e.atoms for e in exps))
            )
        assert seen["senders"] == {1, 2, 3}
        assert seen["states"] == {2, 3, 4, 5}
        assert seen["face_atoms"] >= 500
        assert seen["dropped_tuples"] >= 100

    def test_four_senders(self):
        rng = random.Random(808)
        for _ in range(40):
            prior = random_prior(rng.randint(2, 4), rng)
            exps = tuple(
                random_face_experiment(prior, rng, rng.randint(0, 1))
                for _ in range(4)
            )
            assert product(exps) == reference_product(exps)

    def test_one_experiment_is_its_own_product(self):
        rng = random.Random(21)
        for _ in range(20):
            prior = random_prior(rng.randint(2, 5), rng)
            e = random_face_experiment(prior, rng, rng.randint(0, 2))
            assert product((e,)) is e
            assert product(StrategyProfile((e,))) is e


class TestConditionalDist:
    def test_fully_revealing_opponent(self):
        # footnote-style check: conditioning on x = (2/5, 3/5) against a
        # fully revealing opponent weights states by x itself
        pairs = conditional_dist(fully_revealing(HALF), belief(["2/5", "3/5"]))
        got = {b.probs: p for b, p in pairs}
        assert got == {
            (Fraction(1), Fraction(0)): Fraction(2, 5),
            (Fraction(0), Fraction(1)): Fraction(3, 5),
        }

    def test_probabilities_sum_to_one(self):
        rng = random.Random(3)
        prior = random_prior(2, rng)
        e = random_experiment(prior, rng, splits=3)
        pairs = conditional_dist(e, belief(["1/3", "2/3"]))
        assert sum(p for _, p in pairs) == 1


class TestConditionalPosteriors:
    """The integer Bayes step against its references: the atom
    probabilities of ``conditional_dist`` and the posteriors of ``combine``.
    It takes x as its primitive ray k and yields each posterior's primitive
    ray with E sum(k) times the atom's probability, an integer, where E is
    the denominator of the experiment's likelihood rows."""

    def test_equals_conditional_dist_and_combine(self):
        rng = random.Random(77)
        skipped = 0
        for _ in range(300):
            n = rng.randint(2, 5)
            prior = random_prior(n, rng)
            other = random_face_experiment(prior, rng, rng.randint(0, 2))
            x = random_face_experiment(prior, rng, 1).atoms[0][0]
            k = ray(x)
            e = other.likelihood_rows[0]
            expected = [
                (ray(combine(prior, (x, y))), e * sum(k) * p)
                for y, p in conditional_dist(other, x)
            ]
            got = list(conditional_posteriors(k, other))
            assert got == expected
            assert all(type(q) is int for _, q in got)
            skipped += len(other.atoms) - len(expected)
        assert skipped >= 50

    def test_against_nothing_the_posterior_is_x(self):
        rng = random.Random(78)
        for _ in range(20):
            prior = random_prior(rng.randint(2, 5), rng)
            x = random_experiment(prior, rng, splits=2).atoms[0][0]
            k = ray(x)
            nothing = uninformative(prior)
            assert nothing.likelihood_rows == (1, (((1,) * len(k), 1),))
            assert list(conditional_posteriors(k, nothing)) == [(k, sum(k))]


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_product_mean_is_prior(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    prior = random_prior(n, rng)
    exps = tuple(
        random_experiment(prior, rng, splits=rng.randint(0, 2))
        for _ in range(rng.randint(1, 3))
    )
    assert product(exps).mean() == prior


def test_profile_accessors():
    e = skew()
    profile = StrategyProfile((e, uninformative(HALF)))
    assert profile.prior == HALF
    assert profile.n_senders == 2
    assert profile.opponents(0) == uninformative(HALF)
    assert profile.opponents(1) == e
    alone = StrategyProfile((e,))
    assert alone.opponents(0) == uninformative(HALF)
