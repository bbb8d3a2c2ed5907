"""The integer Bayes step against its Fraction references, the conditional
payoff against the posterior sum of ``conditional_dist`` and ``combine``,
and the integer grid."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from zspersuasion import oracle
from zspersuasion.beliefs import Belief, belief, combine, ray, ray_belief
from zspersuasion.exceptions import EnumerationTooLarge
from zspersuasion.experiments import (
    conditional_dist,
    conditional_posteriors,
    product,
)
from zspersuasion.oracle import grid_counts
from zspersuasion.utilities import conditional_payoff_against

from conftest import random_experiment, random_prior
import reference
from reference import grid_beliefs
from test_experiments import reference_product
from test_posterior_engine import (
    random_face_experiment,
    random_interim,
    random_utility,
    reference_payoff,
)

PRIMES = (10007, 10009, 10037, 10039, 100003, 100019, 999983, 1000003)


def coprime_prior(n: int, rng: random.Random) -> Belief:
    """A full-support prior whose first n - 1 coordinates have distinct
    large prime denominators; the last one's is their product."""
    coords = [
        Fraction(rng.randint(1, q // (2 * n)), q)
        for q in rng.sample(PRIMES, n - 1)
    ]
    return Belief(tuple(coords) + (1 - sum(coords),))


def some_prior(n: int, rng: random.Random) -> Belief:
    return coprime_prior(n, rng) if rng.random() < 0.5 else random_prior(n, rng)


def some_interim(prior: Belief, rng: random.Random) -> Belief:
    """An atom of a random experiment (on a face when it pools a block) or a
    small-denominator belief on a random face or the interior."""
    if rng.random() < 0.5:
        return random_face_experiment(prior, rng, 1).atoms[0][0]
    return random_interim(rng, prior.n_states)


class TestRays:
    def test_ray_is_primitive_and_round_trips(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(1, 5)
            b = some_interim(coprime_prior(n, rng), rng) if n > 1 else belief([1])
            k = ray(b)
            assert all(isinstance(v, int) and v >= 0 for v in k)
            assert math.gcd(*k) == 1
            assert sum(k) == math.lcm(*(p.denominator for p in b.probs))
            assert ray_belief(k) == b
            assert ray_belief(tuple(7 * v for v in k)) == b


class TestConditionalPosteriorsDifferential:
    """conditional_posteriors(k, other) against conditional_dist + combine."""

    def test_against_combine_and_conditional_dist(self):
        rng = random.Random(20261)
        seen = {"coprime_prior": 0, "zero_coordinate_atoms": 0,
                "x_on_face": 0, "skipped_atoms": 0}
        for _ in range(400):
            n = rng.randint(2, 5)
            prior = some_prior(n, rng)
            other = random_face_experiment(prior, rng, rng.randint(0, 2))
            x = some_interim(prior, rng)
            k = ray(x)
            e = other.likelihood_rows[0]
            expected = [
                (ray(combine(prior, (x, y))), e * sum(k) * p)
                for y, p in conditional_dist(other, x)
            ]
            got = list(conditional_posteriors(k, other))
            assert got == expected
            assert all(type(q) is int for _, q in got)
            # any positive multiple of k is the same interim belief
            scaled = tuple(3 * v for v in k)
            assert list(conditional_posteriors(scaled, other)) == [
                (w, 3 * q) for w, q in expected
            ]
            seen["coprime_prior"] += max(p.denominator for p in prior) > 10**4
            seen["zero_coordinate_atoms"] += sum(
                not y.has_full_support() for y, _ in other.atoms
            )
            seen["x_on_face"] += not x.has_full_support()
            seen["skipped_atoms"] += sum(
                not (x.support & y.support) for y, _ in other.atoms
            )
        assert min(seen.values()) >= 100, seen

    def test_likelihood_rows(self):
        rng = random.Random(20262)
        for _ in range(100):
            prior = some_prior(rng.randint(2, 5), rng)
            e = random_face_experiment(prior, rng, rng.randint(0, 2))
            scale, rows = e.likelihood_rows
            assert len(rows) == len(e.atoms)
            # one denominator for the experiment, and the least one
            assert math.gcd(scale, *(c for _, c in rows)) == 1
            for (y, m), (z, c) in zip(e.atoms, rows):
                assert type(c) is int and c > 0
                d = m / Fraction(c, scale)
                assert d.denominator == 1
                assert tuple(Fraction(v, d.numerator) for v in z) == tuple(
                    y_l / p_l for y_l, p_l in zip(y.probs, prior.probs)
                )


class TestProductDifferential:
    def test_against_the_reference_fold(self):
        rng = random.Random(20264)
        senders = set()
        for _ in range(60):
            n = rng.randint(2, 4)
            prior = some_prior(n, rng)
            m = rng.randint(2, 4)
            exps = tuple(
                random_face_experiment(prior, rng, rng.randint(0, 1))
                if rng.random() < 0.7
                else random_experiment(prior, rng, splits=rng.randint(0, 1))
                for _ in range(m)
            )
            assert product(exps) == reference_product(exps)
            senders.add(m)
        assert senders == {2, 3, 4}


class TestConditionalPayoff:
    def test_unmemoized_utility_gives_the_same_value(self):
        rng = random.Random(20265)
        for _ in range(200):
            n = rng.randint(2, 5)
            prior = some_prior(n, rng)
            u = random_utility(rng, n)
            others = product(tuple(
                random_face_experiment(prior, rng, rng.randint(0, 2))
                for _ in range(rng.randint(1, 2))
            ))
            x = some_interim(prior, rng)
            expected = reference_payoff(u, others, x)
            got = conditional_payoff_against(u, others, x)
            assert type(got) is Fraction and got == expected
            assert conditional_payoff_against(u, others, ray(x)) == expected


def fraction_grid(n_states: int, resolution: int) -> list[tuple]:
    """The grid as it was built from Fraction tuples and then sorted."""
    out = []
    for combo in itertools.combinations(
        range(resolution + n_states - 1), n_states - 1
    ):
        cuts = (-1,) + combo + (resolution + n_states - 1,)
        counts = [b - a - 1 for a, b in zip(cuts, cuts[1:])]
        out.append(tuple(Fraction(c, resolution) for c in counts))
    return sorted(out)


class TestGrid:
    def test_same_beliefs_in_the_same_order(self):
        for n in range(1, 6):
            for r in range(1, 9):
                grid = grid_beliefs(n, r)
                assert [b.probs for b in grid] == fraction_grid(n, r)
                assert [tuple(r * p for p in b.probs) for b in grid] == list(
                    grid_counts(n, r)
                )
                assert len(grid) == math.comb(r + n - 1, n - 1)

    @pytest.mark.parametrize("resolution", [0, -1])
    def test_resolution_below_one_is_rejected(self, resolution):
        with pytest.raises(ValueError, match="must be >= 1"):
            grid_counts(3, resolution)

    def test_counts_are_generated_one_at_a_time(self):
        counts = grid_counts(3, 5)
        assert iter(counts) is counts
        assert next(counts) == (0, 0, 5)
        assert next(counts) == (0, 1, 4)

    def test_cap_is_checked_before_any_belief_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(reference, "ray_belief", built.append)
        with pytest.raises(EnumerationTooLarge, match="21 grid beliefs"):
            grid_beliefs(3, 5, cap=20)
        monkeypatch.setattr(oracle, "DEFAULT_ENUMERATION_CAP", 20)
        with pytest.raises(EnumerationTooLarge, match="exceed cap 20"):
            grid_beliefs(3, 5)
        assert built == []
        assert len(list(grid_counts(3, 5, cap=21))) == 21
