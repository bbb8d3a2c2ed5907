"""Simplex geometry: beliefs and Bayesian combination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zspersuasion.beliefs import Belief, belief, combine
from zspersuasion.exceptions import UndefinedPosterior


def rational_beliefs(n: int):
    """Random rational points of the n-simplex."""

    def build(weights):
        total = sum(weights)
        if total == 0:
            weights = [1] * n
            total = n
        return Belief(tuple(Fraction(w, total) for w in weights))

    return st.lists(
        st.integers(min_value=0, max_value=12), min_size=n, max_size=n
    ).map(build)


def full_support_beliefs(n: int):
    def build(weights):
        total = sum(weights)
        return Belief(tuple(Fraction(w, total) for w in weights))

    return st.lists(
        st.integers(min_value=1, max_value=12), min_size=n, max_size=n
    ).map(build)


class TestCombine:
    def test_worked_value(self):
        prior = belief(["1/2", "1/2"])
        x = belief(["3/5", "2/5"])
        assert combine(prior, [x, x]) == belief(["9/13", "4/13"])

    def test_uninformative_is_identity(self):
        prior = belief(["1/6", "1/3", "1/2"])
        x = belief(["1/4", "1/4", "1/2"])
        assert combine(prior, [prior, x]) == x

    def test_degenerate_wins(self):
        prior = belief(["1/2", "1/2"])
        assert combine(prior, [belief(["1", "0"]), belief(["3/5", "2/5"])]) == belief(
            ["1", "0"]
        )

    def test_disjoint_supports_undefined(self):
        prior = belief(["1/2", "1/2"])
        with pytest.raises(UndefinedPosterior):
            combine(prior, [belief(["1", "0"]), belief(["0", "1"])])

    @given(
        prior=full_support_beliefs(3),
        x=full_support_beliefs(3),
        y=full_support_beliefs(3),
        z=full_support_beliefs(3),
    )
    @settings(max_examples=60)
    def test_associativity(self, prior, x, y, z):
        one_shot = combine(prior, [x, y, z])
        nested = combine(prior, [combine(prior, [x, y]), z])
        assert one_shot == nested

    @given(prior=full_support_beliefs(3))
    def test_identity(self, prior):
        assert combine(prior, [prior, prior, prior]) == prior

    @given(prior=full_support_beliefs(3), x=rational_beliefs(3))
    @settings(max_examples=60)
    def test_projection(self, x, prior):
        """If one interim belief lives on a face, so does the posterior."""
        y = belief(["0", "1/2", "1/2"])
        if 1 not in x.support and 2 not in x.support:
            return
        result = combine(prior, [x, y])
        assert result.support <= {1, 2}

