"""Equilibrium construction, exploit synthesis, and profile verification."""

import contextlib
import io
from fractions import Fraction

import pytest

from zspersuasion import equilibrium
from zspersuasion.affine import AffineForm, Constraint
from zspersuasion.beliefs import belief
from zspersuasion.cli import main
from zspersuasion.equilibrium import (
    construct_fully_revealing,
    construct_pooling_equilibrium,
    synthesize_exploit,
    verify_profile,
)
from zspersuasion.exceptions import NotPoolable, PreconditionFailed
from zspersuasion.experiments import (
    StrategyProfile,
    fully_revealing,
    product,
    uninformative,
)
from zspersuasion.scenario import load_scenario
from zspersuasion.utilities import (
    GamePayoffs,
    Piece,
    PiecewiseAffineUtility,
    normalize_payoffs,
)

from conftest import FIXTURES, constant_utility, negate_utility, uniform
from reference import expected_utility


HALF = belief(["1/2", "1/2"])


def b51_game():
    return normalize_payoffs(
        load_scenario(str(FIXTURES / "example_b51.json")).payoffs
    )


def interior_bump_game() -> GamePayoffs:
    """Three states; sender 0 strictly positive only strictly inside the
    simplex (every edge is zero), so pairs are poolable but the full set is
    not."""
    interior = tuple(
        Constraint(
            AffineForm(
                Fraction(0),
                tuple(Fraction(1) if m == l else Fraction(0) for m in range(3)),
            ),
            ">",
        )
        for l in range(3)
    )
    u = PiecewiseAffineUtility(
        (
            Piece(
                interior,
                AffineForm(Fraction(-1), (Fraction(1), Fraction(1), Fraction(2))),
            ),
            Piece((), AffineForm.zero(3)),
        )
    )
    return GamePayoffs((u, negate_utility(u)))


class TestConstruction:
    def test_fully_revealing(self):
        prior = belief(["1/6", "1/3", "1/2"])
        profile = construct_fully_revealing(prior, 3)
        assert profile.n_senders == 3
        assert all(e.is_fully_revealing() for e in profile.experiments)

    def test_pooling_requires_flat_face(self, figure_game):
        with pytest.raises(NotPoolable):
            construct_pooling_equilibrium(figure_game, HALF, (0, 1))

    def test_pooling_equilibrium_shape(self):
        g = interior_bump_game()
        prior = belief(["1/6", "1/3", "1/2"])
        profile = construct_pooling_equilibrium(g, prior, (1, 2))
        e = profile.experiments[0]
        assert e.mean() == e.prior
        pooled = [b for b, _ in e.atoms if not b.is_degenerate()]
        assert pooled == [belief(["0", "2/5", "3/5"])]
        assert verify_profile(g, profile).ok

    def test_all_flat_pools_everything(self):
        g = GamePayoffs((constant_utility(2), constant_utility(2)))
        profile = construct_pooling_equilibrium(g, HALF, (0, 1))
        assert profile.experiments[0] == uninformative(HALF)
        assert verify_profile(g, profile).ok


class TestBinaryExploit:
    def test_worked_certificate(self, figure_game):
        profile = StrategyProfile((uninformative(HALF), uninformative(HALF)))
        cert = synthesize_exploit(figure_game, profile, (0, 1))
        assert cert.sender == 0
        assert cert.x_bar == belief(["2/5", "3/5"])
        assert cert.epsilon == Fraction(5, 12)
        assert cert.payoff == Fraction(1, 6)
        assert cert.deviation.mean() == cert.deviation.prior
        # playing the deviation on top of the whole profile earns the payoff
        extended = product(profile.experiments + (cert.deviation,))
        got = sum(
            m * figure_game.utilities[0](b) for b, m in extended.atoms
        )
        assert got == cert.payoff

    def test_requires_pooled_face(self, figure_game):
        revealing = StrategyProfile(
            (fully_revealing(HALF), fully_revealing(HALF))
        )
        with pytest.raises(PreconditionFailed):
            synthesize_exploit(figure_game, revealing, (0, 1))

    def test_requires_advantage(self):
        g = GamePayoffs((constant_utility(2), constant_utility(2)))
        profile = StrategyProfile((uninformative(HALF), uninformative(HALF)))
        with pytest.raises(PreconditionFailed):
            synthesize_exploit(g, profile, (0, 1))

    def test_partial_pooling_opponent(self, figure_game):
        # opponent reveals with probability 1/2 and stays quiet otherwise
        from zspersuasion.experiments import Experiment

        e2 = Experiment(
            HALF,
            (
                (belief(["1", "0"]), Fraction(1, 4)),
                (belief(["0", "1"]), Fraction(1, 4)),
                (HALF, Fraction(1, 2)),
            ),
        )
        profile = StrategyProfile((uninformative(HALF), e2))
        cert = synthesize_exploit(figure_game, profile, (0, 1))
        assert cert.payoff > 0


class TestGeneralExploit:
    def test_b51_reduces_to_an_edge(self):
        g = b51_game()
        prior = belief(["1/6", "1/3", "1/2"])
        profile = StrategyProfile((uninformative(prior), uninformative(prior)))
        cert = synthesize_exploit(g, profile, (0, 1, 2))
        assert len(cert.theta) == 2
        assert cert.payoff > 0

    def test_interior_advantage(self):
        """Sender 0 is positive only strictly inside the simplex, where
        beta_0 + beta_1 + 2 beta_2 > 1: the exact search finds an interim
        belief there."""
        g = interior_bump_game()
        prior = belief(["1/6", "1/3", "1/2"])
        profile = StrategyProfile((uninformative(prior), uninformative(prior)))
        cert = synthesize_exploit(g, profile, (0, 1, 2))
        assert cert.theta == (0, 1, 2)
        assert cert.sender == 0
        assert cert.payoff > 0
        assert g.utilities[0](cert.x_bar) >= 0


class TestVerifyProfile:
    def test_accepts_fully_revealing(self, figure_game):
        profile = construct_fully_revealing(HALF, 2)
        assert verify_profile(figure_game, profile).ok

    def test_rejects_uninformative_pair(self, figure_game):
        profile = StrategyProfile((uninformative(HALF), uninformative(HALF)))
        result = verify_profile(figure_game, profile)
        assert not result.ok
        assert result.gain > 0
        # replaying the returned deviation for the flagged sender gains
        i = result.sender
        others = profile.experiments[:i] + profile.experiments[i + 1:]
        joint = product(others + (result.deviation,))
        base = expected_utility(figure_game, profile, i)
        value = sum(
            m * figure_game.utilities[i](b) for b, m in joint.atoms
        )
        assert value - base == result.gain == Fraction(1, 2)

    def test_rejects_one_sided_revelation(self, figure_game):
        # the joint is fully revealing, but sender 0 would rather deviate
        # away from revelation and exploit the quiet opponent directly
        profile = StrategyProfile((fully_revealing(HALF), uninformative(HALF)))
        result = verify_profile(figure_game, profile)
        assert not result.ok
        assert result.sender == 0
        assert result.gain > 0

    def test_minimal_theta_once_per_pooled_set(self, monkeypatch):
        calls = []
        minimal_theta = equilibrium._minimal_theta

        def counted(g, omega):
            calls.append(omega)
            return minimal_theta(g, omega)

        monkeypatch.setattr(equilibrium, "_minimal_theta", counted)
        argv = ["verify", str(FIXTURES / "example_b51.json"),
                "--profile", "both_uninformative", "--grid", "5"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert calls == [(0, 1, 2)]

    def test_catches_negative_payoff_profile(self):
        g = interior_bump_game()
        prior = uniform(3)
        # sender 1 pools everything while sender 0 does too: sum of payoffs
        # is zero but the interior atom pays sender 0, so sender 1 is down
        profile = StrategyProfile((uninformative(prior), uninformative(prior)))
        result = verify_profile(g, profile)
        assert not result.ok
