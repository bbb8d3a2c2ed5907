"""The integer rows of ``utilities.Pullback`` against the conditional payoffs
they replace: equal values at every grid belief to the ``Fraction`` sum over
the posteriors of ``reference.conditional_payoff_against``, the same
``NoPieceMatches`` at the same atom, and the same ``VerificationResult`` as
the memo loop of ``reference.verify_profile`` wherever its grid finds a
deviation.  Where no grid belief pays, the exact search of the whole
simplex finds the deviations the memo loop missed, each recomputed by raw
Bayes."""

import json
import random
from fractions import Fraction

import pytest

from zspersuasion import geometry
from zspersuasion.actions import induced_game
from zspersuasion.affine import AffineForm, Constraint
from zspersuasion.beliefs import Belief, belief, degenerate, ray_belief
from zspersuasion.cli import main
from zspersuasion.equilibrium import (
    construct_fully_revealing,
    verify_profile,
)
from zspersuasion.experiments import (
    Experiment,
    StrategyProfile,
    fully_revealing,
    product,
    uninformative,
)
from zspersuasion.oracle import grid_counts
from zspersuasion.scenario import scenario_from_json
from zspersuasion.utilities import (
    GamePayoffs,
    Piece,
    PiecewiseAffineUtility,
    Pullback,
    normalize_payoffs,
)

import reference
from conftest import random_action_game, random_experiment, random_prior
from test_first_match import random_utility
from test_integer_bayes import some_prior
from test_integer_first_match import hand_built_utility
from test_lexicographic_exploit import (
    GAMES,
    PROFILES,
    game_and_profiles,
    raw_bayes_value,
)
from test_posterior_engine import random_face_experiment

RESOLUTION = {2: 12, 3: 8, 4: 5, 5: 4}


def outcome(f, *args):
    """f's value, or the type and message of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # compared, never swallowed: see callers
        return (type(exc).__name__, str(exc))


def pullback_payoff(p: Pullback, k) -> Fraction:
    num = p.numerator(k)
    assert type(num) is int
    payoff = p.payoff(k)
    assert payoff == Fraction(num, p.denominator * sum(k))
    return payoff


def some_opponent(prior: Belief, rng: random.Random, kind: str) -> Experiment:
    if kind == "uninformative":
        return uninformative(prior)
    if kind == "revealing":
        return fully_revealing(prior)
    if kind == "pooled":
        return random_face_experiment(prior, rng, 0)
    if kind == "face":
        return random_face_experiment(prior, rng, rng.randint(1, 2))
    return random_experiment(prior, rng, splits=rng.randint(1, 3))


KINDS = ("uninformative", "revealing", "pooled", "face", "interior")


def some_utilities(rng: random.Random, n: int) -> list[PiecewiseAffineUtility]:
    """Raw and normalized action-game utilities, random piecewise ones
    (some with coverage gaps) and hand-built ones tight at grid beliefs."""
    g = induced_game(random_action_game(rng, n, rng.randint(2, 4)))
    out = list(g.utilities) + list(normalize_payoffs(g).utilities)
    out.append(random_utility(rng, n))
    if n in (2, 3, 4) and rng.random() < 0.5:
        out.append(hand_built_utility(rng, n))
    return out


class TestNumerator:
    def test_equals_conditional_payoff_against_at_every_grid_belief(self):
        rng = random.Random(20261101)
        seen = {kind: 0 for kind in KINDS}
        seen.update(folded=0, dynamic=0, zero=0, gap=0, opponents_2=0)
        for _ in range(60):
            n = rng.randint(2, 5)
            prior = some_prior(n, rng)
            m = rng.randint(1, 3)
            kinds = [rng.choice(KINDS) for _ in range(m - 1)]
            others = (
                product([some_opponent(prior, rng, kind) for kind in kinds])
                if kinds else uninformative(prior)
            )
            for kind in kinds:
                seen[kind] += 1
            seen["opponents_2"] += len(kinds) == 2
            for u in some_utilities(rng, n):
                p = Pullback(u, others)
                seen["zero"] += p.is_zero
                seen["dynamic"] += len(p.atoms)
                seen["folded"] += len(others.atoms) - len(p.atoms)
                for k in grid_counts(n, RESOLUTION[n]):
                    got = outcome(pullback_payoff, p, k)
                    assert got == outcome(
                        reference.conditional_payoff_against, u, others, k
                    ), (u, others, k)
                    seen["gap"] += isinstance(got, tuple)
        assert min(seen.values()) >= 5, seen

    def test_scaled_counts_give_the_same_payoff(self):
        rng = random.Random(20261102)
        for _ in range(40):
            n = rng.randint(2, 4)
            prior = random_prior(n, rng)
            others = product([
                random_face_experiment(prior, rng, 1),
                random_experiment(prior, rng, splits=1),
            ])
            u = random_utility(rng, n)
            p = Pullback(u, others)
            for k in grid_counts(n, 4):
                scaled = tuple(3 * v for v in k)
                assert outcome(pullback_payoff, p, scaled) == outcome(
                    pullback_payoff, p, k
                )

    def test_one_state_atoms_fold_to_zero_when_normalized(self):
        """Against a fully revealing opponent every atom has one state, so
        a normalized utility's pullback is zero; a raw one keeps only the
        vertex vector V, the utility's vertex values weighted by the
        atoms."""
        rng = random.Random(20261103)
        for _ in range(20):
            n = rng.randint(2, 5)
            prior = random_prior(n, rng)
            g = induced_game(random_action_game(rng, n, 3))
            revealing = fully_revealing(prior)
            for u in normalize_payoffs(g).utilities:
                assert Pullback(u, revealing).is_zero
            for u in g.utilities:
                p = Pullback(u, revealing)
                assert p.atoms == ()
                for l in range(n):
                    k = tuple(int(j == l) for j in range(n))
                    assert pullback_payoff(p, k) == u(degenerate(n, l))

    def test_the_gap_is_reported_at_the_posterior(self):
        """A utility with a gap at the centroid: against uninformative
        opponents with a uniform prior, the posterior of x = (1/3, 1/3,
        1/3) is x itself; against a split opponent the gap is met at
        another interim belief, with the posterior's coordinates."""
        u = centroid_gap_utility()
        uniform = Belief((Fraction(1, 3),) * 3)
        p = Pullback(u, uninformative(uniform))
        message = 'no piece covers belief ["1/3", "1/3", "1/3"]'
        assert outcome(p.numerator, (1, 1, 1)) == ("NoPieceMatches", message)
        skew = Belief((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        split = Experiment(skew, (
            (Belief((Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))),
             Fraction(1, 2)),
            (Belief((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))),
             Fraction(1, 2)),
        ))
        p = Pullback(u, split)
        # x = (1/5, 2/5, 2/5) meets the atom (2/3, 1/6, 1/6), the second
        # in atom order, at (1/3, 1/3, 1/3), and the first at (1, 4, 4) / 9
        k = (1, 2, 2)
        assert [
            ray_belief(tuple(a * z for a, z in zip(k, row)))
            for row, _ in split.likelihood_rows[1]
        ] == [Belief((Fraction(1, 9), Fraction(4, 9), Fraction(4, 9))), uniform]
        assert outcome(p.numerator, k) == ("NoPieceMatches", message)
        assert outcome(p.numerator, k) == outcome(
            reference.conditional_payoff_against, u, split, k
        )


def centroid_gap_utility() -> PiecewiseAffineUtility:
    """0 everywhere but at (1/3, 1/3, 1/3), which no piece covers."""
    def diff(a, b):
        return AffineForm(
            Fraction(0),
            tuple(Fraction(int(l == a) - int(l == b)) for l in range(3)),
        )

    zero = AffineForm.zero(3)
    return PiecewiseAffineUtility(tuple(
        Piece(guard, zero)
        for guard in (
            (Constraint(diff(0, 1), "<"),),
            (Constraint(diff(0, 1), ">"),),
            (Constraint(diff(0, 1), "=="), Constraint(diff(1, 2), "<")),
            (Constraint(diff(0, 1), "=="), Constraint(diff(1, 2), ">")),
        )
    ))


def pooled_profile(prior: Belief, rng: random.Random, m: int) -> StrategyProfile:
    return StrategyProfile(tuple(
        random_face_experiment(prior, rng, rng.randint(0, 1))
        if rng.random() < 0.7
        else random_experiment(prior, rng, splits=1)
        for _ in range(m)
    ))


def grid_witness(g: GamePayoffs, profile: StrategyProfile, grid: int):
    """The position, among the non-degenerate grid beliefs, of the first
    one where some sender gains, or None."""
    ks = [k for k in grid_counts(g.n_states, grid) if grid not in k]
    for j, k in enumerate(ks):
        for i, u in enumerate(g.utilities):
            others = profile.opponents(i)
            if reference.conditional_payoff_against(u, others, k) > 0:
                return j
    return None


def seeded_cases():
    """Seeded games and profiles, each with a grid, then the profiles of
    the lexicographic family at grid 2."""
    rng = random.Random(20261104)
    for _ in range(150):
        n = rng.randint(2, 5)
        m = rng.randint(1, 3)
        prior = random_prior(n, rng)
        if m > 1 and rng.random() < 0.7:
            g = normalize_payoffs(
                induced_game(random_action_game(rng, n, rng.randint(2, 4), m))
            )
        else:
            g = GamePayoffs(tuple(random_utility(rng, n) for _ in range(m)))
            g = outcome(normalize_payoffs, g)
            if isinstance(g, tuple):
                continue
        if rng.random() < 0.2:
            profile = construct_fully_revealing(prior, m)
        else:
            profile = pooled_profile(prior, rng, m)
        yield g, profile, rng.randint(2, RESOLUTION[n])
    for n, q in GAMES:
        g, profiles = game_and_profiles(n, q)
        for name in PROFILES:
            yield g, profiles[name], 2


class TestDetectPooledSets:
    """The maximal pooled sets the memo loop of ``reference.verify_profile``
    hands to the exploit: the state sets, of two or more, that some atom of
    the joint puts positive probability on, maximal under inclusion."""

    def test_uninformative_pools_everything(self):
        prior = belief(["1/6", "1/3", "1/2"])
        profile = StrategyProfile((uninformative(prior), uninformative(prior)))
        assert reference.maximal_pooled_sets(product(profile)) == [(0, 1, 2)]

    def test_fully_revealing_pools_nothing(self):
        prior = belief(["1/2", "1/2"])
        profile = StrategyProfile(
            (fully_revealing(prior), uninformative(prior))
        )
        assert reference.maximal_pooled_sets(product(profile)) == []

    def test_partial_pooling(self):
        prior = belief(["1/6", "1/3", "1/2"])
        e = Experiment(
            prior,
            (
                (belief(["1", "0", "0"]), Fraction(1, 6)),
                (belief(["0", "2/5", "3/5"]), Fraction(5, 6)),
            ),
        )
        profile = StrategyProfile((e, uninformative(prior)))
        assert reference.maximal_pooled_sets(product(profile)) == [(1, 2)]


class TestVerifyProfile:
    def test_same_result_as_the_memo_loop(self):
        """Where a sender's payoff is negative or a grid belief pays, the
        result is the memo loop's.  A sender that already earns is a failed
        precondition.  Where the memo loop exploited a pooled set there is
        a deviation too, and where it accepted, the exact search may still
        find one off the grid.  Every branch is met."""
        seen = dict.fromkeys((
            "ok", "expected", "earning", "first_belief", "later_belief",
            "exploit", "off_grid",
        ), 0)
        for g, profile, grid in seeded_cases():
            got = outcome(verify_profile, g, profile, grid)
            want = reference.verify_profile(g, profile, grid)
            expected = want.expected_utilities
            if min(expected) < 0:
                assert got == want
                seen["expected"] += 1
                continue
            if max(expected) > 0:
                assert got[0] == "PreconditionFailed", got
                seen["earning"] += 1
                continue
            j = grid_witness(g, profile, grid)
            if j is not None:
                assert got == want
                seen["first_belief" if j == 0 else "later_belief"] += 1
            elif not want.ok:
                assert not got.ok
                seen["exploit"] += 1
            else:
                seen["ok" if got.ok else "off_grid"] += 1
        assert min(seen.values()) >= 4, seen

    def test_every_deviation_pays_its_gain_by_raw_bayes(self):
        """The sender playing the returned deviation in place of its own
        experiment earns the gain over its expected payoff, by Bayes' rule
        on signal tables and first-match evaluation in ``Fraction``."""
        checked = 0
        for g, profile, grid in seeded_cases():
            result = outcome(verify_profile, g, profile, grid)
            if isinstance(result, tuple):
                assert result[0] == "PreconditionFailed", result
                continue
            if result.ok:
                continue
            i = result.sender
            u = g.utilities[i]
            others = profile.experiments[:i] + profile.experiments[i + 1:]
            value = raw_bayes_value(
                lambda b: reference.evaluate(u, b),
                profile.prior,
                others + (result.deviation,),
            )
            assert value - result.expected_utilities[i] == result.gain > 0
            checked += 1
        assert checked >= 50

    def test_the_gap_is_met_where_the_memo_loop_meets_it(self):
        """The centroid gap against opponents that reach it at different
        beliefs: the same message where a grid belief reaches it, a gap
        wherever the memo loop met one, and otherwise the memo loop's
        result or a gap met off the grid."""
        u = centroid_gap_utility()
        zero = PiecewiseAffineUtility((Piece((), AffineForm.zero(3)),))
        rng = random.Random(20261105)
        raised = 0
        for _ in range(40):
            prior = random_prior(3, rng)
            g = GamePayoffs((zero, u) if rng.random() < 0.5 else (u, zero))
            profile = pooled_profile(prior, rng, 2)
            grid = rng.randint(2, 9)
            got = outcome(verify_profile, g, profile, grid)
            want = outcome(reference.verify_profile, g, profile, grid)
            if isinstance(outcome(grid_witness, g, profile, grid), tuple):
                assert got == want
            if got != want or isinstance(want, tuple):
                assert isinstance(got, tuple), got
                assert got[0] == "NoPieceMatches"
                raised += 1
        assert raised >= 5


def off_grid_scenario() -> dict:
    """Three states, a uniform prior.  Sender 0 earns 1 on the open piece
    41/100 < beta0 < 42/100 of edge (0, 2) and 0 elsewhere, sender 1 the
    negation; the profile's joint reveals the state.  No belief of grid 5
    or 8 pays sender 0, but x = (83/400, 1/2, 117/400) pays it 1/2."""
    def cons(coeffs, const, op):
        return {"coeffs": coeffs, "const": const, "op": op}

    zero = {"coeffs": ["0", "0", "0"], "const": "0"}
    return {
        "states": 3,
        "prior": ["1/3", "1/3", "1/3"],
        "senders": 2,
        "assert_zero_sum_structural": True,
        "payoffs": [{"pieces": [
            {"guard": [
                cons(["0", "1", "0"], "0", "=="),
                cons(["1", "0", "0"], "-41/100", ">"),
                cons(["1", "0", "0"], "-42/100", "<"),
            ], "form": {"coeffs": ["0", "0", "0"], "const": "1"}},
            {"guard": [], "form": zero},
        ]}],
        "profiles": {"eq": [
            {"atoms": [{"belief": ["1", "0", "0"], "mass": "1/3"},
                       {"belief": ["0", "1/2", "1/2"], "mass": "2/3"}]},
            {"atoms": [{"belief": ["0", "1", "0"], "mass": "1/3"},
                       {"belief": ["1/2", "0", "1/2"], "mass": "2/3"}]},
        ]},
    }


class TestOffGridDeviation:
    @pytest.fixture
    def path(self, tmp_path) -> str:
        path = tmp_path / "off_grid.json"
        path.write_text(json.dumps(off_grid_scenario()))
        return str(path)

    @pytest.mark.parametrize("grid", [5, 8])
    def test_found_between_the_grid_beliefs(self, grid, path, capsys):
        """The memo loop accepts the profile; the exact search finds the
        deviation, and it pays its gain by raw Bayes."""
        scenario = scenario_from_json(off_grid_scenario())
        g = normalize_payoffs(scenario.payoffs)
        profile = scenario.profile("eq")
        assert reference.verify_profile(g, profile, grid).ok
        assert grid_witness(g, profile, grid) is None
        result = verify_profile(g, profile, grid)
        assert (result.ok, result.sender, result.gain) == (
            False, 0, Fraction(25, 88)
        )
        u = g.utilities[0]
        value = raw_bayes_value(
            u, profile.prior, (profile.experiments[1], result.deviation)
        )
        assert value == result.gain
        assert main(["verify", path, "--profile", "eq", "--grid", str(grid)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["verdict"], out["gain"]) == ("ProfitableDeviation", "25/88")

    def test_a_pullback_over_the_sweep_cap_exits_3(self, path, capsys, monkeypatch):
        monkeypatch.setattr(geometry, "SWEEP_CAP", 0)
        assert main(["verify", path, "--profile", "eq", "--grid", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "EnumerationTooLarge"
