"""The posterior engine of `verify` and `oracle scan`: the one-pass
conditional payoff against the conditional_dist + combine reference, and the
work `verify_profile` does per command: one pullback per sender, no utility
evaluated per grid belief, and no grid belief generated when every
pullback is zero."""

import random
import sys
from fractions import Fraction

from zspersuasion import equilibrium, experiments
from zspersuasion.actions import induced_game
from zspersuasion.affine import AffineForm, Constraint
from zspersuasion.beliefs import Belief, combine
from zspersuasion.cli import main
from zspersuasion.equilibrium import construct_fully_revealing, verify_profile
from zspersuasion.experiments import (
    Experiment,
    StrategyProfile,
    conditional_dist,
    fully_revealing,
    product,
    uninformative,
)
from zspersuasion.utilities import (
    GamePayoffs,
    Piece,
    PiecewiseAffineUtility,
    conditional_payoff_against,
    normalize_payoffs,
)

from conftest import FIXTURES, random_action_game, random_prior


def reference_payoff(u, others: Experiment, x: Belief) -> Fraction:
    prior = others.prior
    return sum(
        (p * u(combine(prior, (x, y))) for y, p in conditional_dist(others, x)),
        Fraction(0),
    )


def random_utility(rng: random.Random, n: int) -> PiecewiseAffineUtility:
    """A few guarded pieces with small integer forms, then a catch-all."""

    def form():
        return AffineForm(
            Fraction(rng.randint(-3, 3)),
            tuple(Fraction(rng.randint(-4, 4)) for _ in range(n)),
        )

    pieces = [
        Piece(
            (Constraint(form(), rng.choice(["<", "<=", "==", ">=", ">"])),),
            form(),
        )
        for _ in range(rng.randint(0, 3))
    ]
    pieces.append(Piece((), form()))
    return PiecewiseAffineUtility(tuple(pieces))


def random_face_experiment(
    prior: Belief, rng: random.Random, splits: int
) -> Experiment:
    """Pools a random partition of the states (one atom per block: degenerate
    for a singleton, on a face for a proper block, interior for the whole
    set), then splits random atoms into two mean-preserving halves on their
    own face."""
    n = prior.n_states
    blocks: dict[int, list[int]] = {}
    for l in range(n):
        blocks.setdefault(rng.randrange(n), []).append(l)
    atoms = []
    for block in blocks.values():
        mass = sum(prior[l] for l in block)
        atoms.append(
            (tuple(prior[l] / mass if l in block else Fraction(0)
                   for l in range(n)), mass)
        )
    for _ in range(splits):
        base, mass = atoms.pop(rng.randrange(len(atoms)))
        support = [l for l in range(n) if base[l] > 0]
        d = [Fraction(0)] * n
        for l in support:
            d[l] = Fraction(rng.randint(-2, 2), 7)
        shift = sum(d) / len(support)
        for l in support:
            d[l] -= shift
        if all(v == 0 for v in d):
            atoms.append((base, mass))
            continue
        scale = min(
            min(base[l], 1 - base[l]) / abs(d[l]) for l in support if d[l]
        ) / 2
        for sign in (1, -1):
            atoms.append(
                (tuple(base[l] + sign * scale * d[l] for l in range(n)),
                 mass / 2)
            )
    merged: dict[tuple, Fraction] = {}
    for b, m in atoms:
        merged[b] = merged.get(b, Fraction(0)) + m
    return Experiment(prior, tuple((Belief(b), m) for b, m in merged.items()))


def random_interim(rng: random.Random, n: int) -> Belief:
    """On a random face (a proper one, degenerate included, half the time),
    else interior."""
    if rng.random() < 0.5:
        support = rng.sample(range(n), rng.randint(1, n - 1))
    else:
        support = list(range(n))
    weights = [rng.randint(1, 5) if l in support else 0 for l in range(n)]
    total = sum(weights)
    return Belief(tuple(Fraction(w, total) for w in weights))


class TestAgainstReference:
    def test_equals_conditional_dist_and_combine(self):
        rng = random.Random(20260)
        seen = {"degenerate": 0, "face": 0, "interior": 0,
                "x_face": 0, "x_interior": 0}
        for _ in range(600):
            n = rng.randint(2, 5)
            m = rng.randint(2, 3)
            prior = random_prior(n, rng)
            u = random_utility(rng, n)
            others = product(tuple(
                random_face_experiment(prior, rng, rng.randint(0, 2))
                for _ in range(m - 1)
            ))
            x = random_interim(rng, n)
            for y, _ in others.atoms:
                k = len(y.support)
                seen["degenerate" if k == 1 else
                     "face" if k < n else "interior"] += 1
            seen["x_interior" if x.has_full_support() else "x_face"] += 1
            expected = reference_payoff(u, others, x)
            assert conditional_payoff_against(u, others, x) == expected
        assert min(seen.values()) >= 100, seen


def count_products(monkeypatch) -> list:
    """Records the argument of every ``product`` call the package makes."""
    original = experiments.product
    products = []

    def counted_product(*args, **kwargs):
        products.append(args[0])
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("zspersuasion"):
            if getattr(module, "product", None) is original:
                monkeypatch.setattr(module, "product", counted_product)
    return products


class TestVerifyWork:
    """verify_profile builds each opponents' joint once, pulls each
    sender's conditional payoff back once, and evaluates the utilities at
    the joint's atoms only, never per grid belief."""

    @staticmethod
    def count_work(monkeypatch):
        pullbacks, evaluated, drawn = [], [], []
        build = equilibrium.Pullback
        counts = equilibrium.grid_counts

        def counted_grid(*args):
            grid = counts(*args)
            return (drawn.append(k) or k for k in grid)

        monkeypatch.setattr(equilibrium, "grid_counts", counted_grid)

        def counted_pullback(u, others):
            pullbacks.append(build(u, others))
            return pullbacks[-1]

        monkeypatch.setattr(equilibrium, "Pullback", counted_pullback)
        evaluate = PiecewiseAffineUtility.__call__

        def counted_call(u, b):
            evaluated.append((id(u), b))
            return evaluate(u, b)

        monkeypatch.setattr(PiecewiseAffineUtility, "__call__", counted_call)
        return pullbacks, evaluated, drawn

    def test_products_and_utility_calls(self, monkeypatch):
        rng = random.Random(4)
        ag = random_action_game(rng, 4, 3)
        g = normalize_payoffs(induced_game(ag))
        prior = random_prior(4, rng)
        profile = construct_fully_revealing(prior, 2)
        products = count_products(monkeypatch)
        pullbacks, evaluated, drawn = self.count_work(monkeypatch)

        result = verify_profile(g, profile, deviation_grid=6)
        assert len(products) <= profile.n_senders + 2
        assert len(pullbacks) == profile.n_senders
        # fully revealing opponents: every atom folds away, to zero, and
        # no grid belief is generated
        assert all(p.is_zero for p in pullbacks)
        assert drawn == []
        assert len(evaluated) <= g.n_senders * len(product(profile).atoms)
        assert result.ok
        assert result.expected_utilities == (0, 0)

    def test_no_utility_call_per_grid_belief(self, monkeypatch):
        """Sender 0 is -min(beta), never positive, against the joint of two
        uninformative opponents, so every grid belief is screened; the
        others' opponents include a fully revealing sender, so theirs fold
        to zero."""
        n = 3
        u = PiecewiseAffineUtility(tuple(
            Piece(
                tuple(
                    Constraint(AffineForm(Fraction(0), tuple(
                        Fraction(int(j == l) - int(j == k)) for j in range(n)
                    )), "<=")
                    for k in range(l + 1, n)
                ),
                AffineForm(Fraction(0), tuple(
                    Fraction(-int(j == l)) for j in range(n)
                )),
            )
            for l in range(n)
        ))
        g = GamePayoffs((u, u, u))
        prior = Belief((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
        profile = StrategyProfile((
            fully_revealing(prior), uninformative(prior), uninformative(prior)
        ))
        pullbacks, evaluated, drawn = self.count_work(monkeypatch)
        result = verify_profile(g, profile, deviation_grid=8)
        assert result.ok
        assert len(drawn) == 45  # every (k0, k1, k2) summing to 8
        assert len(pullbacks) == 3
        assert [p.is_zero for p in pullbacks] == [False, True, True]
        assert len(pullbacks[0].atoms) == 1
        assert len(evaluated) <= g.n_senders * len(product(profile).atoms)

    def test_full_joint_built_once_when_exploiting(self, monkeypatch, capsys):
        """The exact search reuses the opponents' joints verify pulled back,
        and the gain is the pullback's payoff at the belief: one full joint,
        for the expected utilities, and one joint per opponent, with no
        extended joint to recompute the deviation."""
        products = count_products(monkeypatch)
        code = main([
            "verify", str(FIXTURES / "example_b51.json"),
            "--profile", "both_uninformative", "--grid", "5",
        ])
        assert code == 0
        assert '"deviation"' in capsys.readouterr().out
        sizes = [
            len(p.experiments if isinstance(p, StrategyProfile) else tuple(p))
            for p in products
        ]
        assert sorted(sizes) == [1, 1, 2]
