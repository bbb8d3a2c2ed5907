"""The oracle's scans without a joint product per profile: full revelation
read from atom supports, payoffs scored in integers against one pullback
per (sender, opponents), and the grid enumeration on integer atoms with
each support's last atom solved, each against the slower computation it
replaces: the reference scans sum ``Fraction`` conditional payoffs over the
posteriors (``reference.conditional_payoff_against``), and the reference
enumeration searches every support (``reference.grid_strategies``).  Each
likelihood row is pulled back once per utility and command."""

import importlib
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from zspersuasion import oracle, utilities

from zspersuasion.actions import induced_game
from zspersuasion.beliefs import Belief, degenerate, ray
from zspersuasion.cli import main
from zspersuasion.exceptions import EnumerationTooLarge
from zspersuasion.experiments import (
    Experiment,
    StrategyProfile,
    fully_revealing,
    product,
    uninformative,
)
from zspersuasion.oracle import (
    GridSpec,
    RevelationScanResult,
    ScanResult,
    _LikelihoodRows,
    _experiment,
    _grid_strategies,
    _reveals_fully,
    best_response_scan,
    enumerate_grid_strategies,
    enumeration_bound,
    full_revelation_scan,
)
from zspersuasion.utilities import GamePayoffs, Pullback, normalize_payoffs

from conftest import (
    FIXTURES,
    random_action_game,
    random_binary_game,
    random_experiment,
    random_prior,
)
import reference
from reference import expected_utility, grid_beliefs, support_masks
from test_posterior_engine import random_face_experiment, random_utility


def reference_value(u, against: Experiment, e: Experiment, payoffs: dict):
    """A sender's payoff from playing e against the opponents' joint
    ``against``: sum_j m_j times the reference conditional payoff at e's
    atom j, kept in ``payoffs`` by the atom's ray."""
    total = Fraction(0)
    for b, m in e.atoms:
        k = ray(b)
        w = payoffs.get(k)
        if w is None:
            w = payoffs[k] = reference.conditional_payoff_against(
                u, against, k
            )
        total += m * w
    return total


def reference_full_revelation_scan(
    g: GamePayoffs, prior: Belief, grid: GridSpec
) -> RevelationScanResult:
    """The scan that builds every profile's joint experiment and takes each
    sender's base payoff from it.  A profile in which a sender gets less
    than full revelation pays her, sum_l prior_l u(delta_l), is no
    equilibrium: she can reveal everything, on the grid or off it."""
    strategies = enumerate_grid_strategies(prior, grid)
    values = [reference.memoized(u) for u in g.utilities]
    revealed = [
        sum(
            (prior[l] * u(degenerate(prior.n_states, l))
             for l in range(prior.n_states)),
            Fraction(0),
        )
        for u in g.utilities
    ]
    cache: dict = {}

    def joint_of(experiments):
        joint = cache.get(experiments)
        if joint is None:
            joint = cache[experiments] = product(experiments)
        return joint

    for combo in itertools.product(strategies, repeat=g.n_senders):
        joint = joint_of(combo)
        if joint.is_fully_revealing():
            continue
        equilibrium = True
        for i, u in enumerate(values):
            base = sum((m * u(b) for b, m in joint.atoms), Fraction(0))
            others = combo[:i] + combo[i + 1:]
            against = joint_of(others) if others else uninformative(prior)
            payoffs = cache.setdefault((i, others), {})
            if base < revealed[i] or any(
                reference_value(u, against, e, payoffs) > base
                for e in strategies
            ):
                equilibrium = False
                break
        if equilibrium:
            return RevelationScanResult(False, StrategyProfile(combo))
    return RevelationScanResult(True)


def reference_best_response_scan(g, profile, i, grid) -> ScanResult:
    """best_response_scan with the base payoff from the full joint."""
    base = expected_utility(g, profile, i)
    for e in enumerate_grid_strategies(profile.prior, grid):
        deviated = StrategyProfile(
            profile.experiments[:i] + (e,) + profile.experiments[i + 1:]
        )
        value = expected_utility(g, deviated, i)
        if value > base:
            return ScanResult(True, e, value - base)
    return ScanResult(False)


def random_scan_game(rng: random.Random, n: int, m: int) -> GamePayoffs:
    """Random guarded utilities, a zero-sum binary game, or the induced game
    of a random zero-sum action game."""
    pick = rng.random()
    if m == 1 or pick < 0.3:
        return GamePayoffs(tuple(random_utility(rng, n) for _ in range(m)))
    if n == 2 and pick < 0.6:
        return random_binary_game(rng, 3, m)
    return normalize_payoffs(
        induced_game(random_action_game(rng, n, rng.randint(2, 4), m))
    )


def random_scan_grid(rng: random.Random, n: int, m: int) -> GridSpec:
    if n == 2:
        return GridSpec(
            rng.randint(2, 4), 2 if m == 3 else rng.randint(2, 3),
            2 if m == 3 else rng.randint(2, 3),
        )
    return GridSpec(2, 2, 2 if m == 3 else rng.randint(2, 3))


def grid_prior(rng: random.Random, n: int, grid: GridSpec) -> Belief:
    """An interior prior on the grid of the experiments' means."""
    return interior_grid_belief(
        rng, n, grid.belief_resolution * grid.mass_resolution
    )


def interior_grid_belief(
    rng: random.Random, n: int, resolution: int
) -> Belief:
    return rng.choice(
        [b for b in grid_beliefs(n, resolution) if b.has_full_support()]
    )


class TestFullRevelationScan:
    def test_same_result_as_the_per_profile_joint_scan(self):
        rng = random.Random(8080)
        verdicts = {True: 0, False: 0}
        shapes = set()
        for _ in range(150):
            n = rng.randint(2, 3)
            m = rng.randint(1, 3)
            g = random_scan_game(rng, n, m)
            grid = random_scan_grid(rng, n, m)
            prior = grid_prior(rng, n, grid)
            expected = reference_full_revelation_scan(g, prior, grid)
            assert full_revelation_scan(g, prior, grid) == expected
            verdicts[expected.only_fully_revealing] += 1
            shapes.add((n, m))
        assert min(verdicts.values()) >= 20, verdicts
        assert len(shapes) == 6, shapes

    def test_only_two_opponents_or_more_are_folded(self, monkeypatch):
        """A lone opponent's likelihood rows come from her integer atoms;
        ``product`` folds only the opponents of a three-sender game."""
        folded = []
        fold = oracle.product

        def counted(experiments):
            folded.append(len(experiments))
            return fold(experiments)

        monkeypatch.setattr(oracle, "product", counted)
        rng = random.Random(3030)
        for m in (1, 2, 3):
            g = random_scan_game(rng, 2, m)
            grid = random_scan_grid(rng, 2, m)
            full_revelation_scan(g, grid_prior(rng, 2, grid), grid)
            assert all(count >= 2 for count in folded)
            assert bool(folded) == (m == 3), (m, folded)
            folded.clear()

    def test_support_test_agrees_with_the_product(self):
        rng = random.Random(77)
        outcomes = {True: 0, False: 0}
        face_atoms = 0
        for _ in range(500):
            n = rng.randint(2, 5)
            prior = random_prior(n, rng)
            combo = tuple(
                fully_revealing(prior) if rng.random() < 0.25
                else random_face_experiment(prior, rng, rng.randint(0, 2))
                for _ in range(rng.randint(1, 3))
            )
            face_atoms += sum(
                not b.has_full_support() for e in combo for b, _ in e.atoms
            )
            expected = product(combo).is_fully_revealing()
            assert _reveals_fully([support_masks(e) for e in combo]) == expected
            outcomes[expected] += 1
        assert min(outcomes.values()) >= 100, outcomes
        assert face_atoms >= 500


class TestBestResponseScan:
    def test_same_result_as_the_full_joint_base(self):
        rng = random.Random(515)
        improved = {True: 0, False: 0}
        for _ in range(100):
            n = rng.randint(2, 3)
            m = rng.randint(1, 3)
            g = random_scan_game(rng, n, m)
            grid = random_scan_grid(rng, n, m)
            prior = grid_prior(rng, n, grid)
            strategies = enumerate_grid_strategies(prior, grid)
            profile = StrategyProfile(
                tuple(rng.choice(strategies) for _ in range(m))
            )
            i = rng.randrange(m)
            expected = reference_best_response_scan(g, profile, i, grid)
            assert best_response_scan(g, profile, i, grid) == expected
            improved[expected.improved] += 1
        assert min(improved.values()) >= 10, improved

    def test_an_off_grid_own_experiment(self):
        """Her own experiment, off the grid, is scored as a Fraction and
        compared exactly with the integer scores of the grid strategies."""
        rng = random.Random(5150)
        improved = {True: 0, False: 0}
        for _ in range(80):
            n = rng.randint(2, 3)
            m = rng.randint(1, 3)
            g = random_scan_game(rng, n, m)
            grid = random_scan_grid(rng, n, m)
            prior = grid_prior(rng, n, grid)
            strategies = enumerate_grid_strategies(prior, grid)
            i = rng.randrange(m)
            own = random_experiment(prior, rng, splits=rng.randint(1, 3))
            if own in strategies:
                continue
            profile = StrategyProfile(tuple(
                own if j == i else rng.choice(strategies) for j in range(m)
            ))
            expected = reference_best_response_scan(g, profile, i, grid)
            assert best_response_scan(g, profile, i, grid) == expected
            improved[expected.improved] += 1
        assert min(improved.values()) >= 10, improved


def reference_grid_strategies(
    prior: Belief, grid: GridSpec
) -> list[Experiment]:
    """Every grid experiment whose Fraction mean equals the prior."""
    beliefs = grid_beliefs(prior.n_states, grid.belief_resolution)
    r = grid.mass_resolution
    out = []
    for size in range(1, grid.max_support + 1):
        for support in itertools.combinations(beliefs, size):
            for cuts in itertools.combinations(range(1, r), size - 1):
                bounds = (0,) + cuts + (r,)
                masses = [Fraction(b - a, r) for a, b in zip(bounds, bounds[1:])]
                mean = tuple(
                    sum((c * b[l] for c, b in zip(masses, support)), Fraction(0))
                    for l in range(prior.n_states)
                )
                if mean == prior.probs:
                    out.append(Experiment(prior, tuple(zip(support, masses))))
    return out


class TestGridEnumeration:
    def test_same_list_as_fraction_means(self):
        rng = random.Random(2468)
        sizes = {"empty_off_grid": 0, "nonempty": 0}
        for _ in range(120):
            n = rng.randint(2, 4)
            grid = GridSpec(
                rng.randint(1, 5 - n + 1), rng.randint(1, 4), rng.randint(1, 3)
            )
            resolution = grid.belief_resolution * grid.mass_resolution
            pick = rng.random()
            if pick < 0.2:
                prior = random_prior(n, rng)
            elif pick < 0.5 or resolution < n:
                # off the grid by a small denominator
                prior = interior_grid_belief(
                    rng, n, max(n, resolution + rng.randint(1, 3))
                )
            else:
                prior = grid_prior(rng, n, grid)
            expected = reference_grid_strategies(prior, grid)
            assert enumerate_grid_strategies(prior, grid) == expected
            scaled = [p * grid.belief_resolution * grid.mass_resolution
                      for p in prior.probs]
            if any(t.denominator != 1 for t in scaled):
                assert expected == []
                sizes["empty_off_grid"] += 1
            elif expected:
                sizes["nonempty"] += 1
        assert min(sizes.values()) >= 20, sizes


class TestIntegerGridStrategies:
    """The enumeration on integer atoms, with each support's last atom
    solved from the prior, against the loop that searched every support
    and tested every mass split (``reference.grid_strategies``)."""

    LIMIT = 15_000  # the largest enumeration bound the reference searches

    def test_same_list_as_the_searched_last_atom(self):
        rng = random.Random(97531)
        seen = {"on_grid": 0, "off_grid": 0, "nonempty": 0}
        shapes, resolutions = set(), set()
        while seen["on_grid"] + seen["off_grid"] < 300:
            n = rng.randint(2, 4)
            grid = GridSpec(
                rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 3)
            )
            if enumeration_bound(n, grid) > self.LIMIT:
                continue
            resolution = grid.belief_resolution * grid.mass_resolution
            pick = rng.random()
            if pick < 0.5 and resolution >= n:
                prior = grid_prior(rng, n, grid)
            elif pick < 0.75:
                prior = random_prior(n, rng)
            else:
                prior = interior_grid_belief(
                    rng, n, max(n, resolution + rng.randint(1, 3))
                )
            expected = reference.grid_strategies(prior, grid)
            assert enumerate_grid_strategies(prior, grid) == expected
            on_grid = all((p * resolution).denominator == 1 for p in prior.probs)
            seen["on_grid" if on_grid else "off_grid"] += 1
            seen["nonempty"] += bool(expected)
            shapes.add((n, grid.max_support))
            resolutions.add((grid.belief_resolution, grid.mass_resolution))
        assert min(seen.values()) >= 50, seen
        assert len(shapes) == 9, shapes
        assert {b for b, _ in resolutions} == set(range(1, 7))
        assert {r for _, r in resolutions} == set(range(1, 7))

    def test_the_cap_is_checked_before_the_off_grid_prior(self):
        rng = random.Random(8642)
        for _ in range(60):
            n = rng.randint(2, 4)
            grid = GridSpec(
                rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 3)
            )
            bound = enumeration_bound(n, grid)
            # a denominator that is a prime above R r puts it off the grid
            resolution = grid.belief_resolution * grid.mass_resolution
            total = next(
                t for t in itertools.count(max(n, resolution) + 1)
                if all(t % d for d in range(2, t))
            )
            cuts = sorted(rng.sample(range(1, total), n - 1))
            prior = Belief(tuple(
                Fraction(b - a, total)
                for a, b in zip((0, *cuts), (*cuts, total))
            ))
            capped = GridSpec(
                grid.belief_resolution, grid.mass_resolution,
                grid.max_support, cap=bound - 1,
            )
            for enumerate_ in (reference.grid_strategies, enumerate_grid_strategies):
                with pytest.raises(EnumerationTooLarge):
                    enumerate_(prior, capped)

    def test_integer_rows_are_the_experiments_likelihood_rows(self):
        rng = random.Random(1123)
        cases = [
            (Belief((Fraction(1, 3),) * 3), GridSpec(4, 3, 3)),
            (Belief((Fraction(1, 3),) * 3), GridSpec(6, 4, 3)),
            (Belief((Fraction(1, 2), Fraction(1, 2))), GridSpec(5, 4, 3)),
            (Belief((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))),
             GridSpec(6, 4, 3)),
            (Belief((Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))),
             GridSpec(8, 6, 3)),
            (Belief((Fraction(3, 10), Fraction(7, 10))), GridSpec(5, 6, 3)),
            (Belief((Fraction(1, 8), Fraction(1, 4), Fraction(3, 8),
                     Fraction(1, 4))), GridSpec(4, 4, 3)),
        ]
        for _ in range(6):
            n = rng.randint(2, 4)
            grid = GridSpec(rng.randint(2, 4), rng.randint(2, 4), 3)
            cases.append((grid_prior(rng, n, grid), grid))
        checked = 0
        for prior, grid in cases:
            rows = _LikelihoodRows(prior, grid)
            for atoms in _grid_strategies(prior, grid):
                e = _experiment(prior, grid, atoms)
                assert rows(atoms) == e.likelihood_rows
                checked += 1
        assert checked >= 500, checked


BENCH = Path(__file__).resolve().parent.parent / "bench"


class TestPullBacksPerCommand:
    """A utility pulls each likelihood row back once and keeps it, and the
    guards pulled back through a row are kept once per guard sequence; a
    new command, which loads its utilities afresh, pulls back again."""

    @staticmethod
    def count(monkeypatch):
        pulled, guards, built = [], [], []
        pull_back = utilities._pull_back
        pull_guard = utilities._pulled_back_guard
        pull = Pullback._pull

        def counted_pull_back(u, z):
            pulled.append((id(u), z))
            return pull_back(u, z)

        def counted_guard(guard, z, support):
            guards.append((id(guard), z))
            return pull_guard(guard, z, support)

        def counted_pull(self, u, e, rows):
            built.append(len(rows))
            return pull(self, u, e, rows)

        monkeypatch.setattr(utilities, "_pull_back", counted_pull_back)
        monkeypatch.setattr(utilities, "_pulled_back_guard", counted_guard)
        monkeypatch.setattr(Pullback, "_pull", counted_pull)
        return pulled, guards, built

    def test_each_utility_and_row_once_per_command(
        self, monkeypatch, capsys, tmp_path
    ):
        monkeypatch.syspath_prepend(str(BENCH))
        workloads = importlib.import_module("workloads")
        manifest = workloads.write_round(
            workloads.build_round("oracle-scan", 0), tmp_path
        )
        pulled, guards, built = self.count(monkeypatch)
        rows = pulls = 0
        for case in manifest:
            assert main(case["argv"]) == 0
            capsys.readouterr()
            assert pulled and len(set(pulled)) == len(pulled)
            assert len(set(guards)) == len(guards)
            rows += sum(built)
            pulls += len(pulled)
            for record in (pulled, guards, built):
                record.clear()
        # the same rows recur across the (sender, opponents) pairs
        assert pulls < rows / 2, (pulls, rows)

    def test_a_second_command_pulls_back_again(self, monkeypatch, capsys):
        argv = ["oracle", "scan", str(FIXTURES / "figure1.json"),
                "--belief-res", "5", "--mass-res", "4", "--max-support", "3"]
        pulled, guards, built = self.count(monkeypatch)
        counts = []
        for _ in range(2):
            assert main(argv) == 0
            capsys.readouterr()
            counts.append((len(pulled), len(guards), len(built)))
            for record in (pulled, guards, built):
                record.clear()
        assert counts[0] == counts[1]
        assert min(counts[0]) > 0, counts
