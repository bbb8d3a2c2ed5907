"""The first-match sweep: the redundancy-pruned cells against the
fragmenting sweep they replace, how often one command sweeps, and the
cells a structural scenario's negated utility starts with."""

import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction

import pytest

from zspersuasion import geometry, utilities
from zspersuasion.actions import induced_game
from zspersuasion.affine import OPS, AffineForm, Constraint
from zspersuasion.analysis import is_zero_on_subsimplex
from zspersuasion.beliefs import Belief
from zspersuasion.cli import main
from zspersuasion.exceptions import EnumerationTooLarge, NoPieceMatches
from zspersuasion.geometry import (
    cell_is_nonempty,
    complement_cells,
    overlay_regions,
    piece_regions,
    strictly_feasible_point,
)
from zspersuasion.scenario import load_scenario, scenario_from_json, utility_to_json
from zspersuasion.utilities import (
    GamePayoffs,
    Piece,
    PiecewiseAffineUtility,
    check_zero_sum,
    normalize_payoffs,
)

import reference
from conftest import FIXTURES, random_action_game
from reference import grid_beliefs


def reference_piece_regions(pieces):
    """The sweep before redundancy removal: every cell is split by the
    complement cells of every constraint of every guard it meets, each
    tested for emptiness."""
    n = pieces[0].form.n_states
    regions = []
    remainder = [()]
    for piece in pieces:
        next_remainder = []
        for cell in remainder:
            covered = cell + tuple(piece.guard)
            if cell_is_nonempty(n, covered):
                regions.append((covered, piece.form))
            for tail in complement_cells(piece.guard):
                candidate = cell + tail
                if cell_is_nonempty(n, candidate):
                    next_remainder.append(candidate)
        remainder = next_remainder
    if remainder:
        raise NoPieceMatches.at(strictly_feasible_point(n, remainder[0]))
    return regions


def random_form(rng, n):
    return AffineForm(
        Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
        tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)),
    )


def random_guard(rng, n, earlier):
    """One to three constraints of any op; sometimes a repeat or a looser
    copy of a constraint (redundant), its negation (contradictory), or a
    constraint of an earlier guard."""
    guard = [Constraint(random_form(rng, n), rng.choice(OPS))]
    for _ in range(rng.randint(0, 2)):
        c = rng.choice(guard)
        roll = rng.random()
        if roll < 0.2:
            guard.append(c)
        elif roll < 0.4 and c.op in ("<", "<="):
            looser = AffineForm(c.expr.const - 1, c.expr.coeffs)
            guard.append(Constraint(looser, c.op))
        elif roll < 0.5 and c.op != "==":
            guard.append(c.negated())
        elif roll < 0.7 and earlier:
            guard.append(rng.choice(earlier))
        else:
            guard.append(Constraint(random_form(rng, n), rng.choice(OPS)))
    rng.shuffle(guard)
    return tuple(guard)


def random_utility(rng, n):
    """Two to four guarded pieces; a catch-all last piece unless the draw
    leaves room for a coverage gap."""
    pieces, earlier = [], []
    for _ in range(rng.randint(2, 4)):
        guard = random_guard(rng, n, earlier)
        earlier += guard
        pieces.append(Piece(guard, random_form(rng, n)))
    if rng.random() < 0.7:
        pieces.append(Piece((), random_form(rng, n)))
    return PiecewiseAffineUtility(tuple(pieces))


def first_piece(u, b):
    return next((p for p in u.pieces if reference.matches(p, b)), None)


class GridMasks:
    """Which grid beliefs satisfy a conjunction, as a bit mask over the
    grid, evaluating each distinct constraint once.  A constraint is
    evaluated at the grid's integer points k = resolution * beta with its
    form scaled to integers, which keeps every sign exact."""

    def __init__(self, n, resolution):
        self.resolution = resolution
        self.beliefs = list(grid_beliefs(n, resolution))
        self.points = [
            tuple(int(p * resolution) for p in b.probs) for b in self.beliefs
        ]
        self.everything = (1 << len(self.beliefs)) - 1
        self.masks = {}

    def _mask(self, c):
        form = c.expr
        scale = math.lcm(*(v.denominator for v in (form.const, *form.coeffs)))
        const = int(form.const * scale * self.resolution)
        coeffs = [int(v * scale) for v in form.coeffs]
        return sum(
            1 << i
            for i, k in enumerate(self.points)
            if c.holds_value(const + sum(a * b for a, b in zip(coeffs, k)))
        )

    def __call__(self, constraints):
        out = self.everything
        for c in constraints:
            if c not in self.masks:
                self.masks[c] = self._mask(c)
            out &= self.masks[c]
        return out


def forms_by_belief(masks, regions):
    """For each grid belief, the forms of the regions that contain it."""
    cells = [(masks(cell), form) for cell, form in regions]
    return [
        [form for mask, form in cells if mask >> i & 1]
        for i in range(len(masks.beliefs))
    ]


class TestAgainstFragmentingSweep:
    def test_agrees_on_500_utilities(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(500):
            n = rng.randint(2, 5)
            u = random_utility(rng, n)
            try:
                expected = reference_piece_regions(u.pieces)
            except NoPieceMatches:
                with pytest.raises(NoPieceMatches):
                    piece_regions(u.pieces)
                seen.add((n, "gap"))
                continue
            regions = piece_regions(u.pieces)
            assert u.regions() == regions
            seen.add((n, "covered"))
            seen.update(c.op for p in u.pieces for c in p.guard)
            # nonempty, pairwise disjoint, and the first-match form at a
            # point of each
            for j, (cell, form) in enumerate(regions):
                point = strictly_feasible_point(n, cell)
                assert point is not None, (u, cell)
                assert first_piece(u, Belief(point)).form == form, (u, cell)
                for other, _ in regions[j + 1:]:
                    assert not cell_is_nonempty(n, cell + other), (u, cell, other)
            # every grid belief lies in exactly one cell of each sweep, and
            # both give it the form of the first piece that matches there
            masks = GridMasks(n, 6)
            guards = [(masks(p.guard), p.form) for p in u.pieces]
            first = [
                next(form for mask, form in guards if mask >> i & 1)
                for i in range(len(masks.beliefs))
            ]
            by_belief = forms_by_belief(masks, regions)
            assert by_belief == forms_by_belief(masks, expected), u
            assert by_belief == [[form] for form in first], u
            assert len(regions) <= len(expected)
        assert {(n, kind) for n in range(2, 6) for kind in ("gap", "covered")} <= seen
        assert set(OPS) <= seen


def count_sweeps(monkeypatch):
    """Counts calls of the sweep, wherever the program calls it from."""
    calls = []
    sweep = geometry.first_match_cells

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(geometry, "first_match_cells", counted)
    monkeypatch.setattr(utilities, "first_match_cells", counted)
    return calls


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    return json.loads(out.getvalue())


def action_scenario(tmp_path, rng, n, a, m):
    ag = random_action_game(rng, n, a, m)
    path = tmp_path / f"N{n}A{a}M{m}.json"
    path.write_text(json.dumps({
        "states": n,
        "prior": [str(Fraction(1, n))] * n,
        "senders": m,
        "action_game": {
            "actions": list(ag.actions),
            "receiver": [[str(v) for v in row] for row in ag.receiver],
            "senders": [[[str(v) for v in row] for row in t] for t in ag.senders],
        },
    }))
    return path


def interior_bump_scenario(tmp_path, n):
    """Sender 0 is 1/8 + beta_0 - beta_1 where every state has positive
    probability and 0 elsewhere; sender 1 is the negation.  Both senders
    are uninformative in the profile ``pool``."""
    inside = [
        {"coeffs": ["-1" if j == l else "0" for j in range(n)], "const": "0", "op": "<"}
        for l in range(n)
    ]
    bump = ["1", "-1"] + ["0"] * (n - 2)

    def pieces(sign):
        return [
            {"guard": inside, "form": {
                "coeffs": [str(sign * Fraction(c)) for c in bump],
                "const": str(sign * Fraction(1, 8))}},
            {"guard": [], "form": {"coeffs": ["0"] * n, "const": "0"}},
        ]

    path = tmp_path / f"bump-N{n}.json"
    path.write_text(json.dumps({
        "states": n,
        "prior": [str(Fraction(1, n))] * n,
        "senders": 2,
        "payoffs": [{"pieces": pieces(1)}, {"pieces": pieces(-1)}],
        "profiles": {"pool": ["uninformative", "uninformative"]},
    }))
    return path


class TestSweepsPerCommand:
    def test_analyze_sweeps_once_per_guard_sequence(self, tmp_path, monkeypatch):
        path = action_scenario(tmp_path, random.Random(3), 3, 4, 3)
        calls = count_sweeps(monkeypatch)
        out = run("analyze", str(path))
        assert out["zero_sum"] is True
        # every induced utility of an action game has the same guards
        assert len(calls) == 1

    def test_utilities_with_one_guard_sequence_share_the_sweep(self, monkeypatch):
        ag = random_action_game(random.Random(3), 3, 4, 3)
        g = normalize_payoffs(induced_game(ag))
        calls = count_sweeps(monkeypatch)
        for u in reversed(g.utilities):
            is_zero_on_subsimplex(u, (0, 1, 2))
        check_zero_sum(g)
        assert len(calls) == 1

    def test_exploit_sweeps_each_guard_sequence_once(self, tmp_path, monkeypatch):
        path = interior_bump_scenario(tmp_path, 4)
        calls = count_sweeps(monkeypatch)
        out = run("exploit", str(path), "--profile", "pool", "--set", "0,1,2,3")
        assert out["verdict"] == "ProfitableDeviation"
        assert len(calls) <= 2

    def test_a_sweep_that_finds_a_gap_keeps_nothing(self, monkeypatch):
        diff = AffineForm(Fraction(0), (Fraction(1), Fraction(-1)))
        zero = AffineForm.zero(2)
        # beta_0 < beta_1, then beta_0 > beta_1: (1/2, 1/2) is uncovered
        u = PiecewiseAffineUtility(tuple(
            Piece((Constraint(diff, op),), zero) for op in ("<", ">")
        ))
        calls = count_sweeps(monkeypatch)
        for _ in range(2):
            with pytest.raises(NoPieceMatches):
                u.regions()
        assert len(calls) == 2

    def test_memo_dies_with_its_command(self, tmp_path, monkeypatch):
        path = action_scenario(tmp_path, random.Random(3), 3, 4, 3)
        calls = count_sweeps(monkeypatch)
        first = run("analyze", str(path))
        assert run("analyze", str(path)) == first
        assert len(calls) == 2


def mixed_guard_scenario(tmp_path, n):
    """Sender i is sender 0's induced utility of its own random action game,
    so the two utilities have different guard sequences and their overlay
    refines the first one's cells by the second one's sweep."""
    rng = random.Random(11)
    utilities = [induced_game(random_action_game(rng, n, 3)).utilities[0] for _ in range(2)]
    assert utilities[0].pieces[0].guard != utilities[1].pieces[0].guard
    path = tmp_path / f"mixed-N{n}.json"
    path.write_text(json.dumps({
        "states": n,
        "prior": [str(Fraction(1, n))] * n,
        "senders": 2,
        "payoffs": [utility_to_json(u) for u in utilities],
    }))
    return path, utilities


class TestOverlayCap:
    """The overlay's refinement stops past ``SWEEP_CAP`` refined cells with
    EnumerationTooLarge, which the CLI reports with exit 3."""

    def test_cap_bounds_the_refined_cells(self, tmp_path, monkeypatch):
        _, us = mixed_guard_scenario(tmp_path, 3)
        cells = list(overlay_regions(us))
        count = len(cells)
        # more than either utility's own cells, which the cap lets through
        assert count > max(len(u.first_match_cells()) for u in us)
        monkeypatch.setattr(geometry, "SWEEP_CAP", count)
        assert list(overlay_regions(us)) == cells
        monkeypatch.setattr(geometry, "SWEEP_CAP", count - 1)
        # the walk is lazy: the cells under the cap come first
        with pytest.raises(EnumerationTooLarge, match=f"overlay holds {count} cells"):
            list(overlay_regions(us))

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_cli_exits_3_over_the_cap(self, tmp_path, monkeypatch, capsys, command):
        path, us = mixed_guard_scenario(tmp_path, 3)
        count = len(list(overlay_regions(us)))
        monkeypatch.setattr(geometry, "SWEEP_CAP", count - 1)
        assert main([command, str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "EnumerationTooLarge"
        assert f"overlay holds {count} cells" in error["message"]


def one_cap_cases(tmp_path):
    """The argv of each command that walks an overlay: the game's
    (analyze, validate) or a pullback's (exploit, verify)."""
    # imported here: both modules import this one, directly or not
    from test_exact_exploit import NOTHING_PAYS
    from test_verify_pullback import off_grid_scenario

    mixed, _ = mixed_guard_scenario(tmp_path, 3)
    nothing_pays = tmp_path / "nothing_pays.json"
    nothing_pays.write_text(json.dumps(NOTHING_PAYS))
    off_grid = tmp_path / "off_grid.json"
    off_grid.write_text(json.dumps(off_grid_scenario()))
    return {
        "analyze": ["analyze", str(mixed)],
        "validate": ["validate", str(mixed)],
        "exploit": ["exploit", str(nothing_pays), "--profile", "split", "--set", "0,1"],
        "verify": ["verify", str(off_grid), "--profile", "eq", "--grid", "5"],
    }


@pytest.mark.parametrize("command", ["analyze", "validate", "exploit", "verify"])
def test_one_cap_binds_every_overlay(tmp_path, monkeypatch, capsys, command):
    """``geometry.SWEEP_CAP`` alone bounds the game's overlay and the
    pullback's: with the cap one below the most cells that one of a
    command's walks yields, the command exits 3."""
    argv = one_cap_cases(tmp_path)[command]
    walks = []
    overlay = geometry.overlay_regions

    def counted(*args):
        walks.append(0)
        for cell in overlay(*args):
            walks[-1] += 1
            yield cell

    with monkeypatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.startswith("zspersuasion") and getattr(module, "overlay_regions", None) is overlay:
                patch.setattr(module, "overlay_regions", counted)
        assert main(argv) in (0, 2)
    capsys.readouterr()
    cap = max(walks) - 1
    monkeypatch.setattr(geometry, "SWEEP_CAP", cap)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "EnumerationTooLarge"
    assert f"over sweep cap {cap}" in error["message"]


def count_overlays(monkeypatch):
    """Counts calls of ``overlay_regions``, in every namespace of the
    package that holds it."""
    calls = []
    overlay = geometry.overlay_regions

    def counted(us):
        calls.append(us)
        return overlay(us)

    for name, module in list(sys.modules.items()):
        if name.startswith("zspersuasion") and getattr(module, "overlay_regions", None) is overlay:
            monkeypatch.setattr(module, "overlay_regions", counted)
    return calls


class TestOverlaysPerCommand:
    def test_nonzero_sum_analyze_overlays_once(self, tmp_path, monkeypatch):
        path, _ = mixed_guard_scenario(tmp_path, 3)
        calls = count_overlays(monkeypatch)
        first = run("analyze", str(path))
        assert first["zero_sum"] is False
        # the zero-sum check and the surplus condition read the game's overlay
        assert len(calls) == 1
        # the next command loads a new game, which keeps no overlay
        assert run("analyze", str(path)) == first
        assert len(calls) == 2


def mixed_guard_game(rng, n, m):
    """m utilities over n states, each a random first-match utility, an
    induced utility of a random action game, or a shifted copy of an
    earlier one (sharing its guard sequence), with at least two guard
    sequences; normalized when the draw says so and the vertices are
    covered.  Returns (utilities, normalized)."""
    while True:
        us = []
        for _ in range(m):
            roll = rng.random()
            if us and roll < 0.3:
                us.append(rng.choice(us).shifted(random_form(rng, n)))
            elif roll < 0.6:
                ag = random_action_game(rng, n, rng.randint(2, 3))
                us.append(induced_game(ag).utilities[0])
            else:
                us.append(random_utility(rng, n))
        if len({tuple(p.guard for p in u.pieces) for u in us}) > 1:
            break
    g = GamePayoffs(tuple(us))
    if rng.random() < 0.5:
        try:
            return normalize_payoffs(g).utilities, True
        except NoPieceMatches:
            pass
    return g.utilities, False


class TestOverlayAgainstProduct:
    """The overlay refined cell by cell against the product of regions it
    replaced (``reference.overlay_product``)."""

    def test_agrees_on_60_games(self):
        rng = random.Random(22)
        seen, games, beliefs = set(), 0, 0
        while games < 60:
            n, m = rng.randint(2, 4), rng.randint(2, 3)
            us, normalized = mixed_guard_game(rng, n, m)
            try:
                expected = reference.overlay_product(us)
            except NoPieceMatches:
                with pytest.raises(NoPieceMatches):
                    list(overlay_regions(us))
                seen.add("gap")
                continue
            cells = list(overlay_regions(us))
            # every grid belief lies in exactly one cell of each, and both
            # give it the summed form, which is the sum of the utilities
            masks = GridMasks(n, 6)
            by_belief = forms_by_belief(masks, cells)
            assert by_belief == forms_by_belief(masks, expected), us
            for b, forms in zip(masks.beliefs, by_belief):
                assert len(forms) == 1, (us, b)
                assert forms[0](b) == sum(reference.evaluate(u, b) for u in us)
            games += 1
            beliefs += len(masks.beliefs)
            seen.update({("N", n), ("M", m), normalized})
        assert seen == {("N", 2), ("N", 3), ("N", 4), ("M", 2), ("M", 3), True, False, "gap"}
        assert beliefs > 2000


class TestOverlayAgainstLevels:
    def test_agrees_on_60_games(self):
        """The lazy depth-first walk against the level-by-level walk it
        replaced (``reference.overlay_levels``) on the games of
        ``TestOverlayAgainstProduct``, from the simplex, from the half
        beta_0 <= beta_1 and from the face over {0, 1}: the same cells,
        constraint tuples and summed forms in the same order, and a gap
        in both."""
        rng = random.Random(22)
        games = cells = gaps = 0
        while games < 60:
            n, m = rng.randint(2, 4), rng.randint(2, 3)
            us, _ = mixed_guard_game(rng, n, m)
            half = (Constraint(AffineForm(0, (1, -1) + (0,) * (n - 2)), "<="),)
            face = tuple(geometry.subsimplex_constraints(n, (0, 1)))
            for start in ((), half, face):
                try:
                    expected = reference.overlay_levels(us, start)
                except NoPieceMatches:
                    # a gap in a cell is a gap in the simplex, found first
                    assert start == ()
                    with pytest.raises(NoPieceMatches):
                        list(overlay_regions(us, start))
                    gaps += 1
                    break
                assert list(overlay_regions(us, start)) == expected, (us, start)
                cells += len(expected)
            else:
                games += 1
        assert gaps > 0 and cells > 500


class TestSweepCap:
    """The first-match sweep stops at ``SWEEP_CAP`` cells held, output
    cells plus remainder, and the closed form of argmax guards past
    ``SWEEP_CAP`` cells, with EnumerationTooLarge, which the CLI reports
    with exit 3."""

    def test_cap_bounds_the_cells(self, monkeypatch):
        ag = random_action_game(random.Random(3), 3, 4, 3)
        guards = [p.guard for p in induced_game(ag).utilities[0].pieces]
        cells = geometry.first_match_cells(3, guards)
        assert len(cells) > 1
        # the last cell matched is held with every earlier one
        monkeypatch.setattr(geometry, "SWEEP_CAP", len(cells) - 1)
        with pytest.raises(EnumerationTooLarge, match="over sweep cap"):
            geometry.first_match_cells(3, guards)
        monkeypatch.setattr(geometry, "SWEEP_CAP", 10 * len(cells))
        assert geometry.first_match_cells(3, guards) == cells

    def test_cap_bounds_the_swept_cells(self, monkeypatch):
        """The same contract for guards that are not an argmax, which are
        swept: the action game's above with the last guard's first
        constraint made strict (where it is tight, action 0 is best too)."""
        ag = random_action_game(random.Random(3), 3, 4, 3)
        guards = [p.guard for p in induced_game(ag).utilities[0].pieces]
        last = guards[-1]
        guards[-1] = (Constraint(last[0].expr, "<"), *last[1:])
        assert not geometry._is_argmax(guards)
        cells = geometry.first_match_cells(3, guards)
        assert len(cells) > 1
        monkeypatch.setattr(geometry, "SWEEP_CAP", len(cells) - 1)
        with pytest.raises(EnumerationTooLarge, match="over sweep cap"):
            geometry.first_match_cells(3, guards)
        monkeypatch.setattr(geometry, "SWEEP_CAP", 10 * len(cells))
        assert geometry.first_match_cells(3, guards) == cells

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_cli_exits_3_over_the_cap(self, tmp_path, monkeypatch, capsys, command):
        path = action_scenario(tmp_path, random.Random(3), 3, 4, 3)
        monkeypatch.setattr(geometry, "SWEEP_CAP", 1)
        assert main([command, str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "EnumerationTooLarge"
        assert "sweep cap 1" in error["message"]


def count_lps(monkeypatch):
    """Counts the emptiness LPs, wherever geometry asks one."""
    calls = []
    solve = geometry._has_strict_point

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(geometry, "_has_strict_point", counted)
    return calls


def pieces_by_belief(masks, cells):
    """For each grid belief, the pieces of the (piece, cell) pairs whose
    cell contains it."""
    cells = [(k, masks(cell)) for k, cell in cells]
    return [
        [k for k, mask in cells if mask >> i & 1]
        for i in range(len(masks.beliefs))
    ]


def structural_scenario(rng, n, m):
    """m - 1 random utilities over n states, and the last sender's their
    negated sum; None when the utilities leave a coverage gap."""
    data = {
        "states": n,
        "prior": [str(Fraction(1, n))] * n,
        "senders": m,
        "assert_zero_sum_structural": True,
        "payoffs": [utility_to_json(random_utility(rng, n)) for _ in range(m - 1)],
    }
    try:
        return scenario_from_json(data)
    except NoPieceMatches:
        return None


class TestNegatedSumCells:
    """A structural scenario's negated utility has one piece per overlay
    cell, so its first-match cells are those cells, handed over when it is
    built instead of swept again."""

    @pytest.mark.parametrize("fixture, lps", [("example_b51", 24), ("figure1", 2)])
    def test_lps_from_load_through_every_decomposition(self, monkeypatch, fixture, lps):
        calls = count_lps(monkeypatch)
        scenario = load_scenario(str(FIXTURES / f"{fixture}.json"))
        for u in scenario.payoffs.utilities:
            u.first_match_cells()
        # 78 and 6 when the negated utility was swept again
        assert len(calls) == lps

    def test_handed_over_cells_match_a_fresh_sweep(self):
        rng = random.Random(23)
        scenarios = [
            load_scenario(str(FIXTURES / f"{name}.json"))
            for name in ("example_b51", "figure1")
        ]
        seen = set()
        while len(scenarios) < 42:
            n, m = rng.randint(2, 4), rng.randint(2, 3)
            scenario = structural_scenario(rng, n, m)
            if scenario is not None:
                scenarios.append(scenario)
                seen.update({("N", n), ("M", m)})
        assert seen == {("N", 2), ("N", 3), ("N", 4), ("M", 2), ("M", 3)}
        for scenario in scenarios:
            n = scenario.n_states
            masks = GridMasks(n, 6)
            for u in scenario.payoffs.utilities:
                fresh = geometry.first_match_cells(n, [p.guard for p in u.pieces])
                kept = pieces_by_belief(masks, u.first_match_cells())
                assert kept == pieces_by_belief(masks, fresh), u
                assert all(len(pieces) == 1 for pieces in kept), u
