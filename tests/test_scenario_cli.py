"""Scenario files, JSON round trips, and the command-line surface."""

import csv
import gc
import json
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from zspersuasion import equilibrium, oracle
from zspersuasion.beliefs import belief
from zspersuasion.cli import main
from zspersuasion.exceptions import ScenarioError
from zspersuasion.experiments import StrategyProfile, uninformative
from zspersuasion.scenario import (
    belief_from_json,
    belief_to_json,
    experiment_from_json,
    experiment_to_json,
    frac_from_str,
    frac_to_str,
    load_scenario,
    profile_from_json,
    profile_to_json,
    scenario_from_json,
    utility_from_json,
    utility_to_json,
)
from zspersuasion.utilities import check_zero_sum, normalize_payoffs

from conftest import FIXTURES, random_experiment, random_prior
from test_lexicographic_exploit import family_scenario, min_bump

import random


FIG1 = str(FIXTURES / "figure1.json")


def tent(scale: str) -> dict:
    """scale * min(beta0, beta1) on two states: concave, so no information
    helps either sender."""
    return {"pieces": [
        {"guard": [{"coeffs": ["-1", "1"], "const": "0", "op": "<="}],
         "form": {"coeffs": ["0", scale], "const": "0"}},
        {"guard": [], "form": {"coeffs": [scale, "0"], "const": "0"}},
    ]}


# a non-zero-sum game in which both senders keeping quiet is an equilibrium
# that pays them 1/2 and 1
TENTS = {"states": 2, "prior": ["1/2", "1/2"], "senders": 2,
         "payoffs": [tent("1"), tent("2")]}


class TestSerialization:
    def test_fraction_strings(self):
        assert frac_to_str(Fraction(-3, 5)) == "-3/5"
        assert frac_to_str(Fraction(2)) == "2"
        assert frac_from_str("-3/5") == Fraction(-3, 5)
        assert frac_from_str("7") == Fraction(7)

    def test_floats_rejected(self):
        with pytest.raises(ScenarioError):
            frac_from_str(0.5)
        with pytest.raises(ScenarioError):
            belief_from_json([0.5, 0.5])

    def test_booleans_rejected(self):
        """JSON true and false are the Python ints 1 and 0, and no rationals."""
        for value in (True, False):
            with pytest.raises(ScenarioError, match="booleans are not allowed"):
                frac_from_str(value)
        with pytest.raises(ScenarioError):
            belief_from_json([True, False])

    def test_belief_round_trip(self):
        b = belief(["1/6", "1/3", "1/2"])
        assert belief_from_json(belief_to_json(b)) == b

    def test_experiment_round_trip(self):
        rng = random.Random(5)
        prior = random_prior(3, rng)
        e = random_experiment(prior, rng, splits=3)
        assert experiment_from_json(experiment_to_json(e), prior) == e

    def test_profile_round_trip(self):
        rng = random.Random(6)
        prior = random_prior(2, rng)
        profile = StrategyProfile(
            (random_experiment(prior, rng, 2), uninformative(prior))
        )
        assert profile_from_json(profile_to_json(profile), prior) == profile

    def test_utility_round_trip(self):
        scenario = load_scenario(FIG1)
        u = scenario.payoffs.utilities[0]
        again = utility_from_json(utility_to_json(u), 2)
        assert again == u


    def test_experiment_shorthands(self):
        prior = belief(["1/3", "2/3"])
        assert experiment_from_json("uninformative", prior) == uninformative(prior)
        assert experiment_from_json("fully_revealing", prior).is_fully_revealing()
        for name in ("FullyRevealing", "Uninformative", "informative"):
            with pytest.raises(ScenarioError):
                experiment_from_json(name, prior)


class TestScenarioLoading:
    def test_figure1(self):
        s = load_scenario(FIG1)
        assert s.n_states == 2
        assert s.n_senders == 2
        assert s.prior == belief(["1/2", "1/2"])
        assert set(s.profiles) == {
            "both_uninformative",
            "both_fully_revealing",
            "pool_then_reveal",
        }
        # the second utility was synthesized as the exact negation
        assert check_zero_sum(s.payoffs).ok

    def test_structural_zero_sum_three_senders(self):
        data = json.loads(open(FIG1).read())
        data["senders"] = 3
        data["payoffs"] = data["payoffs"] * 2
        del data["profiles"]
        s = scenario_from_json(data)
        assert s.n_senders == 3
        assert check_zero_sum(s.payoffs).ok

    def test_requires_exactly_one_payoff_source(self):
        data = json.loads(open(FIG1).read())
        data["action_game"] = {
            "actions": ["a", "b"],
            "receiver": [["1", "0"], ["0", "1"]],
            "senders": [
                [["1", "-1"], ["-1", "1"]],
                [["-1", "1"], ["1", "-1"]],
            ],
        }
        with pytest.raises(ScenarioError):
            scenario_from_json(data)
        del data["payoffs"]
        del data["assert_zero_sum_structural"]
        s = scenario_from_json(data)
        assert s.action_game is not None

    def test_malformed_inputs(self):
        base = json.loads(open(FIG1).read())
        bad_prior = dict(base, prior=["1/2", "1/3"])
        with pytest.raises(ScenarioError):
            scenario_from_json(bad_prior)
        with pytest.raises(ScenarioError):
            scenario_from_json(dict(base, states=1))
        with pytest.raises(ScenarioError):
            scenario_from_json({"states": 2})
        with pytest.raises(ScenarioError):
            load_scenario(str(FIXTURES / "missing.json"))

    @pytest.mark.parametrize("key, message", [
        ("states", "'states' must be an integer >= 2, got True"),
        ("senders", "'senders' must be a positive integer, got True"),
    ])
    def test_a_boolean_is_no_count(self, key, message):
        """JSON true is the Python int 1: as a sender count it used to load
        figure1 with one payoff as a one-sender game."""
        data = json.loads(open(FIG1).read())
        data[key] = True
        with pytest.raises(ScenarioError) as exc:
            scenario_from_json(data)
        assert str(exc.value) == message

    def test_unknown_profile(self):
        s = load_scenario(FIG1)
        with pytest.raises(ScenarioError):
            s.profile("nope")


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_validate(self, capsys):
        code, out, _ = self.run(capsys, "validate", FIG1)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_analyze_full_revelation(self, capsys):
        code, out, _ = self.run(capsys, "analyze", FIG1)
        assert code == 0
        report = json.loads(out)
        assert report["overall"] == "FullRevelation"
        assert report["condition1"]["overall"] is True

    def test_analyze_b51_edges(self, capsys):
        code, out, _ = self.run(
            capsys, "analyze", str(FIXTURES / "example_b51.json")
        )
        assert code == 0
        report = json.loads(out)
        assert report["overall"] == "FullRevelation"
        assert all(e["verdict"] == "NeverPooled" for e in report["edges"])
        assert len(report["edges"]) == 3

    def test_verify_quiet_profile(self, capsys):
        code, out, _ = self.run(
            capsys,
            "verify",
            FIG1,
            "--profile",
            "both_uninformative",
            "--grid",
            "5",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "ProfitableDeviation"
        assert frac_from_str(report["gain"]) > 0

    def test_verify_accepts_revelation(self, capsys):
        code, out, _ = self.run(
            capsys, "verify", FIG1, "--profile", "both_fully_revealing"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "Accepted"

    def test_exploit_worked_values(self, capsys):
        code, out, _ = self.run(
            capsys,
            "exploit",
            FIG1,
            "--profile",
            "both_uninformative",
            "--set",
            "0,1",
        )
        assert code == 0
        cert = json.loads(out)
        assert cert["x_bar"] == ["1/2", "1/2"]
        assert cert["epsilon"] == "1/2"
        assert cert["payoff"] == "1/4"

    def test_construct_fully_revealing_round_trip(self, capsys):
        code, out, _ = self.run(capsys, "construct", FIG1, "--fully-revealing")
        assert code == 0
        s = load_scenario(FIG1)
        profile = profile_from_json(json.loads(out), s.prior)
        assert all(e.is_fully_revealing() for e in profile.experiments)

    def test_construct_pool_rejected(self, capsys):
        code, _, err = self.run(capsys, "construct", FIG1, "--pool", "0,1")
        assert code == 2
        assert json.loads(err)["error"] == "NotPoolable"

    @pytest.mark.parametrize("argv, raw", [
        (("construct", FIG1, "--pool", "0"), "0"),
        (("construct", str(FIXTURES / "example_b51.json"), "--pool", "1,1"),
         "1,1"),
        (("exploit", FIG1, "--profile", "both_uninformative", "--set", "0"),
         "0"),
        (("exploit", FIG1, "--profile", "both_uninformative", "--set", ""),
         ""),
    ])
    def test_a_set_of_fewer_than_two_states_is_bad_input(
        self, capsys, argv, raw
    ):
        """A one-state "pool" used to print a fully revealing profile
        labelled pooling, and a one-state exploit set exited 2 as if no
        sender were positive on its face."""
        code, out, err = self.run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "ScenarioError",
            "message": f"bad state set {raw!r}: a pooled set needs two "
                       "distinct states",
        }

    def test_malformed_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = self.run(capsys, "analyze", str(bad))
        assert code == 1
        assert json.loads(err)["error"] == "ScenarioError"

    def test_budget_exit_code(self, capsys):
        code, _, err = self.run(
            capsys,
            "oracle",
            "scan",
            FIG1,
            "--belief-res",
            "40",
            "--mass-res",
            "40",
            "--max-support",
            "6",
            "--cap",
            "50",
        )
        assert code == 3
        assert json.loads(err)["error"] == "EnumerationTooLarge"

    @pytest.mark.parametrize("argv", [
        ("verify", FIG1, "--profile", "both_uninformative", "--grid", "0"),
        ("verify", FIG1, "--profile", "both_fully_revealing", "--grid", "-1"),
        ("emit-plot", FIG1, "--points", "0"),
    ])
    def test_grid_sizes_below_one_are_bad_input(self, capsys, argv):
        """A grid of no points is malformed input (exit 1), not a crash and
        not a verdict over no beliefs."""
        code, out, err = self.run(capsys, *argv)
        assert code == 1
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "ValueError"
        assert "must be >= 1" in error["message"]

    @pytest.mark.parametrize("argv, message", [
        (("oracle", "scan", FIG1, "--belief-res", "5", "--mass-res", "4",
          "--max-support", "3", "--cap", "-1"), "cap must be >= 1"),
        (("oracle", "scan", FIG1, "--belief-res", "5", "--mass-res", "4",
          "--max-support", "3", "--cap", "0"), "cap must be >= 1"),
    ])
    def test_negative_bounds_are_bad_input(self, capsys, argv, message):
        """An enumeration cap below 1 used to exit 3 as if the grid had
        exceeded it: it is malformed input (exit 1)."""
        code, out, err = self.run(capsys, *argv)
        assert code == 1
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "ValueError"
        assert message in error["message"]

    @pytest.mark.parametrize("command", ["verify", "exploit"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_profile_file_needs_one_experiment_per_sender(
        self, capsys, tmp_path, command, count
    ):
        """A --profile file is checked against the sender count as a named
        profile is: one experiment against figure1's two senders used to
        print a ProfitableDeviation of gain 1/28 against full revelation,
        and three printed Accepted for a game of three senders."""
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"experiments": ["fully_revealing"] * count}))
        extra = ("--set", "0,1") if command == "exploit" else ()
        code, out, err = self.run(
            capsys, command, FIG1, "--profile", str(path), *extra
        )
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "ScenarioError",
            "message": f"profile {str(path)!r} has {count} experiments "
                       "for 2 senders",
        }

    @pytest.mark.parametrize("count", [1, 3])
    def test_verify_and_exploit_reject_a_profile_of_another_size(self, count):
        g = normalize_payoffs(load_scenario(FIG1).payoffs)
        prior = load_scenario(FIG1).prior
        profile = StrategyProfile((uninformative(prior),) * count)
        message = f"profile has {count} experiments for 2 senders"
        with pytest.raises(ValueError, match=message):
            equilibrium.verify_profile(g, profile)
        with pytest.raises(ValueError, match=message):
            equilibrium.synthesize_exploit(g, profile, (0, 1))

    @pytest.mark.parametrize("edge", ["0,-1", "0,7"])
    def test_emit_plot_edge_out_of_range_is_bad_input(self, capsys, edge):
        """An edge endpoint outside range(N) is malformed input (exit 1):
        -1 must not wrap around to the last state, and 7 must not crash."""
        code, out, err = self.run(
            capsys, "emit-plot", str(FIXTURES / "example_b51.json"),
            f"--edge={edge}", "--points", "2",
        )
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "ValueError",
            "message": f"edge ({edge}) is out of range for N=3",
        }

    @pytest.mark.parametrize("edge", ["0", "0,1,2"])
    def test_emit_plot_edge_needs_two_states(self, capsys, edge):
        code, out, err = self.run(
            capsys, "emit-plot", FIG1, f"--edge={edge}", "--points", "2",
        )
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "ValueError",
            "message": f"an edge needs two states, got {edge!r}",
        }

    def test_boolean_sender_count_is_bad_input(self, capsys, tmp_path):
        """figure1 with one payoff and "senders": true used to exit 1 only
        because the structural zero-sum rule then expects no utility."""
        data = json.loads(open(FIG1).read())
        data["senders"] = True
        path = tmp_path / "one_sender.json"
        path.write_text(json.dumps(data))
        code, out, err = self.run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "ScenarioError",
            "message": "'senders' must be a positive integer, got True",
        }

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("payoffs", [{"pieces": ["x"]}], "piece needs a 'form': 'x'"),
            ("profiles", [], "'profiles' must be an object of named profiles"),
            (
                "assert_zero_sum_structural",
                "false",
                "'assert_zero_sum_structural' must be a boolean, got 'false'",
            ),
        ],
        ids=["piece_not_an_object", "profiles_not_an_object", "structural_not_a_boolean"],
    )
    def test_malformed_shapes_are_bad_input(
        self, capsys, tmp_path, key, value, message
    ):
        """figure1 with one field of the wrong shape.  The first two used to
        end in an AttributeError traceback, and the string "false" turned
        structural mode on."""
        data = json.loads(open(FIG1).read())
        data[key] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        code, out, err = self.run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": "ScenarioError", "message": message}

    @pytest.mark.parametrize(
        "fixture, command, edit, message",
        [
            (
                "figure1", "validate",
                lambda d: d["payoffs"][0]["pieces"][0]["form"].update(coeffs="01"),
                "'coeffs' must be an array, got '01'",
            ),
            (
                "figure1", "validate",
                lambda d: d["payoffs"][0]["pieces"][0].update(guard=""),
                "'guard' must be an array, got ''",
            ),
            (
                "matching_action_game", "induce",
                lambda d: d["action_game"].update(receiver=["10", "01"]),
                "a receiver row must be an array, got '10'",
            ),
            (
                "matching_action_game", "induce",
                lambda d: d["action_game"].update(senders=["1-1", "-11"]),
                "a sender table must be an array, got '1-1'",
            ),
            (
                "matching_action_game", "induce",
                lambda d: d["action_game"]["senders"][0].__setitem__(0, "1-1"),
                "a sender row must be an array, got '1-1'",
            ),
            (
                "matching_action_game", "induce",
                lambda d: d["action_game"].update(actions="ab"),
                "'actions' must be an array, got 'ab'",
            ),
            (
                "matching_action_game", "induce",
                lambda d: d["action_game"].update(actions=[0, 1]),
                "action names must be strings, got [0, 1]",
            ),
            (
                "matching_action_game", "induce",
                lambda d: d["action_game"].pop("actions"),
                "malformed action_game: missing 'actions'",
            ),
            (
                "figure1", "validate",
                lambda d: d["payoffs"][0]["pieces"][0]["form"].update(coeffs=[True, False]),
                "booleans are not allowed in scenario files: True",
            ),
            (
                "matching_action_game", "induce",
                lambda d: d["action_game"].update(receiver=[[True, False], [False, True]]),
                "booleans are not allowed in scenario files: True",
            ),
        ],
        ids=[
            "coeffs_string", "guard_string", "receiver_row_strings",
            "sender_table_strings", "sender_row_string", "actions_string",
            "action_names_not_strings", "actions_missing", "coeffs_booleans",
            "receiver_booleans",
        ],
    )
    def test_strings_and_booleans_of_the_wrong_shape_are_bad_input(
        self, capsys, tmp_path, fixture, command, edit, message
    ):
        """A JSON string where an array belongs, or a boolean where a
        rational belongs.  Each used to load and exit 0: a string as the
        array of its characters, true and false as 1 and 0."""
        data = json.loads((FIXTURES / f"{fixture}.json").read_text())
        edit(data)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        code, out, err = self.run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": "ScenarioError", "message": message}

    def test_implausible_profile_fails_at_load(self, capsys, tmp_path):
        """A profile whose mean is off the prior never loads, so ``validate``
        has no profile left to report as not Bayes-plausible."""
        data = json.loads(open(FIG1).read())
        off_prior = {"atoms": [{"belief": ["1/3", "2/3"], "mass": "1"}]}
        data["profiles"]["off_prior"] = [off_prior, "uninformative"]
        path = tmp_path / "off_prior.json"
        path.write_text(json.dumps(data))
        code, out, err = self.run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "ScenarioError"
        assert error["message"].startswith("invalid profile: experiment mean (")
        assert "differs from prior (" in error["message"]

    def test_verify_grid_over_the_cap_exits_3(self, capsys, monkeypatch):
        """The verify grid is counted against the enumeration cap: grid 5 on
        two states has 6 beliefs."""
        monkeypatch.setattr(oracle, "DEFAULT_ENUMERATION_CAP", 5)
        code, out, err = self.run(
            capsys, "verify", FIG1, "--profile", "both_fully_revealing",
            "--grid", "5",
        )
        assert code == 3
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "EnumerationTooLarge"
        assert error["message"] == "6 grid beliefs exceed cap 5"
        monkeypatch.setattr(oracle, "DEFAULT_ENUMERATION_CAP", 6)
        code, out, _ = self.run(
            capsys, "verify", FIG1, "--profile", "both_fully_revealing",
            "--grid", "5",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "Accepted"

    def test_internal_failure_exit_code(self, capsys, monkeypatch):
        """A certificate that fails its exact recomputation is a fault of
        the program, not of the input: exit 4."""
        payoff = equilibrium.conditional_payoff_against
        monkeypatch.setattr(
            equilibrium,
            "conditional_payoff_against",
            lambda *args: 2 * payoff(*args),
        )
        code, out, err = self.run(
            capsys, "exploit", FIG1, "--profile", "both_uninformative",
            "--set", "0,1",
        )
        assert code == 4
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "InvariantViolation"
        assert "failed recomputation" in error["message"]

    def test_action_table_errors_stay_malformed_input(self, capsys, tmp_path):
        data = json.loads((FIXTURES / "matching_action_game.json").read_text())
        data["action_game"]["senders"][1][0][0] = "0"  # no longer zero-sum
        path = tmp_path / "not_zero_sum.json"
        path.write_text(json.dumps(data))
        code, _, err = self.run(capsys, "analyze", str(path))
        assert code == 1
        error = json.loads(err)
        assert error["error"] == "ScenarioError"
        assert "sum to 1 at action 0, state 0" in error["message"]

    @pytest.mark.parametrize("fixture", ["example_b51", "min_bump"])
    def test_analyze_csv_rows_are_the_printed_edges(
        self, capsys, tmp_path, fixture
    ):
        """b51 never pools an edge, each with a witness sender; the min bump
        vanishes on every edge, so each is poolable without a witness."""
        if fixture == "example_b51":
            path = str(FIXTURES / "example_b51.json")
            verdicts = {"NeverPooled"}
        else:
            path = str(tmp_path / "min_bump.json")
            Path(path).write_text(json.dumps(family_scenario(3, "1/4")))
            verdicts = {"Poolable"}
        out_csv = tmp_path / "edges.csv"
        code, out, _ = self.run(capsys, "analyze", path, "--csv", str(out_csv))
        assert code == 0
        edges = json.loads(out)["edges"]
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["state_l", "state_k", "verdict", "witness_sender"]
        assert rows[1:] == [
            [str(e["edge"][0]), str(e["edge"][1]), e["verdict"],
             "" if e["witness_sender"] is None else str(e["witness_sender"])]
            for e in edges
        ]
        assert len(rows) == 4
        assert {row[2] for row in rows[1:]} == verdicts

    def test_oracle_scan_csv_rows_are_payoffs_over_the_printed_joint(
        self, capsys, tmp_path
    ):
        path = tmp_path / "tents.json"
        path.write_text(json.dumps(TENTS))
        out_csv = tmp_path / "payoffs.csv"
        code, out, _ = self.run(
            capsys, "oracle", "scan", str(path), "--belief-res", "4",
            "--mass-res", "4", "--max-support", "2", "--csv", str(out_csv),
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "NonRevealingEquilibriumFound"
        scenario = load_scenario(str(path))
        joint = experiment_from_json(report["joint"], scenario.prior)
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sender", "expected_utility"]
        assert rows[1:] == [
            [str(i), frac_to_str(sum((m * u(b) for b, m in joint.atoms), Fraction(0)))]
            for i, u in enumerate(normalize_payoffs(scenario.payoffs).utilities)
        ]
        assert rows[1:] == [["0", "1/2"], ["1", "1"]]

    def assert_unwritable(self, capsys, *argv):
        """The command exits 1 with a ScenarioError naming the path, and
        prints nothing on standard output."""
        code, out, err = self.run(capsys, *argv)
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "ScenarioError"
        assert "cannot write" in error["message"]

    def test_analyze_csv_to_an_unwritable_path_is_bad_input(self, capsys, tmp_path):
        missing = str(tmp_path / "missing" / "edges.csv")
        self.assert_unwritable(
            capsys, "analyze", str(FIXTURES / "example_b51.json"), "--csv", missing
        )
        # a game that is not zero-sum has no edge rows, so nothing is opened
        path = tmp_path / "tents.json"
        path.write_text(json.dumps(TENTS))
        code, out, _ = self.run(capsys, "analyze", str(path), "--csv", missing)
        assert code == 0 and json.loads(out)["edges"] is None

    def test_oracle_scan_csv_to_an_unwritable_path_is_bad_input(
        self, capsys, tmp_path
    ):
        missing = str(tmp_path / "missing" / "payoffs.csv")
        path = tmp_path / "tents.json"
        path.write_text(json.dumps(TENTS))
        scan = ("--belief-res", "4", "--mass-res", "4", "--max-support", "2")
        self.assert_unwritable(
            capsys, "oracle", "scan", str(path), *scan, "--csv", missing
        )
        # only a non-revealing profile has payoff rows to write
        code, out, _ = self.run(capsys, "oracle", "scan", FIG1, *scan, "--csv", missing)
        assert code == 0
        assert json.loads(out)["verdict"] == "OnlyFullyRevealingFound"

    def test_emit_plot_out_to_an_unwritable_path_is_bad_input(
        self, capsys, tmp_path
    ):
        missing = str(tmp_path / "missing" / "plot.csv")
        self.assert_unwritable(capsys, "emit-plot", FIG1, "--out", missing)

    def test_oracle_scan(self, capsys):
        code, out, _ = self.run(
            capsys,
            "oracle",
            "scan",
            FIG1,
            "--belief-res",
            "4",
            "--mass-res",
            "4",
            "--max-support",
            "3",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "OnlyFullyRevealingFound"

    @pytest.mark.parametrize("fixture, verdict", [
        ("figure1", "OnlyFullyRevealingFound"),
        ("example_b51", "NonRevealingEquilibriumFound"),
    ])
    def test_oracle_scan_off_grid_full_revelation(self, capsys, fixture, verdict):
        """Full revelation needs masses of 1/2, off a mass grid of 5, but a
        sender paid less than it by a grid profile still deviates to it.
        figure1's non-revealing grid profile paid sender 1 -1/10.  b51's
        grid equilibrium pays both senders 0 and survives every grid
        deviation; an off-grid deviation refutes it (gain 2/75 at
        verify --grid 6), which this scan does not look for."""
        code, out, _ = self.run(
            capsys, "oracle", "scan", str(FIXTURES / f"{fixture}.json"),
            "--belief-res", "6", "--mass-res", "5", "--max-support", "3",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == verdict

    def test_oracle_scan_of_an_empty_grid_is_a_failed_precondition(self, capsys):
        """b51's prior (1/6, 1/3, 1/2) is no mass-1/5 mix of 1/5-grid
        beliefs, so no grid experiment is Bayes-plausible: no verdict."""
        code, out, err = self.run(
            capsys, "oracle", "scan", str(FIXTURES / "example_b51.json"),
            "--belief-res", "5", "--mass-res", "5", "--max-support", "3",
        )
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "PreconditionFailed"
        assert error["message"] == "no grid experiment is Bayes-plausible for the prior"

    def test_induce(self, capsys):
        code, out, _ = self.run(
            capsys, "induce", str(FIXTURES / "matching_action_game.json")
        )
        assert code == 0
        report = json.loads(out)
        assert "0-1" in report["edges"]
        assert len(report["utilities"]) == 2

    def test_induce_requires_action_game(self, capsys):
        code, _, err = self.run(capsys, "induce", FIG1)
        assert code == 2
        assert json.loads(err)["error"] == "PreconditionFailed"

    def test_emit_plot_flags_decimals(self, capsys, tmp_path):
        out_path = tmp_path / "plot.csv"
        code, _, _ = self.run(
            capsys, "emit-plot", FIG1, "--points", "10", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert "decimal approximations" in lines[0]
        assert lines[1].split(",") == ["t", "sender0", "sender1"]

    def test_emit_plot_out_file_is_complete_and_closed(self, capsys, tmp_path):
        out_path = tmp_path / "plot.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code, out, _ = self.run(
                capsys, "emit-plot", FIG1, "--points", "4", "--out", str(out_path)
            )
            gc.collect()
        assert code == 0 and out == ""
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        with out_path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == ["t", "sender0", "sender1"]
        # grid points 0, 1/4, ..., 1 plus the jump at 3/5, in order
        ts = [float(r[0]) for r in rows[2:]]
        assert ts == [0.0, 0.25, 0.5, 0.6, 0.75, 1.0]
        assert all(len(r) == 3 for r in rows[2:])

    def test_deterministic_output(self, capsys):
        _, first, _ = self.run(capsys, "analyze", FIG1)
        _, second, _ = self.run(capsys, "analyze", FIG1)
        assert first == second


def _diff(l: int, k: int) -> dict:
    """beta_l - beta_k over three states, as a scenario constraint."""
    return {"coeffs": [str(int(m == l) - int(m == k)) for m in range(3)],
            "const": "0"}


# first utility: pieces beta0 < beta1, beta0 > beta1, beta0 = beta1 < beta2
# and beta0 = beta1 > beta2, so only the centroid is uncovered
CENTROID_GAP = {
    "pieces": [
        {"guard": guard, "form": {"coeffs": ["0", "0", "0"], "const": "0"}}
        for guard in (
            [dict(_diff(0, 1), op="<")],
            [dict(_diff(0, 1), op=">")],
            [dict(_diff(0, 1), op="=="), dict(_diff(1, 2), op="<")],
            [dict(_diff(0, 1), op="=="), dict(_diff(1, 2), op=">")],
        )
    ]
}


# min(beta0, beta1) on the pieces of CENTROID_GAP: positive inside the edge
# of {0, 1}, so a deviation lies there, away from the gap
MIN_WITH_GAP = {"pieces": [
    {"guard": piece["guard"], "form": {"coeffs": coeffs, "const": "0"}}
    for piece, coeffs in zip(
        CENTROID_GAP["pieces"],
        (["1", "0", "0"], ["0", "1", "0"], ["1", "0", "0"], ["1", "0", "0"]),
    )
]}


class TestCoverageGap:
    """Every command that decomposes a utility into first-match cells
    rejects a utility that leaves part of the simplex uncovered, even where
    no belief it evaluates lies in the gap (the prior is off the centroid)."""

    @pytest.fixture(params=["gap_first", "gap_second"])
    def scenario(self, tmp_path, request):
        # the overlay must meet the gap whichever sender's utility has it
        zero = {"pieces": [
            {"guard": [], "form": {"coeffs": ["0", "0", "0"], "const": "0"}}
        ]}
        payoffs = [CENTROID_GAP, zero]
        if request.param == "gap_second":
            payoffs.reverse()
        path = tmp_path / "gap.json"
        path.write_text(json.dumps({
            "states": 3,
            "prior": ["1/2", "1/4", "1/4"],
            "senders": 2,
            "payoffs": payoffs,
            "profiles": {"both_uninformative": ["uninformative", "uninformative"]},
        }))
        return str(path)

    run = TestCli.run

    def test_validate_reports_the_gap(self, capsys, scenario):
        code, out, _ = self.run(capsys, "validate", scenario)
        report = json.loads(out)
        assert code == 2
        assert report["coverage_ok"] is False
        assert report["zero_sum_ok"] is False
        assert report["ok"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze",),
            ("construct", "--pool", "0,1,2"),
            ("exploit", "--profile", "both_uninformative", "--set", "0,1,2"),
        ],
        ids=" ".join,
    )
    def test_commands_reject_the_gap(self, capsys, scenario, argv):
        code, out, err = self.run(capsys, argv[0], scenario, *argv[1:])
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "NoPieceMatches"
        assert error["message"] == 'no piece covers belief ["1/3", "1/3", "1/3"]'

    def test_verify_meets_the_gap_at_the_centroid(self, capsys, scenario):
        # the per-sender utility memo must not hide the gap: the grid-3
        # belief (1/3, 1/3, 1/3) is the posterior against uninformative
        # opponents, and its evaluation raises
        code, out, err = self.run(
            capsys, "verify", scenario, "--profile", "both_uninformative",
            "--grid", "3",
        )
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "NoPieceMatches"
        assert error["message"] == 'no piece covers belief ["1/3", "1/3", "1/3"]'

    @pytest.mark.parametrize("states", ["0,1", "0,1,2"])
    def test_exploit_rejects_a_gap_away_from_its_deviation(
        self, capsys, tmp_path, states
    ):
        """Sender 0 pays on the edge of {0, 1} and sender 1 is its negation:
        the exploit's search never reaches the centroid, yet it rejects the
        gap as validate does."""
        path = tmp_path / "min_gap.json"
        path.write_text(json.dumps({
            "states": 3,
            "prior": ["1/2", "1/4", "1/4"],
            "senders": 2,
            "payoffs": [MIN_WITH_GAP, _negated(MIN_WITH_GAP)],
            "profiles": {"both_uninformative": ["uninformative", "uninformative"]},
        }))
        assert self.run(capsys, "validate", str(path))[0] == 2
        code, out, err = self.run(
            capsys, "exploit", str(path), "--profile", "both_uninformative",
            "--set", states,
        )
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "NoPieceMatches",
            "message": 'no piece covers belief ["1/3", "1/3", "1/3"]',
        }

    def test_structural_scenario_with_a_gap_fails_at_load(self, capsys, tmp_path):
        path = tmp_path / "structural_gap.json"
        path.write_text(json.dumps({
            "states": 3,
            "prior": ["1/3", "1/3", "1/3"],
            "senders": 2,
            "assert_zero_sum_structural": True,
            "payoffs": [CENTROID_GAP],
        }))
        code, out, err = self.run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "NoPieceMatches"


def _negated(utility: dict) -> dict:
    return {"pieces": [
        {"guard": p["guard"], "form": {
            "coeffs": [str(-Fraction(c)) for c in p["form"]["coeffs"]],
            "const": str(-Fraction(p["form"]["const"]))}}
        for p in utility["pieces"]
    ]}


def _min_of_states(n: int) -> dict:
    """min_l beta_l: the first state that is no larger than every later one."""
    pieces = []
    for l in range(n):
        guard = [
            {"coeffs": [str(int(m == l) - int(m == k)) for m in range(n)],
             "const": "0", "op": "<="}
            for k in range(l + 1, n)
        ]
        form = {"coeffs": [str(int(m == l)) for m in range(n)], "const": "0"}
        pieces.append({"guard": guard, "form": form})
    return {"pieces": pieces}


class TestNoPositiveSender:
    """Games that are not zero-sum, where sender 0 is nonzero on the pooled
    face but nobody is positive there and sender 1 is 0: no sender can
    exploit the pooled set, so ``exploit`` fails its precondition and
    ``verify`` accepts the profile: no interim belief pays either sender."""

    @staticmethod
    def scenario(tmp_path, n, prior, sender_0) -> str:
        path = tmp_path / "no_positive.json"
        zero = {"pieces": [{"guard": [], "form": {"coeffs": ["0"] * n, "const": "0"}}]}
        path.write_text(json.dumps({
            "states": n,
            "prior": prior,
            "senders": 2,
            "payoffs": [sender_0, zero],
            "profiles": {"both_uninformative": ["uninformative", "uninformative"]},
        }))
        return str(path)

    run = TestCli.run

    @pytest.mark.parametrize("n, prior", [
        (2, ["1/2", "1/2"]),
        (3, ["1/3", "1/3", "1/3"]),
    ])
    def test_exploit_fails_its_precondition(self, capsys, tmp_path, n, prior):
        path = self.scenario(tmp_path, n, prior, _negated(_min_of_states(n)))
        states = ",".join(map(str, range(n)))
        code, out, err = self.run(
            capsys, "exploit", path, "--profile", "both_uninformative",
            "--set", states,
        )
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "PreconditionFailed"
        assert "positive" in error["message"]

    def test_verify_accepts_the_pooled_set(self, capsys, tmp_path):
        path = self.scenario(
            tmp_path, 3, ["1/8", "1/2", "3/8"], _negated(min_bump(3, "1/4"))
        )
        code, out, _ = self.run(
            capsys, "verify", path, "--profile", "both_uninformative",
            "--grid", "2",
        )
        assert code == 0
        assert json.loads(out) == {
            "expected_utilities": ["0", "0"], "verdict": "Accepted"
        }
