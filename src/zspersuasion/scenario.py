"""Scenario files and exact-rational JSON (de)serialization.

A scenario bundles a prior, sender payoffs (either direct piecewise-affine
utilities or a finite-action microfoundation), and optional named strategy
profiles.  Rationals travel as "p/q" strings in both directions, so every
value round-trips exactly; floats are rejected outright.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from .actions import ActionGame
from .affine import AffineForm, Constraint
from .beliefs import Belief, as_fraction
from .exceptions import ScenarioError
from .experiments import (
    Experiment,
    StrategyProfile,
    fully_revealing,
    uninformative,
)
from .geometry import overlay_regions
from .utilities import GamePayoffs, Piece, PiecewiseAffineUtility


# ---------------------------------------------------------------------------
# rational <-> string


def frac_to_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def frac_from_str(s: Any) -> Fraction:
    if isinstance(s, float):
        raise ScenarioError(f"floats are not allowed in scenario files: {s!r}")
    # a JSON boolean is a Python int, and no rational
    if isinstance(s, bool):
        raise ScenarioError(f"booleans are not allowed in scenario files: {s!r}")
    try:
        return as_fraction(s)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ScenarioError(f"bad rational {s!r}: {exc}") from exc


def _array(data: Any, what: str) -> list:
    """data, which must be a JSON array: a string would read as an array
    of its characters."""
    if not isinstance(data, list):
        raise ScenarioError(f"{what} must be an array, got {data!r}")
    return data


# ---------------------------------------------------------------------------
# JSON encoders / decoders for the domain types


def belief_to_json(b: Belief) -> list[str]:
    return [frac_to_str(p) for p in b.probs]


def belief_from_json(data: Any) -> Belief:
    if not isinstance(data, list) or not data:
        raise ScenarioError(f"belief must be a non-empty array, got {data!r}")
    try:
        return Belief(tuple(frac_from_str(p) for p in data))
    except ValueError as exc:
        raise ScenarioError(f"invalid belief {data!r}: {exc}") from exc


def experiment_to_json(e: Experiment) -> dict:
    return {
        "atoms": [
            {"belief": belief_to_json(b), "mass": frac_to_str(m)}
            for b, m in e.atoms
        ]
    }


_SHORTHAND_EXPERIMENTS = {
    "fully_revealing": fully_revealing,
    "uninformative": uninformative,
}


def experiment_from_json(data: Any, prior: Belief) -> Experiment:
    if isinstance(data, str):
        if data not in _SHORTHAND_EXPERIMENTS:
            raise ScenarioError(f"unknown experiment shorthand {data!r}")
        return _SHORTHAND_EXPERIMENTS[data](prior)
    if not isinstance(data, dict) or "atoms" not in data:
        raise ScenarioError(f"experiment must have an 'atoms' array: {data!r}")
    atoms = []
    for atom in data["atoms"]:
        if not isinstance(atom, dict) or "belief" not in atom or "mass" not in atom:
            raise ScenarioError(f"atom needs 'belief' and 'mass': {atom!r}")
        atoms.append((belief_from_json(atom["belief"]), frac_from_str(atom["mass"])))
    try:
        return Experiment(prior, tuple(atoms))
    except ValueError as exc:
        raise ScenarioError(f"invalid experiment: {exc}") from exc


def profile_to_json(profile: StrategyProfile) -> dict:
    return {"experiments": [experiment_to_json(e) for e in profile.experiments]}


def profile_from_json(data: Any, prior: Belief) -> StrategyProfile:
    if isinstance(data, dict):
        data = data.get("experiments", data)
    if not isinstance(data, list) or not data:
        raise ScenarioError("profile must be a non-empty array of experiments")
    try:
        return StrategyProfile(
            tuple(experiment_from_json(e, prior) for e in data)
        )
    except ValueError as exc:
        raise ScenarioError(f"invalid profile: {exc}") from exc


def form_to_json(f: AffineForm) -> dict:
    return {
        "coeffs": [frac_to_str(c) for c in f.coeffs],
        "const": frac_to_str(f.const),
    }


def form_from_json(data: Any, n_states: int) -> AffineForm:
    if not isinstance(data, dict) or "coeffs" not in data:
        raise ScenarioError(f"affine form needs 'coeffs': {data!r}")
    coeffs = tuple(frac_from_str(c) for c in _array(data["coeffs"], "'coeffs'"))
    if len(coeffs) != n_states:
        raise ScenarioError(
            f"form has {len(coeffs)} coefficients for {n_states} states"
        )
    return AffineForm(frac_from_str(data.get("const", "0")), coeffs)


def constraint_to_json(c: Constraint) -> dict:
    out = form_to_json(c.expr)
    out["op"] = c.op
    return out


def constraint_from_json(data: Any, n_states: int) -> Constraint:
    if not isinstance(data, dict) or "op" not in data:
        raise ScenarioError(f"constraint needs an 'op': {data!r}")
    try:
        return Constraint(form_from_json(data, n_states), data["op"])
    except ValueError as exc:
        raise ScenarioError(f"invalid constraint: {exc}") from exc


def utility_to_json(u: PiecewiseAffineUtility) -> dict:
    return {
        "pieces": [
            {
                "guard": [constraint_to_json(c) for c in piece.guard],
                "form": form_to_json(piece.form),
            }
            for piece in u.pieces
        ]
    }


def utility_from_json(data: Any, n_states: int) -> PiecewiseAffineUtility:
    if not isinstance(data, dict) or not isinstance(data.get("pieces"), list):
        raise ScenarioError(f"utility needs a 'pieces' array: {data!r}")
    pieces = []
    for raw in data["pieces"]:
        if not isinstance(raw, dict) or "form" not in raw:
            raise ScenarioError(f"piece needs a 'form': {raw!r}")
        guard = tuple(
            constraint_from_json(c, n_states)
            for c in _array(raw.get("guard", []), "'guard'")
        )
        pieces.append(Piece(guard, form_from_json(raw["form"], n_states)))
    try:
        return PiecewiseAffineUtility(tuple(pieces))
    except ValueError as exc:
        raise ScenarioError(f"invalid utility: {exc}") from exc


def action_game_from_json(data: Any) -> ActionGame:
    if not isinstance(data, dict):
        raise ScenarioError("action_game must be an object")
    try:
        actions = tuple(_array(data["actions"], "'actions'"))
        receiver = tuple(
            tuple(frac_from_str(v) for v in _array(row, "a receiver row"))
            for row in _array(data["receiver"], "'receiver'")
        )
        senders = tuple(
            tuple(
                tuple(frac_from_str(v) for v in _array(row, "a sender row"))
                for row in _array(table, "a sender table")
            )
            for table in _array(data["senders"], "'senders'")
        )
    except KeyError as exc:
        raise ScenarioError(f"malformed action_game: missing {exc}") from exc
    if not all(isinstance(name, str) for name in actions):
        raise ScenarioError(f"action names must be strings, got {list(actions)!r}")
    try:
        return ActionGame(actions, receiver, senders)
    except ValueError as exc:
        raise ScenarioError(f"invalid action_game: {exc}") from exc


# ---------------------------------------------------------------------------
# the scenario itself


@dataclass(frozen=True)
class Scenario:
    """Loaded, validated scenario: prior plus payoffs (possibly via an
    action-game microfoundation) and named profiles."""

    n_states: int
    prior: Belief
    n_senders: int
    payoffs: GamePayoffs
    action_game: Optional[ActionGame] = None
    profiles: dict[str, StrategyProfile] = field(default_factory=dict)

    def profile(self, name: str) -> StrategyProfile:
        if name not in self.profiles:
            raise ScenarioError(
                f"no profile named {name!r}; have {sorted(self.profiles)}"
            )
        return self.profiles[name]


def scenario_from_json(data: Any) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    for key in ("states", "prior", "senders"):
        if key not in data:
            raise ScenarioError(f"scenario missing required field {key!r}")
    n = data["states"]
    # a JSON boolean is a Python int, and no count
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise ScenarioError(f"'states' must be an integer >= 2, got {n!r}")
    prior = belief_from_json(data["prior"])
    if prior.n_states != n:
        raise ScenarioError(
            f"prior has {prior.n_states} entries for {n} states"
        )
    if not prior.has_full_support():
        raise ScenarioError("prior must have full support")
    m = data["senders"]
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ScenarioError(f"'senders' must be a positive integer, got {m!r}")

    structural = data.get("assert_zero_sum_structural", False)
    if not isinstance(structural, bool):
        raise ScenarioError(
            f"'assert_zero_sum_structural' must be a boolean, got {structural!r}"
        )
    profiles = data.get("profiles", {})
    if not isinstance(profiles, dict):
        raise ScenarioError("'profiles' must be an object of named profiles")

    has_payoffs = "payoffs" in data
    has_actions = "action_game" in data
    if has_payoffs == has_actions:
        raise ScenarioError(
            "scenario needs exactly one of 'payoffs' or 'action_game'"
        )

    action_game = None
    if has_actions:
        action_game = action_game_from_json(data["action_game"])
        if action_game.n_states != n or action_game.n_senders != m:
            raise ScenarioError(
                "action_game shape disagrees with 'states'/'senders'"
            )
        from .actions import induced_game

        payoffs = induced_game(action_game)
    else:
        raw = data["payoffs"]
        if not isinstance(raw, list):
            raise ScenarioError("'payoffs' must be an array of utilities")
        utilities = [utility_from_json(u, n) for u in raw]
        if structural:
            # author supplies M-1 utilities; the last is their exact negation
            if len(utilities) != m - 1:
                raise ScenarioError(
                    f"assert_zero_sum_structural expects {m - 1} utilities, "
                    f"got {len(utilities)}"
                )
            utilities.append(_negated_sum(utilities))
        elif len(utilities) != m:
            raise ScenarioError(
                f"expected {m} utilities, got {len(utilities)}"
            )
        payoffs = GamePayoffs(tuple(utilities))

    profiles = {
        name: _one_experiment_per_sender(name, profile_from_json(raw, prior), m)
        for name, raw in profiles.items()
    }
    return Scenario(n, prior, m, payoffs, action_game, profiles)


def _one_experiment_per_sender(
    name: str, profile: StrategyProfile, m: int
) -> StrategyProfile:
    if profile.n_senders != m:
        raise ScenarioError(
            f"profile {name!r} has {profile.n_senders} "
            f"experiments for {m} senders"
        )
    return profile


def _negated_sum(utilities: list[PiecewiseAffineUtility]) -> PiecewiseAffineUtility:
    """-(u_1 + ... + u_k) on the cells of the utilities' overlay, so the
    game is zero-sum by construction; its first-match cells are the
    overlay's, known without a sweep."""
    return PiecewiseAffineUtility.on_cells(
        (cell, -total) for cell, total in overlay_regions(utilities)
    )


def _read_json(path: str):
    """The JSON document in the file at path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    return scenario_from_json(_read_json(path))


def load_profile(path: str, prior: Belief, n_senders: int) -> StrategyProfile:
    """The profile in a JSON file, which must have one experiment for each
    of ``n_senders`` senders."""
    return _one_experiment_per_sender(
        path, profile_from_json(_read_json(path), prior), n_senders
    )
