"""Command-line surface.

Subcommands load a scenario file, run one analysis or construction, and
print deterministic JSON (sorted keys, canonical "p/q" rationals) on
standard output.  Failures print machine-readable error JSON on standard
error: exit 1 for malformed input, 2 for precondition failures, 3 for an
exceeded cell or enumeration cap, 4 for internal invariant failures (an
exploit certificate that fails its exact recomputation, an unbounded linear
program): a fault in the program, not in the input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Optional

from .analysis import (
    classify_full_revelation,
    condition1_report,
    minimal_subsets,
    strict_surplus_sufficiency,
)
from .equilibrium import (
    DEFAULT_VERIFY_GRID,
    ExploitCertificate,
    construct_fully_revealing,
    construct_pooling_equilibrium,
    synthesize_exploit,
    verify_profile,
)
from .exceptions import (
    EnumerationTooLarge,
    InvariantViolation,
    NoPieceMatches,
    NotNormalized,
    NotPoolable,
    PreconditionFailed,
    ScenarioError,
    UndefinedPosterior,
)
from .experiments import StrategyProfile, product
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    GridSpec,
    full_revelation_scan,
)
from .scenario import (
    Scenario,
    belief_to_json,
    experiment_to_json,
    frac_to_str,
    load_profile,
    load_scenario,
    profile_to_json,
    utility_to_json,
)
from .utilities import check_zero_sum, normalize_payoffs

EXIT_MALFORMED = 1
EXIT_PRECONDITION = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

_PRECONDITION_ERRORS = (
    PreconditionFailed,
    NotPoolable,
    NotNormalized,
    NoPieceMatches,
    UndefinedPosterior,
)


def _emit(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _fail(exc: Exception, code: int) -> int:
    print(
        json.dumps(
            {"error": type(exc).__name__, "message": str(exc)},
            sort_keys=True,
        ),
        file=sys.stderr,
    )
    return code


def _open_output(path: str):
    """A --csv or --out file opened for writing; ScenarioError if it fails."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ScenarioError(f"cannot write {path!r}: {exc.strerror}") from exc


def _parse_state_set(raw: str) -> tuple[int, ...]:
    """A --pool or --set argument: two distinct states or more, since a
    set of one state pools nothing."""
    try:
        omega = tuple(sorted({int(tok) for tok in raw.split(",") if tok != ""}))
    except ValueError as exc:
        raise ScenarioError(f"bad state set {raw!r}: {exc}") from exc
    if len(omega) < 2:
        raise ScenarioError(
            f"bad state set {raw!r}: a pooled set needs two distinct states"
        )
    return omega


def _resolve_profile(scenario: Scenario, name: str) -> StrategyProfile:
    """A --profile argument names a scenario profile or a JSON file path."""
    if name in scenario.profiles:
        return scenario.profiles[name]
    if name.endswith(".json"):
        return load_profile(name, scenario.prior, scenario.n_senders)
    return scenario.profile(name)  # raises with the available names


def _certificate_json(cert: ExploitCertificate) -> dict:
    return {
        "deviation": experiment_to_json(cert.deviation),
        "epsilon": frac_to_str(cert.epsilon),
        "omega": list(cert.omega),
        "payoff": frac_to_str(cert.payoff),
        "sender": cert.sender,
        "verdict": "ProfitableDeviation",
        "x_bar": belief_to_json(cert.x_bar),
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        # the zero-sum overlay decomposes every utility, which checks coverage
        zero_sum_ok = check_zero_sum(scenario.payoffs).ok
        coverage_ok = True
    except NoPieceMatches:
        coverage_ok = zero_sum_ok = False
    ok = coverage_ok and zero_sum_ok
    _emit(
        {
            "coverage_ok": coverage_ok,
            "ok": ok,
            # a profile that is not Bayes-plausible fails to load
            "profiles_bayes_plausible": dict.fromkeys(scenario.profiles, True),
            "senders": scenario.n_senders,
            "states": scenario.n_states,
            "zero_sum_ok": zero_sum_ok,
            "zero_sum_sampled": False,
        }
    )
    return 0 if ok else EXIT_PRECONDITION


def _cmd_analyze(args) -> int:
    scenario = load_scenario(args.scenario)
    g = normalize_payoffs(scenario.payoffs)
    zero_sum = check_zero_sum(g).ok
    cond1 = condition1_report(g)
    surplus = strict_surplus_sufficiency(g)
    out = {
        "condition1": {
            "edges": [
                {"edge": list(edge), "satisfied": ok}
                for edge, ok in cond1.edges
            ],
            "note": cond1.note,
            "overall": cond1.overall,
        },
        "surplus_sufficiency": (
            "SufficiencyHolds" if surplus.holds else "Inconclusive"
        ),
        "zero_sum": zero_sum,
    }
    # the pooling duality only characterizes zero-sum games
    report = classify_full_revelation(g) if zero_sum else None
    if report is not None:
        out["edges"] = [
            {
                "edge": list(v.omega),
                "verdict": "NeverPooled" if v.never_pooled else "Poolable",
                "witness_belief": (
                    belief_to_json(v.witness_belief)
                    if v.witness_belief is not None
                    else None
                ),
                "witness_sender": v.witness_sender,
            }
            for v in report.edges
        ]
        out["counterexample"] = (
            list(report.counterexample) if report.counterexample else None
        )
        out["minimal_subsets"] = [list(s) for s in minimal_subsets(g)]
        out["overall"] = (
            "FullRevelation" if report.full_revelation else "NonRevealing"
        )
    else:
        out["edges"] = None
        out["counterexample"] = None
        out["minimal_subsets"] = None
        out["overall"] = (
            "FullRevelation" if surplus.holds else "Indeterminate"
        )
    if args.csv and report is not None:
        with _open_output(args.csv) as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["state_l", "state_k", "verdict", "witness_sender"]
            )
            for v in report.edges:
                writer.writerow(
                    [
                        v.omega[0],
                        v.omega[1],
                        "NeverPooled" if v.never_pooled else "Poolable",
                        "" if v.witness_sender is None else v.witness_sender,
                    ]
                )
    _emit(out)
    return 0


def _cmd_construct(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.fully_revealing:
        profile = construct_fully_revealing(scenario.prior, scenario.n_senders)
        kind = "fully_revealing"
    else:
        omega = _parse_state_set(args.pool)
        g = normalize_payoffs(scenario.payoffs)
        profile = construct_pooling_equilibrium(g, scenario.prior, omega)
        kind = "pooling"
    out = profile_to_json(profile)
    out["kind"] = kind
    _emit(out)
    return 0


def _cmd_exploit(args) -> int:
    scenario = load_scenario(args.scenario)
    profile = _resolve_profile(scenario, args.profile)
    g = normalize_payoffs(scenario.payoffs)
    omega = _parse_state_set(args.set)
    cert = synthesize_exploit(g, profile, omega)
    _emit(_certificate_json(cert))
    return 0


def _cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    profile = _resolve_profile(scenario, args.profile)
    g = normalize_payoffs(scenario.payoffs)
    result = verify_profile(g, profile, deviation_grid=args.grid)
    out = {
        "verdict": "Accepted" if result.ok else "ProfitableDeviation",
        "expected_utilities": [
            frac_to_str(u) for u in result.expected_utilities
        ],
    }
    if not result.ok:
        out["deviation"] = experiment_to_json(result.deviation)
        out["gain"] = frac_to_str(result.gain)
        out["sender"] = result.sender
    _emit(out)
    return 0


def _cmd_induce(args) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.action_game is None:
        raise PreconditionFailed("scenario has no action_game to induce from")
    g = normalize_payoffs(scenario.payoffs)
    n = scenario.n_states
    edges = {}
    for l in range(n):
        for k in range(l + 1, n):
            per_sender = []
            for u in g.utilities:
                f = u.on_edge(l, k)
                per_sender.append(
                    {
                        "breakpoints": [frac_to_str(t) for t in f.breakpoints],
                        "interval_forms": [
                            {"const": frac_to_str(c), "slope": frac_to_str(s)}
                            for c, s in f.interval_forms
                        ],
                        "point_values": [
                            frac_to_str(v) for v in f.point_values
                        ],
                    }
                )
            edges[f"{l}-{k}"] = per_sender
    _emit(
        {
            "edges": edges,
            "utilities": [utility_to_json(u) for u in g.utilities],
        }
    )
    return 0


def _cmd_oracle_scan(args) -> int:
    scenario = load_scenario(args.scenario)
    g = normalize_payoffs(scenario.payoffs)
    grid = GridSpec(
        args.belief_res, args.mass_res, args.max_support, args.cap
    )
    result = full_revelation_scan(g, scenario.prior, grid)
    out = {
        "verdict": (
            "OnlyFullyRevealingFound"
            if result.only_fully_revealing
            else "NonRevealingEquilibriumFound"
        )
    }
    if result.profile is not None:
        out["profile"] = profile_to_json(result.profile)
        joint = product(result.profile.experiments)
        out["joint"] = experiment_to_json(joint)
        if args.csv:
            with _open_output(args.csv) as fh:
                writer = csv.writer(fh)
                writer.writerow(
                    ["sender", "expected_utility"]
                )
                for i, u in enumerate(g.utilities):
                    value = sum((m * u(b) for b, m in joint.atoms), Fraction(0))
                    writer.writerow([i, frac_to_str(value)])
    _emit(out)
    return 0


def _cmd_emit_plot(args) -> int:
    if args.points < 1:
        raise ValueError("plot points must be >= 1")
    scenario = load_scenario(args.scenario)
    g = normalize_payoffs(scenario.payoffs)
    states = args.edge.split(",")
    if len(states) != 2:
        raise ValueError(f"an edge needs two states, got {args.edge!r}")
    l, k = (int(t) for t in states)
    fns = [u.on_edge(l, k) for u in g.utilities]
    points = args.points
    ts = sorted(
        {Fraction(j, points) for j in range(points + 1)}
        | {t for f in fns for t in f.breakpoints}
    )
    with (
        _open_output(args.out) if args.out else nullcontext(sys.stdout)
    ) as fh:
        writer = csv.writer(fh)
        # decimal approximations; exact values live in `induce`/scenario JSON
        writer.writerow(
            ["# decimal approximations (not exact rationals)"]
        )
        writer.writerow(
            ["t"] + [f"sender{i}" for i in range(g.n_senders)]
        )
        for t in ts:
            writer.writerow(
                [float(t)] + [float(f(t)) for f in fns]
            )
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept for the
    process: it depends on nothing but this module, and parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="zspersuasion",
        description=(
            "Exact analysis of zero-sum multi-sender persuasion games"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every scenario invariant")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "analyze",
        help="edge pooling verdicts, minimal subsets, slope and surplus "
        "sufficient conditions",
    )
    p.add_argument("scenario")
    p.add_argument("--csv", help="also write per-edge verdict rows")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("construct", help="build an equilibrium profile")
    p.add_argument("scenario")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fully-revealing", action="store_true")
    group.add_argument("--pool", metavar="SET", help="e.g. 0,1")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser(
        "exploit", help="profitable deviation against a pooling profile"
    )
    p.add_argument("scenario")
    p.add_argument("--profile", required=True, help="name or JSON path")
    p.add_argument("--set", required=True, metavar="SET", help="pooled states")
    p.set_defaults(func=_cmd_exploit)

    p = sub.add_parser("verify", help="decide whether a profile is an equilibrium")
    p.add_argument("scenario")
    p.add_argument("--profile", required=True, help="name or JSON path")
    p.add_argument("--grid", type=int, default=DEFAULT_VERIFY_GRID)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "induce", help="normalized payoffs induced by the action game"
    )
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    q = oracle_sub.add_parser(
        "scan", help="exhaustive grid equilibrium scan"
    )
    q.add_argument("scenario")
    q.add_argument("--belief-res", type=int, required=True)
    q.add_argument("--mass-res", type=int, required=True)
    q.add_argument("--max-support", type=int, required=True)
    q.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    q.add_argument("--csv", help="write per-sender payoff rows")
    q.set_defaults(func=_cmd_oracle_scan)

    p = sub.add_parser(
        "emit-plot", help="edge-function CSV (decimal approximations)"
    )
    p.add_argument("scenario")
    p.add_argument("--edge", default="0,1", help="edge states, e.g. 0,1")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--out", help="CSV path (default: standard output)")
    p.set_defaults(func=_cmd_emit_plot)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EnumerationTooLarge as exc:
        return _fail(exc, EXIT_CAP)
    except _PRECONDITION_ERRORS as exc:
        return _fail(exc, EXIT_PRECONDITION)
    except InvariantViolation as exc:
        return _fail(exc, EXIT_INTERNAL)
    except (ScenarioError, ValueError, TypeError, KeyError) as exc:
        return _fail(exc, EXIT_MALFORMED)


if __name__ == "__main__":
    sys.exit(main())
