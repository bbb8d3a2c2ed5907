"""Seeded scenario generators and independent output checkers.

Nothing here imports zspersuasion: the generators write scenario JSON from
the benchmark's own arithmetic, and every checker recomputes the expected
verdict from the scenario data alone (vertex best actions from the payoff
table, raw Bayes over signal tables, first-match evaluation of the
utilities as written in the file).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("analyze-ladder", "verify-grid", "exploit-interior", "oracle-scan")


class CheckFailed(Exception):
    """A printed verdict disagrees with the benchmark's own computation."""


@dataclass(frozen=True)
class Case:
    """One operation: a CLI argv (``{path}`` stands for the scenario file),
    the scenario it reads, and the kind of check its output gets."""

    name: str
    kind: str
    argv: tuple[str, ...]
    scenario: dict


def fs(v) -> str:
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _vec(values) -> list[str]:
    return [fs(v) for v in values]


# ---------------------------------------------------------------------------
# payoff tables


def site_receiver(rng: random.Random, n: int, a: int, pattern) -> list[list[int]]:
    """Receiver table whose best action at belief b is the action with the
    nearest site to b (a Voronoi partition of the simplex), so every action
    is best somewhere.  ``pattern[l]`` is the action best at vertex l;
    actions outside the pattern get sites near the barycentre.  The seed
    jitters the sites, not the partition's combinatorial type."""
    while True:
        sites = []
        for b in range(a):
            near = [l for l in range(n) if pattern[l] == b]
            w = [rng.randint(97, 103) + (30 if (l - b) % n == 0 else 0) for l in range(n)]
            tw = sum(w)
            if near:
                lam = Fraction(3, 5)
                base = [Fraction(1 if l in near else 0, len(near)) for l in range(n)]
            else:
                lam = Fraction(0)
                base = [Fraction(0)] * n
            sites.append([lam * base[l] + (1 - lam) * Fraction(w[l], tw) for l in range(n)])
        # -|b - p|^2 is affine in b on the simplex: 2 p.b - |p|^2 + const
        rows = [[2 * p[l] - sum(x * x for x in p) for l in range(n)] for p in sites]
        scale = math.lcm(*(v.denominator for row in rows for v in row))
        table = [[int(v * scale) for v in row] for row in rows]
        if any(len({table[b][l] for b in range(a)}) < a for l in range(n)):
            continue  # the receiver must not be indifferent at any state
        if vertex_actions(table) == tuple(pattern):
            return table


def sender_tables(base: random.Random, rng: random.Random, n: int, a: int, m: int):
    """m zero-sum sender tables: m-1 drawn from ``base`` (entries 3 apart
    within a state) plus noise in {-1, 0, 1} from ``rng``, the last their
    negated sum; no sender is indifferent between two actions at a state."""
    while True:
        skeleton = []
        for _ in range(m - 1):
            t = [[0] * n for _ in range(a)]
            for l in range(n):
                for b, v in enumerate(base.sample(range(-21, 22, 3), a)):
                    t[b][l] = v
            skeleton.append(t)
        for _ in range(20):
            tables = [[[v + rng.randint(-1, 1) for v in row] for row in t] for t in skeleton]
            last = [[-sum(t[b][l] for t in tables) for l in range(n)] for b in range(a)]
            if all(len({last[b][l] for b in range(a)}) == a for l in range(n)):
                return tables + [last]


def vertex_actions(receiver) -> tuple[int, ...]:
    """Receiver's best action under certainty of each state, lowest index
    first on ties."""
    n = len(receiver[0])
    return tuple(
        max(range(len(receiver)), key=lambda b: (receiver[b][l], -b))
        for l in range(n)
    )


def random_prior(rng: random.Random, n: int) -> list[Fraction]:
    w = [rng.randint(1, 4) for _ in range(n)]
    return [Fraction(v, sum(w)) for v in w]


def action_scenario(prior, receiver, senders, profiles=None) -> dict:
    a = len(receiver)
    return {
        "states": len(prior),
        "prior": _vec(prior),
        "senders": len(senders),
        "action_game": {
            "actions": [f"a{j}" for j in range(a)],
            "receiver": [_vec(row) for row in receiver],
            "senders": [[_vec(row) for row in t] for t in senders],
        },
        "profiles": profiles or {},
    }


def _constraint(coeffs, const, op) -> dict:
    return {"coeffs": _vec(coeffs), "const": fs(const), "op": op}


def _unit(n: int, l: int, v=1) -> list:
    return [v if j == l else 0 for j in range(n)]


def best_action_guard(receiver, b: int) -> list[dict]:
    """Action b is weakly best: (R_c - R_b) . beta <= 0 for every c != b."""
    n = len(receiver[0])
    return [
        _constraint([receiver[c][l] - receiver[b][l] for l in range(n)], 0, "<=")
        for c in range(len(receiver))
        if c != b
    ]


# ---------------------------------------------------------------------------
# scenario families


def nonzero_sum_scenario(base: random.Random, rng: random.Random, n: int, a: int, pattern) -> dict:
    """Two senders: an induced action utility u, and max_l beta_l - 1 - u.
    The summed utility max_l beta_l - 1 is negative off the vertices, so
    strict surplus sufficiency holds and every equilibrium reveals."""
    receiver = site_receiver(rng, n, a, pattern)
    table = sender_tables(base, rng, n, a, 2)[0]
    u = [
        {"guard": best_action_guard(receiver, b), "form": {"coeffs": _vec(table[b]), "const": "0"}}
        for b in range(a)
    ]
    v = []
    for l in range(n):
        top = [_constraint([x - y for x, y in zip(_unit(n, j), _unit(n, l))], 0, "<=")
               for j in range(n) if j != l]
        for b in range(a):
            coeffs = [x - y for x, y in zip(_unit(n, l), table[b])]
            v.append({"guard": top + best_action_guard(receiver, b),
                      "form": {"coeffs": _vec(coeffs), "const": "-1"}})
    prior = random_prior(rng, n)
    return {"states": n, "prior": _vec(prior), "senders": 2,
            "payoffs": [{"pieces": u}, {"pieces": v}]}


def interior_bump_scenario(base: random.Random, rng: random.Random, n: int, split: bool) -> dict:
    """Sender 0 is nonzero only where every state has positive probability
    (one affine piece, or two split by a hyperplane through an interior
    point), zero on every proper face; sender 1 is the negation.  The
    profile ``pool`` has both senders uninformative, pooling every state.
    The utility comes from ``base`` and the prior from ``rng``: which branch
    of the exploit search runs depends on the utility's shape, so the seed
    leaves it alone."""
    inside = [_constraint(_unit(n, l, -1), 0, "<") for l in range(n)]
    centre = [Fraction(base.randint(2, 5)) for _ in range(n)]
    centre = [c / sum(centre) for c in centre]
    forms = []
    for _ in range(2):
        coeffs = [Fraction(base.randint(-4, 4)) for _ in range(n)]
        lift = Fraction(base.randint(1, 4), 8)
        const = lift - sum(c * p for c, p in zip(coeffs, centre))
        forms.append((coeffs, const))
    cut = [Fraction(base.randint(-3, 3)) for _ in range(n)]
    cut_const = -sum(c * p for c, p in zip(cut, centre))
    pieces = [
        {"guard": inside + [_constraint(cut, cut_const, "<=")],
         "form": {"coeffs": _vec(forms[0][0]), "const": fs(forms[0][1])}},
        {"guard": inside, "form": {"coeffs": _vec(forms[1][0]), "const": fs(forms[1][1])}},
        {"guard": [], "form": {"coeffs": _vec([0] * n), "const": "0"}},
    ][0 if split else 1:]
    negated = [{"guard": p["guard"], "form": {"coeffs": _vec(-Fraction(c) for c in p["form"]["coeffs"]),
                                              "const": fs(-Fraction(p["form"]["const"]))}}
               for p in pieces]
    prior = random_prior(rng, n)
    return {"states": n, "prior": _vec(prior), "senders": 2,
            "payoffs": [{"pieces": pieces}, {"pieces": negated}],
            "profiles": {"pool": ["uninformative", "uninformative"]}}


def binary_scenario(base: random.Random, rng: random.Random, zero: bool) -> dict:
    """Two states, breakpoints at multiples of 1/5, sender 0 continuous
    piecewise linear in beta_1 and of one sign (identically zero when
    ``zero``), sender 1 the negation."""
    values = [Fraction(0)] * 6
    if not zero:
        sign = base.choice([-1, 1])
        for j in base.sample(range(1, 5), base.randint(1, 2)):
            values[j] = Fraction(sign * rng.randint(1, 2))
    utilities = []
    for s in (1, -1):
        pieces = []
        for k in range(5):
            t0, t1 = Fraction(k, 5), Fraction(k + 1, 5)
            slope = s * (values[k + 1] - values[k]) / (t1 - t0)
            const = s * values[k] - slope * t0
            guard = [_constraint([0, 1], -t1, "<")] if k < 4 else []
            pieces.append({"guard": guard, "form": {"coeffs": _vec([0, slope]), "const": fs(const)}})
        utilities.append({"pieces": pieces})
    return {"states": 2, "prior": ["1/2", "1/2"], "senders": 2, "payoffs": utilities}


# ---------------------------------------------------------------------------
# workloads: one round of cases per workload, all drawn from the seed

# (N, A, M, vertex-action pattern); patterns fix how many states share a
# best action, which decides how much face work each classifier does.
ANALYZE_ZERO_SUM = [
    (3, 3, 2, (0, 1, 2)),
    (3, 3, 3, (0, 0, 1)),
    (3, 4, 2, (0, 0, 1)),
    (3, 4, 3, (0, 1, 2)),
    (4, 3, 2, (0, 1, 2, 2)),
    (4, 3, 3, (0, 1, 1, 2)),
]
ANALYZE_NONZERO_SUM = [(2, 3, (0, 1)), (3, 2, (0, 1, 1))]
# (N, A, M, grid, pattern, pooled pair or None for the fully revealing
# profile); a pooled pair always shares its vertex action.
VERIFY = [
    (3, 3, 2, 8, (0, 1, 2), None),
    (3, 4, 3, 8, (0, 0, 1), (0, 1)),
    (4, 3, 2, 7, (0, 1, 1, 2), (1, 2)),
    (4, 4, 2, 8, (0, 0, 1, 2), (0, 1)),
    (4, 4, 3, 6, (0, 1, 2, 3), None),
    (5, 3, 2, 8, (0, 1, 2, 0, 1), None),
    (5, 4, 2, 7, (0, 0, 1, 2, 3), (0, 1)),
]
# (N, split into two interior pieces)
EXPLOIT = [(3, True), (3, True), (4, False), (4, False), (4, False)]
# grids are those at which the scan was checked against the theorem.  The
# binary games (0.1-0.35 s each, the cost fixed by the slot's sign and
# breakpoints) outnumber the rest, so the median call is a binary game.
ORACLE_BINARY = 9  # single-signed binary games
ORACLE_TERNARY = [(3, (0, 1, 2)), (4, (0, 1, 2)), (4, (0, 1, 1)), (4, (0, 0, 1))]


def _pattern_name(p) -> str:
    return "".join(str(x) for x in p)


def build_round(workload: str, seed: int, smoke: bool = False) -> list[Case]:
    """The cases of one round of ``workload``, generated from ``seed``.
    ``smoke`` keeps only the smallest case."""
    cases: list[Case] = []

    def draws():
        # the slot's shape comes from a fixed stream; the seed perturbs it
        j = len(cases)
        return random.Random(f"{workload}:{j}"), random.Random(f"{workload}:{seed}:{j}")

    if workload == "analyze-ladder":
        for n, a, m, pattern in ANALYZE_ZERO_SUM:
            base, rng = draws()
            receiver = site_receiver(rng, n, a, pattern)
            sc = action_scenario(random_prior(rng, n), receiver, sender_tables(base, rng, n, a, m))
            cases.append(Case(f"zs-N{n}A{a}M{m}-{_pattern_name(pattern)}", "analyze-zero-sum",
                              ("analyze", "{path}"), sc))
        for n, a, pattern in ANALYZE_NONZERO_SUM:
            base, rng = draws()
            sc = nonzero_sum_scenario(base, rng, n, a, pattern)
            cases.append(Case(f"nzs-N{n}A{a}", "analyze-nonzero-sum", ("analyze", "{path}"), sc))
    elif workload == "verify-grid":
        for n, a, m, grid, pattern, pair in VERIFY:
            base, rng = draws()
            receiver = site_receiver(rng, n, a, pattern)
            prior = random_prior(rng, n)
            if pair is None:
                experiment = "fully_revealing"
            else:
                mass = prior[pair[0]] + prior[pair[1]]
                pooled = [prior[l] / mass if l in pair else 0 for l in range(n)]
                atoms = [{"belief": _vec(_unit(n, l)), "mass": fs(prior[l])}
                         for l in range(n) if l not in pair]
                atoms.append({"belief": _vec(pooled), "mass": fs(mass)})
                experiment = {"atoms": atoms}
            sc = action_scenario(prior, receiver, sender_tables(base, rng, n, a, m),
                                 {"eq": [experiment] * m})
            kind = "revealing" if pair is None else "pool" + "".join(map(str, pair))
            cases.append(Case(f"N{n}A{a}M{m}-g{grid}-{kind}", "verify",
                              ("verify", "{path}", "--profile", "eq", "--grid", str(grid)), sc))
    elif workload == "exploit-interior":
        for n, split in EXPLOIT:
            sc = interior_bump_scenario(*draws(), n, split)
            states = ",".join(str(l) for l in range(n))
            cases.append(Case(f"bump-N{n}-{'split' if split else 'one'}", "exploit",
                              ("exploit", "{path}", "--profile", "pool", "--set", states), sc))
    elif workload == "oracle-scan":
        for _ in range(ORACLE_BINARY):
            sc = binary_scenario(*draws(), zero=False)
            cases.append(Case("binary-signed", "oracle-binary",
                              ("oracle", "scan", "{path}", "--belief-res", "5",
                               "--mass-res", "4", "--max-support", "3"), sc))
        for a, pattern in ORACLE_TERNARY:
            base, rng = draws()
            receiver = site_receiver(rng, 3, a, pattern)
            sc = action_scenario([Fraction(1, 3)] * 3, receiver, sender_tables(base, rng, 3, a, 2))
            cases.append(Case(f"ternary-A{a}-{_pattern_name(pattern)}", "oracle-ternary",
                              ("oracle", "scan", "{path}", "--belief-res", "4",
                               "--mass-res", "3", "--max-support", "3"), sc))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if smoke:
        cases = [min(cases, key=lambda c: (c.scenario["states"], len(json.dumps(c.scenario))))]
    return cases


def write_round(cases: list[Case], directory: Path) -> list[dict]:
    """Writes each case's scenario file; returns the manifest entries."""
    directory.mkdir(parents=True, exist_ok=True)
    manifest = []
    for j, case in enumerate(cases):
        path = directory / f"{j:02d}-{case.name}.json"
        path.write_text(json.dumps(case.scenario, indent=1, sort_keys=True) + "\n")
        manifest.append({"name": path.stem, "kind": case.kind, "path": str(path),
                         "argv": [str(path) if t == "{path}" else t for t in case.argv]})
    return manifest


# ---------------------------------------------------------------------------
# independent arithmetic


def _holds(value: Fraction, op: str) -> bool:
    return {"<": value < 0, "<=": value <= 0, "==": value == 0,
            ">": value > 0, ">=": value >= 0}[op]


def evaluate(utility: dict, beta) -> Fraction:
    """First-match evaluation of a utility as written in a scenario file."""
    for piece in utility["pieces"]:
        if all(_holds(Fraction(c["const"]) + sum(Fraction(k) * b for k, b in zip(c["coeffs"], beta)), c["op"])
               for c in piece["guard"]):
            form = piece["form"]
            return Fraction(form.get("const", "0")) + sum(Fraction(k) * b for k, b in zip(form["coeffs"], beta))
    raise CheckFailed(f"no piece covers {beta}")


def normalized(utility: dict, n: int):
    """The utility shifted to vanish at every vertex, as a function."""
    at_vertex = [evaluate(utility, _unit(n, l)) for l in range(n)]
    return lambda beta: evaluate(utility, beta) - sum(v * b for v, b in zip(at_vertex, beta))


def _atoms(experiment, prior) -> list[tuple[list[Fraction], Fraction]]:
    n = len(prior)
    if experiment == "uninformative":
        return [(list(prior), Fraction(1))]
    if experiment == "fully_revealing":
        return [(_unit(n, l), prior[l]) for l in range(n)]
    return [([Fraction(p) for p in a["belief"]], Fraction(a["mass"])) for a in experiment["atoms"]]


def raw_bayes_payoff(u, prior, experiments) -> Fraction:
    """Expected u over the posteriors of conditionally independent
    experiments, by Bayes' rule on per-state signal tables
    Pr(signal x | state l) = mass(x) x_l / prior_l."""
    n = len(prior)
    tables = [[[m * x[l] / prior[l] for l in range(n)] for x, m in e] for e in experiments]
    total = Fraction(0)
    for signals in itertools.product(*tables):
        weights = [prior[l] * math.prod(s[l] for s in signals) for l in range(n)]
        p = sum(weights)
        if p:
            total += p * u([w / p for w in weights])
    return total


# ---------------------------------------------------------------------------
# checkers


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check(kind: str, scenario: dict, out: dict) -> None:
    """Raises CheckFailed unless ``out`` (the parsed CLI stdout) is the
    verdict the benchmark computes for ``scenario``."""
    n = scenario["states"]
    if kind == "analyze-zero-sum":
        va = vertex_actions([[Fraction(v) for v in row] for row in scenario["action_game"]["receiver"]])
        pairs = [[l, k] for l, k in itertools.combinations(range(n), 2)]
        differ = [p for p in pairs if va[p[0]] != va[p[1]]]
        _require(out["zero_sum"] is True, "zero_sum should be true")
        _require(out["surplus_sufficiency"] == "Inconclusive", "surplus should be Inconclusive")
        verdicts = {tuple(e["edge"]): e["verdict"] for e in out["edges"]}
        _require(sorted(verdicts) == [tuple(p) for p in pairs], "wrong edge list")
        for p in pairs:
            want = "NeverPooled" if p in differ else "Poolable"
            _require(verdicts[tuple(p)] == want, f"edge {p}: {verdicts[tuple(p)]} != {want}")
        _require(sorted(out["minimal_subsets"]) == differ, "minimal subsets != differing pairs")
        distinct = len(set(va)) == n
        _require(out["overall"] == ("FullRevelation" if distinct else "NonRevealing"), "wrong overall")
    elif kind == "analyze-nonzero-sum":
        _require(out["zero_sum"] is False, "zero_sum should be false")
        _require(out["surplus_sufficiency"] == "SufficiencyHolds", "surplus should hold")
        _require(out["overall"] == "FullRevelation", "overall should be FullRevelation")
    elif kind == "verify":
        _require(out["verdict"] == "Accepted", f"verdict {out['verdict']}")
        _require(out["expected_utilities"] == ["0"] * scenario["senders"], "nonzero expected utility")
    elif kind == "exploit":
        prior = [Fraction(p) for p in scenario["prior"]]
        deviation = _atoms(out["deviation"], prior)
        mean = [sum(m * x[l] for x, m in deviation) for l in range(n)]
        _require(mean == prior, "deviation mean differs from the prior")
        _require(sum(m for _, m in deviation) == 1, "deviation masses do not sum to 1")
        u = normalized(scenario["payoffs"][out["sender"]], n)
        profile = [_atoms(e, prior) for e in scenario["profiles"]["pool"]]
        payoff = raw_bayes_payoff(u, prior, profile + [deviation])
        _require(payoff == Fraction(out["payoff"]), f"payoff {out['payoff']} != recomputed {payoff}")
        _require(payoff > 0, "payoff is not positive")
    elif kind == "oracle-binary":
        u = scenario["payoffs"][0]
        revealing = any(evaluate(u, [1 - t, t]) != 0 for t in (Fraction(k, 5) for k in range(6)))
        want = "OnlyFullyRevealingFound" if revealing else "NonRevealingEquilibriumFound"
        _require(out["verdict"] == want, f"verdict {out['verdict']} != {want}")
    elif kind == "oracle-ternary":
        va = vertex_actions([[Fraction(v) for v in row] for row in scenario["action_game"]["receiver"]])
        want = "OnlyFullyRevealingFound" if len(set(va)) == n else "NonRevealingEquilibriumFound"
        _require(out["verdict"] == want, f"verdict {out['verdict']} != {want}")
    else:
        raise ValueError(f"unknown check kind {kind!r}")
