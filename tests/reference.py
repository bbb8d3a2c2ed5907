"""Reference implementations that the program no longer uses, kept for
differential tests.

``has_strict_point`` is the two-phase Bland simplex over ``Fraction`` that
``geometry._has_strict_point`` replaced with a fraction-free integer
tableau.  Both start from the same rows and pivot under the same rule, so
they must stop at the same basis and return the same point.

``evaluate`` and ``edge_restriction`` are first-match evaluation and the
edge restriction computed in ``Fraction``, guard by guard at every point,
which ``PiecewiseAffineUtility.__call__`` and ``utilities.edge_restriction``
replaced with guards signed in integers.  They must agree exactly, errors
included.

``conditional_payoff_against`` is the conditional payoff as a sum of
utility values over the posteriors of ``experiments.conditional_posteriors``,
with ``memoized`` keeping a utility's values by posterior ray, which
``utilities.Pullback`` replaced everywhere in the program: in ``verify``,
in the oracle's scans and in exploit certificates.  ``verify_profile`` is
the profile screen that evaluated each sender's conditional payoff at every
grid belief that way, which ``equilibrium.verify_profile`` replaced with
the integer rows of ``utilities.Pullback``.  Both must return the same
values and results and raise the same errors.

``heuristic_exploit`` is the exploit search on faces of three or more
states that ``equilibrium._positive_point`` replaced: a lexicographic
ratio target read off closure vertices (``lexicographic_target``), then up
to a budget of candidates that slide toward advantaged points in halving
steps.  Wherever it certifies, the exact search must certify too.

``overlay_product`` is the overlay as the nonempty intersections of one
first-match region per utility, one emptiness test per tuple, which
``geometry.overlay_regions`` replaced with a sweep refined cell by cell.
Both must cover every belief once with the same summed form, and both must
reject a coverage gap.

``grid_strategies`` is the grid enumeration that searched every support
of up to ``max_support`` grid beliefs and tested each mass split for
Bayes-plausibility, building an ``Experiment`` for each plausible one,
which ``oracle._grid_strategies`` replaced with integer atoms whose last
atom is solved from the others.  Both must list the same experiments in
the same order, and raise the same errors.  ``support_masks`` is an
experiment's atom supports as bitmasks, which the oracle now reads from
the integer atoms.

``grid_beliefs``, ``expected_utility`` and ``max_total_surplus`` have no
caller in the program: the grid of beliefs as ``Belief`` objects, a
sender's ex-ante payoff from the full joint experiment, and the exact
maximum of the pooled sum of utilities.

``best_action``, ``classify_action_game`` and ``first_best_check`` are the
action-game criterion, which no command applies: every equilibrium of an
action game reveals the state iff the states' best actions are pairwise
distinct, and the receiver takes its full-information action in every
equilibrium.  ``raw_posterior`` is Bayes' rule straight on per-state
signal tables (``to_signal_structure``), the independent answer that
``beliefs.combine`` and ``experiments.product`` are checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from zspersuasion.actions import ActionGame
from zspersuasion.affine import AffineForm, Constraint
from zspersuasion.analysis import detect_pooled_sets
from zspersuasion.beliefs import Belief, degenerate, ray, ray_belief
from zspersuasion.equilibrium import (
    DEFAULT_VERIFY_GRID,
    ExploitCertificate,
    VerificationResult,
    _advantaged,
    _aim,
    _certify,
    _deviation_experiment,
    _edge_candidate,
    _epsilon_for,
    _exploit,
    _minimal_theta,
    _solve_x_from_posterior,
)
from zspersuasion.exceptions import (
    EnumerationTooLarge,
    InvariantViolation,
    NoPieceMatches,
)
from zspersuasion.experiments import (
    Experiment,
    StrategyProfile,
    conditional_posteriors,
    fully_revealing,
    product,
)
from zspersuasion.geometry import (
    cell_is_nonempty,
    closure_vertices,
    overlay_regions,
    subsimplex_constraints,
)
from zspersuasion.oracle import (
    GridSpec,
    _mass_splits,
    enumeration_bound,
    grid_counts,
)
from zspersuasion.utilities import (
    EdgeFunction,
    GamePayoffs,
    Piece,
    PiecewiseAffineUtility,
    _merge_edge,
)

Point = tuple[Fraction, ...]


def lp_rows(
    n: int, constraints: Sequence[Constraint]
) -> Optional[list[tuple[tuple[Fraction, ...], Fraction, bool]]]:
    """The cell as rows (a, b, equality) of a.x <= b or a.x == b over
    x = (beta_0, ..., beta_{n-2}, s), with beta_{n-1} = 1 - sum(others)
    substituted, so x >= 0 covers all but beta_{n-1} >= 0, which is a row.
    Strict rows get the slack s, and s <= 1 keeps the program bounded.
    Duplicates and rows without a variable are dropped; None when such a
    row fails."""
    one, zero = Fraction(1), Fraction(0)
    rows = [
        (tuple(one for _ in range(n - 1)) + (zero,), one, False),
        (tuple(zero for _ in range(n - 1)) + (one,), one, False),
    ]
    for c in constraints:
        coeffs, last = c.expr.coeffs, c.expr.coeffs[-1]
        sign = -1 if c.op in (">", ">=") else 1
        a = tuple(sign * (v - last) for v in coeffs[:-1])
        b = -sign * (c.expr.const + last)
        rows.append((a + (one if c.is_strict else zero,), b, c.op == "=="))
    kept = []
    for a, b, eq in dict.fromkeys(rows):
        if any(a):
            kept.append((a, b, eq))
        elif b < 0 or (eq and b != 0):  # a constant row that fails
            return None
    return kept


def _pivot(
    table: list[list[Fraction]], rhs: list[Fraction], r: int, c: int
) -> None:
    """Exchange the basic variable of row r with the nonbasic variable of
    column c in the dictionary x_B = rhs - table . x_N (the last row of
    table and rhs is the objective)."""
    row, p = table[r], table[r][c]
    row[c] = Fraction(1)  # the leaving variable's column: 1 / p after division
    support = [j for j, v in enumerate(row) if v]
    for j in support:
        row[j] /= p
    rhs[r] /= p
    for i, other in enumerate(table):
        f = other[c]
        if i == r or not f:
            continue
        other[c] = Fraction(0)
        for j in support:
            other[j] -= f * row[j]
        rhs[i] -= f * rhs[r]


def _bland_step(
    table: list[list[Fraction]],
    rhs: list[Fraction],
    basic: list[int],
    nonbasic: list[int],
) -> bool:
    """One pivot of the simplex method under Bland's rule: the entering
    variable is the lowest-numbered one that improves the objective, the
    leaving one the lowest-numbered among the tightest ratios.  False at
    an optimum."""
    entering = [j for j, d in enumerate(table[-1]) if d < 0]
    if not entering:
        return False
    c = min(entering, key=lambda j: nonbasic[j])
    ratios = [
        (rhs[i] / table[i][c], basic[i], i)
        for i in range(len(basic))
        if table[i][c] > 0
    ]
    if not ratios:
        raise InvariantViolation("linear program over a cell is unbounded")
    r = min(ratios)[2]
    _pivot(table, rhs, r, c)
    basic[r], nonbasic[c] = nonbasic[c], basic[r]
    return True


def _drop_column(table: list[list[Fraction]], nonbasic: list[int], c: int) -> None:
    for row in table:
        del row[c]
    del nonbasic[c]


def has_strict_point(n: int, constraints: Sequence[Constraint]) -> Optional[Point]:
    """The beta of the first feasible basis with s > 0 over the rows of
    ``lp_rows``, or None when max s <= 0.  Two-phase simplex with Bland's
    rule from the vertex e_{n-1} (x = 0), computing in Fraction."""
    rows = lp_rows(n, constraints)
    if rows is None:
        return None
    s_var, artificial = n - 1, n + len(rows)
    negative = [i for i, (_, b, eq) in enumerate(rows) if b < 0 and not eq]
    nonbasic = list(range(n)) + [n + i for i in negative]
    table: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    basic: list[int] = []
    for i, (a, b, eq) in enumerate(rows):
        sign = -1 if b < 0 else 1
        table.append(
            [sign * v for v in a] + [Fraction(-1 if i == j else 0) for j in negative]
        )
        rhs.append(sign * b)
        basic.append(artificial + i if eq or b < 0 else n + i)

    started = [i for i, v in enumerate(basic) if v >= artificial]
    table.append([
        -sum((table[i][j] for i in started), Fraction(0))
        for j in range(len(nonbasic))
    ])
    rhs.append(-sum((rhs[i] for i in started), Fraction(0)))
    while rhs[-1] < 0:
        if not _bland_step(table, rhs, basic, nonbasic):
            return None
        for c in reversed([j for j, v in enumerate(nonbasic) if v >= artificial]):
            _drop_column(table, nonbasic, c)
    for i in range(len(basic) - 1, -1, -1):
        if basic[i] < artificial:
            continue
        c = next((j for j, v in enumerate(table[i]) if v), None)
        if c is None:
            del table[i], rhs[i], basic[i]
            continue
        _pivot(table, rhs, i, c)
        basic[i], nonbasic[c] = nonbasic[c], basic[i]
        _drop_column(table, nonbasic, c)

    if s_var in basic:
        r = basic.index(s_var)
        table[-1], rhs[-1] = table[r][:], rhs[r]
    else:
        table[-1] = [Fraction(-1 if v == s_var else 0) for v in nonbasic]
        rhs[-1] = Fraction(0)
    while rhs[-1] <= 0:
        if not _bland_step(table, rhs, basic, nonbasic):
            return None
    beta = [Fraction(0)] * n
    for v, value in zip(basic, rhs):
        if v < s_var:
            beta[v] = value
    beta[-1] = 1 - sum(beta[:-1], Fraction(0))
    return tuple(beta)


def matches(piece: Piece, b: Belief) -> bool:
    """Whether every guard constraint of the piece holds at b."""
    return all(c.holds(b) for c in piece.guard)


def evaluate(u: PiecewiseAffineUtility, b: Belief) -> Fraction:
    """The form of the first piece whose guard holds at b, at b."""
    for p in u.pieces:
        if matches(p, b):
            return p.form(b)
    raise NoPieceMatches.at(b)


def edge_restriction(u: PiecewiseAffineUtility, l: int, k: int) -> EdgeFunction:
    """The restriction of u to the (l, k) edge: every guard and form
    restricted by ``AffineForm.on_edge`` and evaluated in ``Fraction`` at
    each probe point."""
    if l == k:
        raise ValueError("edge endpoints must differ")
    cuts = {Fraction(0), Fraction(1)}
    for p in u.pieces:
        for cons in p.guard:
            c, s = cons.expr.on_edge(l, k)
            if s != 0:
                t = -c / s
                if 0 < t < 1:
                    cuts.add(t)
    breakpoints = sorted(cuts)

    def first_match(t: Fraction) -> tuple[tuple[Fraction, Fraction], Fraction]:
        for p in u.pieces:
            ok = True
            for cons in p.guard:
                c, s = cons.expr.on_edge(l, k)
                if not cons.holds_value(c + s * t):
                    ok = False
                    break
            if ok:
                fc, fs = p.form.on_edge(l, k)
                return (fc, fs), fc + fs * t
        raise NoPieceMatches(f"no piece covers edge ({l},{k}) at t={t}")

    forms = []
    for a, b in zip(breakpoints, breakpoints[1:]):
        form, _ = first_match((a + b) / 2)
        forms.append(form)
    values = [first_match(t)[1] for t in breakpoints]
    return _merge_edge(breakpoints, forms, values)


class Memo:
    """A utility that evaluates each distinct belief once, for as long as
    the memo lives.  Values are keyed by the belief's primitive integer
    ray, whether asked for by ``Belief`` or by ray, so both share one
    entry, and a belief is built only on a miss."""

    def __init__(self, u: PiecewiseAffineUtility):
        self.utility = u
        self.values: dict[tuple[int, ...], Fraction] = {}

    def __call__(self, b: Belief) -> Fraction:
        return self.at_ray(ray(b))

    def at_ray(self, k: tuple[int, ...]) -> Fraction:
        """The value at the belief k / sum(k) of a primitive ray k."""
        v = self.values.get(k)
        if v is None:
            v = self.values[k] = self.utility(ray_belief(k))
        return v


def memoized(u: PiecewiseAffineUtility) -> Memo:
    """u with its values kept by belief; see :class:`Memo`."""
    return Memo(u)


def conditional_payoff_against(
    u: Union[PiecewiseAffineUtility, Memo],
    others: Experiment,
    x: Union[Belief, Sequence[int]],
) -> Fraction:
    """sum_b p(b | x) u(b) over ``conditional_posteriors(k, others)``, where
    x is a ``Belief`` or the integer vector k of x = k / sum(k).  The terms
    are summed in integers over their least common denominator and divided
    by E sum(k) once, E the denominator of ``others``' likelihood rows.
    ``u`` is a utility or a :func:`memoized` one."""
    k = ray(x) if isinstance(x, Belief) else x
    if isinstance(u, Memo):
        value = u.at_ray
    else:
        def value(w: tuple[int, ...]) -> Fraction:
            return u(ray_belief(w))
    num, den = 0, 1
    for w, q in conditional_posteriors(k, others):
        v = value(w)
        d = v.denominator
        g = math.gcd(den, d)
        num = num * (d // g) + q * v.numerator * (den // g)
        den = den // g * d
    return Fraction(num, den * others.likelihood_rows[0] * sum(k))


def verify_profile(
    g: GamePayoffs,
    profile: StrategyProfile,
    deviation_grid: int = DEFAULT_VERIFY_GRID,
) -> VerificationResult:
    """The profile screen with one utility memo per sender: the conditional
    payoff of every sender at every grid belief, in that order, summed over
    the posteriors by ``conditional_payoff_against`` above."""
    grid = grid_counts(g.n_states, deviation_grid)
    prior = profile.prior
    values = [memoized(u) for u in g.utilities]
    joint = product(profile)
    expected = tuple(
        sum((m * v(b) for b, m in joint.atoms), Fraction(0)) for v in values
    )
    for i, ui in enumerate(expected):
        if ui < 0:
            return VerificationResult(
                False, expected, i, fully_revealing(prior), -ui
            )
    opponents = [profile.opponents(i) for i in range(g.n_senders)]
    for k in grid:
        if deviation_grid in k:  # degenerate
            continue
        for i, (v, others) in enumerate(zip(values, opponents)):
            w = conditional_payoff_against(v, others, k)
            if w > 0:
                x = ray_belief(k)
                eps = _epsilon_for(prior, x)
                return VerificationResult(
                    False,
                    expected,
                    i,
                    _deviation_experiment(prior, x, eps),
                    eps * w,
                )
    for pooled in detect_pooled_sets(joint).maximal:
        theta = _minimal_theta(g, pooled)
        if theta is None:
            continue
        cert = _exploit(g, profile, joint, pooled, theta)
        if cert is None:
            continue
        return VerificationResult(
            False, expected, cert.sender, cert.deviation, cert.payoff
        )
    return VerificationResult(True, expected)


def lexicographic_target(
    n: int, cells: list[tuple[Constraint, ...]], states: tuple[int, ...]
) -> Belief:
    """Lexicographic successive-ratio maximum over a union of closed cells
    whose points all have full support on ``states``.

    Maximizes the ratio of mass on states[k] to mass on later states, level
    by level from the bottom pair upward; each level's maximizer set is cut
    out by one more linear equality, and the final set is a single belief.
    """
    kk = len(states)
    current = list(cells)
    for k in range(kk - 2, -1, -1):
        best: Optional[Fraction] = None
        for cell in current:
            for v in closure_vertices(n, cell):
                num = v[states[k]]
                den = sum((v[states[m]] for m in range(k + 1, kk)), Fraction(0))
                if den == 0:
                    raise InvariantViolation(
                        "ratio target undefined: advantage closure touches "
                        "a proper face"
                    )
                r = num / den
                best = r if best is None or r > best else best
        if best is None:
            raise InvariantViolation("advantage closure has no vertex")
        # cut down to the argmax set: mass_k - best * tail_mass == 0
        coeffs = [Fraction(0)] * n
        coeffs[states[k]] = Fraction(1)
        for m in range(k + 1, kk):
            coeffs[states[m]] = -best
        eq = Constraint(AffineForm(Fraction(0), tuple(coeffs)), "==")
        current = [
            cell + (eq,)
            for cell in current
            if cell_is_nonempty(n, cell + (eq,))
        ]
    points = {
        v for cell in current for v in closure_vertices(n, cell)
    }
    if len(points) != 1:
        raise InvariantViolation(
            f"lexicographic ratio maximizer is not unique: {sorted(points)}"
        )
    return Belief(next(iter(points)))


def heuristic_candidates(
    g: GamePayoffs,
    prior: Belief,
    theta: tuple[int, ...],
    z_atoms: list[Belief],
    budget: int,
):
    """Candidates (sender, x) on a face of three or more states: the
    direct hit on the target, then at most ``budget`` perturbations of it."""
    n = g.n_states
    pos_cells = [
        (i, strict, point)
        for i, u in enumerate(g.utilities)
        for strict, point in _advantaged(u, theta)
    ]
    closed_cells = [tuple(c.weakened() for c in cell) for _, cell, _ in pos_cells]

    # smallest sub-face of theta whose face the advantage closure touches
    carrier = theta
    for size in range(1, len(theta)):
        hit = None
        for sub in itertools.combinations(theta, size):
            subface = tuple(subsimplex_constraints(n, sub))
            if any(
                cell_is_nonempty(n, cell + subface) for cell in closed_cells
            ):
                hit = sub
                break
        if hit is not None:
            carrier = hit
            break

    if len(carrier) == 1:
        beta_bar = degenerate(n, carrier[0])
    else:
        carrier_face = tuple(subsimplex_constraints(n, carrier))
        cells = [
            cell + carrier_face
            for cell in closed_cells
            if cell_is_nonempty(n, cell + carrier_face)
        ]
        beta_bar = lexicographic_target(n, cells, carrier)
    x_star, lowest = _aim(prior, z_atoms, carrier, beta_bar)

    # direct hit: the target posterior itself is strictly advantaged
    if carrier == theta:
        sender = next(
            (i for i, u in enumerate(g.utilities) if u(beta_bar) > 0), None
        )
        if sender is not None:
            yield sender, x_star

    # boundary target: slide toward a strictly advantaged interior point
    # with geometrically shrinking steps
    preferred = [
        pc
        for pc, closed in zip(pos_cells, closed_cells)
        if all(c.holds(beta_bar) for c in closed)
    ]
    ordered = preferred + [pc for pc in pos_cells if pc not in preferred]
    interior = Belief(
        tuple(
            Fraction(1, len(theta)) if m in theta else Fraction(0)
            for m in range(n)
        )
    )

    def perturbations():
        for t in itertools.count(1):
            step = Fraction(1, 2**t)
            for _, _, w_pt in ordered:
                beta_prime = Belief(
                    tuple(
                        (1 - step) * a + step * b
                        for a, b in zip(beta_bar.probs, w_pt)
                    )
                )
                sender = next(
                    (j for j, u in enumerate(g.utilities) if u(beta_prime) > 0),
                    None,
                )
                if sender is not None:
                    yield sender, _solve_x_from_posterior(
                        prior, beta_prime, lowest[0]
                    )
            # alternate family: pull the interim belief itself off the face
            x_mix = Belief(
                tuple(
                    (1 - step) * a + step * b
                    for a, b in zip(x_star.probs, interior.probs)
                )
            )
            for sender in range(g.n_senders):
                yield sender, x_mix

    yield from itertools.islice(perturbations(), max(budget, 0))


def heuristic_exploit(
    g: GamePayoffs,
    profile: StrategyProfile,
    omega: tuple[int, ...],
    budget: int = 64,
) -> Optional[ExploitCertificate]:
    """The first certified candidate of the heuristic search against a
    profile that pools omega, or None where it found none within
    ``budget`` candidates (exit 3 at the time).  omega must have a minimal
    advantaged subset."""
    joint = product(profile.experiments)
    theta = _minimal_theta(g, omega)
    z_atoms = [b for b, _ in joint.atoms if set(theta) <= b.support]
    if len(theta) == 2:
        candidates = [_edge_candidate(g, profile.prior, theta, z_atoms)]
    else:
        candidates = heuristic_candidates(g, profile.prior, theta, z_atoms, budget)
    for sender, x_bar in candidates:
        cert = _certify(g, profile, joint, omega, theta, sender, x_bar)
        if cert is not None:
            return cert
    return None


def overlay_product(
    utilities: Sequence[PiecewiseAffineUtility],
) -> list[tuple[tuple[Constraint, ...], AffineForm]]:
    """(constraints, summed form) for every nonempty intersection of one
    first-match region per utility.  Every utility is decomposed first, so
    a coverage gap raises NoPieceMatches."""
    n = utilities[0].n_states
    decomposed = [u.regions() for u in utilities]
    out = []
    for combo in itertools.product(*decomposed):
        cell = tuple(c for constraints, _ in combo for c in constraints)
        if cell_is_nonempty(n, cell):
            out.append((cell, sum((form for _, form in combo), AffineForm.zero(n))))
    return out


def grid_strategies(prior: Belief, grid: GridSpec) -> list[Experiment]:
    """Every Bayes-plausible experiment with grid-belief support and
    grid-resolution masses, in deterministic lexicographic order, each
    (support, mass split) tested in integers: sum c*k = prior_l*r*R in
    every state l."""
    if enumeration_bound(prior.n_states, grid) > grid.cap:
        raise EnumerationTooLarge(
            f"grid enumeration bound exceeds cap {grid.cap}"
        )
    big_r = grid.belief_resolution
    r = grid.mass_resolution
    scaled = [p * r * big_r for p in prior.probs]
    if any(t.denominator != 1 for t in scaled):
        return []
    targets = [t.numerator for t in scaled]
    beliefs = [
        (ray_belief(k), k) for k in grid_counts(prior.n_states, big_r, grid.cap)
    ]
    out = []
    for size in range(1, grid.max_support + 1):
        for support in itertools.combinations(beliefs, size):
            for split in _mass_splits(r, size):
                if any(
                    sum(c * k[l] for c, (_, k) in zip(split, support)) != t
                    for l, t in enumerate(targets)
                ):
                    continue
                out.append(
                    Experiment(
                        prior,
                        tuple(
                            (b, Fraction(c, r))
                            for c, (b, _) in zip(split, support)
                        ),
                    )
                )
    return out


def support_masks(e: Experiment) -> tuple[int, ...]:
    """Each atom's support as a bitmask over the states."""
    return tuple(
        sum(1 << l for l, p in enumerate(b.probs) if p) for b, _ in e.atoms
    )


def grid_beliefs(
    n_states: int, resolution: int, cap: Optional[int] = None
) -> list[Belief]:
    """All beliefs with coordinates that are multiples of 1/resolution, in
    lexicographic order of the probability tuples (see ``grid_counts``)."""
    return [ray_belief(k) for k in grid_counts(n_states, resolution, cap)]


def expected_utility(g: GamePayoffs, profile: StrategyProfile, i: int) -> Fraction:
    """Ex-ante expected payoff of sender i: the utility integrated against
    the posterior distribution induced by all senders jointly."""
    joint = product(profile)
    u = g.utilities[i]
    return sum((m * u(b) for b, m in joint.atoms), Fraction(0))


def max_total_surplus(g: GamePayoffs) -> Fraction:
    """The exact sup over the simplex of the pooled sum of utilities.

    On each cell of the overlay of the senders' first-match regions the sum
    is one affine form, whose sup over the cell is attained at a vertex of
    the cell's closure.
    """
    return max(
        form(v)
        for cell, form in overlay_regions(g.utilities)
        for v in closure_vertices(g.n_states, cell)
    )


def best_action(ag: ActionGame, b: Belief) -> int:
    """Index of the receiver's expected-payoff-maximizing action at belief
    b, lowest index first on ties."""
    best = None
    best_value = None
    for a in range(ag.n_actions):
        value = sum(
            (c * p for c, p in zip(ag.receiver[a], b.probs)), Fraction(0)
        )
        if best_value is None or value > best_value:
            best, best_value = a, value
    return best


def induced_payoff(ag: ActionGame, i: int, b: Belief) -> Fraction:
    """Sender i's expected payoff at belief b given the receiver's choice."""
    a = best_action(ag, b)
    return sum((c * p for c, p in zip(ag.senders[i][a], b.probs)), Fraction(0))


@dataclass(frozen=True)
class ActionClassification:
    """vertex_actions[l] is the receiver's action under certainty of state
    l.  Full revelation in every equilibrium of the induced persuasion game
    is equivalent to those actions being pairwise distinct; a repeated pair
    supports a non-revealing equilibrium pooling it."""

    vertex_actions: tuple[int, ...]
    full_revelation: bool
    counterexample: Optional[tuple[int, int]]


def classify_action_game(ag: ActionGame) -> ActionClassification:
    n = ag.n_states
    vertex_actions = tuple(best_action(ag, degenerate(n, l)) for l in range(n))
    pair = None
    for l in range(n):
        for k in range(l + 1, n):
            if vertex_actions[l] == vertex_actions[k]:
                pair = (l, k)
                break
        if pair:
            break
    return ActionClassification(vertex_actions, pair is None, pair)


@dataclass(frozen=True)
class FirstBestResult:
    """ok means every realized posterior leads the receiver to the same
    action they would take knowing any state in the posterior's support."""

    ok: bool
    posterior: Optional[Belief] = None
    state: Optional[int] = None


def first_best_check(ag: ActionGame, profile: StrategyProfile) -> FirstBestResult:
    """Does the receiver always end up taking their full-information action?

    True for equilibrium profiles of the induced game; pooling states with
    different best actions is the canonical failure."""
    n = ag.n_states
    vertex_actions = tuple(best_action(ag, degenerate(n, l)) for l in range(n))
    joint = product(profile.experiments)
    for b, _ in joint.atoms:
        a = best_action(ag, b)
        for l in sorted(b.support):
            if a != vertex_actions[l]:
                return FirstBestResult(False, b, l)
    return FirstBestResult(True)


class ZeroProbabilityEvent(ArithmeticError):
    """Conditioning on a signal tuple with zero joint likelihood."""


@dataclass(frozen=True)
class SignalStructure:
    """Per-state signal distributions: table[state][signal] = probability."""

    signals: tuple[str, ...]
    table: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for l, row in enumerate(self.table):
            if len(row) != len(self.signals):
                raise ValueError("table row length differs from signal count")
            if any(p < 0 for p in row):
                raise ValueError("signal probabilities must be >= 0")
            if sum(row) != 1:
                raise ValueError(f"state {l} signal probabilities do not sum to 1")


def to_signal_structure(e: Experiment) -> SignalStructure:
    """Raw signal table with one signal per atom:
    Pr(s_x | w=l) = mass(x) * x_l / prior_l."""
    n = e.n_states
    signals = tuple(f"s{j}" for j in range(len(e.atoms)))
    table = tuple(
        tuple(m * b[l] / e.prior[l] for b, m in e.atoms) for l in range(n)
    )
    return SignalStructure(signals, table)


def raw_posterior(
    structures: Sequence[SignalStructure],
    realized: Sequence[Union[int, str]],
    prior: Belief,
) -> Belief:
    """Posterior by direct Bayes' rule on signal tables:
    Pr(state l | signals) proportional to prior_l * prod_i Pr(s_i | l)."""
    n = prior.n_states
    indices = []
    for structure, s in zip(structures, realized):
        if isinstance(s, str):
            s = structure.signals.index(s)
        indices.append(s)
    weights = []
    for l in range(n):
        w = prior[l]
        for structure, s in zip(structures, indices):
            w *= structure.table[l][s]
        weights.append(w)
    total = sum(weights)
    if total == 0:
        raise ZeroProbabilityEvent("signal tuple has zero joint likelihood")
    return Belief(tuple(w / total for w in weights))
