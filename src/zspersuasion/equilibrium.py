"""Constructing, exploiting, and verifying equilibria.

Builds the trivial fully revealing equilibrium and the pooling equilibrium
that exists when every sender's utility vanishes on a face; synthesizes
exactly verified profitable deviations against profiles that pool a face
where someone has an advantage; and screens candidate profiles for the
equilibrium conditions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .affine import AffineForm, Constraint
from .beliefs import Belief, degenerate, state_set
from .exceptions import (
    InvariantViolation,
    NotPoolable,
    PreconditionFailed,
    SearchBudgetExceeded,
)
from .experiments import (
    Experiment,
    StrategyProfile,
    fully_revealing,
    product,
)
from .geometry import (
    cell_is_nonempty,
    closure_vertices,
    strictly_feasible_point,
    subsimplex_constraints,
)
from .analysis import (
    _require_normalized,
    _zero_on_face,
    detect_pooled_sets,
    is_zero_on_subsimplex,
)
from .oracle import grid_beliefs
from .utilities import (
    EdgeFunction,
    GamePayoffs,
    conditional_payoff_against,
    edge_restriction,
    memoized,
)

DEFAULT_SEARCH_BUDGET = 64
DEFAULT_VERIFY_GRID = 8


def construct_fully_revealing(prior: Belief, n_senders: int) -> StrategyProfile:
    """All senders reveal the state outright; always an equilibrium."""
    if n_senders < 1:
        raise ValueError("need at least one sender")
    e = fully_revealing(prior)
    return StrategyProfile(tuple(e for _ in range(n_senders)))


def construct_pooling_equilibrium(
    g: GamePayoffs, prior: Belief, omega: Sequence[int]
) -> StrategyProfile:
    """A non-revealing equilibrium that keeps the states in omega pooled.

    Every sender reveals whether the state is in omega and nothing more:
    each state outside omega is announced outright, and all of omega
    collapses to the single conditional belief.  Valid only when no sender's
    normalized utility distinguishes beliefs inside the omega face.
    """
    n = g.n_states
    omega = state_set(omega, n)
    for i, u in enumerate(g.utilities):
        check = is_zero_on_subsimplex(u, omega)
        if not check.zero:
            raise NotPoolable(
                f"sender {i} has nonzero utility on the face over {omega}"
            )
    pooled_mass = sum((prior[l] for l in omega), Fraction(0))
    pooled = Belief(
        tuple(
            prior[l] / pooled_mass if l in omega else Fraction(0)
            for l in range(n)
        )
    )
    atoms = [(degenerate(n, l), prior[l]) for l in range(n) if l not in omega]
    atoms.append((pooled, pooled_mass))
    e = Experiment(prior, tuple(atoms))
    return StrategyProfile(tuple(e for _ in range(g.n_senders)))


# ---------------------------------------------------------------------------
# Exploit synthesis


@dataclass(frozen=True)
class ExploitCertificate:
    """A profitable deviation for one sender against a pooling profile.

    The deviation experiment puts mass epsilon on the exploited interim
    belief and the rest on degenerate beliefs; played in addition to (and
    conditionally independently of) the sender's prescribed experiment, it
    earns exactly ``payoff`` = epsilon * (conditional payoff at x_bar
    against the joint of the whole original profile), which is > 0.
    """

    sender: int
    omega: tuple[int, ...]
    theta: tuple[int, ...]
    x_bar: Belief
    epsilon: Fraction
    deviation: Experiment
    payoff: Fraction


def _positive_sup(f: EdgeFunction) -> Optional[Fraction]:
    """sup of {t : f(t) > 0}, or None when f is never positive."""
    candidates = [t for t, v in zip(f.breakpoints, f.point_values) if v > 0]
    for (c, s), a, b in zip(f.interval_forms, f.breakpoints, f.breakpoints[1:]):
        va, vb = c + s * a, c + s * b
        if vb > 0:
            candidates.append(b)
        elif va > 0:
            candidates.append(-c / s)  # root; positive on (a, root)
    return max(candidates) if candidates else None


def _positive_run_before(f: EdgeFunction, s: Fraction) -> Optional[Fraction]:
    """Some a < s with f > 0 on the whole open interval (a, s), or None."""
    j = max(i for i, t in enumerate(f.breakpoints) if t < s)
    a, b = f.breakpoints[j], f.breakpoints[j + 1]
    c, sl = f.interval_forms[j]
    left, at_s = c + sl * a, c + sl * s
    if at_s > 0:
        return a if left > 0 else -c / sl
    if at_s == 0 and sl < 0:
        return a  # strictly positive just left of s
    return None


def _epsilon_for(prior: Belief, x_bar: Belief) -> Fraction:
    bounds = [Fraction(1)]
    for l in range(prior.n_states):
        if x_bar[l] > 0:
            bounds.append(prior[l] / x_bar[l])
    return min(bounds) / 2


def _deviation_experiment(prior: Belief, x_bar: Belief, eps: Fraction) -> Experiment:
    n = prior.n_states
    atoms = [(x_bar, eps)]
    for l in range(n):
        atoms.append((degenerate(n, l), prior[l] - x_bar[l] * eps))
    return Experiment(prior, tuple(atoms))


def _minimal_theta(g: GamePayoffs, omega: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """Smallest (then lexicographically first) subset of omega on whose face
    some sender's normalized utility is nonzero."""
    _require_normalized(g.utilities)
    for size in range(2, len(omega) + 1):
        for theta in itertools.combinations(omega, size):
            if any(not _zero_on_face(u, theta).zero for u in g.utilities):
                return theta
    return None


def _positive_cells(g: GamePayoffs, theta: tuple[int, ...]):
    """Cells of {some u_i > 0} restricted to the theta face, with the
    advantaged sender and a point of the cell; strict cells, each
    nonempty."""
    n = g.n_states
    face = tuple(subsimplex_constraints(n, theta))
    out = []
    for i, u in enumerate(g.utilities):
        for cell, form in u.regions():
            strict = cell + (Constraint(-form, "<"),) + face  # form > 0
            point = strictly_feasible_point(n, strict)
            if point is not None:
                out.append((i, strict, point))
    return out


def _lexicographic_target(
    n: int, cells: list[tuple[Constraint, ...]], states: tuple[int, ...]
) -> tuple[list[Fraction], Belief]:
    """Lexicographic successive-ratio maxima over a union of closed cells
    whose points all have full support on ``states``.

    Maximizes the ratio of mass on states[k] to mass on later states, level
    by level from the bottom pair upward; each level's maximizer set is cut
    out by one more linear equality, and the final set is a single belief.
    """
    kk = len(states)
    current = [c for c in cells]
    targets: list[Optional[Fraction]] = [None] * (kk - 1)
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
        assert best is not None
        targets[k] = best
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
    return [t for t in targets], Belief(next(iter(points)))  # type: ignore[misc]


def _solve_x_star(
    prior: Belief,
    z_atoms: list[Belief],
    states: tuple[int, ...],
    targets: list[Fraction],
) -> tuple[Belief, list[Belief]]:
    """The interim belief on the ``states`` face whose induced posteriors
    hit the lexicographic ratio targets, built level by level.

    Mixing in mass on an earlier state leaves all later-level posterior
    ratios unchanged, so each level is a one-parameter exact solve against
    the surviving minimizer atoms.  Returns (x*, final minimizer atoms).
    """
    n = prior.n_states
    kk = len(states)

    def d(y: Belief, k: int) -> Fraction:
        return y[states[k]] / prior[states[k]]

    # base: the edge over the last two states
    base = [d(y, kk - 2) / d(y, kk - 1) for y in z_atoms]
    c_min = min(base)
    minimizers = [y for y, c in zip(z_atoms, base) if c == c_min]
    rho = targets[kk - 2] / c_min  # x ratio on (states[-2], states[-1])
    x = [Fraction(0)] * n
    x[states[kk - 1]] = 1 / (1 + rho)
    x[states[kk - 2]] = rho / (1 + rho)
    for k in range(kk - 3, -1, -1):
        # posterior tail mass rate for each surviving minimizer
        rates = []
        for y in minimizers:
            tail = sum(
                (x[states[m]] * d(y, m) for m in range(k + 1, kk)), Fraction(0)
            )
            rates.append(d(y, k) / tail)
        r_min = min(rates)
        minimizers = [y for y, r in zip(minimizers, rates) if r == r_min]
        mu = targets[k] / r_min  # = lam / (1 - lam)
        lam = mu / (1 + mu)
        for m in range(n):
            x[m] *= 1 - lam
        x[states[k]] = lam
    return Belief(tuple(x)), minimizers


def _solve_x_from_posterior(
    prior: Belief, target: Belief, y: Belief
) -> Belief:
    """The interim belief x with posterior(x, y) == target; requires y to be
    positive wherever target is."""
    n = prior.n_states
    weights = []
    for l in range(n):
        if target[l] == 0:
            weights.append(Fraction(0))
        else:
            weights.append(target[l] * prior[l] / y[l])
    total = sum(weights)
    return Belief(tuple(w / total for w in weights))


def _finish_certificate(
    g: GamePayoffs,
    profile: StrategyProfile,
    omega: tuple[int, ...],
    theta: tuple[int, ...],
    sender: int,
    x_bar: Belief,
    payoff_w: Fraction,
) -> ExploitCertificate:
    prior = profile.prior
    eps = _epsilon_for(prior, x_bar)
    deviation = _deviation_experiment(prior, x_bar, eps)
    payoff = eps * payoff_w
    # soundness: recompute from scratch with the deviation played on top of
    # the full original profile
    extended = product(profile.experiments + (deviation,))
    u = g.utilities[sender]
    recomputed = sum((m * u(b) for b, m in extended.atoms), Fraction(0))
    if recomputed != payoff or payoff <= 0:
        raise InvariantViolation(
            f"certificate payoff {payoff} failed recomputation ({recomputed})"
        )
    return ExploitCertificate(
        sender, omega, theta, x_bar, eps, deviation, payoff
    )


def synthesize_exploit(
    g: GamePayoffs,
    profile: StrategyProfile,
    omega: Sequence[int],
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> ExploitCertificate:
    """A verified profitable deviation against a profile that pools omega.

    Reduces omega to a minimal advantaged subset, targets the exploitable
    posterior exactly (the edge construction when the subset is a pair, the
    lexicographic ratio construction above that), and falls back to a
    geometrically shrinking perturbation search when the target sits on the
    advantage set's boundary.  Every certificate is exactly verified; if
    the perturbation budget runs out, raises SearchBudgetExceeded instead
    of returning an unverified result.
    """
    return _exploit(g, profile, product(profile.experiments), omega, budget)


def _exploit(
    g: GamePayoffs,
    profile: StrategyProfile,
    joint: Experiment,
    omega: Sequence[int],
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> ExploitCertificate:
    """synthesize_exploit against the profile's joint experiment ``joint``."""
    omega = state_set(omega, g.n_states)
    if not any(set(omega) <= b.support for b, _ in joint.atoms):
        raise PreconditionFailed(f"profile does not pool {omega}")
    theta = _minimal_theta(g, omega)
    if theta is None:
        raise PreconditionFailed(
            f"every sender's utility vanishes on the face over {omega}"
        )
    z_atoms = [b for b, _ in joint.atoms if set(theta) <= b.support]

    if len(theta) == 2:
        cert = _binary_exploit(g, profile, joint, omega, theta, z_atoms)
        if cert is not None:
            return cert
        raise SearchBudgetExceeded(
            f"edge exploit on {theta} failed exact verification"
        )
    return _general_exploit(
        g, profile, joint, omega, theta, z_atoms, budget
    )


def _binary_exploit(
    g: GamePayoffs,
    profile: StrategyProfile,
    joint: Experiment,
    omega: tuple[int, ...],
    theta: tuple[int, ...],
    z_atoms: list[Belief],
) -> Optional[ExploitCertificate]:
    n = g.n_states
    prior = profile.prior
    l, k = theta
    fns = [edge_restriction(u, l, k) for u in g.utilities]
    sups = [_positive_sup(f) for f in fns]
    r_prime = max(s for s in sups if s is not None)
    sender = None
    r = None
    if r_prime == 1:
        for i, (f, s) in enumerate(zip(fns, sups)):
            if s == 1:
                a = _positive_run_before(f, Fraction(1))
                if a is not None:
                    # positive on (a, 1); include a itself when possible
                    sender, r = i, (a if f(a) > 0 else (a + 1) / 2)
                    break
    else:
        for i, f in enumerate(fns):
            if f(r_prime) > 0:
                sender, r = i, r_prime
                break
        if sender is None:
            for i, (f, s) in enumerate(zip(fns, sups)):
                if s == r_prime:
                    a = _positive_run_before(f, r_prime)
                    if a is not None:
                        sender, r = i, (
                            a if f(a) > 0 else (a + r_prime) / 2
                        )
                        break
    if sender is None:
        return None
    # aim the lowest induced posterior on the edge exactly at r
    c_min = min(y[k] * prior[l] / (y[l] * prior[k]) for y in z_atoms)
    odds = (r / (1 - r)) / c_min
    s = odds / (1 + odds)
    probs = [Fraction(0)] * n
    probs[l], probs[k] = 1 - s, s
    x_bar = Belief(tuple(probs))
    w = conditional_payoff_against(g.utilities[sender], joint, x_bar)
    if w <= 0:
        return None
    return _finish_certificate(
        g, profile, omega, theta, sender, x_bar, w
    )


def _general_exploit(
    g: GamePayoffs,
    profile: StrategyProfile,
    joint: Experiment,
    omega: tuple[int, ...],
    theta: tuple[int, ...],
    z_atoms: list[Belief],
    budget: int,
) -> ExploitCertificate:
    n = g.n_states
    prior = profile.prior
    face = tuple(subsimplex_constraints(n, theta))
    pos_cells = _positive_cells(g, theta)
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
        x_star = beta_bar
        minimizers = list(z_atoms)
    else:
        carrier_face = tuple(subsimplex_constraints(n, carrier))
        cells = [
            cell + carrier_face
            for cell in closed_cells
            if cell_is_nonempty(n, cell + carrier_face)
        ]
        targets, beta_bar = _lexicographic_target(n, cells, carrier)
        x_star, minimizers = _solve_x_star(prior, z_atoms, carrier, targets)

    def attempt(sender: int, x_bar: Belief) -> Optional[ExploitCertificate]:
        w = conditional_payoff_against(g.utilities[sender], joint, x_bar)
        if w <= 0:
            return None
        return _finish_certificate(
            g, profile, omega, theta, sender, x_bar, w
        )

    # direct hit: the target posterior itself is strictly advantaged
    if carrier == theta:
        for i, u in enumerate(g.utilities):
            if u(beta_bar) > 0:
                cert = attempt(i, x_star)
                if cert is not None:
                    return cert
                break

    # boundary target: slide toward a strictly advantaged interior point
    # with geometrically shrinking steps, verifying each candidate exactly.
    # cells whose closure contains the target give candidates that stay
    # strictly advantaged for every step size.
    preferred = [
        pc
        for pc, closed in zip(pos_cells, closed_cells)
        if all(c.holds(beta_bar) for c in closed)
    ]
    ordered = preferred + [pc for pc in pos_cells if pc not in preferred]
    y_ref = minimizers[0]
    spent = 0
    interior = Belief(
        tuple(
            Fraction(1, len(theta)) if m in theta else Fraction(0)
            for m in range(n)
        )
    )
    for t in range(1, budget + 1):
        step = Fraction(1, 2**t)
        for _, _, w_pt in ordered:
            if spent >= budget:
                break
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
            if sender is None:
                continue
            x_bar = _solve_x_from_posterior(prior, beta_prime, y_ref)
            spent += 1
            cert = attempt(sender, x_bar)
            if cert is not None:
                return cert
        # alternate family: pull the interim belief itself off the face
        if spent < budget:
            x_mix = Belief(
                tuple(
                    (1 - step) * a + step * b
                    for a, b in zip(x_star.probs, interior.probs)
                )
            )
            for sender in range(g.n_senders):
                if spent >= budget:
                    break
                spent += 1
                cert = attempt(sender, x_mix)
                if cert is not None:
                    return cert
        if spent >= budget:
            break
    raise SearchBudgetExceeded(
        f"no verified exploit within {budget} candidates for {theta}"
    )


# ---------------------------------------------------------------------------
# Profile verification


@dataclass(frozen=True)
class VerificationResult:
    """ok means no violation was found at the requested scrutiny: expected
    payoffs are exactly zero, conditional payoffs are nonpositive on the
    whole deviation grid, and every maximal pooled face survived exploit
    synthesis.  expected_utilities holds every sender's ex-ante payoff under
    the profile."""

    ok: bool
    expected_utilities: tuple[Fraction, ...]
    sender: Optional[int] = None
    deviation: Optional[Experiment] = None
    gain: Optional[Fraction] = None


def verify_profile(
    g: GamePayoffs,
    profile: StrategyProfile,
    deviation_grid: int = DEFAULT_VERIFY_GRID,
) -> VerificationResult:
    """Screens a profile for the two equilibrium conditions: every sender's
    expected payoff is zero, and no sender gains by conditionally adding
    mass at any belief — checked at every grid belief and at the exploited
    belief of every maximal pooled face.

    A passing profile "looks like" an equilibrium at this scrutiny; a
    failing one comes back with a concrete profitable deviation.  Each
    sender's opponents' joint experiment is built once, and each sender's
    utility is evaluated once per distinct posterior.
    """
    n = g.n_states
    prior = profile.prior
    values = [memoized(u) for u in g.utilities]
    joint = product(profile)
    expected = tuple(
        sum((m * v(b) for b, m in joint.atoms), Fraction(0)) for v in values
    )
    for i, ui in enumerate(expected):
        if ui < 0:
            # revealing everything gets this sender back to zero
            return VerificationResult(
                False, expected, i, fully_revealing(prior), -ui
            )
    opponents = [
        product(others) if others else None
        for others in map(profile.without, range(g.n_senders))
    ]
    for x in grid_beliefs(n, deviation_grid):
        if x.is_degenerate():
            continue
        for i, (v, others) in enumerate(zip(values, opponents)):
            if others is None:
                w = v(x)
            else:
                w = conditional_payoff_against(v, others, x)
            if w > 0:
                eps = _epsilon_for(prior, x)
                return VerificationResult(
                    False,
                    expected,
                    i,
                    _deviation_experiment(prior, x, eps),
                    eps * w,
                )
    for pooled in detect_pooled_sets(joint).maximal:
        if _minimal_theta(g, pooled) is None:
            continue
        cert = _exploit(g, profile, joint, pooled)
        return VerificationResult(
            False, expected, cert.sender, cert.deviation, cert.payoff
        )
    return VerificationResult(True, expected)
