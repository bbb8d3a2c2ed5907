"""Constructing, exploiting, and verifying equilibria.

Builds the trivial fully revealing equilibrium and the pooling equilibrium
that exists when every sender's utility vanishes on a face; synthesizes
exactly verified profitable deviations against profiles that pool a face
where someone has an advantage; and screens candidate profiles for the
equilibrium conditions.

An exploit against a profile that pools an edge aims one interim belief so
that the lowest pooled atom's posterior lands at the end of a positive run
on the edge (``_aim``).  On a larger face, or when that candidate earns
nothing, the search is exact: the sender's conditional payoff against the
profile's joint is linear on each cell of its ``utilities.Pullback``, so one
emptiness test per cell finds an interim belief that pays, or proves that
none on the face does (``_positive_point``).  Every candidate passes one
certify step (``_certify``) that recomputes its payoff exactly.

``verify_profile`` screens every grid belief for a profitable deviation
through each sender's ``utilities.Pullback``: the sign of one integer per
sender and belief, in integers throughout, and a ``Fraction`` only for the
gain of the deviation it reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .affine import AffineForm, Constraint
from .beliefs import Belief, degenerate, ray_belief, state_set
from .exceptions import InvariantViolation, NotPoolable, PreconditionFailed
from .experiments import (
    Experiment,
    StrategyProfile,
    fully_revealing,
    product,
)
from .geometry import strictly_feasible_point, subsimplex_constraints
from .analysis import (
    _edge_belief,
    _require_normalized,
    detect_pooled_sets,
    is_zero_on_subsimplex,
)
from .oracle import grid_counts
from .utilities import (
    EdgeFunction,
    GamePayoffs,
    PiecewiseAffineUtility,
    Pullback,
    conditional_payoff_against,
)

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


def _positive_run_before(f: EdgeFunction, s: Fraction) -> Fraction:
    """Some a < s with f > 0 on the whole open interval (a, s), where f is
    positive just left of s: the breakpoint before s when the form of the
    interval ending at s is positive there, else that form's root."""
    j = max(i for i, t in enumerate(f.breakpoints) if t < s)
    a = f.breakpoints[j]
    c, sl = f.interval_forms[j]
    return a if c + sl * a > 0 else -c / sl


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
    some sender's normalized utility is positive, or None.  In a zero-sum
    game somebody is positive wherever somebody is nonzero."""
    _require_normalized(g.utilities)
    for size in range(2, len(omega) + 1):
        for theta in itertools.combinations(omega, size):
            if any(_positive_on_face(u, theta) for u in g.utilities):
                return theta
    return None


def _positive_on_face(u: PiecewiseAffineUtility, theta: tuple[int, ...]) -> bool:
    """Whether u is positive somewhere on the face over theta: on an edge
    by its exact restriction, else on one of its ``_advantaged`` cells."""
    if len(theta) == 2:
        return _positive_sup(u.on_edge(*theta)) is not None
    return any(_advantaged(u, theta))


def _advantaged(u: PiecewiseAffineUtility, theta: tuple[int, ...]):
    """u's first-match cells cut to u > 0 and to the theta face, each with a
    point; strict cells, each nonempty.  A form positive at no vertex of the
    face is positive nowhere on it and costs no LP."""
    n = u.n_states
    face = tuple(subsimplex_constraints(n, theta))
    for cell, form in u.regions():
        if all(form.const + form.coeffs[l] <= 0 for l in theta):
            continue
        strict = cell + (Constraint(-form, "<"),) + face
        point = strictly_feasible_point(n, strict)
        if point is not None:
            yield strict, point


def _aim(
    prior: Belief,
    z_atoms: list[Belief],
    states: tuple[int, ...],
    target: Belief,
) -> tuple[Belief, list[Belief]]:
    """The interim belief whose posterior against the lowest atoms is
    ``target``, and those atoms in ``z_atoms`` order.

    An atom is lower when its likelihood ratios (y_l/π_l)/(y_last/π_last)
    over ``states`` are lexicographically smaller, compared from the bottom
    pair upward: against it, an interim belief on the ``states`` face moves
    the posterior least toward the earlier states.  The lowest atoms agree
    on every ratio, so x puts each of their posteriors at ``target``, which
    must be supported on ``states``.
    """
    last = states[-1]

    def ratios(y: Belief) -> tuple[Fraction, ...]:
        tail = y[last] / prior[last]
        return tuple(y[l] / prior[l] / tail for l in reversed(states[:-1]))

    keys = [ratios(y) for y in z_atoms]
    low = min(keys)
    lowest = [y for y, key in zip(z_atoms, keys) if key == low]
    return _solve_x_from_posterior(prior, target, lowest[0]), lowest


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


def _certify(
    g: GamePayoffs,
    profile: StrategyProfile,
    joint: Experiment,
    omega: tuple[int, ...],
    theta: tuple[int, ...],
    sender: int,
    x_bar: Belief,
) -> Optional[ExploitCertificate]:
    """The certificate for ``sender`` adding mass at ``x_bar``, or None when
    that earns nothing against ``joint``, the profile's joint experiment.

    The payoff is recomputed from scratch with the deviation played on top
    of the full original profile; a mismatch is an InvariantViolation.
    """
    u = g.utilities[sender]
    w = conditional_payoff_against(u, joint, x_bar)
    if w <= 0:
        return None
    prior = profile.prior
    eps = _epsilon_for(prior, x_bar)
    deviation = _deviation_experiment(prior, x_bar, eps)
    payoff = eps * w
    extended = product(profile.experiments + (deviation,))
    recomputed = sum((m * u(b) for b, m in extended.atoms), Fraction(0))
    if recomputed != payoff:
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
) -> ExploitCertificate:
    """A verified profitable deviation against a profile that pools omega.

    Reduces omega to a minimal advantaged subset theta.  When theta is a
    pair, one interim belief aims the lowest pooled atom's posterior at the
    end of the longest positive run on the edge.  Otherwise, or when that
    candidate earns nothing, ``_positive_point`` searches the theta face
    exactly.  Every certificate is exactly verified.  A profile that does
    not pool omega, or with no sender positive on its face, or with no
    interim belief on the theta face that pays any sender, is
    PreconditionFailed; a profile without one experiment per sender is a
    ValueError.
    """
    _require_one_experiment_per_sender(g, profile)
    joint = product(profile.experiments)
    omega = state_set(omega, g.n_states)
    if not any(set(omega) <= b.support for b, _ in joint.atoms):
        raise PreconditionFailed(f"profile does not pool {omega}")
    theta = _minimal_theta(g, omega)
    if theta is None:
        raise PreconditionFailed(
            f"no sender's utility is positive on the face over {omega}"
        )
    cert = _exploit(g, profile, joint, omega, theta)
    if cert is None:
        raise PreconditionFailed(
            f"no sender gains by adding mass at any interim belief on the "
            f"face over {theta}"
        )
    return cert


def _exploit(
    g: GamePayoffs,
    profile: StrategyProfile,
    joint: Experiment,
    omega: tuple[int, ...],
    theta: tuple[int, ...],
) -> Optional[ExploitCertificate]:
    """The certificate against the profile's joint experiment ``joint``,
    which pools omega, theta being omega's minimal advantaged subset: the
    edge candidate first when theta is a pair, else the exact search's.
    None when no sender earns anything at any interim belief on the theta
    face."""
    if len(theta) == 2:
        z_atoms = [b for b, _ in joint.atoms if set(theta) <= b.support]
        cert = _certify(
            g, profile, joint, omega, theta,
            *_edge_candidate(g, profile.prior, theta, z_atoms),
        )
        if cert is not None:
            return cert
    found = _positive_point(g, joint, theta)
    if found is None:
        return None
    cert = _certify(g, profile, joint, omega, theta, *found)
    if cert is None:
        raise InvariantViolation(
            f"sender {found[0]} earns nothing at {found[1]}, a point of a "
            f"cell where its conditional payoff is positive"
        )
    return cert


def _edge_candidate(
    g: GamePayoffs,
    prior: Belief,
    theta: tuple[int, ...],
    z_atoms: list[Belief],
) -> tuple[int, Belief]:
    """The sender positive furthest toward theta[1] on the edge, and the
    interim belief aiming the lowest posterior at the end of its positive
    run."""
    l, k = theta
    fns = [u.on_edge(l, k) for u in g.utilities]
    sups = [_positive_sup(f) for f in fns]
    r_prime = max(s for s in sups if s is not None)
    sender = next((i for i, f in enumerate(fns) if f(r_prime) > 0), None)
    r = r_prime
    if sender is None:
        # the sup is not attained, so it ends a positive run of the first
        # sender whose sup it is; include the run's start when possible
        sender = sups.index(r_prime)
        f = fns[sender]
        a = _positive_run_before(f, r_prime)
        r = a if f(a) > 0 else (a + r_prime) / 2
    target = _edge_belief(prior.n_states, l, k, r)
    x_bar, _ = _aim(prior, z_atoms, (k, l), target)
    return sender, x_bar


def _positive_point(
    g: GamePayoffs, joint: Experiment, theta: tuple[int, ...]
) -> Optional[tuple[int, Belief]]:
    """The first sender, in order, with an interim belief on the theta face
    where its conditional payoff against ``joint`` is positive, and the
    belief; None when there is none.  The payoff's numerator is k . G on
    each cell of ``Pullback.cells`` from the face, so a cell holds such a
    belief exactly when it has a point with G . x > 0: one emptiness test
    per cell, none where G is nowhere positive on the face."""
    n = g.n_states
    face = tuple(subsimplex_constraints(n, theta))
    for sender, u in enumerate(g.utilities):
        for cell, row in Pullback(u, joint).cells(face):
            if all(row[l] <= 0 for l in theta):
                continue
            gain = Constraint(AffineForm(Fraction(0), row), ">")
            point = strictly_feasible_point(n, cell + (gain,))
            if point is not None:
                return sender, Belief(point)
    return None


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


def _require_one_experiment_per_sender(
    g: GamePayoffs, profile: StrategyProfile
) -> None:
    if profile.n_senders != g.n_senders:
        raise ValueError(
            f"profile has {profile.n_senders} experiments for "
            f"{g.n_senders} senders"
        )


def verify_profile(
    g: GamePayoffs,
    profile: StrategyProfile,
    deviation_grid: int = DEFAULT_VERIFY_GRID,
) -> VerificationResult:
    """Screens a profile for the two equilibrium conditions: every sender's
    expected payoff is zero, and no sender gains by conditionally adding
    mass at any belief — checked at every grid belief, and exactly on the
    face of every maximal pooled set's minimal advantaged subset
    (``_exploit``), which is passed over when no belief there pays.

    A passing profile "looks like" an equilibrium at this scrutiny; a
    failing one comes back with a concrete profitable deviation.  Each
    sender's conditional payoff against the joint of the others is pulled
    back once (``utilities.Pullback``) to integer rows in the grid counts,
    so each grid belief is screened by the sign of one integer per sender,
    and a ``Fraction`` is built only for the gain of the first deviation
    found.  Senders whose pullback is zero are skipped, and the grid counts
    are generated one at a time, none when every pullback is zero.  The
    grid is checked (resolution >= 1, size under the enumeration cap) and
    the profile must have one experiment per sender (ValueError), before
    anything else.
    """
    grid = grid_counts(g.n_states, deviation_grid)
    _require_one_experiment_per_sender(g, profile)
    prior = profile.prior
    joint = product(profile)
    expected = tuple(
        sum((m * u(b) for b, m in joint.atoms), Fraction(0))
        for u in g.utilities
    )
    for i, ui in enumerate(expected):
        if ui < 0:
            # revealing everything gets this sender back to zero
            return VerificationResult(
                False, expected, i, fully_revealing(prior), -ui
            )
    pullbacks = [
        Pullback(u, profile.opponents(i)) for i, u in enumerate(g.utilities)
    ]
    screened = [(i, p) for i, p in enumerate(pullbacks) if not p.is_zero]
    for k in grid if screened else ():
        if deviation_grid in k:  # degenerate
            continue
        for i, p in screened:
            num = p.numerator(k)
            if num > 0:
                x = ray_belief(k)
                eps = _epsilon_for(prior, x)
                return VerificationResult(
                    False,
                    expected,
                    i,
                    _deviation_experiment(prior, x, eps),
                    eps * Fraction(num, p.denominator * deviation_grid),
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
