"""Constructing, exploiting, and verifying equilibria.

Builds the trivial fully revealing equilibrium and the pooling equilibrium
that exists when every sender's utility vanishes on a face; synthesizes
exactly verified profitable deviations against profiles that pool a face
where someone has an advantage; and decides whether a profile is an
equilibrium.

One search finds every deviation (``_positive_point``): a sender's
conditional payoff against a joint experiment is linear on each cell of its
``utilities.Pullback``, so one emptiness test per cell finds an interim
belief on a face that pays, or proves that none does.  An exploit searches
the pooled face itself against the profile's joint, an edge as any larger
face, and recomputes the payoff of the point found exactly.

``verify_profile`` pulls each sender back against its opponents once and
reads every payoff off that pullback: the sender's expected payoff is the
mean of its conditional payoff over its own experiment's atoms
(``Pullback.expected``), so the joint of every sender is never built.  It
searches the whole simplex on the same pullbacks, after a screen of every
grid belief by the sign of one integer per sender and belief; a
``Fraction`` is built only for the expected payoffs and the gain of the
deviation it reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .affine import AffineForm, Constraint
from .beliefs import Belief, degenerate, ray, ray_belief, state_set
from .exceptions import InvariantViolation, NotPoolable, PreconditionFailed
from .experiments import (
    Experiment,
    StrategyProfile,
    fully_revealing,
    product,
)
from .geometry import strictly_feasible_point, subsimplex_constraints
from .analysis import _require_normalized, is_zero_on_subsimplex
from .oracle import grid_counts
from .utilities import (
    GamePayoffs,
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
    x_bar: Belief
    epsilon: Fraction
    deviation: Experiment
    payoff: Fraction


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


def synthesize_exploit(
    g: GamePayoffs,
    profile: StrategyProfile,
    omega: Sequence[int],
) -> ExploitCertificate:
    """A verified profitable deviation against a profile that pools omega.

    ``_positive_point`` searches the face over omega exactly for an interim
    belief that pays some sender.  Every posterior of a belief on the face
    stays on it, so where no sender is positive on the face none is found.
    The certificate's payoff is recomputed from scratch with the deviation
    played on top of the full original profile; a mismatch is an
    InvariantViolation.

    Raw payoffs are NotNormalized, before anything else.  A utility that
    leaves part of the simplex uncovered is NoPieceMatches, wherever the
    gap lies, and a search that reaches more than ``geometry.SWEEP_CAP``
    cells of a pullback on the face is EnumerationTooLarge.  A profile that does not pool
    omega, or with no interim belief on its face that pays any sender, is
    PreconditionFailed; a profile without one experiment per sender is a
    ValueError.
    """
    _require_normalized(g.utilities)
    _require_one_experiment_per_sender(g, profile)
    joint = product(profile.experiments)
    omega = state_set(omega, g.n_states)
    if not any(set(omega) <= b.support for b, _ in joint.atoms):
        raise PreconditionFailed(f"profile does not pool {omega}")
    for u in g.utilities:
        u.first_match_cells()  # coverage: a gap raises NoPieceMatches
    found = _positive_point(
        ((i, Pullback(u, joint)) for i, u in enumerate(g.utilities)), omega
    )
    if found is None:
        raise PreconditionFailed(
            f"no sender gains by adding mass at any interim belief on the "
            f"face over {omega}: no sender's conditional payoff is positive "
            f"there"
        )
    sender, x_bar = found
    u = g.utilities[sender]
    w = conditional_payoff_against(u, joint, x_bar)
    if w <= 0:
        raise InvariantViolation(
            f"sender {sender} earns nothing at {x_bar}, a point of a cell "
            f"where its conditional payoff is positive"
        )
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
    return ExploitCertificate(sender, omega, x_bar, eps, deviation, payoff)


def _positive_point(
    pullbacks: Iterable[tuple[int, Pullback]], states: Sequence[int]
) -> Optional[tuple[int, Belief]]:
    """The first sender, in order, whose pullback is positive at an interim
    belief on the face over ``states``, and the belief; None when there is
    none.  The payoff's numerator is k . G on each cell of
    ``Pullback.cells`` from the face, so a cell holds such a belief exactly
    when it has a point with G . x > 0: one emptiness test per cell, none
    where G is nowhere positive on the face.  ``pullbacks`` may be lazy;
    the search stops at the first sender it finds."""
    for sender, p in pullbacks:
        face = tuple(subsimplex_constraints(p.n, states))
        for cell, row in p.cells(face):
            if all(row[l] <= 0 for l in states):
                continue
            gain = Constraint(AffineForm.of_row(1, row, 0), ">")
            point = strictly_feasible_point(p.n, cell + (gain,))
            if point is not None:
                return sender, Belief(point)
    return None


# ---------------------------------------------------------------------------
# Profile verification


@dataclass(frozen=True)
class VerificationResult:
    """ok means the profile is an equilibrium: every sender's expected
    payoff is exactly zero and no interim belief gives any sender a positive
    conditional payoff against the others.  Otherwise sender, deviation and
    gain name one profitable deviation.  expected_utilities holds every
    sender's ex-ante payoff under the profile."""

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
    """Decides whether a profile of normalized payoffs is an equilibrium.

    A sender with a negative expected payoff gains by revealing everything.
    With every payoff zero, a sender gains exactly when some interim belief
    gives it a positive conditional payoff against the joint of the others:
    mass at that belief and the rest on the states pays it that payoff times
    the mass.  Each sender's conditional payoff is pulled back once
    (``utilities.Pullback``), up front, and every payoff is read off that
    pullback: the expected payoff (``Pullback.expected``), the sign at
    every grid belief, screened first by one integer per sender, and, when
    no grid belief pays, ``_positive_point``'s search of the whole simplex
    on the pullback's cells.  Only senders that earn 0 and whose pullback
    is not zero are screened and searched, and the grid counts are
    generated one at a time, none when no sender is screened.

    Raw payoffs are NotNormalized, before anything else.  The grid is checked
    (resolution >= 1, size under the enumeration cap) and the profile must
    have one experiment per sender (ValueError).  A sender with a positive
    expected payoff is not searched, since a deviation's payoff is then not
    its gain; in a zero-sum game another sender is negative, and is
    reported first.  Otherwise the senders that earn 0 are searched, and
    when none of them has a deviation, a sender that earns is
    PreconditionFailed.  A search that reaches more than
    ``geometry.SWEEP_CAP`` cells of a pullback is EnumerationTooLarge.
    """
    _require_normalized(g.utilities)
    grid = grid_counts(g.n_states, deviation_grid)
    _require_one_experiment_per_sender(g, profile)
    prior = profile.prior
    pullbacks = [
        Pullback(u, profile.opponents(i)) for i, u in enumerate(g.utilities)
    ]
    expected = tuple(
        p.expected(e) for p, e in zip(pullbacks, profile.experiments)
    )
    for i, ui in enumerate(expected):
        if ui < 0:
            # revealing everything gets this sender back to zero
            return VerificationResult(
                False, expected, i, fully_revealing(prior), -ui
            )
    screened = [
        (i, p) for i, p in enumerate(pullbacks)
        if expected[i] == 0 and not p.is_zero
    ]
    on_grid = (
        (i, ray_belief(k))
        for k in (grid if screened else ())
        if deviation_grid not in k  # degenerate
        for i, p in screened
        if p.numerator(k) > 0
    )
    found = next(on_grid, None) or _positive_point(screened, range(g.n_states))
    if found is None:
        for i, ui in enumerate(expected):
            if ui > 0:
                raise PreconditionFailed(
                    f"sender {i} already earns {ui}, and no sender that "
                    f"earns 0 has a deviation; verify decides a deviation's "
                    f"gain only for a sender that earns 0"
                )
        return VerificationResult(True, expected)
    i, x = found
    eps = _epsilon_for(prior, x)
    return VerificationResult(
        False,
        expected,
        i,
        _deviation_experiment(prior, x, eps),
        eps * pullbacks[i].payoff(ray(x)),
    )
