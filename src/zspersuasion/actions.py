"""Finite receiver-action microfoundation.

A receiver picks one of finitely many actions after seeing the posterior,
breaking ties toward the lowest-index action.  Senders' induced utilities
over posteriors are then piecewise affine, with one piece per action, and
plug directly into the rest of the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .affine import AffineForm, Constraint
from .beliefs import as_fraction
from .exceptions import InvariantViolation
from .utilities import GamePayoffs, Piece, PiecewiseAffineUtility


@dataclass(frozen=True)
class ActionGame:
    """Finite action set with rational payoff tables.

    ``receiver[a][l]`` and ``senders[i][a][l]`` give the payoff of action
    ``a`` in state ``l``.  Sender payoffs must sum to zero at every (a, l);
    to keep best-action regions well behaved, no agent may be indifferent
    between two actions at any single state.
    """

    actions: tuple[str, ...]
    receiver: tuple[tuple[Fraction, ...], ...]
    senders: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        receiver = tuple(
            tuple(as_fraction(v) for v in row) for row in self.receiver
        )
        senders = tuple(
            tuple(tuple(as_fraction(v) for v in row) for row in table)
            for table in self.senders
        )
        object.__setattr__(self, "receiver", receiver)
        object.__setattr__(self, "senders", senders)
        a = len(self.actions)
        if a == 0 or len(receiver) != a:
            raise ValueError("need one receiver row per action")
        n = len(receiver[0])
        if any(len(row) != n for row in receiver):
            raise ValueError("receiver rows must share one state count")
        if not senders:
            raise ValueError("need at least one sender table")
        for i, table in enumerate(senders):
            if len(table) != a or any(len(row) != n for row in table):
                raise ValueError(f"sender {i} table shape mismatch")
        for l in range(n):
            for b in range(a):
                total = sum((t[b][l] for t in senders), Fraction(0))
                if total != 0:
                    raise InvariantViolation(
                        f"sender payoffs sum to {total} at action {b}, state {l}"
                    )
        for l in range(n):
            for b in range(a):
                for c in range(b + 1, a):
                    if receiver[b][l] == receiver[c][l]:
                        raise InvariantViolation(
                            f"receiver indifferent between actions {b} and "
                            f"{c} at state {l}"
                        )
                    for i, t in enumerate(senders):
                        if t[b][l] == t[c][l]:
                            raise InvariantViolation(
                                f"sender {i} indifferent between actions "
                                f"{b} and {c} at state {l}"
                            )

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_states(self) -> int:
        return len(self.receiver[0])

    @property
    def n_senders(self) -> int:
        return len(self.senders)


def _argmax_guards(ag: ActionGame) -> tuple[tuple[Constraint, ...], ...]:
    """Per action a, the guard "a is weakly best for the receiver": one
    constraint (R_c - R_a) . beta <= 0 for each other action c.  It depends
    on the receiver alone, so the senders' induced utilities can share it."""
    n = ag.n_states
    zero = Fraction(0)
    return tuple(
        tuple(
            Constraint(
                AffineForm(
                    zero,
                    tuple(ag.receiver[c][l] - ag.receiver[a][l] for l in range(n)),
                ),
                "<=",
            )
            for c in range(ag.n_actions)
            if c != a
        )
        for a in range(ag.n_actions)
    )


def _induced(
    guards: tuple[tuple[Constraint, ...], ...],
    table: tuple[tuple[Fraction, ...], ...],
) -> PiecewiseAffineUtility:
    zero = Fraction(0)
    return PiecewiseAffineUtility(
        tuple(Piece(g, AffineForm(zero, row)) for g, row in zip(guards, table))
    )


def induced_game(ag: ActionGame) -> GamePayoffs:
    """All senders' induced utilities; zero-sum by construction but not yet
    normalized (vertex values are raw table entries).  Each has one piece
    per action, guarded by that action being weakly best, in action order,
    so first-match evaluation reproduces the lowest-index tie-break
    exactly.  The guards are built once, and every sender's utility holds
    the same guard objects."""
    guards = _argmax_guards(ag)
    return GamePayoffs(tuple(_induced(guards, table) for table in ag.senders))
