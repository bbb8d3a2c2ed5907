"""Finite receiver-action microfoundation.

A receiver picks one of finitely many actions after seeing the posterior,
breaking ties toward the lowest-index action.  Senders' induced utilities
over posteriors are then piecewise affine, with one piece per action, and
plug directly into the rest of the library.
"""

from __future__ import annotations

import math
import operator
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
    between two actions at any single state.  Both checks run on the
    tables over their least common denominators, which the game keeps to
    build the induced utilities' integer rows from.
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
        receiver_rows = _integer_table(receiver)
        sender_rows = tuple(_integer_table(t) for t in senders)
        object.__setattr__(self, "_receiver_rows", receiver_rows)
        object.__setattr__(self, "_sender_rows", sender_rows)
        scale = math.lcm(*(d for d, _ in sender_rows))
        for l in range(n):
            for b in range(a):
                total = sum(t[b][l] * (scale // d) for d, t in sender_rows)
                if total != 0:
                    raise InvariantViolation(
                        f"sender payoffs sum to {Fraction(total, scale)} "
                        f"at action {b}, state {l}"
                    )
        r = receiver_rows[1]
        for l in range(n):
            for b in range(a):
                for c in range(b + 1, a):
                    if r[b][l] == r[c][l]:
                        raise InvariantViolation(
                            f"receiver indifferent between actions {b} and "
                            f"{c} at state {l}"
                        )
                    for i, (_, t) in enumerate(sender_rows):
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


def _integer_table(
    table: tuple[tuple[Fraction, ...], ...],
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, T): the least common denominator D of a payoff table's entries
    and the integer table T = D * table."""
    scale = math.lcm(*(v.denominator for row in table for v in row))
    return scale, tuple(
        tuple(v.numerator * (scale // v.denominator) for v in row)
        for row in table
    )


def _argmax_guards(ag: ActionGame) -> tuple[tuple[Constraint, ...], ...]:
    """Per action a, the guard "a is weakly best for the receiver": one
    constraint (R_c - R_a) . beta <= 0 for each other action c.  It depends
    on the receiver alone, so the senders' induced utilities can share it."""
    scale, r = ag._receiver_rows
    return tuple(
        tuple(
            Constraint(
                AffineForm.of_row(
                    scale, tuple(map(operator.sub, r[c], r[a])), 0
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
    table: tuple[int, tuple[tuple[int, ...], ...]],
) -> PiecewiseAffineUtility:
    """The utility with the form row / D on the guard of each action, for
    a table (D, T) of ``_integer_table``."""
    scale, rows = table
    return PiecewiseAffineUtility(tuple(
        Piece(g, AffineForm.of_row(scale, row, 0))
        for g, row in zip(guards, rows)
    ))


def induced_game(ag: ActionGame) -> GamePayoffs:
    """All senders' induced utilities; zero-sum by construction but not yet
    normalized (vertex values are raw table entries).  Each has one piece
    per action, guarded by that action being weakly best, in action order,
    so first-match evaluation reproduces the lowest-index tie-break
    exactly.  The guards are built once, and every sender's utility holds
    the same guard objects."""
    guards = _argmax_guards(ag)
    return GamePayoffs(
        tuple(_induced(guards, table) for table in ag._sender_rows)
    )
