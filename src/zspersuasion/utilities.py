"""Piecewise-affine sender utilities on the belief simplex.

Provides first-match piecewise evaluation, payoff normalization so that every
utility vanishes at degenerate beliefs, exact conditional payoffs against
strategy profiles, and one-dimensional edge restrictions.
First-match evaluation signs each guard in integers, from the integer row
its form keeps (``AffineForm.integer_row``), at the belief's primitive ray
or, on an edge, at t = p/q; only the value of the matching form is built as
a ``Fraction``.  Each utility keeps its edge restrictions and its vertex
values from first use.
A conditional payoff is computed one way, by ``Pullback``: against a fixed
opponents' joint, it pulls a utility's guards and forms back through each
of the joint's atoms to integer rows in the interim counts, so the
conditional payoff at any interim belief is one integer dot product per
atom that has more than one piece left there, over one denominator.  The
rows an atom pulls back depend only on the utility and the atom's
likelihood row, so each utility keeps them per row from first use (the
pulled-back guards once per guard sequence), and a pullback only scales
them by its atoms' masses.  The payoff is linear on each cell of the
overlay of one utility per atom, made of its pulled-back guards and rows
(``Pullback.cells``), where ``exploit`` and ``verify`` decide exactly
whether some interim belief pays.
The zero-sum check is exact: it is decided on the game's overlay, the
common refinement of the utilities' first-match cells, never by sampling
beliefs, and the decomposition into those cells rejects a utility whose
pieces leave part of the simplex uncovered.  Both overlays are walks of
``geometry.overlay_regions``; the game keeps its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterator, Optional, Sequence, Union

from .affine import SIGN_TESTS, AffineForm, Constraint
from .beliefs import Belief, as_fraction, degenerate, ray, ray_belief
from .exceptions import NoPieceMatches
from .experiments import Experiment, StrategyProfile
from .geometry import first_match_cells, nonzero_point, overlay_regions


@dataclass(frozen=True)
class Piece:
    """A guarded affine piece: the form applies where every guard constraint
    holds."""

    guard: tuple[Constraint, ...]
    form: AffineForm


class _Decomposition:
    """The first-match cells of one guard sequence, computed on first use,
    and the guards pulled back through each likelihood row, also from first
    use.  A decomposition that raises NoPieceMatches keeps nothing."""

    def __init__(self, n: int, guards: tuple[tuple[Constraint, ...], ...]):
        self.n = n
        self.guards = guards
        self.cells: Optional[list[tuple[int, tuple[Constraint, ...]]]] = None
        self.pulled: dict[tuple[int, ...], tuple[bool, tuple]] = {}

    def get(self) -> list[tuple[int, tuple[Constraint, ...]]]:
        if self.cells is None:
            self.cells = first_match_cells(self.n, self.guards)
        return self.cells

    def pulled_back(self, z: tuple[int, ...]) -> tuple[bool, tuple]:
        """Whether an atom with likelihood row z lies on a face, and the
        pieces that can match at it, in order, as (piece index, guard as
        ``_pulled_back_guard`` gives it), up to the first piece whose guard
        always holds there."""
        out = self.pulled.get(z)
        if out is None:
            support = [l for l, zl in enumerate(z) if zl]
            kept = []
            for j, guard in enumerate(self.guards):
                pulled = _pulled_back_guard(guard, z, support)
                if pulled is None:
                    continue
                kept.append((j, pulled))
                if not pulled:  # always matches: later pieces never do
                    break
            out = self.pulled[z] = (len(support) < len(z), tuple(kept))
        return out


@dataclass(frozen=True)
class PiecewiseAffineUtility:
    """Ordered pieces with first-match semantics.

    Piece order is meaningful: the first piece whose guard holds at a belief
    determines the value there, which pins down boundary values exactly.

    The first-match cells, and the guards pulled back through each
    likelihood row, depend on the guards alone, so a utility keeps them
    from first use and shares them with every utility made from it by
    ``shifted`` and with every utility of a ``GamePayoffs`` that has the
    same guard sequence.  They live as long as those utilities do, which
    is one command, since every command loads its scenario afresh.  Its
    edge restrictions, vertex values and pulled-back rows (``pulled_back``)
    depend on the forms too, so each utility keeps its own, also from
    first use.
    """

    pieces: tuple[Piece, ...]
    _decomposition: _Decomposition = field(
        init=False, repr=False, compare=False
    )
    _edges: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _pulled: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("utility needs at least one piece")
        n = self.pieces[0].form.n_states
        for p in self.pieces:
            if p.form.n_states != n:
                raise ValueError("piece dimension mismatch")
            for c in p.guard:
                if c.expr.n_states != n:
                    raise ValueError("guard dimension mismatch")
        guards = tuple(p.guard for p in self.pieces)
        object.__setattr__(self, "_decomposition", _Decomposition(n, guards))

    @property
    def n_states(self) -> int:
        return self.pieces[0].form.n_states

    @cached_property
    def _integer_pieces(self):
        """Per piece: each guard constraint as (sign test, a, c) from its
        op and integer row, and the form's integer row."""
        return tuple(
            (
                tuple(
                    (SIGN_TESTS[cons.op],) + cons.integer_row[1:]
                    for cons in p.guard
                ),
                p.form.integer_row,
            )
            for p in self.pieces
        )

    def __call__(self, b: Belief) -> Fraction:
        """The value of the first piece whose guard holds at b.  At b's
        primitive ray k, with K = sum(k), a guard with integer row
        (lam, a, c) is signed by the integer c * K + a . k, and only the
        matching form's value is built as a Fraction."""
        k = ray(b)
        total = sum(k)
        for guard, (lam, a, c) in self._integer_pieces:
            if all(test(c0 * total + sum(map(mul, a0, k)), 0)
                   for test, a0, c0 in guard):
                return Fraction(c * total + sum(map(mul, a, k)), lam * total)
        raise NoPieceMatches.at(b)

    @cached_property
    def vertex_values(self) -> tuple[Fraction, ...]:
        """The utility at each degenerate belief, evaluated once.  At delta_l
        every guard and form is const + coeffs[l], so no belief is built.
        Raises NoPieceMatches at the first vertex no piece covers."""
        return tuple(self._vertex_value(l) for l in range(self.n_states))

    def _vertex_value(self, l: int) -> Fraction:
        for p in self.pieces:
            if all(
                c.holds_value(c.expr.const + c.expr.coeffs[l]) for c in p.guard
            ):
                return p.form.const + p.form.coeffs[l]
        raise NoPieceMatches.at(degenerate(self.n_states, l))

    def on_edge(self, l: int, k: int) -> "EdgeFunction":
        """``edge_restriction`` to the (l, k) edge, computed on first use
        and kept as long as the utility."""
        f = self._edges.get((l, k))
        if f is None:
            f = self._edges[(l, k)] = edge_restriction(self, l, k)
        return f

    @cached_property
    def form_scale(self) -> int:
        """Lam, the lcm of the pieces' form scales: every form over Lam is
        an integer row (C_p, A_p)."""
        return math.lcm(*(p.form.integer_row[0] for p in self.pieces))

    def pulled_back(self, z: tuple[int, ...]) -> tuple[bool, tuple]:
        """The pieces left at an atom with likelihood row z, before the
        atom's mass factor: whether the atom lies on a face, and per piece
        that can match there, its pulled-back guard, as the decomposition
        keeps it for every utility with these guards, and the row
        G0_l = z_l (C_p + A_pl) of its form over ``form_scale``.  Computed
        on first use (``_pull_back``) and kept as long as the utility."""
        out = self._pulled.get(z)
        if out is None:
            out = self._pulled[z] = _pull_back(self, z)
        return out

    def first_match_cells(self) -> list[tuple[int, tuple[Constraint, ...]]]:
        """``geometry.first_match_cells`` of the guards, computed once."""
        return self._decomposition.get()

    def regions(self) -> list[tuple[tuple[Constraint, ...], AffineForm]]:
        """``geometry.piece_regions`` of the pieces, on the kept cells."""
        return [(cell, self.pieces[k].form) for k, cell in self.first_match_cells()]

    @classmethod
    def on_cells(cls, regions) -> "PiecewiseAffineUtility":
        """The utility equal to each form on its cell, for (cell, form)
        regions whose cells are nonempty, pairwise disjoint and cover the
        simplex, as an overlay's are.  Piece k's first-match cell is then
        cell k, so the utility starts with its decomposition known."""
        u = cls(tuple(Piece(cell, form) for cell, form in regions))
        u._decomposition.cells = list(enumerate(u._decomposition.guards))
        return u

    def shifted(self, delta: AffineForm) -> "PiecewiseAffineUtility":
        out = PiecewiseAffineUtility(
            tuple(replace(p, form=p.form + delta) for p in self.pieces)
        )
        object.__setattr__(out, "_decomposition", self._decomposition)
        return out


@dataclass(frozen=True)
class GamePayoffs:
    """One utility per sender over a common state space."""

    utilities: tuple[PiecewiseAffineUtility, ...]

    def __post_init__(self):
        if not self.utilities:
            raise ValueError("game needs at least one sender")
        n = self.utilities[0].n_states
        if any(u.n_states != n for u in self.utilities):
            raise ValueError("utilities disagree on the number of states")
        # utilities with one guard sequence share one decomposition; the
        # equality scan is immediate on guard objects the utilities share
        kept: list[_Decomposition] = []
        for u in self.utilities:
            for d in kept:
                if d.guards == u._decomposition.guards:
                    object.__setattr__(u, "_decomposition", d)
                    break
            else:
                kept.append(u._decomposition)

    @property
    def n_states(self) -> int:
        return self.utilities[0].n_states

    @property
    def n_senders(self) -> int:
        return len(self.utilities)

    @cached_property
    def overlay(self) -> list[tuple[tuple[Constraint, ...], AffineForm]]:
        """``geometry.overlay_regions`` of the utilities, kept from first use."""
        return list(overlay_regions(self.utilities))


def normalize_payoffs(g: GamePayoffs) -> GamePayoffs:
    """Shifts each utility by the affine correction -sum_l beta_l u_i(delta_l)
    so every sender's utility is 0 at every degenerate belief.

    The correction has the same expectation under every Bayes-plausible
    experiment, so senders' rankings over strategy profiles are unchanged,
    and an exactly zero-sum game stays exactly zero-sum.  Idempotent.  Each
    shifted utility starts with its vertex values known: all 0.
    """
    zeros = (Fraction(0),) * g.n_states
    out = []
    for u in g.utilities:
        if u.vertex_values == zeros:
            out.append(u)
            continue
        shifted = u.shifted(
            AffineForm(Fraction(0), tuple(-v for v in u.vertex_values))
        )
        object.__setattr__(shifted, "vertex_values", zeros)
        out.append(shifted)
    return GamePayoffs(tuple(out))


# ---------------------------------------------------------------------------
# Edge restrictions


@dataclass(frozen=True)
class EdgeFunction:
    """A utility restricted to the edge beta(t) = (1-t) delta_l + t delta_k.

    Stored as breakpoints 0 = t_0 < ... < t_J = 1 with an affine
    (constant, slope) form on each *open* interval (t_j, t_{j+1}) and an
    explicit value at each breakpoint.  Point values are kept separately
    because first-match guards can single out isolated edge points whose
    value differs from both neighbouring intervals.
    """

    breakpoints: tuple[Fraction, ...]
    interval_forms: tuple[tuple[Fraction, Fraction], ...]
    point_values: tuple[Fraction, ...]

    def __post_init__(self):
        bp = self.breakpoints
        if len(bp) < 2 or bp[0] != 0 or bp[-1] != 1:
            raise ValueError("breakpoints must run from 0 to 1")
        if any(a >= b for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.interval_forms) != len(bp) - 1:
            raise ValueError("need one form per open interval")
        if len(self.point_values) != len(bp):
            raise ValueError("need one value per breakpoint")

    def __call__(self, t) -> Fraction:
        t = as_fraction(t)
        if not 0 <= t <= 1:
            raise ValueError("edge parameter must lie in [0, 1]")
        for j, b in enumerate(self.breakpoints):
            if t == b:
                return self.point_values[j]
            if t < b:
                c, s = self.interval_forms[j - 1]
                return c + s * t
        raise AssertionError("unreachable")

    @property
    def start_slope(self) -> Fraction:
        return self.interval_forms[0][1]

    @property
    def end_slope(self) -> Fraction:
        return self.interval_forms[-1][1]

    def nonzero_witness(self) -> Optional[Fraction]:
        """Some t with value != 0, or None if the function is identically 0."""
        for t, v in zip(self.breakpoints, self.point_values):
            if v != 0:
                return t
        for (c, s), a, b in zip(
            self.interval_forms, self.breakpoints, self.breakpoints[1:]
        ):
            if c == 0 and s == 0:
                continue
            mid = (a + b) / 2
            if c + s * mid != 0:
                return mid
            return (3 * a + b) / 4  # midpoint is the root of a nonzero form
        return None


def _merge_edge(
    breakpoints: list[Fraction],
    forms: list[tuple[Fraction, Fraction]],
    values: list[Fraction],
) -> EdgeFunction:
    # drop interior breakpoints where the two sides share a form and the
    # point value agrees with it
    j = 1
    while j < len(breakpoints) - 1:
        c, s = forms[j - 1]
        if forms[j] == (c, s) and values[j] == c + s * breakpoints[j]:
            del breakpoints[j], forms[j], values[j]
        else:
            j += 1
    return EdgeFunction(tuple(breakpoints), tuple(forms), tuple(values))


def edge_restriction(u: PiecewiseAffineUtility, l: int, k: int) -> EdgeFunction:
    """Exact restriction of a utility to the (l, k) edge of the simplex.

    Substitutes beta(t) = (1-t) delta_l + t delta_k into every guard and form;
    guard boundaries become the candidate breakpoints, and first-match
    evaluation on each open interval (constant piece choice there) and at
    each breakpoint fills in forms and point values.  A guard with integer
    row (lam, a, c) becomes the integer edge row (c + a_l, a_k - a_l),
    computed once, and is signed at t = p/q by (c + a_l) q + (a_k - a_l) p.
    Callers ask the utility (``PiecewiseAffineUtility.on_edge``), which
    keeps each restriction.
    """
    n = u.n_states
    if not (0 <= l < n and 0 <= k < n):
        raise ValueError(f"edge ({l},{k}) is out of range for N={n}")
    if l == k:
        raise ValueError("edge endpoints must differ")
    cuts = {Fraction(0), Fraction(1)}
    guards = []
    for rows, _ in u._integer_pieces:
        guard = []
        for test, a, c in rows:
            c, s = c + a[l], a[k] - a[l]
            guard.append((test, c, s))
            if 0 < -c * s < s * s:  # the root -c/s lies in (0, 1)
                cuts.add(Fraction(-c, s))
        guards.append(guard)
    breakpoints = sorted(cuts)

    def first_match(t: Fraction) -> tuple[Fraction, Fraction]:
        p, q = t.numerator, t.denominator
        for guard, piece in zip(guards, u.pieces):
            if all(test(c * q + s * p, 0) for test, c, s in guard):
                return piece.form.on_edge(l, k)
        raise NoPieceMatches(f"no piece covers edge ({l},{k}) at t={t}")

    forms = [first_match((a + b) / 2) for a, b in zip(breakpoints, breakpoints[1:])]
    values = []
    for t in breakpoints:
        fc, fs = first_match(t)
        values.append(fc + fs * t)
    return _merge_edge(breakpoints, forms, values)


# ---------------------------------------------------------------------------
# Zero-sum verification


@dataclass(frozen=True)
class ZeroSumResult:
    """witness is None when the pooled sum is exactly zero on the whole
    simplex, and otherwise a belief where it is not."""

    witness: Optional[Belief]

    @property
    def ok(self) -> bool:
        return self.witness is None


def check_zero_sum(g: GamePayoffs) -> ZeroSumResult:
    """Verifies sum_i u_i == 0 exactly: the summed form must vanish on every
    cell of the overlay of the senders' first-match regions."""
    n = g.n_states
    for cell, form in g.overlay:
        p = nonzero_point(n, cell, form)
        if p is not None:
            return ZeroSumResult(Belief(p))
    return ZeroSumResult(None)


# ---------------------------------------------------------------------------
# Payoffs against strategy profiles


_SIGN_OPS = {test: op for op, test in SIGN_TESTS.items()}


class Pullback:
    """A utility's conditional payoff against one opponents' joint, pulled
    back to integer rows in the interim counts k of x = k / K, K = sum(k).

    Let the joint's likelihood rows be (Z_j, M_j) over E, and put every
    piece's form over Lam, the lcm of the pieces' scales, as (C_p, A_p).  At
    atom j the posterior is w_j / T_j with w_j = k o Z_j and T_j = sum(w_j),
    and ``numerator(k)`` is the integer

        K E Lam payoff(k) = sum_j M_j (C_p T_j + A_p . w_j) = sum_j k . G_jp,

    p the first piece matching at w_j, over the atoms with T_j > 0.  A guard
    with integer row (a, c) is signed there by k . H_jg, H_jgl = Z_jl (c + a_l).
    H and G_jp / M_j depend only on the utility and Z_j, so the utility
    keeps them per likelihood row (``PiecewiseAffineUtility.pulled_back``),
    and a pullback scales each kept G by its atom's M_j.  A guard whose test
    k . H_jg op 0 comes out the same wherever the atom has positive
    probability, as the signs of H_jg on the support show, is decided once:
    it is dropped, or its piece is.  An atom whose first remaining piece
    then always matches, as every one-state atom does, adds k . G_jp at
    every k and is folded into one vector V, which is zero under
    ``normalize_payoffs`` for one-state atoms.  ``payoff(k)`` is
    ``Fraction(numerator(k), denominator * K)``.  This is the only place the
    program computes a conditional payoff.
    """

    def __init__(self, u: PiecewiseAffineUtility, others: Experiment):
        self._pull(u, *others.likelihood_rows)

    @classmethod
    def of_rows(
        cls,
        u: PiecewiseAffineUtility,
        e: int,
        rows: Sequence[tuple[tuple[int, ...], int]],
    ) -> "Pullback":
        """The pullback against a joint given by its likelihood rows
        (Z_j, M_j) over E, as ``Experiment.likelihood_rows`` gives them."""
        out = cls.__new__(cls)
        out._pull(u, e, rows)
        return out

    def _pull(self, u: PiecewiseAffineUtility, e: int, rows) -> None:
        self.n = u.n_states
        self.denominator = e * u.form_scale
        vertex = [0] * u.n_states
        atoms = []
        for z, m in rows:
            face, kept = u.pulled_back(z)
            if kept and not kept[0][0]:
                vertex = [v + m * gl for v, gl in zip(vertex, kept[0][1])]
            else:
                atoms.append((z, face, tuple(
                    (guard, tuple(m * gl for gl in g)) for guard, g in kept
                )))
        self.vertex = tuple(vertex) if any(vertex) else None
        self.atoms = tuple(atoms)

    @property
    def is_zero(self) -> bool:
        """Whether the payoff is 0 at every interim belief."""
        return self.vertex is None and not self.atoms

    def cells(
        self, start: tuple[Constraint, ...]
    ) -> Iterator[tuple[tuple[Constraint, ...], tuple[int, ...]]]:
        """The pieces of the numerator on the nonempty cell ``start``, as
        (cell, G) with ``numerator(k) == k . G`` wherever k / K lies in the
        cell: ``geometry.overlay_regions`` from ``start`` of one utility per
        atom, whose pieces are its pulled-back guards (k . H op 0) with
        forms k . G_jp, V added to the first one's.  An atom on a face gets
        a leading piece k . Z_j == 0 with form 0, where ``numerator`` skips
        it, and an atom that no piece can match gets a guard that never
        holds, so a posterior that no piece covers raises NoPieceMatches."""
        zero = AffineForm.zero(self.n)
        parts = []
        for z, face, pieces in self.atoms:
            out = [
                Piece(tuple(Constraint(AffineForm(0, h), _SIGN_OPS[test])
                            for test, h in guard), AffineForm(0, g))
                for guard, g in pieces
            ]
            if face:
                out.insert(0, Piece((Constraint(AffineForm(0, z), "=="),), zero))
            parts.append(PiecewiseAffineUtility(
                tuple(out) or (Piece((Constraint(zero, "<"),), zero),)
            ))
        if not parts:
            yield start, self.vertex or (0,) * self.n
            return
        if self.vertex:
            parts[0] = parts[0].shifted(AffineForm(0, self.vertex))
        for cell, form in overlay_regions(parts, start):
            yield cell, tuple(c.numerator for c in form.coeffs)

    def payoff(self, k: Sequence[int]) -> Fraction:
        """The conditional payoff at x = k / sum(k)."""
        return Fraction(self.numerator(k), self.denominator * sum(k))

    def numerator(self, k: Sequence[int]) -> int:
        """K E Lam times the conditional payoff at x = k / K.  Raises
        NoPieceMatches at the first atom, in atom order, whose posterior no
        piece covers."""
        total = sum(map(mul, k, self.vertex)) if self.vertex else 0
        for z, face, pieces in self.atoms:
            if face and not sum(map(mul, k, z)):
                continue  # the atom has probability 0 given x
            for guard, g in pieces:
                for test, h in guard:
                    if not test(sum(map(mul, k, h)), 0):
                        break
                else:
                    total += sum(map(mul, k, g))
                    break
            else:
                raise NoPieceMatches.at(ray_belief(tuple(map(mul, k, z))))
        return total


def _pull_back(
    u: PiecewiseAffineUtility, z: tuple[int, ...]
) -> tuple[bool, tuple]:
    """``PiecewiseAffineUtility.pulled_back`` at likelihood row z, computed."""
    face, guards = u._decomposition.pulled_back(z)
    pieces = []
    for j, guard in guards:
        lam, a, c = u.pieces[j].form.integer_row
        f = u.form_scale // lam
        pieces.append((guard, tuple(f * zl * (c + al) for zl, al in zip(z, a))))
    return face, tuple(pieces)


def _pulled_back_guard(
    guard: tuple[Constraint, ...], z: tuple[int, ...], support: list[int]
) -> Optional[tuple]:
    """The guard's constraints at the atom with likelihood row z as
    (sign test, H) pairs, without those that hold wherever the atom has
    positive probability; None when one of them holds nowhere there."""
    out = []
    for cons in guard:
        _, a, c = cons.integer_row
        h = tuple(zl * (c + al) for zl, al in zip(z, a))
        # the signs k . h can take: those of h on the support, and 0 where
        # they mix
        signs = {(h[l] > 0) - (h[l] < 0) for l in support}
        if 1 in signs and -1 in signs:
            signs.add(0)
        test = SIGN_TESTS[cons.op]
        held = {test(s, 0) for s in signs}
        if held == {True}:
            continue
        if held == {False}:
            return None
        out.append((test, h))
    return tuple(out)


def conditional_payoff_against(
    u: PiecewiseAffineUtility,
    others: Experiment,
    x: Union[Belief, Sequence[int]],
) -> Fraction:
    """Expected utility conditional on independently generating interim
    belief x while opponents jointly generate ``others``, where x is a
    ``Belief`` or the integer vector k of x = k / sum(k): the ``Pullback``
    of u against ``others`` at k.  Against the uninformative experiment
    this is u(x)."""
    k = ray(x) if isinstance(x, Belief) else x
    return Pullback(u, others).payoff(k)


def conditional_payoff(
    g: GamePayoffs, profile: StrategyProfile, i: int, x: Belief
) -> Fraction:
    """Sender i's expected payoff conditional on generating interim belief x
    against the joint of the other senders' experiments."""
    return conditional_payoff_against(g.utilities[i], profile.opponents(i), x)
