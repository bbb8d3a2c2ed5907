"""Classifiers for pooling and revelation.

Decides whether utilities vanish on sub-simplices, which state subsets can be
pooled in some equilibrium, whether every equilibrium fully reveals the
state, which subsets are minimal carriers of advantage, which subsets a
given profile pools, the edge-slope sufficient condition for the
infinite-signal case, and the strict-surplus sufficient condition for
non-zero-sum games.  Every verdict is exact: a sign question on a cell is
one or two emptiness tests of the geometry layer, whose point is the
witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .beliefs import Belief, state_set
from .exceptions import InvariantViolation, NotNormalized
from .experiments import Experiment
from .geometry import nondegenerate_point, nonzero_point, subsimplex_constraints
from .affine import Constraint
from .utilities import GamePayoffs, PiecewiseAffineUtility


def _require_normalized(utilities: Sequence[PiecewiseAffineUtility]) -> None:
    for i, u in enumerate(utilities):
        for l, v in enumerate(u.vertex_values):
            if v != 0:
                raise NotNormalized(
                    f"utility {i} is {v} at state {l}; normalize_payoffs first"
                )


def _edge_belief(n: int, l: int, k: int, t: Fraction) -> Belief:
    probs = [Fraction(0)] * n
    probs[l] = 1 - t
    probs[k] = t
    return Belief(tuple(probs))


@dataclass(frozen=True)
class ZeroCheck:
    """zero is exact; witness is a belief on the face where the utility is
    not zero, or None when zero is True."""

    zero: bool
    witness: Optional[Belief]


def is_zero_on_subsimplex(
    u: PiecewiseAffineUtility, omega: Sequence[int]
) -> ZeroCheck:
    """Is a normalized utility identically zero on the face spanned by the
    states in omega?

    Since a normalized utility vanishes at every vertex, being affine on the
    face is the same as being zero there, so this is also the operative
    "linear on the sub-simplex" test.  Two-state faces go through the exact
    edge restriction; larger faces through the disjoint first-match cell
    decomposition (zero on a cell iff neither form < 0 nor form > 0 has a
    point in the cell on the face).
    """
    n = u.n_states
    omega = state_set(omega, n)
    _require_normalized([u])
    if len(omega) == 1:
        return ZeroCheck(True, None)
    if len(omega) == 2:
        l, k = omega
        t = u.on_edge(l, k).nonzero_witness()
        if t is None:
            return ZeroCheck(True, None)
        return ZeroCheck(False, _edge_belief(n, l, k, t))
    face = tuple(subsimplex_constraints(n, omega))
    for cell, form in u.regions():
        p = nonzero_point(n, cell + face, form)
        if p is not None:
            return ZeroCheck(False, Belief(p))
    return ZeroCheck(True, None)


@dataclass(frozen=True)
class PoolingVerdict:
    """never_pooled means no equilibrium keeps all of omega unrevealed; the
    witness sender then has a strictly positive payoff somewhere on the
    face, which is what powers the exploiting deviation."""

    omega: tuple[int, ...]
    never_pooled: bool
    witness_sender: Optional[int] = None
    witness_belief: Optional[Belief] = None


def classify_pooling(g: GamePayoffs, omega: Sequence[int]) -> PoolingVerdict:
    """No equilibrium pools omega iff some sender's normalized utility is
    nonzero on the face over omega; otherwise pooling equilibria exist."""
    _require_normalized(g.utilities)
    omega = state_set(omega, g.n_states)
    for u in g.utilities:
        b = is_zero_on_subsimplex(u, omega).witness
        if b is None:
            continue
        # zero-sum: somebody is strictly positive wherever somebody is nonzero
        for i, ui in enumerate(g.utilities):
            if ui(b) > 0:
                return PoolingVerdict(omega, True, i, b)
        raise InvariantViolation(
            f"a utility is nonzero on the face over {omega} but no sender is "
            "positive at its witness: the game is not zero-sum"
        )
    return PoolingVerdict(omega, False)


@dataclass(frozen=True)
class RevelationReport:
    edges: tuple[PoolingVerdict, ...]
    full_revelation: bool
    counterexample: Optional[tuple[int, int]] = None


def classify_full_revelation(g: GamePayoffs) -> RevelationReport:
    """Every equilibrium fully reveals the state iff every two-state face has
    a sender with nonzero utility on it."""
    _require_normalized(g.utilities)
    n = g.n_states
    verdicts = []
    counterexample = None
    for l in range(n):
        for k in range(l + 1, n):
            v = classify_pooling(g, (l, k))
            verdicts.append(v)
            if counterexample is None and not v.never_pooled:
                counterexample = (l, k)
    return RevelationReport(tuple(verdicts), counterexample is None, counterexample)


def minimal_subsets(g: GamePayoffs) -> list[tuple[int, ...]]:
    """State subsets carrying an advantage whose proper subsets carry none.

    A subset qualifies when some sender's normalized utility is nonzero on
    its face; minimality is by set inclusion.  Enumerated in increasing
    size, so any qualifying set either appears or contains one that does.
    """
    _require_normalized(g.utilities)
    n = g.n_states
    found: list[tuple[int, ...]] = []
    for size in range(2, n + 1):
        for omega in itertools.combinations(range(n), size):
            if any(set(m) < set(omega) for m in found):
                continue
            if any(not is_zero_on_subsimplex(u, omega).zero for u in g.utilities):
                found.append(omega)
    return found


@dataclass(frozen=True)
class PooledSets:
    """The inclusion-maximal state subsets (size >= 2) that the profile
    keeps unrevealed with positive probability; every subset of one of
    them of size >= 2 is pooled too."""

    maximal: tuple[tuple[int, ...], ...]


def detect_pooled_sets(joint: Experiment) -> PooledSets:
    """A subset is pooled when some posterior atom of a profile's joint
    experiment (``experiments.product``) puts positive probability on all
    its states at once."""
    supports = {frozenset(b.support) for b, _ in joint.atoms}
    maximal = [
        s for s in supports
        if len(s) >= 2 and not any(s < other for other in supports)
    ]
    return PooledSets(
        tuple(sorted((tuple(sorted(s)) for s in maximal), key=lambda s: (len(s), s))),
    )


@dataclass(frozen=True)
class Condition1Report:
    """Edge-slope sufficient condition for full revelation that remains valid
    when senders may use infinitely many signals.  A negative overall
    verdict is inconclusive, not a pooling prediction."""

    edges: tuple[tuple[tuple[int, int], bool], ...]
    overall: bool
    note: str = (
        "a failing edge is inconclusive for infinite-signal strategies; "
        "the condition is sufficient, not necessary"
    )


def condition1_report(g: GamePayoffs) -> Condition1Report:
    """An edge qualifies when some sender's utility has a nonzero one-sided
    slope along the edge at either endpoint (with normalized utilities the
    endpoint values themselves are zero)."""
    _require_normalized(g.utilities)
    n = g.n_states
    edges = []
    for l in range(n):
        for k in range(l + 1, n):
            ok = False
            for u in g.utilities:
                f = u.on_edge(l, k)
                if f.start_slope != 0 or f.end_slope != 0:
                    ok = True
                    break
            edges.append(((l, k), ok))
    return Condition1Report(tuple(edges), all(ok for _, ok in edges))


@dataclass(frozen=True)
class SurplusSufficiency:
    """holds means the pooled sum of utilities is strictly negative
    everywhere except at degenerate beliefs, which forces full revelation
    even without zero-sum.  Exactly zero-sum games are always inconclusive
    (the sum vanishes everywhere)."""

    holds: bool
    witness: Optional[Belief] = None


def strict_surplus_sufficiency(g: GamePayoffs) -> SurplusSufficiency:
    _require_normalized(g.utilities)
    n = g.n_states
    for cell, form in g.overlay:
        # a point with sum >= 0 other than a simplex vertex
        p = nondegenerate_point(n, cell + (Constraint(-form, "<="),))
        if p is not None:
            return SurplusSufficiency(False, Belief(p))
    return SurplusSufficiency(True, None)
