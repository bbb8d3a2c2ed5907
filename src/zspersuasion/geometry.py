"""Exact polyhedral computations on the belief simplex.

Cells are conjunctions of affine constraints (strict or weak) intersected
with the simplex.  Everything here is rational.  Every sign question is
asked one way: a two-phase simplex method with Bland's pivoting rule, where
one slack variable s, shared by every strict constraint, turns "some point
satisfies the strict constraints strictly" into "the linear program max s
has an optimum above 0".  It pivots fraction-free, in Python ints over one
common denominator, from the integer row each constraint keeps, and builds
a Fraction only for the point where it stops.  That point is a point of
the cell, which is the cell's strictly feasible point and the witness when
a form does not vanish on a cell or a cell holds a belief other than the
simplex vertices.  Vertices, enumerated by Gaussian elimination over
active sets (``polytope_vertices``, ``closure_vertices``), are no longer
asked for by any command; the tests and the benchmark's tracer still name
them.

The disjoint first-match decompositions of piecewise utilities, and their
overlays, need only the emptiness test.  The sweep (``_sweep_cells``)
keeps a cell whole when a guard misses it, and complements only the guard
constraints that the cell does not already imply (LP redundancy removal),
so the convex region of each piece is cut into as few cells as its
predecessors require.  An argmax guard sequence, where piece a's guard says
that a maximizes some affine forms R_0 = 0, ..., R_{A-1} (the argmax guards
of an action game), needs no sweep: piece a's first-match cell is its
guard with the constraints against every earlier piece made strict, one
convex cell and one emptiness test per piece.  The cells depend on the
guards alone: a utility keeps its decomposition, and utilities with one
guard sequence share it.  An overlay refines one decomposition's cells by
the next guard sequence's.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from .affine import AffineForm, Constraint
from .exceptions import EnumerationTooLarge, InvariantViolation, NoPieceMatches

Point = tuple[Fraction, ...]

# most cells ``first_match_cells`` holds, output cells plus remainder, most
# refined cells ``overlay_regions`` holds, and most cells a pullback yields
# (``utilities.Pullback.cells``)
SWEEP_CAP = 10_000

# A linear equation coeffs . beta + const = 0
_Equation = tuple[tuple[Fraction, ...], Fraction]


def _row_reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], bool]:
    """Reduced row echelon form of an augmented matrix [A | b] for A x = b.
    Returns (reduced rows, consistent)."""
    rows = [row[:] for row in rows]
    n_cols = len(rows[0]) - 1 if rows else 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        factor = rows[pivot_row][col]
        rows[pivot_row] = [v / factor for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    consistent = all(
        any(v != 0 for v in row[:-1]) or row[-1] == 0 for row in rows
    )
    return rows, consistent


def solve_unique(equations: Sequence[_Equation], n: int) -> Optional[Point]:
    """The unique solution of coeffs.x + const = 0 for all equations, or None
    if the system is inconsistent or underdetermined."""
    rows = [[*coeffs, -const] for coeffs, const in equations]
    if not rows:
        return None
    reduced, consistent = _row_reduce(rows)
    if not consistent:
        return None
    solution: list[Optional[Fraction]] = [None] * n
    rank = 0
    for row in reduced:
        lead = next((c for c in range(n) if row[c] != 0), None)
        if lead is None:
            continue
        rank += 1
        if any(row[c] != 0 for c in range(lead + 1, n)):
            return None  # free variable in this row
        solution[lead] = row[n]
    if rank != n:
        return None
    return tuple(v for v in solution)  # type: ignore[misc]


def _as_equation(form: AffineForm) -> _Equation:
    return (form.coeffs, form.const)


def _simplex_equations(n: int) -> list[_Equation]:
    return [(tuple(Fraction(1) for _ in range(n)), Fraction(-1))]


def polytope_vertices(n: int, constraints: Sequence[Constraint]) -> list[Point]:
    """Vertices of the closed polytope cut from the simplex by weak
    constraints (strict ops are rejected; weaken first).

    Every vertex is the unique solution of the equality constraints plus a
    set of inequalities made active, so enumerating active sets of the
    complementary size finds them all.
    """
    equalities = _simplex_equations(n)
    inequalities: list[Constraint] = [
        Constraint(
            AffineForm(
                Fraction(0),
                tuple(Fraction(-1 if i == j else 0) for i in range(n)),
            ),
            "<=",
        )
        for j in range(n)
    ]
    for c in constraints:
        if c.is_strict:
            raise ValueError("polytope_vertices needs weak constraints")
        if c.op == "==":
            equalities.append(_as_equation(c.expr))
        elif c.op == "<=":
            inequalities.append(c)
        else:  # ">="
            inequalities.append(Constraint(-c.expr, "<="))

    rows = [[*coeffs, -const] for coeffs, const in equalities]
    reduced, consistent = _row_reduce(rows)
    if not consistent:
        return []
    rank = sum(1 for row in reduced if any(v != 0 for v in row[:-1]))
    free = n - rank
    vertices: set[Point] = set()
    for active in itertools.combinations(inequalities, free):
        eqs = equalities + [_as_equation(c.expr) for c in active]
        point = solve_unique(eqs, n)
        if point is None:
            continue
        if all(c.holds(point) for c in inequalities):
            vertices.add(point)
    return sorted(vertices)


def closure_vertices(n: int, constraints: Sequence[Constraint]) -> list[Point]:
    """Vertices of the closure of a cell: weaken every strict constraint.
    For a nonempty convex cell this is exactly the topological closure."""
    return polytope_vertices(n, [c.weakened() for c in constraints])


def _lp_rows(
    n: int, constraints: Sequence[Constraint]
) -> Optional[tuple[int, list[tuple[tuple[int, ...], int, bool]]]]:
    """The cell as rows (a, b, equality) of a.x <= b or a.x == b over
    x = (beta_0, ..., beta_{n-2}, s), with beta_{n-1} = 1 - sum(others)
    substituted, so x >= 0 covers all but beta_{n-1} >= 0, which is a row.
    Strict rows get the slack s, and s <= 1 keeps the program bounded.

    The rows are integers: each constraint's ``integer_row`` times
    L / lam, L the lcm of the scales lam, so every row is its rational row
    times the one constant L (one constant keeps the weights of the
    phase-1 sum of artificials).  Returns (L, rows).  Duplicates and rows
    without a variable are dropped; None when such a row fails."""
    scale = math.lcm(*(c.integer_row[0] for c in constraints))
    rows = [
        ((scale,) * (n - 1) + (0,), scale, False),
        ((0,) * (n - 1) + (scale,), scale, False),
    ]
    for c in constraints:
        lam, coeffs, const = c.integer_row
        last = coeffs[-1]
        factor = scale // lam * (-1 if c.op in (">", ">=") else 1)
        a = tuple(factor * (v - last) for v in coeffs[:-1])
        b = -factor * (const + last)
        rows.append((a + (scale if c.is_strict else 0,), b, c.op == "=="))
    kept = []
    for a, b, eq in dict.fromkeys(rows):
        if any(a):
            kept.append((a, b, eq))
        elif b < 0 or (eq and b != 0):  # a constant row that fails
            return None
    return scale, kept


def _pivot(
    table: list[list[int]], rhs: list[int], d: int, r: int, c: int
) -> int:
    """Exchange the basic variable of row r with the nonbasic variable of
    column c in the dictionary x_B = rhs / d - (table / d) . x_N (the last
    row of table and rhs is the objective); returns the new denominator.

    Fraction-free (Edmonds 1967; Bareiss 1968): with p = table[r][c] the
    new denominator is p, the pivot row stays, its column entry becomes d,
    the other rows' column entries are negated, and every other entry
    becomes (entry * p - column entry * pivot row entry) / d.  From an
    integer tableau with d = 1, every entry is a minor of it and d the
    absolute determinant of the basis, so each division is exact.  A negative p
    negates the tableau to keep d > 0."""
    row, p, b = table[r], table[r][c], rhs[r]
    for i, other in enumerate(table):
        f = other[c]
        if i == r or (not f and p == d):
            continue
        if f:
            other = [(v * p - f * w) // d for v, w in zip(other, row)]
            other[c] = -f
            rhs[i] = (rhs[i] * p - f * b) // d
        else:
            other = [v * p // d for v in other]
            rhs[i] = rhs[i] * p // d
        table[i] = other
    row[c] = d
    if p > 0:
        return p
    for i, other in enumerate(table):
        table[i] = [-v for v in other]
    rhs[:] = [-v for v in rhs]
    return -p


def _bland_step(
    table: list[list[int]],
    rhs: list[int],
    d: int,
    basic: list[int],
    nonbasic: list[int],
) -> int:
    """One pivot of the simplex method under Bland's rule: the entering
    variable is the lowest-numbered one that improves the objective, the
    leaving one the lowest-numbered among the tightest ratios rhs / entry
    over positive entries, compared by cross-multiplying.  Returns the new
    denominator, or 0 at an optimum."""
    entering = [j for j, v in enumerate(table[-1]) if v < 0]
    if not entering:
        return 0
    c = min(entering, key=lambda j: nonbasic[j])
    r = -1
    for i in range(len(basic)):
        t = table[i][c]
        if t <= 0:
            continue
        if r < 0:
            r = i
            continue
        lhs, rhs_r = rhs[i] * table[r][c], rhs[r] * t
        if lhs < rhs_r or (lhs == rhs_r and basic[i] < basic[r]):
            r = i
    if r < 0:
        # never: the beta sum to at most 1 and s <= 1
        raise InvariantViolation("linear program over a cell is unbounded")
    d = _pivot(table, rhs, d, r, c)
    basic[r], nonbasic[c] = nonbasic[c], basic[r]
    return d


def _drop_column(table: list[list[int]], nonbasic: list[int], c: int) -> None:
    for row in table:
        del row[c]
    del nonbasic[c]


def _has_strict_point(n: int, constraints: Sequence[Constraint]) -> Optional[Point]:
    """The beta of the first feasible basis with s > 0 over the rows of
    ``_lp_rows``, or None when max s <= 0.  Two-phase simplex with Bland's
    rule from the vertex e_{n-1} (x = 0); every strict row holds at the
    returned point with margin at least s.  The tableau is integers over
    one common denominator d (``_pivot``); signs and ratio comparisons are
    those of the rational tableau, so the bases are too, and the point is
    read off once as Fraction(rhs, d)."""
    lp = _lp_rows(n, constraints)
    if lp is None:
        return None
    scale, rows = lp
    # variables: x_0..x_{n-1} (s last), then the slack of row i is n + i
    # and its artificial artificial + i.  Equalities, and rows that x = 0
    # violates, start with their artificial basic; for b < 0 the row reads
    # -a.x - slack + artificial = -b.
    s_var, artificial = n - 1, n + len(rows)
    negative = [i for i, (_, b, eq) in enumerate(rows) if b < 0 and not eq]
    nonbasic = list(range(n)) + [n + i for i in negative]
    table: list[list[int]] = []
    rhs: list[int] = []
    basic: list[int] = []
    for i, (a, b, eq) in enumerate(rows):
        sign = -1 if b < 0 else 1
        table.append([sign * v for v in a] + [-scale if i == j else 0 for j in negative])
        rhs.append(sign * b)
        basic.append(artificial + i if eq or b < 0 else n + i)

    # phase 1: maximize minus the sum of the artificials, dropping each
    # artificial once it leaves the basis
    started = [i for i, v in enumerate(basic) if v >= artificial]
    table.append([-sum(table[i][j] for i in started) for j in range(len(nonbasic))])
    rhs.append(-sum(rhs[i] for i in started))
    d = 1
    while rhs[-1] < 0:
        if not (d := _bland_step(table, rhs, d, basic, nonbasic)):
            return None  # even the closure is empty
        for c in reversed([j for j, v in enumerate(nonbasic) if v >= artificial]):
            _drop_column(table, nonbasic, c)
    # artificials still basic sit at 0: pivot each out, or drop its row
    # when no other variable is left in it (the row repeats others)
    for i in range(len(basic) - 1, -1, -1):
        if basic[i] < artificial:
            continue
        c = next((j for j, v in enumerate(table[i]) if v), None)
        if c is None:
            del table[i], rhs[i], basic[i]
            continue
        d = _pivot(table, rhs, d, i, c)
        basic[i], nonbasic[c] = nonbasic[c], basic[i]
        _drop_column(table, nonbasic, c)

    # phase 2: maximize s
    if s_var in basic:
        r = basic.index(s_var)
        table[-1], rhs[-1] = table[r][:], rhs[r]
    else:
        table[-1] = [-d if v == s_var else 0 for v in nonbasic]
        rhs[-1] = 0
    while rhs[-1] <= 0:
        if not (d := _bland_step(table, rhs, d, basic, nonbasic)):
            return None
    values = [0] * (n - 1)
    for v, value in zip(basic, rhs):
        if v < s_var:
            values[v] = value
    return tuple(Fraction(v, d) for v in values) + (Fraction(d - sum(values), d),)


def cell_is_nonempty(n: int, constraints: Sequence[Constraint]) -> bool:
    """Exact emptiness test for a cell with strict and weak constraints.

    Solves the linear program max s subject to expr + s <= 0 for every
    strict constraint (oriented as expr < 0), expr <= 0 for every weak one,
    every equality, beta >= 0 on the simplex and s <= 1.  A point of the
    cell gives s = min(1, -max strict expr) > 0, and a feasible s > 0 gives
    a point of the cell, so the cell is nonempty iff the optimum is above 0.
    The two-phase simplex method pivots under Bland's rule, which cannot
    cycle, and computes in integers with exact division (``_pivot``), so
    the verdict is exact; it stops at the first feasible basis with s > 0.
    """
    return _has_strict_point(n, constraints) is not None


def strictly_feasible_point(
    n: int, constraints: Sequence[Constraint]
) -> Optional[Point]:
    """A point of the cell itself (not just its closure), or None if empty:
    the point where the emptiness test's simplex method stops."""
    return _has_strict_point(n, constraints)


def nondegenerate_point(
    n: int, constraints: Sequence[Constraint]
) -> Optional[Point]:
    """A point of the cell other than the simplex vertices, or None.

    Those beliefs are the convex set where beta_l < 1 for every l, so this is
    one emptiness test of the cell cut down to it.
    """
    off_vertices = [
        Constraint(
            AffineForm(
                Fraction(-1),
                tuple(Fraction(1 if i == l else 0) for i in range(n)),
            ),
            "<",
        )
        for l in range(n)
    ]
    return _has_strict_point(n, (*constraints, *off_vertices))


def nonzero_point(
    n: int, constraints: Sequence[Constraint], form: AffineForm
) -> Optional[Point]:
    """A point of the cell where the affine form is not 0, or None when it
    vanishes on the whole cell: one emptiness test with form < 0 added and
    one with form > 0.  A form that is 0 at every simplex vertex vanishes
    on the whole simplex and needs no test."""
    if all(form.const + c == 0 for c in form.coeffs):
        return None
    for op in ("<", ">"):
        p = strictly_feasible_point(n, (*constraints, Constraint(form, op)))
        if p is not None:
            return p
    return None


def negate_constraint(c: Constraint) -> list[Constraint]:
    """The complement of one constraint as a disjunction (list) of cells of
    one constraint each; equalities split into two strict sides."""
    if c.op == "==":
        return [Constraint(c.expr, "<"), Constraint(c.expr, ">")]
    return [c.negated()]


def complement_cells(
    guard: Sequence[Constraint],
) -> list[tuple[Constraint, ...]]:
    """Disjoint cover of NOT(c_1 and ... and c_m):
    (not c_1) | (c_1 and not c_2) | ... — each disjunct a conjunction."""
    out: list[tuple[Constraint, ...]] = []
    prefix: list[Constraint] = []
    for c in guard:
        for neg in negate_constraint(c):
            out.append(tuple(prefix) + (neg,))
        prefix.append(c)
    return out


def subsimplex_constraints(n: int, omega: Sequence[int]) -> list[Constraint]:
    """Equalities pinning beta to the face spanned by the states in omega."""
    inside = set(omega)
    out = []
    for j in range(n):
        if j not in inside:
            out.append(
                Constraint(
                    AffineForm(
                        Fraction(0),
                        tuple(Fraction(1 if i == j else 0) for i in range(n)),
                    ),
                    "==",
                )
            )
    return out


def _kept_guard(
    n: int, cell: tuple[Constraint, ...], guard: Sequence[Constraint]
) -> tuple[Constraint, ...]:
    """The guard without the constraints that the cell and the rest of the
    kept guard imply: c is dropped when cell and the others and not-c have
    no point (for an equality, neither strict side has one).  Dropping an
    implied constraint leaves the set cut from the cell unchanged, so
    ``cell + kept`` is ``cell + guard`` and ``complement_cells(kept)``
    covers the rest of the cell exactly."""
    kept = list(guard)
    j = 0
    while j < len(kept):
        others = cell + tuple(kept[:j] + kept[j + 1:])
        sides = negate_constraint(kept[j])
        if any(cell_is_nonempty(n, others + (side,)) for side in sides):
            j += 1
        else:
            del kept[j]
    return tuple(kept)


def _is_argmax(guards: Sequence[Sequence[Constraint]]) -> bool:
    """Whether the guards say "piece a maximizes R" for affine forms R_c:
    A >= 2 guards of A - 1 weak constraints each, guard a's j-th against
    the j-th piece c != a in increasing order, with form d_{c,a} equal to
    R_c - R_a exactly (constant included), where R_0 = 0 and R_c is
    d_{c,0}, guard 0's constraint against c."""
    count = len(guards)
    if count < 2 or any(
        len(guard) != count - 1 or any(c.op != "<=" for c in guard)
        for guard in guards
    ):
        return False
    # compared on the integer rows (lam, lam * coeffs, lam * const) that the
    # forms keep: d = R_c - R_a exactly when, entry by entry,
    # d * lam_c * lam_a == (R_c * lam_a - R_a * lam_c) * lam_d
    rows = [(1, (0,) * (guards[0][0].expr.n_states + 1))] + [
        (lam, (*coeffs, const))
        for lam, coeffs, const in (c.integer_row for c in guards[0])
    ]
    for a in range(1, count):
        lam_a, r_a = rows[a]
        others = (c for c in range(count) if c != a)
        for c, constraint in zip(others, guards[a]):
            lam_c, r_c = rows[c]
            lam_d, coeffs, const = constraint.integer_row
            if any(
                x * lam_c * lam_a != (y * lam_a - z * lam_c) * lam_d
                for x, y, z in zip((*coeffs, const), r_c, r_a)
            ):
                return False
    return True


def _sweep_cells(
    n: int,
    guards: Sequence[Sequence[Constraint]],
    start: tuple[Constraint, ...] = (),
) -> list[tuple[int, tuple[Constraint, ...]]]:
    """``first_match_cells`` of any guard sequence, by the sweep: it
    carries the cells that no guard has matched yet, from ``[start]``.  A
    cell that misses a guard passes to the next one unchanged.  Otherwise
    the guard is cut to the constraints the cell does not imply
    (``_kept_guard``), the cell plus the kept guard is the piece's cell,
    and the complement cells of the kept guard carry on.  The complement
    cell of a kept inequality contains the nonempty set that kept it, so
    only the two sides of a kept equality are tested.  A cell left after
    the last guard raises NoPieceMatches at a point of the first; more
    than ``SWEEP_CAP`` cells held at once (output cells plus the
    remainder, carried or to be matched) raise EnumerationTooLarge."""
    cells: list[tuple[int, tuple[Constraint, ...]]] = []
    remainder: list[tuple[Constraint, ...]] = [start]
    for k, guard in enumerate(guards):
        next_remainder: list[tuple[Constraint, ...]] = []
        for j, cell in enumerate(remainder):
            if guard and not cell_is_nonempty(n, cell + tuple(guard)):
                next_remainder.append(cell)
                continue
            kept = _kept_guard(n, cell, guard)
            cells.append((k, cell + kept))
            for tail in complement_cells(kept):
                # tail ends in the negation of kept[len(tail) - 1]
                if kept[len(tail) - 1].op != "==" or cell_is_nonempty(n, cell + tail):
                    next_remainder.append(cell + tail)
            held = len(cells) + len(next_remainder) + len(remainder) - j - 1
            if held > SWEEP_CAP:
                raise EnumerationTooLarge(
                    f"first-match sweep holds {held} cells, over sweep cap {SWEEP_CAP}"
                )
        remainder = next_remainder
    if remainder:
        raise NoPieceMatches.at(strictly_feasible_point(n, remainder[0]))
    return cells


def first_match_cells(
    n: int,
    guards: Sequence[Sequence[Constraint]],
    start: tuple[Constraint, ...] = (),
) -> list[tuple[int, tuple[Constraint, ...]]]:
    """Disjoint decomposition of the nonempty cell ``start`` (by default
    the simplex) by first-match guards, which also checks that they cover it.

    Returns (piece index, cell) pairs in piece order: nonempty, pairwise
    disjoint cells, each the part of ``start`` where that piece's guard is
    the first to hold.  An argmax guard sequence (``_is_argmax``: piece a's
    guard is R_c - R_a <= 0 for every c != a) has them in closed form.
    Where a is weakly best, an earlier c is not weakly best exactly when
    R_c < R_a, so piece a's cell is ``start`` plus its guard with the
    constraints against every c < a made strict: one convex cell, kept when
    its one emptiness test finds a point.  Some piece maximizes R at every
    belief, so these cells cover ``start``.  Any other guard sequence is
    swept (``_sweep_cells``).  More than ``SWEEP_CAP`` cells raise
    EnumerationTooLarge either way.
    """
    if not _is_argmax(guards):
        return _sweep_cells(n, guards, start)
    cells: list[tuple[int, tuple[Constraint, ...]]] = []
    for a, guard in enumerate(guards):
        cell = start + tuple(
            Constraint(c.expr, "<") if j < a else c for j, c in enumerate(guard)
        )
        if cell_is_nonempty(n, cell):
            cells.append((a, cell))
            if len(cells) > SWEEP_CAP:
                raise EnumerationTooLarge(
                    f"first-match sweep holds {len(cells)} cells, over sweep cap {SWEEP_CAP}"
                )
    return cells


def piece_regions(pieces) -> list[tuple[tuple[Constraint, ...], AffineForm]]:
    """Disjoint decomposition of a first-match piecewise utility, which also
    checks that the pieces cover the simplex.

    Returns the regions (constraints, form): the cells of
    ``first_match_cells`` over the pieces' guards, each with the form of
    its piece, on which the utility equals that form.  Pieces are anything
    with .guard and .form, processed in match order.  Utilities keep their
    decomposition (``PiecewiseAffineUtility.regions``); this one sweeps
    every time it is called.
    """
    n = pieces[0].form.n_states
    return [
        (cell, pieces[k].form)
        for k, cell in first_match_cells(n, [p.guard for p in pieces])
    ]


def overlay_regions(utilities):
    """Common refinement of several piecewise utilities' first-match regions.

    Yields (constraints, summed form) for every nonempty cell of the
    refinement, on which the sum of the utilities is the summed form.
    Utilities with one guard sequence (the induced utilities of an action
    game, normalized or not) form a group, whose forms are summed piece by
    piece.  Each group's ``first_match_cells`` refines each cell of the
    groups before it (the first group's, of the simplex, are kept by its
    first utility); more than ``SWEEP_CAP`` refined cells raise
    EnumerationTooLarge.  Every cell is computed before the first is
    yielded, so a coverage gap in any utility raises NoPieceMatches first.
    """
    n = utilities[0].n_states
    groups: list[tuple[tuple, object, list[AffineForm]]] = []
    for u in utilities:
        guards = tuple(p.guard for p in u.pieces)
        forms = next((f for g, _, f in groups if g == guards), None)
        if forms is None:
            groups.append((guards, u, forms := [AffineForm.zero(n)] * len(u.pieces)))
        forms[:] = [f + p.form for f, p in zip(forms, u.pieces)]
    cells = [((), AffineForm.zero(n))]
    for guards, u, forms in groups:
        refined = []
        for cell, total in cells:
            # the sweep from the whole simplex is the one the utility keeps
            sweep = first_match_cells(n, guards, cell) if cell else u.first_match_cells()
            refined += [(sub, total + forms[k]) for k, sub in sweep]
            if len(refined) > SWEEP_CAP:
                raise EnumerationTooLarge(
                    f"overlay holds {len(refined)} cells, over sweep cap {SWEEP_CAP}"
                )
        cells = refined
    yield from cells
