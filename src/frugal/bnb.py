"""Branch-and-bound over boxed binary maximization programs.

Branching uses a one-parameter mixture of two scores derived from the LP
objective decreases of the two candidate children: the mixture weight slides
between the smaller decrease and the larger one.  The loss of a run is the
number of nodes in the finished search tree.  Because every branching
decision is an argmax over scores affine in the mixture weight, the unit
interval splits into finitely many cells on which the whole tree is
invariant; the partition here computes those cells exactly.

All LP relaxations are solved exactly with a two-phase tableau simplex using
Bland's rule.  The tableau holds Python integers over one common denominator
(fraction-free Edmonds pivoting): each program's rows, right-hand sides and
objective are scaled to integers once, by one lcm per program, so phase 1
keeps unit costs.  It stores only the nonbasic columns, since a basic column
is always the denominator times a unit vector, and only the constraint rows,
since each box row ``x_j + u_j = 1`` is implied (upper bounding): it is
trivial while one of ``x_j`` and ``u_j`` is nonbasic, and otherwise the
complement of the row of the other one.  Bland's rule and the ratio test
read the same entries as on the full tableau, so the pivots and the vertex
reached are the same, while each pivot updates fewer rows and columns, and a
pivot on a trivial box row is a bound flip without a division.  An LP
whose right sides are all nonnegative is feasible at the origin, so it
skips phase 1: it starts at the slack basis, whose cost row is the negated
objective as it stands.  Every LP of a program with nonnegative rows, such
as ``random_milp`` draws, starts there, since the row check below settles
each key with a negative right side before it reaches the solver.  A
solution keeps its value and point as ints over one denominator, so scores
and node order are int cross-products.  So objective values, scores, and cell
breakpoints are exact.  This is desk-scale machinery: at most 20 variables.

Each program carries two memos, both excluded from its equality and hash.
``_lp_cache`` maps a sorted fixing set to its solved relaxation.
``_expansions`` maps the sorted fixing set of a branched node to its
expansion: the candidates' score lines scaled to ints, and the two children
of every variable a run has branched on there.  A capped run at any
parameter is then a walk over ints that reads both memos and solves only
the LPs no earlier run needed.  Every expansion belongs to a cached
relaxation, so the node memo is never larger than the LP cache.

A key ``K`` missing from the LP cache is settled without a solve by any
cached key that drops one of its fixings ``(j, v)``.  If that key's LP is
infeasible, so is ``K``'s, whose feasible set is a subset.  If that key's
optimum is certified unique and has ``x_j = v``, it is ``K``'s optimum too:
``K``'s feasible set is the larger one's cut with ``x_j = v``, so the point
is the only optimum there as well, and the vertex Bland's rule would reach.
A key no cached key settles is infeasible without a solve when a row's right
side, less its entries fixed at 1, is below the sum of its negative free
entries, the row's least activity over the box.  All three rules give the
value a fresh solve would, so no tree or cell depends on the order in which
keys were solved.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    CappedRunOutcome,
    ConfigProblem,
    PartitionCell,
    PoolSample,
    format_rational,
    integer_rows,
    parse_rational_rows,
    require_integer,
    require_rational,
)
from .sweep import (
    DecisionTracker,
    cell_count_ceiling,
    cells_from_refinement,
    refine_cells,
    standalone_tracker,
    sweep_distinct,
    sweep_unit_interval,
)

__all__ = [
    "Milp",
    "LpSolution",
    "LpSolveError",
    "BnbProblem",
    "MAX_VARIABLES",
    "MAX_TREE_SIZE",
    "INFEASIBLE_SCORE",
    "lp_relax",
    "scores",
    "bnb_run",
    "bnb_partition",
    "parse_milp",
    "format_milp",
    "load_milp",
    "random_milp",
]

MAX_VARIABLES = 20
# Any run that builds this many nodes is treated as terminated at this loss.
MAX_TREE_SIZE = 2**15
# Finite stand-in for the objective decrease of an infeasible child; keeps
# score mixtures affine.  A node with both children infeasible is fathomed
# before its score can matter.
INFEASIBLE_SCORE = 10**9

_SIMPLEX_ITERATION_LIMIT = 100_000


class LpSolveError(RuntimeError):
    """The simplex could not finish an LP relaxation.

    ``program`` is the program's name (empty when unnamed) and ``fixings``
    the sorted ``(index, value)`` pairs of the subproblem.
    """

    def __init__(self, message: str, program: str = "", fixings: tuple = ()) -> None:
        super().__init__(message)
        self.program = program
        self.fixings = fixings


@dataclass(frozen=True)
class Milp:
    """A maximization program over binary variables inside the unit box.

    ``rows @ x <= rhs`` with ``x`` binary; the box ``0 <= x <= 1`` is always
    imposed on the relaxation, so the feasible region is bounded regardless
    of the constraint matrix.

    ``_lp_cache`` (keyed by sorted fixings, see ``lp_relax``) and
    ``_expansions`` (keyed by a branched node's sorted fixings, see
    ``_expansion``) are memos that fill as runs visit nodes; neither takes
    part in equality or hashing.
    """

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    name: str = field(default="", compare=False)
    _lp_cache: dict = field(default_factory=dict, compare=False, repr=False)
    _expansions: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.objective:
            raise ValueError("need at least one variable")
        if len(self.objective) > MAX_VARIABLES:
            raise ValueError(f"at most {MAX_VARIABLES} variables supported")
        if len(self.rows) != len(self.rhs):
            raise ValueError("one right-hand side per row required")
        for row in self.rows:
            if len(row) != len(self.objective):
                raise ValueError("row length must match the variable count")
        require_rational("Milp", "objective", [self.objective])
        require_rational("Milp", "rows", self.rows)
        require_rational("Milp", "rhs", [self.rhs])

    @property
    def n(self) -> int:
        return len(self.objective)

    @cached_property
    def _integer_form(self) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """``(scale, objective, rows, rhs)``: the program times ``scale``, the
        lcm of all its denominators, as ints.  Built at the first LP rather
        than at construction, so loading a program costs nothing extra."""
        scale, (objective, *rows, rhs) = integer_rows([self.objective, *self.rows, self.rhs])
        return scale, objective, tuple(rows), rhs

    @classmethod
    def from_lists(cls, objective, rows, rhs, name: str = "") -> "Milp":
        objective, *rows, rhs = parse_rational_rows([objective, *rows, rhs])
        return cls(objective=objective, rows=tuple(rows), rhs=rhs, name=name)


class LpSolution(NamedTuple):
    """Optimum of an LP relaxation in ints, or infeasibility when ``value`` is None.

    An optimum is kept as the solve left it, in ints over one positive
    denominator d: the objective is ``value / (d * scale)`` (``scale`` the
    program's lcm), ``numerators`` one per variable (a fixed variable as its
    value times d).  ``unique`` is set when the final tableau certifies the
    optimum as the only optimal point: every nonbasic column has a strictly
    positive reduced cost.  ``lp_relax`` then hands this solution to each key
    that adds one fixing the point satisfies, since a subset of the feasible
    set that still holds the only optimum has it as its only optimum; an
    infeasible solution serves each key that adds one fixing, since a subset
    of an empty set is empty.  Such keys store the same object, and every
    infeasible key stores the one ``_INFEASIBLE``.
    """

    value: int | None
    numerators: tuple[int, ...] | None = None
    denominator: int = 1
    unique: bool = False
    scale: int = 1

    @property
    def is_optimal(self) -> bool:
        return self.value is not None

    def is_integral(self) -> bool:
        if self.value is None:
            return False
        d = self.denominator
        return all(v == 0 or v == d for v in self.numerators)


_INFEASIBLE = LpSolution(None)


def _above(a: LpSolution, b: LpSolution) -> bool:
    """Whether optimum ``a`` of a program has a larger objective than ``b``."""
    return a.value * b.denominator > b.value * a.denominator


# Optima of one program by decreasing objective: the sign of b's less a's.
_frontier_key = cmp_to_key(lambda a, b: b.value * a.denominator - a.value * b.denominator)


def _exchange(
    tableau: list[list[int]], zrow: list[int] | None, cols: list[int], basis: list[int],
    row: int, k: int, d: int,
) -> int:
    """Edmonds pivot on stored ``row`` and stored column ``k``; returns the new ``d``.

    Every entry is ``d`` times the rational tableau's entry, with ``d`` the
    absolute determinant of the basis, so each division below is exact.  The
    leaving variable takes over column ``k``: its full-tableau column was
    ``d`` times a unit vector, so it now holds ``s * d`` in ``row`` and
    ``-s * f`` in each other row (and the cost row) whose entry in column
    ``k`` was ``f``, with ``s = -1`` if the pivot row was negated.  The box
    rows that ``_simplex_min`` leaves implicit are read off the stored rows
    and ``d``, so updating the stored rows updates them too.  Each updated
    row is a new list in ``tableau``; the cost row is updated in place.
    """
    pivot_row = tableau[row]
    p, s = pivot_row[k], 1
    if p < 0:
        # Negating the pivot row keeps the new denominator positive.
        pivot_row, p, s = [-v for v in pivot_row], -p, -1
    for i, line in enumerate(tableau):
        f = line[k]
        if f and i != row:
            line = [(p * v - f * w) // d for v, w in zip(line, pivot_row)]
            line[k] = -s * f
            tableau[i] = line
        elif p != d and i != row:
            tableau[i] = [p * v // d for v in line]
    if zrow is not None:
        # The entering reduced cost, never 0; the update holds for 0 as well.
        f = zrow[k]
        zrow[:] = [(p * v - f * w) // d for v, w in zip(zrow, pivot_row)]
        zrow[k] = -s * f
    pivot_row[k] = s * d
    tableau[row] = pivot_row
    cols[k], basis[row] = basis[row], cols[k]
    return p


def _priced(
    tableau: list[list[int]], cols: list[int], basis: list[int], cost: Sequence[int], d: int,
    partner: Sequence[int],
) -> list[int]:
    """The cost row of ``cost`` (one entry per variable) priced out over the
    basis: ``d`` times the stored columns' reduced costs, then ``z``, with
    ``-z / d`` the basic solution's cost.  A box slack's cost is moved onto
    its partner through ``x_j + u_j = 1`` (see ``_simplex_min``)."""
    zrow = [0] * (len(cols) + 1)
    for k, j in enumerate(cols):
        q = partner[j]
        cq = cost[q] if q >= 0 else 0
        zrow[k] = d * (cost[j] - cq)
        zrow[-1] -= d * cq
    for i, b in enumerate(basis):
        q = partner[b]
        cq = cost[q] if q >= 0 else 0
        cb = cost[b] - cq
        if cb:
            zrow = [z - cb * v for z, v in zip(zrow, tableau[i])]
        zrow[-1] -= d * cq
    return zrow


def _simplex_min(
    tableau: list[list[int]], cols: list[int], basis: list[int], zrow: list[int], d: int,
    partner: Sequence[int],
) -> tuple[int, list[int]]:
    """Minimize over the tableau in place, from the priced cost row ``zrow``.

    ``partner`` pairs each structural ``x_j`` with its box slack ``u_j = 1 -
    x_j`` (-1 for the other variables).  One of a pair is always basic, and
    its box row is implied: trivial (``d`` in its partner's column, right
    side ``d``) while the partner is nonbasic, else the complement of the
    partner's stored row (entries negated, right side ``d - rhs``).  Bland's
    rule enters the stored column of lowest variable index with a negative
    reduced cost; the ratio test reads the implied rows too, least ratio by
    cross-multiplication, ties to the lowest basic index.  A complement
    leaves by taking its stored row's place, and the entering variable's
    own bound (ratio 1) is a bound flip: a pivot with ``p = d`` that moves
    column ``k`` into each right side and divides nothing.  So every pivot
    and entry is the explicit tableau's.  Returns the final ``d`` and cost
    row, which was updated in place: ``d`` times the stored columns'
    reduced costs, then ``z`` with minimum ``-z / d``.
    """
    for _ in range(_SIMPLEX_ITERATION_LIMIT):
        j, entering = len(partner), -1
        for k, (index, z) in enumerate(zip(cols, zrow)):
            if z < 0 and index < j:
                j, entering = index, k
        if entering < 0:
            return d, zrow
        # The entering variable's own bound first: ratio 1 at its partner.
        leaving, best_rhs, best_coef, best_index = -1, 1, 1, partner[j]
        for i, row in enumerate(tableau):
            coef = row[entering]
            if coef > 0:
                rhs, index = row[-1], basis[i]
            elif coef < 0 and partner[basis[i]] >= 0:
                coef, rhs, index = -coef, d - row[-1], partner[basis[i]]
            else:
                continue
            here, best = rhs * best_coef, best_rhs * coef
            if best_index < 0 or here < best or (here == best and index < best_index):
                leaving, best_rhs, best_coef, best_index = i, rhs, coef, index
        if best_index < 0:
            raise LpSolveError("unbounded LP despite box constraints")
        if leaving < 0:
            for line in tableau:
                line[-1] -= line[entering]
                line[entering] = -line[entering]
            zrow[-1] -= zrow[entering]
            zrow[entering] = -zrow[entering]
            cols[entering] = best_index
            continue
        if basis[leaving] != best_index:
            complement = tableau[leaving] = [-v for v in tableau[leaving]]
            complement[-1] += d
            basis[leaving] = best_index
        d = _exchange(tableau, zrow, cols, basis, leaving, entering, d)
    raise LpSolveError("simplex iteration limit exceeded")


def _solve_box_lp(
    objective: Sequence[int], rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[int, int, list[int], bool] | None:
    """Maximize objective over ``rows @ x <= rhs`` and ``0 <= x <= 1`` in integers.

    The variables are the ``n`` structurals, one slack per row and box
    bound, and one artificial per negative right-hand side, whose row is
    negated and starts with the artificial basic.  Only the constraint rows
    and the nonbasic columns are stored, the columns' variable indices in
    ``cols``: a basic column is always ``d`` times a unit vector, and each
    box row ``x_j + u_j = 1`` is implied (see ``_simplex_min``).  Adding a
    box row's basic variable to a basis adds a unit column, so the explicit
    basis has the stored one's determinant up to sign, and as Bland's rule
    and the ratio test read the same entries, each pivot is the explicit
    tableau's.  The data is one program scaled by one lcm, so every row's
    slack (and artificial) is the rational slack times that one positive
    scale, and unit phase-1 costs make both phases follow the rational
    tableau's pivots.  With no negative right side there is no artificial
    and no phase 1: phase 2 starts at the slack basis (``d = 1``), where
    every basic variable and every box slack costs 0, so the priced cost
    row is the negated objective followed by 0.  ``lp_relax``'s row check
    settles every negative right side of a row without negative entries, so
    each LP of a program with nonnegative rows starts there.  Phase 1, its
    drive-out and the pricing after it run only for a negative right side.
    Returns None when infeasible, else ``(z, d,
    numerators, unique)``: the optimum is ``z / d``, ``x[j] = numerators[j]
    / d``, and ``unique`` tells whether every nonbasic column of the final
    tableau has a strictly positive reduced cost, which makes that optimal
    point the only one.  An empty ``objective`` (no free column) is a valid
    input: the result is ``(0, 1, [], True)`` when every ``rhs`` entry is
    nonnegative, else None, as phase 1 stops at once below zero.
    """
    n, r = len(objective), len(rows)
    m = r + n
    tableau = [[*row, b] for row, b in zip(rows, rhs)]
    cols, basis = [*range(n)], [*range(n, n + r)]
    partner = [*range(n + r, n + m), *[-1] * r, *range(n)]
    d = 1
    if min(rhs, default=0) < 0:
        # Each row with a negative right side is negated and gets a basic
        # artificial; its slack starts nonbasic, with entry -1 in that row.
        negative = [i for i, b in enumerate(rhs) if b < 0]
        for i, line in enumerate(tableau):
            line[-1:-1] = [int(k == i) for k in negative]
            if line[-1] < 0:
                tableau[i] = [-v for v in line]
        cols += [n + i for i in negative]
        for artificial, i in enumerate(negative, n + m):
            basis[i] = artificial
        partner += [-1] * len(negative)
        phase1 = _priced(tableau, cols, basis, [0] * (n + m) + [1] * len(negative), d, partner)
        d, zrow = _simplex_min(tableau, cols, basis, phase1, d, partner)
        if zrow[-1] < 0:
            return None
        # Drive leftover artificials (all at zero) out of the basis, each on
        # its lowest-index non-artificial column with a nonzero entry.  Every
        # row has one, because the slack columns alone are invertible, so no
        # row is redundant.  Then drop the artificial columns.
        for i, b in enumerate(basis):
            if b >= n + m:
                _, k = min((j, k) for k, j in enumerate(cols) if j < n + m and tableau[i][k])
                d = _exchange(tableau, None, cols, basis, i, k, d)
        keep = [k for k, j in enumerate(cols) if j < n + m]
        tableau = [[row[k] for k in keep] + row[-1:] for row in tableau]
        cols = [cols[k] for k in keep]
        zrow = _priced(tableau, cols, basis, [-c for c in objective] + [0] * m, d, partner)
    else:
        # Feasible at the origin: the slack basis costs 0, so nothing to price.
        zrow = [-c for c in objective] + [0]
    d, zrow = _simplex_min(tableau, cols, basis, zrow, d, partner)
    # A structural is 0 when nonbasic, d when its box slack is nonbasic, and
    # otherwise read off its own stored row or its box slack's.
    numerators = [d] * n
    for j in cols:
        if j < n:
            numerators[j] = 0
    for i, b in enumerate(basis):
        if b < n:
            numerators[b] = tableau[i][-1]
        elif b >= n + r:
            numerators[b - n - r] = d - tableau[i][-1]
    return zrow[-1], d, numerators, min(zrow[:-1], default=1) > 0


def lp_relax(milp: Milp, fixings: tuple = ()) -> LpSolution:
    """Exact optimum of the LP relaxation with the given variables fixed, as
    an int ``LpSolution``; every infeasible key gets the one ``_INFEASIBLE``.

    ``fixings`` is the node's key: ``(index, value)`` pairs sorted by
    distinct in-range index, each value the int 0 or 1 (not a float or a
    ``Fraction``, which would alias an int key in the memo).  Free variables
    range over ``[0, 1]``; results are memoized per instance under that key,
    since branch-and-bound revisits the same subproblems across parameters
    and caps.  The memo stores checked keys only, so a key is checked
    (``ValueError``) on a miss only.  A checked miss first looks up each
    key that drops one fixing ``(j, v)``: when that key's LP is infeasible,
    or its optimum is certified unique with ``x_j = v``, its solution is
    this key's too (the subset of an infeasible set is empty; a unique
    optimum that survives the extra fixing stays the only optimum), and it
    is stored and returned without a solve.  So is an infeasible solution
    when one row alone proves the key infeasible (see the module
    docstring).  Raises ``TypeError`` for an unhashable key, and
    ``LpSolveError`` naming the program and the fixings if the simplex
    cannot finish.
    """
    cache = milp._lp_cache
    try:
        hit = cache.get(fixings)
    except TypeError:
        raise TypeError(f"fixings must be a tuple of (index, value) pairs, got {fixings!r}") from None
    if hit is not None:
        return hit
    n, previous, binary, ones = milp.n, -1, True, []
    for index, value in fixings:
        if not previous < index < n:
            raise ValueError(f"fixings need sorted, distinct, in-range indices, got {fixings}")
        previous = index
        if value == 1:
            ones.append(index)
        binary = binary and type(value) is int and value in (0, 1)
    if not binary:
        raise ValueError(f"fixed values must be binary, got {fixings}")
    for i, (index, value) in enumerate(fixings):
        parent = cache.get(fixings[:i] + fixings[i + 1:])
        if parent is not None and (
            parent.value is None
            or parent.unique and parent.numerators[index] == value * parent.denominator
        ):
            cache[fixings] = parent
            return parent
    scale, objective, rows, rhs = milp._integer_form
    free = [*range(n)]
    for index, _ in reversed(fixings):
        del free[index]
    free_rows, free_rhs = [], []
    for row, b in zip(rows, rhs):
        coefficients = [row[j] for j in free]
        for j in ones:
            b -= row[j]
        # Each free x lies in [0, 1], so the row's least activity is the sum
        # of its negative free entries; no point meets a right side below it.
        if b < 0 and b < sum(min(v, 0) for v in coefficients):
            cache[fixings] = _INFEASIBLE
            return _INFEASIBLE
        free_rows.append(coefficients)
        free_rhs.append(b)
    try:
        result = _solve_box_lp([objective[j] for j in free], free_rows, free_rhs)
    except LpSolveError as exc:
        where = f"program {milp.name!r}" if milp.name else "unnamed program"
        raise LpSolveError(
            f"{exc} ({where}, fixings {dict(fixings)})", program=milp.name, fixings=fixings
        ) from None
    if result is None:
        cache[fixings] = _INFEASIBLE
        return _INFEASIBLE
    z, d, numerators, unique = result
    # Ascending inserts put each fixed value at its own index.
    for index, value in fixings:
        numerators.insert(index, value * d)
    for j in ones:
        z += d * objective[j]
    solution = cache[fixings] = LpSolution(z, tuple(numerators), d, unique, scale)
    return solution


def scores(
    milp: Milp, fixings: tuple, relaxation: LpSolution, index: int
) -> tuple[int, int, int]:
    """Objective decreases of the children of a node, with ``lp_relax`` key
    ``fixings`` and LP ``relaxation``, from branching on variable ``index``.

    Returns ``(smaller, larger, denominator)``, the two decreases as ints in
    lowest terms over one positive denominator; an infeasible child
    contributes the finite sentinel ``INFEASIBLE_SCORE``.  A child that
    fixes the variable at its value in the node's optimum keeps that optimum
    feasible, so its decrease is 0 and no LP is solved for it.  An ``index``
    out of range or already fixed raises ``ValueError``.
    """
    if not 0 <= index < milp.n:
        raise ValueError(f"variable index {index} out of range for n = {milp.n}")
    if (index, 0) in fixings or (index, 1) in fixings:
        raise ValueError(f"variable {index} is already fixed at this node")
    if relaxation.value is None:
        raise ValueError("scores need a node with an optimal relaxation")
    parent, d = relaxation.value, relaxation.denominator
    decreases = []
    for value in (0, 1):
        if relaxation.numerators[index] == value * d:
            decreases.append((0, 1))
            continue
        child = lp_relax(milp, _child_key(fixings, index, value))
        decreases.append(
            (parent * child.denominator - child.value * d, d * child.denominator * relaxation.scale)
            if child.value is not None else (INFEASIBLE_SCORE, 1)
        )
    (a, b), (e, f) = decreases
    g = math.gcd(a * f, e * b, b * f)
    return (*sorted((a * f // g, e * b // g)), b * f // g)


class _Expansion(NamedTuple):
    """A branched node as every run sees it.

    ``lines`` are the ``(variable, (intercept, slope))`` candidates of the
    branching argmax, each line ``high + (low - high) * rho`` times the lcm
    of the ``scores`` denominators, which changes no winner, tie or
    crossing.  ``children`` maps each variable a run has branched on to its
    two children ``(fixings, relaxation, integral)``, for values 0 and 1.
    """

    lines: list[tuple[int, tuple[int, int]]]
    children: dict[int, tuple[tuple[tuple, LpSolution, bool], ...]]


def _expansion(milp: Milp, fixings: tuple, relaxation: LpSolution) -> _Expansion:
    """The memoized expansion of a node; stored only once its scores exist."""
    expansion = milp._expansions.get(fixings)
    if expansion is None:
        fix = dict(fixings)
        free = [i for i in range(milp.n) if i not in fix]
        triples = [scores(milp, fixings, relaxation, i) for i in free]
        common = math.lcm(*(den for _, _, den in triples))
        scaled = [(common // den, low, high) for low, high, den in triples]
        lines = [(i, (f * high, f * (low - high))) for i, (f, low, high) in zip(free, scaled)]
        expansion = milp._expansions[fixings] = _Expansion(lines, {})
    return expansion


def _child_key(fixings: tuple, index: int, value: int) -> tuple:
    """The ``lp_relax`` key of the child that fixes ``index`` at ``value``."""
    return tuple(sorted((*fixings, (index, value))))


def _children(milp: Milp, fixings: tuple, index: int) -> tuple:
    """Both children of branching on ``index``, as ``_Expansion.children`` holds them."""
    out = []
    for value in (0, 1):
        child_fixings = _child_key(fixings, index, value)
        child_lp = lp_relax(milp, child_fixings)
        out.append((child_fixings, child_lp, child_lp.is_integral()))
    return tuple(out)


def _run_capped(
    milp: Milp, node_limit: int, tracker: DecisionTracker
) -> tuple[bool, int, LpSolution | None]:
    """Best-first branch-and-bound capped at ``node_limit`` tree nodes, at
    least 1 (``bnb_run`` and ``bnb_partition`` check the cap).

    Returns ``(completed, tree_size, incumbent)``: whether the search
    finished within the limit, the nodes it built, and the solution of the
    best integral node found (None when there is none).  A frontier entry is
    ``(_frontier_key(relaxation), -depth, id, fixings, relaxation)`` with
    depth ``len(fixings)`` and id the node's creation index, so node
    selection pops the largest relaxation value (ties: deeper node, then
    lower id).  These keys never depend on the mixture weight, so the only
    parameter-sensitive decisions are the branching argmaxes routed through
    the tracker.  Each node's score lines and children come from the
    program's node memo, so a node that an earlier run expanded costs one
    argmax over int lines.
    """
    root_lp = lp_relax(milp)
    if not root_lp.is_optimal:
        return True, 1, None
    if root_lp.is_integral():
        return True, 1, root_lp
    size, incumbent = 1, None
    frontier = [(_frontier_key(root_lp), 0, 0, (), root_lp)]
    while frontier:
        _, _, _, fixings, relaxation = heapq.heappop(frontier)
        if incumbent is not None and not _above(relaxation, incumbent):
            continue
        expansion = _expansion(milp, fixings, relaxation)
        chosen = tracker.argmax(expansion.lines)
        children = expansion.children.get(chosen)
        if children is None:
            children = expansion.children[chosen] = _children(milp, fixings, chosen)
        for child_fixings, child_lp, integral in children:
            if size >= node_limit:
                return False, size, incumbent
            child_id, size = size, size + 1
            if not child_lp.is_optimal:
                continue
            if integral:
                if incumbent is None or _above(child_lp, incumbent):
                    incumbent = child_lp
                continue
            entry = (_frontier_key(child_lp), -len(child_fixings), child_id, child_fixings, child_lp)
            heapq.heappush(frontier, entry)
    return True, size, incumbent


def _run_outcome(milp: Milp, cap: int, tracker: DecisionTracker) -> CappedRunOutcome:
    limit = min(cap, MAX_TREE_SIZE)
    completed, tree_size, _ = _run_capped(milp, limit, tracker)
    if completed:
        return CappedRunOutcome.finished(tree_size)
    if limit == MAX_TREE_SIZE:
        # Hitting the absolute tree-size bound counts as termination.
        return CappedRunOutcome.finished(MAX_TREE_SIZE)
    return CappedRunOutcome.truncated(cap)


def bnb_run(milp: Milp, rho, cap: int) -> CappedRunOutcome:
    """Capped search: solved with the exact tree size, or cap-exceeded."""
    require_integer("cap", cap)
    if cap < 1:
        raise ValueError("cap must be a positive integer")
    return _run_outcome(milp, cap, standalone_tracker(rho))


def bnb_partition(sample: PoolSample, tau: int) -> list[PartitionCell]:
    """Exact partition of [0, 1] into tree-invariance cells at the given cap.

    Per distinct instance, the unit interval is swept left to right: a
    capped run at the left endpoint of each unresolved interval yields both
    the capped loss and the first point where any branching decision flips.
    The per-instance partitions are then refined into a common partition
    whose solved fractions and loss multiplicities count every draw.
    """
    require_integer("tau", tau)
    if tau < 1:
        raise ValueError("tau must be a positive integer")

    def sweep_one(milp: Milp):
        return sweep_unit_interval(lambda tracker: _run_outcome(milp, tau, tracker))

    partitions, counts = sweep_distinct(sweep_one, sample, tau)
    return cells_from_refinement(refine_cells(partitions), counts)


class BnbProblem(ConfigProblem):
    """Configuration problem over a finite pool of programs.

    The pool acts as the instance distribution: sampling is uniform with
    replacement.
    """

    def run_with_cap(self, rho, instance: Milp, tau: int) -> CappedRunOutcome:
        return bnb_run(instance, rho, tau)

    def get_partition(self, sample: PoolSample, tau: int) -> list[PartitionCell]:
        return bnb_partition(sample, tau)

    def f_bound(self, sample: PoolSample, tau: int) -> int:
        """Analytic ceiling on the cell count: ``sum_j n_j^(2 (tau+1)) + 1``,
        saturating at ``2**62``; monotone in the instance set and the cap."""
        require_integer("tau", tau)
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        return cell_count_ceiling(sample, 2 * (tau + 1))


def parse_milp(text: str, name: str = "") -> Milp:
    """Parse the plain-text program format.

    Line 1: ``n m``; line 2: ``n`` objective coefficients; then ``m`` lines
    of ``n`` row coefficients, a literal ``<=``, and the right-hand side.
    Values are whitespace-separated decimals or ``p/q`` fractions, parsed
    exactly, each distinct text once (``from_lists``).
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty instance file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = int(header[0]), int(header[1])
    if n < 1:
        raise ValueError("need at least one variable")
    if n > MAX_VARIABLES:
        raise ValueError(f"instances with more than {MAX_VARIABLES} variables are rejected")
    if m < 0:
        raise ValueError("row count must be nonnegative")
    if len(lines) != 2 + m:
        raise ValueError(f"expected {2 + m} nonblank lines, found {len(lines)}")
    objective = lines[1].split()
    if len(objective) != n:
        raise ValueError(f"objective line must carry {n} coefficients")
    rows = []
    rhs = []
    for line in lines[2:]:
        tokens = line.split()
        if len(tokens) != n + 2 or tokens[n] != "<=":
            raise ValueError(f"malformed constraint line: {line!r}")
        rows.append(tokens[:n])
        rhs.append(tokens[n + 1])
    return Milp.from_lists(objective, rows, rhs, name=name)


def format_milp(milp: Milp) -> str:
    lines = [f"{milp.n} {len(milp.rows)}", " ".join(map(format_rational, milp.objective))]
    for row, b in zip(milp.rows, milp.rhs):
        lines.append(" ".join(map(format_rational, row)) + f" <= {format_rational(b)}")
    return "\n".join(lines) + "\n"


def load_milp(path: str | Path) -> Milp:
    path = Path(path)
    return parse_milp(path.read_text(), name=path.name)


def random_milp(rng: np.random.Generator, num_vars: int = 5, num_rows: int = 3) -> Milp:
    """Random knapsack-like program with small integer coefficients.

    The origin is always feasible, right-hand sides sit strictly inside the
    row sums so root relaxations are typically fractional.
    """
    require_integer("num_vars", num_vars)
    require_integer("num_rows", num_rows)
    if not 1 <= num_vars <= MAX_VARIABLES:
        raise ValueError("num_vars out of range")
    if num_rows < 0:
        raise ValueError("num_rows must be nonnegative")
    objective = rng.integers(1, 10, size=num_vars)
    rows = []
    rhs = []
    for _ in range(num_rows):
        row = rng.integers(0, 6, size=num_vars)
        while not row.any():
            row = rng.integers(0, 6, size=num_vars)
        fraction_kept = rng.uniform(0.35, 0.65)
        bound = max(1, int(round(float(row.sum()) * fraction_kept)))
        rows.append(row)
        rhs.append(bound)
    return Milp.from_lists(objective, rows, rhs)
