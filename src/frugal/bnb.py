"""Branch-and-bound over boxed binary maximization programs.

Branching uses a one-parameter mixture of two scores derived from the LP
objective decreases of the two candidate children: the mixture weight slides
between the smaller decrease and the larger one.  The loss of a run is the
number of nodes in the finished search tree.  Because every branching
decision is an argmax over scores affine in the mixture weight, the unit
interval splits into finitely many cells on which the whole tree is
invariant; the partition here computes those cells exactly.

All LP relaxations are solved exactly with a dense two-phase tableau
simplex using Bland's rule.  The tableau holds Python integers over one
common denominator (fraction-free Edmonds pivoting): each program's rows,
right-hand sides and objective are scaled to integers once, and only the
returned objective value and point become fractions.  So objective values,
scores, and cell breakpoints are exact.  This is desk-scale machinery: at
most 20 variables.

Each program carries two memos, both excluded from its equality and hash.
``_lp_cache`` maps a sorted fixing set to its solved relaxation.
``_expansions`` maps the sorted fixing set of a branched node to its
expansion: the candidates' score lines scaled to ints, and the two children
of every variable a run has branched on there.  A capped run at any
parameter is then a walk over ints that reads both memos and solves only
the LPs no earlier run needed.  Every expansion belongs to a cached
relaxation, so the node memo is never larger than the LP cache.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    CappedRunOutcome,
    ConfigProblem,
    PartitionCell,
    PoolSample,
    format_rational,
    to_fraction,
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
INFEASIBLE_SCORE = Fraction(10**9)

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


class _IntegerForm(NamedTuple):
    """A program's data in integers, as the LP relaxations use it.

    Row ``i`` and its right-hand side are scaled by the lcm ``L_i`` of their
    denominators, the objective by ``objective_scale``; ``weights[i]`` is
    ``lcm(L) / L_i``, the phase-1 cost of row ``i``'s artificial variable.
    """

    objective: tuple[int, ...]
    objective_scale: int
    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    weights: tuple[int, ...]


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

    @property
    def n(self) -> int:
        return len(self.objective)

    @cached_property
    def _integer_form(self) -> _IntegerForm:
        # Built at the first LP rather than at construction, so loading a
        # program costs nothing extra.
        objective_scale, objective = _scaled(self.objective)
        scales, rows, rhs = [], [], []
        for row, b in zip(self.rows, self.rhs):
            scale, scaled = _scaled(row + (b,))
            scales.append(scale)
            rows.append(scaled[:-1])
            rhs.append(scaled[-1])
        common = math.lcm(*scales)
        weights = tuple(common // scale for scale in scales)
        return _IntegerForm(objective, objective_scale, tuple(rows), tuple(rhs), weights)

    @classmethod
    def from_lists(cls, objective, rows, rhs, name: str = "") -> "Milp":
        return cls(
            objective=tuple(to_fraction(v) for v in objective),
            rows=tuple(tuple(to_fraction(v) for v in row) for row in rows),
            rhs=tuple(to_fraction(v) for v in rhs),
            name=name,
        )


@dataclass(frozen=True)
class LpSolution:
    """Optimum of an LP relaxation, or an infeasibility certificate."""

    status: str
    objective: Fraction | None
    point: tuple[Fraction, ...] | None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    def is_integral(self) -> bool:
        if not self.is_optimal:
            return False
        return all(x == 0 or x == 1 for x in self.point)


def _scaled(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """``(L, L * values)`` with ``L`` the lcm of the denominators."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def _pivot(tableau: list[list[int]], zrow: list[int] | None, row: int, col: int, d: int) -> int:
    """Edmonds pivot on an integer tableau with common denominator ``d``.

    Every entry is ``d`` times the rational tableau's entry, with ``d`` the
    absolute determinant of the basis, so each division below is exact.
    Returns the new denominator.
    """
    pivot_row = tableau[row]
    p = pivot_row[col]
    if p < 0:
        # Negating the pivot row keeps the new denominator positive.
        tableau[row] = pivot_row = [-v for v in pivot_row]
        p = -p
    for i, other in enumerate(tableau):
        if i == row:
            continue
        f = other[col]
        if f:
            tableau[i] = [(p * v - f * w) // d for v, w in zip(other, pivot_row)]
        elif p != d:
            tableau[i] = [p * v // d for v in other]
    if zrow is not None:
        f = zrow[col]
        zrow[:] = [(p * v - f * w) // d for v, w in zip(zrow, pivot_row)]
    return p


def _simplex_min(
    tableau: list[list[int]], basis: list[int], cost: Sequence[int], ncols: int, d: int
) -> tuple[int, int]:
    """Minimize cost over the integer tableau in place; Bland's rule.

    Returns the final denominator ``d`` and ``z`` with minimum ``-z / d``.
    """
    zrow = [d * c for c in cost] + [0]
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb:
            zrow = [z - cb * v for z, v in zip(zrow, tableau[i])]
    for _ in range(_SIMPLEX_ITERATION_LIMIT):
        entering = next((j for j in range(ncols) if zrow[j] < 0), -1)
        if entering < 0:
            return d, zrow[ncols]
        # Ratio test by cross-multiplication; ties go to the lowest basic index.
        leaving = -1
        for i, row in enumerate(tableau):
            coef = row[entering]
            if coef > 0:
                if leaving < 0:
                    leaving, best_rhs, best_coef = i, row[-1], coef
                    continue
                here, best = row[-1] * best_coef, best_rhs * coef
                if here < best or (here == best and basis[i] < basis[leaving]):
                    leaving, best_rhs, best_coef = i, row[-1], coef
        if leaving < 0:
            raise LpSolveError("unbounded LP despite box constraints")
        d = _pivot(tableau, zrow, leaving, entering, d)
        basis[leaving] = entering
    raise LpSolveError("simplex iteration limit exceeded")


def _solve_box_lp(
    objective: Sequence[int],
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    weights: Sequence[int],
) -> tuple[int, int, list[int]] | None:
    """Maximize objective over ``rows @ x <= rhs`` and ``0 <= x <= 1`` in integers.

    Each row's slack enters with coefficient 1, which rescales the slack
    (and artificial) of a row that was scaled to integers; ``weights[i]``
    is the phase-1 cost of row ``i``'s artificial, inversely proportional
    to that scale, so both phases follow the rational tableau's pivots.
    Returns None when infeasible, else ``(z, d, numerators)``: the optimum
    is ``z / d`` and ``x[j] = numerators[j] / d``.  An empty ``objective``
    (no free column) is a valid input: the result is ``(0, 1, [])`` when
    every ``rhs`` entry is nonnegative, else None, as phase 1 stops at once
    below zero.
    """
    n = len(objective)
    m = len(rows) + n
    negative = [i for i, b in enumerate(rhs) if b < 0]
    ncols = n + m + len(negative)
    tableau: list[list[int]] = []
    basis: list[int] = []
    artificial = n + m
    for i, (row, b) in enumerate(zip(rows, rhs)):
        line = [0] * (ncols + 1)
        if b < 0:
            line[:n] = [-v for v in row]
            line[n + i] = -1
            line[artificial] = 1
            line[-1] = -b
            basis.append(artificial)
            artificial += 1
        else:
            line[:n] = row
            line[n + i] = 1
            line[-1] = b
            basis.append(n + i)
        tableau.append(line)
    for j in range(n):
        line = [0] * (ncols + 1)
        line[j] = line[n + len(rows) + j] = line[-1] = 1
        tableau.append(line)
        basis.append(n + len(rows) + j)

    d = 1
    if negative:
        phase1 = [0] * ncols
        for k, i in enumerate(negative):
            phase1[n + m + k] = weights[i]
        d, z = _simplex_min(tableau, basis, phase1, ncols, d)
        if z < 0:
            return None
        # Drive leftover artificials (all at zero) out of the basis.  Every
        # row has a nonzero structural or slack entry, because the slack
        # columns alone are invertible, so no row is redundant.
        for i, b in enumerate(basis):
            if b >= n + m:
                pivot_col = next(j for j in range(n + m) if tableau[i][j])
                d = _pivot(tableau, None, i, pivot_col, d)
                basis[i] = pivot_col
        tableau = [row[: n + m] + row[-1:] for row in tableau]
        ncols = n + m

    phase2 = [-c for c in objective] + [0] * (ncols - n)
    d, z = _simplex_min(tableau, basis, phase2, ncols, d)
    numerators = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            numerators[b] = tableau[i][-1]
    return z, d, numerators


def _normalize_fixings(fixings: Mapping[int, int] | Iterable[tuple[int, int]] | None, n: int):
    if fixings is None:
        return ()
    items = sorted(dict(fixings).items())
    for index, value in items:
        if not 0 <= index < n:
            raise ValueError(f"fixed variable index {index} out of range")
        if value not in (0, 1):
            raise ValueError(f"fixed value must be binary, got {value}")
    return tuple(items)


def lp_relax(milp: Milp, fixings=None) -> LpSolution:
    """Exact optimum of the LP relaxation with the given variables fixed.

    Free variables range over ``[0, 1]``; results are memoized per instance
    keyed by the fixing set, since branch-and-bound revisits the same
    subproblems across parameters and caps.  Raises ``LpSolveError`` naming
    the program and the fixing set if the simplex cannot finish.
    """
    fixed = _normalize_fixings(fixings, milp.n)
    cache = milp._lp_cache
    hit = cache.get(fixed)
    if hit is not None:
        return hit
    form = milp._integer_form
    fix = dict(fixed)
    free = [j for j in range(milp.n) if j not in fix]
    constant = sum(form.objective[j] * v for j, v in fixed)
    rhs = [b - sum(row[j] * v for j, v in fixed) for row, b in zip(form.rows, form.rhs)]
    try:
        result = _solve_box_lp(
            [form.objective[j] for j in free],
            [[row[j] for j in free] for row in form.rows],
            rhs,
            form.weights,
        )
    except LpSolveError as exc:
        where = f"program {milp.name!r}" if milp.name else "unnamed program"
        raise LpSolveError(
            f"{exc} ({where}, fixings {fix})", program=milp.name, fixings=fixed
        ) from None
    if result is None:
        solution = LpSolution("infeasible", None, None)
    else:
        z, d, numerators = result
        point = [Fraction(0)] * milp.n
        for j, v in fixed:
            point[j] = Fraction(v)
        for j, v in zip(free, numerators):
            point[j] = Fraction(v, d)
        value = Fraction(z + d * constant, d * form.objective_scale)
        solution = LpSolution("optimal", value, tuple(point))
    cache[fixed] = solution
    return solution


def scores(
    milp: Milp, fixings: tuple, relaxation: LpSolution, index: int
) -> tuple[Fraction, Fraction]:
    """Objective decreases of the children of a node, sorted ``fixings`` with
    LP ``relaxation``, from branching on variable ``index``.

    Returns ``(smaller, larger)`` of the two decreases; an infeasible child
    contributes the finite sentinel ``INFEASIBLE_SCORE``.  A child that
    fixes the variable at its value in the node's optimum keeps that optimum
    feasible, so its decrease is 0 and no LP is solved for it.
    """
    fix = dict(fixings)
    if index in fix:
        raise ValueError(f"variable {index} is already fixed at this node")
    if not relaxation.is_optimal:
        raise ValueError("scores need a node with an optimal relaxation")
    parent_value = relaxation.objective
    settled = relaxation.point[index]
    decreases = []
    for value in (0, 1):
        if settled == value:
            decreases.append(Fraction(0))
            continue
        child = lp_relax(milp, {**fix, index: value})
        if child.is_optimal:
            decreases.append(parent_value - child.objective)
        else:
            decreases.append(INFEASIBLE_SCORE)
    return min(decreases), max(decreases)


class _Expansion(NamedTuple):
    """A branched node as every run sees it.

    ``lines`` are the ``(variable, (intercept, slope))`` candidates of the
    branching argmax, each line ``high + (low - high) * rho`` scaled by one
    positive common factor to ints, which changes no winner, tie or
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
        pairs = [scores(milp, fixings, relaxation, i) for i in free]
        _, scaled = _scaled([v for pair in pairs for v in pair])
        lines = [(i, (high, low - high)) for i, low, high in zip(free, scaled[::2], scaled[1::2])]
        expansion = milp._expansions[fixings] = _Expansion(lines, {})
    return expansion


def _children(milp: Milp, fixings: tuple, index: int) -> tuple:
    """Both children of branching on ``index``, as ``_Expansion.children`` holds them."""
    out = []
    for value in (0, 1):
        child_fixings = tuple(sorted((*fixings, (index, value))))
        child_lp = lp_relax(milp, child_fixings)
        out.append((child_fixings, child_lp, child_lp.is_integral()))
    return tuple(out)


def _run_capped(
    milp: Milp, node_limit: int, tracker: DecisionTracker
) -> tuple[bool, int, Fraction | None]:
    """Best-first branch-and-bound capped at ``node_limit`` tree nodes.

    Returns ``(completed, tree_size, incumbent)``: whether the search
    finished within the limit, the nodes it built, and the best integral
    objective value found (None when there is none).  A frontier entry is
    ``(-objective, -depth, id, fixings, relaxation)`` with depth
    ``len(fixings)`` and id the node's creation index, so node selection
    pops the largest relaxation value (ties: deeper node, then lower id).
    These keys never depend on the mixture weight, so the only
    parameter-sensitive decisions are the branching argmaxes routed through
    the tracker.  Each node's score lines and children come from the
    program's node memo, so a node that an earlier run expanded costs one
    argmax over int lines.
    """
    if node_limit < 1:
        raise ValueError("node limit must be positive")
    root_lp = lp_relax(milp, None)
    if not root_lp.is_optimal:
        return True, 1, None
    if root_lp.is_integral():
        return True, 1, root_lp.objective
    size, incumbent = 1, None
    frontier = [(-root_lp.objective, 0, 0, (), root_lp)]
    while frontier:
        _, _, _, fixings, relaxation = heapq.heappop(frontier)
        if incumbent is not None and relaxation.objective <= incumbent:
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
                if incumbent is None or child_lp.objective > incumbent:
                    incumbent = child_lp.objective
                continue
            if incumbent is not None and child_lp.objective <= incumbent:
                continue
            depth = len(child_fixings)
            heapq.heappush(frontier, (-child_lp.objective, -depth, child_id, child_fixings, child_lp))
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
    return _run_outcome(milp, cap, standalone_tracker(rho))


def best_binary_solution(milp: Milp, rho, cap: int = MAX_TREE_SIZE):
    """Incumbent value of a capped run (None when infeasible or cap exceeded)."""
    completed, _, incumbent = _run_capped(milp, min(cap, MAX_TREE_SIZE), standalone_tracker(rho))
    return incumbent if completed else None


def bnb_partition(sample: PoolSample, tau: int) -> list[PartitionCell]:
    """Exact partition of [0, 1] into tree-invariance cells at the given cap.

    Per distinct instance, the unit interval is swept left to right: a
    capped run at the left endpoint of each unresolved interval yields both
    the capped loss and the first point where any branching decision flips.
    The per-instance partitions are then refined into a common partition
    whose solved fractions and loss multiplicities count every draw.
    """
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
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        # n ** 62 already saturates for n >= 2, so larger exponents change
        # nothing and would only build huge integers.
        return cell_count_ceiling(sample, min(2 * (tau + 1), 62))


def parse_milp(text: str, name: str = "") -> Milp:
    """Parse the plain-text program format.

    Line 1: ``n m``; line 2: ``n`` objective coefficients; then ``m`` lines
    of ``n`` row coefficients, a literal ``<=``, and the right-hand side.
    Values are whitespace-separated decimals or ``p/q`` fractions, parsed
    exactly.
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
    if not 1 <= num_vars <= MAX_VARIABLES:
        raise ValueError("num_vars out of range")
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
