"""Budget-capped agglomerative clustering with a mixed linkage rule.

The merge value of two clusters interpolates between their closest and
farthest pairwise distances: weight 1 recovers single linkage, weight 0
complete linkage.  A run performs at most a budgeted number of greedy
merges, then a dynamic program finds the cost of the best pruning of the
resulting forest under the k-median objective.  A cluster costs its best
medoid among its own members, the least of its column sums (its total
distance to each point) over them; a merge's column sums are its two
children's added entry by entry.  A run counts as solved at the smallest
merge budget whose best pruning cost reaches the admissibility threshold.

Merge values are affine in the mixture weight, so merge sequences are
piecewise constant over the unit interval; the partition here computes the
exact invariance cells with rational arithmetic, the same way the
branch-and-bound domain does.  Runs work on the distances scaled once to
integers (``ClusteringInstance.integer_form``), so merge values are integer
lines and pruning costs integer sums.

A sweep does not rerun the linkage from scratch at each cell's left end.
It records the tracker's running bound after each merge decision; the next
cell's left end ``c'`` is the final bound, and the run there resumes at the
first decision whose running bound equals ``c'``.  That is exact: every
earlier decision has all its crossings strictly right of ``c'``, so at
``c'`` it picks the same pair and contributes the same crossings, and the
resumed run starts from the saved roots with the bound recorded after the
last reused decision.  A node's column sums and pruning table depend only
on its subtree, so each is built once, when a prefix cost first needs it,
and serves every later merge budget and resumed run.

Two exact facts leave most prefixes without tables.  A prefix with exactly
``k`` roots has one exact-k pruning, its roots, so its cost is their cluster
costs summed and only column sums are built.  For ``k >= 2`` the last
merge's lone root is never one of ``k`` clusters, so budget ``n - 1`` costs
what ``n - 2`` costs: the run stops at ``n - 2`` merges and never makes the
last one.  Tables are built, and only the roots' combination is recomputed
per budget, for prefixes with fewer than ``k`` roots; at ``k = 2`` there
are none.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import Any, Collection, Sequence

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
    "ClusteringInstance",
    "MergeForest",
    "PruningResult",
    "ClusteringProblem",
    "MAX_POINTS",
    "capped_linkage_run",
    "best_pruning",
    "clustering_run_with_cap",
    "clustering_partition",
    "exact_kmedian_cost",
    "parse_instance",
    "format_instance",
    "load_instance",
    "random_metric_instance",
]

MAX_POINTS = 12
_TRIANGLE_SLACK = Fraction(1, 10**9)


@dataclass(frozen=True)
class ClusteringInstance:
    """A metric over up to ``MAX_POINTS`` points, a target cluster count,
    and the cost threshold below which a clustering is admissible.

    Construction validates the matrix exactly, on ``integer_form``: square,
    zero diagonal, nonnegative, symmetric, then the triangle inequality up
    to a slack of ``1e-9``.  The first failed check raises ``ValueError``;
    a ``k`` that is not an integer, or is a bool, raises ``TypeError``.
    """

    distances: tuple[tuple[Fraction, ...], ...]
    k: int
    theta: Fraction
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        n = len(self.distances)
        if n < 2:
            raise ValueError("need at least two points")
        if n > MAX_POINTS:
            raise ValueError(f"at most {MAX_POINTS} points supported")
        require_rational("ClusteringInstance", "distances", self.distances)
        require_rational("ClusteringInstance", "theta", [[self.theta]])
        # Every check runs on the integer form: scaling by a positive lcm
        # keeps each sign and each equality.
        scale, d = self.integer_form
        for i, row in enumerate(d):
            if len(row) != n:
                raise ValueError("distance matrix must be square")
            if row[i] != 0:
                raise ValueError("diagonal distances must be zero")
            for j, value in enumerate(row):
                if value < 0:
                    raise ValueError("distances must be nonnegative")
                if len(d[j]) <= i:  # a later row too short to mirror this one
                    raise ValueError("distance matrix must be square")
                if value != d[j][i]:
                    raise ValueError("distance matrix must be symmetric")
        # In integer form a violation d(i, l) - d(i, j) - d(j, l) is an
        # integer, so exceeding slack * scale means exceeding its floor.  The
        # inequality for (i, j, l) is the one for (l, j, i), so each j is
        # checked once per pair i < l.
        slack = scale * _TRIANGLE_SLACK.numerator // _TRIANGLE_SLACK.denominator
        for i, row_i in enumerate(d):
            for j, row_j in enumerate(d):
                if j == i:
                    continue
                for l in range(i + 1, n):
                    if l != j and row_i[l] > row_i[j] + row_j[l] + slack:
                        raise ValueError(f"triangle inequality violated at ({i}, {j}, {l})")
        require_integer("k", self.k)
        if not 1 <= self.k <= n:
            raise ValueError("k must lie in [1, n]")
        if self.theta <= 0:
            raise ValueError("theta must be positive")

    @property
    def n(self) -> int:
        return len(self.distances)

    @cached_property
    def integer_form(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(scale, d)``: the distances times ``scale``, the lcm of their
        denominators, as ints."""
        return integer_rows(self.distances)

    @classmethod
    def from_lists(cls, distances, k: int, theta, name: str = "") -> "ClusteringInstance":
        *distances, (theta,) = parse_rational_rows([*distances, [theta]])
        return cls(distances=tuple(distances), k=k, theta=theta, name=name)


@dataclass(frozen=True)
class MergeForest:
    """State of a linkage run: singletons plus one node per performed merge.

    Node ids 0..n-1 are the points; merge ``s`` (0-based) creates node
    ``n + s``.  ``members[i]`` is the point set of node ``i``; ``roots`` are
    the nodes no merge has consumed, ascending.  A merge that does not join
    two distinct roots into node ``n + s`` raises ``ValueError``.
    """

    size: int
    merges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        roots = set(range(self.size))
        for s, (a, b, node) in enumerate(self.merges):
            if a == b or not {a, b} <= roots or node != self.size + s:
                raise ValueError(f"merge {s} {(a, b, node)} must join two distinct roots into node {self.size + s}")
            roots = roots - {a, b} | {node}

    @cached_property
    def members(self) -> tuple[frozenset[int], ...]:
        members = [frozenset((i,)) for i in range(self.size)]
        for a, b, _ in self.merges:
            members.append(members[a] | members[b])
        return tuple(members)

    @cached_property
    def roots(self) -> tuple[int, ...]:
        merged_away = {node for a, b, _ in self.merges for node in (a, b)}
        return tuple(i for i in range(self.size + len(self.merges)) if i not in merged_away)

    def prefix(self, merge_count: int) -> "MergeForest":
        """The forest after only the first ``merge_count`` merges."""
        if not 0 <= merge_count <= len(self.merges):
            raise ValueError("merge_count out of range")
        return MergeForest(size=self.size, merges=self.merges[:merge_count])


class _LinkageRun:
    """One instance's linkage run, which a left-to-right sweep resumes.

    The run keeps the linkage line of every pair of node ids in a table
    indexed by node id, the live roots after each merge count, every merge
    decision that lowered the tracker's running bound (with the bound it
    left), each node's member tuple, and each node's column sums and pruning
    table once a prefix cost needed them.  A run at a point ``c'`` right of
    the previous run's point restarts at the first decision whose running
    bound is at most ``c'``; every step before it is reused, and so are the
    column sums and pruning table of every node those steps created.  In a
    sweep ``c'`` is the previous run's final bound, so that decision is the
    last recorded one, and the budget is the last one ``_run_outcome``
    prices, which for ``k >= 2`` stops short of the last merge; ``advance``
    accepts any budget up to ``n - 1``.  Successive ``advance`` calls must
    come from one sweep, left to right, at one budget.
    """

    def __init__(self, instance: ClusteringInstance) -> None:
        n = instance.n
        self.instance = instance
        self.size = n
        scale, distances = instance.integer_form
        theta = instance.theta
        # Pruning costs are integer-form ints, so cost <= theta * scale is
        # cost <= floor(theta * scale).
        self.threshold = theta.numerator * scale // theta.denominator
        # Each root pair's linkage line ``(farthest, closest - farthest)`` in
        # integer form, built once when the pair forms: its intercept is the
        # farthest pair distance and intercept + slope the closest.  Scaling
        # every line by one positive factor leaves the argmin and its
        # crossings unchanged.  ``lines[i][j] == lines[j][i]``; a resumed step
        # rewrites the node ids it recreates, so no live pair reads a stale line.
        zeros, pad = [0] * n, [None] * (n - 1)
        self.lines: list[list[tuple[int, int] | None]] = [
            [*zip(row, zeros), *pad] for row in distances
        ] + [[None] * (2 * n - 1) for _ in range(n - 1)]
        self.merges: list[tuple[int, int, int]] = []
        # (s, bound) for each merge decision s that lowered the running bound.
        self.drops: list[tuple[int, Fraction]] = []
        self.roots: list[tuple[int, ...]] = [tuple(range(n))]  # roots[m]: after m merges
        self.members: list[tuple[int, ...]] = [(i,) for i in range(n)]
        self.sums: list[Sequence[int]] = list(distances)
        self.tables: list[dict[int, int]] = [{1: 0}] * n

    def _resume_step(self, tracker: DecisionTracker) -> int:
        """First merge step the run at the tracker's point must recompute.

        Every step before it has its crossings strictly right of the new
        point, so its winner and its contribution to the bound are what they
        were.  The recorded bounds strictly fall, so the drops from that step
        on are a suffix, scanned from the right.  They are deleted, and the
        tracker's bound is set to the one recorded after the last reused step:
        every recorded drop lies below a sweep tracker's starting bound 1.  A
        first run has no drops and recomputes from step 0.
        """
        point, drops = tracker.point, self.drops
        kept = len(drops)
        while kept and drops[kept - 1][1] <= point:
            kept -= 1
        start = drops[kept][0] if kept < len(drops) else len(self.merges)
        del drops[kept:]
        if drops:
            tracker.bound = drops[-1][1]
        return start

    def advance(self, tracker: DecisionTracker, budget: int) -> None:
        """Bring the run to ``budget`` greedy merges at the tracker's point."""
        n = self.size
        start = self._resume_step(tracker)
        del self.merges[start:], self.roots[start + 1 :]
        del self.members[n + start :], self.sums[n + start :], self.tables[n + start :]
        # Roots stay ascending (a new id is the largest), so pairs come in tie-break order.
        roots = list(self.roots[start])
        lines = self.lines
        for step in range(start, budget):
            candidates = [((i, j), lines[i][j]) for i, j in itertools.combinations(roots, 2)]
            bound = tracker.bound
            a, b = tracker.argmin(candidates)
            # The tracker assigns a new bound only when the bound shrinks.
            if tracker.bound is not bound:
                self.drops.append((step, tracker.bound))
            new_id = n + step
            self.merges.append((a, b, new_id))
            self.members.append(self.members[a] + self.members[b])
            roots.remove(a)
            roots.remove(b)
            row_a, row_b, row_new = lines[a], lines[b], lines[new_id]
            for r in roots:
                far_a, slope_a = row_a[r]
                far_b, slope_b = row_b[r]
                close_a, close_b = far_a + slope_a, far_b + slope_b
                farthest = far_a if far_a > far_b else far_b
                line = (farthest, (close_a if close_a < close_b else close_b) - farthest)
                row_new[r] = lines[r][new_id] = line
            roots.append(new_id)
            self.roots.append(tuple(roots))

    def pruning_cost(self, merge_count: int) -> int:
        """Integer-form best pruning cost of the first ``merge_count`` merges
        at ``instance.k`` clusters; at most ``k`` roots may remain.

        The column sums are extended to the prefix first.  A prefix with
        exactly ``k`` roots has one exact-k pruning, its roots, so it costs
        the sum of their cluster costs (each root's ``table[1]``).  With
        fewer roots the nodes' pruning tables are built and combined.
        """
        k, n, sums = self.instance.k, self.size, self.sums
        _extend_sums(sums, self.merges[len(sums) - n : merge_count])
        roots = self.roots[merge_count]
        if len(roots) == k:
            return sum(min(map(sums[root].__getitem__, self.members[root])) for root in roots)
        tables = self.tables
        _extend_tables(tables, sums, self.merges[len(tables) - n : merge_count], self.members, k)
        return _covering_cost(tables, roots, k)


def capped_linkage_run(instance: ClusteringInstance, rho, tau_merges: int) -> MergeForest:
    """Perform exactly ``tau_merges`` greedy merges at the weight ``rho``.

    Each step merges the root pair with the smallest linkage value; ties
    break as ``DecisionTracker`` says, then toward the lexicographically
    smallest (smaller id, larger id) pair.  ``rho`` is read and checked by
    ``standalone_tracker``.  A sweep drives ``_LinkageRun`` directly.
    """
    n = instance.n
    if not 0 <= tau_merges <= n - 1:
        raise ValueError("tau_merges must lie in [0, n - 1]")
    run = _LinkageRun(instance)
    run.advance(standalone_tracker(rho), tau_merges)
    return MergeForest(size=n, merges=tuple(run.merges))


@dataclass(frozen=True)
class PruningResult:
    """Cost of the best exact-k antichain selection."""

    cost: Any  # Fraction, or math.inf when no selection of size k exists


def _combine(left: dict[int, int], right: dict[int, int], k: int) -> dict[int, int]:
    """Best cost per cluster count, at most ``k``, of covering two disjoint
    point sets that each have a table of best costs per count."""
    table: dict[int, int] = {}
    for q_left, c_left in left.items():
        for q_right, c_right in right.items():
            q = q_left + q_right
            if q <= k:
                total = c_left + c_right
                if q not in table or total < table[q]:
                    table[q] = total
    return table


def _extend_sums(sums: list[Sequence[int]], merges: Sequence[tuple[int, int, int]]) -> None:
    """Append the column sums of each merge's node, its children's added entry
    by entry.  ``merges`` must create node ids ``len(sums)``, ``len(sums) + 1``, ..."""
    for left, right, _ in merges:
        sums.append([*map(operator.add, sums[left], sums[right])])


def _extend_tables(
    tables: list[dict[int, int]],
    sums: Sequence[Sequence[int]],
    merges: Sequence[tuple[int, int, int]],
    members: Sequence[Collection[int]],
    k: int,
) -> None:
    """Append the pruning table of each merge's node, in order.

    A node's cluster cost is the least of its column sums (``sums[node]``,
    which must already be built) over its own members.  Its table maps each
    achievable cluster count up to ``k`` to the best cost of covering its
    points with clusters from its subtree: the node itself as one cluster,
    or its two children's tables combined.  It depends only on the subtree,
    so it serves every forest prefix holding the node.  ``merges`` must
    create node ids ``len(tables)``, ``len(tables) + 1``, ...
    """
    for left, right, node in merges:
        table = _combine(tables[left], tables[right], k)
        table[1] = min(map(sums[node].__getitem__, members[node]))
        tables.append(table)


def _covering_cost(tables: Sequence[dict[int, int]], roots: Sequence[int], k: int) -> int:
    """Best cost of covering all points with exactly ``k`` clusters, the
    roots' tables combined.  At most ``k`` roots may remain, and there are
    at least ``k`` points; a node's table holds every count up to its size,
    so some selection of ``k`` clusters always exists."""
    best: dict[int, int] = {0: 0}
    for root in roots:
        best = _combine(best, tables[root], k)
    return best[k]


def best_pruning(forest: MergeForest, k: int, instance: ClusteringInstance) -> PruningResult:
    """Minimum k-median cost over all exact-k antichain selections.

    Each node gets a table of best costs per cluster count up to ``k`` (see
    ``_extend_tables``), and the roots' tables combine the same way into the
    cost of covering all points.  The tables hold integer-form costs; the
    result is rescaled to a Fraction.  When more roots than k exist no
    selection of k clusters covers the points and the cost is the infinity
    sentinel.  A forest over other than the instance's points raises
    ``ValueError``.
    """
    if forest.size != instance.n:
        raise ValueError(f"forest of {forest.size} points for an instance of {instance.n}")
    if not 1 <= k <= forest.size:
        raise ValueError("k must lie in [1, n]")
    if len(forest.roots) > k:
        return PruningResult(cost=math.inf)
    scale, distances = instance.integer_form
    sums: list[Sequence[int]] = list(distances)
    _extend_sums(sums, forest.merges)
    tables: list[dict[int, int]] = [{1: 0}] * forest.size
    _extend_tables(tables, sums, forest.merges, forest.members, k)
    return PruningResult(cost=Fraction(_covering_cost(tables, forest.roots, k), scale))


def _run_outcome(run: _LinkageRun, tau: int, tracker: DecisionTracker) -> CappedRunOutcome:
    """Smallest merge budget whose best pruning is admissible, if within cap.

    The run is brought to the tracker's point.  The best pruning cost is
    non-increasing in the merge budget (later forests contain every earlier
    node), so the first admissible budget is the exact loss.  A prefix of
    ``m`` merges has ``n - m`` roots, which no selection of ``k`` clusters
    covers while ``m < n - k``, so the search starts at budget ``n - k``.
    It ends at the cap or at the last budget that prices anew: ``n - 1``
    for ``k = 1``, else ``n - 2``, since the last merge's lone root is never
    one of ``k >= 2`` clusters.  The run advances only that far, so for
    ``k >= 2`` the merge joining the last two roots is never made.
    """
    n, k = run.size, run.instance.k
    budget = min(tau, n - min(k, 2))
    run.advance(tracker, budget)
    for tau_prime in range(n - k, budget + 1):
        if run.pruning_cost(tau_prime) <= run.threshold:
            return CappedRunOutcome.finished(tau_prime)
    return CappedRunOutcome.truncated(tau)


def clustering_run_with_cap(rho, instance: ClusteringInstance, tau: int) -> CappedRunOutcome:
    """Capped run at one weight: solved with the exact merge budget, or cap-exceeded."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return _run_outcome(_LinkageRun(instance), tau, standalone_tracker(rho))


def clustering_partition(sample: PoolSample, tau: int) -> list[PartitionCell]:
    """Exact partition of [0, 1] into merge-invariance cells at the given cap.

    Each distinct instance is swept once, and each cell's run resumes the
    previous cell's at the first merge whose decision changes (see
    ``_LinkageRun``).  The refined cells' solved fractions and loss
    multiplicities count every draw.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")

    def sweep_one(instance: ClusteringInstance):
        run = _LinkageRun(instance)
        return sweep_unit_interval(lambda tracker: _run_outcome(run, tau, tracker))

    partitions, counts = sweep_distinct(sweep_one, sample, tau)
    return cells_from_refinement(refine_cells(partitions), counts)


def exact_kmedian_cost(distances: Sequence[Sequence[Any]], k: int) -> Fraction:
    """Brute-force optimal k-median cost: best k centers, nearest-center
    assignment.  Any partition's medoid cost is at least this."""
    n = len(distances)
    require_integer("k", k)
    if not 1 <= k <= n:
        raise ValueError("k must lie in [1, n]")
    scale, rows = integer_rows(parse_rational_rows(distances))
    best = min(
        sum(min(map(row.__getitem__, centers)) for row in rows)
        for centers in itertools.combinations(range(n), k)
    )
    return Fraction(best, scale)


class ClusteringProblem(ConfigProblem):
    """Configuration problem over a finite pool of clustering instances."""

    def run_with_cap(self, rho, instance: ClusteringInstance, tau: int) -> CappedRunOutcome:
        return clustering_run_with_cap(rho, instance, tau)

    def get_partition(self, sample: PoolSample, tau: int) -> list[PartitionCell]:
        return clustering_partition(sample, tau)

    def f_bound(self, sample: PoolSample, tau: int) -> int:
        """Analytic ceiling on the cell count: ``sum_j n_j^8 + 1``, saturating at ``2**62``."""
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        return cell_count_ceiling(sample, 8)


def parse_instance(text: str, name: str = "") -> ClusteringInstance:
    """Parse the plain-text metric format.

    Line 1: ``n k theta``; then ``n`` lines of ``n`` distances (the full
    symmetric matrix).  Values are decimals or ``p/q`` fractions, parsed
    exactly, each distinct text once (``from_lists``).  Symmetry,
    the zero diagonal, and the triangle inequality are all validated, on
    the exact values (see ``ClusteringInstance``).
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty instance file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError("first line must be 'n k theta'")
    n, k = int(header[0]), int(header[1])
    theta = header[2]
    if len(lines) != 1 + n:
        raise ValueError(f"expected {1 + n} nonblank lines, found {len(lines)}")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n:
            raise ValueError(f"each matrix line must carry {n} distances")
        rows.append(tokens)
    return ClusteringInstance.from_lists(rows, k, theta, name=name)


def format_instance(instance: ClusteringInstance) -> str:
    lines = [f"{instance.n} {instance.k} {format_rational(instance.theta)}"]
    for row in instance.distances:
        lines.append(" ".join(map(format_rational, row)))
    return "\n".join(lines) + "\n"


def load_instance(path: str | Path) -> ClusteringInstance:
    path = Path(path)
    return parse_instance(path.read_text(), name=path.name)


def random_metric_instance(
    rng: np.random.Generator, num_points: int = 6, k: int = 2
) -> ClusteringInstance:
    """Random integer metric: distinct grid points under the L1 distance.

    The admissibility threshold is 6/5 of the exhaustive optimal k-median
    cost, so every instance is solvable once enough merges are allowed.
    """
    require_integer("num_points", num_points)
    require_integer("k", k)
    if not 2 <= num_points <= MAX_POINTS:
        raise ValueError("num_points out of range")
    if not 1 <= k < num_points:
        raise ValueError("k must lie in [1, num_points)")
    points: list[tuple[int, int]] = []
    seen = set()
    while len(points) < num_points:
        candidate = (int(rng.integers(0, 13)), int(rng.integers(0, 13)))
        if candidate not in seen:
            seen.add(candidate)
            points.append(candidate)
    distances = [
        [
            Fraction(abs(p[0] - q[0]) + abs(p[1] - q[1]))
            for q in points
        ]
        for p in points
    ]
    theta = exact_kmedian_cost(distances, k) * Fraction(6, 5)
    return ClusteringInstance.from_lists(distances, k, theta)
