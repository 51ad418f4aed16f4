"""Budget-capped agglomerative clustering with a mixed linkage rule.

The merge value of two clusters interpolates between their closest and
farthest pairwise distances: weight 1 recovers single linkage, weight 0
complete linkage.  A run performs at most a budgeted number of greedy
merges, then a dynamic program finds the cost of the best pruning of the
resulting forest under the k-median objective (cluster cost is the best
medoid among the cluster's own members).  A run counts as solved at the
smallest merge budget whose best pruning cost reaches the instance's
admissibility threshold.

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
last reused decision.  A node's pruning table depends only on its subtree,
so each is built once, when a prefix cost first needs it, and serves every
later merge budget and resumed run; per budget only the combination across
the roots is recomputed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

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
    and the cost threshold below which a clustering is admissible."""

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
        for i, row in enumerate(self.distances):
            if len(row) != n:
                raise ValueError("distance matrix must be square")
            if row[i] != 0:
                raise ValueError("diagonal distances must be zero")
            for j, value in enumerate(row):
                if value < 0:
                    raise ValueError("distances must be nonnegative")
                if value != self.distances[j][i]:
                    raise ValueError("distance matrix must be symmetric")
        # In integer form a violation d(i, l) - d(i, j) - d(j, l) is an
        # integer, so exceeding slack * scale means exceeding its floor.  The
        # inequality for (i, j, l) is the one for (l, j, i), so each j is
        # checked once per pair i < l.
        scale, d = self.integer_form
        slack = scale * _TRIANGLE_SLACK.numerator // _TRIANGLE_SLACK.denominator
        for i, row_i in enumerate(d):
            for j, row_j in enumerate(d):
                if j == i:
                    continue
                for l in range(i + 1, n):
                    if l != j and row_i[l] > row_i[j] + row_j[l] + slack:
                        raise ValueError(f"triangle inequality violated at ({i}, {j}, {l})")
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
        scale = math.lcm(*(v.denominator for row in self.distances for v in row))
        d = tuple(
            tuple(v.numerator * (scale // v.denominator) for v in row) for row in self.distances
        )
        return scale, d

    @classmethod
    def from_lists(cls, distances, k: int, theta, name: str = "") -> "ClusteringInstance":
        return cls(
            distances=tuple(tuple(to_fraction(v) for v in row) for row in distances),
            k=int(k),
            theta=to_fraction(theta),
            name=name,
        )


@dataclass(frozen=True)
class MergeForest:
    """State of a linkage run: singletons plus one node per performed merge.

    Node ids 0..n-1 are the points; merge ``s`` (0-based) creates node
    ``n + s``.  ``members[i]`` is the point set of node ``i``; ``roots`` are
    the nodes no merge has consumed, ascending.
    """

    size: int
    merges: tuple[tuple[int, int, int], ...]

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
    left), each node's member set, each node's pruning table once a prefix
    cost needed it, and cluster costs by member set.  A run at a point
    ``c'`` right of the previous run's point restarts at the first decision
    whose running bound is at most ``c'``; every step before it is reused,
    and so is the pruning table of every node those steps created.  In a
    sweep ``c'`` is the previous run's final bound, so that decision is the
    first whose bound equals ``c'``.  Successive ``advance`` calls must come
    from one sweep, left to right, at one budget.
    """

    def __init__(self, instance: ClusteringInstance) -> None:
        n = instance.n
        self.instance = instance
        self.size = n
        scale, self.distances = instance.integer_form
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
        self.lines: list[list[tuple[int, int] | None]] = [
            [(d, 0) for d in row] + [None] * (n - 1) for row in self.distances
        ] + [[None] * (2 * n - 1) for _ in range(n - 1)]
        self.merges: list[tuple[int, int, int]] = []
        # (s, bound) for each merge decision s that lowered the running bound.
        self.drops: list[tuple[int, Fraction]] = []
        self.roots: list[tuple[int, ...]] = [tuple(range(n))]  # roots[m]: after m merges
        self.members: list[frozenset[int]] = [frozenset((i,)) for i in range(n)]
        self.tables: list[dict[int, int]] = [{1: 0}] * n
        self.cluster_costs: dict[frozenset[int], int] = {}

    def _resume_step(self, tracker: DecisionTracker) -> int:
        """First merge step the run at the tracker's point must recompute.

        Every step before it has its crossings strictly right of the new
        point, so its winner and its contribution to the bound are what they
        were.  The drops from that step on are deleted, and the tracker's
        bound is set to the one recorded after the last reused step: every
        recorded drop lies below a sweep tracker's starting bound 1.  A first
        run has no drops and recomputes from step 0.
        """
        point, drops = tracker.point, self.drops
        kept = next((i for i, (_, bound) in enumerate(drops) if bound <= point), len(drops))
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
        del self.members[n + start :], self.tables[n + start :]
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
            self.members.append(self.members[a] | self.members[b])
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
        at ``instance.k`` clusters; at most ``k`` roots may remain."""
        k = self.instance.k
        built = len(self.tables) - self.size
        _extend_tables(
            self.tables,
            self.merges[built:merge_count],
            self.members,
            k,
            self.distances,
            self.cluster_costs,
        )
        return _covering_cost(self.tables, self.roots[merge_count], k)


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


def _cluster_cost(members: frozenset[int], distances: tuple[tuple[int, ...], ...]) -> int:
    return min(sum(distances[p][c] for p in members) for c in members)


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


def _extend_tables(
    tables: list[dict[int, int]],
    merges: Sequence[tuple[int, int, int]],
    members: Sequence[frozenset[int]],
    k: int,
    distances: tuple[tuple[int, ...], ...],
    cluster_costs: dict[frozenset[int], int],
) -> None:
    """Append the pruning table of each merge's node, in merge order.

    A node's table maps each achievable cluster count up to ``k`` to the best
    cost of covering its points with clusters from its subtree: the node
    itself as one cluster, or its two children's tables combined.  It depends
    only on the subtree, so one table serves every forest prefix holding the
    node.  ``merges`` must create node ids ``len(tables)``, ``len(tables) +
    1``, ...; ``cluster_costs`` memoizes cluster costs by member set.
    """
    for left, right, node in merges:
        cluster = members[node]
        cost = cluster_costs.get(cluster)
        if cost is None:
            cost = cluster_costs[cluster] = _cluster_cost(cluster, distances)
        table = _combine(tables[left], tables[right], k)
        table[1] = cost
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
    sentinel.
    """
    if not 1 <= k <= forest.size:
        raise ValueError("k must lie in [1, n]")
    if len(forest.roots) > k:
        return PruningResult(cost=math.inf)
    scale, distances = instance.integer_form
    tables: list[dict[int, int]] = [{1: 0}] * forest.size
    _extend_tables(tables, forest.merges, forest.members, k, distances, {})
    return PruningResult(cost=Fraction(_covering_cost(tables, forest.roots, k), scale))


def _run_outcome(run: _LinkageRun, tau: int, tracker: DecisionTracker) -> CappedRunOutcome:
    """Smallest merge budget whose best pruning is admissible, if within cap.

    The run is at the tracker's point.  The best pruning cost is
    non-increasing in the merge budget (later forests contain every earlier
    node), so the first admissible budget is the exact loss.  A prefix of
    ``m`` merges has ``n - m`` roots, which no selection of ``k`` clusters
    covers while ``m < n - k``, so the search starts at budget ``n - k``.
    Budgets are capped at ``n - 1`` merges; a cap beyond that cannot help.
    """
    n, k = run.size, run.instance.k
    budget = min(tau, n - 1)
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
    if not 1 <= k <= n:
        raise ValueError("k must lie in [1, n]")
    best = None
    points = range(n)
    for centers in itertools.combinations(points, k):
        cost = sum(min(to_fraction(distances[p][c]) for c in centers) for p in points)
        if best is None or cost < best:
            best = cost
    return best


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
    symmetric matrix).  Symmetry, the zero diagonal, and the triangle
    inequality are all validated.
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
