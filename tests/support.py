"""Shared fixtures and independent oracles used across the test modules.

Every oracle here is deliberately implemented by brute force (enumeration,
scanning, bisection on the raw formula) so it stays independent of the
library code paths it checks.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from hypothesis import strategies as st

from frugal.bnb import (
    INFEASIBLE_SCORE,
    MAX_TREE_SIZE,
    _run_capped,
    format_milp,
    random_milp,
)
from frugal.clustering import (
    ClusteringInstance,
    MergeForest,
    _LinkageRun,
    exact_kmedian_cost,
    format_instance,
)
from frugal.core import (
    CappedRunOutcome,
    ConfigProblem,
    ParamCell,
    ParamSpace,
    PartitionCell,
    PoolSample,
    format_rational,
    to_fraction,
)
from frugal.stats import GammaInputs
from frugal.sweep import DecisionTracker, standalone_tracker, sweep_unit_interval


def sample_of(pool, uids):
    """The sample whose draws are the pool indices ``uids``, as counts."""
    return PoolSample(pool, np.bincount(np.asarray(uids, dtype=np.int64), minlength=len(pool)))


def whole_pool(items):
    """The sample that draws each of ``items`` once."""
    return sample_of(items, range(len(items)))


def draw_indices(sample):
    """The pool index of each draw of ``sample``, grouped by pool index."""
    return np.repeat(np.arange(len(sample.pool)), sample.counts)


def draw_one(problem, rng):
    """One instance drawn from the problem's pool."""
    return problem.pool[int(problem.sample_many(rng, 1).uids[0])]


def cell_contains(cell, x):
    """Whether the ``ParamCell`` ``cell`` owns ``x``: ``lo <= x < hi``, or
    ``x == hi`` when ``hi`` is the space's upper bound 1."""
    return cell.lo <= x < cell.hi or x == cell.hi == ParamSpace.upper


def cell_from_losses(cell, z, losses):
    """A ``PartitionCell`` over the per-draw capped-loss vector ``losses``,
    with one distinct instance per distinct loss value."""
    values, counts = np.unique(np.asarray(losses, dtype=np.int64), return_counts=True)
    return PartitionCell(cell=cell, z=z, losses=values, counts=counts)


def _constant_cell(cell, z, capped_loss, count):
    """A ``PartitionCell`` whose ``count`` draws all have one capped loss."""
    return PartitionCell(cell=cell, z=z, losses=[capped_loss], counts=[count])


def sorted_tail_capped_mean(losses, rank):
    """The ``rank``-th smallest entry of a per-draw loss vector and the
    float64 mean of the vector capped there, by a full sort."""
    sorted_losses = np.sort(np.asarray(losses, dtype=np.int64))
    if not 1 <= rank <= sorted_losses.size:
        raise ValueError(f"quantile index {rank} outside [1, {sorted_losses.size}]")
    cutoff = int(sorted_losses[rank - 1])
    return cutoff, float(np.minimum(sorted_losses, cutoff).mean())


def per_draw_sample_losses(problem, rho, n_samples, rng, ceiling):
    """Losses of the ``n_samples`` draws of one ``sample_many`` on ``rng``,
    grouped by pool index, each draw measured by its own run at the ceiling."""
    sample = problem.sample_many(rng, n_samples)
    return np.array(
        [
            problem.run_with_cap(rho, problem.pool[uid], ceiling).budget_used
            for uid in draw_indices(sample).tolist()
        ],
        dtype=np.int64,
    )


def check_pool_cells_against_gather(problem, sample, cells, tau):
    """Pool cells of ``sample`` against per-draw vectors gathered by pool index.

    Each pool instance is run standalone at the cell's left end; the
    per-draw capped losses are those gathered by ``draw_indices``, and the
    solved fraction counts the solved draws.
    """
    draws = draw_indices(sample)
    for cell in cells:
        lo = cell.cell.lo
        outcomes = [problem.run_with_cap(lo, instance, tau) for instance in problem.pool]
        per_pool = np.array([o.capped_loss(tau) for o in outcomes], dtype=np.int64)
        solved = np.array([o.solved for o in outcomes], dtype=np.bool_)
        assert cell.capped_losses == per_pool[draws].tolist()
        assert sum(cell.counts) == len(sample)
        assert cell.z == int(np.count_nonzero(solved[draws])) / len(sample)


def per_draw_synthetic_cells(family, sample, tau):
    """``(capped_losses, z)`` of the low, mid and high cells as per-draw
    vectors over a synthetic sample, computed draw by draw from the coins
    its pool indices encode."""
    draws = draw_indices(sample)
    coin_low, coin_high = (draws & 1) != 0, (draws >> 1) != 0
    raw = {
        "low": np.where(coin_low, family.loss_low, family.loss_mid),
        "mid": np.full(len(sample), family.loss_mid),
        "high": np.where(coin_high, family.loss_high, family.loss_mid),
    }
    return [
        (np.minimum(raw[label], tau).astype(np.int64), float((raw[label] <= tau).mean()))
        for label in ("low", "mid", "high")
    ]


def brute_tail_quantile(law, delta):
    """Scan every integer budget up to just past the support maximum."""
    values = [v for v, _ in law]
    best = None
    for tau in range(0, max(values) + 2):
        tail = sum(p for v, p in law if v >= tau)
        if tail >= delta:
            best = tau
    return best


def loss_law(family, rho):
    """The ``SyntheticFamily`` loss law at ``rho``, as ``(loss, probability)``
    pairs read off the coin that drives its region."""
    region = family.region(rho)
    if region == "low":
        return ((family.loss_mid, 0.5), (family.loss_low, 0.5))
    if region == "mid":
        return ((family.loss_mid, 1.0),)
    return ((family.loss_mid, 0.5), (family.loss_high, 0.5))


def tail_quantile(family, rho, delta):
    """The exact ``delta``-tail quantile of the ``SyntheticFamily`` loss law
    at ``rho``."""
    return brute_tail_quantile(loss_law(family, rho), delta)


def capped_mean(family, rho, cap):
    """The exact mean of the ``SyntheticFamily`` loss law at ``rho``, capped
    at ``cap``."""
    return sum(p * min(v, cap) for v, p in loss_law(family, rho))


class RecordingTracker(DecisionTracker):
    """A tracker that records each ``argmax`` winner in ``winners``."""

    __slots__ = ("winners",)

    def __init__(self, point, upper):
        super().__init__(point, upper)
        self.winners = []

    def argmax(self, candidates):
        winner = super().argmax(candidates)
        self.winners.append(winner)
        return winner


def branching_trace(milp, rho, cap):
    """The branched-variable sequence of a capped standalone ``bnb`` run, for
    execution-invariance checks.  Node selection keys do not depend on the
    weight, so equal sequences mean equal search trees."""
    standalone = standalone_tracker(rho)
    tracker = RecordingTracker(standalone.point, None)
    _run_capped(milp, min(cap, MAX_TREE_SIZE), tracker)
    return tuple(tracker.winners)


def best_binary_solution(milp, rho, cap=MAX_TREE_SIZE):
    """Incumbent value of a capped standalone ``bnb`` run (None when the
    program is infeasible or the cap is exceeded)."""
    completed, _, incumbent = _run_capped(milp, min(cap, MAX_TREE_SIZE), standalone_tracker(rho))
    return lp_view(incumbent)[1] if completed and incumbent is not None else None


def brute_binary_optimum(milp):
    """Best feasible binary objective by enumerating all assignments."""
    best = None
    for bits in itertools.product((0, 1), repeat=milp.n):
        feasible = all(
            sum(row[j] * bits[j] for j in range(milp.n)) <= b
            for row, b in zip(milp.rows, milp.rhs)
        )
        if not feasible:
            continue
        value = sum(c * x for c, x in zip(milp.objective, bits))
        if best is None or value > best:
            best = value
    return best


def reference_kmedian_cost(distances, k):
    """Optimal k-median cost over every choice of ``k`` centers, each entry
    read as its own ``Fraction`` (``exact_kmedian_cost`` sums the integer
    form instead)."""
    points = range(len(distances))
    return min(
        sum(min(to_fraction(distances[p][c]) for c in centers) for p in points)
        for centers in itertools.combinations(points, k)
    )


def enumerate_prunings(forest, k, instance):
    """Minimum pruning cost by enumerating every antichain selection.

    A selection picks, per root, a frontier of its subtree (either the node
    itself or frontiers of both children, recursively); selections with
    exactly k clusters are scored directly.
    """
    children = {new: (a, b) for a, b, new in forest.merges}

    def frontiers(node):
        yield (node,)
        if node in children:
            left, right = children[node]
            for f_left in frontiers(left):
                for f_right in frontiers(right):
                    yield f_left + f_right

    def cluster_cost(members):
        return min(
            sum((instance.distances[p][c] for p in members), Fraction(0))
            for c in members
        )

    best = math.inf
    for combo in itertools.product(*(list(frontiers(r)) for r in forest.roots)):
        nodes = [n for f in combo for n in f]
        if len(nodes) != k:
            continue
        cost = sum(
            (cluster_cost(forest.members[n]) for n in nodes), Fraction(0)
        )
        if cost < best:
            best = cost
    return best


def tracked_linkage_run(instance, tracker, budget):
    """``budget`` greedy merges at ``tracker.point`` by a fresh
    ``_LinkageRun``, whose selections shrink ``tracker.bound``."""
    run = _LinkageRun(instance)
    run.advance(tracker, budget)
    return MergeForest(size=instance.n, merges=tuple(run.merges))


def reference_clustering_sweep(instance, tau):
    """The clustering sweep without resumption: ``(lo, hi, outcome)`` cells
    from a fresh ``tracked_linkage_run`` at each cell's left end, whose every
    prefix from budget 0 is scored by ``enumerate_prunings``.
    """
    budget = min(tau, instance.n - 1)

    def execute(tracker):
        forest = tracked_linkage_run(instance, tracker, budget)
        for b in range(budget + 1):
            if enumerate_prunings(forest.prefix(b), instance.k, instance) <= instance.theta:
                return CappedRunOutcome.finished(b)
        return CappedRunOutcome.truncated(tau)

    return sweep_unit_interval(execute)


class ReferenceLinkageRun(NamedTuple):
    """A capped linkage run as ``reference_linkage_run`` replays it."""

    merges: tuple[tuple[int, int, int], ...]
    bound: Fraction | None


def reference_linkage_run(instance, rho, budget, bound=None):
    """``budget`` greedy merges at ``rho`` from ``Fraction`` linkage lines.

    Each root pair's line is ``(farthest, closest - farthest)`` over the
    pairwise ``instance.distances`` of its two clusters' members, kept in a
    dict keyed by the sorted pair.  Each step's candidates are the pairs of
    ``itertools.combinations`` over the sorted roots, and ``fraction_select``
    picks the argmin.  With a ``bound`` the returned bound is the first
    point right of ``rho`` where a choice flips.
    """
    rho = Fraction(rho)
    distances = instance.distances
    members = {i: (i,) for i in range(instance.n)}

    def linkage(u, v):
        pairs = [distances[p][q] for p in members[u] for q in members[v]]
        return (max(pairs), min(pairs) - max(pairs))

    lines = {pair: linkage(*pair) for pair in itertools.combinations(sorted(members), 2)}
    merges = []
    for step in range(budget):
        roots = sorted(members)
        candidates = [(pair, lines[pair]) for pair in itertools.combinations(roots, 2)]
        (a, b), bound = fraction_select(rho, bound, candidates, -1)
        new = instance.n + step
        members[new] = members.pop(a) + members.pop(b)
        for r in members:
            if r != new:
                lines[(r, new)] = linkage(r, new)
        merges.append((a, b, new))
    return ReferenceLinkageRun(tuple(merges), bound)


# 2^20 sign patterns is about a million: cheap enough to enumerate exactly,
# which keeps the estimator deterministic wherever feasible.
EXACT_ENUMERATION_LIMIT = 20


def _as_matrix(loss_vectors: Iterable[Sequence[float]]) -> np.ndarray:
    rows = [np.asarray(v, dtype=np.float64) for v in loss_vectors]
    if not rows:
        raise ValueError("need at least one loss vector")
    length = rows[0].shape
    if any(r.ndim != 1 or r.shape != length for r in rows):
        raise ValueError("all loss vectors must be one-dimensional and equal length")
    # The bound depends on the set of distinct trace vectors, so duplicates
    # must not inflate the class size.
    return np.unique(np.stack(rows), axis=0)


def massart_bound(loss_vectors: Iterable[Sequence[float]]) -> float:
    """Finite-class bound on empirical Rademacher complexity.

    For a finite set of trace vectors in R^N with maximum Euclidean norm
    ``r``, the complexity is at most ``r * sqrt(2 ln M) / N`` where ``M`` is
    the number of distinct vectors.
    """
    matrix = _as_matrix(loss_vectors)
    count, length = matrix.shape
    radius = float(np.sqrt((matrix**2).sum(axis=1)).max())
    return radius * math.sqrt(2.0 * math.log(count)) / length


def mc_rademacher(
    loss_vectors: Iterable[Sequence[float]],
    trials: int,
    seed: int | None = None,
) -> float:
    """Empirical Rademacher complexity of a finite vector class.

    Computes ``E_sigma[ max_v (1/N) sum_i sigma_i v_i ]`` over uniform sign
    vectors.  For N at most ``EXACT_ENUMERATION_LIMIT`` all ``2^N`` sign
    patterns are enumerated and the value is exact; otherwise ``trials``
    patterns are sampled, giving an unbiased estimate.
    """
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    matrix = _as_matrix(loss_vectors)
    _, length = matrix.shape
    if length <= EXACT_ENUMERATION_LIMIT:
        total = 0.0
        patterns = 1 << length
        chunk = 1 << 14
        bits = np.arange(length, dtype=np.uint32)
        for start in range(0, patterns, chunk):
            idx = np.arange(start, min(start + chunk, patterns), dtype=np.uint32)
            sign_bits = ((idx[:, None] >> bits[None, :]) & 1).astype(np.float64)
            signs = sign_bits * 2.0 - 1.0
            total += float((signs @ matrix.T).max(axis=1).sum())
        return total / (patterns * length)
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(trials, length)).astype(np.float64) * 2.0 - 1.0
    return float((signs @ matrix.T).max(axis=1).mean()) / length


def gamma_reference(round_index, sample_count, cap, f_value, confidence):
    """Independently coded accuracy bound: single-log form on exact integers."""
    b = sample_count
    product = 8 * (cap * b * round_index) ** 2
    return math.sqrt(2.0 * math.log(f_value) / b) + 2.0 * math.sqrt(
        (2.0 / b) * math.log(product / confidence)
    )


def min_samples_oracle(round_index, cap, f_value, confidence, target, upper=50_000_000):
    """Doubling-then-bisection solve of the growth stopping inequality."""

    def gamma(b):
        return gamma_reference(round_index, b, cap, f_value, confidence)

    lo, hi = 1, 1
    while gamma(hi) > target:
        hi *= 2
        if hi > upper:
            raise AssertionError("oracle exceeded its search bound")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gamma(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi if gamma(hi) <= target else None


_LN8 = math.log(8.0)


def expanded_gamma_bound(inputs: GammaInputs) -> float:
    """The accuracy bound as one expression over the validated inputs, in the
    association ``gamma_bound`` must reproduce bit for bit."""
    b = inputs.sample_count
    complexity = math.sqrt(2.0 * math.log(inputs.f_value) / b)
    log_union = (
        _LN8
        + 2.0 * (math.log(inputs.cap) + math.log(b) + math.log(inputs.round_index))
        - math.log(inputs.confidence)
    )
    return complexity + 2.0 * math.sqrt(2.0 * log_union / b)


def bisect_min_samples(round_index, cap, f_value, zeta, target, lower, upper):
    """Smallest count in [lower, upper] whose ``expanded_gamma_bound`` meets
    the target, found by the same bisection over the same range as the
    learner's sizing, with a validated ``GammaInputs`` per probe; None when
    even ``upper`` misses."""

    def ok(b: int) -> bool:
        return (
            expanded_gamma_bound(GammaInputs(round_index, b, cap, f_value, confidence=zeta))
            <= target
        )

    offset = bisect.bisect_left(range(lower, upper + 1), True, key=ok)
    return lower + offset if lower + offset <= upper else None


class ConstantLossProblem(ConfigProblem):
    """Every parameter solves every instance at one fixed loss; one cell.

    The pool holds one instance, since all instances behave alike.
    """

    def __init__(self, loss=1):
        super().__init__([None])
        self.loss = loss

    def run_with_cap(self, rho, instance, tau):
        if self.loss <= tau:
            return CappedRunOutcome.finished(self.loss)
        return CappedRunOutcome.truncated(tau)

    def get_partition(self, instances, tau):
        z = 1.0 if self.loss <= tau else 0.0
        cell = ParamCell(0.0, 1.0)
        return [_constant_cell(cell, z, min(self.loss, tau), len(instances))]

    def f_bound(self, instances, tau):
        return 1


class CountingConstantLossProblem(ConstantLossProblem):
    """``ConstantLossProblem`` that counts its ``run_with_cap`` calls."""

    def __init__(self, loss=1):
        super().__init__(loss)
        self.runs = 0

    def run_with_cap(self, rho, instance, tau):
        self.runs += 1
        return super().run_with_cap(rho, instance, tau)


class CountingPoolProblem(ConfigProblem):
    """Pool of integer losses, the same at every parameter; ``runs`` records
    the ``(rho, id(instance))`` of every ``run_with_cap``.  Give the pool
    distinct losses, so that each pool index has its own ``id``."""

    def __init__(self, losses):
        super().__init__(losses)
        self.runs = []

    def run_with_cap(self, rho, instance, tau):
        self.runs.append((rho, id(instance)))
        if instance <= tau:
            return CappedRunOutcome.finished(instance)
        return CappedRunOutcome.truncated(tau)


def _fraction_pivot(tableau, zrow, row, col):
    pivot_row = tableau[row]
    piv = pivot_row[col]
    if piv != 1:
        inv = 1 / piv
        tableau[row] = pivot_row = [v * inv for v in pivot_row]
    for other in tableau:
        if other is pivot_row:
            continue
        factor = other[col]
        if factor:
            for j, v in enumerate(pivot_row):
                if v:
                    other[j] -= factor * v
    factor = zrow[col]
    if factor:
        for j, v in enumerate(pivot_row):
            if v:
                zrow[j] -= factor * v


def _fraction_simplex_min(tableau, basis, cost, ncols):
    """Minimize cost over the tableau in place with Bland's rule; returns the
    minimum and the final reduced costs of all ``ncols`` columns."""
    zrow = list(cost) + [Fraction(0)]
    for i, b in enumerate(basis):
        if cost[b]:
            for j in range(ncols + 1):
                zrow[j] -= cost[b] * tableau[i][j]
    while True:
        entering = next((j for j in range(ncols) if zrow[j] < 0), -1)
        if entering < 0:
            return -zrow[ncols], zrow[:ncols]
        leaving = -1
        best_ratio = None
        for i, row in enumerate(tableau):
            coef = row[entering]
            if coef > 0:
                ratio = row[-1] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise AssertionError("unbounded LP despite box constraints")
        _fraction_pivot(tableau, zrow, leaving, entering)
        basis[leaving] = entering


def _fraction_box_lp(objective, rows, rhs):
    """Maximize objective over ``rows @ x <= rhs`` and ``0 <= x <= 1``.

    Returns ``(status, value, point, unique)``, with ``unique`` set when
    every nonbasic column of the final tableau has a positive reduced cost.
    """
    n = len(objective)
    zero, one = Fraction(0), Fraction(1)
    all_rows = [list(row) for row in rows] + [
        [one if j == i else zero for j in range(n)] for i in range(n)
    ]
    all_rhs = list(rhs) + [one] * n
    m = len(all_rows)
    negative = [i for i in range(m) if all_rhs[i] < 0]
    ncols = n + m + len(negative)
    art_col = {r: n + m + k for k, r in enumerate(negative)}
    tableau, basis = [], []
    for i in range(m):
        sign = -1 if all_rhs[i] < 0 else 1
        row = [zero] * (ncols + 1)
        for j in range(n):
            row[j] = sign * all_rows[i][j]
        row[n + i] = Fraction(sign)
        row[-1] = sign * all_rhs[i]
        if i in art_col:
            row[art_col[i]] = one
        basis.append(art_col.get(i, n + i))
        tableau.append(row)
    if negative:
        phase1 = [zero] * ncols
        for col in art_col.values():
            phase1[col] = one
        if _fraction_simplex_min(tableau, basis, phase1, ncols)[0] > 0:
            return "infeasible", None, None, False
        # Drive leftover artificials out of the basis, dropping redundant rows.
        keep = []
        for i in range(len(tableau)):
            if basis[i] >= n + m:
                pivot_col = next((j for j in range(n + m) if tableau[i][j] != 0), None)
                if pivot_col is None:
                    continue
                _fraction_pivot(tableau, [zero] * (ncols + 1), i, pivot_col)
                basis[i] = pivot_col
            keep.append(i)
        tableau = [tableau[i][: n + m] + [tableau[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]
        ncols = n + m
    phase2 = [-c for c in objective] + [zero] * (ncols - n)
    minimum, reduced = _fraction_simplex_min(tableau, basis, phase2, ncols)
    point = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = tableau[i][-1]
    unique = all(reduced[j] > 0 for j in range(ncols) if j not in basis)
    return "optimal", -minimum, tuple(point), unique


def lp_view(solution):
    """``(status, objective, point)`` of an ``LpSolution`` in ``Fraction``s,
    the triple ``fraction_lp_relax`` returns."""
    if not solution.is_optimal:
        return "infeasible", None, None
    d = solution.denominator
    point = tuple(Fraction(v, d) for v in solution.numerators)
    return "optimal", Fraction(solution.value, d * solution.scale), point


def fraction_lp_relax(milp, fixings=()):
    """``(status, objective, point)`` of an LP relaxation on a ``Fraction`` tableau."""
    return fraction_lp_solution(milp, fixings)[:3]


def fraction_lp_solution(milp, fixings=()):
    """``(status, objective, point, unique)`` of an LP relaxation on a dense
    ``Fraction`` tableau.

    The two-phase simplex with Bland's rule over every column that
    ``lp_relax`` used before it pivoted in integers; it follows the same
    basis sequence, so the returned vertex, not just the optimal value, must
    agree, and so must the certificate ``unique`` of a fresh solve: every
    nonbasic column of the final tableau has a strictly positive reduced
    cost.  A key that fixes every variable has one feasible point at most,
    so its optimum is unique.
    """
    fix = dict(fixings)
    free = [j for j in range(milp.n) if j not in fix]
    constant = sum((milp.objective[j] * v for j, v in fix.items()), Fraction(0))
    rhs = [
        b - sum((row[j] * v for j, v in fix.items()), Fraction(0))
        for row, b in zip(milp.rows, milp.rhs)
    ]
    if not free:
        if all(b >= 0 for b in rhs):
            return "optimal", constant, tuple(Fraction(fix[j]) for j in range(milp.n)), True
        return "infeasible", None, None, False
    status, value, free_point, unique = _fraction_box_lp(
        [milp.objective[j] for j in free], [[row[j] for j in free] for row in milp.rows], rhs
    )
    if status != "optimal":
        return "infeasible", None, None, False
    point = [Fraction(fix.get(j, 0)) for j in range(milp.n)]
    for j, v in zip(free, free_point):
        point[j] = v
    return "optimal", value + constant, tuple(point), unique


def doubling_loss(problem, rho, instance, ceiling):
    """Loss by re-running at caps 1, 2, 4, ... up to the ceiling.

    Returns the first solved run's budget, or the ceiling when no cap up to
    it finishes the instance.
    """
    tau = 1
    while True:
        outcome = problem.run_with_cap(rho, instance, tau)
        if outcome.solved:
            return outcome.budget_used
        if tau >= ceiling:
            return ceiling
        tau = min(2 * tau, ceiling)


class ConstantSampleProblem(CountingPoolProblem):
    """``CountingPoolProblem`` whose every sample draws the pool item ``u``
    exactly ``counts[u]`` times, whatever the requested size."""

    def __init__(self, losses, counts):
        super().__init__(losses)
        self.counts = np.asarray(counts, dtype=np.int64)

    def sample_many(self, rng, count):
        return PoolSample(self.pool, self.counts)


class TwoBandProblem(ConfigProblem):
    """Deterministic two-band toy: loss `low_loss` below 0.5, `high_loss` above.

    The pool holds one instance, since all instances behave alike.
    """

    def __init__(self, low_loss=2, high_loss=5):
        super().__init__([None])
        self.low_loss = low_loss
        self.high_loss = high_loss

    def _loss(self, rho):
        return self.low_loss if rho < 0.5 else self.high_loss

    def run_with_cap(self, rho, instance, tau):
        loss = self._loss(rho)
        if loss <= tau:
            return CappedRunOutcome.finished(loss)
        return CappedRunOutcome.truncated(tau)

    def get_partition(self, instances, tau):
        count = len(instances)
        cells = []
        for lo, hi, loss in ((0.0, 0.5, self.low_loss), (0.5, 1.0, self.high_loss)):
            cells.append(
                _constant_cell(
                    ParamCell(lo, hi),
                    1.0 if loss <= tau else 0.0,
                    min(loss, tau),
                    count,
                )
            )
        return cells

    def f_bound(self, instances, tau):
        return 2


class ReferenceRun(NamedTuple):
    """A capped ``bnb`` run as ``reference_bnb_run`` replays it."""

    outcome: CappedRunOutcome
    decisions: tuple[int, ...]  # the branched variables, as ``branching_trace`` gives them
    incumbent: Fraction | None  # as ``best_binary_solution`` reports it
    bound: Fraction | None


def reference_bnb_run(milp, rho, cap, bound=None, lp_cache=None):
    """A capped best-first ``bnb`` run with no node memo.

    Every node's candidates are rebuilt from ``fraction_lp_relax`` as
    ``Fraction`` score lines (an infeasible child scores
    ``INFEASIBLE_SCORE``), and every branching choice is made by
    ``fraction_select``.  With a ``bound`` the returned bound is the first
    point right of ``rho`` where a choice flips.
    ``lp_cache`` may carry solved relaxations, keyed by sorted fixings,
    between runs on one program.
    """
    rho = Fraction(rho)
    limit = min(cap, MAX_TREE_SIZE)
    cache = {} if lp_cache is None else lp_cache

    def relax(fixings):
        key = tuple(sorted(fixings.items()))
        if key not in cache:
            cache[key] = fraction_lp_relax(milp, key)
        status, value, point = cache[key]
        if status != "optimal":
            return None, None
        return value, point

    def finish(completed, size, incumbent, decisions, bound):
        if completed:
            outcome = CappedRunOutcome.finished(size)
        elif limit == MAX_TREE_SIZE:
            outcome = CappedRunOutcome.finished(MAX_TREE_SIZE)
        else:
            outcome = CappedRunOutcome.truncated(cap)
        return ReferenceRun(outcome, tuple(decisions), incumbent if completed else None, bound)

    def integral(point):
        return all(x in (0, 1) for x in point)

    root_value, root_point = relax({})
    if root_value is None:
        return finish(True, 1, None, [], bound)
    if integral(root_point):
        return finish(True, 1, root_value, [], bound)
    size, incumbent, decisions, next_id = 1, None, [], 1
    frontier = [(-root_value, 0, 0, {}, root_value)]
    while frontier:
        _, neg_depth, _, fix, value = heapq.heappop(frontier)
        if incumbent is not None and value <= incumbent:
            continue
        candidates = []
        for i in range(milp.n):
            if i in fix:
                continue
            decreases = []
            for v in (0, 1):
                child_value, _ = relax({**fix, i: v})
                decreases.append(INFEASIBLE_SCORE if child_value is None else value - child_value)
            low, high = min(decreases), max(decreases)
            candidates.append((i, (high, low - high)))
        chosen, bound = fraction_select(rho, bound, candidates, 1)
        decisions.append(chosen)
        for v in (0, 1):
            if size + 1 > limit:
                return finish(False, size, incumbent, decisions, bound)
            size += 1
            child_fix = {**fix, chosen: v}
            child_value, child_point = relax(child_fix)
            child_id, next_id = next_id, next_id + 1
            if child_value is None:
                continue
            if integral(child_point):
                if incumbent is None or child_value > incumbent:
                    incumbent = child_value
                continue
            if incumbent is not None and child_value <= incumbent:
                continue
            heapq.heappush(frontier, (-child_value, neg_depth - 1, child_id, child_fix, child_value))
    return finish(True, size, incumbent, decisions, bound)


def fraction_select(point, bound, candidates, sense):
    """``(winner key, new bound)`` of one tracker selection, by evaluating
    every line as a ``Fraction`` at the point and computing each crossing.

    ``sense`` is 1 for argmax and -1 for argmin; ``bound=None`` is an
    untracked selection.  Exact ties go to the winner just right of the
    point, except at 1, where they go to the winner just left.
    """
    rho = Fraction(point)
    side = 1 if rho != 1 else -1

    def value_at(score):
        intercept, slope = score
        return Fraction(intercept) + Fraction(slope) * rho

    best_key, best_score = candidates[0]
    best_value = value_at(best_score)
    for key, score in candidates[1:]:
        value = value_at(score)
        if sense * (value - best_value) > 0 or (
            value == best_value and side * sense * (score[1] - best_score[1]) > 0
        ):
            best_key, best_score, best_value = key, score, value
    if bound is None:
        return best_key, None
    for key, score in candidates:
        if key is best_key:
            continue
        gap = sense * (best_value - value_at(score))
        closing = Fraction(sense * (score[1] - best_score[1]))
        if gap > 0 and closing > 0:
            bound = min(bound, rho + gap / closing)
    return best_key, bound


def triangle_violation(distances, slack):
    """First ordered triple ``(i, j, l)``, in lexicographic order, with
    ``d(i, l) > d(i, j) + d(j, l) + slack``, or None for a (slack-)metric.

    Checks every ordered triple of distinct points with exact sums.
    """
    for i, j, l in itertools.permutations(range(len(distances)), 3):
        if distances[i][l] > distances[i][j] + distances[j][l] + slack:
            return (i, j, l)
    return None


def four_point_metric():
    """The hand-built 4-point metric with its exact 2-median cost of 3."""
    return [
        ["0", "1", "2", "4"],
        ["1", "0", "2.5", "4"],
        ["2", "2.5", "0", "2.3"],
        ["4", "4", "2.3", "0"],
    ]


def write_config(tmp_path, out_name="out", **overrides):
    """A CLI run config in ``tmp_path``: the default synthetic family at seed 7."""
    cfg = {
        "domain": "synthetic",
        "family": {"a": 0.35, "b": 0.45, "L_mid": 8, "L_low": 16, "L_high": 256},
        "epsilon": 15.0,
        "delta": 0.25,
        "zeta": 0.05,
        "seed": 7,
        "out": str(tmp_path / out_name),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def write_bnb_config(tmp_path):
    """A ``bnb`` run config over four random 4-variable, 2-row programs."""
    rng = np.random.default_rng(3)
    inst_dir = tmp_path / "milps"
    inst_dir.mkdir()
    for i in range(4):
        (inst_dir / f"inst_{i}.milp").write_text(format_milp(random_milp(rng, 4, 2)))
    return write_config(
        tmp_path, out_name="bnb_out", domain="bnb", instances_dir=str(inst_dir)
    )


def write_clustering_config(tmp_path):
    """A clustering run config over the 4-point metric at its 2-median cost."""
    inst_dir = tmp_path / "metrics"
    inst_dir.mkdir()
    matrix = four_point_metric()
    inst = ClusteringInstance.from_lists(matrix, 2, exact_kmedian_cost(matrix, 2))
    (inst_dir / "four.metric").write_text(format_instance(inst))
    return write_config(
        tmp_path, out_name="clu_out", domain="clustering", instances_dir=str(inst_dir)
    )


def check_partition_contract(problem, sample, cells, tau, rng, points_per_cell=25):
    """GetPartition soundness: sampled interior points reproduce the recorded
    capped losses of the sample's draws exactly, and the solved fraction
    matches z."""
    instances = [sample.pool[uid] for uid in draw_indices(sample).tolist()]
    for cell in cells:
        lo, hi = cell.cell.lo, cell.cell.hi
        width = float(hi) - float(lo)
        points = [float(lo) + width * float(u) for u in rng.random(points_per_cell)]
        points = [p for p in points if cell_contains(cell.cell, p)] or [
            float(cell.cell.representative())
        ]
        for rho in points:
            solved_count = 0
            for idx, instance in enumerate(instances):
                outcome = problem.run_with_cap(rho, instance, tau)
                assert outcome.capped_loss(tau) == int(cell.capped_losses[idx]), (
                    f"capped loss mismatch at rho={rho} cell=[{cell.cell.lo}, {cell.cell.hi})"
                )
                solved_count += outcome.solved
            assert solved_count / len(instances) == cell.z


UNREADABLE_TOKENS = ("1/0", "abc", "1/-2", "2.5.1")


@st.composite
def spelled(draw, value: Fraction) -> str:
    """``value`` as one of several equal texts (``3``, ``3.0``, ``6/2``, ...)."""
    p, q = value.numerator, value.denominator
    texts = [str(value), f"{p}/{q}", f"{3 * p}/{3 * q}", format_rational(value)]
    if q == 1:
        texts.append(f"{p}.0")
    if p == 0:
        texts += ["-0", "0/7"]
    return draw(st.sampled_from(texts))


@st.composite
def with_bad_tokens(draw, tokens: Sequence[str], invalid: Sequence[str] = ()) -> list[str]:
    """``tokens``, or a copy with one or two of them swapped for a text that
    does not parse or, from ``invalid``, one that fails validation."""
    tokens = list(tokens)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        index = draw(st.integers(0, len(tokens) - 1))
        tokens[index] = draw(st.sampled_from(UNREADABLE_TOKENS + tuple(invalid)))
    return tokens


def outcome(build):
    """``build()``, or the text of the ``ValueError`` it raises."""
    try:
        return build()
    except ValueError as exc:
        return f"ValueError: {exc}"


# The numpy that CI installs; the pools and draws behind the dump digests come from its generator.
CI_NUMPY = "2.4.6"
TOOLS = Path(__file__).resolve().parents[1] / "tools"


def dump_digests(listing: str) -> dict[str, str]:
    """``{file name: sha256}`` read from the ``sha256sum`` listing ``tools/<listing>``."""
    lines = (TOOLS / listing).read_text().splitlines()
    return {name: digest for digest, name in map(str.split, lines)}
