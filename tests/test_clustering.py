import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from frugal import clustering
from frugal.clustering import (
    _TRIANGLE_SLACK,
    MAX_POINTS,
    ClusteringInstance,
    ClusteringProblem,
    MergeForest,
    _covering_cost,
    _extend_tables,
    _LinkageRun,
    best_pruning,
    capped_linkage_run,
    clustering_partition,
    clustering_run_with_cap,
    exact_kmedian_cost,
    format_instance,
    load_instance,
    parse_instance,
    random_metric_instance,
)
from frugal.core import ParamSpace, to_fraction, validate_cells_cover
from frugal.sweep import DecisionTracker
from support import (
    cell_contains,
    check_partition_contract,
    check_pool_cells_against_gather,
    enumerate_prunings,
    four_point_metric,
    outcome,
    reference_clustering_sweep,
    reference_kmedian_cost,
    reference_linkage_run,
    spelled,
    tracked_linkage_run,
    triangle_violation,
    whole_pool,
    with_bad_tokens,
)


@pytest.fixture
def four_point():
    matrix = four_point_metric()
    theta = exact_kmedian_cost(matrix, 2)
    assert theta == Fraction(3)
    return ClusteringInstance.from_lists(matrix, k=2, theta=theta)


def equilateral_metric(n=4, side=2):
    return [[side * (i != j) for j in range(n)] for i in range(n)]


def random_pool(seed, count, max_points=7):
    rng = np.random.default_rng(seed)
    return [
        random_metric_instance(
            rng,
            num_points=int(rng.integers(4, max_points + 1)),
            k=int(rng.integers(2, 4)),
        )
        for _ in range(count)
    ]


class TestCappedLinkage:
    def test_zero_merges(self, four_point):
        forest = capped_linkage_run(four_point, 0.5, 0)
        assert forest.roots == (0, 1, 2, 3)
        assert forest.merges == ()

    def test_full_run_single_root(self, four_point):
        for rho in ("0", "0.4", "1"):
            forest = capped_linkage_run(four_point, rho, 3)
            assert len(forest.roots) == 1
            assert forest.members[forest.roots[0]] == frozenset(range(4))

    def test_breakpoint_crossing(self, four_point):
        low = capped_linkage_run(four_point, "0.3", 2)
        high = capped_linkage_run(four_point, "0.5", 2)
        assert low.merges[0] == (0, 1, 4)
        assert high.merges[0] == (0, 1, 4)
        assert low.merges[1] == (2, 3, 5)   # merge {c, e}
        assert high.merges[1] == (2, 4, 5)  # merge {c} into {a, b}

    def test_prefix_property(self, four_point):
        full = capped_linkage_run(four_point, "0.3", 3)
        for budget in range(4):
            partial = capped_linkage_run(four_point, "0.3", budget)
            assert partial.merges == full.merges[:budget]
            assert partial.roots == full.prefix(budget).roots

    def test_standalone_run_matches_tracking_tracker(self, four_point):
        grid = [Fraction(i, 20) for i in range(21)]
        for instance in [four_point] + random_pool(seed=13, count=10):
            for rho in grid:
                tracking = DecisionTracker(rho, Fraction(2))
                tracked = tracked_linkage_run(instance, tracking, instance.n - 1)
                assert capped_linkage_run(instance, rho, instance.n - 1) == tracked

    def test_budget_validation(self, four_point):
        with pytest.raises(ValueError):
            capped_linkage_run(four_point, 0.5, 4)
        with pytest.raises(ValueError):
            capped_linkage_run(four_point, 0.5, -1)


class TestBestPruning:
    def test_singletons_zero_cost(self, four_point):
        forest = capped_linkage_run(four_point, 0.5, 0)
        result = best_pruning(forest, 4, four_point)
        assert result.cost == 0

    def test_single_tree_one_cluster(self, four_point):
        forest = capped_linkage_run(four_point, 0.5, 3)
        result = best_pruning(forest, 1, four_point)
        points = range(four_point.n)
        direct = min(
            sum(four_point.distances[p][c] for p in points) for c in points
        )
        assert result.cost == direct

    def test_more_roots_than_k_inadmissible(self, four_point):
        singletons = capped_linkage_run(four_point, 0.5, 0)  # four roots
        assert best_pruning(singletons, 4, four_point).cost == 0
        assert math.isinf(best_pruning(singletons, 3, four_point).cost)
        assert math.isinf(best_pruning(singletons, 2, four_point).cost)
        one_merge = capped_linkage_run(four_point, 0.5, 1)  # roots {a,b},{c},{e}
        assert best_pruning(one_merge, 4, four_point).cost == 0  # singleton nodes persist
        assert best_pruning(one_merge, 3, four_point).cost == Fraction(1)

    def test_k_validation(self, four_point):
        forest = capped_linkage_run(four_point, 0.5, 1)
        with pytest.raises(ValueError):
            best_pruning(forest, 0, four_point)
        with pytest.raises(ValueError):
            best_pruning(forest, 5, four_point)

    def test_forest_size_must_match_instance(self):
        # A smaller forest would score only its own points, and a larger one
        # read distance rows the metric does not have.
        inst = random_metric_instance(np.random.default_rng(0), 4, 2)
        for size, merges in ((3, ((0, 1, 3),)), (5, ((0, 1, 5), (2, 3, 6), (4, 5, 7)))):
            forest = MergeForest(size, merges)
            with pytest.raises(ValueError, match=f"^forest of {size} points for an instance of 4$"):
                best_pruning(forest, 2, inst)

    def test_forest_merges_must_join_distinct_roots(self):
        # Merging point 0 twice would price it in two clusters, and a first
        # merge into node 7 would leave node 4 a root.
        inst = random_metric_instance(np.random.default_rng(0), 4, 3)
        with pytest.raises(ValueError, match=r"^merge 1 \(0, 2, 5\) must join two distinct roots into node 5$"):
            best_pruning(MergeForest(4, ((0, 1, 4), (0, 2, 5))), 3, inst)
        for merges, bad in (
            (((0, 1, 7),), "merge 0 (0, 1, 7)"),
            (((2, 2, 4),), "merge 0 (2, 2, 4)"),
            (((0, 5, 4),), "merge 0 (0, 5, 4)"),
            (((0, 1, 4), (4, 1, 5)), "merge 1 (4, 1, 5)"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(bad)} must join two distinct roots"):
                MergeForest(4, merges)
        forest = MergeForest(4, ((0, 1, 4), (4, 2, 5)))
        assert forest.roots == (3, 5) and forest.prefix(1).roots == (2, 3, 4)

    def test_matches_enumeration_on_random_instances(self):
        # Every n <= 8 fixture, every budget, every k: the tables stop at k
        # clusters, so k = n and k just above the root count are covered.
        for inst in random_pool(seed=6, count=12, max_points=8):
            for rho in ("0", "0.37", "1"):
                full = capped_linkage_run(inst, rho, inst.n - 1)
                for budget in range(inst.n):
                    forest = full.prefix(budget)
                    for k in range(1, inst.n + 1):
                        got = best_pruning(forest, k, inst).cost
                        want = enumerate_prunings(forest, k, inst)
                        assert got == want
                # For k >= 2 the last merge's lone root is never a cluster,
                # so the whole tree prices as its two subtrees do.
                last, before = full.prefix(inst.n - 1), full.prefix(inst.n - 2)
                for k in range(2, inst.n + 1):
                    assert best_pruning(last, k, inst) == best_pruning(before, k, inst)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_node_tables_serve_every_prefix(self, data):
        # Any binary forest, not only linkage ones: each node's table is
        # built once for the whole forest, and the roots' combination alone
        # must score every prefix.
        matrix = TestFractionalMetrics.draw_metric(data, max_points=8)
        n = len(matrix)
        inst = ClusteringInstance.from_lists(matrix, 1, Fraction(1))
        scale, distances = inst.integer_form
        roots, merges = list(range(n)), []
        for node in range(n, n + data.draw(st.integers(0, n - 1))):
            a, b = data.draw(st.lists(st.sampled_from(roots), min_size=2, max_size=2, unique=True))
            roots.remove(a)
            roots.remove(b)
            roots.append(node)
            merges.append((a, b, node))
        forest = MergeForest(size=n, merges=tuple(merges))
        # Every node's column sums, its members' distance rows added.
        sums = [[sum(distances[p][c] for p in members) for c in range(n)]
                for members in forest.members]
        for k in range(1, n + 1):
            tables = [{1: 0}] * n
            _extend_tables(tables, sums, forest.merges, forest.members, k)
            for m in range(len(merges) + 1):
                prefix = forest.prefix(m)
                want = enumerate_prunings(prefix, k, inst)
                assert best_pruning(prefix, k, inst).cost == want
                if len(prefix.roots) <= k:
                    assert Fraction(_covering_cost(tables, prefix.roots, k), scale) == want

    def test_members_follow_merges(self):
        for inst in random_pool(seed=8, count=10, max_points=8):
            for rho in ("0", "0.61", "1"):
                full = capped_linkage_run(inst, rho, inst.n - 1)
                for budget in range(inst.n):
                    forest = full.prefix(budget)
                    members = forest.members
                    assert members[: inst.n] == tuple(frozenset((i,)) for i in range(inst.n))
                    for a, b, node in forest.merges:
                        assert not members[a] & members[b]
                        assert members[node] == members[a] | members[b]
                    assert len(forest.roots) == inst.n - budget
                    covered = [p for root in forest.roots for p in members[root]]
                    assert sorted(covered) == list(range(inst.n))


class TestRunWithCap:
    def test_loose_threshold_solves_immediately(self):
        rng = np.random.default_rng(13)
        base = random_metric_instance(rng, num_points=5, k=4)
        inst = ClusteringInstance(
            distances=base.distances, k=5, theta=Fraction(1, 1000)
        )
        out = clustering_run_with_cap(0.5, inst, 4)
        assert out.solved and out.budget_used == 0

    def test_unreachable_threshold_caps(self, four_point):
        impossible = ClusteringInstance(
            distances=four_point.distances, k=1, theta=Fraction(1, 10**6)
        )
        out = clustering_run_with_cap(0.5, impossible, 3)
        assert not out.solved and out.budget_used == 3

    def test_four_point_breakpoint_behavior(self, four_point):
        left = clustering_run_with_cap("0.3", four_point, 3)
        right = clustering_run_with_cap("0.5", four_point, 3)
        boundary = clustering_run_with_cap("0.4", four_point, 3)
        assert not left.solved
        assert right.solved and right.budget_used == 2
        assert boundary == right

    def test_cost_monotone_in_budget(self):
        # 100 random metrics: pruning cost never increases with the budget.
        for inst in random_pool(seed=29, count=100, max_points=7):
            full = capped_linkage_run(inst, "0.44", inst.n - 1)
            costs = [
                best_pruning(full.prefix(b), inst.k, inst).cost
                for b in range(inst.n)
            ]
            assert all(a >= b for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("rho", [1.5, -3, "3/2"])
    def test_rho_validation(self, four_point, rho):
        with pytest.raises(ValueError, match="rho must lie in"):
            clustering_run_with_cap(rho, four_point, 3)
        with pytest.raises(ValueError, match="rho must lie in"):
            ClusteringProblem([four_point]).run_with_cap(rho, four_point, 3)

    def test_cap_clamped_to_merge_range(self, four_point):
        capped = clustering_run_with_cap("0.5", four_point, 100)
        assert capped.solved and capped.budget_used == 2

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_first_admissible_prefix(self, data):
        # The run skips the budgets below n - k; scoring every prefix from
        # budget 0 by enumeration must give the same outcome at every cap.
        n = data.draw(st.integers(2, 6))
        grid = st.tuples(st.integers(0, 12), st.integers(0, 12))
        points = data.draw(st.lists(grid, min_size=n, max_size=n, unique=True))
        matrix = [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in points] for p in points]
        k = data.draw(st.integers(1, n))
        slack = data.draw(st.sampled_from([Fraction(1), Fraction(6, 5), Fraction(2)]))
        theta = exact_kmedian_cost(matrix, k) * slack + Fraction(1, 10)
        inst = ClusteringInstance.from_lists(matrix, k, theta)
        rho = data.draw(st.fractions(0, 1, max_denominator=10))
        full = capped_linkage_run(inst, rho, n - 1)
        admissible = [enumerate_prunings(full.prefix(b), k, inst) <= theta for b in range(n)]
        for cap in range(n + 2):
            budget = min(cap, n - 1)
            first = next((b for b in range(budget + 1) if admissible[b]), None)
            got = clustering_run_with_cap(rho, inst, cap)
            assert (got.solved, got.budget_used) == (
                (True, first) if first is not None else (False, cap)
            )


class TestClusteringPartition:
    def test_four_point_cells(self, four_point):
        cells = clustering_partition(whole_pool([four_point]), 3)
        assert len(cells) == 2
        assert (cells[0].cell.lo, cells[0].cell.hi) == (Fraction(0), Fraction(2, 5))
        assert abs(float(cells[1].cell.lo) - 0.4) < 1e-9
        assert list(cells[0].capped_losses) != list(cells[1].capped_losses)
        validate_cells_cover(cells, ParamSpace())

    def test_equilateral_single_cell(self):
        inst = ClusteringInstance.from_lists(equilateral_metric(), k=2, theta=Fraction(4))
        cells = clustering_partition(whole_pool([inst]), 3)
        assert len(cells) == 1

    def test_grid_agreement(self):
        pool = random_pool(seed=15, count=5, max_points=6)
        tau = 5
        cells = clustering_partition(whole_pool(pool), tau)
        for rho in np.linspace(0.0, 1.0, 101):
            cell = next(c for c in cells if cell_contains(c.cell, float(rho)))
            for j, inst in enumerate(pool):
                out = clustering_run_with_cap(float(rho), inst, tau)
                assert out.capped_loss(tau) == int(cell.capped_losses[j])

    def test_merge_sequences_invariant_within_cells(self):
        pool = random_pool(seed=19, count=4, max_points=6)
        tau = 5
        cells = clustering_partition(whole_pool(pool), tau)
        rng = np.random.default_rng(3)
        for cell in cells:
            lo, hi = cell.cell.lo, cell.cell.hi
            probes = [float(lo) + (float(hi) - float(lo)) * float(u) for u in rng.random(10)]
            for inst in pool:
                budget = min(tau, inst.n - 1)
                reference = capped_linkage_run(inst, lo, budget).merges
                for rho in probes:
                    if cell_contains(cell.cell, rho):
                        assert capped_linkage_run(inst, rho, budget).merges == reference

    def test_partition_contract(self):
        pool = random_pool(seed=27, count=4, max_points=6)
        problem = ClusteringProblem(pool)
        instances = problem.all_instances()
        cells = problem.get_partition(instances, 4)
        check_partition_contract(
            problem, instances, cells, 4, np.random.default_rng(0), points_per_cell=5
        )

    def test_cell_count_within_bound(self):
        pool = random_pool(seed=33, count=6, max_points=7)
        for inst in pool:
            cells = clustering_partition(whole_pool([inst]), inst.n - 1)
            assert len(cells) <= inst.n**8
        bound = ClusteringProblem(pool).f_bound(whole_pool(pool), 5)
        assert bound == sum(i.n**8 for i in pool) + 1
        # The bound does not depend on the cap; 0 is the least allowed.
        assert ClusteringProblem(pool).f_bound(whole_pool(pool), 0) == bound
        with pytest.raises(ValueError, match="^tau must be nonnegative$"):
            ClusteringProblem(pool).f_bound(whole_pool(pool), -1)


def draw_tie_heavy_metric(data):
    """A fractional metric, or an L1 metric on a 4 x 4 or 13 x 13 grid; the
    4 x 4 grid makes equal distances, and so ties, common."""
    if data.draw(st.booleans()):
        return TestFractionalMetrics.draw_metric(data, max_points=12)
    n = data.draw(st.integers(3, 12))
    side = data.draw(st.sampled_from([4, 13]))
    grid = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    points = data.draw(st.lists(grid, min_size=n, max_size=n, unique=True))
    return [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in points] for p in points]


class TestLinkageOracle:
    """Linkage runs against ``reference_linkage_run``, which rebuilds every
    line from the ``Fraction`` distances and shares no code with the run."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_runs_match_oracle(self, data):
        matrix = draw_tie_heavy_metric(data)
        n = len(matrix)
        inst = ClusteringInstance.from_lists(matrix, 1, 1)
        budget = data.draw(st.integers(0, n - 1))
        # The oracle's own sweep: each cell's left end is the bound the
        # oracle returned at the previous one.
        left, top = Fraction(0), Fraction(1)
        while left < top:
            want = reference_linkage_run(inst, left, budget, top)
            assert capped_linkage_run(inst, left, budget).merges == want.merges
            tracker = DecisionTracker(left, top)
            assert tracked_linkage_run(inst, tracker, budget).merges == want.merges
            assert tracker.bound == want.bound
            left = want.bound
        assert capped_linkage_run(inst, top, budget).merges == (
            reference_linkage_run(inst, top, budget).merges
        )


def assert_sweep_matches_reference(inst, tau):
    cells = clustering_partition(whole_pool([inst]), tau)
    got = [((c.cell.lo, c.cell.hi), (int(c.capped_losses[0]), c.z == 1.0)) for c in cells]
    want = [
        ((lo, hi), (outcome.budget_used, outcome.solved))
        for lo, hi, outcome in reference_clustering_sweep(inst, tau)
    ]
    assert got == want


class TestResumedSweep:
    """Each cell's run resumes the previous cell's at the first merge
    decision whose running bound equals the cell's left end; every bound and
    payload must match a sweep that reruns from scratch at each cell."""

    @pytest.mark.parametrize("matrix", [four_point_metric(), equilateral_metric()])
    def test_tie_heavy_fixtures(self, matrix):
        n = len(matrix)
        for k in range(1, n + 1):
            for slack in (Fraction(1), Fraction(6, 5), Fraction(2)):
                theta = exact_kmedian_cost(matrix, k) * slack + Fraction(1, 10)
                inst = ClusteringInstance.from_lists(matrix, k, theta)
                for tau in range(n + 1):
                    assert_sweep_matches_reference(inst, tau)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        matrix = draw_tie_heavy_metric(data)
        n = len(matrix)
        k = data.draw(st.integers(1, n))
        slack = data.draw(st.sampled_from([Fraction(1), Fraction(6, 5), Fraction(2)]))
        theta = exact_kmedian_cost(matrix, k) * slack + Fraction(1, 10)
        inst = ClusteringInstance.from_lists(matrix, k, theta)
        assert_sweep_matches_reference(inst, data.draw(st.integers(0, n)))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_resumed_runs_at_arbitrary_points(self, data):
        # One run advanced left to right over points that repeat, stop inside
        # a cell, land on the previous run's bound or jump past it; at each
        # it must agree with a fresh run there, bound and pruning costs too.
        matrix = draw_tie_heavy_metric(data)
        n = len(matrix)
        k = data.draw(st.integers(1, n))
        inst = ClusteringInstance.from_lists(matrix, k, 1)
        scale, distances = inst.integer_form
        # From n - k merges on, a prefix of at most k roots has a cost to check.
        budget = data.draw(st.integers(n - k, n - 1))
        run, point, bound = _LinkageRun(inst), Fraction(0), Fraction(1)
        for _ in range(data.draw(st.integers(1, 8))):
            step = data.draw(st.sampled_from(["repeat", "bound", "inside", "beyond"]))
            share = data.draw(st.fractions(0, 1, max_denominator=7))
            if step == "bound":
                point = bound
            elif step == "inside":
                point += (bound - point) * share
            elif step == "beyond":
                point += (1 - point) * share
            fresh = DecisionTracker(point, Fraction(1))
            forest = tracked_linkage_run(inst, fresh, budget)
            tracker = DecisionTracker(point, Fraction(1))
            run.advance(tracker, budget)
            assert tuple(run.merges) == forest.merges
            assert tracker.bound == fresh.bound
            bound = tracker.bound
            for m in data.draw(st.permutations(range(n - k, budget + 1))):
                want = best_pruning(forest.prefix(m), k, inst).cost
                assert run.pruning_cost(m) == want * scale
            # Column sums are kept for the run's nodes only, each its
            # members' distance rows added, whichever path priced them.
            assert len(run.sums) <= n + budget
            for node, column in enumerate(run.sums):
                members = forest.members[node]
                assert list(column) == [sum(distances[p][c] for p in members) for c in range(n)]

    def test_k_root_prefixes_need_no_tables(self, monkeypatch):
        # At k = 2 a prefix of n - 2 merges has exactly its two roots as its
        # pruning and the run never makes merge n - 1, so no table is combined.
        combined = []
        combine = clustering._combine
        monkeypatch.setattr(clustering, "_combine", lambda *a: combined.append(a) or combine(*a))
        pool = [random_metric_instance(np.random.default_rng(seed), 8, 2) for seed in range(10)]
        for tau in (6, 7):
            cells = clustering_partition(whole_pool(pool), tau)
            assert any(loss == 6 for cell in cells for loss in cell.losses)
        assert combined == []

    def test_resumes_at_the_flipping_merge(self, four_point, monkeypatch):
        # At rho = 2/5 the second merge flips; the first is reused, so the
        # two cells take 2 + 1 merge decisions instead of 2 + 2.  At k = 2
        # the third merge, which joins the last two roots, is never made.
        selects = []
        argmin = DecisionTracker.argmin
        monkeypatch.setattr(
            DecisionTracker, "argmin", lambda self, c: selects.append(self.point) or argmin(self, c)
        )
        cells = clustering_partition(whole_pool([four_point]), 3)
        assert [c.cell.lo for c in cells] == [0, Fraction(2, 5)]
        assert selects == [0, 0, Fraction(2, 5)]

    @pytest.mark.parametrize("k", [2, 3])
    def test_no_decision_without_a_choice(self, monkeypatch, k):
        # The merge joining the last two roots is priced by no budget at
        # k >= 2, so the sweep never asks the tracker to pick among one pair;
        # the cap reaches n - 2, so its last choice is among three roots' pairs.
        sizes = []
        argmin = DecisionTracker.argmin
        monkeypatch.setattr(
            DecisionTracker, "argmin", lambda self, c: sizes.append(len(c)) or argmin(self, c)
        )
        pool = [random_metric_instance(np.random.default_rng(seed), 7, k) for seed in range(8)]
        clustering_partition(whole_pool(pool), 6)
        assert min(sizes) == 3


class TestFractionalMetrics:
    """Metrics whose distances have denominators other than 1, which the runs
    see only through the integer form."""

    @staticmethod
    def draw_metric(data, max_points=6):
        n = data.draw(st.integers(3, max_points))
        grid = st.tuples(st.integers(0, 12), st.integers(0, 12))
        points = data.draw(st.lists(grid, min_size=n, max_size=n, unique=True))
        # A sum of two metrics is a metric; the two denominators make the
        # reduced distances' denominators differ across the matrix.
        l1_den = data.draw(st.sampled_from([1, 6, 35]))
        linf_den = data.draw(st.sampled_from([6, 35, 12]))
        return [
            [
                Fraction(abs(p[0] - q[0]) + abs(p[1] - q[1]), l1_den)
                + Fraction(max(abs(p[0] - q[0]), abs(p[1] - q[1])), linf_den)
                for q in points
            ]
            for p in points
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_kmedian_cost_matches_fraction_per_entry_sum(self, data):
        # Entries come as Fractions, floats and decimal or p/q texts (a float
        # is read exactly, so an inexact one is its own rational).
        matrix = [
            [
                data.draw(st.sampled_from([value, float(value)]) | spelled(value))
                for value in row
            ]
            for row in self.draw_metric(data)
        ]
        k = data.draw(st.integers(1, 3))
        cost = exact_kmedian_cost(matrix, k)
        assert type(cost) is Fraction and cost == reference_kmedian_cost(matrix, k)

    @pytest.mark.parametrize("bad", ["1/0", "abc", math.nan, None])
    def test_kmedian_cost_rejects_what_a_read_rejects(self, bad):
        matrix = [[0, bad], [1, 0]]
        with pytest.raises((ValueError, TypeError)) as expected:
            reference_kmedian_cost(matrix, 1)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            exact_kmedian_cost(matrix, 1)

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_partition_matches_runs(self, data):
        matrix = self.draw_metric(data)
        n = len(matrix)
        k = data.draw(st.integers(1, n - 1))
        inst = ClusteringInstance.from_lists(
            matrix, k, exact_kmedian_cost(matrix, k) * Fraction(6, 5)
        )
        assume(inst.integer_form[0] > 1)
        tau = data.draw(st.integers(1, n - 1))
        cells = clustering_partition(whole_pool([inst]), tau)
        validate_cells_cover(cells, ParamSpace())
        bounds = [(c.cell.lo, c.cell.hi) for c in cells]
        assert bounds[0][0] == 0 and bounds[-1][1] == 1
        assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
        budget = min(tau, n - 1)
        for cell, (lo, hi) in zip(cells, bounds):
            mid = (lo + hi) / 2
            assert capped_linkage_run(inst, mid, budget).merges == (
                capped_linkage_run(inst, lo, budget).merges
            )
            for rho in (lo, mid):
                loss = clustering_run_with_cap(rho, inst, tau).capped_loss(tau)
                assert loss == int(cell.capped_losses[0])
        for i in range(1001):
            rho = Fraction(i, 1000)
            cell = next(c for c in cells if cell_contains(c.cell, rho))
            loss = clustering_run_with_cap(rho, inst, tau).capped_loss(tau)
            assert loss == int(cell.capped_losses[0])

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_pruning_cost_is_exact(self, data):
        matrix = self.draw_metric(data)
        n = len(matrix)
        inst = ClusteringInstance.from_lists(matrix, 1, Fraction(1))
        rho = data.draw(st.fractions(0, 1, max_denominator=10))
        full = capped_linkage_run(inst, rho, n - 1)
        for budget in range(n):
            forest = full.prefix(budget)
            for k in range(1, 4):
                got = best_pruning(forest, k, inst).cost
                want = enumerate_prunings(forest, k, inst)
                assert got == want
                if not math.isinf(want):
                    assert isinstance(got, Fraction)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_triangle_check_at_the_slack(self, data):
        matrix = self.draw_metric(data, max_points=5)
        n = len(matrix)
        # Stretch d(0, n-1) to the tightest detour plus the slack, then
        # nudge it by less than any distance's denominator resolves.
        detour = min(matrix[0][j] + matrix[j][n - 1] for j in range(1, n - 1))
        excess = data.draw(st.sampled_from([0, Fraction(1, 10**12), -Fraction(1, 10**12)]))
        matrix[0][n - 1] = matrix[n - 1][0] = detour + _TRIANGLE_SLACK + excess
        distances = tuple(map(tuple, matrix))
        expected = triangle_violation(distances, _TRIANGLE_SLACK)
        assert (expected is None) == (excess <= 0)
        if expected is None:
            ClusteringInstance(distances=distances, k=1, theta=Fraction(1))
        else:
            with pytest.raises(ValueError, match=re.escape(f"violated at {expected}")):
                ClusteringInstance(distances=distances, k=1, theta=Fraction(1))


class TestPoolSample:
    # Three draws leave pool indices undrawn, so a cell's j-th distinct
    # instance need not be pool index j.
    @pytest.mark.parametrize("tau, draws", [(2, 2000), (5, 2000), (5, 3)])
    def test_cells_match_per_draw_gather(self, tau, draws):
        problem = ClusteringProblem(random_pool(seed=21, count=6, max_points=6))
        sample = problem.sample_many(np.random.default_rng(3), draws)
        cells = clustering_partition(sample, tau)
        check_pool_cells_against_gather(problem, sample, cells, tau)


@st.composite
def rational_metrics(draw):
    """A metric with rational distances in ``[1, 2)``, which any such values
    satisfy (``d(i, l) < 2 <= d(i, j) + d(j, l)``), and a rational theta."""
    n = draw(st.integers(2, 5))
    distance = st.fractions(min_value=1, max_value=Fraction(119, 60), max_denominator=60)
    d = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        d[i][j] = d[j][i] = draw(distance)
    theta = draw(st.fractions(min_value=Fraction(1, 60), max_value=50, max_denominator=60))
    return ClusteringInstance.from_lists(d, draw(st.integers(1, n)), theta)


class TestInstanceFormat:
    @settings(max_examples=80, deadline=None)
    @given(rational_metrics())
    @example(
        ClusteringInstance.from_lists([[0, Fraction(4, 3)], [Fraction(4, 3), 0]], 1, Fraction(4, 3))
    )
    def test_format_reads_back_exactly(self, instance):
        assert parse_instance(format_instance(instance)) == instance

    def test_round_trip(self):
        for inst in random_pool(seed=39, count=5):
            again = parse_instance(format_instance(inst))
            assert again.distances == inst.distances
            assert again.k == inst.k
            assert again.theta == inst.theta

    @pytest.mark.parametrize("text, message", [
        ("", "^empty instance file$"),
        (" \n\n", "^empty instance file$"),
        ("2 1\n0 1\n1 0\n", "^first line must be 'n k theta'$"),
        ("2 1 1\n0 1\n", "^expected 3 nonblank lines, found 2$"),
        ("2 1 1\n0 1\n1 0\n1 1\n", "^expected 3 nonblank lines, found 4$"),
        ("2 1 1\n0 1\n1\n", "^each matrix line must carry 2 distances$"),
    ], ids=["empty", "blank", "header", "missing-line", "extra-line", "short-row"])
    def test_malformed_file_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_instance(text)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="^distance matrix must be symmetric$"):
            parse_instance("2 1 1\n0 1\n2 0\n")
        with pytest.raises(ValueError, match="^diagonal distances must be zero$"):
            parse_instance("2 1 1\n1 1\n1 0\n")
        with pytest.raises(ValueError, match=re.escape("triangle inequality violated at (0, 1, 2)")):
            parse_instance("3 1 1\n0 1 9\n1 0 1\n9 1 0\n")
        with pytest.raises(ValueError, match="^distances must be nonnegative$"):
            parse_instance("2 1 1\n0 -1\n-1 0\n")
        one, zero = Fraction(1), Fraction(0)
        with pytest.raises(ValueError, match="^distance matrix must be square$"):
            ClusteringInstance(distances=((zero, one), (one,)), k=1, theta=one)
        # A short row after a full one: caught before its mirror is read.
        two, three = Fraction(2), Fraction(3)
        with pytest.raises(ValueError, match="^distance matrix must be square$"):
            ClusteringInstance(((zero, one, two), (one, zero, three), (two,)), 1, one)
        # Mirrored entries spelled differently but equal in value.
        instance = parse_instance("3 1 1\n0 1 1/2\n1.0 0 3/4\n0.5 0.75 0\n")
        assert instance.distances[0][2] == instance.distances[2][0] == Fraction(1, 2)

    def test_non_rational_data_rejected(self):
        one, zero = Fraction(1), Fraction(0)
        with pytest.raises(TypeError, match="^ClusteringInstance theta must be rational.*from_lists"):
            ClusteringInstance(((zero, one), (one, zero)), 1, 0.5)
        with pytest.raises(TypeError, match="^ClusteringInstance distances must be rational.*from_lists"):
            ClusteringInstance(((zero, 1.0), (1.0, zero)), 1, one)
        instance = ClusteringInstance(((0, np.int64(2)), (np.int64(2), 0)), 1, 1)
        assert instance.integer_form == (1, ((0, 2), (2, 0)))

    @pytest.mark.parametrize(
        "n, k, theta, message",
        [
            (2, 1, Fraction(1), None),
            (1, 1, Fraction(1), "need at least two points"),
            (MAX_POINTS, 1, Fraction(1), None),
            (MAX_POINTS + 1, 1, Fraction(1), f"at most {MAX_POINTS} points supported"),
            (3, 3, Fraction(1), None),
            (3, 0, Fraction(1), re.escape("k must lie in [1, n]")),
            (3, 4, Fraction(1), re.escape("k must lie in [1, n]")),
            (3, 1, Fraction(1, 10**9), None),
            (3, 1, Fraction(0), "theta must be positive"),
            # A k that is not an integer is a TypeError naming it.
            (3, 1.5, Fraction(1), (TypeError, re.escape("k must be an integer, got 1.5"))),
            (3, 2.7, Fraction(1), (TypeError, re.escape("k must be an integer, got 2.7"))),
            (3, 2.0, Fraction(1), (TypeError, re.escape("k must be an integer, got 2.0"))),
            (3, True, Fraction(1), (TypeError, "k must be an integer, got True")),
            (3, "2", Fraction(1), (TypeError, "k must be an integer, got '2'")),
            (3, np.int64(2), Fraction(1), None),
        ],
    )
    def test_size_k_and_theta_boundaries(self, n, k, theta, message):
        # Points on a line, at distance |i - j|; the constructor and
        # ``from_lists`` check the same.
        distances = tuple(tuple(Fraction(abs(i - j)) for j in range(n)) for i in range(n))
        error, message = message if isinstance(message, tuple) else (ValueError, message)
        for build in (ClusteringInstance, ClusteringInstance.from_lists):
            if message is None:
                assert build(distances, k, theta).k == k
            else:
                with pytest.raises(error, match=f"^{message}$"):
                    build(distances, k, theta)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_parse_matches_token_by_token_reading(self, data):
        # Values are spelled several equal ways, so texts repeat within a file
        # and mirrored entries often differ in text but not in value.
        n = data.draw(st.integers(2, 5))
        distance = st.fractions(min_value=1, max_value=Fraction(15, 8), max_denominator=8)
        rows = [[data.draw(spelled(Fraction(0)))] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            value = data.draw(distance)
            rows[i][j], rows[j][i] = data.draw(spelled(value)), data.draw(spelled(value))
        k = data.draw(st.integers(1, n))
        theta = data.draw(spelled(data.draw(distance)))
        tokens = [*itertools.chain(*rows), theta]
        *tokens, theta = data.draw(with_bad_tokens(tokens, invalid=("-1", "0", "7/3")))
        rows = [tokens[i * n:(i + 1) * n] for i in range(n)]
        text = f"{n} {k} {theta}\n" + "".join(" ".join(row) + "\n" for row in rows)
        expected = outcome(lambda: ClusteringInstance(
            tuple(tuple(map(to_fraction, row)) for row in rows), k, to_fraction(theta)
        ))
        assert outcome(lambda: parse_instance(text)) == expected

    @pytest.mark.parametrize(
        "left, right, excess, accepted",
        [
            (Fraction(1), Fraction(1), Fraction(0), True),
            (Fraction(1), Fraction(1), Fraction(1, 10**12), False),
            (Fraction(1, 3), Fraction(1, 7), Fraction(0), True),
            (Fraction(1, 3), Fraction(1, 7), Fraction(1, 10**12), False),
        ],
    )
    def test_triangle_slack_boundary(self, left, right, excess, accepted):
        # d(0, 2) sits exactly at the 1e-9 slack above d(0, 1) + d(1, 2),
        # or 1e-12 past it.
        far = left + right + Fraction(1, 10**9) + excess
        zero = Fraction(0)
        distances = ((zero, left, far), (left, zero, right), (far, right, zero))
        if accepted:
            ClusteringInstance(distances=distances, k=1, theta=Fraction(1))
        else:
            with pytest.raises(ValueError, match=re.escape("violated at (0, 1, 2)")):
                ClusteringInstance(distances=distances, k=1, theta=Fraction(1))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_triangle_check_matches_oracle(self, data):
        n = data.draw(st.integers(2, 7))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if data.draw(st.booleans()):
            # Arbitrary symmetric matrices: mostly far from metric.
            entries = st.fractions(0, 3, max_denominator=12)
            values = [data.draw(entries) for _ in pairs]
        else:
            # Points on a line, each distance nudged around the slack.
            xs = [data.draw(st.fractions(0, 4, max_denominator=9)) for _ in range(n)]
            slack, past = Fraction(1, 10**9), Fraction(1, 10**12)
            nudges = st.sampled_from([0, -slack, slack, 2 * slack, slack + past, slack - past])
            values = [max(Fraction(0), abs(xs[i] - xs[j]) + data.draw(nudges)) for i, j in pairs]
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), value in zip(pairs, values):
            matrix[i][j] = matrix[j][i] = value
        distances = tuple(map(tuple, matrix))
        expected = triangle_violation(distances, _TRIANGLE_SLACK)
        if expected is None:
            ClusteringInstance(distances=distances, k=1, theta=Fraction(1))
        else:
            with pytest.raises(ValueError, match=re.escape(f"violated at {expected}")):
                ClusteringInstance(distances=distances, k=1, theta=Fraction(1))

    def test_load_from_file(self, tmp_path, four_point):
        path = tmp_path / "inst.metric"
        path.write_text(format_instance(four_point))
        again = load_instance(path)
        assert again.name == "inst.metric"
        assert again.distances == four_point.distances

    def test_random_generator_valid(self):
        # The threshold is the unconstrained optimum times a slack, which the
        # forest-constrained clusterings may still miss: instances are allowed
        # to be unsolvable, but the threshold must be positive and outcomes
        # deterministic.
        rng = np.random.default_rng(44)
        solved = 0
        for _ in range(20):
            inst = random_metric_instance(rng, num_points=6, k=2)
            assert inst.theta > 0
            out = clustering_run_with_cap(0.5, inst, inst.n - 1)
            assert out == clustering_run_with_cap(0.5, inst, inst.n - 1)
            solved += out.solved
        assert solved >= 10  # most random metrics are solvable with slack

    @pytest.mark.parametrize(
        "num_points, k, message",
        [
            (2, 1, None),
            (1, 1, "num_points out of range"),
            (MAX_POINTS, MAX_POINTS - 1, None),
            (MAX_POINTS + 1, 1, "num_points out of range"),
            (4, 0, re.escape("k must lie in [1, num_points)")),
            (4, 4, re.escape("k must lie in [1, num_points)")),
            # A size that is not an integer is a TypeError naming it.
            (6.5, 2, (TypeError, "num_points must be an integer, got 6.5")),
            (2.5, 1, (TypeError, "num_points must be an integer, got 2.5")),
            (3.0, 2, (TypeError, "num_points must be an integer, got 3.0")),
            (True, 1, (TypeError, "num_points must be an integer, got True")),
            (8, 6.5, (TypeError, "k must be an integer, got 6.5")),
            (6, 2.5, (TypeError, "k must be an integer, got 2.5")),
            (6, 3.0, (TypeError, "k must be an integer, got 3.0")),
            (6, True, (TypeError, "k must be an integer, got True")),
            (np.int64(6), np.int64(2), None),
        ],
    )
    def test_random_generator_argument_boundaries(self, num_points, k, message):
        rng = np.random.default_rng(5)
        error, message = message if isinstance(message, tuple) else (ValueError, message)
        if message is None:
            assert random_metric_instance(rng, num_points, k).n == num_points
        else:
            with pytest.raises(error, match=f"^{message}$"):
                random_metric_instance(rng, num_points, k)


class TestBudgetMonotonicity:
    def test_solved_stays_solved(self):
        for inst in random_pool(seed=71, count=15, max_points=6):
            previous = None
            for tau in range(0, inst.n + 2):
                out = clustering_run_with_cap(0.42, inst, tau)
                if previous is not None and previous.solved:
                    assert out.solved and out.budget_used == previous.budget_used
                previous = out
