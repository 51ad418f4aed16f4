"""Shared fixtures and independent oracles used across the test modules.

Every oracle here is deliberately implemented by brute force (enumeration,
scanning, bisection on the raw formula) so it stays independent of the
library code paths it checks.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from frugal.core import (
    CappedRunOutcome,
    ConfigProblem,
    InstanceHandle,
    ParamCell,
    ParamSpace,
    PartitionCell,
)


def brute_tail_quantile(law, delta):
    """Scan every integer budget up to just past the support maximum."""
    values = [v for v, _ in law]
    best = None
    for tau in range(0, max(values) + 2):
        tail = sum(p for v, p in law if v >= tau)
        if tail >= delta:
            best = tau
    return best


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


def enumerate_prunings(forest, k, instance):
    """Minimum pruning cost by enumerating every antichain selection.

    A selection picks, per root, a frontier of its subtree (either the node
    itself or frontiers of both children, recursively); selections with
    exactly k clusters are scored directly.
    """
    children = forest.children()

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


def gamma_reference(round_index, sample_count, cap, f_value, dimension, confidence):
    """Independently coded accuracy bound: single-log form on exact integers."""
    b = sample_count
    product = 8 * (cap * b * round_index) ** 2
    return math.sqrt(2.0 * dimension * math.log(f_value) / b) + 2.0 * math.sqrt(
        (2.0 / b) * math.log(product / confidence)
    )


def min_samples_oracle(round_index, cap, f_value, dimension, confidence, target,
                       upper=50_000_000):
    """Doubling-then-bisection solve of the growth stopping inequality."""

    def gamma(b):
        return gamma_reference(round_index, b, cap, f_value, dimension, confidence)

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


class ConstantLossProblem(ConfigProblem):
    """Every parameter solves every instance at one fixed loss; one cell."""

    domain = "constant"

    def __init__(self, loss=1):
        self.loss = loss
        self.space = ParamSpace()
        self._uid = 0

    def sample(self, rng):
        self._uid += 1
        return InstanceHandle(domain=self.domain, uid=self._uid, payload=None)

    def run_with_cap(self, rho, instance, tau):
        if self.loss <= tau:
            return CappedRunOutcome.finished(self.loss)
        return CappedRunOutcome.truncated(tau)

    def get_partition(self, instances, tau):
        count = len(instances)
        capped = np.full(count, min(self.loss, tau), dtype=np.int64)
        z = 1.0 if self.loss <= tau else 0.0
        cell = ParamCell(intervals=((0.0, 1.0),), label=0, top_closed=True)
        return [PartitionCell(cell=cell, z=z, capped_losses=capped)]

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


class TwoBandProblem(ConfigProblem):
    """Deterministic two-band toy: loss `low_loss` below 0.5, `high_loss` above."""

    domain = "two_band"

    def __init__(self, low_loss=2, high_loss=5):
        self.low_loss = low_loss
        self.high_loss = high_loss
        self.space = ParamSpace()
        self._uid = 0

    def _loss(self, rho):
        return self.low_loss if rho < 0.5 else self.high_loss

    def sample(self, rng):
        self._uid += 1
        return InstanceHandle(domain=self.domain, uid=self._uid, payload=None)

    def run_with_cap(self, rho, instance, tau):
        loss = self._loss(rho)
        if loss <= tau:
            return CappedRunOutcome.finished(loss)
        return CappedRunOutcome.truncated(tau)

    def get_partition(self, instances, tau):
        count = len(instances)
        cells = []
        for label, (lo, hi, loss) in enumerate(
            ((0.0, 0.5, self.low_loss), (0.5, 1.0, self.high_loss))
        ):
            cells.append(
                PartitionCell(
                    cell=ParamCell(intervals=((lo, hi),), label=label, top_closed=hi == 1.0),
                    z=1.0 if loss <= tau else 0.0,
                    capped_losses=np.full(count, min(loss, tau), dtype=np.int64),
                )
            )
        return cells

    def f_bound(self, instances, tau):
        return 2


def four_point_metric():
    """The hand-built 4-point metric with its exact 2-median cost of 3."""
    return [
        ["0", "1", "2", "4"],
        ["1", "0", "2.5", "4"],
        ["2", "2.5", "0", "2.3"],
        ["4", "4", "2.3", "0"],
    ]


def check_partition_contract(problem, instances, cells, tau, rng, points_per_cell=25):
    """GetPartition soundness: sampled interior points reproduce the recorded
    capped losses exactly, and the solved fraction matches z."""
    for cell in cells:
        lo, hi = cell.cell.intervals[0]
        width = float(hi) - float(lo)
        points = [float(lo) + width * float(u) for u in rng.random(points_per_cell)]
        points = [p for p in points if cell.cell.contains(p)] or [
            float(cell.cell.representative())
        ]
        for rho in points:
            solved_count = 0
            for idx, handle in enumerate(instances):
                outcome = problem.run_with_cap(rho, handle, tau)
                assert outcome.capped_loss(tau) == int(cell.capped_losses[idx]), (
                    f"capped loss mismatch at rho={rho} cell={cell.cell.intervals}"
                )
                solved_count += outcome.solved
            assert solved_count / len(instances) == cell.z
