"""Exact interval tracking for executions driven by affine score comparisons.

Both shipped combinatorial domains make a sequence of discrete decisions,
each an argmax (or argmin) over scores that are affine functions of the
single parameter ``rho``.  Running the algorithm once at the left endpoint of
an unresolved interval while recording, for every decision, the first point
to the right where the winning candidate changes, yields the maximal
right-open interval on which the whole execution is invariant.  Sweeping
left to right therefore produces the exact execution-invariance partition of
the unit interval.

A score line is a plain ``(intercept, slope)`` pair, whose value is
``intercept + slope * rho``.  Both domains pass int pairs, so arithmetic is
exact and stays in Python ints: a selection makes one pass comparing
values at ``rho = p/q`` scaled by ``q``, then one testing crossings by
cross-multiplication.  ``Fraction`` coefficients go through the same
expressions and stay exact.  The bound becomes a ``fractions.Fraction``
only when it shrinks, so breakpoints are exact and cells never drift
against a grid sweep.

Exact score ties break so that executions are right-continuous in ``rho``
(see ``DecisionTracker``), which is what lets every cell be half-open
``[lo, hi)`` with breakpoints owned by the cell on their right; the cell
ending at 1 also holds 1 (see ``ParamCell``).

A domain's sweep passes ``execute(tracker) -> CappedRunOutcome``: one run
at ``tracker.point``, capped at the partition's cap, so its ``budget_used``
is its capped loss.  ``cells_from_refinement`` reads nothing else.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from .core import CappedRunOutcome, ParamCell, PartitionCell, PoolSample, to_fraction

__all__ = [
    "DecisionTracker",
    "standalone_tracker",
    "DegenerateCellError",
    "sweep_unit_interval",
    "sweep_distinct",
    "refine_cells",
    "cells_from_refinement",
    "cell_count_ceiling",
]

T = TypeVar("T")
K = TypeVar("K")

MIN_CELL_WIDTH = Fraction(1, 10**12)
F_BOUND_SATURATION = 2**62


class DegenerateCellError(RuntimeError):
    """Raised when breakpoints cluster below the representable cell width.

    ``left`` is the left end of the cell being swept and ``bound`` the
    breakpoint that lies closer than ``MIN_CELL_WIDTH`` to it.
    """

    def __init__(self, message: str, left: Fraction, bound: Fraction) -> None:
        super().__init__(message)
        self.left = left
        self.bound = bound


class DecisionTracker:
    """Selects decision winners at a point and tracks their invariance bound.

    A candidate is ``(key, (intercept, slope))``: its score line, valued
    ``intercept + slope * rho``, is compared as given, with no common
    denominator.  ``bound`` starts at the sweep's right end and shrinks to
    the first point strictly right of ``point`` where any selection made so
    far would change.  A rival whose slope closes on the winner's meets it
    at ``crossing / closing``, and changes the selection there only if it
    trails at ``point = p/q``: ``crossing * q > p * closing``.  A tied rival
    never does.  ``bound`` is assigned only when it shrinks, so an unchanged
    bound is the same object.  With ``upper=None`` the tracker is
    untracked: it only selects, and ``bound`` stays None.

    An exact score tie breaks toward the candidate that stays the winner just
    right of ``point`` (largest slope for argmax, smallest for argmin), since
    cells are right-open and a breakpoint behaves like the cell it opens.  At
    ``point == 1``, which belongs to the topmost cell, it breaks toward the
    winner just left instead.  Remaining ties go to the earliest candidate
    in the supplied order.
    """

    __slots__ = ("point", "bound", "tie_rightward")

    def __init__(self, point: Fraction, upper: Fraction | None) -> None:
        self.point = point
        self.bound = upper
        self.tie_rightward = point != 1

    def argmax(self, candidates: Sequence[tuple[K, tuple]]) -> K:
        return self._select(candidates, 1)

    def argmin(self, candidates: Sequence[tuple[K, tuple]]) -> K:
        return self._select(candidates, -1)

    def _select(self, candidates: Sequence[tuple[K, tuple]], sense: int) -> K:
        if not candidates:
            raise ValueError("no candidates to select from")
        p, q = self.point.numerator, self.point.denominator
        tie = sense if self.tie_rightward else -sense
        # Each line's value at rho = p/q, scaled by sense * q: the winner's is largest.
        sp, sq = sense * p, sense * q
        best_key, (best_a, best_b) = candidates[0]
        best_v = sq * best_a + sp * best_b
        for key, (a, b) in candidates:
            v = sq * a + sp * b
            if v > best_v or (v == best_v and tie * (b - best_b) > 0):
                best_key, best_a, best_b, best_v = key, a, b, v
        if self.bound is None:
            return best_key
        bound_num, bound_den = self.bound.numerator, self.bound.denominator
        shrunk = False
        for _, (a, b) in candidates:
            closing = sense * (b - best_b)
            if closing > 0:
                crossing = sense * (best_a - a)
                if crossing * bound_den < bound_num * closing and crossing * q > p * closing:
                    bound_num, bound_den, shrunk = crossing, closing, True
        if shrunk:
            self.bound = Fraction(bound_num, bound_den)
        return best_key


def standalone_tracker(rho: Any) -> DecisionTracker:
    """Untracked selector for one run outside a sweep at the raw weight ``rho``.

    ``rho`` is read with ``to_fraction`` and must lie in [0, 1], else
    ``ValueError``; this is the one weight check of every standalone run.
    No invariance bound is computed.
    """
    point = to_fraction(rho)
    if not 0 <= point <= 1:
        raise ValueError("rho must lie in [0, 1]")
    return DecisionTracker(point, None)


def sweep_unit_interval(
    execute: Callable[[DecisionTracker], T],
) -> list[tuple[Fraction, Fraction, T]]:
    """Partition [0, 1] into maximal right-open execution-invariance cells.

    ``execute`` runs the full algorithm at ``tracker.point``, routing every
    score comparison through the tracker, and returns the cell payload: in
    both domains the run's ``CappedRunOutcome``.
    """
    cells: list[tuple[Fraction, Fraction, T]] = []
    cursor = Fraction(0)
    top = Fraction(1)
    while cursor < top:
        tracker = DecisionTracker(cursor, top)
        payload = execute(tracker)
        right = tracker.bound
        if right - cursor < MIN_CELL_WIDTH:
            raise DegenerateCellError(
                f"degenerate breakpoint cluster: breakpoint {right} lies within "
                f"{MIN_CELL_WIDTH} of the cell's left end {cursor}",
                left=cursor,
                bound=right,
            )
        cells.append((cursor, right, payload))
        cursor = right
    return cells


def sweep_distinct(
    sweep_one: Callable[[Any], list[tuple[Fraction, Fraction, T]]],
    sample: PoolSample,
    tau: int,
) -> tuple[list[list[tuple[Fraction, Fraction, T]]], np.ndarray]:
    """Sweep each distinct instance of a sample once, as ``(partitions, counts)``.

    ``partitions[j]`` is the sweep of the ``j``-th distinct pool index in
    ascending order, and ``counts[j]`` how often the sample drew it.  A
    degenerate cell names its instance and the cap.
    """
    uids, counts = sample.distinct()
    if uids.size == 0:
        raise ValueError("need at least one instance")
    partitions = []
    for uid in uids.tolist():
        instance = sample.pool[uid]
        try:
            partitions.append(sweep_one(instance))
        except DegenerateCellError as exc:
            name = getattr(instance, "name", "")
            where = f"instance {name!r} (pool uid {uid})" if name else f"instance at pool uid {uid}"
            raise DegenerateCellError(
                f"{exc} ({where}, cap {tau})", left=exc.left, bound=exc.bound
            ) from exc
    return partitions, counts


def refine_cells(
    per_instance: Sequence[Sequence[tuple[Fraction, Fraction, T]]],
) -> list[tuple[Fraction, Fraction, list[T]]]:
    """Common refinement of per-instance right-open partitions of [0, 1]."""
    if not per_instance:
        raise ValueError("need at least one instance partition")
    breakpoints = sorted({lo for cells in per_instance for lo, _, _ in cells} | {Fraction(1)})
    cursors = [0] * len(per_instance)
    refined: list[tuple[Fraction, Fraction, list[T]]] = []
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        payloads = []
        for idx, cells in enumerate(per_instance):
            while cells[cursors[idx]][1] <= lo:
                cursors[idx] += 1
            cell_lo, cell_hi, payload = cells[cursors[idx]]
            assert cell_lo <= lo and hi <= cell_hi
            payloads.append(payload)
        refined.append((lo, hi, payloads))
    return refined


def cells_from_refinement(
    refined: Sequence[tuple[Fraction, Fraction, list[CappedRunOutcome]]],
    counts: np.ndarray,
) -> list[PartitionCell]:
    """Build partition cells from refined run outcomes.

    The refinement holds one outcome per distinct instance and ``counts``
    (see ``sweep_distinct``) their multiplicities.  Every run was capped at
    the partition's cap, so its ``budget_used`` is its capped loss.
    """
    weights = counts.tolist()
    total = sum(weights)
    out = []
    for lo, hi, outcomes in refined:
        losses = [outcome.budget_used for outcome in outcomes]
        solved = sum(weight for outcome, weight in zip(outcomes, weights) if outcome.solved)
        out.append(PartitionCell(ParamCell(lo, hi), solved / total, losses, counts))
    return out


def cell_count_ceiling(sample: PoolSample, exponent: int) -> int:
    """``min(1 + sum of pool[u].n ** exponent over the drawn indices u, 2**62)``.

    Repeated draws count once per occurrence.  The terms are positive, so
    the sum saturates exactly when a running total would.
    """
    counts = sample.counts.tolist()
    total = 1 + sum(count * item.n**exponent for item, count in zip(sample.pool, counts) if count)
    return min(total, F_BOUND_SATURATION)
