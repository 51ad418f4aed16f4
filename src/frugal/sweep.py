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
exact and stays in Python ints: values at the point ``rho = p/q`` are
compared scaled by ``q``, and a crossing is tested against the bound by
cross-multiplication.  A pair of ``Fraction`` coefficients goes through the
same expressions and stays exact.  A breakpoint becomes a
``fractions.Fraction`` only when it shrinks the bound, so breakpoints are
exact and cells never drift against a grid sweep.

Selection ties break toward the candidate that stays the winner immediately
to the right of the tie point (largest slope for argmax, smallest for
argmin), then toward the earliest candidate in the supplied order.  This
makes executions right-continuous in ``rho``, which is what lets every cell
be half-open ``[lo, hi)`` with breakpoints owned by the cell on their right.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from .core import ParamCell, PartitionCell, PoolSample, to_fraction

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
    far would change.  With ``upper=None`` the tracker is untracked: it only
    selects, and ``bound`` stays None.

    ``tie_rightward`` controls which side of an exact score tie the winner
    comes from.  Interior points break toward the candidate that wins just
    right of the point (cells are right-open, so a breakpoint behaves like
    the cell it opens); the single exception is an evaluation exactly at the
    space's top endpoint, which belongs to the topmost cell and must behave
    like the limit from the left.
    """

    __slots__ = ("point", "bound", "tie_rightward")

    def __init__(
        self, point: Fraction, upper: Fraction | None, tie_rightward: bool = True
    ) -> None:
        self.point = point
        self.bound = upper
        self.tie_rightward = tie_rightward

    def argmax(self, candidates: Sequence[tuple[K, tuple]]) -> K:
        return self._select(candidates, 1)

    def argmin(self, candidates: Sequence[tuple[K, tuple]]) -> K:
        return self._select(candidates, -1)

    def _select(self, candidates: Sequence[tuple[K, tuple]], sense: int) -> K:
        if not candidates:
            raise ValueError("no candidates to select from")
        p, q = self.point.numerator, self.point.denominator
        side = 1 if self.tie_rightward else -1
        # Each line's value at rho = p/q, scaled by q > 0.
        values = [q * a + p * b for _, (a, b) in candidates]
        best, best_v, best_b = 0, values[0], candidates[0][1][1]
        for index, ((_, (_, b)), v) in enumerate(zip(candidates, values)):
            lead = sense * (v - best_v)
            if lead > 0 or (lead == 0 and side * sense * (b - best_b) > 0):
                best, best_v, best_b = index, v, b
        best_key, (best_a, _) = candidates[best]
        if self.bound is None:
            return best_key
        bound_num, bound_den = self.bound.numerator, self.bound.denominator
        for (_, (a, b)), v in zip(candidates, values):
            # Only a strictly trailing rival that closes the gap crosses the
            # winner w, where the lines meet: rho = (a_w - a) / (b - b_w).  A
            # tie (the winner itself among them) is kept forever.
            closing = sense * (b - best_b)
            if closing > 0 and sense * (best_v - v) > 0:
                crossing = sense * (best_a - a)
                if crossing * bound_den < bound_num * closing:
                    self.bound = Fraction(crossing, closing)
                    bound_num, bound_den = self.bound.numerator, self.bound.denominator
        return best_key


def standalone_tracker(rho: Any) -> DecisionTracker:
    """Untracked selector for one run outside a sweep at the raw weight ``rho``.

    ``rho`` is read with ``to_fraction`` and must lie in [0, 1], else
    ``ValueError``; this is the one weight check of every standalone run.
    No invariance bound is computed, and ties break rightward except at 1.
    """
    point = to_fraction(rho)
    if not 0 <= point <= 1:
        raise ValueError("rho must lie in [0, 1]")
    return DecisionTracker(point, None, tie_rightward=point != 1)


def sweep_unit_interval(
    execute: Callable[[Fraction, DecisionTracker], T],
) -> list[tuple[Fraction, Fraction, T]]:
    """Partition [0, 1] into maximal right-open execution-invariance cells.

    ``execute`` runs the full algorithm at the given point, routing every
    score comparison through the tracker, and returns the cell payload.
    """
    cells: list[tuple[Fraction, Fraction, T]] = []
    cursor = Fraction(0)
    top = Fraction(1)
    while cursor < top:
        tracker = DecisionTracker(cursor, top)
        payload = execute(cursor, tracker)
        right = min(tracker.bound, top)
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
    """Sweep each distinct instance of a sample once, as ``(partitions, inverse)``.

    ``partitions[j]`` is the sweep of the ``j``-th distinct pool index in
    ascending order, and ``inverse[i]`` the position of the ``i``-th draw's
    among them.  A degenerate cell names its instance and the cap.
    """
    if len(sample) == 0:
        raise ValueError("need at least one instance")
    uids, inverse = sample.distinct()
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
    return partitions, inverse


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
    refined: Sequence[tuple[Fraction, Fraction, list[tuple[int, bool]]]],
    inverse: np.ndarray,
) -> list[PartitionCell]:
    """Build partition cells from refined (capped_loss, solved) payloads.

    The refinement holds one payload per distinct instance; ``inverse``
    (see ``sweep_distinct``) maps each draw to its distinct instance and
    gives their multiplicities.
    """
    counts = np.bincount(inverse)
    total = len(inverse)
    out = []
    for lo, hi, payloads in refined:
        losses = [loss for loss, _ in payloads]
        solved = np.array([ok for _, ok in payloads], dtype=np.bool_)
        cell = ParamCell(lo, hi, top_closed=(hi == Fraction(1)))
        z = int(counts[solved].sum()) / total
        out.append(PartitionCell(cell=cell, z=z, losses=losses, counts=counts, inverse=inverse))
    return out


def cell_count_ceiling(sample: PoolSample, cells_of: Callable[[Any], int]) -> int:
    """``min(1 + sum of cells_of(pool[u]) over the drawn indices u, 2**62)``.

    Repeated draws count once per occurrence.  The terms are positive, so
    the sum saturates exactly when a running total would.
    """
    counts = np.bincount(sample.uids, minlength=len(sample.pool)).tolist()
    total = 1 + sum(count * cells_of(item) for item, count in zip(sample.pool, counts) if count)
    return min(total, F_BOUND_SATURATION)
