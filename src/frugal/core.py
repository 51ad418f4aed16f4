"""Domain-agnostic types and contracts for capped-loss algorithm configuration.

A configuration problem consists of a distribution over problem instances, a
parameter space, and a loss oracle that reports the minimum integer budget a
configured algorithm needs to finish an instance.  All oracles here are
cap-mediated: a run either finishes within the requested budget (and reports
the exact minimum budget it needed) or exhausts the cap.  Losses above the cap
are never materialized.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "ParamSpace",
    "ParamPoint",
    "ParamCell",
    "CappedRunOutcome",
    "PoolSample",
    "PartitionCell",
    "ConfigProblem",
    "DegenerateDistributionError",
    "tail_quantile_exact",
    "law_capped_mean",
    "tail_capped_mean",
    "to_fraction",
    "format_rational",
    "validate_cells_cover",
]


class DegenerateDistributionError(ValueError):
    """Raised for loss laws on which a tail quantile is not defined."""


@dataclass(frozen=True)
class ParamSpace:
    """A box-shaped parameter space of fixed dimension.

    All shipped domains use the one-dimensional unit interval; the dimension
    is carried explicitly because the sample-accuracy bound scales with it.
    """

    dimension: int = 1
    bounds: tuple[tuple[float, float], ...] = ((0.0, 1.0),)

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if len(self.bounds) != self.dimension:
            raise ValueError("one bound pair required per coordinate")
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"empty bound [{lo}, {hi}]")

    @property
    def lower(self) -> float:
        return self.bounds[0][0]

    @property
    def upper(self) -> float:
        return self.bounds[0][1]

    def contains(self, point: "ParamPoint") -> bool:
        if len(point.coordinates) != self.dimension:
            return False
        return all(
            lo <= x <= hi for x, (lo, hi) in zip(point.coordinates, self.bounds)
        )


@dataclass(frozen=True)
class ParamPoint:
    """A parameter vector.  Coordinates may be floats or exact rationals."""

    coordinates: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.coordinates:
            raise ValueError("a parameter point needs at least one coordinate")

    @property
    def scalar(self) -> Any:
        """The single coordinate of a one-dimensional point."""
        if len(self.coordinates) != 1:
            raise ValueError("scalar access requires a one-dimensional point")
        return self.coordinates[0]


@dataclass(frozen=True)
class ParamCell:
    """A region of a one-dimensional parameter space.

    The region is a union of disjoint half-open intervals ``[lo, hi)`` sorted
    ascending.  When ``top_closed`` is set, the topmost interval additionally
    contains its right endpoint; partition builders set the flag on the cell
    that reaches the space's upper bound so the cells tile the whole space.
    A point lying exactly on an interior breakpoint belongs to the cell on
    its right.
    """

    intervals: tuple[tuple[Any, Any], ...]
    label: Any = None
    top_closed: bool = False

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError("a cell needs at least one interval")
        prev_hi = None
        for lo, hi in self.intervals:
            if not lo < hi:
                raise ValueError(f"empty interval [{lo}, {hi})")
            if prev_hi is not None and lo < prev_hi:
                raise ValueError("intervals must be disjoint and sorted ascending")
            prev_hi = hi

    def contains(self, x: Any) -> bool:
        for lo, hi in self.intervals:
            if lo <= x < hi:
                return True
        return self.top_closed and x == self.intervals[-1][1]

    def representative(self) -> Any:
        """Deterministic interior point: the midpoint of the first interval."""
        lo, hi = self.intervals[0]
        if isinstance(lo, Fraction) or isinstance(hi, Fraction):
            return (Fraction(lo) + Fraction(hi)) / 2
        return (lo + hi) / 2


@dataclass(frozen=True)
class CappedRunOutcome:
    """Result of running a configured algorithm under an integer budget.

    ``solved`` means the run finished and ``budget_used`` is the exact minimum
    budget it needed (at most the requested cap).  Otherwise the run exhausted
    the cap and ``budget_used`` equals the cap itself.
    """

    budget_used: int
    solved: bool

    def __post_init__(self) -> None:
        if self.budget_used < 0:
            raise ValueError("budget_used must be nonnegative")

    @classmethod
    def finished(cls, loss: int) -> "CappedRunOutcome":
        return cls(budget_used=int(loss), solved=True)

    @classmethod
    def truncated(cls, cap: int) -> "CappedRunOutcome":
        return cls(budget_used=int(cap), solved=False)

    def capped_loss(self, cap: int) -> int:
        return min(self.budget_used, cap)


class PoolSample:
    """A sample drawn from a finite pool, held as an array of pool indices.

    ``uids[i]`` is the pool index of the ``i``-th draw, so the instance it
    drew is ``pool[uids[i]]``.
    """

    __slots__ = ("pool", "uids")

    def __init__(self, pool: Sequence[Any], uids: np.ndarray) -> None:
        self.pool = pool
        self.uids = np.asarray(uids)

    def __len__(self) -> int:
        return int(self.uids.shape[0])

    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """The pool indices drawn at least once, ascending, and each draw's
        position among them."""
        uids = np.flatnonzero(np.bincount(self.uids, minlength=len(self.pool)))
        position = np.zeros(len(self.pool), dtype=np.int64)
        position[uids] = np.arange(uids.size)
        return uids, position[self.uids]


@dataclass(eq=False)
class PartitionCell:
    """One region of parameter space with constant capped behavior.

    The partition's instance sequence is held as a multiset: ``losses[j]``
    is the capped loss in the cell of the ``j``-th distinct instance,
    ``counts[j]`` its multiplicity, and ``inverse[i]`` the distinct instance
    of the ``i``-th draw (one array shared by the partition's cells).  ``z``
    is the exact fraction of draws solved within the cap.
    """

    cell: ParamCell
    z: float
    losses: np.ndarray
    counts: np.ndarray
    inverse: np.ndarray

    def __post_init__(self) -> None:
        self.losses = np.asarray(self.losses, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if not 0.0 <= self.z <= 1.0:
            raise ValueError("z must lie in [0, 1]")

    @cached_property
    def capped_losses(self) -> np.ndarray:
        """The capped loss of each draw, gathered on first use."""
        return self.losses[self.inverse]


class ConfigProblem:
    """Behavioral contract every configuration domain implements.

    The instance distribution is uniform over a finite ``pool`` and every
    sample is a ``PoolSample`` of pool indices; the problem holds only its
    pool, so every method is a pure function of the pool and its arguments.
    An instance is a pool item, fully determined when the pool is built, so
    a loss is a deterministic function of the parameter.  Subclasses must
    provide ``run_with_cap(rho, instance, tau)``, which receives the pool
    item itself, and ``get_partition(sample, tau)`` and
    ``f_bound(sample, tau)``, which receive a ``PoolSample``.
    ``run_with_cap`` and ``get_partition`` must be pure given the
    instances; ``f_bound`` must be monotone in both the
    instance set (under inclusion) and the cap, and must dominate the number
    of cells ``get_partition`` returns.  The solved flag of ``run_with_cap``
    must be non-decreasing in the cap, and a solved run's ``budget_used``
    must not depend on the cap.  Together with ``CappedRunOutcome``'s
    contract this makes one run at a cap ceiling report the exact loss, or
    the ceiling itself when the loss exceeds it.
    """

    space: ParamSpace = ParamSpace()

    def __init__(self, pool: Sequence[Any]) -> None:
        if not pool:
            raise ValueError("need a nonempty instance pool")
        self.pool = list(pool)

    def sample_many(self, rng: np.random.Generator, count: int) -> PoolSample:
        # One batched draw yields the same indices, and leaves the generator
        # in the same state, as ``count`` scalar draws.
        return PoolSample(self.pool, rng.integers(len(self.pool), size=count))

    def merge_samples(self, first: PoolSample, second: PoolSample) -> PoolSample:
        return PoolSample(self.pool, np.concatenate([first.uids, second.uids]))

    def all_instances(self) -> PoolSample:
        return PoolSample(self.pool, np.arange(len(self.pool)))

    def run_with_cap(self, rho: Any, instance: Any, tau: int) -> CappedRunOutcome:
        raise NotImplementedError

    def get_partition(self, sample: PoolSample, tau: int) -> list[PartitionCell]:
        raise NotImplementedError

    def f_bound(self, sample: PoolSample, tau: int) -> int:
        raise NotImplementedError


def _normalize_law(law: Iterable[tuple[Any, Any]]) -> list[tuple[int, float]]:
    pairs = [(int(v), float(p)) for v, p in law]
    if not pairs:
        raise DegenerateDistributionError("degenerate distribution: empty loss law")
    total = 0.0
    for value, prob in pairs:
        if value < 0:
            raise ValueError(f"loss values must be nonnegative, got {value}")
        if prob <= 0.0:
            raise ValueError(f"probabilities must be positive, got {prob}")
        total += prob
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {total}")
    return pairs


def tail_quantile_exact(law: Iterable[tuple[Any, Any]], delta: float) -> int:
    """Largest integer budget whose tail probability still reaches ``delta``.

    For a finite loss law this is ``max { tau : Pr[loss >= tau] >= delta }``.
    Used as an exact oracle on distributions with known laws; laws with
    unbounded support are rejected by construction (the law must be finite).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    pairs = _normalize_law(law)
    best = None
    for value in sorted({v for v, _ in pairs}):
        tail = sum(p for v, p in pairs if v >= value)
        if tail >= delta:
            best = value
    # The smallest support value has tail probability 1 > delta, so a
    # quantile always exists for a valid law.
    assert best is not None
    return best


def law_capped_mean(law: Iterable[tuple[Any, Any]], cap: int) -> float:
    """Expected capped loss ``E[min{loss, cap}]`` of a finite loss law."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    pairs = _normalize_law(law)
    return sum(p * min(v, cap) for v, p in pairs)


def tail_capped_mean(losses, counts, rank: int) -> tuple[int, float]:
    """The ``rank``-th smallest (1-based) of the multiset holding each
    ``losses[j]`` ``counts[j]`` times, and that multiset's mean capped there.

    The mean is one Python-int sum and one division; while the sum stays
    below 2**53 it equals the float64 mean of the expanded vector bit for bit.
    """
    losses, counts = np.asarray(losses, dtype=np.int64), np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if not 1 <= rank <= total:
        raise ValueError(f"quantile index {rank} outside [1, {total}]: sample too small")
    order = np.argsort(losses)
    cutoff = int(losses[order[np.searchsorted(np.cumsum(counts[order]), rank)]])
    capped = np.minimum(losses, cutoff).tolist()
    return cutoff, sum(loss * count for loss, count in zip(capped, counts.tolist())) / total


def to_fraction(value: Any) -> Fraction:
    """Exact rational for a Fraction, an integer, a decimal string or a float."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (float, np.floating)):
        return Fraction(float(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(value: Fraction) -> str:
    """Instance-file text of a rational: an integer as is, anything else as a float."""
    if value.denominator == 1:
        return str(value.numerator)
    return str(float(value))


def validate_cells_cover(cells: Sequence[PartitionCell], space: ParamSpace) -> None:
    """Check that the cells' intervals tile the space exactly, without overlap.

    Raises ``ValueError`` on gaps, overlaps, or a missing closed top end.
    Exact comparisons only, so interval endpoints must be exact values
    (ints, Fractions, or floats produced by the same arithmetic).
    """
    if space.dimension != 1:
        raise ValueError("coverage validation is implemented for dimension 1")
    intervals = sorted(
        (iv for c in cells for iv in c.cell.intervals), key=lambda iv: (iv[0], iv[1])
    )
    if not intervals:
        raise ValueError("no cells")
    cursor = space.lower
    for lo, hi in intervals:
        if lo != cursor:
            raise ValueError(f"gap or overlap at {cursor}: next interval starts at {lo}")
        cursor = hi
    if cursor != space.upper:
        raise ValueError(f"cells stop at {cursor}, space ends at {space.upper}")
    top = max(cells, key=lambda c: c.cell.intervals[-1][1])
    if not top.cell.top_closed:
        raise ValueError("topmost cell must close at the space's upper bound")
