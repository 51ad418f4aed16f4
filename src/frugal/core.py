"""Domain-agnostic types and contracts for capped-loss algorithm configuration.

A configuration problem consists of a distribution over problem instances, a
parameter space, and a loss oracle that reports the minimum integer budget a
configured algorithm needs to finish an instance.  All oracles here are
cap-mediated: a run either finishes within the requested budget (and reports
the exact minimum budget it needed) or exhausts the cap.  Losses above the cap
are never materialized.

Every domain tunes one weight ``rho`` in the unit interval, and its capped
loss is piecewise constant in ``rho``.  So a parameter is one number
(``ParamPoint``), the space is ``[0, 1]`` (``ParamSpace``), and a cell of
constant behavior is one half-open interval ``[lo, hi)`` (``ParamCell``).
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
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
    "MAX_DRAWS",
    "tail_capped_mean",
    "to_fraction",
    "parse_rational_rows",
    "integer_rows",
    "require_rational",
    "require_integer",
    "format_rational",
    "validate_cells_cover",
]


class ParamSpace:
    """The unit interval ``[0, 1]``: the parameter space of every domain."""

    lower = 0
    upper = 1


@dataclass(frozen=True)
class ParamPoint:
    """A learned parameter: one weight, a float or an exact rational."""

    scalar: Any


@dataclass(frozen=True)
class ParamCell:
    """A half-open interval ``[lo, hi)`` of the parameter space.

    A cell that reaches the space's upper bound 1 also contains 1, so the
    cells of a partition tile the whole space.  A point lying exactly on an
    interior breakpoint belongs to the cell on its right.
    """

    lo: Any
    hi: Any

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi})")

    @property
    def intervals(self) -> tuple[tuple[Any, Any]]:
        """``((lo, hi),)``.  Exists only because ``perfbench/workloads.py``
        reads it; read ``lo`` and ``hi`` instead."""
        return ((self.lo, self.hi),)

    def representative(self) -> Any:
        """Deterministic interior point: the midpoint, exact for rational ends."""
        return (self.lo + self.hi) / 2


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
    """A sample drawn from a finite pool, held as one draw count per pool item.

    ``counts[u]`` is how often the sample drew ``pool[u]``, a tuple of
    Python ints.  Everything the learner reads of a sample is a function of
    that multiset, so the order of the draws is not kept.  The size is
    summed once here, so ``len`` is O(1) and cannot go stale.
    """

    __slots__ = ("pool", "counts", "_size")

    def __init__(self, pool: Sequence[Any], counts: Iterable[int]) -> None:
        self.pool = pool
        counts = tuple(counts)
        if len(counts) != len(pool):
            raise ValueError(f"need one count per pool item, got {len(counts)} for {len(pool)}")
        try:
            self.counts = tuple(map(operator.index, counts))
            valid = min(self.counts, default=0) >= 0
        except TypeError:
            valid = False
        if not valid:
            u = next(u for u, count in enumerate(counts)
                     if not isinstance(count, numbers.Integral) or count < 0)
            raise ValueError(f"count {counts[u]!r} of pool index {u} is not a nonnegative int")
        self._size = sum(self.counts)

    def __len__(self) -> int:
        return self._size

    @property
    def uids(self) -> list[int]:
        """The pool indices drawn at least once, ascending."""
        return list(compress(range(len(self.counts)), self.counts))

    def distinct(self) -> tuple[list[int], list[int]]:
        """The pool indices drawn at least once, ascending, and their counts."""
        return self.uids, [count for count in self.counts if count]


@dataclass(eq=False)
class PartitionCell:
    """One region of parameter space with constant capped behavior.

    The partition's instance sequence is held as a multiset: ``losses[j]``
    is the capped loss in the cell of the ``j``-th distinct instance and
    ``counts[j]`` its multiplicity, both int sequences kept as given.  ``z``
    is the exact fraction of draws solved within the cap.
    """

    cell: ParamCell
    z: float
    losses: Sequence[int]
    counts: Sequence[int]

    def __post_init__(self) -> None:
        if not 0.0 <= self.z <= 1.0:
            raise ValueError("z must lie in [0, 1]")

    @cached_property
    def capped_losses(self) -> list[int]:
        """The capped loss of each draw, grouped by distinct instance."""
        return [loss for loss, count in zip(self.losses, self.counts, strict=True)
                for _ in range(count)]


# The most draws one ``sample_many`` call makes: numpy's multinomial count is an int64.
MAX_DRAWS = 2**63 - 1


class ConfigProblem:
    """Behavioral contract every configuration domain implements.

    The instance distribution is uniform over a finite ``pool`` and every
    sample is a ``PoolSample`` of draw counts per pool item.  The counts of
    ``count`` i.i.d. uniform draws are Multinomial(count, 1/n), so
    ``sample_many`` draws them as one multinomial, exact in distribution.
    The problem holds only its pool, so every method is a pure function of
    the pool and its arguments.  An instance is a pool item, fully
    determined when the pool is built, so a loss is a deterministic
    function of the parameter.  Subclasses must provide
    ``run_with_cap(rho, instance, tau)``, which receives the pool item
    itself, and ``get_partition(sample, tau)`` and ``f_bound(sample, tau)``,
    which receive a ``PoolSample``.  ``run_with_cap`` and ``get_partition``
    must be pure given the instances; ``f_bound`` must be monotone in both
    the instance set (under inclusion) and the cap, and must dominate the
    number of cells ``get_partition`` returns.  The solved flag of ``run_with_cap``
    must be non-decreasing in the cap, and a solved run's ``budget_used``
    must not depend on the cap.  Together with ``CappedRunOutcome``'s
    contract this makes one run at a cap ceiling report the exact loss, or
    the ceiling itself when the loss exceeds it.
    """

    def __init__(self, pool: Sequence[Any]) -> None:
        if not pool:
            raise ValueError("need a nonempty instance pool")
        self.pool = list(pool)

    def sample_many(self, rng: np.random.Generator, count: int) -> PoolSample:
        require_integer("count", count)
        n = len(self.pool)
        return PoolSample(self.pool, rng.multinomial(count, np.full(n, 1.0 / n)).tolist())

    def merge_samples(self, first: PoolSample, second: PoolSample) -> PoolSample:
        return PoolSample(self.pool, map(operator.add, first.counts, second.counts))

    def all_instances(self) -> PoolSample:
        return PoolSample(self.pool, [1] * len(self.pool))

    def run_with_cap(self, rho: Any, instance: Any, tau: int) -> CappedRunOutcome:
        raise NotImplementedError

    def get_partition(self, sample: PoolSample, tau: int) -> list[PartitionCell]:
        raise NotImplementedError

    def f_bound(self, sample: PoolSample, tau: int) -> int:
        raise NotImplementedError


def tail_capped_mean(losses, counts, rank: int) -> tuple[int, float]:
    """The ``rank``-th smallest (1-based) of the multiset holding each
    ``losses[j]`` ``counts[j]`` times, and that multiset's mean capped there.

    Entries are read as Python ints (numpy arrays too, so nothing overflows),
    and the mean is one int sum and one division: while the sum stays below
    2**53 it equals the float64 mean of the expanded vector bit for bit.
    """
    total = sum(map(int, counts))
    if not 1 <= rank <= total:
        raise ValueError(f"quantile index {rank} outside [1, {total}]: sample too small")
    below = seen = 0  # the sum and the count of the draws before the cutoff's pair
    for cutoff, count in sorted(zip(map(int, losses), map(int, counts), strict=True)):
        if seen + count >= rank:
            break
        below, seen = below + cutoff * count, seen + count
    return cutoff, (below + cutoff * (total - seen)) / total


def to_fraction(value: Any) -> Fraction:
    """Exact rational for a Fraction, an integer, a decimal string or a finite float."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"cannot interpret non-finite {float(value)!r} as an exact rational")
        return Fraction(float(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def parse_rational_rows(rows: Iterable[Iterable[Any]]) -> list[tuple[Fraction, ...]]:
    """``to_fraction`` of each value, row by row in reading order.

    Each distinct value (a token text, say) is converted once per call, at
    its first sighting, so the first bad value raises the same error as a
    value-by-value read; later equal values share the one (immutable)
    ``Fraction``.  Equal keys always convert to equal ``Fraction``s, since
    ``to_fraction`` is exact.
    """
    memo: dict[Any, Fraction] = {}
    parsed = []
    for row in rows:
        values = []
        for value in row:
            exact = memo.get(value)
            if exact is None:
                exact = memo[value] = to_fraction(value)
            values.append(exact)
        parsed.append(tuple(values))
    return parsed


def integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(scale, rows times scale)`` as Python ints (never numpy ints), ``scale``
    the lcm of every denominator in ``rows``; each row keeps its length."""
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return scale, tuple(
        tuple(int(v.numerator) * (scale // int(v.denominator)) for v in row) for row in rows
    )


def require_rational(owner: str, field: str, rows: Sequence[Sequence[Any]]) -> None:
    """Raise ``TypeError`` naming ``owner``'s ``field`` unless every entry of
    ``rows`` is a ``numbers.Rational`` (an int, a numpy int or a
    ``Fraction``): exact data has no float form, and ``owner.from_lists``
    parses one exactly."""
    if all(issubclass(kind, numbers.Rational) for kind in {type(v) for row in rows for v in row}):
        return
    bad = next(v for row in rows for v in row if not isinstance(v, numbers.Rational))
    raise TypeError(
        f"{owner} {field} must be rational (an int or a Fraction), got {bad!r}; "
        f"{owner}.from_lists converts decimal text and floats exactly"
    )


def require_integer(field: str, value: Any) -> None:
    """Raise ``TypeError`` naming ``field`` unless ``value`` is an integer (an
    int or a numpy int); a bool is rejected, though Python counts it one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{field} must be an integer, got {value!r}")


def format_rational(value: Fraction) -> str:
    """Instance-file text of a rational that reads back exactly: an integer as
    is, else its float text when that is exact, else ``p/q`` (also beyond
    the float range)."""
    if value.denominator == 1:
        return str(value.numerator)
    try:
        text = str(float(value))
    except OverflowError:
        return str(value)
    return text if Fraction(text) == value else str(value)


def validate_cells_cover(cells: Sequence[PartitionCell], space: ParamSpace) -> None:
    """Check that the cells tile the space exactly, without overlap.

    Raises ``ValueError`` on gaps or overlaps.  The cell ending at the
    upper bound contains it (see ``ParamCell``).  Exact comparisons only, so
    cell endpoints must be exact values (ints, Fractions, or floats produced
    by the same arithmetic).
    """
    if not cells:
        raise ValueError("no cells")
    cursor = space.lower
    for lo, hi in sorted((c.cell.lo, c.cell.hi) for c in cells):
        if lo != cursor:
            raise ValueError(f"gap or overlap at {cursor}: next interval starts at {lo}")
        cursor = hi
    if cursor != space.upper:
        raise ValueError(f"cells stop at {cursor}, space ends at {space.upper}")
