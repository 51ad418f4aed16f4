"""An exactly solvable configuration family with closed-form loss laws.

The parameter space splits into three regions with known laws: a middle
band where the loss is a small constant with probability one, and two outer
regions where the loss is that constant or a much larger value with equal
probability, each driven by an independent coin frozen into the instance at
sampling time.  The region count is 3 for every instance set and cap.  Below
tail level 1/2 a region's tail quantile is its heavy loss, and the loss capped
there has mean ``(loss_mid + heavy) / 2``, so the optimal capped expectation
is the middle band's constant (``synthetic_exact_opt``).  The general
finite-law oracle that checks this closed form lives in ``tests/support.py``.
This family is the quantitative substrate of the acceptance suite: the
expensive combinatorial domains are exercised for exactness, this one for
end-to-end guarantees.

The default tail losses 16 and 256 stand in for tree sizes that grow
exponentially with instance size in the motivating worst-case construction;
they are plain integer knobs here because only the law matters to the
learner.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .core import (
    CappedRunOutcome,
    ConfigProblem,
    ParamCell,
    PartitionCell,
    PoolSample,
)

__all__ = [
    "SyntheticFamily",
    "SyntheticInstance",
    "SyntheticProblem",
    "SyntheticOptSummary",
    "synthetic_run_with_cap",
    "synthetic_partition",
    "synthetic_exact_opt",
]

@dataclass(frozen=True)
class SyntheticFamily:
    """Family parameters: breakpoints and the three loss magnitudes.

    The left region is ``rho <= a``, the middle is the open band ``(a, b)``,
    and the right region is ``rho >= b``; both breakpoints must sit strictly
    between 1/3 and 1/2.
    """

    a: float = 0.35
    b: float = 0.45
    loss_mid: int = 8
    loss_low: int = 16
    loss_high: int = 256

    def __post_init__(self) -> None:
        # A fractional loss would be truncated by ``CappedRunOutcome.finished``
        # but compared whole against the cap by ``synthetic_partition``.
        for loss in (self.loss_mid, self.loss_low, self.loss_high):
            if isinstance(loss, bool) or not isinstance(loss, numbers.Integral):
                raise ValueError(f"losses must be integers, got {loss!r}")
        if not 1.0 / 3.0 < self.a < self.b < 0.5:
            raise ValueError("breakpoints must satisfy 1/3 < a < b < 1/2")
        if not 0 < self.loss_mid < self.loss_low < self.loss_high:
            raise ValueError("losses must satisfy 0 < mid < low < high")

    def region(self, rho: float) -> str:
        if rho <= self.a:
            return "low"
        if rho < self.b:
            return "mid"
        return "high"


@dataclass(frozen=True)
class SyntheticInstance:
    """The two coins of an instance; True means the heavy-tail outcome."""

    coin_low: bool
    coin_high: bool


def _instance_loss(family: SyntheticFamily, rho: float, instance: SyntheticInstance) -> int:
    region = family.region(rho)
    if region == "mid":
        return family.loss_mid
    if region == "low":
        return family.loss_low if instance.coin_low else family.loss_mid
    return family.loss_high if instance.coin_high else family.loss_mid


def synthetic_run_with_cap(
    family: SyntheticFamily, rho: float, instance: SyntheticInstance, tau: int
) -> CappedRunOutcome:
    """Closed-form capped run: solved exactly when the instance loss fits the cap."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    loss = _instance_loss(family, rho, instance)
    if loss <= tau:
        return CappedRunOutcome.finished(loss)
    return CappedRunOutcome.truncated(tau)


def synthetic_partition(
    family: SyntheticFamily, instances: PoolSample, tau: int
) -> list[PartitionCell]:
    """The exact three-region partition for any sample and cap.

    Cells are half-open with breakpoints owned rightward, so the left cell
    runs up to the smallest float above ``a``: membership of every
    representable parameter then matches the closed-left / open-middle /
    closed-right region law used by ``synthetic_run_with_cap``.  A cell holds
    the capped loss at its left end of every drawn instance, with its count.
    """
    if tau < 1:
        raise ValueError("tau must be a positive integer")
    uids, counts = instances.distinct()
    if not uids:
        raise ValueError("need at least one instance")
    drawn = [instances.pool[uid] for uid in uids]
    just_above_a = math.nextafter(family.a, 1.0)
    band = ((0.0, just_above_a), (just_above_a, family.b), (family.b, 1.0))
    cells = []
    for lo, hi in band:
        raw = [_instance_loss(family, lo, instance) for instance in drawn]
        solved = sum(n for loss, n in zip(raw, counts) if loss <= tau)
        cells.append(
            PartitionCell(
                cell=ParamCell(lo, hi),
                z=solved / len(instances),
                losses=[min(loss, tau) for loss in raw],
                counts=counts,
            )
        )
    return cells


@dataclass(frozen=True)
class SyntheticOptSummary:
    """Closed-form benchmark quantities at a given tail level."""

    opt_quarter: float
    t_delta_by_region: dict[str, int]
    capped_mean_by_region: dict[str, float]


def synthetic_exact_opt(family: SyntheticFamily, delta: float) -> SyntheticOptSummary:
    """Exact optimum of the quarter-tail capped expectation over the space.

    Each region's loss is ``loss_mid`` or its heavy loss with probability 1/2
    each (the middle band's heavy loss is ``loss_mid`` itself).  The tail
    level ``delta / 4`` lies below 1/2, so the region's quarter-tail quantile
    is its heavy loss, and the loss capped there has mean
    ``0.5 * loss_mid + 0.5 * heavy``.  The optimum is their minimum, attained
    on the middle band where the loss is constant.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    tails = {"low": family.loss_low, "mid": family.loss_mid, "high": family.loss_high}
    means = {region: 0.5 * family.loss_mid + 0.5 * heavy for region, heavy in tails.items()}
    return SyntheticOptSummary(
        opt_quarter=min(means.values()),
        t_delta_by_region=tails,
        capped_mean_by_region=means,
    )


class SyntheticProblem(ConfigProblem):
    """Configuration-problem adapter around a synthetic family.

    The two fair coins make the instance distribution uniform over four
    instances; pool index ``coin_low + 2 * coin_high`` holds each.
    """

    def __init__(self, family: SyntheticFamily | None = None) -> None:
        super().__init__([SyntheticInstance(bool(i & 1), bool(i & 2)) for i in range(4)])
        self.family = family or SyntheticFamily()

    # Bound on this class, not inherited, so that tracing finds them by name.
    sample_many = ConfigProblem.sample_many
    merge_samples = ConfigProblem.merge_samples

    def run_with_cap(self, rho, instance: SyntheticInstance, tau: int) -> CappedRunOutcome:
        return synthetic_run_with_cap(self.family, float(rho), instance, tau)

    def get_partition(self, sample: PoolSample, tau: int) -> list[PartitionCell]:
        return synthetic_partition(self.family, sample, tau)

    def f_bound(self, sample: PoolSample, tau: int) -> int:
        return 3
