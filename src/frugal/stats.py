"""Concentration machinery gating the learner's sample growth.

The learner keeps drawing instances until the sample-accuracy bound below
drops under its per-round accuracy target.  The bound combines a
finite-class complexity term (via the number of behavior regions the capped
problem admits) with a union-bound term over rounds, sample sizes and caps.
Sizing a round (``min_samples_for_target``) solves the bound's equation for
the sample count in the reals, then settles the integer count by probing
the bound itself.  The bound and its target ``eta * delta`` are floats that
only size samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import require_integer

__all__ = ["GammaInputs", "gamma_bound", "min_samples_for_target"]

_LN8 = math.log(8.0)


@dataclass(frozen=True)
class GammaInputs:
    """Arguments of the sample-accuracy bound.

    ``f_value`` is the number of constant-behavior regions of the parameter
    space for the current sample set and cap; ``confidence`` is the failure
    probability budget of the whole run.  An integer field that is not an
    integer, or is a bool, raises ``TypeError``; one below 1, ``ValueError``.
    """

    round_index: int
    sample_count: int
    cap: int
    f_value: int
    confidence: float = 0.05

    def __post_init__(self) -> None:
        for name in ("round_index", "sample_count", "cap", "f_value"):
            require_integer(name, getattr(self, name))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")


def _gamma_of_count(round_index, cap, f_value, confidence) -> Callable[[int], float]:
    """``gamma_bound`` as a function of ``b`` alone: the terms free of ``b`` are
    computed once and summed in ``gamma_bound``'s order, so floats stay bit-identical."""
    two_ln_f = 2.0 * math.log(f_value)
    ln_cap, ln_t, ln_zeta = math.log(cap), math.log(round_index), math.log(confidence)

    def gamma(b: int) -> float:
        log_union = _LN8 + 2.0 * (ln_cap + math.log(b) + ln_t) - ln_zeta
        return math.sqrt(two_ln_f / b) + 2.0 * math.sqrt(2.0 * log_union / b)

    return gamma


def _count_at_accuracy(round_index, cap, f_value, confidence, target, start) -> float:
    """The real sample count at which the bound equals ``target``, or ``start``
    when that count lies below ``start`` (which must be at least 1).

    ``gamma(b) = target`` rearranges to the fixed point
    ``b = ((sqrt(2 ln f) + 2 sqrt(2 (c + 2 ln b))) / target)^2`` with
    ``c = ln 8 + 2 (ln tau + ln t) - ln zeta``.  The right side rises only
    logarithmically in ``b``, so iterating it from ``start`` climbs
    monotonically to the root; the loop stops once a step moves the count by
    less than one draw.  The result is an estimate: its float terms need not
    match ``gamma_bound``'s association.
    """
    sqrt_complexity = math.sqrt(2.0 * math.log(f_value))
    c = _LN8 + 2.0 * (math.log(cap) + math.log(round_index)) - math.log(confidence)
    b = start
    while True:
        sqrt_b = (sqrt_complexity + 2.0 * math.sqrt(2.0 * (c + 2.0 * math.log(b)))) / target
        next_b = max(sqrt_b * sqrt_b, start)
        if next_b - b < 1.0:
            return next_b
        b = next_b


def gamma_bound(inputs: GammaInputs) -> float:
    """Accuracy to which a sample of the given size pins down capped losses.

    Equals ``sqrt(2 ln f / b) + 2 sqrt((2/b) ln(8 (tau b t)^2 / zeta))``
    with ``b`` the sample count, ``t`` the round and ``tau`` the cap.  The
    logarithm of the union-bound term is expanded in log space
    (``ln 8 + 2(ln tau + ln b + ln t) - ln zeta``) so huge caps cannot
    overflow.  Strictly positive, and strictly decreasing in ``b`` for any
    valid inputs when ``f_value`` is held fixed.
    """
    return _gamma_of_count(
        inputs.round_index, inputs.cap, inputs.f_value, inputs.confidence
    )(inputs.sample_count)


def min_samples_for_target(
    round_index: int,
    cap: int,
    f_value: int,
    zeta: float,
    target: float,
    lower: int,
    upper: int,
) -> int | None:
    """Smallest sample count in [lower, upper] meeting the accuracy target.

    Assumes the region count stays at ``f_value``; the bound is strictly
    decreasing in the sample count, so the counts that meet the target are
    all those from the first one on.  Returns None when the range is empty
    or even ``upper`` misses the target.  Otherwise the real root of
    ``gamma(b) = target`` (``_count_at_accuracy``, from ``lower``, which must
    be positive) estimates the first count, and probes of the float bound
    itself settle it, so the result is the count a bisection of the range
    returns.  The probes close in on the answer from the largest count known
    to miss and the smallest known to meet: up to three steps from the
    estimate, then a bisection of what is left.  The estimate is usually
    right, and the call then makes three probes, one at ``upper``.  A poor
    estimate costs at most four probes more than a bisection of the range:
    the one at ``upper`` and the three steps.
    """
    gamma = _gamma_of_count(round_index, cap, f_value, zeta)
    if lower > upper or not gamma(upper) <= target:
        return None
    miss, meet = lower - 1, upper
    guess = math.ceil(_count_at_accuracy(round_index, cap, f_value, zeta, target, lower))
    steps = 0
    while meet - miss > 1:
        b = min(max(guess, miss + 1), meet - 1) if steps < 3 else (miss + meet) // 2
        if gamma(b) <= target:
            meet, guess = b, b - 1
        else:
            miss, guess = b, b + 1
        steps += 1
    return meet
