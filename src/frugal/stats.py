"""Concentration machinery gating the learner's sample growth.

The learner keeps drawing instances until the sample-accuracy bound below
drops under its per-round accuracy target.  The bound combines a
finite-class complexity term (via the number of behavior regions the capped
problem admits) with a union-bound term over rounds, sample sizes and caps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["GammaInputs", "gamma_bound"]

_LN8 = math.log(8.0)


@dataclass(frozen=True)
class GammaInputs:
    """Arguments of the sample-accuracy bound.

    ``f_value`` is the number of constant-behavior regions of the parameter
    space for the current sample set and cap; ``confidence`` is the failure
    probability budget of the whole run.
    """

    round_index: int
    sample_count: int
    cap: int
    f_value: int
    dimension: int = 1
    confidence: float = 0.05

    def __post_init__(self) -> None:
        for name in ("round_index", "sample_count", "cap", "f_value", "dimension"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")


def gamma_bound(inputs: GammaInputs) -> float:
    """Accuracy to which a sample of the given size pins down capped losses.

    Equals ``sqrt(2 d ln f / b) + 2 sqrt((2/b) ln(8 (tau b t)^2 / zeta))``
    with ``b`` the sample count, ``t`` the round and ``tau`` the cap.  The
    logarithm of the union-bound term is expanded in log space
    (``ln 8 + 2(ln tau + ln b + ln t) - ln zeta``) so huge caps cannot
    overflow.  Strictly positive, and strictly decreasing in ``b`` for any
    valid inputs when ``f_value`` is held fixed.
    """
    b = inputs.sample_count
    complexity = math.sqrt(2.0 * inputs.dimension * math.log(inputs.f_value) / b)
    log_union = (
        _LN8
        + 2.0 * (math.log(inputs.cap) + math.log(b) + math.log(inputs.round_index))
        - math.log(inputs.confidence)
    )
    return complexity + 2.0 * math.sqrt(2.0 * log_union / b)
