"""Learning a finite, provably good parameter set from an infinite space.

The learner runs rounds with a doubling loss cap.  Each round draws just
enough instances for the sample-accuracy bound to drop under its accuracy
target, partitions the parameter space into constant-behavior cells at the
current cap, and admits every cell whose solved fraction clears the
admission threshold.  Admitted cells update an upper confidence bound on the
best achievable capped expectation; rounds stop as soon as the cap is large
enough relative to that bound.  One representative parameter per admitted
cell forms the returned set.

A simple empirical selector over a finite candidate set is included so that
a learned set can be reduced to a single parameter with the accuracy and
tail levels the reduction prescribes (accuracy ``sqrt(1 + eps) - 1`` and
tail ``delta / 2``).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    MAX_DRAWS,
    ConfigProblem,
    ParamCell,
    ParamPoint,
    PoolSample,
    require_integer,
    tail_capped_mean,
)
from .stats import GammaInputs, gamma_bound, min_samples_for_target

__all__ = [
    "LearnerConfig",
    "GoodRegion",
    "TraceRow",
    "OptimalSubsetResult",
    "LearnerError",
    "SampleBudgetError",
    "NoRegionAdmittedError",
    "RoundLimitError",
    "DEFAULT_CAP_CEILING",
    "compute_eta",
    "grow_sample",
    "process_round",
    "learn_subset",
    "measure_loss",
    "sample_losses",
    "estimate_capped_tail_means",
    "select_finite",
]


# Loss ceiling of the selector and of ``frugal evaluate`` when none is given.
DEFAULT_CAP_CEILING = 2**20

log = logging.getLogger("frugal")


class LearnerError(RuntimeError):
    """Base class for learner failures."""


class SampleBudgetError(LearnerError):
    """A round's accuracy target needs more draws than one ``sample_many`` makes.

    Names the round, its cap, the region count, the target (eta * delta) and the
    draw limit; ``last_gamma`` is the accuracy at that limit, above the target.
    """

    def __init__(self, message: str, last_gamma: float) -> None:
        super().__init__(message)
        self.last_gamma = last_gamma


class NoRegionAdmittedError(LearnerError):
    """The round limit passed without any cell ever clearing the admission bar."""


class RoundLimitError(LearnerError):
    """The round safety limit passed before the stopping rule fired."""


def compute_eta(epsilon: float) -> float:
    """Per-round accuracy coefficient: ``min{((1+eps)^(1/4) - 1) / 8, 1/9}``."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return min(((1.0 + epsilon) ** 0.25 - 1.0) / 8.0, 1.0 / 9.0)


@dataclass(frozen=True)
class LearnerConfig:
    """Accuracy/confidence knobs plus the round safety limit.

    ``epsilon`` must be finite so every output number is valid JSON, and
    above about 5.6e-16 so the accuracy coefficient is nonzero in floats;
    ``delta`` is the tail level and ``zeta`` the failure probability budget.
    ``seed`` seeds numpy's generator, so it must be nonnegative.  A ``seed``
    or ``max_rounds`` that is not an integer, or is a bool, raises
    ``TypeError``.
    """

    epsilon: float
    delta: float
    zeta: float
    seed: int = 0
    max_rounds: int = 40

    def __post_init__(self) -> None:
        if not (0 < self.epsilon < math.inf and self.eta > 0.0):
            raise ValueError("epsilon must be positive and finite with a nonzero accuracy "
                             f"coefficient, got {self.epsilon!r}")
        for name in ("delta", "zeta"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        require_integer("seed", self.seed)
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        require_integer("max_rounds", self.max_rounds)
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")

    @property
    def eta(self) -> float:
        return compute_eta(self.epsilon)

    @property
    def admission_threshold(self) -> float:
        return 1.0 - 3.0 * self.delta / 8.0


@dataclass
class GoodRegion:
    """An admitted cell with the quantities recorded at admission time."""

    cell: ParamCell
    round_added: int
    tau_cell: int
    capped_estimate: float
    z: float


@dataclass(frozen=True)
class TraceRow:
    round_index: int
    cap: int
    samples: int
    cells: int
    admitted: int
    threshold: float


@dataclass
class OptimalSubsetResult:
    """Output of a completed run: one parameter per admitted region.  The
    counters are sums over ``trace`` of ``samples`` and ``cells * samples``."""

    parameters: list[ParamPoint]
    regions: list[GoodRegion]
    trace: list[TraceRow]
    terminal_round: int
    threshold: float
    instance_draws: int
    loss_evaluations: int


def grow_sample(
    problem: ConfigProblem,
    round_index: int,
    cfg: LearnerConfig,
    rng: np.random.Generator,
) -> PoolSample:
    """Draw instances until the sample-accuracy bound reaches ``eta * delta``, up to ``MAX_DRAWS``.

    Semantically the growth loop adds one instance at a time, recomputing the
    region count and the bound after every draw, and stops at the first
    sample size that meets the target.  Because the region count is monotone
    under adding instances and the bound is decreasing in the sample size
    for a fixed region count, no intermediate size can satisfy the target
    before the solved lower bound does -- so the loop below draws the gap in
    one batch per region-count refresh and returns the identical sample size.
    A batch is one multinomial draw of counts and a merge adds counts: two
    independent multinomials over the pool sum to the multinomial of the
    merged batch, so the sample has the law of the one-at-a-time loop's.
    """
    if round_index < 1:
        raise ValueError("round_index must be at least 1")
    target = cfg.eta * cfg.delta
    cap = 2**round_index
    sample = problem.sample_many(rng, 1)
    while True:
        f_value = problem.f_bound(sample, cap)
        gamma = gamma_bound(GammaInputs(round_index, len(sample), cap, f_value, confidence=cfg.zeta))
        if gamma <= target:
            return sample
        needed = min_samples_for_target(
            round_index, cap, f_value, cfg.zeta, target, lower=len(sample) + 1, upper=MAX_DRAWS
        )
        if needed is None:
            # The region count only grows, so no larger sample meets the target either.
            at_limit = GammaInputs(round_index, MAX_DRAWS, cap, f_value, confidence=cfg.zeta)
            gamma = gamma_bound(at_limit)
            raise SampleBudgetError(
                f"round {round_index} (cap {cap}, f_value {f_value}): accuracy {gamma:.6g} "
                f"still above target {target:.6g} at the draw limit {MAX_DRAWS}",
                last_gamma=gamma,
            )
        sample = problem.merge_samples(sample, problem.sample_many(rng, needed - len(sample)))


def process_round(cells: Sequence, cfg: LearnerConfig, round_index: int) -> list[GoodRegion]:
    """The regions that round ``round_index`` admits, in cell order.

    A cell qualifies when its solved fraction is at least ``1 - 3 delta / 8``.
    Its recorded cap is the loss of rank ``floor(b (1 - 3 delta / 8))``
    (1-based) among its ``b`` draws, and its estimate is the mean of the
    draws' losses re-capped there; both are read off the cell's distinct
    losses and counts (``tail_capped_mean``).
    """
    admitted = []
    for cell in cells:
        if cell.z < cfg.admission_threshold:
            continue
        rank = math.floor(sum(cell.counts) * cfg.admission_threshold)
        tau_cell, estimate = tail_capped_mean(cell.losses, cell.counts, rank)
        admitted.append(
            GoodRegion(
                cell=cell.cell,
                round_added=round_index,
                tau_cell=tau_cell,
                capped_estimate=estimate,
                z=cell.z,
            )
        )
    return admitted


def learn_subset(problem: ConfigProblem, cfg: LearnerConfig) -> OptimalSubsetResult:
    """Run the full doubling-cap loop and return the admitted-parameter set.

    ``T``, the least estimate admitted so far (infinite before any), is
    checked at the start of every round: the run ends at the first round
    index ``t`` with ``2^(t-3) * delta >= T``.  The trace has one row per
    check, so its final row is the terminal round (with zero samples, since
    that round never executes).
    """
    rng = np.random.default_rng(cfg.seed)
    regions: list[GoodRegion] = []
    threshold = math.inf
    trace: list[TraceRow] = []
    round_index = 1
    while True:
        if 2.0 ** (round_index - 3) * cfg.delta >= threshold:
            trace.append(
                TraceRow(round_index, 2**round_index, 0, 0, 0, threshold)
            )
            break
        if round_index > cfg.max_rounds:
            if math.isinf(threshold):
                raise NoRegionAdmittedError(
                    "no region ever admitted within the round limit; the "
                    "admission threshold appears unreachable for this problem"
                )
            raise RoundLimitError(
                f"stopping rule not reached within {cfg.max_rounds} rounds"
            )
        cap = 2**round_index
        sample = grow_sample(problem, round_index, cfg, rng)
        cells = problem.get_partition(sample, cap)
        admitted = process_round(cells, cfg, round_index)
        regions += admitted
        threshold = min([threshold] + [region.capped_estimate for region in admitted])
        if log.isEnabledFor(logging.INFO):
            log.info("round %d cap %d: %d draws, %d distinct instances, %d cells, %d admitted, "
                     "T=%s", round_index, cap, len(sample), len(sample.uids), len(cells),
                     len(admitted), threshold)
        trace.append(
            TraceRow(round_index, cap, len(sample), len(cells), len(admitted), threshold)
        )
        round_index += 1
    parameters = [ParamPoint(region.cell.representative()) for region in regions]
    return OptimalSubsetResult(
        parameters=parameters,
        regions=regions,
        trace=trace,
        terminal_round=round_index,
        threshold=threshold,
        instance_draws=sum(row.samples for row in trace),
        loss_evaluations=sum(row.cells * row.samples for row in trace),
    )


def measure_loss(problem, rho, instance, ceiling: int) -> int:
    """Exact loss, or the ceiling when the run does not finish under it.

    One run at the ceiling suffices (see ``ConfigProblem``): a solved run
    reports its exact minimum budget whatever the cap, and a run that does
    not finish at the ceiling would finish under no smaller cap.
    """
    return problem.run_with_cap(rho, instance, ceiling).budget_used


def sample_losses(
    problem: ConfigProblem, rho, n_samples: int, rng: np.random.Generator, ceiling: int
) -> tuple[list[int], list[int]]:
    """Losses at ``rho`` of ``n_samples`` fresh draws, each measured up to the ceiling.

    The draws come from one ``sample_many``.  Returns ``(losses, counts)``,
    two lists of Python ints: the loss of each distinct drawn pool instance,
    in ascending pool order and measured once, and how often it was drawn.
    """
    if ceiling < 1:
        raise ValueError("the cap ceiling must be positive")
    sample = problem.sample_many(rng, n_samples)
    uids, counts = sample.distinct()
    return [measure_loss(problem, rho, sample.pool[uid], ceiling) for uid in uids], counts


def estimate_capped_tail_means(
    problem: ConfigProblem,
    candidates: Sequence[ParamPoint],
    delta_prime: float,
    n_samples: int,
    rng: np.random.Generator,
    cap_ceiling: int,
) -> list[float]:
    """Empirical tail-capped mean loss per candidate.

    For each candidate, draws fresh instances, measures their losses up to
    the ceiling (``sample_losses``), takes the value of rank
    ``floor(n_samples (1 - delta_prime))`` in the ascending sort as the
    empirical tail cutoff, and averages the losses capped there.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    if not 0.0 < delta_prime < 1.0:
        raise ValueError("delta_prime must lie in (0, 1)")
    rank = math.floor(n_samples * (1.0 - delta_prime))
    if rank < 1:
        raise ValueError("n_samples too small for the tail index")
    estimates = []
    for candidate in candidates:
        losses, counts = sample_losses(problem, candidate.scalar, n_samples, rng, cap_ceiling)
        estimates.append(tail_capped_mean(losses, counts, rank)[1])
    return estimates


def select_finite(
    problem: ConfigProblem,
    candidates: Sequence[ParamPoint],
    eps_prime: float,
    delta_prime: float,
    n_samples: int,
    rng: np.random.Generator,
    cap_ceiling: int = DEFAULT_CAP_CEILING,
) -> ParamPoint:
    """Pick the candidate with the smallest empirical tail-capped mean loss.

    ``eps_prime`` is the accuracy level the reduction assigns to the finite
    stage; this plain estimator meets it through its fixed sample count
    rather than adaptively, so the value is accepted for interface parity
    but not consumed.  Ties break toward the lowest candidate index.
    """
    del eps_prime
    estimates = estimate_capped_tail_means(
        problem, candidates, delta_prime, n_samples, rng, cap_ceiling
    )
    best = min(range(len(candidates)), key=lambda i: (estimates[i], i))
    return candidates[best]
