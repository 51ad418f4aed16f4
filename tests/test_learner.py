import logging
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frugal import bnb, stats
from frugal.bnb import BnbProblem, random_milp
from frugal.clustering import (
    ClusteringInstance,
    ClusteringProblem,
    exact_kmedian_cost,
    random_metric_instance,
)
from frugal.core import MAX_DRAWS, ParamCell, ParamPoint
from frugal.learner import (
    LearnerConfig,
    NoRegionAdmittedError,
    RoundLimitError,
    SampleBudgetError,
    compute_eta,
    estimate_capped_tail_means,
    grow_sample,
    learn_subset,
    measure_loss,
    process_round,
    sample_losses,
    select_finite,
)
from frugal.stats import _gamma_of_count, min_samples_for_target
from frugal.synthetic import SyntheticFamily, SyntheticProblem
from support import (
    ConstantLossProblem,
    CountingConstantLossProblem,
    CountingPoolProblem,
    ConstantSampleProblem,
    TwoBandProblem,
    bisect_min_samples,
    cell_contains,
    cell_from_losses,
    doubling_loss,
    draw_one,
    four_point_metric,
    min_samples_oracle,
    per_draw_sample_losses,
    sample_of,
)


def default_config(**overrides):
    base = dict(epsilon=15.0, delta=0.25, zeta=0.05, seed=7)
    base.update(overrides)
    return LearnerConfig(**base)


class TestEta:
    def test_plateau(self):
        # Fourth root of 16 is exactly 2, so the 1/9 plateau binds.
        assert compute_eta(15.0) == pytest.approx(1.0 / 9.0)

    def test_fourth_root_example(self):
        assert compute_eta(0.4641) == pytest.approx(0.0125, abs=1e-9)

    def test_vanishes_at_zero(self):
        values = [compute_eta(eps) for eps in (1e-6, 1e-4, 1e-2)]
        assert values == sorted(values)
        assert values[0] < 1e-6

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            compute_eta(0.0)
        with pytest.raises(ValueError):
            LearnerConfig(epsilon=-1.0, delta=0.5, zeta=0.5)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            LearnerConfig(epsilon=0.0, delta=0.5, zeta=0.5)

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan])
    def test_config_rejects_non_finite_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            default_config(epsilon=epsilon)

    def test_config_rejects_epsilon_whose_coefficient_underflows(self):
        # 1 + 1e-17 is 1.0 in floats, so the accuracy coefficient is 0.
        assert compute_eta(1e-17) == 0.0
        with pytest.raises(ValueError, match=r"epsilon .* nonzero accuracy coefficient, got 1e-17"):
            default_config(epsilon=1e-17)

    def test_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            default_config(seed=-1)


class TestConfigBoundaries:
    @pytest.mark.parametrize("name", ["delta", "zeta"])
    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_rejects_levels_at_the_ends(self, name, value):
        with pytest.raises(ValueError, match=rf"{name} must lie in \(0, 1\)"):
            default_config(**{name: value})

    def test_safety_limits_of_one_accepted(self):
        assert default_config(max_rounds=1).max_rounds == 1
        with pytest.raises(ValueError, match="max_rounds must be positive"):
            default_config(max_rounds=0)

    @pytest.mark.parametrize("name", ["seed", "max_rounds"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, False, "3"])
    def test_integer_fields_reject_non_integers(self, name, value):
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got {value!r}$"):
            default_config(**{name: value})

    def test_numpy_int_fields_accepted(self):
        cfg = default_config(seed=np.int64(7), max_rounds=np.int32(40))
        assert learn_subset(SyntheticProblem(SyntheticFamily()), cfg) == learn_subset(
            SyntheticProblem(SyntheticFamily()), default_config(seed=7, max_rounds=40)
        )


def test_min_samples_for_target_boundaries():
    # A count whose bound equals the target meets it, also as the last
    # count of the range; one count short of it, the range has no answer.
    b0 = 500
    target = _gamma_of_count(3, 8, 3, confidence=0.05)(b0)
    for upper, expected in ((10**6, b0), (b0, b0), (b0 - 1, None)):
        assert min_samples_for_target(3, 8, 3, 0.05, target, lower=1, upper=upper) == expected


def record_probes(monkeypatch):
    """Patch ``stats._gamma_of_count`` so that every sizing call records the
    counts it probes: one list per call, in probe order.  ``gamma_bound``
    builds the same function for one evaluation, which is not a sizing call."""
    calls = []
    real = stats._gamma_of_count

    def counting(*args, **kwargs):
        if sys._getframe(1).f_code is not stats.min_samples_for_target.__code__:
            return real(*args, **kwargs)
        gamma, probes = real(*args, **kwargs), []
        calls.append(probes)

        def probe(b):
            probes.append(b)
            return gamma(b)

        return probe

    monkeypatch.setattr(stats, "_gamma_of_count", counting)
    return calls


class TestSizingProbes:
    """The root of the bound settles each round's size in a few probes."""

    def test_at_most_four_probes_on_the_benchmark_learns(self, monkeypatch):
        # The learn-synthetic and learn-bnb inputs, at their settings; a
        # bisection over [lower, 2 * 10**6] makes about 21 probes a call.
        calls = record_probes(monkeypatch)
        for seed in range(50):
            learn_subset(SyntheticProblem(SyntheticFamily()), default_config(seed=seed))
        synthetic_calls = len(calls)
        for seed in range(20):
            rng = np.random.default_rng(3)
            problem = BnbProblem([random_milp(rng, 3, 2) for _ in range(8)])
            learn_subset(problem, default_config(delta=0.9, seed=seed))
        assert synthetic_calls == 350 and len(calls) > synthetic_calls
        assert max(map(len, calls)) <= 4

    @given(st.integers(1, 40), st.integers(1, 2**60), st.integers(1, 2**62),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(1e-6, 10.0), st.integers(1, 10**6), st.integers(0, 2**40))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_bisection_on_wide_ranges(self, round_index, cap, f_value, zeta,
                                                   target, lower, span):
        upper = min(lower + span, 2**40)
        with pytest.MonkeyPatch.context() as patch:
            calls = record_probes(patch)
            found = min_samples_for_target(round_index, cap, f_value, zeta, target, lower, upper)
        assert found == bisect_min_samples(round_index, cap, f_value, zeta, target, lower, upper)
        assert len(calls[0]) <= 4

    def test_one_count_range(self, monkeypatch):
        # lower == upper: the probe at upper decides alone.
        calls = record_probes(monkeypatch)
        gamma = _gamma_of_count(3, 8, 3, confidence=0.05)
        for b in (1, 2, 500):
            target = gamma(b)
            assert min_samples_for_target(3, 8, 3, 0.05, target, b, b) == b
            assert min_samples_for_target(3, 8, 3, 0.05, math.nextafter(target, 0), b, b) is None
        assert [len(probes) for probes in calls] == [1] * 6

    def test_empty_range_probes_nothing(self, monkeypatch):
        calls = record_probes(monkeypatch)
        assert min_samples_for_target(3, 8, 3, 0.05, 10.0, lower=5, upper=4) is None
        assert calls == [[]]

    @pytest.mark.parametrize("estimate, steps, miss, meet", [
        (1, [1, 2, 3], 3, 2**20),
        (990, [990, 991, 992], 992, 2**20),
        (10**5, [10**5, 10**5 - 1, 10**5 - 2], 0, 10**5 - 2),
    ])
    def test_three_steps_from_the_estimate_then_a_bisection(self, monkeypatch, estimate,
                                                            steps, miss, meet):
        # A poor estimate costs three steps toward the answer, then the
        # bracket they leave (last miss, first meet) is bisected.
        target = _gamma_of_count(3, 8, 3, confidence=0.05)(1000)
        calls = record_probes(monkeypatch)
        monkeypatch.setattr(stats, "_count_at_accuracy", lambda *args: float(estimate))
        assert min_samples_for_target(3, 8, 3, 0.05, target, 1, 2**20) == 1000
        (probes,) = calls
        assert probes[:5] == [2**20] + steps + [(miss + meet) // 2]
        assert len(probes) <= (2**20).bit_length() + 4

    def test_exact_estimate_takes_three_probes(self, monkeypatch):
        b0 = 1000
        target = _gamma_of_count(3, 8, 3, confidence=0.05)(b0)
        calls = record_probes(monkeypatch)
        assert min_samples_for_target(3, 8, 3, 0.05, target, 1, 2**20) == b0
        assert calls == [[2**20, b0, b0 - 1]]


class TestGrowSample:
    def test_at_least_one_sample(self):
        problem = ConstantLossProblem()
        cfg = default_config(epsilon=1e6, delta=0.99, zeta=0.99)
        sample = grow_sample(problem, 1, cfg, np.random.default_rng(0))
        assert len(sample) >= 1

    def test_matches_scalar_solve_oracle(self):
        # Constant region count, so the stopping size solves a scalar
        # inequality; the oracle bisects the raw formula independently.
        problem = SyntheticProblem(SyntheticFamily())
        cfg = default_config()
        for round_index in (1, 3, 5):
            sample = grow_sample(problem, round_index, cfg, np.random.default_rng(1))
            expected = min_samples_oracle(
                round_index, 2**round_index, 3, cfg.zeta, cfg.eta * cfg.delta
            )
            assert len(sample) == expected

    def test_stops_at_a_count_whose_bound_equals_the_target(self):
        # eta * delta is exactly the bound at 200,000 draws (round 2, cap 4,
        # one region), and a count whose bound equals the target meets it.
        b0 = 200_000
        gamma = _gamma_of_count(2, 4, 1, confidence=0.05)(b0)
        cfg = default_config(delta=gamma / compute_eta(15.0))
        assert cfg.eta * cfg.delta == gamma
        sample = grow_sample(ConstantLossProblem(), 2, cfg, np.random.default_rng(0))
        assert len(sample) == b0

    def test_halving_target_quadruples_sample(self):
        cfg = default_config()
        target = cfg.eta * cfg.delta
        b_full = min_samples_oracle(3, 8, 3, cfg.zeta, target)
        b_half = min_samples_oracle(3, 8, 3, cfg.zeta, target / 2)
        assert 3.5 <= b_half / b_full <= 4.5

    def test_budget_error_carries_gamma(self):
        # A target of about 3e-9 needs more draws than one multinomial makes.
        problem = SyntheticProblem(SyntheticFamily())
        cfg = default_config(epsilon=1e-4, delta=1e-3)
        target = cfg.eta * cfg.delta
        with pytest.raises(SampleBudgetError) as excinfo:
            grow_sample(problem, 1, cfg, np.random.default_rng(0))
        gamma = excinfo.value.last_gamma
        assert gamma > target
        message = str(excinfo.value)
        for field in ("round 1", "cap 2", "f_value 3", f"accuracy {gamma:.6g}",
                      f"target {target:.6g}", f"limit {MAX_DRAWS}"):
            assert field in message


def bnb_pool_problem():
    """The learn-bnb pool: eight programs ``random_milp(default_rng(3), 3, 2)``."""
    rng = np.random.default_rng(3)
    return BnbProblem([random_milp(rng, 3, 2) for _ in range(8)])


def clustering_pool_problem(pool_seed):
    rng = np.random.default_rng(pool_seed)
    return ClusteringProblem([random_metric_instance(rng, 8, 2) for _ in range(8)])


SMALL_DELTA_PROBLEMS = {
    "synthetic": lambda: SyntheticProblem(SyntheticFamily()),
    "bnb": bnb_pool_problem,
    "clustering": lambda: clustering_pool_problem(1),
}


class TestSmallDelta:
    """Rounds draw what their accuracy target asks, tens of millions at small delta."""

    @pytest.mark.parametrize("delta", [0.1, 0.05])
    @pytest.mark.parametrize("domain", sorted(SMALL_DELTA_PROBLEMS))
    def test_learn_finishes(self, domain, delta):
        result = learn_subset(SMALL_DELTA_PROBLEMS[domain](), default_config(delta=delta))
        assert result.parameters
        assert 9 <= result.terminal_round <= 11
        assert max(row.samples for row in result.trace) > 2_000_000

    @pytest.mark.parametrize("delta", [0.1, 0.05])
    def test_unreachable_admission_is_no_region(self, delta):
        # The best cell of default_rng(2)'s pool, at the last round's cap,
        # solves 7 of the 8 metrics: below 1 - 3 delta / 8 at both deltas.
        problem = clustering_pool_problem(2)
        cells = problem.get_partition(problem.all_instances(), 2**40)
        best = max(cell.z for cell in cells)
        assert best == 7 / 8 < default_config(delta=delta).admission_threshold
        with pytest.raises(NoRegionAdmittedError):
            learn_subset(problem, default_config(delta=delta))


def make_cell(losses, z):
    cell = ParamCell(0.0, 1.0)
    return cell_from_losses(cell, z, losses)


class TestProcessRound:
    def test_constant_vector_admitted(self):
        cfg = default_config(delta=0.25)
        cells = [make_cell([8] * 64, z=1.0)]
        [region] = process_round(cells, cfg, 3)
        assert region.cell is cells[0].cell
        assert (region.round_added, region.tau_cell, region.z) == (3, 8, 1.0)
        assert region.capped_estimate == 8.0

    def test_low_z_rejected(self):
        cfg = default_config(delta=0.25)  # admission threshold 0.90625
        assert process_round([make_cell([1] * 10, z=0.5)], cfg, 1) == []

    def test_no_cells_admit_nothing(self):
        assert process_round([], default_config(), 1) == []

    def test_admits_at_exact_threshold(self):
        # delta 0.25 makes the threshold 29/32 exactly, so a 32-draw cell
        # with 29 solved sits on it and the rule "at least" admits it.
        cfg = default_config(delta=0.25)
        assert cfg.admission_threshold == 29 / 32
        [region] = process_round([make_cell([3] * 29 + [4] * 3, z=29 / 32)], cfg, 2)
        assert region.tau_cell == 3
        assert region.capped_estimate == 3.0

    @pytest.mark.xfail(strict=True, reason="float admission threshold (ROADMAP item 8)")
    def test_admits_at_exact_threshold_with_inexact_float(self):
        # At delta 0.48, 1 - 3 delta / 8 is 0.82 = 41/50 exactly, but the
        # float expression reads 0.8200000000000001 and rejects the cell.
        cfg = default_config(delta=0.48)
        assert len(process_round([make_cell([5] * 41 + [8] * 9, z=41 / 50)], cfg, 3)) == 1

    def test_keeps_cell_order_and_skips_rejected(self):
        cfg = default_config(delta=0.25)
        cells = [make_cell([12] * 32, z=1.0), make_cell([1] * 32, z=0.5), make_cell([9] * 32, z=1.0)]
        admitted = process_round(cells, cfg, 4)
        assert [region.capped_estimate for region in admitted] == [12.0, 9.0]
        assert [region.cell for region in admitted] == [cells[0].cell, cells[2].cell]

    def test_rank_indexing_example(self):
        # delta chosen so the rank lands at 90 of 100; hand sum 49.95
        # cross-checked by the brute loop below.
        cfg = default_config(delta=0.8 / 3.0)
        losses = list(range(1, 101))
        [region] = process_round([make_cell(losses, z=1.0)], cfg, 7)
        assert region.tau_cell == 90
        brute = sum(min(m, 90) for m in losses) / 100
        assert brute == 49.95
        assert region.capped_estimate == pytest.approx(brute)

    def test_quantile_index_guard(self):
        cfg = default_config(delta=0.999)
        with pytest.raises(ValueError, match="quantile index"):
            process_round([make_cell([1], z=1.0)], cfg, 1)


class TestLearnSubset:
    def test_constant_problem_closed_form(self):
        # Loss 1 everywhere: admitted from round 1, T = 1, stop at the
        # first round with 2^(t-3) * 0.25 >= 1, which is t = 5.
        result = learn_subset(ConstantLossProblem(loss=1), default_config())
        assert result.terminal_round == 5
        assert result.threshold == 1.0
        assert len(result.regions) == 4  # rounds 1..4 each admit the one cell
        assert result.trace[-1].round_index == 5
        assert result.trace[-1].samples == 0
        assert len(result.trace) == 5

    def test_round_limit_boundary(self):
        # The constant problem stops at round 5, so four executed rounds
        # are within a limit of 4 and a limit of 3 is passed.
        result = learn_subset(ConstantLossProblem(loss=1), default_config(max_rounds=4))
        assert result.terminal_round == 5
        with pytest.raises(RoundLimitError, match="within 3 rounds"):
            learn_subset(ConstantLossProblem(loss=1), default_config(max_rounds=3))

    def test_threshold_is_least_admitted_estimate(self):
        # Each trace row's T is the minimum estimate admitted up to its
        # round, and the final T is the least estimate of any region.
        for seed in (0, 3):
            result = learn_subset(SyntheticProblem(SyntheticFamily()), default_config(seed=seed))
            for row in result.trace:
                admitted = [
                    region.capped_estimate
                    for region in result.regions
                    if region.round_added <= row.round_index
                ]
                assert row.threshold == min(admitted, default=math.inf)
            assert result.threshold == min(region.capped_estimate for region in result.regions)

    def test_synthetic_trajectory(self):
        result = learn_subset(SyntheticProblem(SyntheticFamily()), default_config())
        by_round = {row.round_index: row for row in result.trace}
        assert by_round[3].threshold == 8.0
        assert math.isinf(by_round[2].threshold)
        assert result.terminal_round == 8
        assert any(0.35 < p.scalar < 0.45 for p in result.parameters)

    def test_trace_invariants(self):
        result = learn_subset(SyntheticProblem(SyntheticFamily()), default_config(seed=3))
        thresholds = [row.threshold for row in result.trace]
        assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))
        cfg = default_config(seed=3)
        # Stopping rule: fires at the terminal round, not before.
        final_t = result.terminal_round
        assert 2.0 ** (final_t - 3) * cfg.delta >= result.threshold
        assert 2.0 ** (final_t - 4) * cfg.delta < thresholds[-2]
        for region in result.regions:
            assert region.z >= cfg.admission_threshold
            assert region.tau_cell <= 2**region.round_added

    def test_parameters_inside_cells(self):
        result = learn_subset(SyntheticProblem(SyntheticFamily()), default_config(seed=5))
        for point, region in zip(result.parameters, result.regions):
            assert cell_contains(region.cell, point.scalar)

    def test_deterministic(self):
        first = learn_subset(SyntheticProblem(SyntheticFamily()), default_config(seed=11))
        second = learn_subset(SyntheticProblem(SyntheticFamily()), default_config(seed=11))
        assert first.trace == second.trace
        assert [p.scalar for p in first.parameters] == [p.scalar for p in second.parameters]

    def test_no_admission_error(self):
        # Loss far above any reachable cap within the round limit.
        problem = ConstantLossProblem(loss=10**9)
        with pytest.raises(NoRegionAdmittedError):
            learn_subset(problem, default_config(max_rounds=6))

    def test_output_size_bound(self):
        result = learn_subset(SyntheticProblem(SyntheticFamily()), default_config(seed=2))
        executed = [row for row in result.trace if row.samples > 0]
        assert len(result.parameters) <= sum(3 for _ in executed)

    def test_bnb_pool_end_to_end(self):
        rng = np.random.default_rng(3)
        pool = [random_milp(rng, 3, 2) for _ in range(8)]
        cfg = default_config(delta=0.9, seed=0)
        problem = BnbProblem(pool)
        first = learn_subset(problem, cfg)
        assert [row.samples for row in first.trace] == [43232, 49806, 58491, 68442, 0]
        assert first.terminal_round == 5
        assert len(first.regions) == 6
        assert first.instance_draws == 219971
        # A second run on the same problem object repeats the first: the
        # partitions the first run computed leave no state behind.
        assert_same_run(first, learn_subset(problem, cfg))
        chosen = select_finite(
            problem,
            first.parameters,
            eps_prime=3.0,
            delta_prime=0.45,
            n_samples=50,
            rng=np.random.default_rng(0),
            cap_ceiling=2 ** (first.terminal_round + 4),
        )
        assert chosen in first.parameters

    def test_logs_one_line_per_round(self, caplog):
        caplog.set_level(logging.INFO, logger="frugal")
        result = learn_subset(SyntheticProblem(SyntheticFamily()), default_config())
        lines = [r.getMessage() for r in caplog.records if r.name == "frugal"]
        executed = [row for row in result.trace if row.samples > 0]
        assert len(lines) == len(executed)
        for line, row in zip(lines, executed):
            assert line == (
                f"round {row.round_index} cap {row.cap}: {row.samples} draws, "
                f"4 distinct instances, {row.cells} cells, {row.admitted} admitted, "
                f"T={row.threshold}"
            )

    def test_clustering_pool_end_to_end(self):
        rng = np.random.default_rng(11)
        pool = [random_metric_instance(rng, 6, 2) for _ in range(6)]
        cfg = default_config(delta=0.9, seed=2)
        problem = ClusteringProblem(pool)
        first = learn_subset(problem, cfg)
        assert [row.samples for row in first.trace] == [48703, 52149, 54834, 57202, 59391, 0]
        assert_same_run(first, learn_subset(problem, cfg))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_learned_set_finds_a_band_a_grid_misses(seed):
    """The abstract's motivating claim: a data-independent discretization
    can miss a tiny pocket of good parameters.  Methods that take sampled or
    gridded parameters as input (Kleinberg, Leyton-Brown & Lucier, IJCAI
    2017; Weisz, György & Szepesvári, ICML 2019) only see the pocket if a
    candidate lands in it.  Here the optimal band is 1e-9 wide: the learner
    partitions the space exactly and returns a point inside it, while a
    uniform 1,001-point grid has none."""
    family = SyntheticFamily(a=0.4, b=0.4 + 1e-9)
    result = learn_subset(SyntheticProblem(family), default_config(seed=seed))
    assert result.terminal_round == 8
    assert any(family.a < p.scalar < family.b for p in result.parameters)
    grid = np.linspace(0.0, 1.0, 1001)
    assert not np.any((family.a < grid) & (grid < family.b))


def _contract_pool(kind):
    rng = np.random.default_rng(17)
    if kind == "bnb":
        return [random_milp(rng, 3, 2) for _ in range(4)]
    return [random_metric_instance(rng, 5, 2) for _ in range(4)]


CONTRACT_POOLS = {kind: _contract_pool(kind) for kind in ("bnb", "clustering")}
POOL_PROBLEMS = {"bnb": BnbProblem, "clustering": ClusteringProblem}
uid_lists = st.lists(st.integers(0, 3), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(POOL_PROBLEMS)),
    measured=st.lists(st.tuples(uid_lists, st.integers(1, 12)), max_size=4),
    small=uid_lists,
    extra=st.lists(st.integers(0, 3), max_size=4),
    tau=st.integers(1, 12),
    more_tau=st.integers(0, 8),
)
def test_pool_f_bound_contract(kind, measured, small, extra, tau, more_tau):
    """After any partitions, ``f_bound`` is monotone under inclusion and in
    the cap, dominates the cell count, and matches a fresh problem."""
    pool = CONTRACT_POOLS[kind]
    problem = POOL_PROBLEMS[kind](pool)

    def sample(uids):
        return sample_of(problem.pool, uids)

    for uids, cap in measured:
        problem.get_partition(sample(uids), cap)
    bound = problem.f_bound(sample(small), tau)
    assert bound <= problem.f_bound(sample(small + extra), tau)
    assert bound <= problem.f_bound(sample(small), tau + more_tau)
    assert bound == POOL_PROBLEMS[kind](pool).f_bound(sample(small), tau)
    assert len(problem.get_partition(sample(small), tau)) <= bound


CELLS_OF = {
    "bnb": lambda milp, tau: milp.n ** (2 * (tau + 1)),
    "clustering": lambda instance, tau: instance.n**8,
}


@pytest.mark.parametrize("kind", sorted(POOL_PROBLEMS))
@pytest.mark.parametrize("tau", [2, 40])
def test_pool_f_bound_is_per_draw_ceiling(kind, tau):
    """``f_bound`` of a sample with repeated and undrawn pool indices is the
    analytic ceiling summed draw by draw."""
    pool = CONTRACT_POOLS[kind]
    uids = [2, 0, 2, 2]
    expected = min(1 + sum(CELLS_OF[kind](pool[u], tau) for u in uids), 2**62)
    assert POOL_PROBLEMS[kind](pool).f_bound(sample_of(pool, uids), tau) == expected


def assert_same_run(first, second):
    assert first.trace == second.trace
    assert first.regions == second.regions
    assert first.parameters == second.parameters
    assert first.instance_draws == second.instance_draws


class TestSelectFinite:
    def test_singleton_returned(self):
        problem = TwoBandProblem()
        point = ParamPoint(0.8)
        chosen = select_finite(
            problem, [point], 0.5, 0.125, 50, np.random.default_rng(0), cap_ceiling=64
        )
        assert chosen is point

    def test_constant_losses_prefer_lower(self):
        problem = TwoBandProblem(low_loss=2, high_loss=5)
        candidates = [ParamPoint(0.9), ParamPoint(0.1)]
        chosen = select_finite(
            problem, candidates, 0.5, 0.125, 20, np.random.default_rng(1), cap_ceiling=64
        )
        assert chosen.scalar == 0.1

    def test_tie_breaks_to_first(self):
        problem = ConstantLossProblem(loss=3)
        candidates = [ParamPoint(0.7), ParamPoint(0.2)]
        chosen = select_finite(
            problem, candidates, 0.5, 0.125, 20, np.random.default_rng(2), cap_ceiling=64
        )
        assert chosen is candidates[0]

    def test_synthetic_candidates(self):
        # Exact capped-tail means are 12 / 8 / 132: the middle parameter
        # should win in at least 18 of 20 seeded runs.
        family = SyntheticFamily()
        candidates = [ParamPoint(0.2), ParamPoint(0.4), ParamPoint(0.6)]
        wins = 0
        for seed in range(20):
            problem = SyntheticProblem(family)
            chosen = select_finite(
                problem, candidates, 3.0, 0.125, 2000,
                np.random.default_rng(seed), cap_ceiling=4096,
            )
            wins += chosen.scalar == 0.4
        assert wins >= 18

    def test_ceiling_substitutes_for_unsolved(self):
        problem = ConstantLossProblem(loss=10**6)
        estimates = estimate_capped_tail_means(
            problem, [ParamPoint(0.5)], 0.25, 10, np.random.default_rng(0), cap_ceiling=32
        )
        assert estimates == [32.0]

    def test_rank_validation(self):
        problem = ConstantLossProblem()
        with pytest.raises(ValueError):
            estimate_capped_tail_means(
                problem, [ParamPoint(0.5)], 0.9, 5, np.random.default_rng(0), 16
            )

    def test_rank_one_accepted(self):
        # Two samples at delta' 0.5 give rank floor(2 * 0.5) = 1.
        estimates = estimate_capped_tail_means(
            ConstantLossProblem(loss=3), [ParamPoint(0.5)], 0.5, 2, np.random.default_rng(0), 16
        )
        assert estimates == [3.0]

    @pytest.mark.parametrize("delta_prime", [0.0, 1.0])
    def test_delta_prime_at_the_ends_rejected(self, delta_prime):
        with pytest.raises(ValueError, match="delta_prime must lie"):
            estimate_capped_tail_means(
                ConstantLossProblem(), [ParamPoint(0.5)], delta_prime, 10,
                np.random.default_rng(0), 16,
            )

    @pytest.mark.xfail(strict=True, reason="float selector rank (ROADMAP item 8)")
    def test_exact_selector_rank(self):
        # floor(500 * (1 - 0.07)) is 465, but the float product reads
        # 464.99999999999994.  Rank 465 caps at loss 2: (464 + 36 * 2) / 500.
        problem = ConstantSampleProblem([1, 2], [464, 36])
        estimates = estimate_capped_tail_means(
            problem, [ParamPoint(0.5)], 0.07, 500, np.random.default_rng(0), 16
        )
        assert estimates == [pytest.approx(1.072)]



CEILINGS = (1, 3, 12, 64, 2**15, 2**20)
RHOS = (0, Fraction(1, 4), 0.3, Fraction(1, 2), 0.75, 1)


def assert_matches_doubling(problem, instances):
    for index, instance in enumerate(instances):
        for rho in RHOS:
            for ceiling in CEILINGS:
                expected = doubling_loss(problem, rho, instance, ceiling)
                assert measure_loss(problem, rho, instance, ceiling) == expected, (
                    f"rho={rho} ceiling={ceiling} instance {index}"
                )


class TestMeasureLoss:
    def test_bnb_matches_doubling(self):
        rng = np.random.default_rng(3)
        problem = BnbProblem([random_milp(rng, 4, 2) for _ in range(6)])
        assert_matches_doubling(problem, problem.pool)

    def test_bnb_tree_size_limit_matches_doubling(self, monkeypatch):
        # A run that hits the absolute tree-size bound counts as finished at
        # that bound; shrink the bound so small programs reach it.
        monkeypatch.setattr(bnb, "MAX_TREE_SIZE", 4)
        rng = np.random.default_rng(3)
        problem = BnbProblem([random_milp(rng, 5, 3) for _ in range(6)])
        assert_matches_doubling(problem, problem.pool)
        losses = [measure_loss(problem, 0.5, milp, 2**20) for milp in problem.pool]
        assert 4 in losses

    def test_clustering_matches_doubling(self):
        rng = np.random.default_rng(11)
        matrix = four_point_metric()
        pool = [random_metric_instance(rng, 6, 2) for _ in range(4)]
        pool.append(ClusteringInstance.from_lists(matrix, 2, exact_kmedian_cost(matrix, 2)))
        # An unreachable threshold: never solved, so the ceiling binds.
        pool.append(ClusteringInstance.from_lists(matrix, 1, Fraction(1, 10**6)))
        problem = ClusteringProblem(pool)
        assert_matches_doubling(problem, problem.pool)

    def test_synthetic_matches_doubling(self):
        problem = SyntheticProblem(SyntheticFamily())
        rng = np.random.default_rng(5)
        assert_matches_doubling(problem, [draw_one(problem, rng) for _ in range(12)])

    @pytest.mark.parametrize("loss, ceiling, expected", [(3, 64, 3), (100, 12, 12)])
    def test_one_run_per_loss(self, loss, ceiling, expected):
        problem = CountingConstantLossProblem(loss)
        instance = draw_one(problem, np.random.default_rng(0))
        assert measure_loss(problem, 0.5, instance, ceiling) == expected
        assert problem.runs == 1


class TestSampleLosses:
    def test_values_match_doubling_oracle(self):
        problem = SyntheticProblem(SyntheticFamily())
        losses, counts = sample_losses(problem, 0.4, 300, np.random.default_rng(9), 64)
        drawn = problem.sample_many(np.random.default_rng(9), 300)
        expected = [doubling_loss(problem, 0.4, problem.pool[u], 64) for u in drawn.uids]
        assert {type(v) for v in losses + counts} == {int}
        assert losses == expected
        assert counts == [drawn.counts[u] for u in drawn.uids]

    def test_one_run_for_repeated_draws(self):
        # Forty draws of a one-instance pool measure that instance once.
        problem = CountingConstantLossProblem(loss=5)
        losses, counts = sample_losses(problem, 0.5, 40, np.random.default_rng(0), 4)
        assert losses == [4] and counts == [40]
        assert problem.runs == 1

    def test_ceiling_validation(self):
        with pytest.raises(ValueError):
            sample_losses(ConstantLossProblem(), 0.5, 5, np.random.default_rng(0), 0)

    def test_ceiling_of_one_accepted(self):
        losses, counts = sample_losses(
            ConstantLossProblem(loss=3), 0.5, 5, np.random.default_rng(0), 1
        )
        assert losses == [1] and counts == [5]

    @pytest.mark.parametrize("kind", ["bnb", "clustering", "synthetic"])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.5, 1.0])
    def test_matches_per_draw_loop(self, kind, rho):
        # Each drawn item's loss, repeated by its count, equals one run per
        # draw of an identically seeded sample.
        rng = np.random.default_rng(17)
        if kind == "bnb":
            problem, ceiling = BnbProblem([random_milp(rng, 3, 2) for _ in range(6)]), 2**20
        elif kind == "clustering":
            pool = [random_metric_instance(rng, 5, 2) for _ in range(4)]
            problem, ceiling = ClusteringProblem(pool), 3
        else:
            problem, ceiling = SyntheticProblem(SyntheticFamily()), 64
        batched, looped = np.random.default_rng(4), np.random.default_rng(4)
        losses, counts = sample_losses(problem, rho, 120, batched, ceiling)
        expected = per_draw_sample_losses(problem, rho, 120, looped, ceiling)
        assert {type(v) for v in losses + counts} == {int} and sum(counts) == 120
        assert np.repeat(losses, counts).tolist() == expected.tolist()
        assert batched.bit_generator.state == looped.bit_generator.state

    def test_pool_with_undrawn_indices_matches_per_draw_loop(self):
        problem = CountingPoolProblem(list(range(1, 41)))
        losses, counts = sample_losses(problem, 0.5, 30, np.random.default_rng(8), 16)
        drawn = {key for _, key in problem.runs}
        assert len(drawn) < 30 and len(drawn) < len(problem.pool)
        expected = per_draw_sample_losses(problem, 0.5, 30, np.random.default_rng(8), 16)
        assert np.repeat(losses, counts).tolist() == expected.tolist()

    def test_one_run_per_distinct_pool_index(self):
        problem = CountingPoolProblem([3, 9, 1, 40, 7])
        candidates = [ParamPoint(rho) for rho in (0.1, 0.6, 0.9)]
        estimate_capped_tail_means(
            problem, candidates, 0.25, 30, np.random.default_rng(2), 16
        )
        draws = np.random.default_rng(2)
        expected = []
        for candidate in candidates:
            uids = problem.sample_many(draws, 30).uids
            assert len(uids) < 30
            expected.extend((candidate.scalar, id(problem.pool[uid])) for uid in uids)
        assert problem.runs == expected
