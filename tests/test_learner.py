import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frugal import bnb
from frugal.bnb import BnbProblem, random_milp
from frugal.clustering import (
    ClusteringInstance,
    ClusteringProblem,
    exact_kmedian_cost,
    random_metric_instance,
)
from frugal.core import ParamCell, ParamPoint, PoolSample
from frugal.learner import (
    LearnerConfig,
    LearnerState,
    NoRegionAdmittedError,
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
from frugal.synthetic import SyntheticFamily, SyntheticProblem
from support import (
    ConstantLossProblem,
    CountingConstantLossProblem,
    CountingPoolProblem,
    TwoBandProblem,
    cell_from_losses,
    doubling_loss,
    draw_one,
    four_point_metric,
    min_samples_oracle,
    per_draw_sample_losses,
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
                round_index, 2**round_index, 3, 1, cfg.zeta, cfg.eta * cfg.delta
            )
            assert len(sample) == expected

    def test_halving_target_quadruples_sample(self):
        cfg = default_config()
        target = cfg.eta * cfg.delta
        b_full = min_samples_oracle(3, 8, 3, 1, cfg.zeta, target)
        b_half = min_samples_oracle(3, 8, 3, 1, cfg.zeta, target / 2)
        assert 3.5 <= b_half / b_full <= 4.5

    def test_budget_error_carries_gamma(self):
        problem = SyntheticProblem(SyntheticFamily())
        cfg = default_config(max_samples_per_round=100)
        with pytest.raises(SampleBudgetError) as excinfo:
            grow_sample(problem, 3, cfg, np.random.default_rng(0))
        assert excinfo.value.last_gamma > cfg.eta * cfg.delta


def make_cell(losses, z):
    cell = ParamCell(0.0, 1.0, top_closed=True)
    return cell_from_losses(cell, z, losses)


class TestProcessRound:
    def test_constant_vector_admitted(self):
        cfg = default_config(delta=0.25)
        state = LearnerState(round_index=3)
        cells = [make_cell([8] * 64, z=1.0)]
        admitted = process_round(state, cells, cfg)
        assert admitted == 1
        region = state.regions[0]
        assert region.tau_cell == 8
        assert region.capped_estimate == 8.0
        assert state.threshold == 8.0

    def test_low_z_rejected(self):
        cfg = default_config(delta=0.25)  # admission threshold 0.90625
        state = LearnerState(round_index=1)
        assert process_round(state, [make_cell([1] * 10, z=0.5)], cfg) == 0
        assert state.regions == [] and math.isinf(state.threshold)

    def test_rank_indexing_example(self):
        # delta chosen so the rank lands at 90 of 100; hand sum 49.95
        # cross-checked by the brute loop below.
        cfg = default_config(delta=0.8 / 3.0)
        state = LearnerState(round_index=7)
        losses = list(range(1, 101))
        process_round(state, [make_cell(losses, z=1.0)], cfg)
        region = state.regions[0]
        assert region.tau_cell == 90
        brute = sum(min(m, 90) for m in losses) / 100
        assert brute == 49.95
        assert region.capped_estimate == pytest.approx(brute)

    def test_quantile_index_guard(self):
        cfg = default_config(delta=0.999)
        state = LearnerState(round_index=1)
        with pytest.raises(ValueError, match="quantile index"):
            process_round(state, [make_cell([1], z=1.0)], cfg)

    def test_threshold_keeps_minimum(self):
        cfg = default_config(delta=0.25)
        state = LearnerState(round_index=2)
        process_round(state, [make_cell([12] * 32, z=1.0)], cfg)
        process_round(state, [make_cell([9] * 32, z=1.0)], cfg)
        process_round(state, [make_cell([20] * 32, z=1.0)], cfg)
        assert state.threshold == 9.0


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
        cfg = result.config
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
            assert region.cell.contains(point.scalar)

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

    def test_clustering_pool_end_to_end(self):
        rng = np.random.default_rng(11)
        pool = [random_metric_instance(rng, 6, 2) for _ in range(6)]
        cfg = default_config(delta=0.9, seed=2)
        problem = ClusteringProblem(pool)
        first = learn_subset(problem, cfg)
        assert [row.samples for row in first.trace] == [48703, 52149, 54834, 57202, 59391, 0]
        assert_same_run(first, learn_subset(problem, cfg))


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
        return PoolSample(problem.pool, np.array(uids))

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
    assert POOL_PROBLEMS[kind](pool).f_bound(PoolSample(pool, np.array(uids)), tau) == expected


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
    def test_draw_order_and_values(self):
        problem = SyntheticProblem(SyntheticFamily())
        losses = sample_losses(problem, 0.4, 300, np.random.default_rng(9), 64)
        rng = np.random.default_rng(9)
        expected = [
            doubling_loss(problem, 0.4, draw_one(problem, rng), 64) for _ in range(300)
        ]
        assert losses.dtype == np.int64
        assert losses.tolist() == expected

    def test_one_run_for_repeated_draws(self):
        # Forty draws of a one-instance pool measure that instance once.
        problem = CountingConstantLossProblem(loss=5)
        losses = sample_losses(problem, 0.5, 40, np.random.default_rng(0), 4)
        assert losses.tolist() == [4] * 40
        assert problem.runs == 1

    def test_ceiling_validation(self):
        with pytest.raises(ValueError):
            sample_losses(ConstantLossProblem(), 0.5, 5, np.random.default_rng(0), 0)

    @pytest.mark.parametrize("kind", ["bnb", "clustering", "synthetic"])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.5, 1.0])
    def test_matches_per_draw_loop(self, kind, rho):
        rng = np.random.default_rng(17)
        if kind == "bnb":
            problem, ceiling = BnbProblem([random_milp(rng, 3, 2) for _ in range(6)]), 2**20
        elif kind == "clustering":
            pool = [random_metric_instance(rng, 5, 2) for _ in range(4)]
            problem, ceiling = ClusteringProblem(pool), 3
        else:
            problem, ceiling = SyntheticProblem(SyntheticFamily()), 64
        batched, looped = np.random.default_rng(4), np.random.default_rng(4)
        losses = sample_losses(problem, rho, 120, batched, ceiling)
        expected = per_draw_sample_losses(problem, rho, 120, looped, ceiling)
        assert losses.dtype == np.int64
        assert losses.tolist() == expected.tolist()
        assert batched.bit_generator.state == looped.bit_generator.state

    def test_pool_with_undrawn_indices_matches_per_draw_loop(self):
        problem = CountingPoolProblem(list(range(1, 41)))
        losses = sample_losses(problem, 0.5, 30, np.random.default_rng(8), 16)
        drawn = {key for _, key in problem.runs}
        assert len(drawn) < 30 and len(drawn) < len(problem.pool)
        expected = per_draw_sample_losses(problem, 0.5, 30, np.random.default_rng(8), 16)
        assert losses.tolist() == expected.tolist()

    def test_one_run_per_distinct_pool_index(self):
        problem = CountingPoolProblem([3, 9, 1, 40, 7])
        candidates = [ParamPoint(rho) for rho in (0.1, 0.6, 0.9)]
        estimate_capped_tail_means(
            problem, candidates, 0.25, 30, np.random.default_rng(2), 16
        )
        draws = np.random.default_rng(2)
        expected = []
        for candidate in candidates:
            uids = np.unique(draws.integers(len(problem.pool), size=30)).tolist()
            assert len(uids) < 30
            expected.extend((candidate.scalar, id(problem.pool[uid])) for uid in uids)
        assert problem.runs == expected
