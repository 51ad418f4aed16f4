import math

import numpy as np
import pytest

from frugal.core import ParamSpace, validate_cells_cover
from frugal.synthetic import (
    SyntheticFamily,
    SyntheticInstance,
    SyntheticProblem,
    synthetic_exact_opt,
    synthetic_partition,
    synthetic_run_with_cap,
)
from support import (
    capped_mean,
    cell_contains,
    check_partition_contract,
    draw_indices,
    draw_one,
    per_draw_synthetic_cells,
    sample_of,
)


@pytest.fixture
def family():
    return SyntheticFamily()


class TestFamily:
    def test_default_validation(self, family):
        assert family.a == 0.35 and family.b == 0.45

    def test_bad_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            SyntheticFamily(a=0.3, b=0.45)
        with pytest.raises(ValueError):
            SyntheticFamily(a=0.4, b=0.55)
        with pytest.raises(ValueError):
            SyntheticFamily(loss_mid=8, loss_low=8, loss_high=256)

    @pytest.mark.parametrize("a, b", [(1.0 / 3.0, 0.45), (0.4, 0.4), (0.35, 0.5)])
    def test_breakpoints_on_a_bound_rejected(self, a, b):
        with pytest.raises(ValueError, match="breakpoints"):
            SyntheticFamily(a=a, b=b)

    @pytest.mark.parametrize("mid, low, high", [(0, 16, 256), (8, 8, 256), (8, 16, 16)])
    def test_losses_on_a_bound_rejected(self, mid, low, high):
        with pytest.raises(ValueError, match="losses must satisfy"):
            SyntheticFamily(loss_mid=mid, loss_low=low, loss_high=high)

    @pytest.mark.parametrize("loss", [8.5, True, "8"])
    def test_non_integer_loss_rejected(self, loss):
        with pytest.raises(ValueError, match="losses must be integers"):
            SyntheticFamily(loss_mid=loss)

    def test_region_boundaries(self, family):
        assert family.region(family.a) == "low"  # closed left region
        assert family.region(math.nextafter(family.a, 1.0)) == "mid"
        assert family.region(family.b) == "high"  # closed right region
        assert family.region(math.nextafter(family.b, 0.0)) == "mid"


class TestRunWithCap:
    def test_mid_region_constant(self, family):
        inst = SyntheticInstance(coin_low=True, coin_high=True)
        out = synthetic_run_with_cap(family, 0.4, inst, 8)
        assert out.solved and out.budget_used == 8

    def test_low_region_heavy_coin(self, family):
        inst = SyntheticInstance(coin_low=True, coin_high=False)
        out = synthetic_run_with_cap(family, family.a / 2, inst, 8)
        assert not out.solved and out.budget_used == 8

    def test_boundary_belongs_left(self, family):
        inst = SyntheticInstance(coin_low=True, coin_high=False)
        out = synthetic_run_with_cap(family, family.a, inst, 16)
        assert out.solved and out.budget_used == family.loss_low

    def test_piecewise_constant_in_rho(self, family):
        # Sweep a fine grid: the loss takes exactly the three region values.
        inst = SyntheticInstance(coin_low=True, coin_high=True)
        tau = 1024
        losses = {}
        for rho in np.linspace(0.0, 1.0, 1001):
            out = synthetic_run_with_cap(family, float(rho), inst, tau)
            losses.setdefault(family.region(float(rho)), set()).add(out.budget_used)
        assert losses["low"] == {family.loss_low}
        assert losses["mid"] == {family.loss_mid}
        assert losses["high"] == {family.loss_high}


class TestSampling:
    def test_coin_balance(self, family):
        problem = SyntheticProblem(family)
        rng = np.random.default_rng(5)
        draws = draw_indices(problem.sample_many(rng, 10**5))
        assert 0.49 <= (draws & 1).mean() <= 0.51
        assert 0.49 <= (draws >> 1).mean() <= 0.51

    @pytest.mark.parametrize("seed", [1, 7, 11])
    def test_counts_follow_the_uniform_law(self, family, seed):
        # Each count of n uniform draws over k items is Binomial(n, 1/k).
        problem = SyntheticProblem(family)
        n, k = 10**6, len(problem.pool)
        batch = problem.sample_many(np.random.default_rng(seed), n)
        assert len(batch.counts) == k and {type(v) for v in batch.counts} == {int}
        assert sum(batch.counts) == len(batch) == n
        sigma = math.sqrt(n * (1 / k) * (1 - 1 / k))
        assert np.all(np.abs(np.array(batch.counts) - n / k) <= 5 * sigma)

    def test_instances_frozen(self, family):
        rng = np.random.default_rng(1)
        inst = draw_one(SyntheticProblem(family), rng)
        first = synthetic_run_with_cap(family, 0.2, inst, 16)
        second = synthetic_run_with_cap(family, 0.2, inst, 16)
        assert first == second

    def test_distinct_seeds_differ(self, family):
        problem = SyntheticProblem(family)
        a = problem.sample_many(np.random.default_rng(1), 64)
        b = problem.sample_many(np.random.default_rng(2), 64)
        assert a.counts != b.counts

    def test_merging_adds_the_counts(self, family):
        problem = SyntheticProblem(family)
        rng = np.random.default_rng(6)
        first, second = problem.sample_many(rng, 500), problem.sample_many(rng, 37)
        merged = problem.merge_samples(first, second)
        assert merged.counts == tuple(a + b for a, b in zip(first.counts, second.counts))
        assert len(merged) == 537
        assert merged.uids == [u for u in range(4) if merged.counts[u] > 0]


class TestPartition:
    def test_always_three_cells(self, family):
        problem = SyntheticProblem(family)
        for tau in (1, 8, 64):
            batch = problem.sample_many(np.random.default_rng(tau), 50)
            cells = problem.get_partition(batch, tau)
            assert len(cells) == 3
            validate_cells_cover(cells, ParamSpace())
            assert problem.f_bound(batch, tau) == 3

    def test_mid_cell_at_cap_eight(self, family):
        problem = SyntheticProblem(family)
        batch = problem.sample_many(np.random.default_rng(2), 200)
        cells = synthetic_partition(family, batch, 8)
        _, mid, _ = cells
        assert mid.z == 1.0
        assert set(mid.capped_losses) == {8}

    def test_left_cell_solved_fraction(self, family):
        problem = SyntheticProblem(family)
        batch = problem.sample_many(np.random.default_rng(9), 500)
        cells = synthetic_partition(family, batch, 8)
        low = cells[0]
        assert low.z == float(((draw_indices(batch) & 1) == 0).mean())

    def test_partition_contract(self, family):
        problem = SyntheticProblem(family)
        rng = np.random.default_rng(4)
        batch = problem.sample_many(rng, 40)
        for tau in (8, 16, 256):
            cells = problem.get_partition(batch, tau)
            check_partition_contract(problem, batch, cells, tau, rng)

    @pytest.mark.parametrize("tau", [1, 2, 3, 8, 15, 16, 17, 100, 255, 256])
    def test_cells_match_per_draw_vectors(self, family, tau):
        # The per-draw vectors are the per-instance oracle's capped losses
        # repeated by the draw counts, in pool order; a cell holds the drawn
        # instances only.
        batch = SyntheticProblem(family).sample_many(np.random.default_rng(tau), 3000)
        cells = synthetic_partition(family, batch, tau)
        for cell, (capped, z) in zip(cells, per_draw_synthetic_cells(family, batch, tau)):
            assert {type(v) for v in cell.capped_losses} == {int}
            assert cell.capped_losses == capped.tolist()
            assert cell.z == z
            assert cell.counts == batch.distinct()[1]
            assert sum(cell.counts) == len(batch)

    def test_cells_hold_drawn_instances_only(self, family):
        # Pool items 0 and 2 are never drawn, so no cell lists them.
        batch = sample_of(SyntheticProblem(family).pool, [3, 1, 3])
        cells = synthetic_partition(family, batch, 64)
        for cell, (capped, z) in zip(cells, per_draw_synthetic_cells(family, batch, 64)):
            assert cell.counts == [1, 2]
            assert cell.capped_losses == capped.tolist() and cell.z == z
        assert [cell.losses for cell in cells] == [[16, 16], [8, 8], [8, 64]]

    def test_budget_monotonicity(self, family):
        problem = SyntheticProblem(family)
        rng = np.random.default_rng(12)
        batch = problem.sample_many(rng, 20)
        for uid in batch.uids:
            for tau in (7, 8, 15, 16, 255, 256):
                now = problem.run_with_cap(0.2, problem.pool[uid], tau)
                nxt = problem.run_with_cap(0.2, problem.pool[uid], tau + 1)
                if now.solved:
                    assert nxt.solved and nxt.budget_used == now.budget_used


class TestExactOpt:
    def test_defaults(self, family):
        summary = synthetic_exact_opt(family, 0.25)
        assert summary.opt_quarter == 8.0
        assert summary.t_delta_by_region == {"low": 16, "mid": 8, "high": 256}
        assert summary.capped_mean_by_region["low"] == pytest.approx(12.0)
        assert summary.capped_mean_by_region["high"] == pytest.approx(132.0)

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_delta_on_a_bound_rejected(self, family, delta):
        # Rejected up front, not by the quantile of delta / 4.
        with pytest.raises(ValueError, match="delta") as excinfo:
            synthetic_exact_opt(family, delta)
        assert excinfo.traceback[-1].name == "synthetic_exact_opt"

    def test_opt_constant_in_delta(self, family):
        for delta in (0.05, 0.25, 0.9):
            assert synthetic_exact_opt(family, delta).opt_quarter == 8.0

    def test_empirical_capped_means_match_laws(self, family):
        problem = SyntheticProblem(family)
        rng = np.random.default_rng(21)
        batch = problem.sample_many(rng, 10**5)
        for rho, cap in ((0.2, 16), (0.4, 8), (0.6, 256)):
            outcomes = synthetic_partition(family, batch, cap)
            cell = next(c for c in outcomes if cell_contains(c.cell, rho))
            expected = capped_mean(family, rho, cap)
            # Bernoulli mixture: spread (tail - mid) / 2 per draw.
            spread = max(family.loss_low, family.loss_high) / 2
            tolerance = 3 * spread / math.sqrt(len(batch))
            assert abs(np.mean(cell.capped_losses) - expected) <= tolerance
