import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frugal.core import (
    MAX_DRAWS,
    CappedRunOutcome,
    ConfigProblem,
    ParamCell,
    ParamSpace,
    PartitionCell,
    PoolSample,
    format_rational,
    integer_rows,
    tail_capped_mean,
    to_fraction,
    validate_cells_cover,
)
from support import brute_tail_quantile, cell_contains, sorted_tail_capped_mean


class TestTailQuantile:
    def test_point_mass(self):
        assert brute_tail_quantile([(8, 1.0)], 0.3) == 8

    def test_two_point_law(self):
        assert brute_tail_quantile([(8, 0.5), (16, 0.5)], 0.25) == 16

    def test_shifted_cdf_shape(self):
        # Tail still >= delta at 100 but not at 101.
        law = [(50, 0.6), (100, 0.25), (150, 0.15)]
        delta = 0.3
        assert sum(p for v, p in law if v >= 100) >= delta
        assert sum(p for v, p in law if v >= 101) < delta
        assert brute_tail_quantile(law, delta) == 100

    def test_tail_exactly_delta_reaches(self):
        assert brute_tail_quantile([(1, 0.5), (2, 0.5)], 0.5) == 2


class TestTailCappedMean:
    def test_rank_example(self):
        losses = list(range(100, 0, -1))
        cutoff, mean = tail_capped_mean(losses, [1] * 100, 90)
        assert cutoff == 90
        assert mean == pytest.approx(sum(min(m, 90) for m in losses) / 100)

    def test_does_not_sort_input(self):
        losses = np.array([5, 1, 3], dtype=np.int64)
        assert tail_capped_mean(losses, [1, 1, 1], 2) == (3, pytest.approx(7 / 3))
        assert losses.tolist() == [5, 1, 3]

    @pytest.mark.parametrize("rank", [0, 4])
    def test_rank_out_of_range(self, rank):
        with pytest.raises(ValueError, match="quantile index"):
            tail_capped_mean([1, 2, 3], [1, 1, 1], rank)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="quantile index"):
            tail_capped_mean([], [], 1)

    @pytest.mark.parametrize("losses, counts", [([1, 2], [1]), ([1], [1, 1])])
    def test_lengths_must_match(self, losses, counts):
        with pytest.raises(ValueError):
            tail_capped_mean(losses, counts, 1)

    def test_counts_weight_the_rank_and_mean(self):
        # Expanded: 2, 2, 2, 5, 9, 9 (the zero-count 7 is absent).
        losses, counts = [9, 2, 7, 5], [2, 3, 0, 1]
        assert tail_capped_mean(losses, counts, 3) == (2, 2.0)
        assert tail_capped_mean(losses, counts, 4) == (5, 3.5)
        assert tail_capped_mean(losses, counts, 6) == (9, 29 / 6)

    @given(
        st.lists(
            st.tuples(st.integers(0, 2**20), st.integers(0, 20)), min_size=1, max_size=12
        ).filter(lambda pairs: sum(c for _, c in pairs) > 0),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_sorted_vector_oracle(self, pairs, data):
        # Repeated loss values appear both as repeated entries and as counts.
        losses = [loss for loss, _ in pairs]
        counts = [count for _, count in pairs]
        expanded = np.repeat(np.array(losses, dtype=np.int64), counts)
        for rank in range(1, expanded.size + 1):
            assert tail_capped_mean(losses, counts, rank) == sorted_tail_capped_mean(
                expanded, rank
            )
        shuffled = data.draw(st.permutations(range(len(pairs))))
        assert tail_capped_mean(
            [losses[i] for i in shuffled], [counts[i] for i in shuffled], expanded.size
        ) == sorted_tail_capped_mean(expanded, expanded.size)

    def test_two_million_draws_at_the_cap_ceiling(self):
        # The largest sums in practice: 2 M draws near the default cap
        # ceiling 2**20, so the capped sums reach about 2**41.
        assert tail_capped_mean([2**20], [2_000_000], 1_999_999) == (2**20, 2.0**20)
        losses = np.array([2**20, 3, 2**20 - 1], dtype=np.int64)
        counts = np.array([1_999_000, 700, 300], dtype=np.int64)
        expanded = np.repeat(losses, counts)
        for rank in (1, 700, 701, 1000, 1001, 1_500_000, 2_000_000):
            assert tail_capped_mean(losses, counts, rank) == sorted_tail_capped_mean(
                expanded, rank
            )
        # The selector's ceiling 2**(T + 4) at 40 rounds is 2**44: with 2**21
        # draws the products pass 2**63, so int64 arithmetic would wrap.
        losses = np.array([2**44, 5, 2**44 - 1], dtype=np.int64)
        counts = np.array([2**21, 3, 2**21], dtype=np.int64)
        assert int(losses[0]) * int(counts[0]) > 2**63
        total = 2**22 + 3
        for rank in (3, 4, 2**21 + 3, 2**21 + 4, total):
            cutoff = 5 if rank <= 3 else 2**44 - 1 if rank <= 2**21 + 3 else 2**44
            capped = sum(min(int(v), cutoff) * int(c) for v, c in zip(losses, counts))
            assert tail_capped_mean(losses, counts, rank) == (cutoff, capped / total)


class TestRationals:
    def test_to_fraction_types(self):
        assert to_fraction(Fraction(1, 3)) == Fraction(1, 3)
        assert to_fraction(np.int64(7)) == 7
        assert to_fraction("2.5") == Fraction(5, 2)
        assert to_fraction(0.25) == Fraction(1, 4)
        assert to_fraction("-4/3") == Fraction(-4, 3)
        with pytest.raises(TypeError):
            to_fraction(None)
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            to_fraction("1/0")

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, math.nan, np.float64(math.inf)],
        ids=["inf", "-inf", "nan", "np-inf"],
    )
    def test_to_fraction_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match=f"non-finite {float(value)!r}"):
            to_fraction(value)

    def test_integer_rows(self):
        # One scale for all rows, the lcm 21 of 3 and 7; ragged rows keep their lengths.
        rows = [(Fraction(1, 3), Fraction(-2)), (Fraction(5, 7),), ()]
        assert integer_rows(rows) == (21, ((7, -42), (15,), ()))
        assert integer_rows([]) == (1, ())

    def test_format_rational(self):
        assert format_rational(Fraction(12)) == "12"
        assert format_rational(Fraction(-3)) == "-3"
        assert format_rational(Fraction(5, 2)) == "2.5"
        # Float text only where it reads back exactly, else ``p/q``.
        assert format_rational(Fraction(1, 3)) == "1/3"
        assert format_rational(Fraction(-4, 3)) == "-4/3"
        for k in range(-60, 61):
            if k % 5:
                assert format_rational(Fraction(k, 5)) == str(k / 5)
        # Beyond the float range, and below its smallest subnormal.
        assert format_rational(Fraction(10**400, 3)) == f"{10**400}/3"
        assert format_rational(Fraction(-(10**400), 3)) == f"-{10**400}/3"
        assert format_rational(Fraction(1, 3 * 10**400)) == f"1/{3 * 10**400}"


class TestParamTypes:
    def test_cell_validation(self):
        with pytest.raises(ValueError):
            ParamCell(0.3, 0.3)
        with pytest.raises(ValueError):
            ParamCell(Fraction(1, 2), Fraction(1, 3))

    def test_cell_membership_boundaries(self):
        cell = ParamCell(0.2, 0.6)
        assert cell_contains(cell, 0.2)
        assert cell_contains(cell, math.nextafter(0.6, 0.0))
        assert not cell_contains(cell, 0.6)
        assert not cell_contains(cell, math.nextafter(0.2, 0.0))
        closed = ParamCell(0.6, 1.0)
        assert cell_contains(closed, 1.0)
        assert cell_contains(closed, 0.6)
        assert not cell_contains(closed, math.nextafter(1.0, 2.0))

    def test_representative_is_interior(self):
        cell = ParamCell(Fraction(1, 3), Fraction(1, 2))
        rep = cell.representative()
        assert cell_contains(cell, rep)
        assert type(rep) is Fraction and rep == Fraction(5, 12)
        floats = ParamCell(0.25, 0.5).representative()
        assert type(floats) is float and floats == 0.375

    def test_intervals_is_the_one_span(self):
        cell = ParamCell(Fraction(0), Fraction(2, 3))
        assert cell.intervals == ((Fraction(0), Fraction(2, 3)),)

    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            CappedRunOutcome(budget_used=-1, solved=False)
        assert CappedRunOutcome.finished(5).capped_loss(3) == 3

    def test_outcome_budget_zero_is_the_boundary(self):
        for solved in (True, False):
            assert CappedRunOutcome(budget_used=0, solved=solved).budget_used == 0
            with pytest.raises(ValueError, match="budget_used must be nonnegative"):
                CappedRunOutcome(budget_used=-1, solved=solved)

    @pytest.mark.parametrize("z", [0.0, 1.0])
    def test_cell_z_accepted_at_the_ends(self, z):
        assert PartitionCell(ParamCell(0.0, 1.0), z, [1], [1]).z == z

    @pytest.mark.parametrize("z", [math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0)])
    def test_cell_z_rejected_just_outside(self, z):
        with pytest.raises(ValueError, match=r"z must lie in \[0, 1\]"):
            PartitionCell(ParamCell(0.0, 1.0), z, [1], [1])

    def test_coverage_validator(self):
        cells = [
            PartitionCell(
                cell=ParamCell(0.0, 0.4),
                z=0.5,
                losses=[1],
                counts=[1],
            ),
            PartitionCell(
                cell=ParamCell(0.4, 1.0),
                z=0.5,
                losses=[1],
                counts=[1],
            ),
        ]
        validate_cells_cover(cells, ParamSpace())
        gappy = cells[:1]
        with pytest.raises(ValueError):
            validate_cells_cover(gappy, ParamSpace())


class TestPoolSample:
    def test_counts_and_their_views(self):
        sample = PoolSample("abcde", [0, 3, 0, 1, 2])
        assert len(sample) == 6
        assert sample.counts == (0, 3, 0, 1, 2) and sample.uids == [1, 3, 4]
        uids, counts = sample.distinct()
        assert uids == [1, 3, 4] and counts == [3, 1, 2]
        assert {type(v) for v in uids + counts} == {int}

    @pytest.mark.parametrize("counts", [[1, 2], [1, 2, 3, 4], [[1, 2, 3]]])
    def test_one_count_per_pool_item(self, counts):
        with pytest.raises(ValueError, match="one count per pool item"):
            PoolSample("abc", counts)

    def test_problem_samples(self):
        problem = ConfigProblem("abc")
        assert problem.all_instances().counts == (1, 1, 1)
        rng = np.random.default_rng(0)
        first, second = problem.sample_many(rng, 10), problem.sample_many(rng, 0)
        assert len(first) == 10 and len(second) == 0
        assert {type(v) for v in first.counts + second.counts} == {int}
        merged = problem.merge_samples(first, problem.all_instances())
        assert merged.counts == tuple(count + 1 for count in first.counts)

    def test_draw_limit_is_one_multinomial(self):
        # numpy's multinomial count is an int64: the limit draws, one more does not.
        problem = ConfigProblem("abc")
        rng = np.random.default_rng(0)
        assert len(problem.sample_many(rng, MAX_DRAWS)) == MAX_DRAWS
        with pytest.raises(OverflowError):
            problem.sample_many(rng, MAX_DRAWS + 1)

    def test_size_is_fixed_and_counts_read_only(self):
        problem = ConfigProblem("abcd")
        rng = np.random.default_rng(5)
        drawn = problem.sample_many(rng, 37)
        samples = [drawn, problem.merge_samples(drawn, problem.sample_many(rng, 5)),
                   problem.all_instances()]
        assert [len(sample) for sample in samples] == [37, 42, 4]
        for sample in samples:
            assert len(sample) == sum(sample.counts)
            with pytest.raises(TypeError):
                sample.counts[0] += 1
            assert len(sample) == sum(sample.counts)

    def test_counts_are_copied(self):
        counts = np.array([2, 0, 1], dtype=np.int64)
        sample = PoolSample("abc", counts)
        counts[1] = 7
        assert sample.counts == (2, 0, 1) and len(sample) == 3
        assert {type(v) for v in sample.counts} == {int}

    @pytest.mark.parametrize("counts, index", [
        ([-1, 2], 0), ([0, -1], 1), ([2.7, 1], 0), ([0, 2.0], 1), ([1, "2"], 1),
        ([np.float64(1.0), 1], 0), ([np.int64(-3), 1], 0),
    ])
    def test_counts_must_be_nonnegative_ints(self, counts, index):
        with pytest.raises(ValueError, match=f"pool index {index} "):
            PoolSample("ab", counts)

    def test_capped_losses_repeat_by_count(self):
        cell = PartitionCell(ParamCell(0, 1), 1.0, losses=[5, 2, 9], counts=[2, 0, 1])
        assert cell.capped_losses == [5, 5, 9]
        with pytest.raises(ValueError):
            PartitionCell(ParamCell(0, 1), 1.0, losses=[5, 2], counts=[2]).capped_losses
