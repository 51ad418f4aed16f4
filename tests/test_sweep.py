from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frugal.sweep import (
    MIN_CELL_WIDTH,
    DecisionTracker,
    DegenerateCellError,
    refine_cells,
    standalone_tracker,
    sweep_distinct,
    sweep_unit_interval,
)
from support import fraction_select, sample_of


def line(intercept, slope):
    return (Fraction(intercept), Fraction(slope))


class TestDecisionTracker:
    def test_strict_argmax_no_bound(self):
        tracker = DecisionTracker(Fraction(0), Fraction(1))
        winner = tracker.argmax([("a", line(2, -1)), ("b", line(1, -1))])
        assert winner == "a"
        assert tracker.bound == 1  # parallel lines never cross

    def test_crossing_sets_bound(self):
        tracker = DecisionTracker(Fraction(0), Fraction(1))
        # a starts higher, b climbs and overtakes at 1/2.
        winner = tracker.argmax([("a", line(1, 0)), ("b", line("0.5", 1))])
        assert winner == "a"
        assert tracker.bound == Fraction(1, 2)

    def test_tie_breaks_rightward(self):
        tracker = DecisionTracker(Fraction(1, 2), Fraction(1))
        # Equal values at the point; the steeper line owns the right side.
        winner = tracker.argmax([("flat", line(1, 0)), ("steep", line("0.5", 1))])
        assert winner == "steep"
        assert tracker.bound == 1

    def test_tie_identical_lines_prefers_first(self):
        tracker = DecisionTracker(Fraction(1, 4), Fraction(1))
        winner = tracker.argmax([("first", line(1, 2)), ("second", line(1, 2))])
        assert winner == "first"
        assert tracker.bound == 1

    def test_argmin_mirror(self):
        tracker = DecisionTracker(Fraction(0), Fraction(1))
        winner = tracker.argmin([("a", line(1, 0)), ("b", line(2, -3))])
        assert winner == "a"
        assert tracker.bound == Fraction(1, 3)

    def test_bound_takes_minimum_across_decisions(self):
        tracker = DecisionTracker(Fraction(0), Fraction(1))
        tracker.argmax([("a", line(1, 0)), ("b", line("0.25", 1))])
        assert tracker.bound == Fraction(3, 4)
        tracker.argmax([("c", line(1, 0)), ("d", line("0.5", 1))])
        assert tracker.bound == Fraction(1, 2)

    def test_bound_is_reassigned_only_when_it_shrinks(self):
        # A run resuming a sweep detects a shrink as a new bound object.
        upper = Fraction(1)
        tracker = DecisionTracker(Fraction(0), upper)
        tracker.argmax([("a", line(1, 0)), ("b", line(0, 2))])
        shrunk = tracker.bound
        assert shrunk == Fraction(1, 2) and shrunk is not upper
        assert type(shrunk) is Fraction
        # Rivals that meet the winner right of the bound, or diverge from
        # it, leave the bound as it is.
        tracker.argmax([("c", line(1, 0)), ("d", line(0, 1)), ("e", line(0, -1))])
        tracker.argmin([("f", line(0, 1)), ("g", line(2, -1))])
        assert tracker.bound is shrunk
        tracker.argmax([("h", line(1, 0)), ("i", line(0, 4))])
        assert tracker.bound == Fraction(1, 4) and tracker.bound is not shrunk

    def test_tied_rival_never_moves_the_bound(self):
        # Ties break leftward at 1, so the flat line wins and the steep one
        # closes on it; they meet at the point itself, which is no crossing.
        tracker = DecisionTracker(Fraction(1), Fraction(2))
        assert tracker.argmax([("flat", line(1, 0)), ("steep", line(0, 1))]) == "flat"
        assert tracker.bound == 2

    def test_crossing_at_the_bound_keeps_the_bound_object(self):
        # The rival crosses exactly at the bound, which is no shrink, so the
        # tracker keeps the very object: ``_LinkageRun.advance`` detects a
        # drop by identity.
        bound = Fraction(1, 2)
        tracker = DecisionTracker(Fraction(0), bound)
        assert tracker.argmax([("a", (1, 0)), ("b", (0, 2))]) == "a"
        assert tracker.bound is bound

    def test_standalone_ties_rightward_except_at_top(self):
        candidates = [("flat", line(1, 0)), ("steep", line(0, 1))]
        assert standalone_tracker(Fraction(1)).argmax(candidates) == "flat"
        mid = [("flat", line(1, 0)), ("steep", line("0.5", 1))]
        assert standalone_tracker(Fraction(1, 2)).argmax(mid) == "steep"
        # Tracked trackers derive the same side from their point.
        for point in (Fraction(0), Fraction(1, 2), Fraction(1)):
            tied = [("flat", line(1, 0)), ("steep", line(1 - point, 1))]
            rightward = point != 1
            tracker = DecisionTracker(point, Fraction(2))
            assert tracker.argmax(tied) == ("steep" if rightward else "flat")
            assert tracker.argmin(tied) == ("flat" if rightward else "steep")
            assert tracker.bound == 2

    def test_standalone_selects_like_a_tracking_tracker(self):
        # Small integer lines tie often, so both tie rules are exercised.
        rng = np.random.default_rng(3)
        for _ in range(300):
            rho = Fraction(int(rng.integers(0, 5)), 4)
            candidates = [
                (key, line(int(a), int(b)))
                for key, (a, b) in enumerate(rng.integers(-2, 3, size=(4, 2)))
            ]
            standalone = standalone_tracker(rho)
            tracking = DecisionTracker(rho, Fraction(2))
            assert standalone.argmax(candidates) == tracking.argmax(candidates)
            assert standalone.argmin(candidates) == tracking.argmin(candidates)
            assert standalone.bound is None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_selection_matches_fraction_oracle(self, data):
        # Small coefficients force exact ties and parallel lines.  Both
        # domains pass int lines; Fraction and mixed line sets check that the
        # tracker stays exact on non-int input too.
        ints, fractions = st.integers(-4, 4), st.fractions(-2, 2, max_denominator=6)
        coefficient = data.draw(st.sampled_from([ints, fractions, st.one_of(ints, fractions)]))
        size = data.draw(st.integers(1, 6))
        candidates = [
            (key, (data.draw(coefficient), data.draw(coefficient)))
            for key in range(size)
        ]
        if data.draw(st.booleans()):
            # A repeated line: an exact tie at every point.
            candidates.append((size, candidates[data.draw(st.integers(0, size - 1))][1]))
        ends = st.sampled_from([Fraction(0), Fraction(1)])
        point = data.draw(st.one_of(ends, st.fractions(0, 1, max_denominator=12)))
        above = st.fractions(point, 2, max_denominator=30).filter(lambda b: b > point)
        upper = data.draw(st.one_of(st.none(), above))
        sense = data.draw(st.sampled_from([1, -1]))
        tracker = DecisionTracker(point, upper)
        select = tracker.argmax if sense == 1 else tracker.argmin
        winner = select(candidates)
        want_winner, want_bound = fraction_select(point, upper, candidates, sense)
        assert winner == want_winner
        assert tracker.bound == want_bound
        assert type(tracker.bound) is type(want_bound)

    def test_empty_candidates_rejected(self):
        tracker = DecisionTracker(Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            tracker.argmax([])


class TestSweep:
    def test_two_cell_sweep(self):
        def execute(tracker):
            return tracker.argmax([("a", line(1, 0)), ("b", line("0.5", 1))])

        cells = sweep_unit_interval(execute)
        assert cells == [
            (Fraction(0), Fraction(1, 2), "a"),
            (Fraction(1, 2), Fraction(1), "b"),
        ]

    def test_single_cell_when_constant(self):
        cells = sweep_unit_interval(lambda tracker: "const")
        assert cells == [(Fraction(0), Fraction(1), "const")]

    def test_degenerate_cluster_raises(self):
        eps = Fraction(1, 10**14)

        def execute(tracker):
            tracker.bound = min(tracker.bound, tracker.point + eps)
            return None

        with pytest.raises(DegenerateCellError) as excinfo:
            sweep_unit_interval(execute)
        assert excinfo.value.left == 0
        assert excinfo.value.bound == eps

    @pytest.mark.parametrize(
        "hair", [pytest.param(0, id="exact"), pytest.param(Fraction(1, 10**30), id="closer")]
    )
    def test_min_cell_width_is_the_boundary(self, hair):
        # A first cell [0, 1/3) puts the cursor off zero, then the next
        # breakpoint lies MIN_CELL_WIDTH (less a hair) right of it.
        left = Fraction(1, 3)
        right = left + MIN_CELL_WIDTH - hair

        def execute(tracker):
            if tracker.point == 0:
                tracker.bound = left
            elif tracker.point == left:
                tracker.bound = right
            return tracker.point

        if not hair:
            assert sweep_unit_interval(execute) == [
                (0, left, 0), (left, right, left), (right, 1, right)
            ]
            return
        with pytest.raises(DegenerateCellError) as excinfo:
            sweep_unit_interval(execute)
        assert str(excinfo.value) == (
            f"degenerate breakpoint cluster: breakpoint {right} lies within "
            f"1/1000000000000 of the cell's left end 1/3"
        )
        assert excinfo.value.left == left and excinfo.value.bound == right

    def test_degenerate_cell_names_instance_and_cap(self):
        pool = [SimpleNamespace(name=""), SimpleNamespace(name="b.milp")]
        sample = sample_of(pool, [1, 0, 1])
        partitions, counts = sweep_distinct(lambda instance: [instance], sample, 7)
        assert partitions == [[instance] for instance in pool]
        assert counts == [1, 2]
        with pytest.raises(ValueError, match="at least one instance"):
            sweep_distinct(lambda instance: [instance], sample_of(pool, []), 7)

        def sweep_one(instance):
            if instance.name:
                raise DegenerateCellError("too close", Fraction(1, 3), Fraction(1, 3))
            return [(Fraction(0), Fraction(1), None)]

        with pytest.raises(DegenerateCellError) as excinfo:
            sweep_distinct(sweep_one, sample, 7)
        message = str(excinfo.value)
        assert "'b.milp'" in message and "pool uid 1" in message and "cap 7" in message
        assert excinfo.value.left == excinfo.value.bound == Fraction(1, 3)

    def test_refinement_alignment(self):
        first = [(Fraction(0), Fraction(1, 2), "L"), (Fraction(1, 2), Fraction(1), "R")]
        second = [
            (Fraction(0), Fraction(1, 4), "x"),
            (Fraction(1, 4), Fraction(1), "y"),
        ]
        refined = refine_cells([first, second])
        assert [(lo, hi) for lo, hi, _ in refined] == [
            (Fraction(0), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1)),
        ]
        assert [payload for _, _, payload in refined] == [
            ["L", "x"],
            ["L", "y"],
            ["R", "y"],
        ]

    def test_one_partition_is_its_own_refinement(self):
        cells = [(Fraction(0), Fraction(2, 7), "a"), (Fraction(2, 7), Fraction(1), "b")]
        assert refine_cells([cells]) == [(lo, hi, [payload]) for lo, hi, payload in cells]

    @pytest.mark.parametrize(
        "broken",
        [
            [(Fraction(0), Fraction(1, 2), "gap"), (Fraction(2, 3), Fraction(1), "y")],
            [(Fraction(0), Fraction(2, 3), "overlap"), (Fraction(1, 2), Fraction(1), "y")],
            [(Fraction(0), Fraction(1, 2), "short")],
            [(Fraction(1, 4), Fraction(1), "late")],
            [(Fraction(0), Fraction(1), "x"), (Fraction(1), Fraction(3, 2), "past")],
            [(Fraction(0), Fraction(1, 2), "x"), (Fraction(1, 2), Fraction(1, 2), "empty"),
             (Fraction(1, 2), Fraction(1), "y")],
        ],
    )
    def test_refinement_rejects_cells_that_do_not_chain(self, broken):
        whole = [(Fraction(0), Fraction(1, 4), "a"), (Fraction(1, 4), Fraction(1), "b")]
        with pytest.raises(ValueError, match="cells of instance 1 do not chain from 0 to 1"):
            refine_cells([whole, broken])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_refinement_matches_fraction_reference(self, data):
        # Small denominators make instances share breakpoints.
        point = st.fractions(min_value=0, max_value=1, max_denominator=12)
        partitions = []
        for number in range(data.draw(st.integers(1, 5))):
            inner = data.draw(st.sets(point.filter(lambda x: 0 < x < 1), max_size=6))
            ends = [Fraction(0), *sorted(inner), Fraction(1)]
            partitions.append(
                [(lo, hi, (number, k)) for k, (lo, hi) in enumerate(zip(ends, ends[1:]))]
            )
        assert refine_cells(partitions) == fraction_refinement(partitions)


def fraction_refinement(partitions):
    """The common refinement by plain ``Fraction`` comparisons: every span
    between consecutive distinct left ends (and 1), with the payload of the
    cell of each partition that holds the span's left end."""
    ends = sorted({lo for cells in partitions for lo, _, _ in cells} | {Fraction(1)})
    return [
        (lo, hi, [next(p for a, b, p in cells if a <= lo < b) for cells in partitions])
        for lo, hi in zip(ends, ends[1:])
    ]
