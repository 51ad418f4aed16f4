import itertools
import math
import warnings
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from frugal import bnb
from frugal.bnb import (
    INFEASIBLE_SCORE,
    BnbProblem,
    LpSolution,
    LpSolveError,
    Milp,
    bnb_partition,
    bnb_run,
    format_milp,
    load_milp,
    lp_relax,
    parse_milp,
    random_milp,
    scores,
)
from frugal.core import ParamSpace, PoolSample, integer_rows, to_fraction, validate_cells_cover
from frugal.sweep import DegenerateCellError
from support import (
    RecordingTracker,
    best_binary_solution,
    branching_trace,
    brute_binary_optimum,
    cell_contains,
    check_partition_contract,
    check_pool_cells_against_gather,
    draw_indices,
    fraction_lp_relax,
    fraction_lp_solution,
    lp_view,
    outcome,
    reference_bnb_run,
    sample_of,
    spelled,
    whole_pool,
    with_bad_tokens,
)


@pytest.fixture
def two_var():
    # maximize 2 x0 + x1 subject to x0 + x1 <= 1.5
    return Milp.from_lists([2, 1], [[1, 1]], ["1.5"])


def integral_root_milp():
    return Milp.from_lists([3, 2], [[1, 0], [0, 1]], [1, 1])


def random_pool(seed, count, num_vars=5, num_rows=3):
    rng = np.random.default_rng(seed)
    return [
        random_milp(rng, int(rng.integers(2, num_vars + 1)), int(rng.integers(1, num_rows + 1)))
        for _ in range(count)
    ]


def fixing_sets(variables):
    """Every partial 0/1 assignment of the given sorted variables, the empty
    one included, as an ``lp_relax`` key."""
    for values in itertools.product((None, 0, 1), repeat=len(variables)):
        yield tuple((j, v) for j, v in zip(variables, values) if v is not None)


# Signed decimals with mixed denominators, so rows have different lcms.
decimals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 4, 10]))
# Decimals, or signed p/q with q coprime to 10 and to each other.
rationals = decimals | st.builds(Fraction, st.integers(-6, 6), st.sampled_from([3, 7, 11]))


@st.composite
def programs_and_free_sets(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 4))
    milp = Milp.from_lists(
        draw(st.lists(rationals, min_size=n, max_size=n)),
        [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(m)],
        draw(st.lists(rationals, min_size=m, max_size=m)),
    )
    fixable = draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
    return milp, sorted(fixable)


@st.composite
def bnb_cases(draw):
    """A program of 2-6 variables and 1-4 rows, knapsack-like or with signed
    decimal data (infeasible children and sentinel scores), and a cap."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        milp = random_milp(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, m)
    else:
        milp = Milp.from_lists(
            draw(st.lists(decimals, min_size=n, max_size=n)),
            [draw(st.lists(decimals, min_size=n, max_size=n)) for _ in range(m)],
            draw(st.lists(decimals, min_size=m, max_size=m)),
        )
    return milp, draw(st.integers(1, 63))


@st.composite
def rational_milps(draw):
    """A program of up to 4 variables and 3 rows with small rational data."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    value = st.fractions(min_value=-20, max_value=20, max_denominator=60)
    objective = draw(st.lists(value, min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(value, min_size=m, max_size=m))
    return Milp(tuple(objective), tuple(map(tuple, rows)), tuple(rhs))


def cold_copy(milp):
    """The same program with empty memos."""
    return Milp(milp.objective, milp.rows, milp.rhs, milp.name)


def check_unique_certificate(milp, fixings, solution, unique):
    """A fresh solve of ``fixings`` certifies uniqueness exactly when the
    ``Fraction`` tableau's final reduced costs do.  A cached ``solution``
    may instead be inherited from a key with one fixing fewer, whose
    certified optimum is also this key's only optimum, so it may carry a
    certificate its own final tableau would not show, but never lacks one."""
    assert lp_relax(cold_copy(milp), fixings).unique == unique
    assert solution.unique or not unique


class TestLpRelax:
    def test_single_constraint_binds(self):
        milp = Milp.from_lists([1], [[1]], ["0.5"])
        _, objective, point = lp_view(lp_relax(milp))
        assert objective == Fraction(1, 2)
        assert point == (Fraction(1, 2),)

    def test_greedy_fill(self, two_var):
        _, objective, point = lp_view(lp_relax(two_var))
        assert objective == Fraction(5, 2)
        assert point == (Fraction(1), Fraction(1, 2))

    def test_fixings_substituted(self, two_var):
        _, objective, point = lp_view(lp_relax(two_var, ((1, 1),)))
        assert objective == Fraction(2)  # x0 <= 0.5, so 2*0.5 + 1
        assert point[1] == 1

    def test_infeasible_detected(self, two_var):
        assert lp_view(lp_relax(two_var, ((0, 1), (1, 1))))[0] == "infeasible"

    def test_negative_rhs_phase_one(self):
        milp = Milp.from_lists([1, 1], [[-1, 0], [1, 1]], ["-0.75", "1.2"])
        _, objective, point = lp_view(lp_relax(milp))
        assert objective == Fraction(6, 5)
        assert point[0] >= Fraction(3, 4)

    def test_dominates_binary_enumeration(self):
        for milp in random_pool(seed=101, count=50, num_vars=6, num_rows=4):
            status, objective, _ = lp_view(lp_relax(milp))
            best = brute_binary_optimum(milp)
            assert status == "optimal"  # origin always feasible
            assert best is None or objective >= best

    def test_matches_float_solver(self):
        for milp in random_pool(seed=5, count=25):
            objective = lp_view(lp_relax(milp))[1]
            result = linprog(
                c=[-float(v) for v in milp.objective],
                A_ub=[[float(v) for v in row] for row in milp.rows],
                b_ub=[float(v) for v in milp.rhs],
                bounds=[(0, 1)] * milp.n,
                method="highs",
            )
            assert result.status == 0
            assert float(objective) == pytest.approx(-result.fun, abs=1e-7)

    @pytest.mark.parametrize(
        "objective, rows, rhs, point",
        [
            # Zero objective: the point is where phase 1 stops.  It follows
            # the rational pivots only if both artificials, of rows whose own
            # lcms are 10 and 2, share one scale under unit phase-1 costs.
            ([0, 0], [[-1, -1], [2, -1]], ["-1.1", "-0.5"], ("1/5", "9/10")),
            # The same with coprime denominators 3 and 7: scaling each row by
            # its own lcm under unit phase-1 costs stops at (1, 3/4) instead.
            ([0, 0], [["1/3", "-4/3"], ["-2/7", "-4/7"]], ["-2/3", "-3/7"], ("1/3", "7/12")),
            # x0 >= 1 against its box leaves an artificial basic at zero;
            # the column it is pivoted out on decides which optimal vertex
            # phase 2 ends at.
            (
                [2, 0, 1],
                [[-1, 0, 0], [2, "1.5", -4], ["-0.5", -1, -2]],
                [-1, 1, -1],
                (1, 0, 1),
            ),
            # Phase 1 ends with x0's box slack basic in a stored row, so
            # phase 2 prices that row against x0's cost.
            ([3, 0], [[1, -2], [2, -3]], [-1, -1], (1, 1)),
            # A zero right side beside a negative one keeps its slack basic
            # and gets no artificial, so phase 1 stops at (1, 0); with an
            # artificial in that row as well it would stop at (0, 1).
            ([0, 0], [[-1, 0], [-1, -1]], [0, -1], (1, 0)),
        ],
    )
    def test_vertex_follows_rational_pivots(self, objective, rows, rhs, point):
        milp = Milp.from_lists(objective, rows, rhs)
        solution = lp_relax(milp)
        assert lp_view(solution) == fraction_lp_relax(milp)
        assert lp_view(solution)[2] == tuple(Fraction(x) for x in point)

    def test_matches_fraction_tableau_on_every_fixing_set(self):
        rng = np.random.default_rng(71)
        pool = [random_milp(rng, 5, 4) for _ in range(6)]
        for milp in pool:
            for fixings in fixing_sets(range(milp.n)):
                solution = lp_relax(milp, fixings)
                *expected, unique = fraction_lp_solution(milp, fixings)
                expected = tuple(expected)
                assert lp_view(solution) == expected
                check_unique_certificate(milp, fixings, solution, unique)

    @settings(max_examples=100, deadline=None)
    @given(programs_and_free_sets())
    def test_matches_fraction_tableau_property(self, case):
        milp, fixable = case
        distinct = list(fixing_sets(fixable))
        for fixings in distinct:
            solution = lp_relax(milp, fixings)
            *expected, unique = fraction_lp_solution(milp, fixings)
            expected = tuple(expected)
            assert lp_view(solution) == expected
            check_unique_certificate(milp, fixings, solution, unique)
        for fixings in reversed(distinct):
            assert lp_relax(milp, fixings) is milp._lp_cache[fixings]
        assert len(milp._lp_cache) == len(distinct)
        for fixings in distinct:
            if len(fixings) > 1:
                with pytest.raises(ValueError, match="sorted, distinct, in-range"):
                    lp_relax(milp, fixings[::-1])
        assert len(milp._lp_cache) == len(distinct)

    def test_iteration_limit_names_program_and_fixings(self, monkeypatch, two_var):
        monkeypatch.setattr(bnb, "_SIMPLEX_ITERATION_LIMIT", 0)
        named = Milp.from_lists([2, 1, 1], [[1, 1, 1]], ["1.5"], name="tight.milp")
        with pytest.raises(LpSolveError, match="simplex iteration limit exceeded") as excinfo:
            lp_relax(named, ((2, 0),))
        message = str(excinfo.value)
        assert "program 'tight.milp'" in message and "fixings {2: 0}" in message
        assert excinfo.value.program == "tight.milp"
        assert excinfo.value.fixings == ((2, 0),)
        assert len(named._lp_cache) == 0
        with pytest.raises(LpSolveError, match=r"unnamed program, fixings \{\}"):
            lp_relax(two_var)

    @pytest.mark.parametrize(
        "fixings",
        [
            ((1, 0), (0, 1)),
            ((0, 1), (0, 0)),
            ((2, 0),),
            ((-1, 0),),
            ((0, 2),),
            ((1, 1), (0, -1)),
            ((0, 1.0),),
            ((0, Fraction(1)),),
        ],
        ids=[
            "unsorted", "repeated", "index-past-end", "negative-index", "value-two", "both",
            "float-one", "fraction-one",
        ],
    )
    def test_malformed_key_rejected_and_not_stored(self, two_var, fixings):
        with pytest.raises(ValueError):
            lp_relax(two_var, fixings)
        assert two_var._lp_cache == {}

    def test_index_checked_before_values(self, two_var):
        with pytest.raises(ValueError, match="sorted, distinct, in-range"):
            lp_relax(two_var, ((1, 2), (0, 0)))
        with pytest.raises(ValueError, match="fixed values must be binary"):
            lp_relax(two_var, ((0, 2), (1, 0)))
        assert two_var._lp_cache == {}

    @pytest.mark.parametrize("objective, unique", [([2, 0, 1], False), ([2, 1, 1], True)])
    def test_unique_after_an_artificial_is_driven_out(self, monkeypatch, objective, unique):
        # x0 >= 1 against its box leaves phase 1's artificial basic at zero,
        # so it is pivoted out (no cost row) before phase 2.  The free x1 of
        # zero weight ties the optimum in the first program.
        milp = Milp.from_lists(objective, [[-1, 0, 0], [2, "1.5", -4], ["-0.5", -1, -2]], [-1, 1, -1])
        exchange, driven_out = bnb._exchange, []

        def counted(tableau, zrow, *rest):
            driven_out.append(zrow is None)
            return exchange(tableau, zrow, *rest)

        monkeypatch.setattr(bnb, "_exchange", counted)
        solution = lp_relax(milp)
        assert any(driven_out)
        assert solution.unique is unique
        assert fraction_lp_solution(milp)[3] is unique

    # Variables are numbered x_0..x_{n-1}, then one slack per row, then the
    # box slacks u_j = 1 - x_j.  Each case lists the (leaving, entering)
    # pair of every Edmonds exchange; a pivot missing from the list is a
    # bound flip, and a box slack that leaves without ever having been
    # basic in a stored row left through the complement of its partner's.
    @pytest.mark.parametrize(
        "objective, rows, rhs, exchanges, point",
        [
            # flip: x0 enters and stops at its own bound before the row
            # (ratio 1 against 3/2), with no exchange; x1 then takes the row.
            ([2, 1], [[1, 1]], ["1.5"], [(2, 1)], (1, "1/2")),
            # complement: x0 = 1/2 + x1 - s0 is basic when x1 enters, and x0
            # reaches 1 (u0 = 3 leaves) at x1 = 1/2, before x1's own bound;
            # then s0 enters and u1 = 4 leaves through x1's complement.
            ([1, 1], [[1, -1]], ["1/2"], [(2, 0), (3, 1), (4, 2)], (1, 1)),
            # tie, stored row wins: x0 enters at ratio 0 both in s0's row and
            # in the complement of x1's row (u1 = 5); s0 = 2 is lower.
            ([0, 1], [[1, 0], [-1, 1]], [0, 1], [(3, 1), (2, 0)], (0, 1)),
            # tie, complement wins: x2 enters at ratio 1/2 both in s1's row
            # (index 4) and in the complement of u0's row, whose basic x0 is
            # lower, so x0 leaves.  x0 first flipped to 1 and u0 = 5 entered.
            (
                [1, 2, 2], [[2, 2, 2], [-2, 3, 0]], [3, 3],
                [(3, 1), (6, 5), (0, 2)], (0, 1, "1/2"),
            ),
        ],
        ids=["flip", "complement", "tie-stored", "tie-complement"],
    )
    def test_each_kind_of_leaving_row(self, monkeypatch, objective, rows, rhs, exchanges, point):
        exchange, seen = bnb._exchange, []

        def recorded(tableau, zrow, cols, basis, row, k, d):
            seen.append((basis[row], cols[k]))
            return exchange(tableau, zrow, cols, basis, row, k, d)

        monkeypatch.setattr(bnb, "_exchange", recorded)
        milp = Milp.from_lists(objective, rows, rhs)
        solution = lp_relax(milp)
        assert seen == exchanges
        assert lp_view(solution)[2] == tuple(Fraction(x) for x in point)
        *expected, unique = fraction_lp_solution(milp)
        assert lp_view(solution) == tuple(expected)
        assert solution.unique is unique

    @pytest.mark.parametrize("fixings, status", [
        (((0, 1), (1, 0)), "optimal"),
        (((0, 1), (1, 1)), "infeasible"),
        (((0, 0), (1, 0)), "optimal"),
    ])
    def test_no_free_column(self, monkeypatch, fixings, status):
        milp = Milp.from_lists([3, 2], [[1, 1], [-1, 0]], ["1.5", 0])
        solve, calls = bnb._solve_box_lp, []
        monkeypatch.setattr(bnb, "_solve_box_lp", lambda *args: calls.append(args) or solve(*args))
        solution = lp_relax(milp, fixings)
        # With no free column the row check is the solver's own rule (a
        # negative right side is infeasible), so only a feasible key reaches it.
        assert [args[0] for args in calls] == ([[]] if status == "optimal" else [])
        *expected, unique = fraction_lp_solution(milp, fixings)
        assert lp_view(solution) == tuple(expected)
        assert lp_view(solution)[0] == status
        assert not solution.is_optimal or solution.unique is unique
        assert solve([], [[], []], [1, 0]) == (0, 1, [], True)
        assert solve([], [[], []], [1, -1]) is None

    @pytest.mark.parametrize("fixings", [[(0, 1)], [], ((0, 1), [1, 0])], ids=["list", "empty-list", "list-pair"])
    def test_unhashable_key_rejected(self, two_var, fixings):
        lp_relax(two_var, ((0, 1),))
        with pytest.raises(TypeError, match=r"^fixings must be a tuple of \(index, value\) pairs, got "):
            lp_relax(two_var, fixings)
        assert list(two_var._lp_cache) == [((0, 1),)]

    def test_row_settled_key_solves_no_lp(self, monkeypatch):
        # x0 = x1 = 1 leaves x2 <= -1/2 in the first row, below its least
        # activity 0.  The second row's x2 >= 1/2 is met by x2 = 1, so that
        # row alone is left to the solver.
        milp = Milp.from_lists([1, 1, 1], [[1, 1, 1], [1, 1, -1]], ["1.5", "1.5"])
        key = ((0, 1), (1, 1))
        monkeypatch.setattr(bnb, "_solve_box_lp", None)
        solution = lp_relax(milp, key)
        assert lp_view(solution)[0] == "infeasible" and milp._lp_cache == {key: solution}
        assert fraction_lp_relax(milp, key) == ("infeasible", None, None)
        monkeypatch.undo()
        second_row = Milp.from_lists([1, 1, 1], [[1, 1, -1]], ["1.5"])
        assert lp_view(lp_relax(second_row, key))[2] == (1, 1, 1)

    def test_infeasibility_no_row_proves_reaches_phase_one(self, monkeypatch):
        # x0 + x1 <= 1 and x0 + x1 >= 3/2: each row alone is feasible.
        milp = Milp.from_lists([1, 1], [[1, 1], [-1, -1]], [1, "-1.5"])
        solve, results = bnb._solve_box_lp, []
        monkeypatch.setattr(bnb, "_solve_box_lp", lambda *args: results.append(solve(*args)) or results[-1])
        assert lp_view(lp_relax(milp))[0] == "infeasible"
        assert results == [None]
        assert fraction_lp_relax(milp) == ("infeasible", None, None)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(bnb_cases().map(lambda case: case[0]), rational_milps()), st.data())
    def test_row_settled_keys_are_infeasible(self, milp, data):
        # Each key is solved cold, so no cached parent settles it: a key
        # stored without a call to the solver was settled by the row check.
        fixable = data.draw(st.lists(st.integers(0, milp.n - 1), max_size=4, unique=True))
        solve = bnb._solve_box_lp
        for fixings in fixing_sets(sorted(fixable)):
            calls = []
            with mock.patch.object(bnb, "_solve_box_lp", lambda *args: calls.append(args) or solve(*args)):
                solution = lp_relax(cold_copy(milp), fixings)
            expected = fraction_lp_relax(milp, fixings)
            assert lp_view(solution) == expected
            if not calls:
                assert expected == ("infeasible", None, None)

    def test_solution_equality_is_by_value(self):
        # The objective is value / (denominator * scale): 3/2 in both.
        half = LpSolution(3, (1, 2), 2, True)
        same = LpSolution(18, (3, 6), 6, False, 2)
        assert lp_view(half) == lp_view(same) == ("optimal", Fraction(3, 2), (Fraction(1, 2), Fraction(1)))
        assert lp_view(half) != lp_view(LpSolution(3, (2, 1), 2, True))
        assert lp_view(half) != lp_view(LpSolution(None))
        assert lp_view(LpSolution(None)) == lp_view(bnb._INFEASIBLE) == ("infeasible", None, None)

    def test_tied_optimum_is_not_inherited(self):
        # The root's optimum (1/5, 1, 1) ties with (3/5, 3/5, 1), so its
        # tableau certifies no unique optimum and the child x2 = 1, which
        # both points satisfy, must be solved to reach Bland's vertex.
        milp = parse_milp("3 2\n2 2 3\n5 5 1 <= 7\n3 2 0 <= 3\n")
        root = lp_relax(milp)
        assert lp_view(root)[2] == (Fraction(1, 5), Fraction(1), Fraction(1))
        assert not root.unique
        child = lp_relax(milp, ((2, 1),))
        assert lp_view(child) == fraction_lp_relax(milp, ((2, 1),))
        assert lp_view(child)[2] == (Fraction(3, 5), Fraction(3, 5), Fraction(1))
        assert lp_view(child)[1] == lp_view(root)[1]

    def test_unique_optimum_is_inherited(self, monkeypatch, two_var):
        root = lp_relax(two_var)
        assert root.unique and lp_view(root)[2] == (Fraction(1), Fraction(1, 2))
        monkeypatch.setattr(bnb, "_solve_box_lp", None)
        assert lp_relax(two_var, ((0, 1),)) is root

    def test_infeasible_key_settles_every_superset(self, monkeypatch):
        milp = Milp.from_lists([1, 2, 3, 1], [[1, 1, 0, 0], [0, 1, 1, 1]], ["1.5", 2])
        infeasible = lp_relax(milp, ((0, 1), (1, 1)))
        assert infeasible is bnb._INFEASIBLE
        solve = bnb._solve_box_lp
        calls = []
        monkeypatch.setattr(bnb, "_solve_box_lp", lambda *args: calls.append(args) or solve(*args))
        for index, value in itertools.product((2, 3), (0, 1)):
            key = bnb._child_key(((0, 1), (1, 1)), index, value)
            assert lp_relax(milp, key) is infeasible
            assert ("infeasible", None, None) == fraction_lp_relax(milp, key)
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(bnb_cases())
    def test_cache_matches_fraction_tableau_after_partition(self, case):
        milp, _ = case
        try:
            bnb_partition(whole_pool([milp]), 63)
        except DegenerateCellError:
            pass
        assert milp._lp_cache
        for fixings, solution in milp._lp_cache.items():
            expected = fraction_lp_relax(milp, fixings)
            assert lp_view(solution) == expected
            # Every infeasible key, solved or settled, stores the one shared value.
            assert solution.is_optimal or solution is bnb._INFEASIBLE

    def test_weak_duality_down_the_tree(self):
        for milp in random_pool(seed=17, count=20):
            parent = lp_relax(milp)
            for i in range(milp.n):
                for value in (0, 1):
                    child = lp_relax(milp, ((i, value),))
                    if child.is_optimal:
                        assert lp_view(child)[1] <= lp_view(parent)[1]


def rational_scores(milp, fixings, relaxation, index):
    """``scores``' two decreases as ``Fraction``s, read through its denominator,
    which must be positive with the three ints in lowest terms."""
    low, high, denominator = scores(milp, fixings, relaxation, index)
    assert all(type(v) is int for v in (low, high, denominator))
    assert denominator > 0 and math.gcd(low, high, denominator) == 1 and low <= high
    return Fraction(low, denominator), Fraction(high, denominator)


class TestScores:
    def test_hand_example(self, two_var):
        root = lp_relax(two_var)
        assert rational_scores(two_var, (), root, 0) == (Fraction(0), Fraction(3, 2))
        assert rational_scores(two_var, (), root, 1) == (Fraction(1, 2), Fraction(1, 2))

    def test_equal_children_collapse(self, two_var):
        low, high = rational_scores(two_var, (), lp_relax(two_var), 1)
        assert low == high

    def test_both_children_infeasible_sentinel(self):
        # x0 = 0 and x0 = 1 both break the pinned equality-style pair.
        milp = Milp.from_lists([1, 1], [[1, 0], [-1, 0]], ["0.6", "-0.4"])
        low, high = rational_scores(milp, ((1, 0),), lp_relax(milp, ((1, 0),)), 0)
        assert low == high == Fraction(10**9)

    def test_fixed_variable_rejected(self, two_var):
        with pytest.raises(ValueError):
            scores(two_var, ((0, 1),), lp_relax(two_var, ((0, 1),)), 0)

    @pytest.mark.parametrize("index", [-1, 2, 3])
    def test_index_out_of_range_rejected(self, two_var, index):
        root = lp_relax(two_var)
        with pytest.raises(ValueError, match=f"variable index {index} out of range for n = 2"):
            scores(two_var, (), root, index)
        assert list(two_var._lp_cache) == [()]

    def test_settled_child_solves_no_lp(self):
        settled_seen = 0
        for milp in random_pool(seed=19, count=20, num_vars=6, num_rows=3):
            root = lp_relax(milp)
            for index, x in enumerate(lp_view(root)[2]):
                if x not in (0, 1):
                    continue
                settled_seen += 1
                before = set(milp._lp_cache)
                low, _ = rational_scores(milp, (), root, index)
                assert low == 0
                settled = ((index, int(x)),)
                assert settled not in milp._lp_cache
                assert set(milp._lp_cache) - before <= {((index, 1 - int(x)),)}
                status, value, _ = fraction_lp_relax(milp, settled)
                assert status == "optimal" and value == lp_view(root)[1]
        assert settled_seen > 0

    def test_expansion_lines_are_a_positive_multiple_of_fraction_lines(self):
        # Signed decimal data makes children infeasible (sentinel scores);
        # knapsack-like data settles children at the node's optimum.
        rng = np.random.default_rng(61)
        pool = random_pool(seed=61, count=12, num_vars=5, num_rows=3)
        for _ in range(16):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            signed = lambda size: [Fraction(int(v), 4) for v in rng.integers(-8, 9, size=size)]
            pool.append(Milp.from_lists(signed(n), [signed(n) for _ in range(m)], signed(m)))
        infeasible = settled = 0
        for milp in pool:
            for fixings in fixing_sets(range(min(milp.n - 1, 2))):
                relaxation = lp_relax(milp, fixings)
                if not relaxation.is_optimal:
                    continue
                _, value, point = fraction_lp_relax(milp, fixings)
                free = [i for i in range(milp.n) if i not in dict(fixings)]
                pairs = []
                for i in free:
                    decreases = []
                    for v in (0, 1):
                        child_status, child_value, _ = fraction_lp_relax(
                            milp, tuple(sorted((*fixings, (i, v))))
                        )
                        feasible = child_status == "optimal"
                        infeasible += not feasible
                        settled += point[i] == v
                        decreases.append(value - child_value if feasible else INFEASIBLE_SCORE)
                    pairs.append((min(decreases), max(decreases)))
                _, scaled = integer_rows(pairs)
                expected = [v for low, high in scaled for v in (high, low - high)]
                lines = bnb._expansion(milp, fixings, relaxation).lines
                assert [i for i, _ in lines] == free
                actual = [v for _, line in lines for v in line]
                assert all(type(v) is int for v in actual)
                ref = next((k for k, v in enumerate(expected) if v), None)
                if ref is None:
                    assert not any(actual)
                    continue
                factor = Fraction(actual[ref], expected[ref])
                assert factor > 0 and actual == [factor * v for v in expected]
        assert infeasible > 0 and settled > 0


class TestBnbRun:
    def test_integral_root_single_node(self):
        out = bnb_run(integral_root_milp(), 0.3, 100)
        assert out.solved and out.budget_used == 1

    def test_cap_one_exceeded(self, two_var):
        out = bnb_run(two_var, 0.3, 1)
        assert not out.solved and out.budget_used == 1

    def test_pure_min_score_branches_second_variable(self, two_var):
        trace = branching_trace(two_var, 1.0, 100)
        assert trace[0] == 1

    def test_incumbent_matches_enumeration(self):
        rng = np.random.default_rng(23)
        for milp in random_pool(seed=23, count=100, num_vars=6, num_rows=4):
            rho = float(rng.uniform())
            incumbent = best_binary_solution(milp, rho)
            assert incumbent == brute_binary_optimum(milp)

    def test_monotone_in_cap(self, two_var):
        full = bnb_run(two_var, 0.2, 1000)
        assert full.solved
        for tau in range(1, full.budget_used + 2):
            out = bnb_run(two_var, 0.2, tau)
            if tau >= full.budget_used:
                assert out.solved and out.budget_used == full.budget_used
            else:
                assert not out.solved and out.budget_used == tau

    def test_standalone_run_matches_tracking_tracker(self):
        grid = [Fraction(i, 20) for i in range(21)]
        for milp in random_pool(seed=29, count=12, num_vars=5, num_rows=3):
            for rho in grid:
                def tracking():
                    return RecordingTracker(rho, Fraction(2))

                assert bnb_run(milp, rho, 63) == bnb._run_outcome(milp, 63, tracking())
                tracker = tracking()
                bnb._run_capped(milp, 63, tracker)
                assert branching_trace(milp, rho, 63) == tuple(tracker.winners)

    def test_node_bounded_by_incumbent_is_pruned(self):
        # At rho 1 the root branches on x0.  Child x0 = 0 has the fractional
        # bound 11 and is queued before its sibling x0 = 1 makes 11 the
        # incumbent, so popping it must prune it: 3 nodes, not 5.
        milp = parse_milp("4 2\n6 3 5 9\n0 0 1 3 <= 2\n3 1 1 3 <= 4\n")
        expected = reference_bnb_run(milp, 1, 63)
        assert expected.outcome.budget_used == 3 and expected.incumbent == 11
        assert bnb_run(milp, 1, 63) == expected.outcome

    def test_rho_validation(self, two_var):
        with pytest.raises(ValueError):
            bnb_run(two_var, 1.5, 10)
        with pytest.raises(ValueError):
            bnb_run(two_var, 0.5, 0)

    def test_decimal_string_rho(self, two_var):
        for text, exact in (("0.5", Fraction(1, 2)), ("2/3", Fraction(2, 3)), ("1", Fraction(1))):
            assert bnb_run(two_var, text, 31) == bnb_run(two_var, exact, 31)
            assert best_binary_solution(two_var, text) == best_binary_solution(two_var, exact)
        with pytest.raises(ValueError):
            bnb_run(two_var, "3/2", 10)


class TestExpansionMemo:
    @settings(max_examples=100, deadline=None)
    @given(bnb_cases())
    # A 6-variable program whose sweep at cap 15 stops on a degenerate cell.
    @example((random_milp(np.random.default_rng(57), 6, 4), 15))
    def test_matches_memo_free_reference(self, case):
        warm, cap = case
        cold = cold_copy(warm)
        lp_cache = {}
        try:
            cells = bnb_partition(whole_pool([warm]), cap)
        except DegenerateCellError as exc:
            # The finite infeasibility sentinel can pile breakpoints up near
            # 1; the memoized sweep must stop exactly where the reference
            # does, and the program stays warmed up to that point.
            tracked = reference_bnb_run(warm, exc.left, cap, bound=Fraction(1), lp_cache=lp_cache)
            assert tracked.bound == exc.bound
            cells = []
        for cell in cells:
            lo, hi = cell.cell.lo, cell.cell.hi
            tracked = reference_bnb_run(warm, lo, cap, bound=Fraction(1), lp_cache=lp_cache)
            assert tracked.bound == hi
            assert tracked.outcome.capped_loss(cap) == int(cell.capped_losses[0])
            assert tracked.outcome.solved == (cell.z == 1.0)
        points = [Fraction(k, 10) for k in range(11)]
        points += [cell.cell.lo for cell in cells]
        for rho in points:
            expected = reference_bnb_run(warm, rho, cap, lp_cache=lp_cache)
            for milp in (warm, cold):
                assert bnb_run(milp, rho, cap) == expected.outcome
                assert branching_trace(milp, rho, cap) == expected.decisions
                assert best_binary_solution(milp, rho, cap) == expected.incumbent

    def test_bounded_by_lp_cache(self):
        pool = random_pool(seed=47, count=12, num_vars=6, num_rows=3)
        for tau in (7, 31):
            for milp in pool:
                bnb_partition(whole_pool([milp]), tau)
                assert len(milp._expansions) <= len(milp._lp_cache)
        for milp in pool:
            for rho in np.linspace(0.0, 1.0, 21):
                bnb_run(milp, float(rho), 63)
            assert len(milp._expansions) <= len(milp._lp_cache)
        assert sum(len(milp._expansions) for milp in pool) > 0

    def test_warming_keeps_equality_and_hash(self):
        milp = random_pool(seed=53, count=1, num_vars=5, num_rows=3)[0]
        twin = cold_copy(milp)
        bnb_partition(whole_pool([milp]), 31)
        assert milp._expansions and not twin._expansions
        assert milp == twin and hash(milp) == hash(twin)
        assert {milp: "warm"}[twin] == "warm"

    def test_failed_run_leaves_no_entry(self, monkeypatch):
        milp = random_milp(np.random.default_rng(11), 5, 3)
        bnb_run(milp, Fraction(1, 3), 1)
        before = {key: dict(expansion.children) for key, expansion in milp._expansions.items()}
        assert before
        monkeypatch.setattr(bnb, "_SIMPLEX_ITERATION_LIMIT", 0)
        with pytest.raises(LpSolveError):
            bnb_run(milp, Fraction(1, 3), 63)
        after = {key: dict(expansion.children) for key, expansion in milp._expansions.items()}
        assert after.keys() == before.keys()
        assert all(len(pair) == 2 for children in after.values() for pair in children.values())
        monkeypatch.undo()
        cold = cold_copy(milp)
        for rho in (Fraction(1, 3), Fraction(0), Fraction(1)):
            assert bnb_run(milp, rho, 63) == bnb_run(cold, rho, 63)
            assert branching_trace(milp, rho, 63) == branching_trace(cold, rho, 63)


class TestPartition:
    def test_integral_root_single_cell(self):
        cells = bnb_partition(whole_pool([integral_root_milp()]), 15)
        assert len(cells) == 1
        assert cells[0].z == 1.0
        assert list(cells[0].capped_losses) == [1]

    def test_two_var_breakpoint(self, two_var):
        # Root score lines cross at rho = 2/3; tree sizes are 5 and 3.
        cells = bnb_partition(whole_pool([two_var]), 31)
        assert len(cells) == 2
        assert (cells[0].cell.lo, cells[0].cell.hi) == (Fraction(0), Fraction(2, 3))
        assert list(cells[0].capped_losses) == [5]
        assert list(cells[1].capped_losses) == [3]
        # The breakpoint itself belongs to the right cell.
        assert bnb_run(two_var, Fraction(2, 3), 31).budget_used == 3

    def test_grid_agreement(self):
        pool = random_pool(seed=31, count=6, num_vars=5, num_rows=3)
        for tau in (7, 15):
            cells = bnb_partition(whole_pool(pool), tau)
            validate_cells_cover(cells, ParamSpace())
            for rho in np.linspace(0.0, 1.0, 101):
                cell_index = next(
                    i for i, c in enumerate(cells) if cell_contains(c.cell, float(rho))
                )
                for j, milp in enumerate(pool):
                    out = bnb_run(milp, float(rho), tau)
                    assert out.capped_loss(tau) == int(
                        cells[cell_index].capped_losses[j]
                    )

    def test_decision_invariance_inside_cells(self):
        pool = random_pool(seed=37, count=3, num_vars=5, num_rows=2)
        tau = 15
        cells = bnb_partition(whole_pool(pool), tau)
        rng = np.random.default_rng(2)
        for cell in cells:
            lo, hi = cell.cell.lo, cell.cell.hi
            probes = [
                float(lo) + (float(hi) - float(lo)) * float(u)
                for u in rng.random(10)
            ]
            for milp in pool:
                reference = branching_trace(milp, float(lo), tau)
                for rho in probes:
                    if not cell_contains(cell.cell, rho):
                        continue
                    assert branching_trace(milp, rho, tau) == reference

    def test_partition_contract(self):
        pool = random_pool(seed=41, count=4)
        problem = BnbProblem(pool)
        instances = problem.all_instances()
        rng = np.random.default_rng(8)
        cells = problem.get_partition(instances, 15)
        check_partition_contract(problem, instances, cells, 15, rng, points_per_cell=5)

    def test_cell_count_within_analytic_bound(self):
        pool = random_pool(seed=43, count=5, num_vars=4, num_rows=2)
        for tau in (3, 7):
            for milp in pool:
                cells = bnb_partition(whole_pool([milp]), tau)
                assert len(cells) <= milp.n ** (2 * (tau + 1)) + 1


class TestFBound:
    def test_analytic_value(self):
        pool = [Milp.from_lists([1] * 6, [[1] * 6], [3]) for _ in range(10)]
        assert BnbProblem(pool).f_bound(whole_pool(pool), 3) == 10 * 6**8 + 1 == 16_796_161
        assert BnbProblem(pool).f_bound(whole_pool(pool), 0) == 10 * 6**2 + 1
        with pytest.raises(ValueError, match="tau must be nonnegative"):
            BnbProblem(pool).f_bound(whole_pool(pool), -1)

    def test_monotone_in_instances_and_cap(self):
        pool = random_pool(seed=47, count=4)
        problem = BnbProblem(pool)
        small = problem.f_bound(whole_pool(pool[:2]), 7)
        everything = whole_pool(pool)
        assert small <= problem.f_bound(everything, 7) <= problem.f_bound(everything, 15)
        instances = problem.all_instances()
        head = sample_of(problem.pool, instances.uids[:2])
        problem.get_partition(head, 7)
        problem.get_partition(instances, 7)
        assert problem.f_bound(head, 7) <= problem.f_bound(instances, 7)

    def test_dominates_measured(self):
        pool = random_pool(seed=53, count=3)
        for tau in (7, 15):
            cells = bnb_partition(whole_pool(pool), tau)
            assert len(cells) <= BnbProblem(pool).f_bound(whole_pool(pool), tau)


class TestPoolSample:
    @pytest.fixture
    def problem_and_sample(self):
        rng = np.random.default_rng(5)
        problem = BnbProblem([random_milp(rng, 3, 2) for _ in range(7)])
        return problem, problem.sample_many(np.random.default_rng(6), 2000)

    def test_counts_cover_the_pool(self, problem_and_sample):
        problem, sample = problem_and_sample
        assert isinstance(sample, PoolSample)
        assert len(sample.counts) == len(problem.pool)
        assert sum(sample.counts) == len(sample) == 2000
        assert sample.uids == [u for u in range(7) if sample.counts[u] > 0]
        uids, counts = sample.distinct()
        assert counts == [sample.counts[u] for u in uids] and min(counts) > 0

    @pytest.mark.parametrize("tau", [3, 15])
    def test_cells_match_per_draw_gather(self, problem_and_sample, tau):
        problem, sample = problem_and_sample
        cells = bnb_partition(sample, tau)
        check_pool_cells_against_gather(problem, sample, cells, tau)

    def test_f_bound_matches_analytic_ceiling(self, problem_and_sample):
        problem, sample = problem_and_sample

        def per_draw(tau):
            draws = draw_indices(sample)
            return min(1 + sum(problem.pool[u].n ** (2 * (tau + 1)) for u in draws), 2**62)

        assert problem.f_bound(sample, 2) == per_draw(2) < 2**62
        assert problem.f_bound(sample, 40) == per_draw(40) == 2**62
        cells = problem.get_partition(sample, 7)
        assert len(cells) <= problem.f_bound(sample, 7) == per_draw(7)


class TestParser:
    @settings(max_examples=80, deadline=None)
    @given(rational_milps())
    @example(Milp.from_lists([Fraction(1, 3)], [[Fraction(-4, 3)]], [Fraction(2, 7)]))
    def test_format_reads_back_exactly(self, milp):
        assert parse_milp(format_milp(milp)) == milp

    def test_round_trip(self):
        huge = Fraction(10**400, 3)  # beyond the float range
        pool = random_pool(seed=59, count=5)
        pool.append(Milp((huge, Fraction(1)), ((Fraction(1), -huge),), (huge,)))
        for milp in pool:
            again = parse_milp(format_milp(milp))
            assert again.objective == milp.objective
            assert again.rows == milp.rows
            assert again.rhs == milp.rhs

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_parse_matches_token_by_token_reading(self, data):
        # Values are spelled several equal ways, so texts repeat within a file.
        n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 3))
        value = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        tokens = [data.draw(spelled(data.draw(value))) for _ in range(n + m * (n + 1))]
        tokens = data.draw(with_bad_tokens(tokens))
        objective = tokens[:n]
        lines = [tokens[n + i * (n + 1):n + (i + 1) * (n + 1)] for i in range(m)]
        rows, rhs = [line[:n] for line in lines], [line[n] for line in lines]
        text = f"{n} {m}\n{' '.join(objective)}\n" + "".join(
            f"{' '.join(row)} <= {b}\n" for row, b in zip(rows, rhs)
        )
        expected = outcome(lambda: Milp(
            tuple(map(to_fraction, objective)),
            tuple(tuple(map(to_fraction, row)) for row in rows),
            tuple(map(to_fraction, rhs)),
        ))
        assert outcome(lambda: parse_milp(text)) == expected

    def test_decimal_coefficients(self):
        text = "2 1\n1.5 -0.25\n0.5 1 <= 0.75\n"
        milp = parse_milp(text)
        assert milp.objective == (Fraction(3, 2), Fraction(-1, 4))
        assert milp.rhs == (Fraction(3, 4),)

    def test_rejects_oversized(self):
        n = 21
        text = f"{n} 0\n" + " ".join(["1"] * n) + "\n"
        with pytest.raises(ValueError):
            parse_milp(text)

    @pytest.mark.parametrize(
        "objective, rows, rhs, field",
        [
            ((0.5, 1), ((1, 1),), (1,), "Milp objective"),
            ((1, 1), ((1, np.float64(1)),), (1,), "Milp rows"),
            ((1, 1), ((1, 1),), (Decimal("1.5"),), "Milp rhs"),
        ],
    )
    def test_non_rational_data_rejected(self, objective, rows, rhs, field):
        with pytest.raises(TypeError, match=f"^{field} must be rational.*Milp.from_lists"):
            Milp(objective, rows, rhs)

    def test_numpy_ints_accepted(self):
        milp = Milp((np.int64(2), 1), ((np.int32(1), 1),), (Fraction(3, 2),))
        solution = lp_relax(milp)
        assert lp_view(solution)[2] == (Fraction(1), Fraction(1, 2))
        # The exact arithmetic sees Python ints only.
        assert all(type(v) is int for v in solution.numerators)
        assert type(solution.denominator) is int and type(solution.value) is int

    def test_numpy_ints_near_int64_limits_solve_like_python_ints(self):
        # Edmonds products of entries near 3e9 leave the int64 range.
        objective = (3_000_000_019, 2_999_999_993, 3_000_000_007)
        rows = ((2_999_999_999, 3_000_000_001, 2_999_999_987), (3_000_000_011, -2_999_999_981, 1))
        rhs = (4_000_000_003, 2_000_000_017)
        numpy_milp = Milp(
            tuple(map(np.int64, objective)),
            tuple(tuple(map(np.int64, row)) for row in rows),
            tuple(map(np.int64, rhs)),
        )
        python_milp = Milp(objective, rows, rhs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fixings in fixing_sets(range(3)):
                assert lp_relax(numpy_milp, fixings) == lp_relax(python_milp, fixings)
            for rho in (Fraction(0), Fraction(1, 2), Fraction(1)):
                assert bnb_run(numpy_milp, rho, 63) == bnb_run(python_milp, rho, 63)

    def test_variable_count_boundaries(self):
        widest = bnb.MAX_VARIABLES
        assert parse_milp(f"{widest} 0\n" + " ".join(["1"] * widest) + "\n").n == widest
        assert Milp.from_lists([1] * widest, [], []).n == widest
        with pytest.raises(ValueError, match="at most 20 variables"):
            Milp.from_lists([1] * (widest + 1), [], [])
        rng = np.random.default_rng(0)
        for num_vars in (1, widest):
            assert random_milp(rng, num_vars, 2).n == num_vars
        for num_vars in (0, widest + 1):
            with pytest.raises(ValueError, match="num_vars out of range"):
                random_milp(rng, num_vars, 2)
        # A size that is not an integer is a TypeError naming it.
        assert random_milp(rng, np.int64(3), 2).n == 3
        for num_vars in (6.5, 2.5, True, 3.0):
            with pytest.raises(TypeError, match=f"^num_vars must be an integer, got {num_vars}$"):
                random_milp(rng, num_vars, 2)

    def test_row_count_boundaries(self):
        rng = np.random.default_rng(0)
        empty = random_milp(rng, 5, 0)
        assert empty.n == 5 and empty.rows == () and empty.rhs == ()
        with pytest.raises(ValueError, match="^num_rows must be nonnegative$"):
            random_milp(rng, 5, -1)
        assert len(random_milp(rng, 5, np.int64(2)).rows) == 2
        for num_rows in (6.5, 2.5, True, 3.0):
            with pytest.raises(TypeError, match=f"^num_rows must be an integer, got {num_rows}$"):
                random_milp(rng, 5, num_rows)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_milp("2 1\n1 1\n1 1 1.5\n")  # missing <=
        with pytest.raises(ValueError):
            parse_milp("2 1\n1\n1 1 <= 1.5\n")  # wrong objective arity
        with pytest.raises(ValueError):
            parse_milp("")

    @pytest.mark.parametrize("text, message", [
        ("2 1 0\n1 1\n1 1 <= 1\n", "^first line must be 'n m'$"),
        ("0 0\n", "^need at least one variable$"),
        ("1 -1\n1\n", "^row count must be nonnegative$"),
        ("1 1\n2\n", "^expected 3 nonblank lines, found 2$"),
        ("1 0\n2\n1 <= 1\n", "^expected 2 nonblank lines, found 3$"),
    ], ids=["header", "no-variables", "negative-rows", "missing-row", "extra-row"])
    def test_rejects_bad_counts(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_milp(text)

    @pytest.mark.parametrize("objective, rows, rhs, message", [
        ((), (), (), "^need at least one variable$"),
        ((1,), ((1,),), (), "^one right-hand side per row required$"),
        ((1,), (), (1,), "^one right-hand side per row required$"),
        ((1, 1), ((1, 1), (1,)), (1, 1), "^row length must match the variable count$"),
    ], ids=["empty-objective", "missing-rhs", "extra-rhs", "short-row"])
    def test_milp_shape_rejected(self, objective, rows, rhs, message):
        with pytest.raises(ValueError, match=message):
            Milp(objective, rows, rhs)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "inst.milp"
        path.write_text("1 1\n2\n1 <= 0.5\n")
        milp = load_milp(path)
        assert milp.name == "inst.milp"
        assert lp_view(lp_relax(milp))[1] == Fraction(1)


class TestExactness:
    def test_lp_points_exactly_feasible(self):
        for milp in random_pool(seed=61, count=25):
            status, _, point = lp_view(lp_relax(milp))
            assert status == "optimal"
            for row, b in zip(milp.rows, milp.rhs):
                assert sum(c * x for c, x in zip(row, point)) <= b
            assert all(0 <= x <= 1 for x in point)

    def test_budget_monotone_on_random_instances(self):
        rng = np.random.default_rng(67)
        for milp in random_pool(seed=67, count=10, num_vars=4, num_rows=2):
            rho = float(rng.uniform())
            previous = None
            for tau in range(1, 40):
                out = bnb_run(milp, rho, tau)
                if previous is not None and previous.solved:
                    assert out.solved and out.budget_used == previous.budget_used
                previous = out
