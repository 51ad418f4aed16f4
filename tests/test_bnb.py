import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from frugal import bnb
from frugal.bnb import (
    BnbProblem,
    LpSolveError,
    Milp,
    bnb_partition,
    bnb_run,
    best_binary_solution,
    format_milp,
    load_milp,
    lp_relax,
    parse_milp,
    random_milp,
    scores,
)
from frugal.core import ParamSpace, PoolSample, validate_cells_cover
from frugal.sweep import DegenerateCellError
from support import (
    RecordingTracker,
    branching_trace,
    brute_binary_optimum,
    check_partition_contract,
    check_pool_cells_against_gather,
    draw_indices,
    fraction_lp_relax,
    reference_bnb_run,
    sample_of,
    whole_pool,
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
    """Every partial 0/1 assignment of the given variables, the empty one included."""
    for values in itertools.product((None, 0, 1), repeat=len(variables)):
        yield {j: v for j, v in zip(variables, values) if v is not None}


# Signed decimals with mixed denominators, so rows scale by different lcms.
decimals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 4, 10]))


@st.composite
def programs_and_free_sets(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 4))
    milp = Milp.from_lists(
        draw(st.lists(decimals, min_size=n, max_size=n)),
        [draw(st.lists(decimals, min_size=n, max_size=n)) for _ in range(m)],
        draw(st.lists(decimals, min_size=m, max_size=m)),
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


def cold_copy(milp):
    """The same program with empty memos."""
    return Milp(milp.objective, milp.rows, milp.rhs, milp.name)


class TestLpRelax:
    def test_single_constraint_binds(self):
        milp = Milp.from_lists([1], [[1]], ["0.5"])
        solution = lp_relax(milp)
        assert solution.objective == Fraction(1, 2)
        assert solution.point == (Fraction(1, 2),)

    def test_greedy_fill(self, two_var):
        solution = lp_relax(two_var)
        assert solution.objective == Fraction(5, 2)
        assert solution.point == (Fraction(1), Fraction(1, 2))

    def test_fixings_substituted(self, two_var):
        solution = lp_relax(two_var, {1: 1})
        assert solution.objective == Fraction(2)  # x0 <= 0.5, so 2*0.5 + 1
        assert solution.point[1] == 1

    def test_infeasible_detected(self, two_var):
        assert lp_relax(two_var, {0: 1, 1: 1}).status == "infeasible"

    def test_negative_rhs_phase_one(self):
        milp = Milp.from_lists([1, 1], [[-1, 0], [1, 1]], ["-0.75", "1.2"])
        solution = lp_relax(milp)
        assert solution.objective == Fraction(6, 5)
        assert solution.point[0] >= Fraction(3, 4)

    def test_dominates_binary_enumeration(self):
        for milp in random_pool(seed=101, count=50, num_vars=6, num_rows=4):
            relax = lp_relax(milp)
            best = brute_binary_optimum(milp)
            assert relax.status == "optimal"  # origin always feasible
            assert best is None or relax.objective >= best

    def test_matches_float_solver(self):
        for milp in random_pool(seed=5, count=25):
            relax = lp_relax(milp)
            result = linprog(
                c=[-float(v) for v in milp.objective],
                A_ub=[[float(v) for v in row] for row in milp.rows],
                b_ub=[float(v) for v in milp.rhs],
                bounds=[(0, 1)] * milp.n,
                method="highs",
            )
            assert result.status == 0
            assert float(relax.objective) == pytest.approx(-result.fun, abs=1e-7)

    @pytest.mark.parametrize(
        "objective, rows, rhs, point",
        [
            # Zero objective: the point is where phase 1 stops, which
            # depends on weighting the artificials of rows scaled by 10 and 2.
            ([0, 0], [[-1, -1], [2, -1]], ["-1.1", "-0.5"], ("1/5", "9/10")),
            # x0 >= 1 against its box leaves an artificial basic at zero;
            # the column it is pivoted out on decides which optimal vertex
            # phase 2 ends at.
            (
                [2, 0, 1],
                [[-1, 0, 0], [2, "1.5", -4], ["-0.5", -1, -2]],
                [-1, 1, -1],
                (1, 0, 1),
            ),
        ],
    )
    def test_vertex_follows_rational_pivots(self, objective, rows, rhs, point):
        milp = Milp.from_lists(objective, rows, rhs)
        solution = lp_relax(milp)
        assert (solution.status, solution.objective, solution.point) == fraction_lp_relax(milp)
        assert solution.point == tuple(Fraction(x) for x in point)

    def test_matches_fraction_tableau_on_every_fixing_set(self):
        rng = np.random.default_rng(71)
        pool = [random_milp(rng, 5, 4) for _ in range(6)]
        for milp in pool:
            for fixings in fixing_sets(range(milp.n)):
                solution = lp_relax(milp, fixings)
                expected = fraction_lp_relax(milp, fixings)
                assert (solution.status, solution.objective, solution.point) == expected

    @settings(max_examples=100, deadline=None)
    @given(programs_and_free_sets())
    def test_matches_fraction_tableau_property(self, case):
        milp, fixable = case
        distinct = list(fixing_sets(fixable))
        for fixings in distinct:
            solution = lp_relax(milp, fixings)
            expected = fraction_lp_relax(milp, fixings)
            assert (solution.status, solution.objective, solution.point) == expected
        for fixings in reversed(distinct):
            lp_relax(milp, list(fixings.items())[::-1])
        assert len(milp._lp_cache) == len(distinct)

    def test_iteration_limit_names_program_and_fixings(self, monkeypatch, two_var):
        monkeypatch.setattr(bnb, "_SIMPLEX_ITERATION_LIMIT", 0)
        named = Milp.from_lists([2, 1, 1], [[1, 1, 1]], ["1.5"], name="tight.milp")
        with pytest.raises(LpSolveError, match="simplex iteration limit exceeded") as excinfo:
            lp_relax(named, {2: 0})
        message = str(excinfo.value)
        assert "program 'tight.milp'" in message and "fixings {2: 0}" in message
        assert excinfo.value.program == "tight.milp"
        assert excinfo.value.fixings == ((2, 0),)
        assert len(named._lp_cache) == 0
        with pytest.raises(LpSolveError, match=r"unnamed program, fixings \{\}"):
            lp_relax(two_var)

    def test_weak_duality_down_the_tree(self):
        for milp in random_pool(seed=17, count=20):
            parent = lp_relax(milp)
            for i in range(milp.n):
                for value in (0, 1):
                    child = lp_relax(milp, {i: value})
                    if child.is_optimal:
                        assert child.objective <= parent.objective


class TestScores:
    def test_hand_example(self, two_var):
        root = lp_relax(two_var)
        assert scores(two_var, (), root, 0) == (Fraction(0), Fraction(3, 2))
        assert scores(two_var, (), root, 1) == (Fraction(1, 2), Fraction(1, 2))

    def test_equal_children_collapse(self, two_var):
        low, high = scores(two_var, (), lp_relax(two_var), 1)
        assert low == high

    def test_both_children_infeasible_sentinel(self):
        # x0 = 0 and x0 = 1 both break the pinned equality-style pair.
        milp = Milp.from_lists([1, 1], [[1, 0], [-1, 0]], ["0.6", "-0.4"])
        low, high = scores(milp, ((1, 0),), lp_relax(milp, {1: 0}), 0)
        assert low == high == Fraction(10**9)

    def test_fixed_variable_rejected(self, two_var):
        with pytest.raises(ValueError):
            scores(two_var, ((0, 1),), lp_relax(two_var, {0: 1}), 0)

    def test_settled_child_solves_no_lp(self):
        settled_seen = 0
        for milp in random_pool(seed=19, count=20, num_vars=6, num_rows=3):
            root = lp_relax(milp)
            for index, x in enumerate(root.point):
                if x not in (0, 1):
                    continue
                settled_seen += 1
                before = set(milp._lp_cache)
                low, _ = scores(milp, (), root, index)
                assert low == 0
                settled = ((index, int(x)),)
                assert settled not in milp._lp_cache
                assert set(milp._lp_cache) - before <= {((index, 1 - int(x)),)}
                status, value, _ = fraction_lp_relax(milp, settled)
                assert status == "optimal" and value == root.objective
        assert settled_seen > 0


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
                    i for i, c in enumerate(cells) if c.cell.contains(float(rho))
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
                    if not cell.cell.contains(rho):
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
        assert sample.counts.shape == (len(problem.pool),)
        assert int(sample.counts.sum()) == len(sample) == 2000
        assert sample.uids.tolist() == [u for u in range(7) if sample.counts[u] > 0]
        uids, counts = sample.distinct()
        assert counts.tolist() == sample.counts[uids].tolist() and counts.min() > 0

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


@st.composite
def rational_milps(draw):
    """A program of up to 4 variables and 3 rows with small rational data."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    value = st.fractions(min_value=-20, max_value=20, max_denominator=60)
    objective = draw(st.lists(value, min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(value, min_size=m, max_size=m))
    return Milp(tuple(objective), tuple(map(tuple, rows)), tuple(rhs))


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

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_milp("2 1\n1 1\n1 1 1.5\n")  # missing <=
        with pytest.raises(ValueError):
            parse_milp("2 1\n1\n1 1 <= 1.5\n")  # wrong objective arity
        with pytest.raises(ValueError):
            parse_milp("")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "inst.milp"
        path.write_text("1 1\n2\n1 <= 0.5\n")
        milp = load_milp(path)
        assert milp.name == "inst.milp"
        assert lp_relax(milp).objective == Fraction(1)


class TestExactness:
    def test_lp_points_exactly_feasible(self):
        for milp in random_pool(seed=61, count=25):
            solution = lp_relax(milp)
            assert solution.is_optimal
            for row, b in zip(milp.rows, milp.rhs):
                assert sum(c * x for c, x in zip(row, solution.point)) <= b
            assert all(0 <= x <= 1 for x in solution.point)

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
