"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 1-4 exercise the end-to-end guarantees on the exactly solvable
synthetic family (20 seeded runs, thresholds as stated per criterion);
criteria 5-6 check the combinatorial domains against brute-force oracles
and fine grids; criterion 7 the concentration machinery; criterion 8 CLI
byte-level determinism; criterion 9 that learning and selecting find a
good-parameter band of width 1e-9 on the synthetic family.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from frugal.bnb import (
    bnb_partition,
    bnb_run,
    best_binary_solution,
    random_milp,
)
from frugal.clustering import (
    ClusteringInstance,
    best_pruning,
    capped_linkage_run,
    clustering_partition,
    exact_kmedian_cost,
    random_metric_instance,
)
from frugal.learner import LearnerConfig, compute_eta, grow_sample, learn_subset, select_finite
from frugal.stats import GammaInputs, gamma_bound
from frugal.synthetic import SyntheticFamily, SyntheticProblem
from frugal.cli import main as cli_main
from support import (
    brute_binary_optimum,
    enumerate_prunings,
    four_point_metric,
    gamma_reference,
    massart_bound,
    mc_rademacher,
    min_samples_oracle,
    whole_pool,
)

FAMILY = SyntheticFamily()
DELTA, EPSILON, ZETA = 0.25, 15.0, 0.05
SEEDS = range(20)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict}" + (f" ({detail})" if detail else ""))


def learner_config(seed: int) -> LearnerConfig:
    return LearnerConfig(epsilon=EPSILON, delta=DELTA, zeta=ZETA, seed=seed)


@pytest.fixture(scope="module")
def synthetic_runs():
    started = time.perf_counter()
    runs = [
        (seed, learn_subset(SyntheticProblem(FAMILY), learner_config(seed)))
        for seed in SEEDS
    ]
    elapsed = time.perf_counter() - started
    return runs, elapsed


def test_criterion_1_synthetic_end_to_end(synthetic_runs):
    runs, elapsed = synthetic_runs
    good = 0
    for _, result in runs:
        by_round = {row.round_index: row.threshold for row in result.trace}
        t_becomes_8_at_3 = by_round.get(3) == 8.0 and math.isinf(by_round.get(2))
        terminal_8 = result.terminal_round == 8
        has_mid = any(FAMILY.a < p.scalar < FAMILY.b for p in result.parameters)
        bound = 2**result.terminal_round <= (16 / DELTA) * (1 + EPSILON) ** 0.25 * 8
        good += t_becomes_8_at_3 and terminal_8 and has_mid and bound
    ok = good >= 19 and elapsed <= 60.0
    report(1, "synthetic end-to-end trajectory", ok,
           f"{good}/20 seeds, {elapsed:.1f}s for 20 runs")
    assert good >= 19
    assert elapsed <= 60.0


def test_criterion_2_tail_sandwich(synthetic_runs):
    runs, _ = synthetic_runs
    rng = np.random.default_rng(123)
    good = 0
    for _, result in runs:
        seed_ok = True
        for region in result.regions:
            lo, hi = region.cell.lo, region.cell.hi
            lo, hi = float(lo), float(hi)
            probes = [lo + (hi - lo) * float(u) for u in rng.random(10)]
            for rho in probes:
                lower = FAMILY.tail_quantile(rho, DELTA / 2)
                upper = FAMILY.tail_quantile(rho, DELTA / 4)
                if not lower <= region.tau_cell <= upper:
                    seed_ok = False
        good += seed_ok
    report(2, "recorded caps sandwiched between exact tail quantiles", good >= 19,
           f"{good}/20 seeds")
    assert good >= 19


def test_criterion_3_subset_optimality(synthetic_runs):
    runs, _ = synthetic_runs
    target_subset = math.sqrt(1 + EPSILON) * 8.0
    target_selected = (1 + EPSILON) * 8.0
    good_subset = 0
    good_selected = 0
    for seed, result in runs:
        means = [
            FAMILY.capped_mean(p.scalar, FAMILY.tail_quantile(p.scalar, DELTA / 2))
            for p in result.parameters
        ]
        good_subset += min(means) <= target_subset
        problem = SyntheticProblem(FAMILY)
        chosen = select_finite(
            problem,
            result.parameters,
            eps_prime=math.sqrt(1 + EPSILON) - 1,
            delta_prime=DELTA / 2,
            n_samples=2000,
            rng=np.random.default_rng(1000 + seed),
            cap_ceiling=2 ** (result.terminal_round + 4),
        )
        selected_mean = FAMILY.capped_mean(
            chosen.scalar, FAMILY.tail_quantile(chosen.scalar, DELTA)
        )
        good_selected += selected_mean <= target_selected
    ok = good_subset >= 19 and good_selected >= 18
    report(3, "subset and selected-parameter optimality", ok,
           f"subset {good_subset}/20, selected {good_selected}/20")
    assert good_subset >= 19
    assert good_selected >= 18


def test_criterion_4_sample_growth_scaling(synthetic_runs):
    runs, _ = synthetic_runs
    eta_delta = compute_eta(EPSILON) * DELTA
    exact = True
    for _, result in runs[:3]:
        for row in result.trace:
            if row.samples == 0:
                continue
            oracle = min_samples_oracle(
                row.round_index, row.cap, 3, ZETA, eta_delta
            )
            if row.samples != oracle:
                exact = False
    # Halving the accuracy target: epsilon chosen so eta exactly halves.
    eps_half = (13.0 / 9.0) ** 4 - 1.0
    assert compute_eta(eps_half) == pytest.approx(1.0 / 18.0, rel=1e-12)
    problem = SyntheticProblem(FAMILY)
    full = grow_sample(problem, 3, learner_config(0), np.random.default_rng(0))
    half_cfg = LearnerConfig(epsilon=eps_half, delta=DELTA, zeta=ZETA, seed=0)
    half = grow_sample(problem, 3, half_cfg, np.random.default_rng(0))
    ratio = len(half) / len(full)
    ok = exact and 3.5 <= ratio <= 4.5
    report(4, "sample growth matches the scalar-solve oracle", ok,
           f"exact={exact}, halving ratio {ratio:.2f}")
    assert exact
    assert 3.5 <= ratio <= 4.5


def test_criterion_5_bnb_partition_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    pool = [
        random_milp(rng, int(rng.integers(2, 7)), int(rng.integers(1, 5)))
        for _ in range(50)
    ]
    grid = [Fraction(i, 1000) for i in range(1001)]
    mismatches = 0
    count_violations = 0
    for tau in (7, 15, 31):
        for milp in pool:
            cells = bnb_partition(whole_pool([milp]), tau)
            if len(cells) > milp.n ** (2 * (tau + 1)) + 1:
                count_violations += 1
            bounds = [(cell.cell.lo, cell.cell.hi) for cell in cells]
            idx = 0
            for rho in grid:
                while not (
                    bounds[idx][0] <= rho
                    and (rho < bounds[idx][1] or (rho == 1 and bounds[idx][1] == 1))
                ):
                    idx += 1
                out = bnb_run(milp, rho, tau)
                if out.capped_loss(tau) != int(cells[idx].capped_losses[0]):
                    mismatches += 1
    incumbent_bad = 0
    for milp in pool:
        expected = brute_binary_optimum(milp)
        for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
            if best_binary_solution(milp, rho) != expected:
                incumbent_bad += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and incumbent_bad == 0 and count_violations == 0
    report(5, "tree-invariance partition exact on a 1e-3 grid", ok and elapsed <= 300,
           f"{mismatches} grid mismatches, {incumbent_bad} incumbent errors, "
           f"{count_violations} count violations, {elapsed:.0f}s")
    assert mismatches == 0
    assert incumbent_bad == 0
    assert count_violations == 0
    assert elapsed <= 300.0


def test_criterion_6_clustering_fixtures():
    matrix = four_point_metric()
    four = ClusteringInstance.from_lists(matrix, 2, exact_kmedian_cost(matrix, 2))
    cells = clustering_partition(whole_pool([four]), 3)
    breakpoint_ok = any(
        abs(float(cell.cell.lo) - 0.4) <= 1e-9 for cell in cells
    )

    rng = np.random.default_rng(77)
    fixtures = [
        random_metric_instance(rng, num_points=int(rng.integers(4, 9)),
                               k=int(rng.integers(2, 4)))
        for _ in range(10)
    ] + [four]
    dp_ok = True
    for inst in fixtures:
        for rho in ("0", "0.31", "0.77", "1"):
            full = capped_linkage_run(inst, rho, inst.n - 1)
            for budget in range(inst.n):
                forest = full.prefix(budget)
                for k in range(1, min(4, inst.n) + 1):
                    if best_pruning(forest, k, inst).cost != enumerate_prunings(forest, k, inst):
                        dp_ok = False

    grid_ok = True
    pool = fixtures[:6]
    tau = 7
    cell_list = clustering_partition(whole_pool(pool), tau)
    for i in range(1001):
        rho = Fraction(i, 1000)
        cell = next(c for c in cell_list if c.cell.contains(rho))
        lo = cell.cell.lo
        for inst in pool:
            budget = min(tau, inst.n - 1)
            if (
                capped_linkage_run(inst, rho, budget).merges
                != capped_linkage_run(inst, lo, budget).merges
            ):
                grid_ok = False

    mono_ok = True
    for _ in range(100):
        inst = random_metric_instance(rng, num_points=int(rng.integers(4, 8)),
                                      k=int(rng.integers(2, 4)))
        full = capped_linkage_run(inst, "0.63", inst.n - 1)
        costs = [best_pruning(full.prefix(b), inst.k, inst).cost for b in range(inst.n)]
        if any(a < b for a, b in zip(costs, costs[1:])):
            mono_ok = False

    ok = breakpoint_ok and dp_ok and grid_ok and mono_ok
    report(6, "clustering fixtures: breakpoint, DP oracle, grid, monotone cost", ok,
           f"breakpoint={breakpoint_ok}, dp={dp_ok}, grid={grid_ok}, monotone={mono_ok}")
    assert ok


def test_criterion_7_concentration_suite():
    rng = np.random.default_rng(404)
    dominated = True
    for _ in range(100):
        count = int(rng.integers(1, 6))
        length = int(rng.integers(2, 17))
        vectors = rng.uniform(-4, 4, size=(count, length))
        if mc_rademacher(vectors, trials=1) > massart_bound(vectors) + 1e-12:
            dominated = False

    agree = True
    for _ in range(100):
        inputs = GammaInputs(
            round_index=int(rng.integers(1, 50)),
            sample_count=int(rng.integers(1, 10**7)),
            cap=int(rng.integers(1, 2**18)),
            f_value=int(rng.integers(1, 10**8)),
            confidence=float(rng.uniform(0.001, 0.999)),
        )
        reference = gamma_reference(
            inputs.round_index, inputs.sample_count, inputs.cap,
            inputs.f_value, inputs.confidence,
        )
        if abs(gamma_bound(inputs) - reference) > 1e-12 * max(1.0, reference):
            agree = False

    base = GammaInputs(round_index=4, sample_count=50_000, cap=16, f_value=7,
                       confidence=0.05)
    value = gamma_bound(base)
    monotone = (
        gamma_bound(GammaInputs(4, 50_000, 16, 70, 0.05)) >= value
        and gamma_bound(GammaInputs(4, 50_000, 160, 7, 0.05)) >= value
        and gamma_bound(GammaInputs(40, 50_000, 16, 7, 0.05)) >= value
        and gamma_bound(GammaInputs(4, 50_000, 16, 7, 0.005)) >= value
    )
    ok = dominated and agree and monotone
    report(7, "concentration suite: Rademacher domination and bound agreement", ok,
           f"dominated={dominated}, agree={agree}, monotone={monotone}")
    assert ok


def test_criterion_8_cli_determinism(tmp_path):
    config = {
        "domain": "synthetic",
        "family": {"a": 0.35, "b": 0.45, "L_mid": 8, "L_low": 16, "L_high": 256},
        "epsilon": EPSILON,
        "delta": DELTA,
        "zeta": ZETA,
        "seed": 7,
        "out": str(tmp_path / "out"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    commands = [
        ["learn", "--config", str(config_path)],
        ["partition", "--config", str(config_path), "--tau", "8"],
        ["select", "--config", str(config_path), "--samples", "400"],
        ["evaluate", "--config", str(config_path), "--rho", "0.2", "--samples", "500"],
    ]
    snapshots = []
    for _ in range(2):
        for argv in commands:
            assert cli_main(argv) == 0
        out = tmp_path / "out"
        snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = snapshots[0] == snapshots[1]
    report(8, "CLI outputs byte-identical across reruns", ok,
           f"{len(snapshots[0])} files compared")
    assert ok


def test_criterion_9_narrow_pocket():
    # The only good parameters fill a band of width 1e-9; a learned set finds
    # it, where a uniform sample of the learned set's size almost never does.
    # The bar (19 of 20 seeds) was fixed before the first run.
    family = SyntheticFamily(a=0.4, b=0.4 + 1e-9)
    width = Fraction(family.b) - Fraction(family.a)
    good, sizes = 0, set()
    for seed in range(1, 21):
        result = learn_subset(SyntheticProblem(family), learner_config(seed))
        chosen = select_finite(
            SyntheticProblem(family),
            result.parameters,
            eps_prime=math.sqrt(1 + EPSILON) - 1,
            delta_prime=DELTA / 2,
            n_samples=2000,
            rng=np.random.default_rng(1000 + seed),
            cap_ceiling=2 ** (result.terminal_round + 4),
        )
        good += family.a < chosen.scalar < family.b
        sizes.add(len(result.parameters))
    chances = ", ".join(f"N={n}: {float(1 - (1 - width) ** n):.3g}" for n in sorted(sizes))
    report(9, "selected parameter inside a 1e-9 pocket", good >= 19,
           f"{good}/20 seeds; a uniform sample of N hits it with chance {chances}")
    assert good >= 19
