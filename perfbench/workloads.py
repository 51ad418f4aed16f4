"""The benchmark's workloads: seeded inputs, one op, and an oracle per op.

Each workload generates its inputs from the seed and writes them in the
CLI's file formats (``write_inputs``, once per run), then loads them through
``frugal.cli`` the way the ``frugal`` command does (``load``); loading is the
set-up that ``setup_s`` times.  An op then works on fresh
objects built from the loaded inputs, so every op starts as cold as a new
``frugal`` process (no LP cache carried over) and a re-run of the same op
index does the same work.  ``check`` is the oracle: it runs after the op,
outside the timed section, and returns a description of the first mismatch
or None.

Library entry points are called through their module (``learner.learn_subset``)
so that the traced run's wrappers apply.
"""
from __future__ import annotations

import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from frugal import bnb, cli, clustering, core, learner, synthetic

EPSILON = 15.0
ZETA = 0.05


def _op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _write_config(workdir: Path, payload: dict) -> None:
    (workdir / "config.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_config(workdir: Path) -> cli.RunConfig:
    return cli.load_config(workdir / "config.json")


def _write_instances(workdir: Path, texts: list[str]) -> Path:
    directory = workdir / "instances"
    directory.mkdir()
    for index, text in enumerate(texts):
        (directory / f"instance_{index:05d}.txt").write_text(text)
    return directory


def _fresh_milp(milp: bnb.Milp) -> bnb.Milp:
    # Same program, empty LP cache.
    return bnb.Milp(milp.objective, milp.rows, milp.rhs, milp.name)


def _cell_bounds(cell: core.PartitionCell) -> tuple[Fraction, Fraction]:
    (lo, hi), = cell.cell.intervals
    return lo, hi


class _CheckpointedBnbProblem(bnb.BnbProblem):
    """A BnbProblem that offers a speed-probe checkpoint once per learner round.

    A learn op runs for seconds, over which the host's speed drifts; probing
    at every round lets the scaling follow the drift.
    """

    def __init__(self, pool, checkpoint) -> None:
        super().__init__(pool)
        self._checkpoint = checkpoint

    def get_partition(self, instances, tau: int):
        self._checkpoint()
        return super().get_partition(instances, tau)


class Workload:
    """Inputs from a seed, one op over them, and the op's oracle."""

    name = ""
    why = ""
    op = ""
    # Kind of work the speed probe does: "exact" or "numpy" (see run.py).
    probe = "exact"
    # Ops a run measures per --seconds: about as many as take a second at
    # the reference speed (see run.py).
    ops_per_second: float

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def sizes(self) -> dict[str, Any]:
        raise NotImplementedError

    def write_inputs(self, workdir: Path) -> None:
        """Generate the inputs and write them in the CLI's formats."""
        raise NotImplementedError

    def load(self, workdir: Path) -> None:
        """Load the written inputs as the ``frugal`` command does."""
        raise NotImplementedError

    def instance_index(self, index: int) -> int:
        """Pool index an op works on, for failure reports."""
        return index

    def checkpoint(self) -> None:
        """Lets the speed probe take a reading inside a long op (see run.py)."""

    def run(self, index: int) -> Any:
        raise NotImplementedError

    def check(self, index: int, output: Any) -> str | None:
        raise NotImplementedError


class LearnSynthetic(Workload):
    name = "learn-synthetic"
    why = (
        "batched numpy learner on the closed-form family; no exact arithmetic, "
        "so LP, tracker or refine changes must read no change here"
    )
    op = "learn_subset on the default SyntheticFamily, a fresh learner seed per op"
    probe = "numpy"
    ops_per_second = 7.5
    DELTA = 0.25

    def sizes(self) -> dict[str, Any]:
        return {"epsilon": EPSILON, "delta": self.DELTA, "zeta": ZETA, "family": "default"}

    def write_inputs(self, workdir: Path) -> None:
        _write_config(
            workdir,
            {"domain": "synthetic", "epsilon": EPSILON, "delta": self.DELTA, "zeta": ZETA,
             "seed": self.seed, "family": {}},
        )

    def load(self, workdir: Path) -> None:
        self.cfg = _load_config(workdir)
        self.family = cli.build_problem(self.cfg).family
        self.summary = synthetic.synthetic_exact_opt(self.family, self.DELTA)

    def run(self, index: int) -> Any:
        cfg = replace(self.cfg.learner_config(), seed=_op_seed(self.seed, index))
        return learner.learn_subset(synthetic.SyntheticProblem(self.family), cfg)

    def check(self, index: int, output: Any) -> str | None:
        family = self.family
        if output.terminal_round != 8:
            return f"terminal round {output.terminal_round}, expected 8"
        if not any(family.a < p.scalar < family.b for p in output.parameters):
            return "no learned parameter in the middle band"
        best = min(
            self.summary.capped_mean_by_region[family.region(float(p.scalar))]
            for p in output.parameters
        )
        limit = math.sqrt(1.0 + EPSILON) * self.summary.opt_quarter
        if best > limit:
            return f"best learned capped mean {best} above {limit}"
        return None


class LearnBnb(Workload):
    name = "learn-bnb"
    why = (
        "pool-domain learner then select: refine_cells per sample, one-at-a-time "
        "draws, warm standalone bnb_run and doubling re-runs in measure_loss"
    )
    op = (
        "learn_subset on a fresh BnbProblem over the pool, then select_finite over "
        "the learned set (delta' = delta/2, ceiling 2^(T+4)), a fresh learner seed per op"
    )
    # One fixed pool: learn cost varies two- to four-fold between random pools
    # of this size (round count and cell count both move), which the three to
    # five ops of one run cannot average out.  The seed drives the learner's
    # and the selector's sampling.
    POOL_SEED = 3
    ops_per_second = 0.5
    PROGRAMS, VARIABLES, ROWS = 8, 3, 2
    DELTA = 0.9
    SELECT_SAMPLES = 50

    def sizes(self) -> dict[str, Any]:
        return {
            "pool_seed": self.POOL_SEED, "programs": self.PROGRAMS,
            "variables": self.VARIABLES, "rows": self.ROWS, "epsilon": EPSILON,
            "delta": self.DELTA, "zeta": ZETA, "select_samples": self.SELECT_SAMPLES,
        }

    def write_inputs(self, workdir: Path) -> None:
        rng = np.random.default_rng(self.POOL_SEED)
        texts = [
            bnb.format_milp(bnb.random_milp(rng, self.VARIABLES, self.ROWS))
            for _ in range(self.PROGRAMS)
        ]
        directory = _write_instances(workdir, texts)
        _write_config(
            workdir,
            {"domain": "bnb", "epsilon": EPSILON, "delta": self.DELTA, "zeta": ZETA,
             "seed": self.seed, "instances_dir": str(directory)},
        )

    def load(self, workdir: Path) -> None:
        self.cfg = _load_config(workdir)
        self.pool = cli.build_problem(self.cfg).pool

    def run(self, index: int) -> Any:
        op_seed = _op_seed(self.seed, index)
        problem = _CheckpointedBnbProblem([_fresh_milp(m) for m in self.pool], self.checkpoint)
        result = learner.learn_subset(problem, replace(self.cfg.learner_config(), seed=op_seed))
        chosen = learner.select_finite(
            problem,
            result.parameters,
            eps_prime=math.sqrt(1.0 + EPSILON) - 1.0,
            delta_prime=self.DELTA / 2.0,
            n_samples=self.SELECT_SAMPLES,
            rng=np.random.default_rng(op_seed),
            cap_ceiling=2 ** (result.terminal_round + 4),
        )
        return result, chosen, problem.pool

    def check(self, index: int, output: Any) -> str | None:
        result, chosen, pool = output
        if not result.regions:
            return "no region admitted"
        if chosen not in result.parameters:
            return "selected parameter is not in the learned set"
        admission = self.cfg.learner_config().admission_threshold
        for number, region in enumerate(result.regions):
            lo, hi = region.cell.intervals[0]
            cap = 2**region.round_added
            rho = region.cell.representative()
            if not (lo <= rho < hi or rho == hi == 1):
                return f"region {number}: representative {rho} outside [{lo}, {hi})"
            if region.z < admission:
                return f"region {number}: z {region.z} below the admission bar"
            mid = (lo + hi) / 2
            at_lo = [bnb.bnb_run(m, lo, cap) for m in pool]
            at_mid = [bnb.bnb_run(m, mid, cap) for m in pool]
            for program, (a, b) in enumerate(zip(at_lo, at_mid)):
                if (a.capped_loss(cap), a.solved) != (b.capped_loss(cap), b.solved):
                    return f"region {number}: program {program} differs at {lo} and {mid}"
            if all(a.solved for a in at_lo) != (region.z == 1.0):
                return f"region {number}: z {region.z} disagrees with the solved flags"
            capped = [min(a.capped_loss(cap), region.tau_cell) for a in at_lo]
            if not min(capped) <= region.capped_estimate <= max(capped):
                return f"region {number}: estimate {region.capped_estimate} outside {capped}"
        return None


class PartitionBnb(Workload):
    name = "partition-bnb"
    why = (
        "cold exact partition of one program: the exact simplex dominates; "
        "the pool is not filtered, so DegenerateCellError ops count as failed"
    )
    op = "BnbProblem([program]).get_partition at the cap, with an empty LP cache"
    POOL, VARIABLES, ROWS, TAU = 600, 5, 4, 63
    # A 10 s run is one pass over the pool.  About 1% of these programs
    # raise DegenerateCellError (ROADMAP item 4), the same ones on every run
    # of one seed.
    ops_per_second = 60.0

    def sizes(self) -> dict[str, Any]:
        return {"pool": self.POOL, "variables": self.VARIABLES, "rows": self.ROWS,
                "tau": self.TAU}

    def write_inputs(self, workdir: Path) -> None:
        rng = np.random.default_rng(self.seed)
        texts = [
            bnb.format_milp(bnb.random_milp(rng, self.VARIABLES, self.ROWS))
            for _ in range(self.POOL)
        ]
        directory = _write_instances(workdir, texts)
        _write_config(
            workdir, {"domain": "bnb", "seed": self.seed, "instances_dir": str(directory)}
        )

    def load(self, workdir: Path) -> None:
        self.pool = cli.build_problem(_load_config(workdir)).pool

    def instance_index(self, index: int) -> int:
        return index % self.POOL

    def run(self, index: int) -> Any:
        milp = _fresh_milp(self.pool[self.instance_index(index)])
        problem = bnb.BnbProblem([milp])
        return problem.get_partition(problem.all_instances(), self.TAU), milp

    def check(self, index: int, output: Any) -> str | None:
        cells, milp = output
        try:
            core.validate_cells_cover(cells, core.ParamSpace())
        except ValueError as exc:
            return f"cells do not tile [0, 1]: {exc}"
        for cell in cells:
            lo, hi = _cell_bounds(cell)
            expected = (int(cell.capped_losses[0]), cell.z == 1.0)
            for rho in (lo, (lo + hi) / 2):
                outcome = bnb.bnb_run(milp, rho, self.TAU)
                if (outcome.capped_loss(self.TAU), outcome.solved) != expected:
                    return f"bnb_run at {rho} disagrees with cell [{lo}, {hi})"
        return None


class PartitionClustering(Workload):
    name = "partition-clustering"
    why = (
        "exact linkage partition of one metric: no LP; the tracker argmin over "
        "pair lines, capped_linkage_run and best_pruning carry the time"
    )
    op = "ClusteringProblem([instance]).get_partition at the full merge cap"
    POOL, POINTS, K, TAU = 300, 12, 2, 11
    # A 10 s run is one pass over the pool, about 6 s of ops at the reference
    # speed: the oracle checks and loads already make such a run last 45 s.
    ops_per_second = 30.0

    def sizes(self) -> dict[str, Any]:
        return {"pool": self.POOL, "points": self.POINTS, "k": self.K, "tau": self.TAU}

    def write_inputs(self, workdir: Path) -> None:
        rng = np.random.default_rng(self.seed)
        texts = [
            clustering.format_instance(clustering.random_metric_instance(rng, self.POINTS, self.K))
            for _ in range(self.POOL)
        ]
        directory = _write_instances(workdir, texts)
        _write_config(
            workdir,
            {"domain": "clustering", "seed": self.seed, "instances_dir": str(directory)},
        )

    def load(self, workdir: Path) -> None:
        self.pool = cli.build_problem(_load_config(workdir)).pool

    def instance_index(self, index: int) -> int:
        return index % self.POOL

    def run(self, index: int) -> Any:
        instance = self.pool[self.instance_index(index)]
        problem = clustering.ClusteringProblem([instance])
        return problem.get_partition(problem.all_instances(), self.TAU), instance

    def check(self, index: int, output: Any) -> str | None:
        cells, instance = output
        try:
            core.validate_cells_cover(cells, core.ParamSpace())
        except ValueError as exc:
            return f"cells do not tile [0, 1]: {exc}"
        budget = min(self.TAU, instance.n - 1)
        for cell in cells:
            lo, hi = _cell_bounds(cell)
            mid = (lo + hi) / 2
            forest = clustering.capped_linkage_run(instance, mid, budget)
            if clustering.capped_linkage_run(instance, lo, budget).merges != forest.merges:
                return f"merge sequence changes inside cell [{lo}, {hi})"
            # Equal merge sequences give equal forests, so the loss is
            # checked once: the first merge budget whose best pruning is
            # admissible, as clustering_run_with_cap defines it.
            loss = next(
                (b for b in range(budget + 1)
                 if clustering.best_pruning(forest.prefix(b), instance.k, instance).cost
                 <= instance.theta),
                None,
            )
            expected = (int(cell.capped_losses[0]), cell.z == 1.0)
            if (self.TAU if loss is None else loss, loss is not None) != expected:
                return f"loss at {mid} disagrees with cell [{lo}, {hi})"
        return None


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (LearnSynthetic, LearnBnb, PartitionBnb, PartitionClustering)
}
