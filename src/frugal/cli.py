"""Experiment harness: JSON configs, subcommands, seeded runs, CSV/JSON output.

Subcommands: ``learn`` (run the full subset learner), ``partition`` (emit the
cells at one cap), ``select`` (reduce a learned subset to one parameter),
``evaluate`` (empirical loss CDF at one parameter).  Every output file is
schema-stable and byte-identical across reruns with the same config and
seed; timing is reported on stdout only.

Exit codes: 0 success, 1 config or usage error, 2 runtime failure.  The
``FRUGAL_LOG`` environment variable (error, info, debug) controls stderr
logging.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .bnb import BnbProblem, LpSolveError, load_milp
from .clustering import ClusteringProblem, load_instance
from .core import ConfigProblem, ParamPoint
from .learner import (
    DEFAULT_CAP_CEILING,
    LearnerConfig,
    LearnerError,
    estimate_capped_tail_means,
    learn_subset,
    sample_losses,
)
from .sweep import DegenerateCellError
from .synthetic import SyntheticFamily, SyntheticProblem

__all__ = ["main", "entry", "UsageError", "RunConfig", "load_config"]

log = logging.getLogger("frugal")

_FAMILY_KEYS = {"a": "a", "b": "b", "L_mid": "loss_mid", "L_low": "loss_low", "L_high": "loss_high"}
_CONFIG_KEYS = {"domain", "family", "instances_dir", "out"} | {
    knob.name for knob in fields(LearnerConfig)
}


class UsageError(Exception):
    """Bad command line or config; maps to exit code 1."""


@dataclass
class RunConfig:
    domain: str
    learner: LearnerConfig
    out: Path
    family: SyntheticFamily | None = None
    instances_dir: Path | None = None

    def learner_config(self) -> LearnerConfig:
        """``learner``.  Exists only because ``perfbench/workloads.py`` calls it."""
        return self.learner


def _is_json_number(value, integer: bool = False) -> bool:
    """Whether a parsed JSON value is a number, an integer if asked; a bool is neither."""
    return not isinstance(value, bool) and isinstance(value, int if integer else (int, float))


def _config_number(raw: dict, key: str, integer: bool = False):
    value = raw[key]
    if not _is_json_number(value, integer):
        raise UsageError(f"config {key!r} must be {'an integer' if integer else 'a number'}")
    if integer:
        return value
    try:
        value = float(value)
    except OverflowError as exc:
        raise UsageError(f"config {key!r} is too large for a float") from exc
    if not math.isfinite(value):
        raise UsageError(f"config {key!r} must be finite")
    return value


def load_config(path: str | Path, seed_override=None, out_override=None) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    unknown = sorted(raw.keys() - _CONFIG_KEYS)
    if unknown:
        raise UsageError(f"config has unknown key {unknown[0]!r}")
    domain = raw.get("domain")
    if domain not in ("synthetic", "bnb", "clustering"):
        raise UsageError("config 'domain' must be synthetic, bnb, or clustering")
    family = None
    instances_dir = None
    if domain == "synthetic":
        spec = raw.get("family", {})
        if not isinstance(spec, dict):
            raise UsageError("config 'family' must be a JSON object")
        unknown = sorted(spec.keys() - _FAMILY_KEYS.keys())
        if unknown:
            raise UsageError(f"config 'family' has unknown key {unknown[0]!r}")
        kwargs = {dest: spec[key] for key, dest in _FAMILY_KEYS.items() if key in spec}
        try:
            family = SyntheticFamily(**kwargs)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad family spec: {exc}") from exc
    else:
        if "instances_dir" not in raw:
            raise UsageError(f"domain {domain} needs 'instances_dir'")
        if not isinstance(raw["instances_dir"], str):
            raise UsageError("config 'instances_dir' must be a path string")
        instances_dir = Path(raw["instances_dir"])
        if not instances_dir.is_dir():
            raise UsageError(f"instances_dir {instances_dir} is not a directory")
    # The learner's other knobs default in ``LearnerConfig``.
    knobs = {"epsilon": 15.0, "delta": 0.25, "zeta": 0.05}
    for knob in fields(LearnerConfig):
        if knob.name in raw:
            knobs[knob.name] = _config_number(raw, knob.name, integer=knob.type == "int")
    if seed_override is not None:
        knobs["seed"] = int(seed_override)
    try:
        learner = LearnerConfig(**knobs)
        out = Path(out_override if out_override is not None else raw.get("out", "frugal_out"))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad config value: {exc}") from exc
    return RunConfig(domain, learner, out, family, instances_dir)


def build_problem(cfg: RunConfig) -> ConfigProblem:
    if cfg.domain == "synthetic":
        return SyntheticProblem(cfg.family)
    files = sorted(p for p in cfg.instances_dir.iterdir() if p.is_file())
    if not files:
        raise UsageError(f"no instance files in {cfg.instances_dir}")
    if cfg.domain == "bnb":
        load, problem = load_milp, BnbProblem
    else:
        load, problem = load_instance, ClusteringProblem
    pool = []
    for path in files:
        try:
            pool.append(load(path))
        except ValueError as exc:
            raise UsageError(f"bad instance file {path.name}: {exc}") from exc
    return problem(pool)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _subset_payload(cfg: RunConfig, result) -> dict:
    return {
        "domain": cfg.domain,
        "epsilon": cfg.learner.epsilon,
        "delta": cfg.learner.delta,
        "zeta": cfg.learner.zeta,
        "seed": cfg.learner.seed,
        "terminal_round": result.terminal_round,
        "threshold": result.threshold,
        "parameters": [
            {
                "rho": float(point.scalar),
                "intervals": [[float(region.cell.lo), float(region.cell.hi)]],
                "round": region.round_added,
                "tau_cell": region.tau_cell,
                "estimate": region.capped_estimate,
                "z": region.z,
            }
            for point, region in zip(result.parameters, result.regions)
        ],
    }


def cmd_learn(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    problem = build_problem(cfg)
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    result = learn_subset(problem, cfg.learner)
    elapsed = time.perf_counter() - started
    _write_csv(
        out / "trace.csv",
        ["t", "cap", "samples", "cells", "admitted", "T"],
        [
            [r.round_index, r.cap, r.samples, r.cells, r.admitted, r.threshold]
            for r in result.trace
        ],
    )
    _write_json(out / "subset.json", _subset_payload(cfg, result))
    _write_json(
        out / "report.json",
        {
            "config": {"domain": cfg.domain, **asdict(cfg.learner)},
            "counters": {
                "instance_draws": result.instance_draws,
                "loss_evaluations": result.loss_evaluations,
            },
            "terminal_round": result.terminal_round,
            "threshold": result.threshold,
            "trace_rows": len(result.trace),
            "subset_size": len(result.parameters),
        },
    )
    print(
        f"learned {len(result.parameters)} parameters in {result.terminal_round} rounds "
        f"(threshold {result.threshold}, {result.instance_draws} draws, {elapsed:.2f}s) -> {out}"
    )
    return 0


def cmd_partition(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    if args.tau is None or args.tau < 1:
        raise UsageError("partition needs --tau >= 1")
    problem = build_problem(cfg)
    if cfg.domain == "synthetic":
        if args.samples < 1:
            raise UsageError("--samples must be positive")
        rng = np.random.default_rng(cfg.learner.seed)
        instances = problem.sample_many(rng, args.samples)
    else:
        instances = problem.all_instances()
    cells = problem.get_partition(instances, args.tau)
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for index, cell in enumerate(cells):
        losses = ";".join(str(int(v)) for v in cell.capped_losses)
        rows.append([index, float(cell.cell.lo), float(cell.cell.hi), cell.z, losses])
    _write_csv(out / "cells.csv", ["cell", "lo", "hi", "z", "capped_losses"], rows)
    print(f"{len(cells)} cells at cap {args.tau} over {len(instances)} instances -> {out / 'cells.csv'}")
    return 0


def cmd_select(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    subset_path = Path(args.subset) if args.subset else cfg.out / "subset.json"
    try:
        subset = json.loads(subset_path.read_text())
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read subset {subset_path}: {exc}") from exc
    if not isinstance(subset, dict):
        raise UsageError(f"subset {subset_path} must be a JSON object")
    if subset.get("domain", cfg.domain) != cfg.domain:
        raise UsageError(
            f"subset {subset_path} was learned on domain {subset['domain']!r}, "
            f"the config is for {cfg.domain!r}"
        )
    entries = subset.get("parameters", [])
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and _is_json_number(e.get("rho")) for e in entries
    ):
        raise UsageError(f"subset {subset_path}: every parameter needs a numeric 'rho'")
    for index, entry in enumerate(entries):
        rho = entry["rho"]
        where = f"subset {subset_path}: parameter {index}"
        if isinstance(rho, float) and not math.isfinite(rho):
            raise UsageError(f"{where}: non-finite rho {rho}")
        if not 0 <= rho <= 1:
            raise UsageError(f"{where}: rho must lie in [0, 1], got {rho}")
    terminal = subset.get("terminal_round", 1)
    if not (_is_json_number(terminal, integer=True) and terminal >= 1):
        raise UsageError(f"subset {subset_path}: 'terminal_round' must be a positive integer")
    if not entries:
        log.error("subset %s is empty", subset_path)
        print("error: empty subset", file=sys.stderr)
        return 2
    if args.samples < 1:
        raise UsageError("--samples must be positive")
    problem = build_problem(cfg)
    candidates = [ParamPoint(entry["rho"]) for entry in entries]
    eps_prime = math.sqrt(1.0 + cfg.learner.epsilon) - 1.0
    delta_prime = cfg.learner.delta / 2.0
    ceiling = args.ceiling
    if ceiling is None:
        ceiling = 2 ** (terminal + 4) if "terminal_round" in subset else DEFAULT_CAP_CEILING
    # selected.json holds the ceiling as text; a limit of 0 (or none, before
    # Python had it) writes ints of any length.
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if digits and ceiling >= 10**digits:
        raise UsageError(f"subset {subset_path}: 'terminal_round' {terminal} gives a cap ceiling "
                         f"over Python's {digits}-digit limit for int text")
    rng = np.random.default_rng(cfg.learner.seed)
    estimates = estimate_capped_tail_means(
        problem, candidates, delta_prime, args.samples, rng, ceiling
    )
    best = min(range(len(candidates)), key=lambda i: (estimates[i], i))
    chosen = candidates[best]
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "selected.json",
        {
            "rho": float(chosen.scalar),
            "estimate": estimates[best],
            "candidate_index": best,
            "eps_prime": eps_prime,
            "delta_prime": delta_prime,
            "n_samples": args.samples,
            "cap_ceiling": ceiling,
        },
    )
    print(f"selected rho={float(chosen.scalar)} estimate={estimates[best]}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    if args.rho is None or not 0.0 <= args.rho <= 1.0:
        raise UsageError("evaluate needs --rho in [0, 1]")
    if args.samples < 1:
        raise UsageError("--samples must be positive")
    problem = build_problem(cfg)
    rng = np.random.default_rng(cfg.learner.seed)
    ceiling = args.ceiling if args.ceiling is not None else DEFAULT_CAP_CEILING
    losses, counts = sample_losses(problem, args.rho, args.samples, rng, ceiling)
    values, inverse = np.unique(losses, return_inverse=True)
    fractions = np.cumsum(np.bincount(inverse, weights=counts)) / args.samples
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "cdf.csv",
        ["tau", "fraction_le"],
        [[int(v), float(f)] for v, f in zip(values, fractions)],
    )
    print(f"{args.samples} losses at rho={args.rho} -> {out / 'cdf.csv'}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="frugal", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON run config")
    common.add_argument("--seed", type=int, default=None, help="override config seed")
    common.add_argument("--out", default=None, help="override output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    p_learn = sub.add_parser("learn", parents=[common], help="learn a parameter subset")
    p_learn.set_defaults(func=cmd_learn)
    p_part = sub.add_parser("partition", parents=[common], help="emit cells at one cap")
    p_part.add_argument("--tau", type=int, default=None, help="loss cap")
    p_part.add_argument("--samples", type=int, default=32, help="instances to draw (synthetic)")
    p_part.set_defaults(func=cmd_partition)
    p_sel = sub.add_parser("select", parents=[common], help="pick one parameter from a subset")
    p_sel.add_argument("--subset", default=None, help="subset.json path (default <out>/subset.json)")
    p_sel.add_argument("--samples", type=int, default=2000, help="instances per candidate")
    p_sel.add_argument("--ceiling", type=int, default=None, help="cap ceiling")
    p_sel.set_defaults(func=cmd_select)
    p_eval = sub.add_parser("evaluate", parents=[common], help="empirical loss CDF at one rho")
    p_eval.add_argument("--rho", type=float, default=None, help="parameter to evaluate")
    p_eval.add_argument("--samples", type=int, default=2000, help="number of instances")
    p_eval.add_argument("--ceiling", type=int, default=None, help="cap ceiling")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def _setup_logging() -> None:
    level = os.environ.get("FRUGAL_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), stream=sys.stderr)


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LearnerError, DegenerateCellError, LpSolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
