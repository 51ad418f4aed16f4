"""Checks on the benchmark itself: hooks bind, counters repeat, oracles bite.

Run from the repository root with ``python3 -m pytest perfbench -q``; they
take about a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import run

run._import_frugal()

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    parent = run.ROOT / ".perfbench_work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        parent.rmdir()
    except OSError:
        pass  # still in use


def _set_up(name: str, seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed)
    workload.write_inputs(workdir)
    workload.load(workdir)
    return workload


def test_every_hook_binds():
    assert tracing.Tracer().missing == []


def test_metric_lists_match_benchmark_json():
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert declared == tracing.layer_metric_names() + list(run.TRACE_RUN_METRICS)
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert declared == list(run.END_TO_END)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert set(run.TRACE_OPS) == set(WORKLOADS)


def test_uninstall_restores_originals():
    from frugal import bnb, sweep

    originals = (bnb.lp_relax, sweep.DecisionTracker.__dict__["argmax"])
    tracer = tracing.Tracer()
    tracer.install()
    assert bnb.lp_relax is not originals[0]
    tracer.uninstall()
    assert (bnb.lp_relax, sweep.DecisionTracker.__dict__["argmax"]) == originals


@pytest.mark.parametrize(
    "name, ops",
    [("learn-synthetic", 2), ("learn-bnb", 1), ("partition-bnb", 6), ("partition-clustering", 6)],
)
def test_counters_repeat_for_one_seed(name, ops, workdir):
    units = dict(tracing.layer_metric_names())
    counts = []
    for attempt in range(2):
        outcomes, metrics = run.trace(WORKLOADS[name](3), ops, workdir / str(attempt), None)
        assert outcomes.mismatches == 0 and outcomes.unexpected == 0
        counts.append({key: metrics[key] for key, unit in units.items() if unit != "s"})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_failed_ops_repeat_for_one_seed(workdir):
    # Seed 1's pool fails at index 2, inside the 6 ops of a 0.1 s run.
    runs = [run.measure(WORKLOADS["partition-bnb"](1), 0.1, workdir / str(attempt), 0.0)[0]
            for attempt in range(2)]
    assert [r.attempted for r in runs] == [6, 6]
    assert runs[0].failures == runs[1].failures
    assert [f["instance"] for f in runs[0].failures] == [2]


def test_partition_oracles_reject_a_wrong_loss(workdir):
    for name in ("partition-bnb", "partition-clustering"):
        workload = _set_up(name, 5, workdir / name)
        cells, instance = workload.run(0)
        assert workload.check(0, (cells, instance)) is None
        cells[-1].capped_losses = np.array([cells[-1].capped_losses[0] + 1])
        assert workload.check(0, (cells, instance)) is not None


def test_partition_oracles_reject_a_gap(workdir):
    workload = _set_up("partition-bnb", 5, workdir)
    cells, milp = workload.run(0)
    assert workload.check(0, (cells[1:], milp)) is not None


def test_learn_oracles_reject_a_wrong_result(workdir):
    workload = _set_up("learn-synthetic", 5, workdir / "synthetic")
    result = workload.run(0)
    assert workload.check(0, result) is None
    result.terminal_round += 1
    assert workload.check(0, result) is not None
    workload = _set_up("learn-bnb", 5, workdir / "bnb")
    result, chosen, pool = workload.run(0)
    assert workload.check(0, (result, chosen, pool)) is None
    result.regions[0].z = 0.0
    assert workload.check(0, (result, chosen, pool)) is not None


def test_bare_checkout_exits_nonzero_without_result(workdir):
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(run.ROOT / "perfbench", workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "partition-bnb",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
