"""frugal benchmark: one seeded workload, timed end to end or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``perfbench/workloads.py``.  The benchmark imports
``frugal`` from ``src/`` next to this directory and never from an installed
copy; without it the run exits with a nonzero code and prints no result.

``--trace 0`` measures the end-to-end metrics with tracing off.  The seeded
inputs are generated and written in the CLI formats once, untimed: they are
the files a user of ``frugal`` already has, and the time to create hundreds
of small files on a shared disk swung threefold between runs.  Set-up (load
the files through ``frugal.cli`` and build the problem) runs
``SETUP_REPEATS`` times; ``setup_s`` is the time to import ``frugal`` (and
numpy with it) plus the median set-up.  The timed section is a closed loop of
one client: ops run back to back, a fixed number of them sized to take
``--seconds`` at the reference speed (the workload's ``ops_per_second``).
A fixed count, not a deadline, makes a run of one seed attempt the same ops
whatever the host's speed: the failed ops are then the same on every run,
and the median is taken over the same ops (a learn-bnb run holds five ops of
unequal cost, so a deadline that let in three or four moved the median).
Each op's output goes through the workload's oracle right after the op,
outside the timed section.

Every reported time is scaled to a reference speed (see ``Probe``).  On a
shared two-vCPU x86_64 host, speed changed by a quarter or more within
seconds, which moved unscaled medians by 15-25% between runs of one seed.
The unscaled op times are printed on the line before the result.

``--trace 1`` runs a fixed number of ops (``TRACE_OPS``) twice, first
untraced and then with the per-layer wrappers of ``perfbench/tracing.py``
installed, and reports every per-layer metric plus the tracing overhead
(traced minus untraced time of the same ops).  A fixed op count keeps the
work counters identical across runs of one seed.  Spans are written to
``.perfbench_out/`` at the repository root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An op fails when it
raises or its output fails the oracle; ``correct`` is false when an output
fails the oracle or an op raises anything other than the library's typed
errors (``DegenerateCellError``, ``LearnerError``).
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MAX_FAILURE_LINES = 50
# Speed probes: a fixed slice of work of the same kind as the workload's ops
# (exact rational arithmetic, or numpy passes over arrays too large for the
# cache), each taking about REFERENCE_S[kind] at the speed every reported
# time is scaled to.
REFERENCE_S = {"exact": 0.005, "numpy": 0.014}
REFERENCE_TERMS = 2500
REFERENCE_SIZE = 2_000_000
TRACE_OPS = {
    "learn-synthetic": 16,
    "learn-bnb": 2,
    "partition-bnb": 150,
    "partition-clustering": 100,
}
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
TRACE_RUN_METRICS = (
    ("ops_failed_frac", "ratio"),
    ("ops_failed.degenerate_cell", "count"),
    ("ops_failed.learner_error", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.hooks_missing", "count"),
)


def _import_frugal():
    if not (SRC / "frugal" / "__init__.py").is_file():
        raise SystemExit(f"error: no frugal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import frugal

    if Path(frugal.__file__).resolve().parent != (SRC / "frugal").resolve():
        raise SystemExit(f"error: imported frugal from {frugal.__file__}, not {SRC}")


def _exact_probe(rng=None) -> float:
    started = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - started


def _numpy_probe(rng) -> float:
    # Memory-bound like learn-synthetic's draws: on a loaded host a sort of a
    # cache-sized array tracked the learner's slowdown less well.
    import numpy as np

    started = time.perf_counter()
    values = rng.random(REFERENCE_SIZE)
    np.cumsum(values, out=values)
    values.sum()
    return time.perf_counter() - started


PROBES = {"exact": _exact_probe, "numpy": _numpy_probe}


class Probe:
    """Scales measured times to the reference speed.

    The host's speed swings by a quarter or more within seconds, and the
    swings hit the probe and the program alike when both do the same kind
    of work.  The probe runs between measured intervals and, for long ops,
    at the checkpoints the workload offers inside them; each interval is
    scaled by ``REFERENCE_S[kind]`` over the mean of the probe times taken
    at its ends and inside it, after the probes inside it are taken out.
    """

    def __init__(self, kind: str) -> None:
        import numpy as np  # after the timed import of frugal, which loads it

        self.measure = PROBES[kind]
        self.reference = REFERENCE_S[kind]
        self.rng = np.random.default_rng(0)
        self.readings = [self.measure(self.rng)]
        self.paused = 0.0

    def checkpoint(self) -> None:
        started = time.perf_counter()
        self.readings.append(self.measure(self.rng))
        self.paused += time.perf_counter() - started

    def scaled(self, seconds: float) -> tuple[float, float]:
        """The interval without its checkpoints: (unscaled, scaled) seconds."""
        now = self.measure(self.rng)
        self.readings.append(now)
        busy = seconds - self.paused
        scaled = busy * self.reference / statistics.fmean(self.readings)
        self.readings = [now]
        self.paused = 0.0
        return busy, scaled


class Outcomes:
    """Per-op accounting: scaled and raw latencies, failures, mismatches."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.raw_seconds: list[float] = []
        self.failures: list[dict] = []
        self.mismatches = 0
        self.unexpected = 0

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    def count(self, error: str) -> int:
        return sum(1 for f in self.failures if f["error"] == error)


def _run_ops(
    workload, indices, outcomes: Outcomes, tracer=None, checkpoints=False
) -> None:
    """Run ops in order, timing each and checking it outside the timing.

    ``checkpoints`` lets the speed probe run inside ops; the traced run
    leaves it off in both of its passes, so that the probe lands in no span
    and the two passes are scaled alike.
    """
    from frugal.learner import LearnerError
    from frugal.sweep import DegenerateCellError

    typed = {DegenerateCellError: "degenerate_cell", LearnerError: "learner_error"}
    probe = Probe(workload.probe)
    workload.checkpoint = probe.checkpoint if checkpoints else _no_checkpoint
    for index in indices:
        if tracer is not None:
            tracer.install()
        error = None
        started = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.op_span():
                    output = workload.run(index)
            else:
                output = workload.run(index)
        except Exception as exc:  # noqa: BLE001 - every op failure is counted
            error = exc
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
        elapsed, scaled = probe.scaled(elapsed)
        outcomes.raw_seconds.append(elapsed)
        outcomes.seconds.append(scaled)
        if error is not None:
            kind = next((name for cls, name in typed.items() if isinstance(error, cls)), None)
            if kind is None:
                outcomes.unexpected += 1
                kind = type(error).__name__
            outcomes.failures.append(
                {"op": index, "instance": workload.instance_index(index), "error": kind,
                 "type": type(error).__name__, "message": str(error)[:200]}
            )
        else:
            mismatch = workload.check(index, output)
            if mismatch is not None:
                outcomes.mismatches += 1
                outcomes.failures.append(
                    {"op": index, "instance": workload.instance_index(index),
                     "error": "oracle_mismatch", "type": "", "message": mismatch}
                )
            del output


def _no_checkpoint() -> None:
    pass


def _percentile_ms(seconds: list[float], q: int) -> float:
    if len(seconds) == 1:
        return seconds[0] * 1000.0
    return statistics.quantiles(seconds, n=100, method="inclusive")[q - 1] * 1000.0


def _setup(workload, workdir: Path, probe: Probe) -> float:
    started = time.perf_counter()
    workload.load(workdir)
    return probe.scaled(time.perf_counter() - started)[1]


def measure(workload, seconds: float, workdir: Path, import_s: float) -> tuple[Outcomes, dict]:
    workdir.mkdir(parents=True, exist_ok=True)
    workload.write_inputs(workdir)
    probe = Probe(workload.probe)
    setups = [_setup(workload, workdir, probe) for _ in range(SETUP_REPEATS)]
    gc.collect()
    outcomes = Outcomes()
    ops = max(1, round(seconds * workload.ops_per_second))
    _run_ops(workload, range(ops), outcomes, checkpoints=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "ops_per_s": outcomes.attempted / sum(outcomes.seconds),
        "op_p50_ms": statistics.median(outcomes.seconds) * 1000.0,
        "op_p90_ms": _percentile_ms(outcomes.seconds, 90),
        "peak_rss_mb": rss_mb,
    }
    return outcomes, metrics


def trace(workload, ops: int, workdir: Path, spans_path: Path | None) -> tuple[Outcomes, dict]:
    from tracing import Tracer

    tracer = Tracer()
    workdir.mkdir(parents=True, exist_ok=True)
    tracer.install()
    workload.write_inputs(workdir)
    _setup(workload, workdir, Probe(workload.probe))
    tracer.uninstall()
    gc.collect()
    untraced = Outcomes()
    _run_ops(workload, range(ops), untraced)
    gc.collect()
    outcomes = Outcomes()
    _run_ops(workload, range(ops), outcomes, tracer=tracer)
    metrics = tracer.metrics()
    overhead = sum(outcomes.seconds) - sum(untraced.seconds)
    metrics["ops_failed_frac"] = len(outcomes.failures) / outcomes.attempted
    metrics["ops_failed.degenerate_cell"] = outcomes.count("degenerate_cell")
    metrics["ops_failed.learner_error"] = outcomes.count("learner_error")
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / sum(untraced.seconds)
    metrics["trace.hooks_missing"] = len(tracer.missing)
    for target in tracer.missing:
        print(f"hook missing: {target}")
    if spans_path is not None:
        tracer.write(spans_path)
        print(f"spans: {len(tracer.start)} -> {spans_path.relative_to(ROOT)}")
    return outcomes, metrics


def _print_layers(metrics: dict) -> None:
    from tracing import COUNTERS, HOOKED_LAYERS, calls_metric

    print(f"{'layer':32} {'calls':>10} {'s':>10} {'self_s':>10}")
    for layer in HOOKED_LAYERS:
        calls = metrics[calls_metric(layer)]
        if calls:
            print(f"{layer:32} {calls:10.0f} {metrics[layer + '.s']:10.4f} "
                  f"{metrics[layer + '.self_s']:10.4f}")
    counters = {name: metrics[name] for name, unit in COUNTERS if unit == "count"}
    print("counters " + json.dumps(counters, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The import runs once, so it is scaled by exact-arithmetic probes taken
    # right before and after it (they need only the standard library).
    before = _exact_probe()
    started = time.perf_counter()
    _import_frugal()
    import_s = time.perf_counter() - started
    import_s *= REFERENCE_S["exact"] / statistics.fmean((before, _exact_probe()))
    from tracing import layer_metric_names
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload](args.seed)
    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workdir))
    try:
        if args.trace:
            spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.npz"
            outcomes, values = trace(workload, TRACE_OPS[args.workload], workdir, spans)
            units = layer_metric_names() + list(TRACE_RUN_METRICS)
            _print_layers(values)
        else:
            outcomes, values = measure(workload, args.seconds, workdir, import_s)
            units = list(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    for failure in outcomes.failures[:MAX_FAILURE_LINES]:
        print("failed op " + json.dumps(failure, sort_keys=True))
    if len(outcomes.failures) > MAX_FAILURE_LINES:
        print(f"... {len(outcomes.failures) - MAX_FAILURE_LINES} more failed ops")
    raw = outcomes.raw_seconds
    print(f"{args.workload} seed {args.seed}: {outcomes.attempted} ops, "
          f"{len(outcomes.failures)} failed ({outcomes.mismatches} oracle mismatches); "
          f"unscaled op p50 {statistics.median(raw) * 1000.0:.3f} ms, "
          f"p90 {_percentile_ms(raw, 90):.3f} ms, total {sum(raw):.3f} s")
    result = {
        "correct": outcomes.mismatches == 0 and outcomes.unexpected == 0,
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
