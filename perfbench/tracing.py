"""Per-layer tracing from outside the program.

The traced run replaces selected public functions of ``frugal`` with
wrappers that record one span per call (layer, start, end, parent span) and
a few work counters.  Each wrapper is bound at the name its caller resolves:
a module global for module-level functions (``frugal.bnb.refine_cells`` is
what ``bnb_partition`` calls, not ``frugal.sweep.refine_cells``) and the
class attribute for methods.  A target that no longer exists is reported as
missing and skipped, so a later refactor that folds or renames a function
keeps the benchmark running.

Spans are kept in flat arrays while the run lasts and written out at its
end.  A layer's self time is its span time minus the time covered by its
child spans; the run is single-threaded, so child spans never overlap.
"""
from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np


def _count_sample(tracer: "Tracer", args, result) -> None:
    tracer.counts["learner.draws"] += len(result)
    uids = getattr(result, "uids", None)
    if uids is not None:
        ordered = np.sort(uids)
        distinct = int(np.count_nonzero(np.diff(ordered))) + 1 if ordered.size else 0
    else:
        distinct = len({handle.uid for handle in result})
    tracer.counts["learner.distinct_instances"] += distinct


def _count_sweep(tracer: "Tracer", args, result) -> None:
    tracer.counts["sweep.executions"] += len(result)


def _count_refine(tracer: "Tracer", args, result) -> None:
    instances = len(args[0])
    tracer.counts["sweep.refined_instances"] += instances
    tracer.counts["sweep.refine_cells.slots"] += len(result) * instances


def _count_cells(tracer: "Tracer", args, result) -> None:
    tracer.counts["sweep.cells"] += len(result)


def _count_candidates(tracer: "Tracer", args, result) -> None:
    tracer.counts["sweep.tracker.candidates"] += len(args[1])


def _count_nodes(tracer: "Tracer", args, result) -> None:
    tracer.counts["bnb.nodes"] += result.budget_used


def _count_merges(tracer: "Tracer", args, result) -> None:
    tracer.counts["clustering.merges"] += len(result.merges)


def _lp_cache_size(args) -> int:
    # The exact LP layer memoizes per program; a call that grows the cache
    # solved an LP, any other call was a hit.
    return len(getattr(args[0], "_lp_cache", ()))


def _count_lp(tracer: "Tracer", args, result, before: int, seconds: float) -> None:
    if _lp_cache_size(args) > before:
        tracer.counts["bnb.lp_relax.misses"] += 1
        tracer.counts["bnb.lp_relax.miss_s"] += seconds


@dataclass(frozen=True)
class Hook:
    """One wrapper: the layer it reports under and the name it replaces."""

    layer: str
    module: str
    attribute: str  # "function" or "Class.method"
    count: Callable | None = None


HOOKS: tuple[Hook, ...] = (
    Hook("learner.learn_subset", "frugal.learner", "learn_subset"),
    Hook("learner.grow_sample", "frugal.learner", "grow_sample", _count_sample),
    Hook("learner.process_round", "frugal.learner", "process_round"),
    Hook("learner.select_finite", "frugal.learner", "select_finite"),
    Hook("learner.measure_loss", "frugal.learner", "measure_loss"),
    Hook("stats.gamma_bound", "frugal.learner", "gamma_bound"),
    Hook("core.run_with_cap", "frugal.synthetic", "SyntheticProblem.run_with_cap"),
    Hook("core.run_with_cap", "frugal.bnb", "BnbProblem.run_with_cap"),
    Hook("core.run_with_cap", "frugal.clustering", "ClusteringProblem.run_with_cap"),
    Hook("synthetic.sample_many", "frugal.synthetic", "SyntheticProblem.sample_many"),
    Hook("synthetic.merge_samples", "frugal.synthetic", "SyntheticProblem.merge_samples"),
    Hook("synthetic.partition", "frugal.synthetic", "synthetic_partition"),
    Hook("sweep.sweep_unit_interval", "frugal.bnb", "sweep_unit_interval", _count_sweep),
    Hook("sweep.sweep_unit_interval", "frugal.clustering", "sweep_unit_interval", _count_sweep),
    Hook("sweep.refine_cells", "frugal.bnb", "refine_cells", _count_refine),
    Hook("sweep.refine_cells", "frugal.clustering", "refine_cells", _count_refine),
    Hook("sweep.cells_from_refinement", "frugal.bnb", "cells_from_refinement", _count_cells),
    Hook("sweep.cells_from_refinement", "frugal.clustering", "cells_from_refinement", _count_cells),
    Hook("sweep.tracker", "frugal.sweep", "DecisionTracker.argmax", _count_candidates),
    Hook("sweep.tracker", "frugal.sweep", "DecisionTracker.argmin", _count_candidates),
    Hook("bnb.partition", "frugal.bnb", "bnb_partition"),
    Hook("bnb.lp_relax", "frugal.bnb", "lp_relax", _count_lp),
    Hook("bnb.scores", "frugal.bnb", "scores"),
    Hook("bnb.bnb_run", "frugal.bnb", "bnb_run", _count_nodes),
    Hook("bnb.f_bound", "frugal.bnb", "BnbProblem.f_bound"),
    Hook("clustering.partition", "frugal.clustering", "clustering_partition"),
    Hook("clustering.capped_linkage_run", "frugal.clustering", "capped_linkage_run", _count_merges),
    Hook("clustering.best_pruning", "frugal.clustering", "best_pruning"),
    Hook("cli.load_instances", "frugal.cli", "load_milp"),
    Hook("cli.load_instances", "frugal.cli", "load_instance"),
)

# Span layer of one benchmark op; its self time is the benchmark's own glue
# plus whatever the op spends outside the hooked functions.
OP_LAYER = "op"
# Span layer of the wrappers' own counting, so that it is not charged to the
# layer that called the hooked function.
COUNT_LAYER = "trace.count"
LAYERS: tuple[str, ...] = (OP_LAYER, COUNT_LAYER) + tuple(
    dict.fromkeys(h.layer for h in HOOKS)
)
HOOKED_LAYERS = LAYERS[2:]
# The tracker's call count is the number of decisions it selected.
_CALLS_NAME = {"sweep.tracker": "sweep.tracker.selects"}


def calls_metric(layer: str) -> str:
    """Name of the metric that counts a layer's calls."""
    return _CALLS_NAME.get(layer, f"{layer}.calls")

COUNTERS: tuple[tuple[str, str], ...] = (
    ("learner.draws", "count"),
    ("learner.distinct_instances", "count"),
    ("learner.runs_per_loss", "ratio"),
    ("sweep.executions", "count"),
    ("sweep.cells", "count"),
    ("sweep.refine_cells.slots", "count"),
    ("sweep.distinct_ratio", "ratio"),
    ("sweep.tracker.candidates", "count"),
    ("bnb.lp_relax.misses", "count"),
    ("bnb.lp_relax.hits", "count"),
    ("bnb.lp_relax.hit_ratio", "ratio"),
    ("bnb.lp_relax.miss_s", "s"),
    ("bnb.nodes", "count"),
    ("clustering.merges", "count"),
)


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names: list[tuple[str, str]] = []
    for layer in HOOKED_LAYERS:
        names.append((calls_metric(layer), "count"))
        names.append((f"{layer}.s", "s"))
        names.append((f"{layer}.self_s", "s"))
    names.extend(COUNTERS)
    return names


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.missing: list[str] = []
        self._originals: list[tuple[Any, str, Any]] = []
        self._wrappers: list[tuple[Any, str, Any]] = []
        for hook in HOOKS:
            self._bind(hook)

    # -- recording ---------------------------------------------------------
    def open(self, layer_id: int) -> int:
        index = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(index)
        return index

    def close(self, index: int) -> float:
        now = perf_counter()
        self.end[index] = now
        self.stack.pop()
        return now - self.start[index]

    @contextmanager
    def op_span(self):
        """Span of one benchmark op, the root of the op's layer spans."""
        index = self.open(self.layer_ids[OP_LAYER])
        try:
            yield
        finally:
            self.close(index)

    # -- hooks -------------------------------------------------------------
    def _bind(self, hook: Hook) -> None:
        target = f"{hook.module}.{hook.attribute}"
        try:
            owner: Any = importlib.import_module(hook.module)
        except ImportError:
            self.missing.append(target)
            return
        *path, name = hook.attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append(target)
                return
        # A class attribute is read from the class dict so that restoring it
        # puts back exactly what was there.
        original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if not callable(original):
            self.missing.append(target)
            return
        self._originals.append((owner, name, original))
        self._wrappers.append((owner, name, self._wrap(hook, original)))

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        tracer = self
        layer_id = self.layer_ids[hook.layer]
        count_id = self.layer_ids[COUNT_LAYER]
        count = hook.count
        counts = self.counts
        calls_key = calls_metric(hook.layer)

        if count is _count_lp:
            def lp_wrapper(*args, **kwargs):
                before = _lp_cache_size(args)
                index = tracer.open(layer_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    seconds = tracer.close(index)
                counts[calls_key] += 1
                _count_lp(tracer, args, result, before, seconds)
                return result

            return lp_wrapper

        def wrapper(*args, **kwargs):
            index = tracer.open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            counts[calls_key] += 1
            if count is not None:
                index = tracer.open(count_id)
                count(tracer, args, result)
                tracer.close(index)
            return result

        return wrapper

    def install(self) -> None:
        for owner, name, wrapper in self._wrappers:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in self._originals:
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------
    def _arrays(self):
        layer = np.frombuffer(self.layer, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        return layer, parent, duration

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """Per layer: (total span seconds, self seconds)."""
        layer, parent, duration = self._arrays()
        if duration.size == 0:
            return {name: (0.0, 0.0) for name in LAYERS}
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        own = duration - covered
        total = np.bincount(layer, weights=duration, minlength=len(LAYERS))
        self_total = np.bincount(layer, weights=own, minlength=len(LAYERS))
        return {
            name: (float(total[i]), float(self_total[i])) for i, name in enumerate(LAYERS)
        }

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of ``layer_metric_names`` by name."""
        times = self.layer_times()
        counts = self.counts
        out: dict[str, float] = {}
        for layer in HOOKED_LAYERS:
            out[calls_metric(layer)] = counts.get(calls_metric(layer), 0)
            out[f"{layer}.s"], out[f"{layer}.self_s"] = times[layer]
        for name, _ in COUNTERS:
            out[name] = counts.get(name, 0)
        lp_calls = counts.get("bnb.lp_relax.calls", 0)
        out["bnb.lp_relax.hits"] = lp_calls - counts.get("bnb.lp_relax.misses", 0)
        out["bnb.lp_relax.hit_ratio"] = _ratio(out["bnb.lp_relax.hits"], lp_calls)
        out["learner.runs_per_loss"] = _ratio(
            counts.get("core.run_with_cap.calls", 0), counts.get("learner.measure_loss.calls", 0)
        )
        out["sweep.distinct_ratio"] = _ratio(
            counts.get("sweep.sweep_unit_interval.calls", 0),
            counts.get("sweep.refined_instances", 0),
        )
        return out

    def write(self, path: Path) -> None:
        """Write every span (layer index, parent index, start, end) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            layers=np.array(LAYERS),
            layer=np.frombuffer(self.layer, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
