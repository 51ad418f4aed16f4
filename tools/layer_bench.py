r"""Replay of the exact-simplex layer of a seeded ``partition-bnb`` pool.

Partitions the first ``--count`` programs of ``perfbench``'s
``partition-bnb`` pool for one seed (5 variables, 4 rows, cap 63) alone and
cold through ``tools/partition_dump.py``'s ``bnb`` dump, while recording every input of ``bnb._solve_box_lp`` and counting the calls
of ``bnb._exchange``.  It prints the number of solves, the number of
exchanges and a sha256 of ``repr`` of the list of every solve's result
``(z, d, numerators, unique)`` (None when infeasible).  Those three figures
are the layer's work and output, and a change that only makes the layer
cheaper leaves them as they are.

It then replays the recorded inputs in this process and prints the median
and quartiles of the microseconds each solve took, over every solve of
``ROUNDS`` rounds.  With ``--src DIR`` (a checkout's root, or its
``src``) the solver of that checkout is replayed on the same inputs, solve
by solve in alternation with this one, starting with the other side on
every other input and round; its exchanges and result digest are printed
too, from one extra untimed pass.  So two checkouts compare on one host at
one time:

    PYTHONPATH=src python tools/layer_bench.py 1 --count 100 --src ../parent

``--json`` prints only the counts as one JSON object and times nothing.
``tools/layer_bench.counts.json`` holds that object for seed 1's first 100
programs and for the whole seed-1 pool, counted before the solver started
at the slack basis, which changed none of them; a tier-1 test checks the
first entry (numpy pinned, since the pools are drawn with its generator).
After a change that alters the layer's work or results on purpose,
regenerate it from the repository root with ``--json``.
Only ``frugal``, numpy and the standard library are used.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import io
import json
import statistics
import sys
import time
from pathlib import Path

from frugal import bnb

_SPEC = importlib.util.spec_from_file_location("partition_dump", Path(__file__).with_name("partition_dump.py"))
partition_dump = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(partition_dump)

ROUNDS = 5


def record(seed: int, count: int) -> tuple[list[tuple], list, int]:
    """``(inputs, results, exchanges)`` of every solve of the first ``count``
    programs of the seed's pool, each partitioned alone and cold."""
    inputs, results, exchanges = [], [], 0
    solve, exchange = bnb._solve_box_lp, bnb._exchange

    def recorded(objective, rows, rhs):
        inputs.append((tuple(objective), tuple(map(tuple, rows)), tuple(rhs)))
        result = solve(objective, rows, rhs)
        # lp_relax inserts the fixed values into the returned numerators.
        results.append(None if result is None else (*result[:2], [*result[2]], result[3]))
        return result

    def counted(*args):
        nonlocal exchanges
        exchanges += 1
        return exchange(*args)

    bnb._solve_box_lp, bnb._exchange = recorded, counted
    try:
        partition_dump.dump("bnb", seed, count, io.StringIO())
    finally:
        bnb._solve_box_lp, bnb._exchange = solve, exchange
    return inputs, results, exchanges


def digest(results: list) -> str:
    return hashlib.sha256(repr(results).encode()).hexdigest()


def load_bnb(src: Path):
    """The ``bnb`` module of the checkout at ``src``, imported as its own package."""
    package = src / "frugal" if (src / "frugal").is_dir() else src / "src" / "frugal"
    spec = importlib.util.spec_from_file_location(
        "frugal_other", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return importlib.import_module("frugal_other.bnb")


def replay_counts(module, inputs: list[tuple]) -> tuple[int, str]:
    """``(exchanges, result digest)`` of ``module``'s solver on ``inputs``."""
    exchanges, exchange = 0, module._exchange

    def counted(*args):
        nonlocal exchanges
        exchanges += 1
        return exchange(*args)

    module._exchange = counted
    try:
        results = [module._solve_box_lp(*args) for args in inputs]
    finally:
        module._exchange = exchange
    return exchanges, digest(results)


def replay_times(solvers: list, inputs: list[tuple], rounds: int) -> list[list[float]]:
    """Microseconds of every solve, one list per solver, alternating solvers per solve."""
    times = [[] for _ in solvers]
    clock = time.perf_counter_ns
    gc.collect()
    gc.disable()
    try:
        for round_index in range(rounds):
            for index, args in enumerate(inputs):
                shift = (round_index + index) % len(solvers)
                for side in [*range(shift, len(solvers)), *range(shift)]:
                    solve = solvers[side]
                    start = clock()
                    solve(*args)
                    times[side].append((clock() - start) / 1000)
    finally:
        gc.enable()
    return times


def summary(micros: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(micros, n=4)
    return f"median {median:.1f} us per solve (quartiles {q1:.1f}-{q3:.1f})"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("--count", type=int, default=None, help="use only the pool's first programs")
    parser.add_argument("--src", type=Path, default=None, help="another checkout to time alongside")
    parser.add_argument("--json", action="store_true", help="print the counts as JSON and time nothing")
    args = parser.parse_args(argv)
    size = partition_dump.POOLS["bnb"][0]
    count = size if args.count is None else min(args.count, size)
    inputs, results, exchanges = record(args.seed, count)
    counts = {
        "seed": args.seed, "count": count, "solves": len(inputs),
        "exchanges": exchanges, "results_sha256": digest(results),
    }
    if args.json:
        print(json.dumps(counts))
        return
    print(f"{counts['solves']} solves, {exchanges} exchanges, results sha256 {counts['results_sha256']}")
    solvers, names = [bnb._solve_box_lp], ["this checkout"]
    if args.src is not None:
        other = load_bnb(args.src)
        other_exchanges, other_digest = replay_counts(other, inputs)
        same = "same" if (other_exchanges, other_digest) == (exchanges, counts["results_sha256"]) else "DIFFERENT"
        print(f"{args.src}: {other_exchanges} exchanges, results sha256 {other_digest} ({same})")
        solvers.append(other._solve_box_lp)
        names.append(str(args.src))
    for name, micros in zip(names, replay_times(solvers, inputs, ROUNDS)):
        print(f"{name}: {summary(micros)} over {ROUNDS} rounds")


if __name__ == "__main__":
    main()
