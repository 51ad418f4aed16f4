r"""Canonical text dump of the exact partitions of a seeded benchmark pool.

Builds the pool of ``perfbench``'s ``partition-bnb`` (600 programs of 5
variables and 4 rows, cap 63) or ``partition-clustering`` (300 metrics of 12
points with k = 2, cap 11) workload for one seed, the way that workload
writes and loads it, or the ``clustering-k3`` pool (100 metrics of 10 points
with k = 3, cap 9, whose runs need pruning tables), and partitions each item
alone, cold.  Every cell is
printed as ``lo hi z losses``, and a typed error as its class and message,
so two checkouts' outputs can be compared with ``cmp``:

    PYTHONPATH=src python tools/partition_dump.py bnb 1 > after.txt
    PYTHONPATH=../parent/src python tools/partition_dump.py bnb 1 > before.txt
    cmp before.txt after.txt

``--count`` limits the dump to the pool's first items.  Only ``frugal``,
numpy and the standard library are used.

``tools/partition_dump.sha256`` holds the digests of the ``bnb`` dumps of
seeds 1, 2 and 3 and the ``clustering`` and ``clustering-k3`` dumps of seed 1, and CI checks them with
``sha256sum -c`` (numpy pinned, since the pools are drawn with its
generator).  After a change that alters cells or errors on purpose,
regenerate it from the repository root:

    PYTHONPATH=src python tools/partition_dump.py bnb 1 > partition_dump_bnb_1.txt
    PYTHONPATH=src python tools/partition_dump.py bnb 2 > partition_dump_bnb_2.txt
    PYTHONPATH=src python tools/partition_dump.py bnb 3 > partition_dump_bnb_3.txt
    PYTHONPATH=src python tools/partition_dump.py clustering 1 > partition_dump_clustering_1.txt
    PYTHONPATH=src python tools/partition_dump.py clustering-k3 1 > partition_dump_clustering-k3_1.txt
    sha256sum partition_dump_bnb_1.txt partition_dump_bnb_2.txt partition_dump_bnb_3.txt \
        partition_dump_clustering_1.txt partition_dump_clustering-k3_1.txt > tools/partition_dump.sha256
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from frugal import bnb, clustering
from frugal.bnb import LpSolveError
from frugal.sweep import DegenerateCellError

POOLS = {
    # pool: (pool size, cap, random item, format, parse, problem class)
    "bnb": (600, 63, lambda rng: bnb.random_milp(rng, 5, 4), bnb.format_milp, bnb.parse_milp,
            bnb.BnbProblem),
    "clustering": (300, 11, lambda rng: clustering.random_metric_instance(rng, 12, 2),
                   clustering.format_instance, clustering.parse_instance,
                   clustering.ClusteringProblem),
    "clustering-k3": (100, 9, lambda rng: clustering.random_metric_instance(rng, 10, 3),
                      clustering.format_instance, clustering.parse_instance,
                      clustering.ClusteringProblem),
}


def dump(pool: str, seed: int, count: int | None, out) -> None:
    size, tau, random_item, format_item, parse_item, problem_class = POOLS[pool]
    rng = np.random.default_rng(seed)
    # Items are drawn in pool order, so the first ones need none after them.
    for index in range(size if count is None else min(count, size)):
        text = format_item(random_item(rng))
        problem = problem_class([parse_item(text, name=f"instance_{index:05d}.txt")])
        out.write(f"item {index}\n")
        try:
            cells = problem.get_partition(problem.all_instances(), tau)
        except (DegenerateCellError, LpSolveError) as exc:
            out.write(f"error {type(exc).__name__}: {exc}\n")
            continue
        for cell in cells:
            losses = " ".join(map(str, cell.losses))
            out.write(f"{cell.cell.lo} {cell.cell.hi} {cell.z!r} {losses}\n")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pool", choices=sorted(POOLS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--count", type=int, default=None, help="dump only the first items")
    args = parser.parse_args(argv)
    dump(args.pool, args.seed, args.count, sys.stdout)


if __name__ == "__main__":
    main()
