"""Canonical text dump of seeded learner runs on the benchmark's learn inputs.

Runs ``learn_subset`` on one of three fixed inputs, once per learner seed,
and prints what each run returns, so two checkouts' outputs can be compared
with ``cmp``:

- ``synthetic``: the default ``SyntheticFamily`` at epsilon 15, delta 0.25,
  zeta 0.05 (``perfbench``'s ``learn-synthetic`` settings), seeds 0-49;
- ``bnb``: the ``learn-bnb`` pool, eight programs
  ``random_milp(default_rng(3), 3, 2)`` written and parsed as that workload
  writes and loads them, at epsilon 15, delta 0.9, zeta 0.05, seeds 0-19.
  Each seed then reduces the learned set with ``select_finite`` as that
  workload does (delta' = delta / 2, 50 samples, ceiling 2^(T+4), selector
  generator seeded with the learner seed).
- ``clustering``: eight metrics ``random_metric_instance(default_rng(2), 8, 2)``
  written and parsed as instance files, at epsilon 15, delta 0.5, zeta
  0.05, seeds 0-19.  Its cell-count bound never saturates, so every round
  merges several samples.

For each seed the dump prints the trace rows, then each admitted region's
``lo hi round_added tau_cell repr(capped_estimate) repr(z)``, and for
``bnb`` the selector's estimates (``estimate_capped_tail_means`` with the
same arguments and generator seed) and its choice.  A typed error is
printed as its class and message.

    PYTHONPATH=src python tools/learn_dump.py synthetic > after.txt
    PYTHONPATH=../parent/src python tools/learn_dump.py synthetic > before.txt
    cmp before.txt after.txt

Only ``frugal``, numpy and the standard library are used.

``tools/learn_dump.sha256`` holds the digests of the three dumps, and CI checks
them with ``sha256sum -c`` (numpy pinned, since every draw comes from its
generator); ``tests/test_learn_dump.py`` checks them in-process under that numpy.  After a change that alters learned sets on purpose, regenerate
it from the repository root:

    PYTHONPATH=src python tools/learn_dump.py synthetic > learn_dump_synthetic.txt
    PYTHONPATH=src python tools/learn_dump.py bnb > learn_dump_bnb.txt
    PYTHONPATH=src python tools/learn_dump.py clustering > learn_dump_clustering.txt
    sha256sum learn_dump_synthetic.txt learn_dump_bnb.txt learn_dump_clustering.txt \
        > tools/learn_dump.sha256
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from frugal import bnb, clustering, learner
from frugal.bnb import LpSolveError
from frugal.learner import LearnerConfig, LearnerError
from frugal.sweep import DegenerateCellError
from frugal.synthetic import SyntheticFamily, SyntheticProblem

EPSILON, ZETA = 15.0, 0.05
# domain: (delta, seed count)
SETS = {"synthetic": (0.25, 50), "bnb": (0.9, 20), "clustering": (0.5, 20)}
BNB_POOL_SEED, BNB_PROGRAMS, BNB_VARIABLES, BNB_ROWS = 3, 8, 3, 2
CLUSTERING_POOL_SEED, CLUSTERING_METRICS, CLUSTERING_POINTS, CLUSTERING_K = 2, 8, 8, 2
SELECT_SAMPLES = 50


def bnb_texts() -> list[str]:
    rng = np.random.default_rng(BNB_POOL_SEED)
    return [
        bnb.format_milp(bnb.random_milp(rng, BNB_VARIABLES, BNB_ROWS))
        for _ in range(BNB_PROGRAMS)
    ]


def clustering_texts() -> list[str]:
    rng = np.random.default_rng(CLUSTERING_POOL_SEED)
    return [
        clustering.format_instance(
            clustering.random_metric_instance(rng, CLUSTERING_POINTS, CLUSTERING_K)
        )
        for _ in range(CLUSTERING_METRICS)
    ]


def pool_texts(domain: str) -> list[str]:
    """The instance files of ``domain``'s pool, empty for ``synthetic``."""
    return {"bnb": bnb_texts, "clustering": clustering_texts}.get(domain, list)()


def dump_seed(domain: str, seed: int, texts: list[str], out) -> None:
    delta = SETS[domain][0]
    cfg = LearnerConfig(epsilon=EPSILON, delta=delta, zeta=ZETA, seed=seed)
    if domain == "synthetic":
        problem = SyntheticProblem(SyntheticFamily())
    elif domain == "bnb":
        problem = bnb.BnbProblem(
            [bnb.parse_milp(text, name=f"instance_{i:05d}.txt") for i, text in enumerate(texts)]
        )
    else:
        problem = clustering.ClusteringProblem(
            [clustering.parse_instance(text, name=f"instance_{i:05d}.txt")
             for i, text in enumerate(texts)]
        )
    out.write(f"seed {seed}\n")
    try:
        result = learner.learn_subset(problem, cfg)
        for row in result.trace:
            out.write(f"trace {row.round_index} {row.cap} {row.samples} {row.cells} "
                      f"{row.admitted} {row.threshold!r}\n")
        for region in result.regions:
            out.write(f"region {region.cell.lo} {region.cell.hi} {region.round_added} "
                      f"{region.tau_cell} {region.capped_estimate!r} {region.z!r}\n")
        if domain == "bnb":
            select = dict(
                eps_prime=math.sqrt(1.0 + EPSILON) - 1.0,
                delta_prime=delta / 2.0,
                n_samples=SELECT_SAMPLES,
                cap_ceiling=2 ** (result.terminal_round + 4),
            )
            estimates = learner.estimate_capped_tail_means(
                problem, result.parameters, select["delta_prime"], SELECT_SAMPLES,
                np.random.default_rng(seed), select["cap_ceiling"],
            )
            out.write("estimates " + " ".join(map(repr, estimates)) + "\n")
            chosen = learner.select_finite(
                problem, result.parameters, rng=np.random.default_rng(seed), **select
            )
            out.write(f"chosen {chosen.scalar}\n")
    except (LearnerError, DegenerateCellError, LpSolveError) as exc:
        out.write(f"error {type(exc).__name__}: {exc}\n")


def dump(domain: str, out) -> None:
    texts = pool_texts(domain)
    for seed in range(SETS[domain][1]):
        dump_seed(domain, seed, texts, out)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("domain", choices=sorted(SETS))
    args = parser.parse_args(argv)
    dump(args.domain, sys.stdout)


if __name__ == "__main__":
    main()
