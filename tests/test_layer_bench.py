"""The exact-simplex replay of ``tools/layer_bench.py``: its counts, never its timings."""
import importlib.util
import json

import numpy as np
import pytest

from frugal import bnb
from support import CI_NUMPY, TOOLS

_SPEC = importlib.util.spec_from_file_location("layer_bench", TOOLS / "layer_bench.py")
layer_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layer_bench)


@pytest.mark.skipif(
    np.__version__ != CI_NUMPY, reason=f"the counts are of pools drawn by numpy {CI_NUMPY}"
)
def test_first_hundred_programs_match_the_recorded_counts():
    # A change that only makes the simplex cheaper keeps every solve, every
    # exchange and every result of the seed-1 pool's first 100 programs.
    expected = json.loads((TOOLS / "layer_bench.counts.json").read_text())[0]
    assert (expected["seed"], expected["count"]) == (1, 100)
    inputs, results, exchanges = layer_bench.record(1, 100)
    assert (len(inputs), exchanges) == (expected["solves"], expected["exchanges"]) == (1551, 3984)
    assert layer_bench.digest(results) == expected["results_sha256"]


def test_replay_reproduces_the_recorded_run():
    originals = bnb._solve_box_lp, bnb._exchange
    inputs, results, exchanges = layer_bench.record(2, 3)
    assert (bnb._solve_box_lp, bnb._exchange) == originals
    assert len(inputs) == len(results) > 0
    assert layer_bench.replay_counts(bnb, inputs) == (exchanges, layer_bench.digest(results))
    times = layer_bench.replay_times([bnb._solve_box_lp] * 2, inputs, 2)
    assert [len(side) for side in times] == [2 * len(inputs)] * 2
