"""The canonical learner dump of ``tools/learn_dump.py``, on its first seeds and in full."""
import hashlib
import importlib.util
import io
from fractions import Fraction

import numpy as np
import pytest

from frugal import learner
from frugal.learner import RoundLimitError
from support import CI_NUMPY, TOOLS, dump_digests

_SPEC = importlib.util.spec_from_file_location("learn_dump", TOOLS / "learn_dump.py")
learn_dump = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(learn_dump)


def dumped(domain, seeds):
    """The dump of the first ``seeds`` seeds of ``domain``, as lines."""
    texts = learn_dump.pool_texts(domain)
    out = io.StringIO()
    for seed in range(seeds):
        learn_dump.dump_seed(domain, seed, texts, out)
    return out.getvalue().splitlines()


def seeds(lines):
    """``{seed: lines after its header}``."""
    grouped = {}
    for line in lines:
        if line.startswith("seed "):
            current = grouped.setdefault(int(line.split()[1]), [])
        else:
            current.append(line)
    return grouped


def check_runs_end_at_their_terminal_round(domain):
    grouped = seeds(dumped(domain, 2))
    assert sorted(grouped) == [0, 1]
    for lines in grouped.values():
        trace = [line.split() for line in lines if line.startswith("trace ")]
        assert [int(row[1]) for row in trace] == list(range(1, len(trace) + 1))
        assert trace[-1][3:6] == ["0", "0", "0"]
        regions = [line.split() for line in lines if line.startswith("region ")]
        assert len(regions) == sum(int(row[5]) for row in trace)
        assert not any(line.startswith(("estimates", "chosen")) for line in lines)


def test_synthetic_runs_end_at_their_terminal_round():
    check_runs_end_at_their_terminal_round("synthetic")


def test_clustering_runs_end_at_their_terminal_round():
    check_runs_end_at_their_terminal_round("clustering")


def test_bnb_choice_is_a_learned_representative():
    for lines in seeds(dumped("bnb", 2)).values():
        regions = [line.split() for line in lines if line.startswith("region ")]
        representatives = {(Fraction(lo) + Fraction(hi)) / 2 for _, lo, hi, *_ in regions}
        (estimates,) = [line.split()[1:] for line in lines if line.startswith("estimates ")]
        assert len(estimates) == len(regions)
        assert Fraction(lines[-1].removeprefix("chosen ")) in representatives


def test_typed_error_is_dumped_with_its_message(monkeypatch):
    def fail(problem, cfg):
        raise RoundLimitError(f"seed {cfg.seed} stopped")

    monkeypatch.setattr(learner, "learn_subset", fail)
    assert dumped("bnb", 1) == ["seed 0", "error RoundLimitError: seed 0 stopped"]


def test_clustering_pool_is_eight_parsed_metrics():
    texts = learn_dump.clustering_texts()
    assert len(texts) == 8 and len(set(texts)) == 8
    assert all(text.startswith("8 2 ") for text in texts)


def test_dump_is_deterministic():
    assert dumped("bnb", 2) == dumped("bnb", 2)


@pytest.mark.skipif(
    np.__version__ != CI_NUMPY, reason=f"the digests are of runs drawn by numpy {CI_NUMPY}"
)
@pytest.mark.parametrize("domain", sorted(learn_dump.SETS))
def test_dump_matches_its_digest(domain):
    # The whole dump against the digest CI checks with ``sha256sum -c``, so a
    # moved round size or learned set fails here too.
    out = io.StringIO()
    learn_dump.dump(domain, out)
    got = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert got == dump_digests("learn_dump.sha256")[f"learn_dump_{domain}.txt"]
