"""The canonical partition dump of ``tools/partition_dump.py``, on a few pool items."""
import hashlib
import importlib.util
import io
from fractions import Fraction

import numpy as np
import pytest

from support import CI_NUMPY, TOOLS, dump_digests

_SPEC = importlib.util.spec_from_file_location("partition_dump", TOOLS / "partition_dump.py")
partition_dump = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(partition_dump)


def dumped(domain, seed, count):
    out = io.StringIO()
    partition_dump.dump(domain, seed, count, out)
    return out.getvalue().splitlines()


def items(lines):
    """``{item index: lines after its header}``."""
    grouped = {}
    for line in lines:
        if line.startswith("item "):
            current = grouped.setdefault(int(line.split()[1]), [])
        else:
            current.append(line)
    return grouped


def test_cells_tile_the_unit_interval():
    for domain, count in (("bnb", 2), ("clustering", 2)):
        grouped = items(dumped(domain, 1, count))
        assert sorted(grouped) == list(range(count))
        for cells in grouped.values():
            ends = [tuple(map(Fraction, line.split()[:2])) for line in cells]
            assert ends[0][0] == 0 and ends[-1][1] == 1
            assert all(hi == lo for (_, hi), (lo, _) in zip(ends, ends[1:]))
            for line in cells:
                z, losses = float(line.split()[2]), line.split()[3:]
                assert 0.0 <= z <= 1.0 and len(losses) == 1 and losses[0].isdigit()


def test_typed_error_is_dumped_with_its_message():
    # Seed 1's third program is a known degenerate breakpoint cluster.
    (error,) = items(dumped("bnb", 1, 3))[2]
    assert error.startswith("error DegenerateCellError: degenerate breakpoint cluster")
    assert "instance 'instance_00002.txt' (pool uid 0), cap 63" in error


def test_dump_is_deterministic():
    assert dumped("clustering", 2, 3) == dumped("clustering", 2, 3)


@pytest.mark.skipif(
    np.__version__ != CI_NUMPY, reason=f"the digests are of pools drawn by numpy {CI_NUMPY}"
)
@pytest.mark.parametrize("pool", ["bnb", "clustering", "clustering-k3"])
def test_dump_matches_its_digest(pool):
    # A whole seed-1 dump against the digest CI checks with ``sha256sum -c``,
    # so any change of partition output fails here too.  The bnb pool guards
    # the exact LP layer.  The clustering k = 2 pool prices every cell
    # without pruning tables; the k = 3 pool also builds and combines them.
    out = io.StringIO()
    partition_dump.dump(pool, 1, None, out)
    got = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert got == dump_digests("partition_dump.sha256")[f"partition_dump_{pool}_1.txt"]
