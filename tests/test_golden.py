"""CLI outputs compared byte for byte with the files under ``tests/golden``.

Each domain runs ``learn``, ``partition``, ``select`` and ``evaluate`` in
turn on the ``test_cli`` fixture configs, and every file the run leaves in
its output directory must equal the committed one.  After a declared output
change, rewrite the files with ``PYTHONPATH=src:tests python tests/test_golden.py``.
"""
import json
import sys
import tempfile
from pathlib import Path

import pytest

from frugal.cli import main
from support import write_bnb_config, write_clustering_config, write_config

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = {
    "synthetic": write_config,
    "bnb": write_bnb_config,
    "clustering": write_clustering_config,
}
COMMANDS = (
    ["learn"],
    ["partition", "--tau", "8"],
    ["select", "--samples", "200"],
    ["evaluate", "--rho", "0.4", "--samples", "200"],
)


def run_commands(domain: str, work: Path) -> dict[str, bytes]:
    """The output files of the four commands, by name."""
    config = CONFIGS[domain](work)
    for command in COMMANDS:
        assert main([*command, "--config", str(config)]) == 0
    out = Path(json.loads(config.read_text())["out"])
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("domain", sorted(CONFIGS))
def test_outputs_match_golden(domain, tmp_path):
    expected = {p.name: p.read_bytes() for p in sorted((GOLDEN / domain).iterdir())}
    assert run_commands(domain, tmp_path) == expected


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as work:
            target = GOLDEN / name
            target.mkdir(parents=True, exist_ok=True)
            for file_name, data in run_commands(name, Path(work)).items():
                (target / file_name).write_bytes(data)
