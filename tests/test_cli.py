import json
from fractions import Fraction

import pytest

from frugal import bnb
from frugal.bnb import BnbProblem
from frugal.cli import main
from frugal.sweep import DegenerateCellError
from support import write_bnb_config, write_clustering_config, write_config


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture
def bnb_config(tmp_path):
    return write_bnb_config(tmp_path)


@pytest.fixture
def clustering_config(tmp_path):
    return write_clustering_config(tmp_path)


class TestLearnCommand:
    def test_synthetic_defaults(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["learn", "--config", str(config)]) == 0
        out = tmp_path / "out"
        rows = read_rows(out / "trace.csv")
        by_round = {row["t"]: row for row in rows}
        assert by_round["3"]["T"] == "8.0"
        assert rows[-1]["t"] == "8"
        subset = json.loads((out / "subset.json").read_text())
        assert subset["terminal_round"] == 8
        assert any(0.35 < p["rho"] < 0.45 for p in subset["parameters"])
        report = json.loads((out / "report.json").read_text())
        assert report["counters"]["instance_draws"] == sum(
            int(r["samples"]) for r in rows
        )
        assert report["trace_rows"] == 8

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["learn", "--config", str(config)]) == 0
        out = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["learn", "--config", str(config)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_seed_override_propagates(self, tmp_path):
        # The synthetic trace itself is seed-invariant (sample sizes solve a
        # deterministic inequality), so observe the seed through the report
        # echo and through coin-dependent evaluate output.
        config = write_config(tmp_path)
        assert main(["learn", "--config", str(config), "--seed", "8"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["seed"] == 8
        assert main(["evaluate", "--config", str(config), "--rho", "0.2",
                     "--samples", "301"]) == 0
        base = (tmp_path / "out" / "cdf.csv").read_bytes()
        assert main(["evaluate", "--config", str(config), "--rho", "0.2",
                     "--samples", "301", "--seed", "8"]) == 0
        assert (tmp_path / "out" / "cdf.csv").read_bytes() != base

    def test_bad_config_exits_one(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["learn", "--config", str(missing)]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"domain": "unknown"}))
        assert main(["learn", "--config", str(bad)]) == 1

    @pytest.mark.parametrize(
        "raw",
        [
            {"domain": "synthetic", "epsilon": [1]},
            {"domain": "synthetic", "max_rounds": None},
            {"domain": "synthetic", "family": "abc"},
            {"domain": "bnb", "instances_dir": 5},
            {"domain": "synthetic", "seed": 1.7},
            {"domain": "synthetic", "max_rounds": True},
            {"domain": "synthetic", "epsilon": True},
            {"domain": "synthetic", "max_samples_per_round": 2.5},
            {"domain": "synthetic", "delta": "0.5"},
            {"domain": "synthetic", "family": {"L_mid": 8.5}},
        ],
        ids=[
            "epsilon-list",
            "max-rounds-null",
            "family-string",
            "instances-dir-int",
            "seed-float",
            "max-rounds-bool",
            "epsilon-bool",
            "samples-float",
            "delta-string",
            "family-float-loss",
        ],
    )
    def test_wrong_json_type_exits_one(self, tmp_path, capsys, raw):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["learn", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_learner_failure_exits_two(self, tmp_path):
        config = write_config(tmp_path, max_samples_per_round=50)
        assert main(["learn", "--config", str(config)]) == 2


class TestPartitionCommand:
    def test_synthetic_three_rows(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["partition", "--config", str(config), "--tau", "8"]) == 0
        rows = read_rows(tmp_path / "out" / "cells.csv")
        assert len(rows) == 3

    def test_degenerate_cell_exits_two(self, bnb_config, monkeypatch, capsys):
        def degenerate(self, instances, tau):
            raise DegenerateCellError(f"too close (cap {tau})", Fraction(1, 2), Fraction(1, 2))

        monkeypatch.setattr(BnbProblem, "get_partition", degenerate)
        assert main(["partition", "--config", str(bnb_config), "--tau", "15"]) == 2
        assert "error: too close (cap 15)" in capsys.readouterr().err

    def test_lp_solve_error_exits_two(self, bnb_config, monkeypatch, capsys):
        monkeypatch.setattr(bnb, "_SIMPLEX_ITERATION_LIMIT", 0)
        assert main(["partition", "--config", str(bnb_config), "--tau", "15"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: simplex iteration limit exceeded (program 'inst_0.milp'")
        assert "Traceback" not in err

    def test_requires_tau(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["partition", "--config", str(config)]) == 1

    def test_bnb_pool(self, bnb_config, tmp_path):
        assert main(["partition", "--config", str(bnb_config), "--tau", "15"]) == 0
        rows = read_rows(tmp_path / "bnb_out" / "cells.csv")
        assert rows[0]["lo"] == "0.0"
        assert rows[-1]["hi"] == "1.0"
        assert all(len(r["capped_losses"].split(";")) == 4 for r in rows)

    def test_clustering_breakpoint_column(self, clustering_config, tmp_path):
        assert main(["partition", "--config", str(clustering_config), "--tau", "3"]) == 0
        rows = read_rows(tmp_path / "clu_out" / "cells.csv")
        assert any(abs(float(r["lo"]) - 0.4) <= 1e-9 for r in rows)

    def test_rerun_identical(self, clustering_config, tmp_path):
        assert main(["partition", "--config", str(clustering_config), "--tau", "3"]) == 0
        first = (tmp_path / "clu_out" / "cells.csv").read_bytes()
        assert main(["partition", "--config", str(clustering_config), "--tau", "3"]) == 0
        assert (tmp_path / "clu_out" / "cells.csv").read_bytes() == first


class TestSelectCommand:
    def test_chained_selection(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["learn", "--config", str(config)]) == 0
        assert main(["select", "--config", str(config), "--samples", "400"]) == 0
        selected = json.loads((tmp_path / "out" / "selected.json").read_text())
        assert 0.35 < selected["rho"] < 0.45
        assert selected["delta_prime"] == 0.125
        assert selected["cap_ceiling"] == 2 ** (8 + 4)

    def test_singleton_subset(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        subset = {"terminal_round": 5, "parameters": [{"rho": 0.4}]}
        (out / "subset.json").write_text(json.dumps(subset))
        assert main(["select", "--config", str(config), "--samples", "50"]) == 0
        selected = json.loads((out / "selected.json").read_text())
        assert selected["rho"] == 0.4

    def test_empty_subset_exits_two(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "subset.json").write_text(json.dumps({"parameters": []}))
        assert main(["select", "--config", str(config)]) == 2

    def test_missing_subset_exits_one(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["select", "--config", str(config)]) == 1

    @pytest.mark.parametrize(
        "subset, message",
        [
            ({"parameters": [{"rho": 0.4}, {}]}, "numeric 'rho'"),
            ({"parameters": [{"rho": "0.4"}]}, "numeric 'rho'"),
            ([{"rho": 0.4}], "must be a JSON object"),
            ({"domain": "bnb", "parameters": [{"rho": 0.4}]}, "domain 'bnb'"),
            ({"terminal_round": [5], "parameters": [{"rho": 0.4}]}, "'terminal_round'"),
            ({"terminal_round": True, "parameters": [{"rho": 0.4}]}, "'terminal_round'"),
        ],
        ids=["entry-without-rho", "string-rho", "list-subset", "other-domain", "list-round",
             "bool-round"],
    )
    def test_malformed_subset_exits_one(self, tmp_path, capsys, subset, message):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "subset.json").write_text(json.dumps(subset))
        assert main(["select", "--config", str(config), "--samples", "50"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (out / "selected.json").exists()

    def test_out_of_range_rho_exits_one(self, clustering_config, tmp_path, capsys):
        out = tmp_path / "clu_out"
        out.mkdir()
        subset = {"domain": "clustering", "terminal_round": 2, "parameters": [{"rho": 1.5}]}
        (out / "subset.json").write_text(json.dumps(subset))
        assert main(["select", "--config", str(clustering_config), "--samples", "5"]) == 1
        assert "rho must lie in [0, 1]" in capsys.readouterr().err
        assert not (out / "selected.json").exists()

    def test_rerun_identical(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["learn", "--config", str(config)]) == 0
        assert main(["select", "--config", str(config), "--samples", "200"]) == 0
        first = (tmp_path / "out" / "selected.json").read_bytes()
        assert main(["select", "--config", str(config), "--samples", "200"]) == 0
        assert (tmp_path / "out" / "selected.json").read_bytes() == first


class TestEvaluateCommand:
    def test_mid_region_step_cdf(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["evaluate", "--config", str(config), "--rho", "0.4",
                     "--samples", "500"]) == 0
        rows = read_rows(tmp_path / "out" / "cdf.csv")
        assert len(rows) == 1
        assert rows[0]["tau"] == "8" and rows[0]["fraction_le"] == "1.0"

    def test_low_region_two_steps(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["evaluate", "--config", str(config), "--rho", "0.2",
                     "--samples", "4000"]) == 0
        rows = read_rows(tmp_path / "out" / "cdf.csv")
        assert [r["tau"] for r in rows] == ["8", "16"]
        half = float(rows[0]["fraction_le"])
        assert abs(half - 0.5) <= 3 * 0.5 / (4000 ** 0.5)
        assert rows[1]["fraction_le"] == "1.0"

    def test_zero_samples_usage_error(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["evaluate", "--config", str(config), "--rho", "0.4",
                     "--samples", "0"]) == 1

    def test_missing_rho_usage_error(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["evaluate", "--config", str(config), "--samples", "10"]) == 1

    def test_rerun_identical(self, tmp_path):
        config = write_config(tmp_path)
        for _ in range(2):
            assert main(["evaluate", "--config", str(config), "--rho", "0.2",
                         "--samples", "300"]) == 0
        first = (tmp_path / "out" / "cdf.csv").read_bytes()
        assert main(["evaluate", "--config", str(config), "--rho", "0.2",
                     "--samples", "300"]) == 0
        assert (tmp_path / "out" / "cdf.csv").read_bytes() == first


class TestUsage:
    def test_unknown_command_exits_one(self):
        assert main(["frobnicate"]) == 1

    def test_missing_config_flag_exits_one(self):
        assert main(["learn"]) == 1


class TestExtras:
    def test_integral_root_corpus_single_row(self, tmp_path):
        inst_dir = tmp_path / "trivial"
        inst_dir.mkdir()
        # Root relaxations are integral: one invariance cell each.
        (inst_dir / "a.milp").write_text("2 2\n3 2\n1 0 <= 1\n0 1 <= 1\n")
        (inst_dir / "b.milp").write_text("1 1\n5\n1 <= 1\n")
        config = write_config(tmp_path, out_name="triv_out", domain="bnb",
                              instances_dir=str(inst_dir))
        assert main(["partition", "--config", str(config), "--tau", "15"]) == 0
        rows = read_rows(tmp_path / "triv_out" / "cells.csv")
        assert len(rows) == 1

    def test_log_env_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRUGAL_LOG", "debug")
        config = write_config(tmp_path)
        assert main(["partition", "--config", str(config), "--tau", "8"]) == 0
