import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from frugal import bnb, cli
from frugal.bnb import BnbProblem
from frugal.cli import main
from frugal.sweep import DegenerateCellError
from support import write_bnb_config, write_clustering_config, write_config

# Python versions before 3.11 (and 3.10.7) convert ints of any length to text.
needs_int_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-text digit limit"
)


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
        assert report["counters"]["loss_evaluations"] == sum(
            int(r["cells"]) * int(r["samples"]) for r in rows
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
        "content",
        [
            pytest.param(
                b'{"domain": "synthetic", "seed": ' + b"7" * 5000 + b"}", marks=needs_int_digit_limit
            ),
            b'\xff{"domain": "synthetic"}',
        ],
        ids=["5000-digit-seed", "non-utf8"],
    )
    def test_unreadable_config_names_file(self, tmp_path, capsys, content):
        # json.loads raises a plain ValueError for an int over Python's
        # 4,300-digit text limit, and read_text a UnicodeDecodeError for
        # bytes that are not UTF-8: neither is a JSONDecodeError.
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["learn", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read config {bad}: ")

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
            {"domain": "synthetic", "max_rounds": 2.5},
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
            "max-rounds-float",
            "delta-string",
            "family-float-loss",
        ],
    )
    def test_wrong_json_type_exits_one(self, tmp_path, capsys, raw):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["learn", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("key", ["epsilon", "delta", "zeta"])
    def test_number_too_large_for_a_float_exits_one(self, tmp_path, capsys, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"domain": "synthetic", key: 10**400}))
        assert main(["learn", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config {key!r} ")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["epsilon", "delta", "zeta"])
    def test_non_finite_number_exits_one(self, tmp_path, capsys, key, value):
        # ``json.dumps`` writes NaN and Infinity, which ``json.loads`` accepts.
        config = write_config(tmp_path, **{key: value})
        assert main(["learn", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: config {key!r} must be finite\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"detla": 0.9}, "config has unknown key 'detla'"),
            ({"family": {"L_lo": 20}}, "config 'family' has unknown key 'L_lo'"),
            ({"max_samples_per_round": 2000000}, "config has unknown key 'max_samples_per_round'"),
        ],
        ids=["top-level", "family", "removed-sample-limit"],
    )
    def test_unknown_key_exits_one(self, tmp_path, capsys, raw, message):
        config = write_config(tmp_path, **raw)
        assert main(["learn", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "raw, argv",
        [({"seed": -3}, []), ({}, ["--seed", "-1"])],
        ids=["config", "override"],
    )
    def test_negative_seed_exits_one(self, tmp_path, capsys, raw, argv):
        config = write_config(tmp_path, **raw)
        assert main(["learn", "--config", str(config), *argv]) == 1
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_epsilon_whose_coefficient_underflows_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, epsilon=1e-17)
        assert main(["learn", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad config value: epsilon ") and "1e-17" in err
        assert not (tmp_path / "out").exists()

    def test_learner_failure_exits_two(self, tmp_path, capsys):
        # Round 1's cap 2 is below every synthetic loss, so nothing is admitted.
        config = write_config(tmp_path, max_rounds=1)
        assert main(["learn", "--config", str(config)]) == 2
        assert "no region ever admitted" in capsys.readouterr().err

    def test_readme_config_example_loads(self, tmp_path):
        # README's one JSON block is the full config; every learner knob is in it.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = [part.split("```")[0] for part in readme.split("```json\n")[1:]]
        config = tmp_path / "config.json"
        config.write_text(block)
        example, loaded = json.loads(block), cli.load_config(config)
        assert (loaded.domain, loaded.out) == (example["domain"], Path(example["out"]))
        assert asdict(loaded.learner) == {knob: example[knob] for knob in asdict(loaded.learner)}


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

    def test_zero_samples_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["partition", "--config", str(config), "--tau", "8", "--samples", "0"]) == 1
        assert capsys.readouterr().err == "error: --samples must be positive\n"
        assert not (tmp_path / "out").exists()

    def test_requires_tau(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["partition", "--config", str(config)]) == 1

    def test_zero_denominator_instance_exits_one(self, bnb_config, tmp_path, capsys):
        (tmp_path / "milps" / "inst_0.milp").write_text("1 1\n1/0\n1 <= 1\n")
        assert main(["partition", "--config", str(bnb_config), "--tau", "15"]) == 1
        err = capsys.readouterr().err
        assert err == "error: bad instance file inst_0.milp: zero denominator in '1/0'\n"

    def test_bad_metric_file_is_named(self, clustering_config, tmp_path, capsys):
        (tmp_path / "metrics" / "skew.metric").write_text("2 1 1\n0 1\n2 0\n")
        assert main(["partition", "--config", str(clustering_config), "--tau", "3"]) == 1
        err = capsys.readouterr().err
        assert err == "error: bad instance file skew.metric: distance matrix must be symmetric\n"

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

    def test_zero_samples_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "subset.json").write_text(json.dumps({"parameters": [{"rho": 0.4}]}))
        assert main(["select", "--config", str(config), "--samples", "0"]) == 1
        assert capsys.readouterr().err == "error: --samples must be positive\n"
        assert not (out / "selected.json").exists()

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
            ({"terminal_round": 0, "parameters": [{"rho": 0.4}]}, "'terminal_round'"),
            ({"terminal_round": -4, "parameters": [{"rho": 0.4}]}, "'terminal_round'"),
            ({"terminal_round": -5, "parameters": [{"rho": 0.4}]}, "'terminal_round'"),
        ],
        ids=["entry-without-rho", "string-rho", "list-subset", "other-domain", "list-round",
             "bool-round", "zero-round", "negative-round", "ceiling-below-one-round"],
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

    @needs_int_digit_limit
    def test_over_long_terminal_round_names_file(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        subset = out / "subset.json"
        subset.write_text('{"terminal_round": %s, "parameters": [{"rho": 0.4}]}' % ("7" * 5000))
        assert main(["select", "--config", str(config), "--samples", "50"]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read subset {subset}: ")
        assert not (out / "selected.json").exists()

    def test_out_of_range_rho_exits_one(self, clustering_config, tmp_path, capsys):
        out = tmp_path / "clu_out"
        out.mkdir()
        subset = {"domain": "clustering", "terminal_round": 2, "parameters": [{"rho": 1.5}]}
        (out / "subset.json").write_text(json.dumps(subset))
        assert main(["select", "--config", str(clustering_config), "--samples", "5"]) == 1
        assert "rho must lie in [0, 1]" in capsys.readouterr().err
        assert not (out / "selected.json").exists()

    @pytest.mark.parametrize("rho", ["Infinity", "-Infinity", "1e400"])
    def test_non_finite_rho_exits_one(self, clustering_config, tmp_path, capsys, rho):
        out = tmp_path / "clu_out"
        out.mkdir()
        (out / "subset.json").write_text(
            '{"domain": "clustering", "terminal_round": 2, "parameters": [{"rho": %s}]}' % rho
        )
        assert main(["select", "--config", str(clustering_config), "--samples", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err
        assert not (out / "selected.json").exists()

    @pytest.mark.parametrize("domain", ["synthetic", "bnb"])
    @pytest.mark.parametrize(
        "rho",
        ["1.5", "NaN", "1e400", "1" + "0" * 400],
        ids=["above-one", "nan", "overflow", "long-int"],
    )
    def test_bad_rho_names_subset_and_entry(self, tmp_path, capsys, domain, rho):
        # The check runs before any instance, so every domain gives the same message.
        config = write_config(tmp_path) if domain == "synthetic" else write_bnb_config(tmp_path)
        out = tmp_path / ("out" if domain == "synthetic" else "bnb_out")
        out.mkdir()
        subset = out / "subset.json"
        subset.write_text(
            '{"domain": "%s", "terminal_round": 2, "parameters": [{"rho": 0.4}, {"rho": %s}]}'
            % (domain, rho)
        )
        assert main(["select", "--config", str(config), "--samples", "5"]) == 1
        assert capsys.readouterr().err.startswith(f"error: subset {subset}: parameter 1: ")
        assert not (out / "selected.json").exists()

    @needs_int_digit_limit
    def test_unprintable_ceiling_exits_one_before_running(self, tmp_path, capsys, monkeypatch):
        # 2**20004 has 6,022 digits, over the default limit of 4,300 for
        # converting an int to text, so selected.json could not be written.
        def no_runs(*args):
            raise AssertionError("select ran instances")

        monkeypatch.setattr(cli, "estimate_capped_tail_means", no_runs)
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        subset = {"domain": "synthetic", "terminal_round": 20000, "parameters": [{"rho": 0.4}]}
        (out / "subset.json").write_text(json.dumps(subset))
        assert main(["select", "--config", str(config), "--samples", "50"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'terminal_round' 20000" in err
        assert not (out / "selected.json").exists()

    @needs_int_digit_limit
    def test_ceiling_digit_limit_boundary(self, tmp_path, capsys):
        # Under a 640-digit limit, 2**2126 (640 digits) is the largest
        # ceiling that can be written: terminal round 2122 runs, 2123 exits 1.
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for terminal, code in ((2123, 1), (2122, 0)):
                subset = {"terminal_round": terminal, "parameters": [{"rho": 0.4}]}
                (out / "subset.json").write_text(json.dumps(subset))
                assert main(["select", "--config", str(config), "--samples", "50"]) == code
        finally:
            sys.set_int_max_str_digits(limit)
        assert "640-digit limit" in capsys.readouterr().err
        selected = json.loads((out / "selected.json").read_text())
        assert selected["cap_ceiling"] == 2**2126 and len(str(2**2126)) == 640

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

    @pytest.mark.parametrize("config, message", [
        ([], "config must be a JSON object"),
        ({"domain": "bnb"}, "domain bnb needs 'instances_dir'"),
        ({"domain": "clustering", "instances_dir": "missing"}, "is not a directory"),
    ], ids=["not-an-object", "no-instances-dir", "instances-dir-missing"])
    def test_bad_config_exits_one(self, tmp_path, capsys, config, message):
        if isinstance(config, dict) and "instances_dir" in config:
            config["instances_dir"] = str(tmp_path / config["instances_dir"])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        with pytest.raises(cli.UsageError, match=message):
            cli.load_config(path)
        assert main(["partition", "--config", str(path), "--tau", "8"]) == 1
        assert message in capsys.readouterr().err

    def test_instances_dir_that_is_a_file_exits_one(self, tmp_path, capsys):
        (tmp_path / "pool.milp").write_text("1 0\n1\n")
        config = write_config(tmp_path, domain="bnb", instances_dir=str(tmp_path / "pool.milp"))
        assert main(["partition", "--config", str(config), "--tau", "8"]) == 1
        assert "is not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("domain", ["bnb", "clustering"])
    def test_empty_instance_dir_exits_one(self, tmp_path, capsys, domain):
        (tmp_path / "pool").mkdir()
        config = write_config(tmp_path, domain=domain, instances_dir=str(tmp_path / "pool"))
        cfg = cli.load_config(config)
        with pytest.raises(cli.UsageError, match="^no instance files in "):
            cli.build_problem(cfg)
        assert main(["partition", "--config", str(config), "--tau", "8"]) == 1
        assert capsys.readouterr().err.startswith("error: no instance files in ")

    def test_missing_config_flag_exits_one(self):
        assert main(["learn"]) == 1


class TestExtras:
    def test_csv_cells_are_plain_text(self, tmp_path):
        # A float is written by its repr and a numpy float like a float, not
        # as ``np.float64(0.5)``; other values by ``str``.
        path = tmp_path / "rows.csv"
        rows = [
            [np.float64(0.5), 0.35000000000000003, math.inf],
            [1e-20, np.int64(3), Fraction(1, 3)],
        ]
        cli._write_csv(path, ["a", "b", "c"], rows)
        assert path.read_bytes() == b"a,b,c\r\n0.5,0.35000000000000003,inf\r\n1e-20,3,1/3\r\n"

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
