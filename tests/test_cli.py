"""End-to-end command-line behavior: verbs, configs, exit codes."""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from test_equilibria import NAMED_ERRORS, R1_DRAW
import tripatch.cli
import tripatch.equilibria
import tripatch.model
import tripatch.stability
import tripatch.topology
import tripatch.verification
from tripatch.cli import (
    ConfigError,
    RunConfig,
    canonical_json,
    main,
    parse_config,
)
from tripatch.equilibria import (
    BracketError,
    ConsistencyError,
    ConvergenceError,
)
from tripatch.model import ModelParams
from tripatch.simulate import StepUnderflowError
from tripatch.stability import StaleEquilibriumError


def symmetric_doc() -> dict:
    return {
        "r": [1.0, 1.0, 1.0],
        "k": [1.0, 1.0, 1.0],
        "m": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
    }


def write_config(tmp_path, doc, name="cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestEnumerate:
    def test_atlas_rows(self, capsys):
        code, out, err = run(capsys, ["enumerate"])
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 13
        by_name = {row["topology"]: row for row in rows}
        assert by_name["EX1"]["strongly_connected"] == "true"
        assert by_name["EX1"]["admitted_labels"] == "ORIGIN COEX"
        assert by_name["CHAIN"]["strongly_connected"] == "false"
        assert by_name["CHAIN"]["admitted_labels"] == "ORIGIN W2 W3 COEX"
        assert by_name["CHAIN"]["zeroed_rates"] == "m13 m31 m12 m23"
        strong = [n for n, row in by_name.items()
                  if row["strongly_connected"] == "true"]
        assert sorted(strong) == ["EX1", "EX2", "EX3", "FULL", "HUB0"]

    def test_module_entry_point_prints_the_same(self, capsys):
        # ``python -m tripatch.cli`` is how a fresh process launches a verb.
        src = str(pathlib.Path(tripatch.cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "tripatch.cli", "enumerate"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, ["enumerate"])

    def test_each_arc_listed_once(self, capsys):
        _, out, _ = run(capsys, ["enumerate"])
        for row in csv.DictReader(io.StringIO(out)):
            arcs = row["arcs"].split()
            assert len(arcs) == len(set(arcs))
            assert len(arcs) + len(row["zeroed_rates"].split()) == 6


class TestAnalyze:
    def test_symmetric_network(self, capsys, tmp_path):
        cfg = write_config(tmp_path, symmetric_doc())
        code, out, err = run(capsys, ["analyze", "--config", cfg])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["topology"] == "FULL"
        by_label = {e["label"]: e for e in doc["equilibria"]}
        assert set(by_label) == {"ORIGIN", "COEX"}
        assert by_label["COEX"]["point"] == pytest.approx([1.0, 1.0, 1.0])
        assert by_label["COEX"]["classification"] == "STABLE"
        assert by_label["ORIGIN"]["classification"] == "UNSTABLE"
        cids = {c["id"] for c in by_label["COEX"]["conditions"]}
        assert cids >= {"traceJ", "MJ", "detJ"}

    def test_topology_flag_overrides_config(self, capsys, tmp_path):
        doc = symmetric_doc()
        doc["topology"] = "FULL"
        cfg = write_config(tmp_path, doc)
        code, out, _ = run(capsys, ["analyze", "--config", cfg,
                                    "--topology", "EX6"])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["topology"] == "EX6"
        assert parsed["params"]["m"][1][0] == 0.0  # projected away

    def test_boundary_state_with_its_conditions(self, capsys, tmp_path):
        doc = {
            "r": [3.0759202711002276, 1.1929939285255269,
                  0.7565369458169573],
            "k": [1.713517945887594, 0.5709313242879205,
                  1.8926155818722006],
            "m": [[0.0, 1.4520278555845525, 1.740698495204055],
                  [0.0, 0.0, 1.4541977791699672],
                  [0.0, 0.2816153631316659, 0.0]],
            "topology": "EX8",
        }
        cfg = write_config(tmp_path, doc)
        code, out, _ = run(capsys, ["analyze", "--config", cfg])
        assert code == 0
        by_label = {e["label"]: e for e in json.loads(out)["equilibria"]}
        m2 = by_label["M2_EX8"]
        assert m2["classification"] == "STABLE"
        holds = {c["id"]: c["holds"] for c in m2["conditions"]}
        assert holds["stab_82_1"] and holds["stab_82_2"]

    def test_output_is_byte_deterministic(self, capsys, tmp_path):
        cfg = write_config(tmp_path, symmetric_doc())
        _, first, _ = run(capsys, ["analyze", "--config", cfg, "--seed", "4"])
        _, second, _ = run(capsys, ["analyze", "--config", cfg, "--seed", "4"])
        assert first == second

    def test_out_flag_writes_the_same_bytes(self, capsys, tmp_path):
        cfg = write_config(tmp_path, symmetric_doc())
        dest = tmp_path / "report.json"
        code, out, _ = run(capsys, ["analyze", "--config", cfg,
                                    "--out", str(dest)])
        assert code == 0 and out == ""
        _, direct, _ = run(capsys, ["analyze", "--config", cfg])
        assert dest.read_text() == direct

    def test_underflowing_rate_product_gives_a_table(self, capsys, tmp_path):
        # k1·m13 underflows to 0, so the EX7 parabolae do not exist in
        # floats; the oracle's table stands on its own.
        doc = {"r": [1e6, 0.1, 1.0], "k": [1e-300, 1.0, 1e-300],
               "m": [[0.0, 0.5, 1e-300], [1e-12, 0.0, 0.5], [1e12, 1e6, 0.0]],
               "topology": "EX7"}
        code, out, err = run(capsys, ["analyze", "--config",
                                      write_config(tmp_path, doc)])
        assert code == 0 and err == ""
        rows = json.loads(out)["equilibria"]
        assert [row["label"] for row in rows] == ["ORIGIN"]
        assert rows[0]["residual"] == 0.0

    def test_cancelling_sqrt_branch_gives_exact_records(self, capsys,
                                                         tmp_path):
        # r2 - m32 < 0 cancelled in the closed-form COEX's p2, whose
        # residual 2.0 made classify refuse the whole table (exit 3).
        doc = {"r": [0.1, 1e-6, 1e-12], "k": [1.0, 1e300, 1e-300],
               "m": [[0.0, 0.0, 2.0], [0.5, 0.0, 1e-6], [0.0, 0.5, 0.0]],
               "topology": "CHAIN"}
        code, out, err = run(capsys, ["analyze", "--config",
                                      write_config(tmp_path, doc)])
        assert code == 0 and err == ""
        rows = json.loads(out)["equilibria"]
        assert [row["label"] for row in rows] == ["ORIGIN", "W2"]
        assert all(row["residual"] <= 1e-8 for row in rows)

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        cfg = write_config(tmp_path, symmetric_doc())
        code, _, err = run(capsys, ["analyze", "--config", cfg,
                                    "--out", str(tmp_path / "no" / "x.json")])
        assert code == 2
        assert "cannot write" in err


class TestConfigErrors:
    def test_missing_entry_is_named_by_token(self, capsys, tmp_path):
        doc = symmetric_doc()
        doc["k"] = [1.0, 2.0]
        cfg = write_config(tmp_path, doc)
        code, out, err = run(capsys, ["analyze", "--config", cfg])
        assert code == 2 and out == ""
        assert "k3: required entry is missing" in err

    def test_all_violations_reported_at_once(self, tmp_path):
        doc = symmetric_doc()
        doc["k"] = [1.0, -2.0, 1.0]
        doc["m"][0][0] = 0.5
        doc["m"][1][2] = -0.25
        doc["extra"] = 1
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        msg = str(exc.value)
        for fragment in ("k2: must be strictly positive",
                         "m11: diagonal rate must be zero",
                         "m23: must be nonnegative",
                         "extra: unknown field"):
            assert fragment in msg, f"missing {fragment!r} in {msg}"

    def test_json_syntax_error_carries_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "r": [1, 2,\n}')
        code, _, err = run(capsys, ["analyze", "--config", str(path)])
        assert code == 2
        assert "line 3" in err and "column" in err

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ConfigError, match="top level"):
            parse_config("[1, 2, 3]")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["analyze", "--config", "/nope.json"])
        assert code == 2
        assert "cannot read config" in err

    def test_unknown_topology_token(self, tmp_path):
        doc = symmetric_doc()
        doc["topology"] = "RING"
        with pytest.raises(ConfigError, match="topology: unknown token"):
            parse_config(json.dumps(doc))

    def test_bad_option_blocks(self):
        doc = symmetric_doc()
        doc["sweep"] = {"param": "m99", "lo": 1.0, "hi": 0.5}
        doc["simulate"] = {"x0": [1.0, -1.0, 0.0], "warp": 9}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        msg = str(exc.value)
        assert "sweep.param" in msg
        assert "sweep.steps: required field is missing" in msg
        assert "simulate.x0" in msg
        assert "simulate.warp: unknown field" in msg

    @pytest.mark.parametrize("edit, message", [
        ({"r": None}, "r: required field is missing"),
        ({"k": 1.0}, "k: expected a 3-entry array, got 1.0"),
        ({"r": [1, 1, 1, 1]}, "r: expected 3 entries, got 4"),
        ({"k": [1, "a", 1]}, "k2: expected a finite number, got 'a'"),
        ({"r": [1, True, 1]}, "r2: expected a finite number, got True"),
        ({"m": None}, "m: required field is missing"),
        ({"m": [[0, 1], [1, 0]]}, "m: expected a 3x3 array of rates"),
        ({"m": [[0, 1, 1], [1, 0, 1], ["x", 1, 0]]},
         "m31: expected a finite number, got 'x'"),
        ({"simulate": {"t_end": -1}},
         "simulate.t_end: expected a positive finite number, got -1"),
        ({"basin": {"match_tol": 0}},
         "basin.match_tol: expected a positive finite number, got 0"),
        ({"simulate": {"x0": [1, 1]}},
         "simulate.x0: expected 3 nonnegative numbers, got [1, 1]"),
        ({"basin": {"samples": 0}},
         "basin.samples: expected an integer >= 1, got 0"),
        ({"basin": {"samples": 2.5}},
         "basin.samples: expected an integer >= 1, got 2.5"),
        ({"sweep": {"param": "r1", "lo": 0.5, "hi": 2, "steps": True}},
         "sweep.steps: expected an integer >= 2, got True"),
        ({"seed": -1}, "config.seed: expected an integer >= 0, got -1"),
        ({"basin": [1]}, "basin: expected an object, got [1]"),
        ({"sweep": "r1"}, "sweep: expected an object, got 'r1'"),
        ({"sweep": {"param": "r1", "steps": 3}},
         "sweep.lo: required field is missing"),
        ({"sweep": {"param": "r1", "steps": 3}},
         "sweep.hi: required field is missing"),
        ({"sweep": {"param": "r1", "lo": -1, "hi": 0, "steps": 3, "x": 1}},
         "sweep.x: unknown field"),
    ])
    def test_each_violation_is_named(self, edit, message):
        doc = symmetric_doc()
        for key, value in edit.items():
            if value is None:
                del doc[key]
            else:
                doc[key] = value
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert message in str(exc.value).split("\n  ")

    @pytest.mark.parametrize("block, message", [
        ({"lo": 0.5, "hi": 2, "steps": 3},
         "sweep.param: required field is missing"),
        ({"param": "r1", "lo": "x", "hi": 2, "steps": 3},
         "sweep.lo: expected a finite number, got 'x'"),
        ({"param": "r1", "lo": 0.5, "hi": None, "steps": 3},
         "sweep.hi: expected a finite number, got None"),
    ])
    def test_sweep_plan_violations(self, block, message):
        doc = symmetric_doc()
        doc["sweep"] = block
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert message in str(exc.value).split("\n  ")

    def test_sweep_bounds_may_be_zero_or_negative(self):
        doc = symmetric_doc()
        doc["sweep"] = {"param": "m12", "lo": 0, "hi": -1.5, "steps": 2}
        assert parse_config(json.dumps(doc)).sweep.lo == 0.0

    def test_integer_beyond_the_float_range_is_a_config_error(
            self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        text = json.dumps(symmetric_doc())
        path.write_text(text.replace("[1.0, 1.0, 1.0]", "[" + "9" * 400 + ", 1, 1]", 1))
        code, out, err = run(capsys, ["analyze", "--config", str(path)])
        assert code == 2 and out == ""
        assert "r1: expected a finite number, got 999" in err
        assert err.startswith("error: ") and err.count("\n") == 2

    @pytest.mark.parametrize("verb", ["analyze", "sweep", "simulate", "basin"])
    def test_malformed_config_exits_2_with_one_error_line(self, capsys, tmp_path,
                                                         verb):
        path = tmp_path / "bad.json"
        path.write_text('{"r": [1, 1], "k": [1, 1, 1], "m": [[0, 1]]}')
        code, out, err = run(capsys, [verb, "--config", str(path)])
        assert code == 2 and out == ""
        assert [line for line in err.splitlines() if line.startswith("error: ")] \
            == [f"error: {path}: invalid configuration:"]
        assert "Traceback" not in err

    def test_overlong_integer_literal_is_a_config_error(self, capsys, tmp_path):
        path = tmp_path / "overlong.json"
        path.write_text('{"r": [' + "9" * 5000 + ", 1, 1]}")
        code, out, err = run(capsys, ["analyze", "--config", str(path)])
        assert code == 2 and out == ""
        assert "invalid JSON" in err

    def test_integer_literal_reads_like_its_float(self, capsys, tmp_path):
        results = []
        for r1 in ("100000000000000000000", "1e20"):
            path = tmp_path / f"r1_{r1}.json"
            path.write_text(json.dumps(symmetric_doc()).replace(
                "[1.0, 1.0, 1.0]", f"[{r1}, 1, 1]", 1))
            results.append(run(capsys, ["analyze", "--config", str(path)]))
        assert results[0][:2] == results[1][:2]
        assert results[0][0] in (0, 3)


class TestCanonicalForm:
    def full_doc(self) -> dict:
        doc = symmetric_doc()
        doc.update({
            "topology": "EX6",
            "seed": 11,
            "sweep": {"param": "r2", "lo": 0.5, "hi": 1.5, "steps": 7},
            "simulate": {"x0": [0.1, 0.2, 0.3], "t_end": 50.0},
            "basin": {"samples": 32},
        })
        return doc

    def test_parse_serialize_parse_is_identity(self):
        cfg = parse_config(json.dumps(self.full_doc()))
        text = canonical_json(cfg)
        again = parse_config(text)
        assert again == cfg
        assert canonical_json(again) == text

    def test_canonical_output_is_sorted_and_newline_terminated(self):
        text = canonical_json(parse_config(json.dumps(self.full_doc())))
        assert text.endswith("\n")
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_blocks_are_written_with_their_defaults(self):
        doc = json.loads(canonical_json(parse_config(json.dumps(self.full_doc()))))
        assert doc["sweep"] == {"param": "r2", "lo": 0.5, "hi": 1.5, "steps": 7}
        assert doc["simulate"] == {"x0": [0.1, 0.2, 0.3], "t_end": 50.0,
                                   "rel_tol": 1e-8, "abs_tol": 1e-10}
        assert doc["basin"] == {"samples": 32, "t_end": 2000.0,
                                "match_tol": 1e-4}
        plain = symmetric_doc()
        plain["simulate"] = {}
        doc = json.loads(canonical_json(parse_config(json.dumps(plain))))
        assert doc["simulate"] == {"t_end": 100.0, "rel_tol": 1e-8,
                                   "abs_tol": 1e-10}

    def test_defaults_fill_in(self):
        cfg = parse_config(json.dumps(symmetric_doc()))
        assert cfg.topology is None and cfg.seed == 0
        assert cfg.sweep is None and cfg.simulate is None and cfg.basin is None
        assert isinstance(cfg.params, ModelParams)
        assert isinstance(cfg, RunConfig)


class TestSweepCommand:
    def ex6_doc(self) -> dict:
        return {
            "r": [1.0, 1.0, 1.0],
            "k": [1.0, 1.0, 1.0],
            "m": [[0.0, 0.25, 0.5], [0.0, 0.0, 0.0], [0.0, 0.25, 0.0]],
            "topology": "EX6",
        }

    def test_grid_rows_and_crossing_rows(self, capsys, tmp_path):
        # r2 crosses m12 + m32 = 0.5; the grid straddles it off-node.
        cfg = write_config(tmp_path, self.ex6_doc())
        code, out, err = run(capsys, [
            "sweep", "--config", cfg, "--param", "r2",
            "--lo", "0.26", "--hi", "0.74", "--steps", "5"])
        assert code == 0 and err == ""
        header, body = out.split("\n", 1)
        assert header == ("# seed=0 topology=EX6 param=r2 "
                          "lo=0.26 hi=0.74 steps=5")
        rows = list(csv.reader(io.StringIO(body)))
        assert rows[0] == ["param_name", "param_value", "eq_label",
                           "p1", "p2", "p3", "feasible", "class",
                           "lead_re", "lead_im", "crossing"]
        assert all(len(r) == 11 for r in rows)
        grid = [r for r in rows[1:] if r[7] != "CROSSING"]
        cross = [r for r in rows[1:] if r[7] == "CROSSING"]
        assert {r[1] for r in grid} == {
            repr(float(v)) for v in np.linspace(0.26, 0.74, 5)}
        assert cross, "expected at least one crossing row"
        for r in cross:
            assert float(r[1]) == pytest.approx(0.5, abs=1e-6)
            assert r[6] == "" and r[10] == "REAL_ZERO"
        # crossing rows come after every grid row
        first_cross = rows[1:].index(cross[0])
        assert all(r[7] == "CROSSING" for r in rows[1 + first_cross:])

    def test_config_block_supplies_the_plan(self, capsys, tmp_path):
        doc = self.ex6_doc()
        doc["sweep"] = {"param": "r2", "lo": 0.3, "hi": 0.7, "steps": 3}
        cfg = write_config(tmp_path, doc)
        code, out, _ = run(capsys, ["sweep", "--config", cfg, "--seed", "5"])
        assert code == 0
        assert out.startswith("# seed=5 topology=EX6 param=r2 ")

    def test_missing_plan_is_a_usage_error(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.ex6_doc())
        code, _, err = run(capsys, ["sweep", "--config", cfg, "--lo", "0.3",
                                    "--hi", "0.7"])
        assert code == 2
        assert "sweep needs --param, --steps" in err

    def test_domain_violation_is_a_usage_error(self, capsys, tmp_path):
        cfg = write_config(tmp_path, self.ex6_doc())
        code, _, err = run(capsys, [
            "sweep", "--config", cfg, "--param", "k1",
            "--lo", "-1.0", "--hi", "1.0", "--steps", "3"])
        assert code == 2
        assert "must stay positive" in err

    def test_zeroed_rate_is_a_usage_error(self, capsys, tmp_path):
        # EX6 pins m21 to 0, so every grid value would print the same set.
        cfg = write_config(tmp_path, self.ex6_doc())
        code, out, err = run(capsys, [
            "sweep", "--config", cfg, "--param", "m21",
            "--lo", "0.1", "--hi", "2.0", "--steps", "3"])
        assert code == 2 and out == ""
        assert err == "error: EX6 pins m21 to 0; sweep a rate it keeps\n"

    @pytest.mark.parametrize("bound", ["--lo", "--hi"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_bound_is_a_usage_error(self, capsys, tmp_path, bound,
                                               value):
        cfg = write_config(tmp_path, self.ex6_doc())
        plan = {"--lo": "0.3", "--hi": "0.7", bound: value}
        code, out, err = run(capsys, [
            "sweep", "--config", cfg, "--param", "r2", "--steps", "3",
            *(f"{flag}={v}" for flag, v in plan.items())])
        assert code == 2 and out == ""
        assert err.startswith("error: sweep range must be finite")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, seed", [([], 4), (["--seed", "5"], 5)])
    def test_seed_reaches_the_oracle(self, capsys, tmp_path, monkeypatch,
                                     argv, seed):
        doc = dict(self.ex6_doc(), seed=4,
                   sweep={"param": "r2", "lo": 0.3, "hi": 0.7, "steps": 3})
        cfg = write_config(tmp_path, doc)
        seen = []
        oracle = tripatch.equilibria._oracle_many

        def recording_oracle(params_list, seed=0):
            seen.append(seed)
            return oracle(params_list, seed)

        monkeypatch.setattr(tripatch.equilibria, "_oracle_many", recording_oracle)
        code, _, _ = run(capsys, ["sweep", "--config", cfg, *argv])
        assert code == 0
        assert seen == [seed]


class TestSimulateCommand:
    def test_trajectory_csv(self, capsys, tmp_path):
        cfg = write_config(tmp_path, symmetric_doc())
        code, out, _ = run(capsys, ["simulate", "--config", cfg])
        assert code == 0
        header, body = out.split("\n", 1)
        assert "terminal=STEADY" in header
        rows = list(csv.reader(io.StringIO(body)))
        assert rows[0] == ["t", "p1", "p2", "p3"]
        assert [float(v) for v in rows[1][1:]] == [1.0, 1.0, 1.0]
        last = [float(v) for v in rows[-1][1:]]
        assert last == pytest.approx([1.0, 1.0, 1.0], abs=1e-6)

    def test_t_end_flag(self, capsys, tmp_path):
        doc = symmetric_doc()
        doc["simulate"] = {"x0": [0.2, 0.2, 0.2]}
        cfg = write_config(tmp_path, doc)
        code, out, _ = run(capsys, ["simulate", "--config", cfg,
                                    "--t-end", "0.001"])
        assert code == 0
        assert "terminal=MAX_TIME" in out.split("\n", 1)[0]

    def test_infinite_t_end_is_a_usage_error(self, capsys, tmp_path):
        cfg = write_config(tmp_path, symmetric_doc())
        code, out, err = run(capsys, ["simulate", "--config", cfg,
                                      "--t-end", "inf"])
        assert code == 2 and out == ""
        assert "t_end must be finite" in err


class TestBasinCommand:
    def test_symmetric_basin_is_pure(self, capsys, tmp_path):
        cfg = write_config(tmp_path, symmetric_doc())
        code, out, _ = run(capsys, ["basin", "--config", cfg,
                                    "--samples", "32"])
        assert code == 0
        doc = json.loads(out)
        assert doc["fractions"] == {"COEX": 1.0}
        assert doc["samples"] == 32 and doc["seed"] == 0


class TestVerifyCommand:
    def test_battery_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--samples", "10"])
        assert code == 0
        assert "7/7 properties passed" in out
        assert out.count("PASS ") == 7

    def test_injected_sign_bug_is_caught(self, capsys, monkeypatch):
        # A wrong-signed inflow term must trip the conservation check and
        # flip the exit code; the FAIL line carries a concrete witness.
        orig = tripatch.model.rhs

        def bad_rhs(params, x):
            inflow = params.m @ np.maximum(np.asarray(x, dtype=float), 0.0)
            return orig(params, x) - 2.0 * inflow

        monkeypatch.setattr(tripatch.model, "rhs", bad_rhs)
        code, out, _ = run(capsys, ["verify", "--samples", "10"])
        assert code == 1
        fail_lines = [l for l in out.splitlines()
                      if l.startswith("FAIL migration conservation")]
        assert fail_lines, f"no conservation FAIL line in:\n{out}"
        assert "drift" in fail_lines[0] or "sum" in fail_lines[0] \
            or any(ch.isdigit() for ch in fail_lines[0])

    @staticmethod
    def failed_line(capsys, check):
        """The FAIL line of ``check`` in a failing ``verify`` run."""
        code, out, _ = run(capsys, ["verify", "--samples", "10"])
        assert code == 1 and "6/7 properties passed" in out
        return next(line for line in out.splitlines()
                    if line.startswith(f"FAIL {check}: "))

    @staticmethod
    def drop_diverge(arcs):
        token, perm = tripatch.topology.canonical_form(arcs)
        return ("CONVERGE" if token == "DIVERGE" else token), perm

    @pytest.mark.parametrize("name, fake, detail", [
        ("enumerate_canonical", lambda: tripatch.topology.enumerate_canonical()[1:],
         "expected 13 classes, got 12"),
        ("canonical_form", drop_diverge, "orbit scan found ['CHAIN', 'CONVERGE', "
         "'EX1', 'EX2', 'EX2N', 'EX3', 'EX6', 'EX7', 'EX7N', 'EX8', 'FULL', 'HUB0']"),
        ("is_strongly_connected", lambda arcs: False, "strongly connected set ()"),
    ], ids=["count", "orbits", "strong"])
    def test_a_wrong_census_is_caught(self, capsys, monkeypatch, name, fake, detail):
        monkeypatch.setattr(tripatch.verification, name, fake)
        assert self.failed_line(capsys, "topology census") == \
            f"FAIL topology census: {detail}"

    def test_a_lost_coexistence_state_is_caught(self, capsys, monkeypatch):
        find_all = tripatch.verification.find_all_equilibria
        monkeypatch.setattr(
            tripatch.verification, "find_all_equilibria", lambda topo, p, seed:
            [rec for rec in find_all(topo, p, seed=seed) if rec.label != "COEX"])
        assert self.failed_line(capsys, "oracle equivalence") == \
            "FAIL oracle equivalence: FULL draw 0: labels ['ORIGIN']"

    def test_a_flipped_one_way_row_is_caught(self, capsys, monkeypatch):
        # Z3 is stable iff r2 < o2; the flipped row says the opposite.
        st = tripatch.stability
        monkeypatch.setitem(st._CONDITION_TABLE, ("DIVERGE", "Z3"), functools.partial(
            st._one_way, (("stab_Z3", "stability", 1, st._gt),)))
        assert self.failed_line(capsys, "classifier consistency").startswith(
            "FAIL classifier consistency: DIVERGE/Z3 draw 0: conditions say ")


class TestUsage:
    def test_missing_command_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_topology_flag_is_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path, symmetric_doc())
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--config", cfg, "--topology", "RING"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, flag, minimum", [
        (["basin", "--samples", "0"], "--samples", 1),
        (["verify", "--samples", "0"], "--samples", 1),
        (["sweep", "--steps", "1"], "--steps", 2),
        (["sweep", "--steps", "abc"], "--steps", 2),
        (["analyze", "--seed", "-1"], "--seed", 0),
    ])
    def test_out_of_range_flag_is_named(self, capsys, tmp_path, argv, flag,
                                        minimum):
        # An explicit value is never swapped for the default: a value
        # below the minimum is a usage error naming the flag.
        if argv[0] != "verify":
            argv += ["--config", write_config(tmp_path, symmetric_doc())]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert (f"error: argument {flag}: expected an integer >= {minimum}"
                in capsys.readouterr().err)


class TestNumericalFailures:
    @pytest.mark.parametrize("verb, callee, error", [
        ("analyze", "find_all_equilibria", ConsistencyError),
        ("sweep", "_sweep", ConvergenceError),
        ("basin", "basin_sample", ConvergenceError),
        ("verify", "run_battery", BracketError),
        ("simulate", "integrate", StepUnderflowError),
        ("analyze", "classify", StaleEquilibriumError),
    ])
    def test_exit_code_3_without_traceback(self, capsys, monkeypatch,
                                           tmp_path, verb, callee, error):
        def fail(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(tripatch.cli, callee, fail)
        argv = [verb]
        if verb != "verify":
            doc = symmetric_doc()
            doc["sweep"] = {"param": "r2", "lo": 0.5, "hi": 1.5, "steps": 3}
            argv += ["--config", write_config(tmp_path, doc)]
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert err == "error: injected failure\n"

    @pytest.mark.parametrize("r, k, m, message",
                             [(*case[1:4], case[5]) for case in NAMED_ERRORS],
                             ids=[case[0] for case in NAMED_ERRORS])
    def test_named_error_instead_of_a_wrong_table(self, capsys, tmp_path, r,
                                                  k, m, message):
        # These printed ORIGIN alone, 78 MARGINAL records (the tiny rates also
        # used to crash the cubic solver), ORIGIN with a NUMERICAL point off
        # COEX, and ORIGIN with COEX labeled NUMERICAL.
        doc = {"r": r, "k": k, "m": m, "topology": "FULL"}
        code, out, err = run(capsys, ["analyze", "--config",
                                      write_config(tmp_path, doc)])
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("r1", [1e6, 1e7])
    def test_large_r1_prints_coex(self, capsys, tmp_path, r1):
        # The route's point misses POLISH_TOL by round-off from r1 ≈ 1e7;
        # the table still has COEX.
        r, k, m = R1_DRAW
        doc = {"r": [r1, *r[1:]], "k": k, "m": m, "topology": "FULL"}
        code, out, err = run(capsys, ["analyze", "--config",
                                      write_config(tmp_path, doc)])
        assert code == 0 and err == ""
        assert "COEX" in out and "NUMERICAL" not in out

    @pytest.mark.parametrize("doc, argv, message", [
        # |trace J| ≈ 1e300 and infinite minors at the origin.
        ({"r": [1e12, 0.1, 1e300], "k": [1e-300, 1e6, 3.0],
          "m": [[0.0, 1e6, 0.0], [0.5, 0.0, 1e-12], [1e-6, 0.0, 0.0]],
          "topology": "EX7"}, ["analyze"], "leave the float range"),
        ({"r": [1e300, 1e-6, 1e-12], "k": [1e300, 1.0, 1e-300],
          "m": [[0.0, 1e-300, 1e-300], [0.0, 0.0, 1e12], [0.0, 0.5, 0.0]],
          "topology": "EX3"},
         ["sweep", "--param", "r2", "--lo", "0.1", "--hi", "3", "--steps", "4"],
         "leave the float range"),
        # k1·m13 overflows; the catalog skips Q1 and COEX, and the origin's
        # minors are infinite.
        ({"r": [1e6, 1e300, 3.0], "k": [1e300, 1e-6, 1e12],
          "m": [[0.0, 1e300, 1e300], [1e-6, 0.0, 2.0], [1e-300, 2.0, 0.0]],
          "topology": "EX7N"}, ["analyze"], "leave the float range"),
    ])
    def test_real_failures_exit_3_with_one_line(self, capsys, tmp_path, doc,
                                                argv, message):
        argv = [argv[0], "--config", write_config(tmp_path, doc), *argv[1:]]
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
