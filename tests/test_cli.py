"""Command-line surface: subcommand behavior, exit codes, artifact layout.

The CLI is a scripting contract: stable exit codes, one machine-parsable
``active-ht: <kind>: <message>`` line on stderr per failure, result CSVs that
open with a ``# manifest=<id>`` comment, and manifests whose id excludes
timestamps and thread counts so reruns reproduce artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from active_ht import bounds, cli
from active_ht.cli import _threads_default, main
from active_ht.model import FiniteKernel, ObservationModel, save_model

from conftest import make_blind_model, make_garbled_model, make_perfect_probe_model, make_two_probe_model, run_python

MAXMIN_TP = 0.6506724213610958


# ---------------------------------------------------------------------------
# fixtures: model files on disk


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    save_model(make_two_probe_model(), d / "two_probe.json")
    save_model(make_garbled_model(), d / "garbled.json")
    save_model(make_perfect_probe_model(), d / "perfect_probe.json")
    twin = ObservationModel(
        kernel=FiniteKernel([[[0.5, 0.5]], [[0.5, 0.5]]]),
        prior=[0.5, 0.5],
        penalty=10.0,
    )
    save_model(twin, d / "twins.json")
    (d / "bad.json").write_text(
        json.dumps(
            {
                "kernel": {"type": "finite", "probs": [[[0.7, 0.2]], [[0.5, 0.5]]]},
                "prior": [0.5, 0.5],
                "penalty": 10.0,
            }
        )
    )
    return d


@pytest.fixture(scope="module")
def two_probe_path(model_dir):
    return str(model_dir / "two_probe.json")


def read_manifest(prefix):
    with open(f"{prefix}.manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    """(manifest_id, header, rows) from a result table."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        assert first.startswith("# manifest=")
        rows = list(csv.reader(fh))
    return first.removeprefix("# manifest="), rows[0], rows[1:]


# ---------------------------------------------------------------------------
# validate


class TestValidate:
    def test_ok_model(self, two_probe_path, capsys):
        assert main(["validate", two_probe_path]) == 0
        out = capsys.readouterr().out
        assert "M=2 K=2 kernel=finite L=1000" in out
        assert "distinguishable: true" in out
        assert "likelihood_ratio_bound: 6" in out
        assert "usable_for_bounds: true" in out

    def test_indistinguishable_pair_fails(self, model_dir, capsys):
        assert main(["validate", str(model_dir / "twins.json")]) == 2
        captured = capsys.readouterr()
        assert "indistinguishable_pairs: (0, 1)" in captured.out
        assert captured.err.startswith(
            "active-ht: validation: indistinguishable hypothesis pairs: (0, 1)"
        )

    def test_missing_file(self, capsys):
        assert main(["validate", "/no/such/model.json"]) == 2
        assert capsys.readouterr().err.startswith(
            "active-ht: validation: cannot read model file:"
        )

    def test_a_directory_is_a_model_file_that_cannot_be_read(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "active-ht: validation: cannot read model file: [Errno 21] Is a directory:"
        )

    def test_malformed_model_file(self, model_dir, capsys):
        assert main(["validate", str(model_dir / "bad.json")]) == 2
        assert capsys.readouterr().err.startswith("active-ht: validation:")

    def test_a_model_file_that_is_not_utf8_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'\xff{"M": 2}')
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("active-ht: validation: model file is not valid JSON:")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("M", None, "M must be a whole number, got None"),
            ("M", "two", "M must be a whole number, got 'two'"),
            ("M", 2.9, "M must be a whole number, got 2.9"),
            ("K", 1.5, "K must be a whole number, got 1.5"),
            ("K", True, "K must be a whole number, got True"),
            # a whole number too large for a float is a count that does not match, not a crash
            ("M", 10**400, "declared (M, K)="),
            ("L", 10**400, "malformed model: int too large to convert to float"),
        ],
    )
    def test_a_malformed_number_is_a_validation_error(self, tmp_path, capsys, key, value, message):
        doc = {
            "M": 2, "K": 1, "L": 10.0, "prior": [0.5, 0.5],
            "kernel": {"type": "finite", "rows": [[[0.7, 0.3]], [[0.5, 0.5]]]},
        }
        path = tmp_path / "number.json"
        path.write_text(json.dumps({**doc, key: value}))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"active-ht: validation: {message}")

    def test_a_whole_float_dimension_is_read_as_an_integer(self, tmp_path, capsys):
        path = tmp_path / "float_dimension.json"
        path.write_text(json.dumps({
            "M": 2.0, "K": 1.0, "L": 10.0, "prior": [0.5, 0.5],
            "kernel": {"type": "finite", "rows": [[[0.7, 0.3]], [[0.5, 0.5]]]},
        }))
        assert main(["validate", str(path)]) == 0
        assert "M=2 K=1 kernel=finite" in capsys.readouterr().out

    def test_violations_show_plain_floats(self, tmp_path, capsys):
        path = tmp_path / "off_simplex.json"
        path.write_text(json.dumps({
            "M": 2, "K": 1, "L": 10.0, "prior": [0.5, 0.6],
            "kernel": {"type": "finite", "rows": [[[0.7, 0.2]], [[0.5, 0.5]]]},
        }))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "active-ht: validation: prior sums to 1.1, not 1; "
            "kernel row (hypothesis 0, action 0) sums to 0.8999999999999999, not 1\n"
        )


# ---------------------------------------------------------------------------
# bounds


class TestBounds:
    def test_stdout_is_json_report(self, two_probe_path, capsys):
        assert main(["bounds", two_probe_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert_allclose(data["maxmin_r"], MAXMIN_TP, rtol=1e-9)
        assert_allclose(data["bounds"]["sn_upper"], math.log(1000.0) / MAXMIN_TP, rtol=1e-9)
        assert data["gains"]["zero_adaptivity"] is False

    def test_artifacts_and_manifest_id(self, two_probe_path, tmp_path, capsys):
        prefix = str(tmp_path / "b")
        assert main(["bounds", two_probe_path, "--out", prefix]) == 0
        capsys.readouterr()
        manifest = read_manifest(prefix)
        mid, header, rows = read_csv(f"{prefix}.csv")
        assert mid == manifest["manifest_id"]
        assert header[:2] == ["name", "value"]
        names = [r[0] for r in rows]
        assert {"d_hat", "maxmin_r", "r_bar_star", "sn_upper"} <= set(names)
        # The id commits to the run inputs but never to timestamps/threads.
        core = {
            k: v
            for k, v in manifest.items()
            if k not in ("manifest_id", "created_utc", "threads")
        }
        canon = json.dumps(core, sort_keys=True, separators=(",", ":"))
        assert manifest["manifest_id"] == hashlib.sha256(canon.encode()).hexdigest()
        assert manifest["command"] == "bounds"
        assert manifest["solver_settings"]["theta_stratification"] == "prior_quota"
        with open(two_probe_path, "rb") as fh:
            assert manifest["model_digest"] == hashlib.sha256(fh.read()).hexdigest()
        # The d_hat row certifies its value with the relative gap to d_hat_upper.
        (d_hat_row,) = [r for r in rows if r[0] == "d_hat"]
        assert d_hat_row[-1].startswith("rel_gap=")
        assert 0.0 <= float(d_hat_row[-1].split("=")[1]) <= 1e-9
        settings = manifest["solver_settings"]
        assert "gap_tol" in settings
        assert not {"grid_resolution", "polish_evals"} & set(settings)
        assert main(["bounds", two_probe_path, "--grid", "0.1"]) == 4

    @pytest.mark.parametrize("command", ["bounds", "simulate"])
    def test_a_missing_output_directory_is_refused_before_any_work(
        self, monkeypatch, two_probe_path, tmp_path, capsys, command
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the output was checked")

        monkeypatch.setattr(cli, "load_model", no_work)
        prefix = tmp_path / "missing" / "dir" / "x"
        flags = TestSimulate.ARGS if command == "simulate" else []
        assert main([command, two_probe_path, *flags, "--out", str(prefix)]) == 4
        assert capsys.readouterr().err == (
            f"active-ht: usage: cannot write output {prefix}: directory {prefix.parent} does not exist\n"
        )

    def test_an_output_write_error_is_a_usage_error(self, two_probe_path, tmp_path, capsys):
        (tmp_path / "b.csv").mkdir()  # the table's path is taken
        assert main(["bounds", two_probe_path, "--out", str(tmp_path / "b")]) == 4
        assert capsys.readouterr().err.startswith(
            "active-ht: usage: cannot write output: [Errno 21] Is a directory:"
        )


# ---------------------------------------------------------------------------
# simulate


class TestSimulate:
    ARGS = ["--policy", "fixed", "--lambda", "0.5,0.5", "--n", "6",
            "--trials", "2000", "--seed", "7"]

    def test_summary_line_and_artifacts(self, two_probe_path, tmp_path, capsys):
        prefix = str(tmp_path / "s")
        assert main(["simulate", two_probe_path, *self.ARGS, "--out", prefix]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trials=2000 mean_tau=6 ")
        mid, header, rows = read_csv(f"{prefix}.csv")
        assert header == [
            "n_trials", "mean_tau", "se_tau", "pe", "se_pe", "cost", "se_cost",
            "n_wrong", "n_truncated", "L", "seed",
        ]
        (row,) = rows
        assert row[0] == "2000" and row[1] == "6" and row[-1] == "7"
        # cost identity at the printed precision
        assert_allclose(float(row[5]), 6.0 + 1000.0 * float(row[3]), rtol=1e-8)
        assert mid == read_manifest(prefix)["manifest_id"]

    def test_rerun_is_byte_identical(self, two_probe_path, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", two_probe_path, *self.ARGS, "--threads", "1", "--out", a]) == 0
        assert main(["simulate", two_probe_path, *self.ARGS, "--threads", "3", "--out", b]) == 0
        capsys.readouterr()
        with open(f"{a}.csv", "rb") as fa, open(f"{b}.csv", "rb") as fb:
            assert fa.read() == fb.read()
        ma, mb = read_manifest(a), read_manifest(b)
        assert ma["manifest_id"] == mb["manifest_id"]
        assert ma["threads"] == 1 and mb["threads"] == 3

    def test_record_trials_table(self, two_probe_path, tmp_path, capsys):
        prefix = str(tmp_path / "t")
        args = ["simulate", two_probe_path, "--policy", "fixed", "--lambda", "1.0,0.0",
                "--n", "3", "--trials", "50", "--seed", "3", "--record-trials",
                "--out", prefix]
        assert main(args) == 0
        capsys.readouterr()
        _, header, rows = read_csv(f"{prefix}_trials.csv")
        assert header == ["index", "theta", "tau", "declared", "correct",
                          "posterior_error", "truncated"]
        assert len(rows) == 50
        assert [r[0] for r in rows] == [str(i) for i in range(50)]
        assert all(r[2] == "3" for r in rows)

    @pytest.mark.parametrize(
        "extra",
        [
            ["--policy", "fixed", "--trials", "10", "--seed", "1"],
            ["--policy", "fixed", "--lambda", "0.5,0.5", "--trials", "10", "--seed", "1"],
            ["--policy", "fixed", "--lambda", "0.5,0.5", "--n", "4",
             "--threshold", "0.9", "--trials", "10", "--seed", "1"],
            ["--policy", "fixed", "--lambda", "0.2,0.2", "--n", "4",
             "--trials", "10", "--seed", "1"],
            ["--policy", "fixed", "--lambda", "1.0", "--n", "4",
             "--trials", "10", "--seed", "1"],
            ["--policy", "fixed", "--lambda", "0.5,0.5", "--n", "-2",
             "--trials", "10", "--seed", "1"],
        ],
        ids=["no-rule", "no-stop-mode", "both-stop-modes", "rule-off-simplex",
             "rule-wrong-length", "negative-n"],
    )
    def test_usage_errors(self, two_probe_path, extra, capsys):
        assert main(["simulate", two_probe_path, *extra]) == 4
        assert capsys.readouterr().err.startswith("active-ht: usage:")

    def test_off_simplex_rule_message_shows_a_plain_float(self, two_probe_path, capsys):
        args = ["simulate", two_probe_path, "--policy", "fixed", "--lambda", "0.2,0.2",
                "--n", "4", "--trials", "10", "--seed", "1"]
        assert main(args) == 4
        assert capsys.readouterr().err == (
            "active-ht: usage: rule weights must sum to 1, got 0.4\n"
        )

    def test_unknown_flag(self, two_probe_path, capsys):
        assert main(["simulate", two_probe_path, "--bogus", "1"]) == 4
        assert capsys.readouterr().err.startswith("active-ht: usage:")

    @pytest.mark.parametrize(
        "extra",
        [["--n", "5"], ["--lambda", "1,0"], ["--threshold", "0.6"],
         ["--n", "5", "--lambda", "1,0", "--threshold", "0.6"]],
        ids=["n", "lambda", "threshold", "all-three"],
    )
    def test_built_policy_rejects_fixed_rule_flags(self, two_probe_path, extra, capsys):
        args = ["simulate", two_probe_path, "--policy", "sn", *extra, "--trials", "10", "--seed", "1"]
        assert main(args) == 4
        assert capsys.readouterr().err == (
            "active-ht: usage: --policy sn takes no --lambda, --n or --threshold\n"
        )

    def test_phase_threshold_is_not_a_flag(self, two_probe_path, capsys):
        args = ["simulate", two_probe_path, "--policy", "sa", "--phase-threshold", "0.5",
                "--trials", "10", "--seed", "1"]
        assert main(args) == 4
        assert capsys.readouterr().err.startswith("active-ht: usage: unrecognized arguments")

    def test_fixed_threshold_rule_computes_no_report(self, two_probe_path, monkeypatch, capsys):
        def refuse(model):
            raise AssertionError("compute_bounds called")

        monkeypatch.setattr(bounds, "compute_bounds", refuse)
        monkeypatch.setattr(cli, "compute_bounds", refuse)
        args = ["simulate", two_probe_path, "--policy", "fixed", "--lambda", "0.5,0.5",
                "--threshold", "0.99", "--trials", "200", "--seed", "1", "--threads", "1"]
        assert main(args) == 0
        assert capsys.readouterr().out.startswith("trials=200 ")


# ---------------------------------------------------------------------------
# sweep / exponents


class TestSweep:
    def test_fixed_rule_sweep_table(self, two_probe_path, tmp_path, capsys):
        prefix = str(tmp_path / "w")
        args = ["sweep", two_probe_path, "--policy", "fixed", "--lambda", "0.5,0.5",
                "--n", "6", "--L", "100,1000", "--trials", "1500", "--seed", "5",
                "--out", prefix]
        assert main(args) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert out_lines[0].startswith("L=100 ") and out_lines[1].startswith("L=1000 ")
        _, header, rows = read_csv(f"{prefix}.csv")
        assert header == ["L", "logL", "mean_tau", "se_tau", "pe", "se_pe",
                          "cost", "cost_over_logL", "n_truncated"]
        assert [r[0] for r in rows] == ["100", "1000"]
        assert all(line.endswith(" n_truncated=0") for line in out_lines)
        for r in rows:
            L, logL = float(r[0]), float(r[1])
            assert_allclose(logL, math.log(L), rtol=1e-8)
            assert_allclose(float(r[6]), float(r[2]) + L * float(r[4]), rtol=1e-7)
            assert_allclose(float(r[7]), float(r[6]) / logL, rtol=1e-7)
            assert r[8] == "0"

    def test_truncated_trials_are_reported(self, tmp_path, capsys):
        # rule [1, 0] never reaches the threshold, so every trial stops at
        # the safety horizon
        path = tmp_path / "blind.json"
        save_model(make_blind_model(), path)
        prefix = str(tmp_path / "blind")
        args = ["sweep", str(path), "--policy", "fixed", "--lambda", "1,0", "--threshold", "0.99",
                "--L", "1.5,3", "--trials", "64", "--seed", "5", "--out", prefix]
        assert main(args) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert len(out_lines) == 2
        assert all(line.endswith(" n_truncated=64") for line in out_lines)
        _, header, table = read_csv(f"{prefix}.csv")
        assert [r[header.index("n_truncated")] for r in table] == ["64", "64"]

    @pytest.mark.parametrize(
        "stop",
        [[], ["--n", "4", "--threshold", "0.9"]],
        ids=["no-stop-mode", "both-stop-modes"],
    )
    def test_usage_errors(self, two_probe_path, stop, capsys):
        args = ["sweep", two_probe_path, "--policy", "fixed", "--lambda", "0.5,0.5",
                *stop, "--L", "10", "--trials", "10", "--seed", "1"]
        assert main(args) == 4
        assert capsys.readouterr().err == (
            "active-ht: usage: fixed policies take exactly one of --n / --threshold\n"
        )

    def test_built_policy_rejects_a_horizon(self, two_probe_path, capsys):
        args = ["sweep", two_probe_path, "--policy", "sa", "--n", "5", "--L", "10",
                "--trials", "10", "--seed", "1"]
        assert main(args) == 4
        assert capsys.readouterr().err.startswith("active-ht: usage: --policy sa takes no")

    @pytest.mark.parametrize("penalties", ["1,100", "nan"])
    def test_bad_penalty_is_usage_error(self, two_probe_path, penalties, capsys):
        args = ["sweep", two_probe_path, "--policy", "sn", "--L", penalties,
                "--trials", "10", "--seed", "1"]
        assert main(args) == 4
        assert capsys.readouterr().err == (
            f"active-ht: usage: argument --L: penalties must be finite and exceed 1, got {penalties}\n"
        )

    def test_rerun_is_byte_identical(self, two_probe_path, tmp_path, capsys):
        args = ["sweep", two_probe_path, "--policy", "sn", "--L", "50,500",
                "--trials", "800", "--seed", "9"]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main([*args, "--out", a]) == 0
        assert main([*args, "--out", b]) == 0
        capsys.readouterr()
        with open(f"{a}.csv", "rb") as fa, open(f"{b}.csv", "rb") as fb:
            assert fa.read() == fb.read()


class TestExponents:
    def test_fixed_rule_slope(self, two_probe_path, tmp_path, capsys):
        prefix = str(tmp_path / "e")
        args = ["exponents", two_probe_path, "--policy", "fixed",
                "--lambda", "0.5,0.5", "--budgets", "4,8", "--trials", "4000",
                "--seed", "13", "--out", prefix]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.startswith("policy=fixed slope=")
        assert "lower_bound_only: false" in out.replace("=", ": ")
        _, header, rows = read_csv(f"{prefix}.csv")
        assert header == ["budget", "L", "mean_tau", "pe", "n_errors", "clean", "neg_log_pe"]
        assert [r[0] for r in rows] == ["4", "8"]
        # fixed-rule runs have no penalty
        assert all(r[1] == "nan" for r in rows)
        slope = float(out.split("slope=")[1].split()[0])
        assert slope > 0.0

    @pytest.mark.parametrize(
        "policy, budgets",
        [("sn", "nan,5"), ("sn", "inf,5"), ("sn", "0,5"), ("fixed", "2.5,4,6"), ("nn", "2.5,4")],
    )
    def test_bad_budgets_are_usage_errors(self, two_probe_path, policy, budgets, capsys):
        rule = ["--lambda", "0.5,0.5"] if policy == "fixed" else []
        args = ["exponents", two_probe_path, "--policy", policy, *rule, "--budgets", budgets,
                "--trials", "100", "--seed", "1"]
        assert main(args) == 4
        assert capsys.readouterr().err.startswith(f"active-ht: usage: {policy} budgets must be")

    @pytest.mark.parametrize("policy", ["sn", "sa"])
    def test_infinite_maxmin_reliability_is_an_assumption_failure(self, model_dir, policy, capsys):
        args = ["exponents", str(model_dir / "perfect_probe.json"), "--policy", policy,
                "--budgets", "4,8", "--trials", "100", "--seed", "1"]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "active-ht: assumption: safety horizon undefined: max-min reliability is infinite\n"
        )

    def test_built_policy_rejects_a_rule(self, two_probe_path, capsys):
        args = ["exponents", two_probe_path, "--policy", "nn", "--lambda", "0.5,0.5",
                "--budgets", "4,8", "--trials", "100", "--seed", "1"]
        assert main(args) == 4
        assert capsys.readouterr().err.startswith("active-ht: usage: --policy nn takes no")


@pytest.mark.parametrize(
    "command, flag, extra",
    [("sweep", "--L", ["--policy", "sa"]), ("exponents", "--budgets", ["--policy", "sn"]),
     ("simulate", "--lambda", ["--policy", "fixed", "--n", "4"])],
)
def test_empty_list_is_usage_error(two_probe_path, command, flag, extra, capsys):
    # An empty --L used to run no penalty, and an empty --budgets to fit no point, both exiting 0.
    args = [command, two_probe_path, *extra, flag, ",", "--trials", "100", "--seed", "1"]
    assert main(args) == 4
    assert capsys.readouterr().err == (
        f"active-ht: usage: argument {flag}: expected a comma-separated list of numbers, got ','\n"
    )


# ---------------------------------------------------------------------------
# manifest parameters and worker count


# Each run command's manifest parameters are its parsed flags minus the
# subcommand, the model file, --threads and --out.  A flag added to a command
# changes every manifest id it writes, so each dict is pinned exactly.
@pytest.mark.parametrize(
    "argv, parameters",
    [
        (
            ["simulate", "--policy", "fixed", "--lambda", "0.5,0.5", "--n", "6",
             "--trials", "50", "--seed", "7"],
            {"policy": "fixed", "lambda": [0.5, 0.5], "n": 6, "threshold": None,
             "trials": 50, "seed": 7, "record_trials": False},
        ),
        (
            ["sweep", "--policy", "fixed", "--lambda", "0.5,0.5", "--n", "3",
             "--L", "100,1000", "--trials", "50", "--seed", "5"],
            {"policy": "fixed", "L": [100.0, 1000.0], "lambda": [0.5, 0.5], "n": 3,
             "threshold": None, "trials": 50, "seed": 5},
        ),
        (
            ["exponents", "--policy", "fixed", "--lambda", "0.5,0.5", "--budgets", "4,8",
             "--trials", "500", "--seed", "13"],
            {"policy": "fixed", "budgets": [4.0, 8.0], "lambda": [0.5, 0.5],
             "trials": 500, "seed": 13},
        ),
    ],
    ids=["simulate", "sweep", "exponents"],
)
def test_manifest_parameters(two_probe_path, tmp_path, capsys, argv, parameters):
    prefix = str(tmp_path / "m")
    command, *flags = argv
    assert main([command, two_probe_path, *flags, "--threads", "1", "--out", prefix]) == 0
    capsys.readouterr()
    manifest = read_manifest(prefix)
    assert manifest["parameters"] == parameters
    assert not {"threads", "out", "model", "command"} & set(manifest["parameters"])
    assert manifest["command"] == command
    assert manifest["master_seed"] == parameters["seed"]
    assert manifest["threads"] == 1


def test_threads_flag_beats_env_beats_cpu_count(two_probe_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    monkeypatch.delenv("ACTIVE_HT_THREADS", raising=False)
    assert _threads_default(None) == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _threads_default(None) == 1
    monkeypatch.setenv("ACTIVE_HT_THREADS", "3")
    assert _threads_default(None) == 3
    assert _threads_default(2) == 2
    # values below 1 clamp to one worker
    assert _threads_default(0) == 1
    monkeypatch.setenv("ACTIVE_HT_THREADS", "-2")
    assert _threads_default(None) == 1
    # the CLI records the count it ran with in the manifest
    monkeypatch.setenv("ACTIVE_HT_THREADS", "2")
    args = ["simulate", two_probe_path, "--policy", "fixed", "--lambda", "0.5,0.5",
            "--n", "3", "--trials", "50", "--seed", "1"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main([*args, "--out", a]) == 0
    assert main([*args, "--threads", "1", "--out", b]) == 0
    capsys.readouterr()
    assert read_manifest(a)["threads"] == 2
    assert read_manifest(b)["threads"] == 1


# ---------------------------------------------------------------------------
# gains / binary


class TestGainsAndBinary:
    def test_gains_reports_dominating_action(self, model_dir, capsys):
        assert main(["gains", str(model_dir / "garbled.json")]) == 0
        out = capsys.readouterr().out
        assert "zero_adaptivity: true" in out
        assert "dominating_action: 0" in out

    def test_gains_without_dominance(self, two_probe_path, capsys):
        assert main(["gains", two_probe_path]) == 0
        out = capsys.readouterr().out
        assert "zero_adaptivity: false" in out
        assert "dominating_action: none" in out

    def test_binary_closed_forms(self, two_probe_path, capsys):
        assert main(["binary", two_probe_path]) == 0
        out = capsys.readouterr().out
        assert "logarithmic adaptivity gain: true" in out
        assert "best_reliability_1:" in out and "at actions [1]" in out

    def test_binary_indistinguishable_pair_is_an_assumption_failure(self, model_dir, capsys):
        assert main(["binary", str(model_dir / "twins.json")]) == 2
        assert capsys.readouterr().err.startswith(
            "active-ht: assumption: indistinguishable hypothesis pairs: (0, 1)"
        )

    def test_binary_rejects_three_hypotheses(self, model_dir, capsys):
        assert main(["binary", str(model_dir / "garbled.json")]) == 4
        assert capsys.readouterr().err.startswith(
            "active-ht: usage: binary subcommand requires M == 2"
        )


# ---------------------------------------------------------------------------
# oracle-check


class TestOracleCheck:
    def test_agreement_suite_passes(self, two_probe_path, capsys):
        args = ["oracle-check", two_probe_path, "--horizon", "5",
                "--trials", "20000", "--seed", "11", "--threads", "2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "agreement: true" in out
        assert "backward_dp:" in out and "mass_residual_max:" in out
        # merged count-vector states over 4 cells: sum of C(d + 3, 3), d = 0..5
        assert "exact_states: 126\n" in out

    def test_deep_horizon_agrees(self, two_probe_path, capsys):
        # pe ~ 4e-39 lies in a tail 2,000 trials cannot sample: each trial's
        # mass off the mode is positive but tiny, and with pe * trials < 1
        # the Monte Carlo is reported as unable to test the exact value
        args = ["oracle-check", two_probe_path, "--horizon", "500", "--lambda", "1,0",
                "--trials", "2000", "--seed", "3", "--threads", "1"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "agreement: unresolved" in out
        pe, se = re.search(r"monte_carlo: pe=(\S+) se=(\S+) ", out).groups()
        assert 0.0 < float(pe) < 1e-60 and float(se) > 0.0

    RESOLVABLE = ["--horizon", "20", "--lambda", "1,0", "--trials", "2000", "--seed", "3", "--threads", "1"]

    def test_resolvable_run_agrees(self, two_probe_path, capsys):
        # exact pe 4.4e-3, so about 9 errors expected among the trials
        assert main(["oracle-check", two_probe_path, *self.RESOLVABLE]) == 0
        assert "agreement: true" in capsys.readouterr().out

    def test_zero_exact_error_is_tested(self, tmp_path, capsys):
        # action 0 gives the hypotheses disjoint supports, so pe is exactly 0
        path = tmp_path / "separable.json"
        rows = [[[1.0, 0.0], [0.5, 0.5]], [[0.0, 1.0], [0.5, 0.5]]]
        save_model(ObservationModel(kernel=FiniteKernel(rows), prior=[0.5, 0.5], penalty=10.0), path)
        args = ["oracle-check", str(path), "--horizon", "3", "--lambda", "1,0", "--trials", "500", "--threads", "1"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "monte_carlo: pe=0 se=0 " in out and "agreement: true" in out

    def test_monte_carlo_off_by_five_se_disagrees(self, two_probe_path, capsys, monkeypatch):
        # the estimate moves to 5 SE past the 4-SE band's edge, on the side of
        # its observed gap, so it leaves the band whatever the draw
        exact_eval, run_trials, exact = cli.exact_eval, cli.run_trials, []

        def recorded(*args, **kwargs):
            result = exact_eval(*args, **kwargs)
            exact.append(result.pe)
            return result

        def shifted(*args, **kwargs):
            summary, records = run_trials(*args, **kwargs)
            side = 1.0 if summary.pe >= exact[0] else -1.0
            return dataclasses.replace(summary, pe=exact[0] + side * (4.0 + 5.0) * summary.se_pe), records

        monkeypatch.setattr(cli, "exact_eval", recorded)
        monkeypatch.setattr(cli, "run_trials", shifted)
        assert main(["oracle-check", two_probe_path, *self.RESOLVABLE]) == 1
        assert "agreement: false" in capsys.readouterr().out

    def test_node_budget_exit_code(self, two_probe_path, capsys):
        args = ["oracle-check", two_probe_path, "--horizon", "8",
                "--trials", "10", "--nodes", "50"]
        assert main(args) == 3
        assert capsys.readouterr().err.startswith("active-ht: budget:")

    def test_gaussian_model_rejected(self, tmp_path, capsys):
        from conftest import make_gaussian_binary_model

        path = tmp_path / "gauss.json"
        save_model(make_gaussian_binary_model(), path)
        assert main(["oracle-check", str(path), "--horizon", "4"]) == 4
        assert capsys.readouterr().err.startswith("active-ht: usage:")


# ---------------------------------------------------------------------------
# README synopsis


def _readme_synopsis_flags():
    """{subcommand: its --flags} from the README's command-line synopsis, RUN expanded."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    synopsis, run = {}, set()
    # an entry starts at column 0; its continuation lines are indented
    for entry in re.split(r"\n(?=\S)", block.strip()):
        tokens = entry.split()
        found = set(re.findall(r"--[A-Za-z][\w-]*", entry))
        if tokens[0] == "RUN":
            run = found
        else:
            synopsis[tokens[1]] = (found, "RUN" in tokens)
    return {name: found | (run if uses_run else set()) for name, (found, uses_run) in synopsis.items()}


def test_readme_synopsis_lists_every_parser_flag():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: {opt for action in p._actions for opt in action.option_strings if opt.startswith("--")} - {"--help"}
        for name, p in sub.choices.items()
    }
    assert _readme_synopsis_flags() == parsed


# ---------------------------------------------------------------------------
# console script packaging

# What an installer's generated ``active-ht`` launcher does: load the
# ``module:attr`` entry point and hand its return value to ``sys.exit``.
# The entry point's name and value arrive as the first two arguments.
_LAUNCHER = """
import sys
from importlib.metadata import EntryPoint
name, value = sys.argv[1:3]
del sys.argv[1:3]
sys.argv[0] = name
sys.exit(EntryPoint(name, value, "console_scripts").load()())
"""


def _declared_script(name):
    """The ``[project.scripts]`` value that ``pyproject.toml`` declares for ``name``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def _run_script(name, *args, cwd):
    """Run the declared console script ``name`` as its own process."""
    return run_python("-c", _LAUNCHER, name, _declared_script(name), *args, cwd=cwd)


def test_console_script_entry_point(two_probe_path, tmp_path):
    proc = _run_script("active-ht", "validate", two_probe_path, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "usable_for_bounds: true" in proc.stdout
    # main()'s return code must become the process exit status.
    missing = str(tmp_path / "no_such_model.json")
    proc = _run_script("active-ht", "validate", missing, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("active-ht: validation:")
