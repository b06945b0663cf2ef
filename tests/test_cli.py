import csv
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import blocksched
from blocksched.cli import run

from conftest import FIXDIR


def read_report(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def ex1_path(tmp_path):
    dst = tmp_path / "ex1.json"
    shutil.copy(str(FIXDIR / "ex1.json"), dst)
    return str(dst)


@pytest.fixture
def table7_path(tmp_path):
    dst = tmp_path / "table7.json"
    shutil.copy(str(FIXDIR / "table7.json"), dst)
    return str(dst)


class TestDispatch:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_one_process_matches_fresh_processes(self, ex1_path, tmp_path,
                                                 capsys):
        # run() builds its parser once per process: a call that fails to
        # parse, then good calls, print and write what fresh processes do
        def argv(side):
            return [["exact", "--instance", ex1_path, "--scope", "horizon",
                     "--csv", str(tmp_path / f"{side}.csv")],
                    ["simulate", "--instance", ex1_path, "--method", "alg4",
                     "--paths", "20", "--output",
                     str(tmp_path / f"{side}.json")]]

        assert run(["exact", "--instance", ex1_path, "--scope", "nope"]) == 2
        capsys.readouterr()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(blocksched.__file__).parents[1])]
            + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        for here, fresh in zip(argv("here"), argv("fresh")):
            assert run(here) == 0
            out = subprocess.run([sys.executable, "-m", "blocksched.cli"]
                                 + fresh, env=env, capture_output=True,
                                 check=True).stdout
            assert capsys.readouterr().out.encode() == out
        for suffix in (".csv", ".json"):
            assert ((tmp_path / f"here{suffix}").read_bytes()
                    == (tmp_path / f"fresh{suffix}").read_bytes())

    def test_missing_file_domain_error(self, tmp_path, capsys):
        assert run(["validate", "--instance", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_file_that_is_not_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["bounds", "--instance", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not valid JSON")

    def test_validate_ok(self, ex1_path, capsys):
        assert run(["validate", "--instance", ex1_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] and payload["errors"] == []

    def test_template_alg4_emits_json_and_csv(self, ex1_path, tmp_path):
        out = tmp_path / "tpl.json"
        csv_path = tmp_path / "timeline.csv"
        code = run(["template", "--method", "alg4", "--instance", ex1_path,
                    "--k", "2", "--output", str(out), "--csv", str(csv_path)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "alg4"
        assert len(payload["slots"]) == 18
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("block,slot,type,tau")
        assert len(lines) == 1 + 18 + 1  # header, slots, TOTAL
        assert lines[-1].startswith("TOTAL")

    def test_template_alg2_emits_the_gap_filled_block(self, ex1_path,
                                                      capsys):
        assert run(["template", "--method", "alg2",
                    "--instance", ex1_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "alg2"
        assert payload["block_bounds"] == [0, 9]
        assert [s["type"] for s in payload["slots"]] == [
            "T3", "T1", "T4", "T1", "T1", "T4", "T2", "T4", "T2"]
        assert payload["slots"][0]["tau"] == "0"

    def test_template_alg1_emits_the_sorted_block(self, ex1_path, capsys):
        assert run(["template", "--method", "alg1",
                    "--instance", ex1_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "alg1"
        assert payload["block_bounds"] == [0, 9]
        assert [s["type"] for s in payload["slots"]] == [
            "T3", "T4", "T4", "T4", "T2", "T2", "T1", "T1", "T1"]
        # appointments are the stage-1 mean prefix sums
        assert [s["tau"] for s in payload["slots"]] == [
            "0", "20", "35", "50", "65", "80", "95", "105", "115"]

    def test_bounds_csv_without_output_goes_to_the_output_dir(
            self, ex1_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "reports"
        out.mkdir()
        monkeypatch.setenv("BLOCKSCHED_OUT", str(out))
        assert run(["bounds", "--instance", ex1_path, "--format", "csv"]) == 0
        assert capsys.readouterr().out == ""
        assert [p.name for p in out.iterdir()] == ["bounds.csv"]
        (row,) = read_report(out / "bounds.csv")
        assert row["w_star"] == "0.5" and row["horizon_bound"] == "260"

    def test_bounds_contains_w_star(self, ex1_path, capsys):
        assert run(["bounds", "--instance", ex1_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["w_star"] == "0.5"
        assert payload["closed_form_wait"] == "90"
        assert payload["block_bound"] == "120"
        assert payload["horizon_bound"] == "260"

    def test_exact_block(self, ex1_path, tmp_path):
        out = tmp_path / "sol.json"
        assert run(["exact", "--instance", ex1_path, "--scope", "block",
                    "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["optimal"] is True

    def test_exact_bnb_certifies_a_thousand_slot_horizon(self, ex1_path,
                                                         capsys):
        assert run(["exact", "--instance", ex1_path, "--scope", "horizon",
                    "--k", "120", "--mode", "branch_and_bound"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimal"] is True
        assert Fraction(payload["objective"]) == 153395
        assert len(payload["template"]["slots"]) == 1080

    @pytest.mark.parametrize("limit, stderr", [
        ([], ""),
        (["--node-limit", "1000"], "warning: the node limit (1000 nodes) "
         "ran out; the schedule is not certified optimal\n")],
        ids=["certified", "node-limit"])
    def test_exact_names_the_limit_that_left_it_uncertified(
            self, table7_path, limit, stderr):
        # in a fresh process, so stderr holds all the run wrote there
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(blocksched.__file__).parents[1])]
            + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.run([sys.executable, "-m", "blocksched.cli", "exact",
                               "--instance", table7_path, *limit], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == stderr
        assert json.loads(proc.stdout)["optimal"] is not bool(limit)

    def test_balance_example2(self, tmp_path, capsys):
        dst = tmp_path / "ex2.json"
        shutil.copy(str(FIXDIR / "ex2.json"), dst)
        assert run(["balance", "--instance", str(dst)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overflow_list"] == ["T2", "T2", "T1", "T2"]
        assert payload["final_L_a"] == "125"

    def test_noshow_lf(self, table7_path, tmp_path, capsys):
        csv_path = tmp_path / "alpha.csv"
        assert run(["noshow", "--instance", table7_path, "--plan", "lf",
                    "--p-plus", "0.2", "--p", "0.3", "--R", "150",
                    "--csv", str(csv_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["path_count"] == 2**20
        assert payload["mass"] == "1"
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "alpha,cost_per_patient"
        assert len(rows) == 11


class TestCompare:
    def test_rows_self_consistent_and_deterministic(self, ex1_path, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["compare", "--instance", ex1_path, "--methods",
                "alg3,alg4,fcfa", "--paths", "50", "--seed", "7",
                "--dist", "uniform", "--w", "0.2",
                "--alphas", "0.1,0.5,1", "--overtimes", "1.2,1.8"]
        assert run(args + ["--output", str(out1)]) == 0
        assert run(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = read_report(out1)
        assert len(rows) == 3 * 3 * 2
        for row in rows:
            objective = Fraction(row["objective"])
            recombined = (
                Fraction(row["alpha"]) * (Fraction(row["wait_stage1"])
                                          + Fraction(row["wait_stage2"]))
                + Fraction(row["beta_a"]) * Fraction(row["pa_idle"])
                + Fraction(row["beta_p"]) * Fraction(row["p_idle"])
                + Fraction(row["o_a"]) * Fraction(row["pa_overtime"])
                + Fraction(row["o_p"]) * Fraction(row["p_overtime"]))
            assert objective == recombined


    def test_grid_rows_price_the_printed_means(self, ex1_path, tmp_path):
        # a non-default grid, and a beta that is not 1: each row's weight
        # cells and objective are those of its own weights
        from blocksched import CostWeights
        from blocksched.cli import RESULT_METRICS
        from blocksched.timeline import METRICS, weighted_cost
        from blocksched.units import fmt_number
        out = tmp_path / "grid.csv"
        alphas, overtimes, beta = ("0.15", "1", "0.333"), ("2", "0.5"), "0.75"
        assert run(["compare", "--instance", ex1_path, "--paths", "40",
                    "--seed", "4", "--alphas", ",".join(alphas),
                    "--overtimes", ",".join(overtimes), "--beta", beta,
                    "--output", str(out)]) == 0
        rows = read_report(out)
        grid = sorted((Fraction(a), Fraction(o))
                      for a in alphas for o in overtimes)
        assert [(row["method"], Fraction(row["alpha"]), Fraction(row["o_a"]))
                for row in rows] == [(m, a, o) for m in ("alg3", "alg4", "fcfa")
                                     for a, o in grid]
        column = dict((m, name) for name, m in RESULT_METRICS)
        for row in rows:
            weights = CostWeights(Fraction(row["alpha"]), Fraction(beta),
                                  Fraction(beta), Fraction(row["o_a"]),
                                  Fraction(row["o_a"]))
            assert {key: row[key] for key in ("alpha", "beta_a", "beta_p",
                                              "o_a", "o_p")} == {
                "alpha": fmt_number(weights.alpha),
                "beta_a": fmt_number(weights.beta_a),
                "beta_p": fmt_number(weights.beta_p),
                "o_a": fmt_number(weights.o_a),
                "o_p": fmt_number(weights.o_p)}
            assert row["objective"] == fmt_number(weighted_cost(
                weights, (Fraction(row[column[m]]) for m in METRICS)))


class TestStochasticCommands:
    def test_simulate(self, ex1_path, capsys):
        assert run(["simulate", "--instance", ex1_path, "--method", "alg4",
                    "--paths", "20", "--seed", "3", "--dist", "uniform",
                    "--w", "0.2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["paths"] == 20
        assert "objective" in payload["mean"]

    def test_saa_alg4_inner(self, ex1_path, tmp_path):
        out = tmp_path / "saa.json"
        csv_path = tmp_path / "reps.csv"
        assert run(["saa", "--instance", ex1_path, "--K", "4", "--nu0", "2",
                    "--nu-max", "4", "--inner", "alg4", "--seed", "5",
                    "--dist", "uniform", "--w", "0.2",
                    "--output", str(out), "--csv", str(csv_path)]) == 0
        payload = json.loads(out.read_text())
        assert payload["replications_used"] >= 2
        assert len(csv_path.read_text().strip().splitlines()) == \
            1 + payload["replications_used"]

    def test_exact_saa_scope(self, ex1_path, tmp_path):
        out = tmp_path / "sol.json"
        assert run(["exact", "--instance", ex1_path, "--scope", "saa",
                    "--K", "3", "--seed", "2", "--dist", "uniform",
                    "--w", "0.2", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["optimal"] is True

    def test_exact_saa_scope_defaults(self, ex1_path, capsys):
        assert run(["exact", "--instance", ex1_path, "--scope", "saa"]) == 0
        implicit = capsys.readouterr().out
        assert run(["exact", "--instance", ex1_path, "--scope", "saa",
                    "--K", "15", "--seed", "0", "--dist", "normal"]) == 0
        assert capsys.readouterr().out == implicit

    def test_saa_exact_inner_solves_by_branch_and_bound(self, ex1_path,
                                                        capsys, monkeypatch):
        from blocksched import exact
        modes = []
        solve = exact.solve_saa_replication

        def spy(inst, weights, scenario_set, config):
            modes.append(config.mode)
            return solve(inst, weights, scenario_set, config)
        monkeypatch.setattr(exact, "solve_saa_replication", spy)
        assert run(["saa", "--instance", ex1_path, "--K", "2", "--nu0", "2",
                    "--nu-max", "2"]) == 0
        assert modes and set(modes) == {"branch_and_bound"}

    @pytest.mark.parametrize("tau_rule", ["earliest", "quantile_grid"])
    def test_exact_saa_bnb_matches_enumerate(self, ex1_path, capsys,
                                             tau_rule):
        payloads = {}
        for mode in ("enumerate", "branch_and_bound"):
            assert run(["exact", "--instance", ex1_path, "--scope", "saa",
                        "--mode", mode, "--tau-rule", tau_rule, "--K", "4",
                        "--dist", "uniform", "--w", "0.4"]) == 0
            payloads[mode] = json.loads(capsys.readouterr().out)
        enum, bnb = payloads["enumerate"], payloads["branch_and_bound"]
        assert enum["optimal"] is bnb["optimal"] is True
        assert (enum["objective"], enum["template"]) == (bnb["objective"],
                                                         bnb["template"])
        assert bnb["nodes_explored"] < enum["nodes_explored"]


class TestRejectedInputs:
    def test_uniform_width_above_two_exits_one(self, table7_path, capsys):
        assert run(["simulate", "--instance", table7_path, "--method", "alg4",
                    "--paths", "50", "--dist", "uniform", "--w", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "width 3" in captured.err

    @pytest.mark.parametrize("command", [
        ["simulate", "--method", "alg4", "--paths", "5"],
        ["compare", "--paths", "5"],
        ["saa", "--inner", "alg4", "--K", "2", "--nu0", "2", "--nu-max", "2"],
        ["exact", "--scope", "saa", "--K", "2"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("dist", [[], ["--dist", "normal"]],
                             ids=["default", "normal"])
    def test_width_under_normal_family_exits_one(self, ex1_path, capsys,
                                                 command, dist):
        assert run(command + dist + ["--instance", ex1_path, "--seed", "1",
                                     "--w", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --w applies to --dist uniform")

    def test_uniform_width_defaults_to_one_fifth(self, ex1_path, capsys):
        outputs = []
        for width in ([], ["--w", "0.2"]):
            assert run(["simulate", "--instance", ex1_path, "--method",
                        "alg4", "--paths", "20", "--seed", "3", "--dist",
                        "uniform"] + width) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_negative_seed_exits_one(self, ex1_path, capsys):
        assert run(["simulate", "--instance", ex1_path, "--method", "alg4",
                    "--paths", "5", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: seeds must be non-negative integers, "
                                "got -1\n")

    @pytest.mark.parametrize("scope, flag, value", [
        ("saa", "--k", "3"),
        ("block", "--k", "2"),
        ("block", "--K", "5"),
        ("block", "--dist", "uniform"),
        ("block", "--w", "0.4"),
        ("block", "--seed", "3"),
        ("horizon", "--K", "5"),
        ("horizon", "--dist", "uniform"),
        ("horizon", "--w", "0.4"),
        ("horizon", "--seed", "3"),
    ])
    def test_exact_option_its_scope_does_not_use_exits_one(
            self, ex1_path, capsys, scope, flag, value):
        assert run(["exact", "--instance", ex1_path, "--scope", scope,
                    flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} applies to --scope ")

    def test_saa_confidence_without_table_exits_before_drawing(
            self, ex1_path, capsys, monkeypatch):
        from blocksched import stochastic
        drawn = []
        monkeypatch.setattr(stochastic, "draw_scenarios",
                            lambda *a, **k: drawn.append(a))
        assert run(["saa", "--instance", ex1_path, "--inner", "alg4",
                    "--conf", "0.975"]) == 1
        assert drawn == []
        assert capsys.readouterr().err.startswith("error:")

    def test_horizon_budget_out_has_no_traceback(self, tmp_path, capsys):
        # a complete ex2 horizon is 26 slots deep, so none fits in the
        # budget (an incumbent case is in test_exact)
        ex2_path = tmp_path / "ex2.json"
        shutil.copy(str(FIXDIR / "ex2.json"), ex2_path)
        assert run(["exact", "--instance", str(ex2_path), "--scope", "horizon",
                    "--mode", "enumerate", "--node-limit", "20"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the node limit (20 nodes) ran out")

    def test_tau_rule_on_block_scope_exits_one(self, ex1_path, capsys):
        for scope in ("block", "horizon"):
            for mode in ("enumerate", "branch_and_bound"):
                assert run(["exact", "--instance", ex1_path, "--scope", scope,
                            "--mode", mode, "--tau-rule",
                            "quantile_grid"]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == (
                    "error: --tau-rule quantile_grid applies to --scope saa "
                    "only; the deterministic models pin appointments to the "
                    "earliest starts\n")

    @pytest.mark.parametrize("scope", ["block", "horizon"])
    def test_earliest_tau_rule_on_deterministic_scopes_changes_nothing(
            self, ex1_path, capsys, scope):
        outputs = []
        for rule in ([], ["--tau-rule", "earliest"]):
            assert run(["exact", "--instance", ex1_path, "--scope",
                        scope] + rule) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", [
        ["template", "--method", "fcfa"],
        ["simulate", "--method", "fcfa", "--paths", "5"],
        ["simulate", "--method", "alg4", "--paths", "5"],
        ["compare", "--paths", "5"],
    ], ids=lambda command: "-".join(command[:3:2]))
    def test_negative_seed_names_the_seed_for_every_method(
            self, ex1_path, capsys, command):
        assert run(command + ["--instance", ex1_path, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: seeds must be non-negative integers, "
                                "got -1\n")

    @pytest.mark.parametrize("command", [
        ["exact", "--scope", "saa"],
        ["saa", "--nu0", "2", "--nu-max", "2"],
    ])
    def test_saa_budget_out_before_any_sequence_exits_one(self, ex1_path,
                                                          capsys, command):
        assert run(command + ["--instance", ex1_path, "--K", "3",
                              "--time-limit", "1e-9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the time limit (1e-09 s) ran "
                                       "out before any complete schedule")

    @pytest.mark.parametrize("command", [
        ["exact", "--scope", "saa", "--K", "0"],
        ["exact", "--scope", "saa", "--K", "-1"],
        ["saa", "--K", "0", "--nu0", "2", "--nu-max", "2"],
        ["saa", "--K", "-1", "--nu0", "2", "--nu-max", "2", "--inner", "alg4"],
    ])
    def test_fewer_than_one_scenario_exits_one(self, ex1_path, capsys,
                                               command):
        assert run(command + ["--instance", ex1_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: K = ")
        assert "at least one is needed" in captured.err

    @pytest.mark.parametrize("command", [
        ["simulate", "--method", "alg4"], ["compare"]], ids=lambda c: c[0])
    @pytest.mark.parametrize("paths", ["0", "-1"])
    def test_fewer_than_one_path_names_paths_before_drawing(
            self, ex1_path, tmp_path, capsys, monkeypatch, command, paths):
        from blocksched import stochastic
        drawn = []
        monkeypatch.setattr(stochastic, "draw_scenarios",
                            lambda *a, **k: drawn.append(a))
        out = tmp_path / "out"
        assert run(command + ["--instance", ex1_path, "--paths", paths,
                              "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert drawn == [] and captured.out == "" and not out.exists()
        assert captured.err == (f"error: --paths {paths}: at least one "
                                "sample path is needed\n")

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_horizon_with_fewer_than_one_block_exits_one(self, ex1_path,
                                                         capsys, k):
        assert run(["exact", "--instance", ex1_path, "--scope", "horizon",
                    "--k", k]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: blocks: must be >= 1\n"

    def test_directory_as_instance_or_output_exits_one(self, ex1_path,
                                                       tmp_path, capsys):
        assert run(["validate", "--instance", str(tmp_path)]) == 1
        assert run(["validate", "--instance", ex1_path,
                    "--output", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("error:") and "Is a directory" in line
                   for line in lines)

    @pytest.mark.parametrize("command, message", [
        (["exact", "--time-limit", "nan"],
         "error: time_limit must be positive, not nan\n"),
        (["saa", "--inner", "alg4", "--K", "3", "--k-step", "-5",
          "--nu0", "2", "--nu-max", "2"],
         "error: k_step must be >= 1, not -5\n"),
        (["saa", "--inner", "alg4", "--k-step", "0"],
         "error: k_step must be >= 1, not 0\n"),
        (["saa", "--inner", "alg4", "--nu-max", "1"],
         "error: nu_max 1 is below nu0 5\n"),
    ])
    def test_limits_and_rounds_that_cannot_work_exit_before_drawing(
            self, ex1_path, capsys, monkeypatch, command, message):
        from blocksched import stochastic
        drawn = []
        monkeypatch.setattr(stochastic, "draw_scenarios",
                            lambda *a, **k: drawn.append(a))
        assert run(command + ["--instance", ex1_path]) == 1
        captured = capsys.readouterr()
        assert drawn == [] and captured.out == ""
        assert captured.err == message

    @pytest.mark.parametrize("command, flag, value", [
        (["noshow"], "--p", "1/0"),
        (["noshow"], "--p-plus", "x"),
        (["noshow"], "--o", "1/0"),
        (["noshow"], "--beta", "1/0"),
        (["noshow"], "--alpha-grid", "0.1,1/0"),
        (["compare"], "--alphas", "0.5,x"),
        (["compare"], "--overtimes", "1/0"),
        (["compare"], "--beta", "x"),
        (["simulate", "--method", "alg4", "--dist", "uniform"], "--w", "1/0"),
    ])
    def test_malformed_fraction_flag_exits_one(self, ex1_path, capsys,
                                               command, flag, value):
        assert run(command + ["--instance", ex1_path, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        bad = value.split(",")[-1]
        assert captured.err == (f"error: {flag} {bad}: must be a number or "
                                "a fraction with a nonzero denominator\n")

    @pytest.mark.parametrize("command, flag, value", [
        (["compare"], "--alphas", "0.5,-1"),
        (["compare"], "--overtimes", "-1"),
        (["compare"], "--beta", "-2"),
        (["noshow"], "--alpha-grid", "-1"),
        (["noshow"], "--beta", "-1"),
        (["noshow"], "--o", "-1"),
    ])
    def test_negative_weight_flag_exits_one(self, ex1_path, capsys,
                                            monkeypatch, command, flag, value):
        from blocksched import stochastic
        drawn = []
        monkeypatch.setattr(stochastic, "draw_scenarios",
                            lambda *a, **k: drawn.append(a))
        assert run(command + ["--instance", ex1_path, flag, value]) == 1
        captured = capsys.readouterr()
        assert drawn == [] and captured.out == ""
        bad = value.split(",")[-1]
        assert captured.err == (f"error: {flag} {bad}: a cost weight must "
                                "not be negative\n")


    @pytest.mark.parametrize("command, message", [
        (["template", "--method", "alg1", "--k", "3"],
         "error: --k applies to alg3, alg4 and fcfa only; alg1 builds one "
         "block\n"),
        (["template", "--method", "alg2", "--k", "1"],
         "error: --k applies to alg3, alg4 and fcfa only; alg2 builds one "
         "block\n"),
        (["simulate", "--method", "alg1", "--k", "3", "--paths", "50"],
         "error: --k applies to alg3, alg4 and fcfa only; alg1 builds one "
         "block\n"),
        (["template", "--method", "alg1", "--seed", "3"],
         "error: --seed applies to --method fcfa only; alg1 draws nothing\n"),
        (["template", "--method", "alg4", "--seed", "0"],
         "error: --seed applies to --method fcfa only; alg4 draws nothing\n"),
    ])
    def test_flag_the_method_does_not_read_exits_one(self, ex1_path,
                                                     tmp_path, capsys,
                                                     command, message):
        out = tmp_path / "out.json"
        assert run(command + ["--instance", ex1_path,
                              "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message
        assert not out.exists()

    def test_fcfa_template_reads_seed_and_k(self, ex1_path, capsys):
        def template(*flags):
            assert run(["template", "--method", "fcfa", "--instance",
                        ex1_path, *flags]) == 0
            return json.loads(capsys.readouterr().out)

        assert template() == template("--seed", "0")
        assert template("--seed", "1") != template("--seed", "0")
        assert len(template("--k", "3")["block_bounds"]) == 4

    @pytest.mark.parametrize("flag, value", [
        ("--methods", ""), ("--methods", ","), ("--alphas", ""),
        ("--overtimes", ","),
    ])
    def test_empty_compare_list_exits_before_drawing(self, ex1_path,
                                                     tmp_path, capsys,
                                                     monkeypatch, flag,
                                                     value):
        from blocksched import stochastic
        drawn = []
        monkeypatch.setattr(stochastic, "draw_scenarios",
                            lambda *a, **k: drawn.append(a))
        out = tmp_path / "compare.csv"
        assert run(["compare", "--instance", ex1_path, flag, value,
                    "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert drawn == [] and captured.out == "" and not out.exists()
        assert captured.err == (f"error: {flag} is empty: give at least one "
                                "value\n")

    def test_unknown_compare_method_exits_before_drawing(self, ex1_path,
                                                         tmp_path, capsys,
                                                         monkeypatch):
        from blocksched import stochastic
        drawn = []
        monkeypatch.setattr(stochastic, "draw_scenarios",
                            lambda *a, **k: drawn.append(a))
        out = tmp_path / "compare.csv"
        assert run(["compare", "--instance", ex1_path, "--methods",
                    "alg3,nope", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert drawn == [] and captured.out == "" and not out.exists()
        assert captured.err == "error: unknown method: nope\n"

    @pytest.mark.parametrize("value", ["", ","])
    def test_empty_noshow_alpha_grid_exits_one(self, ex1_path, tmp_path,
                                               capsys, value):
        out = tmp_path / "noshow.csv"
        assert run(["noshow", "--instance", ex1_path, "--alpha-grid", value,
                    "--csv", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == ("error: --alpha-grid is empty: give at least "
                                "one value\n")


@pytest.mark.parametrize("fixture, args, certified", [
    # the budget cuts every table7 replication short
    ("table7", ["--inner", "exact", "--K", "3", "--node-limit", "1000"], False),
    ("ex1", ["--inner", "exact", "--K", "2", "--dist", "uniform"], True),
    # a fixed template bounds the replication optimum, never certifies it,
    # and no search of it runs out
    ("ex1", ["--inner", "alg4", "--K", "2"], False),
])
def test_saa_reports_whether_replications_certified(fixture, args, certified,
                                                    tmp_path, capsys):
    path = tmp_path / f"{fixture}.json"
    shutil.copy(str(FIXDIR / f"{fixture}.json"), path)
    assert run(["saa", "--instance", str(path), "--nu0", "2", "--nu-max", "2"]
               + args) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["all_inner_optimal"] is certified
    # each uncertified replication of the reported K is named on stderr
    limit = "node limit (1000 nodes)" if "--node-limit" in args else None
    assert captured.err == "".join(
        f"warning: K={report['K']} replication {u}: the {limit} ran out; "
        "psi_bar is not a valid bound\n" for u in (1, 2) if limit)


# runs the CLI on argv in this fresh process, then writes its peak RSS in KB
# as the last line of stderr
RUN_AND_PEAK = """\
import resource, sys
from blocksched.cli import run
code = run(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("n_types, fits", [(24, False), (12, True)])
@pytest.mark.parametrize("scope", ["saa", "block"])
def test_saa_floor_table_bound_stops_before_the_search(tmp_path, scope,
                                                        n_types, fits):
    # one patient of each of n Q+ types: the counts table has 2^n codes of n
    # types, and the saa model's physician floor table 2^n codes of K=1;
    # the counts table passes TABLE_ELEMENTS (2^23) at 24 types, so either
    # model stops before its first layer; at 12 types branch and bound
    # certifies
    path = instance_file(tmp_path, types=[
        {"name": f"P{i}", "lambda_mean": 5 + i, "lambda_sd": 1,
         "mu_mean": 10 + i, "mu_sd": 2, "ratio": 1} for i in range(n_types)])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(blocksched.__file__).parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_AND_PEAK, "exact", "--instance", path,
         "--scope", scope, "--mode", "branch_and_bound"]
        + (["--K", "1"] if scope == "saa" else []),
        env=env, capture_output=True, text=True)
    *err, peak_kb = proc.stderr.splitlines()
    assert "Traceback" not in proc.stderr and int(peak_kb) < 100 * 1024
    if fits:
        assert proc.returncode == 0 and err == []
        assert json.loads(proc.stdout)["optimal"] is True
    else:
        assert proc.returncode == 1 and proc.stdout == ""
        assert err == [f"error: the table limit ({1 << 23} elements) ran "
                       "out before any complete schedule was found; it is "
                       "a fixed memory bound that no option raises"]


@pytest.mark.parametrize("command", [
    ["exact", "--scope", "saa", "--K", "2"],
    ["saa", "--K", "2", "--nu0", "2", "--nu-max", "2"],
    ["compare", "--paths", "5"],
], ids=" ".join)
def test_instance_with_no_patients_has_no_traceback(tmp_path, capsys,
                                                    command):
    # every ratio 0: the block would be empty, so the scenario draws would
    # have no columns; the instance check names the ratio first
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "types": [{"name": "A", "lambda_mean": 10, "lambda_sd": 0,
                   "mu_mean": 15, "mu_sd": 0, "ratio": 0}],
        "costs": {"alpha": 1, "beta_a": 1, "beta_p": 1, "o_a": 1, "o_p": 1},
        "regular_time": 300, "blocks": 1}))
    assert run(command + ["--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: types[0] (A): ratio must be >= 1\n"


def test_validate_hard_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "types": [{"name": "A", "lambda_mean": 0, "lambda_sd": 0,
                   "mu_mean": 0, "mu_sd": 0, "ratio": 1}],
        "costs": {"alpha": 1, "beta_a": 1, "beta_p": 1, "o_a": 1, "o_p": 1},
        "regular_time": 300, "blocks": 1}))
    assert run(["validate", "--instance", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["ok"]


class TestNoshowCommand:
    def test_k_overbooks_the_first_block_of_the_horizon(self, table7_path,
                                                        capsys):
        assert run(["noshow", "--instance", table7_path, "--plan", "lf",
                    "--k", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_scheduled"] == 35
        assert payload["mass"] == "1"

    @pytest.mark.parametrize("flag, value", [
        ("--p", "-0.5"), ("--p", "3/2"), ("--p-plus", "2"),
        ("--p-plus", "11/10")])
    def test_no_show_probability_outside_unit_interval_names_the_flag(
            self, table7_path, capsys, flag, value):
        assert run(["noshow", "--instance", table7_path, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {flag} {value}: a no-show "
                                "probability must be in [0, 1]\n")

    @pytest.mark.parametrize("R", ["-5", "0.05", "1/0"])
    def test_negative_off_grid_or_malformed_R_exits_one(self, table7_path,
                                                        capsys, R):
        assert run(["noshow", "--instance", table7_path, "--R", R]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --R {R}:")


def instance_file(tmp_path, types=None, **fields):
    """ex1 as a file, with its types or top-level fields replaced."""
    data = json.loads((FIXDIR / "ex1.json").read_text())
    if types is not None:
        data["types"] = types
    data.update(fields)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("command", [
    ["template", "--method", "alg1"], ["template", "--method", "alg2"],
    ["template", "--method", "alg4", "--csv", "timeline.csv"],
    ["noshow", "--plan", "lf"], ["noshow", "--plan", "none"],
    ["noshow", "--plan", "ff", "--k", "2"],
    ["balance"], ["bounds"], ["bounds", "--format", "csv"],
    ["exact", "--scope", "block"], ["exact", "--scope", "horizon"],
    ["exact", "--scope", "saa", "--K", "2"],
    ["saa", "--K", "2", "--nu0", "2", "--nu-max", "2"],
    ["saa", "--inner", "alg4", "--K", "2", "--nu0", "2", "--nu-max", "2"],
    ["simulate", "--method", "alg1", "--paths", "5"],
    ["compare", "--methods", "alg1,alg2", "--paths", "5"]],
    ids=" ".join)
def test_invalid_instance_names_its_field_before_any_template(
        tmp_path, capsys, monkeypatch, command):
    # every command but validate checks the instance as it loads it: a
    # negative stage-1 mean must be named as validate names it, not found
    # while a template is built or a solver runs, and nothing may be written
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BLOCKSCHED_OUT", raising=False)
    types = json.loads((FIXDIR / "ex1.json").read_text())["types"]
    types[0]["lambda_mean"] = -5
    path = instance_file(tmp_path, types=types)
    assert run(command + ["--instance", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: types[0] (T1): nonpositive stage-1 time\n"
    assert [p.name for p in tmp_path.iterdir()] == ["instance.json"]


def test_validate_names_the_field_on_stdout(tmp_path, capsys):
    types = json.loads((FIXDIR / "ex1.json").read_text())["types"]
    types[0]["lambda_mean"] = -5
    assert run(["validate", "--instance",
                instance_file(tmp_path, types=types)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["errors"] == [
        "types[0] (T1): nonpositive stage-1 time"]


@pytest.mark.parametrize("command", ["validate", "exact"])
@pytest.mark.parametrize("section, key, value, message", [
    ("costs", "alpha", float("inf"), "costs.alpha: must be a finite number, "
     "not inf"),
    ("costs", "alpha", float("nan"), "costs.alpha: must be a finite number, "
     "not nan"),
    ("types", "lambda_mean", float("inf"), "types[0].lambda_mean: must be a "
     "finite number, not inf"),
    ("types", "lambda_sd", float("-inf"), "types[0].lambda_sd: must be a "
     "finite number, not -inf"),
    (None, "regular_time", float("nan"), "instance.regular_time: must be a "
     "finite number, not nan"),
], ids=["alpha-inf", "alpha-nan", "lambda_mean-inf", "lambda_sd-minus-inf",
        "regular_time-nan"])
def test_non_finite_number_names_its_field(tmp_path, capsys, command, section,
                                           key, value, message):
    # json writes these as Infinity, -Infinity and NaN, which it also reads
    data = json.loads((FIXDIR / "ex1.json").read_text())
    {"costs": data["costs"], "types": data["types"][0], None: data}[
        section][key] = value
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    assert run([command, "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


class TestTimesBeyondTheLimit:
    """Times above 10^6 minutes would wrap in the int64 arithmetic; the
    loader and --R reject them, naming the field or flag."""

    def check_rejected(self, capsys, argv, message):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", [
        ["simulate", "--method", "alg4", "--paths", "5"],
        ["compare", "--paths", "5"],
        ["template", "--method", "alg4"],
        ["saa", "--inner", "alg4", "--K", "2", "--nu0", "2", "--nu-max", "2"],
    ], ids=lambda command: command[0])
    def test_huge_regular_time_exits_one(self, tmp_path, capsys, command):
        path = instance_file(tmp_path, regular_time=10 ** 18)
        self.check_rejected(
            capsys, command + ["--instance", path],
            "regular_time: 1000000000000000000 minutes is beyond the "
            "1000000-minute limit")

    def test_huge_noshow_R_exits_one(self, ex1_path, capsys):
        self.check_rejected(
            capsys, ["noshow", "--instance", ex1_path, "--R", "1e18"],
            "--R 1e18: must be at most 1000000 minutes")

    def test_R_at_the_limit_is_accepted(self, ex1_path, capsys):
        assert run(["noshow", "--instance", ex1_path, "--R", "1000000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["expected"]["overtime_a"] == "0"

    @pytest.mark.parametrize("command", [
        ["simulate", "--method", "alg4", "--paths", "5"],
        ["template", "--method", "alg4"],
        ["exact", "--scope", "saa", "--K", "2"],
    ], ids=lambda command: command[0])
    def test_huge_lambda_mean_exits_one(self, tmp_path, capsys, command):
        types = json.loads((FIXDIR / "ex1.json").read_text())["types"]
        types[1]["lambda_mean"] = 10 ** 18
        path = instance_file(tmp_path, types=types)
        self.check_rejected(
            capsys, command + ["--instance", path],
            "types[1].lambda_mean: 1000000000000000000 minutes is beyond "
            "the 1000000-minute limit")

    def test_wrapping_alg2_template_writes_nothing(self, tmp_path, capsys):
        # two stage-1 times of 4.7e17 minutes sum past 2^63 tenths: the
        # parent wrote a negative f_a with no overtime here
        path = instance_file(
            tmp_path, regular_time=300, blocks=1,
            types=[{"name": "A", "lambda_mean": 470000000000000000,
                    "mu_mean": 0, "ratio": 2}])
        csv_path = tmp_path / "t.csv"
        self.check_rejected(
            capsys, ["template", "--method", "alg2", "--instance", path,
                     "--csv", str(csv_path)],
            "types[0].lambda_mean: 470000000000000000 minutes is beyond the "
            "1000000-minute limit")
        assert not csv_path.exists()

    @pytest.mark.parametrize("field", ["lambda_sd", "mu_mean", "mu_sd"])
    def test_every_time_field_is_bounded(self, tmp_path, capsys, field):
        types = json.loads((FIXDIR / "ex1.json").read_text())["types"]
        types[0][field] = -1000000.1
        path = instance_file(tmp_path, types=types)
        self.check_rejected(
            capsys, ["validate", "--instance", path],
            f"types[0].{field}: -1000000.1 minutes is beyond the "
            "1000000-minute limit")

    def test_times_at_the_limit_are_accepted(self, tmp_path, capsys):
        path = instance_file(
            tmp_path, regular_time=1000000, blocks=1,
            types=[{"name": "A", "lambda_mean": 1000000, "lambda_sd": 1000000,
                    "mu_mean": 1000000, "mu_sd": 1000000, "ratio": 3}])
        assert run(["simulate", "--method", "alg4", "--instance", path,
                    "--paths", "50"]) == 0
        assert json.loads(capsys.readouterr().out)["paths"] == 50


NO_QPLUS_TYPES = [{"name": "A", "lambda_mean": 5, "mu_mean": 0, "ratio": 2},
                  {"name": "B", "lambda_mean": 3, "mu_mean": 0, "ratio": 1}]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("command", [
    ["template", "--method", "alg3"], ["template", "--method", "alg4"],
    ["simulate", "--method", "alg3", "--paths", "20"],
    ["simulate", "--method", "alg4", "--paths", "20"],
    ["simulate", "--method", "alg3", "--paths", "20", "--dist", "uniform"],
    ["simulate", "--method", "alg4", "--paths", "20", "--dist", "uniform"],
    ["compare", "--paths", "20"],
    ["saa", "--inner", "alg4", "--K", "2", "--nu0", "2", "--nu-max", "2"],
    ["noshow", "--plan", "none", "--k", "2"],
    ["noshow", "--plan", "lf", "--k", "2"],
    ["noshow", "--plan", "ff", "--k", "2"]], ids=" ".join)
def test_instance_without_qplus_runs(tmp_path, capsys, monkeypatch, command,
                                     k):
    # no Q+ type: L_p is 0, so balancing moves every patient to the
    # overflow block; the k base blocks are empty and take no time
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BLOCKSCHED_OUT", raising=False)
    path = instance_file(tmp_path, types=NO_QPLUS_TYPES, regular_time=30,
                         blocks=k)
    assert run(command + ["--instance", path]) == 0
    out = capsys.readouterr().out
    if command[0] == "compare":
        assert len(read_report(tmp_path / "compare.csv")) > 0
        return
    payload = json.loads(out)
    if command[0] == "template":
        assert payload["block_bounds"] == [0] * (k + 1) + [3 * k]
        assert [s["tau"] for s in payload["slots"]][:3] == ["0", "5", "10"]
    elif command[0] == "noshow":
        # the overbooked first block is empty: nothing is duplicated
        assert payload["n_scheduled"] == 6 and payload["mass"] == "1"


@pytest.mark.parametrize("command, stderr", [
    # alg3's base blocks are empty, not Q-only: algorithm1 says nothing
    (["template", "--method", "alg3"], ""),
    (["noshow", "--plan", "lf", "--k", "2"],
     "the first block is empty, so the LF plan overbooks nothing\n"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else "")
def test_instance_without_qplus_says_what_its_empty_blocks_do(
        tmp_path, command, stderr):
    # in a fresh process, where a logged warning reaches stderr as its bare
    # message
    path = instance_file(tmp_path, types=NO_QPLUS_TYPES, regular_time=30,
                         blocks=2)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(blocksched.__file__).parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-m", "blocksched.cli", *command,
                           "--instance", path], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert proc.stderr == stderr


def test_unbalanceable_instance_exits_one(tmp_path, capsys):
    path = instance_file(tmp_path, types=[
        {"name": "P", "lambda_mean": 10, "mu_mean": 4, "ratio": 2},
        {"name": "R", "lambda_mean": 6, "mu_mean": 9, "ratio": 1},
        {"name": "Q", "lambda_mean": 3, "mu_mean": 0, "ratio": 2}])
    assert run(["template", "--method", "alg4", "--instance", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: instance cannot be balanced: Q+ workload "
                            "alone exceeds the stage-2 workload\n")
