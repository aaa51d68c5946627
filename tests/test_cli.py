"""CLI: config loading, command flows, outputs, and exit codes."""

import ast
import csv
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relaystop
from relaystop import (
    EstimatorConfig,
    FixedGain,
    PolicyKind,
    PolicySpec,
    SimConfig,
    SimStats,
    run_scenario2,
    solve_main_gamma_optimal,
)
from relaystop import cli, packetlog
from relaystop.cli import _write_packets_csv, load_config, main
from relaystop.simulator import OBSERVATION_CAP
from .conftest import make_params

BASE_CONFIG = {
    "schema": 1,
    "params": {
        "num_sources": 2,
        "num_relays": 2,
        "source_power": 10.0,
        "relay_power": 10.0,
        "first_hop_mean_gain": 1.0,
        "second_hop_mean_gain": 1.0,
        "slot_time": 0.1,
        "data_time": 1.0,
        "source_prob": 0.5,
        "relay_prob": 0.5,
    },
    "estimator": {"mc_samples": 5000, "quad_points": 64, "seed": 7, "tol": 1e-6},
    "sim": {"packets": 2000, "seed": 13},
    "scenario": "1",
}


def write_config(tmp_path, **changes):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in changes.items():
        section, _, field = key.partition(".")
        if field:
            if value is None:
                cfg[section].pop(field, None)
            else:
                cfg[section][field] = value
        elif value is None:
            cfg.pop(section, None)
        else:
            cfg[section] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.params.num_sources == 2
    assert cfg.estimator.mc_samples == 5000
    assert cfg.sim.packets == 2000
    assert cfg.scenario == "1"


def test_load_config_names_offending_field(tmp_path):
    from relaystop import ConfigError

    with pytest.raises(ConfigError, match="params.num_relays"):
        load_config(write_config(tmp_path, **{"params.num_relays": None}))
    with pytest.raises(ConfigError, match="slot_time"):
        load_config(write_config(tmp_path, **{"params.slot_time": -1.0}))
    with pytest.raises(ConfigError, match="schema"):
        load_config(write_config(tmp_path, schema=99))
    with pytest.raises(ConfigError, match="mc_samples"):
        load_config(write_config(tmp_path, **{"estimator.mc_samples": 10}))


ECHO_CASES = {"no-relay-prob": {"params.relay_prob": None}}


@pytest.mark.parametrize("changes", ECHO_CASES.values(), ids=ECHO_CASES.keys())
def test_summary_config_echo_reloads(tmp_path, capsys, changes):
    # the echo reproduces the run: it loads back to itself, nulls included
    out_dir = tmp_path / "run"
    rc = main(["simulate", "--config", str(write_config(tmp_path, **changes)),
               "--out", str(out_dir)])
    assert rc == 0
    echo = json.loads((out_dir / "summary.json").read_text())["config"]
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(echo))
    assert load_config(path).echo() == echo


def test_null_means_the_default_only_where_it_is_none(tmp_path):
    from relaystop import ConfigError

    path = tmp_path / "config.json"
    path.write_text(write_config(tmp_path).read_text().replace('"relay_prob": 0.5',
                                                               '"relay_prob": null'))
    assert load_config(path).params.relay_prob is None
    with pytest.raises(ConfigError, match="sim.seed: expected int, got None"):
        load_config(write_config(tmp_path, sim={"packets": 2000, "seed": None}))


def test_solve_scenario1(tmp_path, capsys):
    rc = main(["solve", "--config", str(write_config(tmp_path))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lambda_star" in out
    assert "residual: " in out
    # a solve that returns is within tol, so there is no verdict to print
    assert "verdict" not in out


@pytest.mark.parametrize("hop", ["first_hop", "second_hop"])
def test_non_finite_mean_gain_is_config_error(tmp_path, capsys, hop):
    path = write_config(tmp_path, scenario="2-intuitive",
                        **{f"params.{hop}_mean_gain": float("inf")})
    assert main(["solve", "--config", str(path)]) == 2
    assert f"params: {hop}_mean_gain must be finite and > 0" in capsys.readouterr().err


def test_solve_scenario2_optimal(tmp_path, capsys):
    path = write_config(tmp_path, scenario="2-optimal",
                        **{"estimator.mc_samples": 2000})
    rc = main(["solve", "--config", str(path)])
    assert rc == 0
    assert "gamma_star" in capsys.readouterr().out


def test_simulate_writes_outputs_and_matches(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(["simulate", "--config", str(write_config(tmp_path)),
               "--out", str(out_dir)])
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["command"] == "simulate"
    assert summary["thresholds"]["iterations"] >= 1
    assert summary["thresholds"]["inner_iterations"] == 0  # no relay level
    results = summary["results"]
    assert 1 <= results["max_main_observations"] <= OBSERVATION_CAP
    assert results["max_sub_observations"] == 0  # scenario 1 has no relay level
    assert {v["name"] for v in summary["verdicts"]} == {"throughput_matches_threshold"}
    with (out_dir / "packets.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["packet_index", "main_observations", "sub_observations",
                       "rate_at_stop", "relay", "elapsed", "bits"]
    assert len(rows) - 1 == 2000  # one row per configured packet
    assert rows[1][0] == "1"


def test_simulate_single_packet_is_config_error(tmp_path, capsys):
    rc = main(["simulate", "--config", str(write_config(tmp_path)), "--packets", "1"])
    assert rc == 2
    assert "packets must be an integer >= 2" in capsys.readouterr().err


def test_simulate_scenario2_intuitive(tmp_path, capsys):
    path = write_config(tmp_path, scenario="2-intuitive",
                        **{"estimator.mc_samples": 5000, "sim.packets": 1500})
    rc = main(["simulate", "--config", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "throughput_matches_threshold: PASS" in out
    assert "max_main_observations: " in out
    max_sub = int(out.split("max_sub_observations: ")[1].split()[0])
    assert 1 <= max_sub <= 1_000_000


def test_compare_reports_dominance(tmp_path, capsys):
    path = write_config(tmp_path, **{"estimator.mc_samples": 4000, "sim.packets": 1500})
    out_dir = tmp_path / "cmp"
    rc = main(["compare", "--config", str(path), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "solver_dominance: PASS" in out
    assert "simulated_dominance: PASS" in out
    summary = json.loads((out_dir / "summary.json").read_text())
    for rule in ("intuitive", "optimal"):
        assert summary["thresholds"][f"inner_iterations_{rule}"] >= 1
    assert set(summary["config"]["estimator"]) == {"mc_samples", "quad_points", "seed", "tol"}


SMALL_COMPARE = {"estimator.mc_samples": 2000, "sim.packets": 200}


def printed_values(out: str) -> dict:
    return dict(line.strip().split(": ", 1) for line in out.splitlines() if ": " in line)


def test_compare_optimal_matches_standalone_solve(tmp_path, capsys):
    # both rules, digit for digit: compare reports the coupled solve's own
    # intuitive start as its intuitive result
    path = write_config(tmp_path, **SMALL_COMPARE)
    assert main(["compare", "--config", str(path)]) == 0
    compared = printed_values(capsys.readouterr().out)
    for rule, scenario in (("optimal", "2-optimal"), ("intuitive", "2-intuitive")):
        assert main(["solve", "--config", str(path), "--scenario", scenario]) == 0
        solved = printed_values(capsys.readouterr().out)
        for key in ("gamma_star", "residual", "iterations", "inner_iterations", "kernel_rows"):
            assert compared[f"{key}_{rule}"] == solved[key], (rule, key)


def test_compare_solves_the_intuitive_gamma_once(tmp_path, monkeypatch):
    from relaystop import cli, solver

    calls, at_first_run = [], []
    intuitive_rows, run_scenario2 = solver._intuitive_rows, cli.run_scenario2

    def counting_rows(*args, **kwargs):
        calls.append(1)
        return intuitive_rows(*args, **kwargs)

    def noting_run(*args, **kwargs):
        at_first_run.append(len(calls))
        return run_scenario2(*args, **kwargs)

    monkeypatch.setattr(solver, "_intuitive_rows", counting_rows)
    monkeypatch.setattr(cli, "run_scenario2", noting_run)
    assert main(["compare", "--config", str(write_config(tmp_path, **SMALL_COMPARE))]) == 0
    # both solves run before the first simulation; only the intuitive one
    # solves the relay-level throughput rows
    assert at_first_run[0] == 1


def test_compare_without_relay_prob_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, **{"params.relay_prob": None})
    rc = main(["compare", "--config", str(path)])
    assert rc == 2
    assert "relay_prob" in capsys.readouterr().err


def test_oracle_agreement(tmp_path, capsys):
    rc = main(["oracle", "--config", str(write_config(tmp_path))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "oracle_threshold_agreement: PASS" in out
    assert "oracle_throughput_agreement: PASS" in out


def test_oracle_throughput_verdict_fails_on_a_1e_9_shift(tmp_path, capsys, monkeypatch):
    # the margin is the solve's enclosure width plus the suffix sums' rounding,
    # far below a relative shift of 1e-9 of the solved lambda
    path = write_config(tmp_path)
    real = cli.solve_full_csi_lambda
    monkeypatch.setattr(cli, "solve_full_csi_lambda", lambda *a, **kw: dataclasses.replace(
        real(*a, **kw), value=real(*a, **kw).value * (1.0 + 1e-9)))
    assert main(["oracle", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "verdict oracle_threshold_agreement: PASS" in out
    assert "verdict oracle_throughput_agreement: FAIL" in out


def _wrapped(name, change):
    """A patch of ``relaystop.cli.<name>`` that passes each result through
    ``change(result, *args, **kwargs)``, the call's own arguments."""
    def patch(monkeypatch):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, **kw: change(real(*a, **kw), *a, **kw))
    return patch


def _lowered_run(name, kind=None):
    """A patch of the simulator ``relaystop.cli.<name>`` whose runs of policy
    ``kind`` (any kind by default) report a throughput 20 stderr plus 1e-3 lower."""
    def lower(stats, params, spec, *args, **kwargs):
        if kind not in (None, spec.kind):
            return stats
        return dataclasses.replace(
            stats, throughput=stats.throughput - 20.0 * stats.throughput_stderr - 1e-3)
    return _wrapped(name, lower)


# Each CLI verdict with a defect planted under it: the name in cli.py (the
# literal suffix of an f-string name), the command, the printed name, and the
# patch. Simulations report too low a throughput; the coupled solve lands
# 1e-3 below the intuitive root it starts from; the oracle's best threshold
# moves three grid steps, or its throughput 1%.
VERDICT_DEFECTS = {
    "throughput_matches_threshold": (["simulate"], "throughput_matches_threshold",
                                     _lowered_run("run_scenario1")),
    "intuitive_matches_gamma": (["compare"], "intuitive_matches_gamma",
                                _lowered_run("run_scenario2", PolicyKind.INTUITIVE_BILEVEL)),
    "optimal_matches_gamma": (["compare"], "optimal_matches_gamma",
                              _lowered_run("run_scenario2", PolicyKind.OPTIMAL_BILEVEL)),
    "solver_dominance": (["compare"], "solver_dominance", _wrapped(
        "solve_main_gamma_optimal",
        lambda sol, *a, **kw: dataclasses.replace(sol, value=sol.start.value - 1e-3))),
    "simulated_dominance": (["compare"], "simulated_dominance",
                            _lowered_run("run_scenario2", PolicyKind.OPTIMAL_BILEVEL)),
    "_match": (["sweep", "--axis", "num_relays", "--values", "2", "--simulate"],
               "num_relays=2_match", _lowered_run("run_scenario1")),
    "oracle_threshold_agreement": (["oracle"], "oracle_threshold_agreement", _wrapped(
        "oracle_threshold_search",
        lambda best, params, grid, *a, **kw: (best[0] + 3.0 * (grid[1] - grid[0]), best[1]))),
    "oracle_throughput_agreement": (["oracle"], "oracle_throughput_agreement", _wrapped(
        "oracle_threshold_search", lambda best, *a, **kw: (best[0], 0.99 * best[1]))),
}


@pytest.mark.parametrize("command, printed, plant", VERDICT_DEFECTS.values(),
                         ids=VERDICT_DEFECTS.keys())
def test_each_verdict_fails_on_a_planted_defect(tmp_path, capsys, monkeypatch,
                                                command, printed, plant):
    path = write_config(tmp_path, **{"estimator.mc_samples": 1000, "sim.packets": 400})
    argv = [command[0], "--config", str(path), *command[1:]]
    main(argv)
    assert f"verdict {printed}: PASS" in capsys.readouterr().out
    plant(monkeypatch)
    assert main(argv) == 1
    assert f"verdict {printed}: FAIL" in capsys.readouterr().out


def test_every_cli_verdict_has_a_planted_defect():
    # a verdict added without a way to fail, or deleted without its test, fails here
    names = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("Verdict", "_match_verdict")):
            name = node.args[0]
            if isinstance(name, ast.JoinedStr):
                names.add(name.values[-1].value)
            elif isinstance(name, ast.Constant):
                names.add(name.value)
            # else _match_verdict passes its caller's name on
    assert names == set(VERDICT_DEFECTS)


def test_all_zero_first_hop_solves_gamma_zero_exactly():
    # a zero first hop carries no bits, so gamma* = 0 with a residual of exactly 0
    est = EstimatorConfig(mc_samples=1000, quad_points=64, seed=7, tol=1e-14)
    sol = solve_main_gamma_optimal(make_params(), est, first_hop=FixedGain(0.0))
    assert sol.value == 0.0
    assert sol.residual == 0.0


def sweep_rows(out_dir) -> list[dict]:
    return json.loads((out_dir / "summary.json").read_text())["results"]["sweep"]


def test_sweep_relay_count_is_nondecreasing(tmp_path):
    out_dir = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(write_config(tmp_path)),
               "--axis", "num_relays", "--values", "1,2,4,8",
               "--out", str(out_dir)])
    assert rc == 0
    thresholds = [row["threshold"] for row in sweep_rows(out_dir)]
    assert thresholds == sorted(thresholds)


def test_sweep_source_prob_peaks_near_inverse_k(tmp_path):
    path = write_config(tmp_path, **{"params.num_sources": 4, "params.source_prob": 0.25})
    out_dir = tmp_path / "sweep2"
    values = ["0.1", "0.175", "0.25", "0.325", "0.4"]
    rc = main(["sweep", "--config", str(path), "--axis", "source_prob",
               "--values", ",".join(values), "--out", str(out_dir)])
    assert rc == 0
    best = max(sweep_rows(out_dir), key=lambda row: row["threshold"])
    assert abs(float(best["value"]) - 0.25) <= 0.075 + 1e-12


def test_sweep_rejects_bad_axis(tmp_path, capsys):
    rc = main(["sweep", "--config", str(write_config(tmp_path)),
               "--axis", "nonsense", "--values", "1,2"])
    assert rc == 2
    assert "axis" in capsys.readouterr().err


def test_sweep_rejects_empty_values(tmp_path):
    rc = main(["sweep", "--config", str(write_config(tmp_path)),
               "--axis", "num_relays", "--values", ""])
    assert rc == 2


def test_sweep_simulate_matches_each_value(tmp_path):
    out_dir = tmp_path / "sweep"
    values = ["0.2", "0.4"]
    rc = main(["sweep", "--config", str(write_config(tmp_path)),
               "--axis", "slot_time", "--values", ",".join(values), "--simulate",
               "--out", str(out_dir)])
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert [v["name"] for v in summary["verdicts"]] == [
        f"slot_time={value}_match" for value in values]
    assert len(sweep_rows(out_dir)) == len(values)


# Each loader error path: (config changes, or the file's raw text; command; the message).
LOADER_ERRORS = {
    "unreadable-file": (None, ["solve"], "cannot read config file"),
    "non-object-root": ("[1, 2]", ["solve"], "config root must be a JSON object"),
    "missing-params": ({"params": None}, ["solve"], "params: section is required"),
    "misspelled-section": ({"estimator": None, "estimatr": {"mc_samples": 5000, "seed": 7}},
                           ["solve"], "config root: unknown fields ['estimatr']"),
    "misspelled-field": ({"params.num_relay": 2}, ["solve"],
                         "params: unknown fields ['num_relay']"),
    "unknown-scenario": ({"scenario": "3"}, ["solve"], "scenario: must be one of"),
    "non-object-section": ({"sim": 5}, ["solve"], "sim: must be an object"),
    # a second spelling of a hop of params, which the loader once let win silently
    "channel-section": ({"params.first_hop_mean_gain": 4.0,
                         "channel": {"first_hop": {"kind": "rayleigh", "mean_gain": 1.0}}},
                        ["solve"], "config root: unknown fields ['channel']"),
    "oracle-points": ({"oracle": {"points": 50}}, ["solve"],
                      "config root: unknown fields ['oracle']"),
    # the never-stop guard is the library constant simulator.OBSERVATION_CAP
    "observation-cap": ({"sim.main_observation_cap": 1000}, ["simulate"],
                        "sim: unknown fields ['main_observation_cap']"),
    # every slot collides or succeeds with a probability that rounds to 0
    "zero-success-prob": ({"params.num_relays": 2000}, ["solve"],
                          "params: relay_prob = 0.5 with 2000 contenders gives a slot "
                          "success probability of 0"),
    # a slot success probability so small that the contention cost overflows
    "overflowing-contention-cost": ({"params.num_sources": 1060}, ["solve"],
                                    "params: source_prob = 0.5 with 1060 contenders gives a "
                                    "slot success probability of 8.58e-317, so the mean "
                                    "contention time slot_time / p_s is not finite"),
    # a power whose product with the gain cap overflows made NaN rates
    "overflowing-power": ({"params.source_power": 1e10}, ["solve"],
                          "params: source_power = 1e+10 times GAIN_CAP = 1e+300 is not "
                          "finite; a power must be at most 1.798e+08"),
    "boolean-number": ({"params.slot_time": True}, ["solve"],
                       "params.slot_time: expected a number, got a boolean"),
    "non-integer-int": ({"params.num_relays": 2.5}, ["solve"],
                        "params.num_relays: expected int, got 2.5"),
    "bad-sweep-value": ({}, ["sweep", "--axis", "num_relays", "--values", "x"],
                        "error: sweep value for num_relays: expected int, got 'x'\n"),
    "out-of-range-sweep-value": ({}, ["sweep", "--axis", "num_relays", "--values", "0"],
                                 "error: sweep value '0' for num_relays: "
                                 "num_relays must be an integer >= 1\n"),
    "zero-success-prob-sweep-value": ({}, ["sweep", "--axis", "num_sources", "--values", "1076"],
                                      "error: sweep value '1076' for num_sources: source_prob "
                                      "= 0.5 with 1076 contenders gives a slot success "
                                      "probability of 0"),
    "oracle-on-scenario-2": ({"scenario": "2-intuitive"}, ["oracle"],
                             "oracle runs target scenario 1 only"),
}


@pytest.mark.parametrize("changes, command, message", LOADER_ERRORS.values(),
                         ids=LOADER_ERRORS.keys())
def test_config_error_names_its_field(tmp_path, capsys, changes, command, message):
    if changes is None:
        path = tmp_path / "missing.json"
    elif isinstance(changes, str):
        path = tmp_path / "config.json"
        path.write_text(changes)
    else:
        path = write_config(tmp_path, **changes)
    assert main([command[0], "--config", str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert message in err
    if changes is None:
        assert str(path) in err


def _blocked_summary(out):  # a file where the output directory goes
    out.write_text("")


def _blocked_csv(out):  # a directory where the packet log goes
    (out / "packets.csv").mkdir(parents=True)


@pytest.mark.parametrize("command, block", [("solve", _blocked_summary),
                                            ("simulate", _blocked_csv)],
                         ids=["out-is-a-file", "csv-is-a-directory"])
def test_unwritable_out_exits_2_with_the_path(tmp_path, capsys, command, block):
    out = tmp_path / "out"
    block(out)
    assert main([command, "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write outputs to {out}: ")
    assert "Traceback" not in err


BENCH_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "configs")
                       .glob("*.json"))


def test_bench_configs_load_and_echo(tmp_path):
    # the benchmark runs these files, estimator.quad_points included
    assert BENCH_CONFIGS
    for path in BENCH_CONFIGS:
        raw = json.loads(path.read_text())
        echo = load_config(path).echo()
        assert echo["estimator"]["quad_points"] == raw["estimator"]["quad_points"]
        reloaded = tmp_path / path.name
        reloaded.write_text(json.dumps(echo))
        assert load_config(reloaded).echo() == echo, path.name


def test_summary_reproducible_for_fixed_seed(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    a = json.loads((out_a / "summary.json").read_text())
    b = json.loads((out_b / "summary.json").read_text())
    a.pop("runtime_s")
    b.pop("runtime_s")
    a["config"].pop("out")
    b["config"].pop("out")
    assert a == b
    assert (out_a / "packets.csv").read_text() == (out_b / "packets.csv").read_text()


def test_seed_override_changes_results(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b),
                 "--seed", "999"]) == 0
    a = json.loads((out_a / "summary.json").read_text())
    b = json.loads((out_b / "summary.json").read_text())
    assert b["seed"] == 999
    assert a["results"]["throughput"] != b["results"]["throughput"]


def test_scenario_override_flag(tmp_path, capsys):
    path = write_config(tmp_path, **{"estimator.mc_samples": 2000})
    rc = main(["solve", "--config", str(path), "--scenario", "2-intuitive"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gamma_star" in out
    assert "scenario 2-intuitive" in out


def test_scenario_names_are_the_policy_kinds():
    # one name per rule: the config's scenario string is the PolicyKind value
    kinds = tuple(kind.value for kind in PolicyKind)
    assert cli.SCENARIOS == kinds == ("1", "2-intuitive", "2-optimal")
    sub = next(action for action in cli._build_parser()._actions
               if action.dest == "command")
    for command, parser in sub.choices.items():
        option = next(action for action in parser._actions if action.dest == "scenario")
        assert tuple(option.choices) == kinds, command


def test_packets_csv_reads_back_as_columns(tmp_path):
    params = make_params()
    spec = PolicySpec(PolicyKind.OPTIMAL_BILEVEL, 0.5)
    est = EstimatorConfig(mc_samples=1000, quad_points=64, seed=3, tol=1e-6)
    stats = run_scenario2(params, spec, SimConfig(packets=200, seed=4), est=est)
    path = tmp_path / "packets.csv"
    _write_packets_csv(path, stats)
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 0], np.arange(1, 201))
    columns = (stats.main_observations, stats.sub_observations, stats.rate_at_stop,
               stats.relay, stats.elapsed, stats.bits)
    for j, column in enumerate(columns, start=1):
        # 12 significant digits: relative rounding error at most 5e-12
        np.testing.assert_allclose(table[:, j], column, rtol=5e-12, atol=0.0)


@pytest.mark.parametrize("block", [1000, 4096])
def test_packets_csv_bytes_match_csv_writer(tmp_path, monkeypatch, block):
    # the block writer keeps csv.writer's dialect: CRLF, %.12g floats, plain ints,
    # across block boundaries and for values whose repr is not 12 digits
    monkeypatch.setattr(packetlog, "_CSV_BLOCK", block)
    n = 9000
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, 1e-300, 1.0 / 3.0, 2.0**60, np.inf, np.nan, 123456789.125])
    floats = [np.resize(special, n) * rng.choice([1.0, -1.0, 7.0], n) for _ in range(3)]
    main_obs = rng.geometric(0.01, n)
    main_obs[0] = 2**40
    stats = SimStats(main_obs, rng.integers(0, 3, n), floats[0], rng.integers(1, 5, n),
                     floats[1], floats[2], 0.0, 0.0)
    path = tmp_path / "packets.csv"
    _write_packets_csv(path, stats)
    ref = tmp_path / "reference.csv"
    with ref.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["packet_index", "main_observations", "sub_observations",
                         "rate_at_stop", "relay", "elapsed", "bits"])
        columns = (stats.main_observations, stats.sub_observations, stats.rate_at_stop,
                   stats.relay, stats.elapsed, stats.bits)
        for i, (main_, sub, rate, relay, elapsed, bits) in enumerate(
                zip(*(c.tolist() for c in columns)), start=1):
            writer.writerow([i, main_, sub, f"{rate:.12g}", relay,
                             f"{elapsed:.12g}", f"{bits:.12g}"])
    assert path.read_bytes() == ref.read_bytes()


def _texts(slots):
    return [cell.tobytes().replace(b"\0", b"").decode() for cell in slots.T]


def _assert_float_cells(values):
    values = np.asarray(values, dtype=np.float64)
    assert _texts(packetlog._float_slots(values)) == ["%.12g" % v for v in values.tolist()]


# values where a float64 mantissa is closest to a wrong digit or a wrong layout
FLOAT_EDGES = {
    "13th-digit ties": [123456789012.5, 123456789013.5, 1000000000005.0, 1000000000015.0,
                        3.814697265625, 2.0**-18, 0.5, 2.5],
    "999999999999.5e-k..e+k": [999999999999.5 * 10.0**k for k in range(-24, 25)]
                              + [99999999999.95 * 10.0**k for k in range(-24, 25)],
    "10^k and 1 ulp either side": [np.nextafter(10.0**k, to) for k in range(-26, 36)
                                   for to in (0.0, 10.0**k, np.inf)],
    "notation switches": [1e-4, 1e-5, 9.99999999999e-5, 9.999999999995e-5,
                          9.9999999999949e-5, 1e11, 1e12, 999999999999.4,
                          999999999999.6, 99999999999.95, 123456789012.0],
    "zeros, limits and non-finite": [0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                                     1.7976931348623157e308, 1e308, 1e-308, np.inf,
                                     -np.inf, np.nan],
}


@pytest.mark.parametrize("edge", FLOAT_EDGES)
def test_float_cells_match_percent_g_on_edge_cases(edge):
    values = np.array(FLOAT_EDGES[edge])
    _assert_float_cells(np.concatenate((values, -values)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
       st.lists(st.floats(1e-6, 1e14), max_size=64))
def test_float_cells_match_percent_g(patterns, decimals):
    # raw bit patterns cover subnormals, +-0, NaNs and +-inf; the decimal range
    # is where the numpy path, not the fallback, formats most values
    raw = np.array(patterns, dtype=np.uint64).view(np.float64)
    _assert_float_cells(np.concatenate((raw, decimals)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=64))
def test_int_cells_match_percent_d(values):
    # the int64 limits, and zero quads below a leading digit
    values += [-2**63, -1, 0, 2**53 + 1, 2**63 - 1, 10**4, 10**8 + 123, -10**16, 10**18]
    assert _texts(packetlog._int_slots(np.array(values, dtype=np.int64))) == [
        "%d" % v for v in values]


# The writer's tracemalloc peak for the 6500-row log below (bilevel_compare's
# size), with its module and lookup tables already loaded: 0.29 MB for the
# former per-value % writer, 0.61 MB with the 2048-row blocks of the numpy
# writer, 0.92 MB with 4096-row blocks. The budget fails a block twice the size.
PACKET_LOG_PEAK_BUDGET = 0.8 * 2**20


def test_packet_log_memory_stays_in_budget(tmp_path):
    n = 6500
    rng = np.random.default_rng(9)
    rate = rng.exponential(2.0, n)
    stats = SimStats(rng.geometric(0.3, n), rng.geometric(0.5, n), rate,
                     rng.integers(1, 3, n), 1.0 + 0.1 * rng.geometric(0.2, n), 0.5 * rate,
                     0.0, 0.0)
    tracemalloc.start()
    try:
        _write_packets_csv(tmp_path / "packets.csv", stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PACKET_LOG_PEAK_BUDGET, f"peak {peak / 2**20:.2f} MB"


@pytest.mark.parametrize("route", ["flag", "sim", "estimator"])
def test_negative_seed_is_config_error(tmp_path, capsys, route):
    if route == "flag":
        args = ["--config", str(write_config(tmp_path)), "--seed", "-1"]
    else:
        args = ["--config", str(write_config(tmp_path, **{f"{route}.seed": -1}))]
    assert main(["simulate", *args]) == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err


def test_infinite_tol_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(write_config(tmp_path).read_text().replace('"tol": 1e-06', '"tol": 1e999'))
    assert main(["solve", "--config", str(path)]) == 2
    assert "tol must be finite" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path)]) == 2


@pytest.mark.parametrize("out", [5, True, ["runs"]])
def test_non_string_out_is_config_error(tmp_path, capsys, out):
    assert main(["solve", "--config", str(write_config(tmp_path, out=out))]) == 2
    assert "out: must be a path string" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only, and importing it would add about 0.4 s to
    # every CLI start; a fresh interpreter sees what the CLI alone pulls in
    src = str(Path(relaystop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, relaystop.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_scenario1_solve_loads_no_random_scipy_or_polynomial():
    # the exact full-CSI solve draws nothing and fits nothing at run time:
    # importing relaystop.cli adds no numpy submodule to numpy's own, and a
    # scenario-1 solve then loads neither numpy.random (17-22 ms on first use)
    # nor numpy.polynomial nor scipy
    src = str(Path(relaystop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    config = next(path for path in BENCH_CONFIGS if path.name == "full_csi_sim.json")
    code = ("import contextlib, io, json, sys, numpy\n"
            "def numpy_modules(): return {m for m in sys.modules if m.startswith('numpy.')}\n"
            "bare = numpy_modules()\n"
            "import relaystop.cli\n"
            "added = sorted(numpy_modules() - bare)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = relaystop.cli.main(['solve', '--config', {str(config)!r}])\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "                or m.startswith(('numpy.random', 'numpy.polynomial')))\n"
            "print(json.dumps([code, added, loaded]))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, [], []]


def test_cli_import_defers_the_packet_log_module():
    # The import budget of every CLI start, in a fresh interpreter that sees
    # what the CLI alone pulls in. Commands that write no log (solve, sweep,
    # oracle) do not load the formatter or build its tables. scipy and mpmath
    # are test dependencies only; import scipy.special alone takes about 0.4 s.
    # numpy.random costs 9-13 ms and about 6 MB on import, which the solve that
    # first draws pays: loaded here, it would move from the benchmark's solve_s
    # into its setup_s and read as a solver gain.
    src = str(Path(relaystop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, relaystop.cli; print(sorted(m for m in sys.modules if m in "
            "('relaystop.packetlog', 'scipy', 'mpmath', 'numpy.random') "
            "or m.startswith(('scipy.', 'mpmath.', 'numpy.random.'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
