"""CLI: config loading, command flows, outputs, and exit codes."""

import csv
import json

import numpy as np
import pytest

from relaystop import (
    EstimatorConfig,
    PolicyKind,
    PolicySpec,
    SimConfig,
    SimStats,
    run_scenario2,
)
from relaystop.cli import _write_packets_csv, load_config, main
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


ECHO_CASES = {"no-relay-prob": {"params.relay_prob": None},
              "oracle-hi-null": {"oracle": {"points": 50, "hi": None}},
              "fixed-hop": {"channel": {"first_hop": {"kind": "fixed", "gain": 3.0}}}}


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
    with pytest.raises(ConfigError, match="oracle.points: expected int, got None"):
        load_config(write_config(tmp_path, oracle={"points": None}))


def test_solve_scenario1(tmp_path, capsys):
    rc = main(["solve", "--config", str(write_config(tmp_path))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lambda_star" in out
    assert "solver_converged: PASS" in out


DET_CHANNEL = {
    "params.num_sources": 1, "params.num_relays": 1,
    "params.source_power": 1.0, "params.relay_power": 1.0,
    "params.slot_time": 0.2, "params.data_time": 2.0,
    "params.source_prob": 1.0, "params.relay_prob": 1.0,
    "channel": {"first_hop": {"kind": "fixed", "gain": 3.0},
                "second_hop": {"kind": "fixed", "gain": 2.0}},
    "estimator.mc_samples": 1024,
    "estimator.tol": 1e-10,
    "sim.packets": 512,
}


def test_solve_deterministic_channel_closed_form(tmp_path, capsys):
    # fixed gains give constant rate 1: lambda* = (T/2) / (T + tau) = 1/2.2
    rc = main(["solve", "--config", str(write_config(tmp_path, **DET_CHANNEL))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.4545454545" in out


def test_compare_deterministic_channel_equal_throughputs(tmp_path):
    path = write_config(tmp_path, **DET_CHANNEL)
    out_dir = tmp_path / "cmp"
    rc = main(["compare", "--config", str(path), "--out", str(out_dir)])
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    for rule in ("intuitive", "optimal"):
        assert summary["thresholds"][f"inner_iterations_{rule}"] >= 1
    assert summary["config"]["channel"] == DET_CHANNEL["channel"]
    assert set(summary["config"]["estimator"]) == {"mc_samples", "quad_points", "seed", "tol"}
    results = summary["results"]
    assert results["throughput_intuitive"] == results["throughput_optimal"]
    assert results["stderr_intuitive"] == 0.0
    assert results["stderr_optimal"] == 0.0


def test_channel_section_validation(tmp_path):
    from relaystop import ConfigError

    with pytest.raises(ConfigError, match="channel.first_hop"):
        load_config(write_config(
            tmp_path, channel={"first_hop": {"kind": "smooth"}}))
    with pytest.raises(ConfigError, match="channel"):
        load_config(write_config(tmp_path, channel={"third_hop": {}}))
    # hop sections go through the one section loader: typos and gaps are errors
    with pytest.raises(ConfigError, match=r"channel.second_hop: unknown fields \['gian'\]"):
        load_config(write_config(
            tmp_path, channel={"second_hop": {"kind": "fixed", "gain": 1.0, "gian": 2.0}}))
    with pytest.raises(ConfigError, match="channel.first_hop.mean_gain: field is required"):
        load_config(write_config(tmp_path, channel={"first_hop": {"kind": "rayleigh"}}))


@pytest.mark.parametrize("hop", ["first_hop", "second_hop"])
def test_non_finite_mean_gain_is_config_error(tmp_path, capsys, hop):
    path = write_config(tmp_path, scenario="2-intuitive",
                        channel={hop: {"kind": "rayleigh", "mean_gain": float("inf")}})
    assert main(["solve", "--config", str(path)]) == 2
    assert f"channel.{hop}: mean_gain must be finite" in capsys.readouterr().err


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
    assert 1 <= results["max_main_observations"] <= summary["config"]["sim"]["main_observation_cap"]
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
    rc = main(["compare", "--config", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "solver_dominance: PASS" in out
    assert "simulated_dominance: PASS" in out


SMALL_COMPARE = {"estimator.mc_samples": 2000, "sim.packets": 200}


def printed_values(out: str) -> dict:
    return dict(line.strip().split(": ", 1) for line in out.splitlines() if ": " in line)


def test_compare_optimal_matches_standalone_solve(tmp_path, capsys):
    path = write_config(tmp_path, **SMALL_COMPARE)
    assert main(["compare", "--config", str(path)]) == 0
    compared = printed_values(capsys.readouterr().out)
    assert main(["solve", "--config", str(path), "--scenario", "2-optimal"]) == 0
    solved = printed_values(capsys.readouterr().out)
    assert compared["gamma_star_optimal"] == solved["gamma_star"]
    assert compared["iterations_optimal"] == solved["iterations"]
    assert compared["inner_iterations_optimal"] == solved["inner_iterations"]
    assert compared["kernel_rows_optimal"] == solved["kernel_rows"]


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


def test_oracle_flags_grid_missing_optimum(tmp_path, capsys):
    path = write_config(tmp_path, oracle={"points": 50, "lo": 0.0, "hi": 0.5})
    rc = main(["oracle", "--config", str(path)])
    out = capsys.readouterr().out
    assert rc == 1  # verdict failure, not a config error
    assert "oracle_brackets_optimum: FAIL" in out


def test_sweep_relay_count_is_nondecreasing(tmp_path):
    out_dir = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(write_config(tmp_path)),
               "--axis", "num_relays", "--values", "1,2,4,8",
               "--out", str(out_dir)])
    assert rc == 0
    with (out_dir / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    thresholds = [float(r["threshold"]) for r in rows]
    assert thresholds == sorted(thresholds)


def test_sweep_source_prob_peaks_near_inverse_k(tmp_path):
    path = write_config(tmp_path, **{"params.num_sources": 4, "params.source_prob": 0.25})
    out_dir = tmp_path / "sweep2"
    values = ["0.1", "0.175", "0.25", "0.325", "0.4"]
    rc = main(["sweep", "--config", str(path), "--axis", "source_prob",
               "--values", ",".join(values), "--out", str(out_dir)])
    assert rc == 0
    with (out_dir / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    best = max(rows, key=lambda r: float(r["threshold"]))
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


def test_packets_csv_reads_back_as_columns(tmp_path):
    params = make_params()
    spec = PolicySpec(PolicyKind.OPTIMAL_BILEVEL, gamma_star=0.5)
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


def test_packets_csv_bytes_match_csv_writer(tmp_path):
    # the block writer keeps csv.writer's dialect: CRLF, %.12g floats, plain ints,
    # across block boundaries and for values whose repr is not 12 digits
    n = 9000
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, 1e-300, 1.0 / 3.0, 2.0**60, np.inf, np.nan, 123456789.125])
    floats = [np.resize(special, n) * rng.choice([1.0, -1.0, 7.0], n) for _ in range(3)]
    main_obs = rng.geometric(0.01, n)
    main_obs[0] = 2**40
    stats = SimStats(main_obs, rng.integers(0, 3, n), floats[0], rng.integers(1, 5, n),
                     floats[1], floats[2], 0.0, 0.0, 0.0, 0.0)
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


@pytest.mark.parametrize("field,value", [("lo", float("nan")), ("hi", float("inf"))],
                         ids=["lo-nan", "hi-inf"])
def test_non_finite_oracle_bound_is_config_error(tmp_path, capsys, field, value):
    # json.dumps writes NaN / Infinity, which json.loads reads back as floats
    path = write_config(tmp_path, oracle={field: value})
    assert main(["oracle", "--config", str(path)]) == 2
    assert f"oracle.{field}: must be finite" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path)]) == 2


@pytest.mark.parametrize("out", [5, True, ["runs"]])
def test_non_string_out_is_config_error(tmp_path, capsys, out):
    assert main(["solve", "--config", str(write_config(tmp_path, out=out))]) == 2
    assert "out: must be a path string" in capsys.readouterr().err
