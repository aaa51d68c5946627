"""Checks of the benchmark itself, on shrunken copies of its workloads.

    python3 -m pytest perfbench/test_bench.py

The exact counts the benchmark reports (solver iterations, observations per
packet, output bytes, call counts) must repeat bit for bit for a fixed
(config, seed), and its failure checks must be able to fail.
"""
from __future__ import annotations

import json

import pytest

import run
from run import WORKLOADS, Run, check_packets, exact_throughput_check

TINY = {"mc_samples": 1000, "packets": 400}


def tiny_config(tmp_path, name):
    cfg = json.loads((run.BENCH / "configs" / f"{name}.json").read_text())
    cfg["estimator"]["mc_samples"] = TINY["mc_samples"]
    cfg["sim"]["packets"] = TINY["packets"]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def exact_counts(r: Run) -> dict:
    rep = r.reps[-1]
    calls = {k: v["calls"] for k, v in rep["spans"].items()}
    return {"counts": rep["counts"], "output_bytes": rep["output_bytes"],
            "counters": rep["counters"], "calls": calls}


@pytest.mark.parametrize("name", WORKLOADS)
def test_exact_counts_repeat(tmp_path, name):
    config = tiny_config(tmp_path, name)
    seen = []
    for i in range(2):
        r = Run(name, seed=5, tmp=tmp_path / f"run{i}", config=config)
        r.tmp.mkdir()
        r.rep("trace")
        assert r.failed_ops == 0, r.notes
        seen.append(exact_counts(r))
    assert seen[0] == seen[1]
    assert seen[0]["calls"]["cli.main"] == 1


def test_a_repetition_past_the_deadline_is_killed_and_fails(tmp_path):
    r = Run("stress_solve", seed=5, tmp=tmp_path)
    r.deadline = run.clock()  # the child gets the minimum timeout, 1 s
    rep = r.rep("plain")
    assert rep["exit"] == "killed"
    assert r.failed_ops == r.attempted == WORKLOADS["stress_solve"].ops
    assert any("killed" in note for note in r.notes)


def test_exact_throughput_check_fails_on_wrong_throughput():
    params = json.loads((run.BENCH / "configs" / "full_csi_sim.json").read_text())["params"]
    values = {"rate_threshold": 2.0, "throughput": 1.0, "throughput_stderr": 1e-3}
    exact = exact_throughput_check(params, values, seed=5)["exact"]
    ok = dict(values, throughput=exact)
    assert exact_throughput_check(params, ok, seed=5)["passed"]
    off = dict(values, throughput=exact + 0.01)  # 10 sim stderrs away
    assert not exact_throughput_check(params, off, seed=5)["passed"]


def test_check_packets_rejects_a_short_log(tmp_path):
    path = tmp_path / "packets.csv"
    rows = ["packet_index,main_observations,sub_observations,rate_at_stop,relay,"
            "elapsed,bits"]
    rows += [f"{i},1,0,2,1,1.5,1" for i in range(1, 4)]
    path.write_text("\n".join(rows) + "\n")
    assert check_packets(path, 3, 1.0 / 1.5)[0]
    assert not check_packets(path, 4, 1.0 / 1.5)[0]
    assert not check_packets(path, 3, 1.0)[0]


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
