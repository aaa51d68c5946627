"""One repetition of a benchmark workload, run in its own process.

    python3 child.py --mode plain|trace --result R.json [--spans S.npz] -- CLI-ARGS
    python3 child.py --mode probe --result R.json --gamma G -- CLI-ARGS

``plain`` and ``trace`` call ``relaystop.cli.main(CLI-ARGS)`` in this
process. ``plain`` records spans around the CLI's own calls into the solver
and simulator (a handful per run); ``trace`` also records spans around every
per-observation call the simulator makes and writes them all to ``--spans``
once the CLI has returned. ``probe`` times the batch relay-level solvers on a
fresh first-hop sample and measures the coupled solve's peak traced memory.
Timestamps use ``time.perf_counter``, CLOCK_MONOTONIC on Linux, so the
parent can compare them with its own.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tracemalloc

from spans import Recorder, clock

SOLVES = {"solve_full_csi_lambda": "solver.full_csi",
          "solve_main_gamma_intuitive": "solver.intuitive",
          "solve_main_gamma_optimal": "solver.coupled"}
SIMS = {"run_scenario1": "simulator.run_scenario1",
        "run_scenario2": "simulator.run_scenario2"}
POLICIES = ("full_csi_decide", "intuitive_main_decide", "intuitive_sub_decide",
            "optimal_main_decide", "optimal_sub_decide")
PROBE_REPEATS = 3


def instrument(rec: Recorder, traced: bool):
    """Wrap relaystop's functions where their callers look them up."""
    import relaystop.cli as cli

    cli.load_config = rec.wrap("cli.load_config", cli.load_config)
    for attr, name in {**SOLVES, **SIMS}.items():
        setattr(cli, attr, rec.wrap(name, getattr(cli, attr)))
    if traced:
        from relaystop import channel, policies, simulator

        simulator.sample_contention = rec.wrap("contention.sample_contention",
                                               simulator.sample_contention)
        simulator.af_rate = rec.wrap("channel.af_rate", simulator.af_rate)
        simulator.solve_sub_w_batch = rec.wrap("solver.in_sim_w_batch",
                                               simulator.solve_sub_w_batch, rows_arg=1)
        simulator.solve_sub_layer_batch = rec.wrap("solver.in_sim_sub_layer_batch",
                                                   simulator.solve_sub_layer_batch,
                                                   rows_arg=1)
        for attr in POLICIES:
            setattr(policies, attr, rec.wrap(f"policies.{attr}", getattr(policies, attr)))
        for model in (channel.RayleighFading, channel.FixedGain):
            model.sample = rec.wrap("channel.sample", model.sample)
    return rec.wrap("cli.main", cli.main)


def run_cli(mode: str, cli_args: list[str]) -> tuple[int, dict, Recorder]:
    rec = Recorder()
    main = instrument(rec, traced=mode == "trace")
    code = main(cli_args)
    t_end = clock()
    result = {
        "exit": code,
        "t_first_solve": rec.first_start(SOLVES.values()),
        "t_main_end": t_end,
        "spans": rec.totals(),
        "counters": rec.counters,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return code, result, rec


def probe(cli_args: list[str], gamma: float) -> dict:
    """Rows per second of both batch relay-level solvers, and coupled peak MB."""
    import numpy as np
    import relaystop.cli as cli
    from relaystop import (RayleighFading, solve_main_gamma_optimal,
                           solve_sub_layer_batch, solve_sub_w_batch)

    args = cli._build_parser().parse_args(cli_args)
    cfg = cli.apply_overrides(cli.load_config(args.config), args)
    params, est = cfg.params, cfg.estimator
    first_hop = cfg.first_hop or RayleighFading(params.first_hop_mean_gain)
    # A fresh sample of the solver's size, independent of the solver's own.
    rng = np.random.default_rng(np.random.SeedSequence([est.seed, 0x9B0B]))
    rows = np.asarray(first_hop.sample(rng, (est.mc_samples, params.num_relays)))

    def rows_per_s(solve) -> float:
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = clock()
            solve()
            times.append(clock() - t0)
        return rows.shape[0] / statistics.median(times)

    hops = dict(second_hop=cfg.second_hop)
    out = {
        "w_batch_rows_per_s": rows_per_s(
            lambda: solve_sub_w_batch(params, rows, gamma, est, **hops)),
        "sub_layer_batch_rows_per_s": rows_per_s(
            lambda: solve_sub_layer_batch(params, rows, est, **hops)),
    }
    tracemalloc.start()
    try:
        solve_main_gamma_optimal(params, est, first_hop=cfg.first_hop, **hops)
        out["coupled_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("plain", "trace", "probe"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--gamma", type=float)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    if args.mode == "probe":
        code, result = 0, probe(cli_args, args.gamma)
    else:
        code, result, rec = run_cli(args.mode, cli_args)
        if args.spans:
            rec.save(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
