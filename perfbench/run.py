"""relaystop benchmark: CLI workloads timed end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a relaystop checkout. Each repetition is one process
that calls ``relaystop.cli.main`` on the workload's config with ``--seed N``
(see child.py). Repetitions of one run share the seed, so their outputs must
match bit for bit; they repeat until ``--seconds`` is used up (at least
MIN_REPS). With ``--trace 0`` the run reports the end-to-end metrics as
medians over repetitions. With ``--trace 1`` it alternates untraced and
traced repetitions (at least MIN_PAIRS pairs), then runs the solver probes,
and reports the per-layer metrics. Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Run records go to ``.perfbench/runs``, spans of
traced repetitions to ``.perfbench/traces``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_REPS = 3
MIN_PAIRS = 2
# A run starts no repetition it expects to end after REPS_CAP_S and kills any
# child still running at RUN_LIMIT_S, so that it exits within 180 s even when
# a repetition hangs.
REPS_CAP_S = 140
RUN_LIMIT_S = 165
# Scenario-1 exact-throughput check: size of the independent rate sample and
# the number of combined standard errors allowed (a false alarm has
# probability 6.3e-5 per check under the normal approximation).
EXACT_SAMPLES = 1_000_000
EXACT_Z = 4.0
# Pinned so that the library's BLAS/OpenMP pools do not compete for the two
# cores with the benchmark; no relaystop code path reads these.
THREAD_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}


@dataclass(frozen=True)
class Solve:
    label: str
    value: str
    residual: str
    iterations: str


@dataclass(frozen=True)
class Sim:
    label: str
    csv: str
    throughput: str
    stderr: str


@dataclass(frozen=True)
class Workload:
    command: str
    solves: tuple[Solve, ...]
    sims: tuple[Sim, ...] = ()

    @property
    def ops(self) -> int:
        return len(self.solves) + len(self.sims)


WORKLOADS = {
    "full_csi_sim": Workload(
        "simulate", (Solve("full_csi", "lambda_star", "residual", "iterations"),),
        (Sim("sim", "packets.csv", "throughput", "throughput_stderr"),)),
    "stress_solve": Workload(
        "solve", (Solve("coupled", "gamma_star", "residual", "iterations"),)),
    "bilevel_compare": Workload(
        "compare",
        (Solve("intuitive", "gamma_star_intuitive", "residual_intuitive",
               "iterations_intuitive"),
         Solve("coupled", "gamma_star_optimal", "residual_optimal", "iterations_optimal")),
        (Sim("sim_intuitive", "packets_intuitive.csv", "throughput_intuitive",
             "stderr_intuitive"),
         Sim("sim_coupled", "packets_optimal.csv", "throughput_optimal", "stderr_optimal"))),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "sim_packets_per_s": "1/s",
    "simulator.self_s": "s",
    "simulator.main_obs_per_packet": "count",
    "simulator.sub_obs_per_packet": "count",
    "contention.calls": "count",
    "contention.s": "s",
    "policies.decide_calls": "count",
    "policies.decide_s": "s",
    "channel.af_rate_calls": "count",
    "channel.af_rate_s": "s",
    "channel.sample_calls": "count",
    "solver.full_csi_s": "s",
    "solver.intuitive_s": "s",
    "solver.coupled_s": "s",
    "solver.intuitive_iterations": "count",
    "solver.coupled_iterations": "count",
    "solver.w_batch_rows_per_s": "1/s",
    "solver.sub_layer_batch_rows_per_s": "1/s",
    "solver.in_sim_batch_calls": "count",
    "solver.in_sim_batch_s": "s",
    "solver.in_sim_rows_used_ratio": "ratio",
    "solver.coupled_peak_mb": "MB",
    "cli.load_config_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Run:
    """The repetitions of one workload at one seed, and what they produced."""

    def __init__(self, name: str, seed: int, tmp: Path, config: Path | None = None):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.tmp = tmp
        self.config_path = config or BENCH / "configs" / f"{name}.json"
        self.config = json.loads(self.config_path.read_text())
        self.reps: list[dict] = []
        self.attempted = 0
        self.failed_ops = 0
        self.notes: list[str] = []
        self.reference: dict | None = None  # outputs of the first good rep
        self.exact: dict | None = None      # scenario-1 exact-throughput check
        self.checked_logs: dict = {}
        self.deadline = clock() + RUN_LIMIT_S

    def cli_args(self, out: Path) -> list[str]:
        args = [self.wl.command, "--config", str(self.config_path), "--seed", str(self.seed)]
        return args + ["--out", str(out)] if self.wl.sims else args

    def spawn(self, argv: list[str]) -> subprocess.CompletedProcess | None:
        """Run a child process; kill it at the run's deadline and return None."""
        try:
            return subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                                  timeout=max(self.deadline - clock(), 1.0))
        except subprocess.TimeoutExpired:
            self.notes.append(f"{argv[argv.index('--mode') + 1]} child killed at the "
                              f"run's {RUN_LIMIT_S} s limit")
            return None

    def rep(self, mode: str) -> dict:
        """Run one repetition in a fresh process and check its outputs."""
        i = len(self.reps)
        out = self.tmp / f"rep{i}"
        result = self.tmp / f"rep{i}.json"
        argv = [sys.executable, str(BENCH / "child.py"), "--mode", mode,
                "--result", str(result)]
        if mode == "trace":
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            argv += ["--spans", str(WORK / "traces" / f"{self.name}-seed{self.seed}.npz")]
        argv += ["--", *self.cli_args(out)]
        t_spawn = clock()
        proc = self.spawn(argv)
        wall = clock() - t_spawn
        rep = {"mode": mode, "exit": proc.returncode if proc else "killed", "wall_s": wall}
        if proc is None or proc.returncode not in (0, 1) or not result.exists():
            # 1 means a CLI verdict failed; the checks below judge those.
            rep["failed"] = self.wl.ops
            if proc is not None:
                tail = proc.stderr.strip().splitlines()[-1:]
                self.notes.append(f"rep {i}: exit {proc.returncode}: {' '.join(tail)}")
        else:
            child = json.loads(result.read_text())
            rep.update(setup_s=child["t_first_solve"] - t_spawn,
                       main_s=child["t_main_end"] - t_spawn,
                       rss_mb=child["rss_mb"], spans=child["spans"],
                       counters=child["counters"])
            rep["failed"] = self.check(rep, parse_report(proc.stdout), out)
        self.attempted += self.wl.ops
        self.failed_ops += rep["failed"]
        self.reps.append(rep)
        shutil.rmtree(out, ignore_errors=True)
        return rep

    def check(self, rep: dict, report: dict, out: Path) -> int:
        """Count failed operations of one repetition and take its exact counts.

        An operation is one threshold solve or one simulation. The CLI's
        simulation-vs-threshold verdicts ignore the solver's sample-average
        error, so they are reported, not counted.
        """
        values, verdicts = report
        tol = self.config["estimator"]["tol"]
        packets = self.config["sim"]["packets"]
        failed = set()
        iterations, logs = {}, {}
        for s in self.wl.solves:
            residual = values.get(s.residual, math.nan)
            if not (math.isfinite(values.get(s.value, math.nan)) and abs(residual) <= tol):
                failed.add(s.label)
                self.notes.append(f"{s.label}: residual {residual} exceeds tol {tol}")
            iterations[s.label] = values.get(s.iterations)
        if not verdicts.get("solver_dominance", (True, ""))[0]:
            failed.add("coupled")
            self.notes.append("solver_dominance: " + verdicts["solver_dominance"][1])
        digests = {}
        for sim in self.wl.sims:
            path = out / sim.csv
            data = path.read_bytes() if path.exists() else b""
            digests[sim.label] = hashlib.sha256(data).hexdigest()
            key = (digests[sim.label], values.get(sim.throughput))
            if key not in self.checked_logs:  # identical bytes give identical results
                self.checked_logs[key] = check_packets(path, packets, key[1])
            ok, logs[sim.label] = self.checked_logs[key]
            if not (ok and math.isfinite(values.get(sim.stderr, math.nan))):
                failed.add(sim.label)
                self.notes.append(f"{sim.label}: packet log {sim.csv} is wrong")
        if self.wl.command == "simulate" and "sim" not in failed:
            if values.get("packets") != packets or not self.check_exact(values):
                failed.add("sim")
        for name, (passed, detail) in verdicts.items():
            if not passed and name != "solver_dominance":
                self.notes.append(f"CLI verdict {name} FAIL, not counted: {detail}")
        counts = {"iterations": iterations, "logs": logs}
        fingerprint = {"values": values, "csv_sha256": digests, "counts": counts}
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            self.notes.append("outputs differ from the first repetition at the same seed")
            failed = {op.label for op in (*self.wl.solves, *self.wl.sims)}
        rep["counts"] = counts
        rep["output_bytes"] = sum(p.stat().st_size for p in out.glob("*.csv")) \
            if out.exists() else 0
        return len(failed)

    def check_exact(self, values: dict) -> bool:
        """Simulated throughput vs the exact throughput of the threshold that ran.

        The exact renewal-reward throughput (T/2)E[R 1{R>=th}] / (T P(R>=th) +
        tau/p_s) is evaluated by the library's oracle on an independent rate
        sample; the margin combines the simulator's ratio-estimator stderr with
        that sample's own.
        """
        if self.exact is None:
            self.exact = exact_throughput_check(self.config["params"], values, self.seed)
            self.notes.append(self.exact["detail"])
        return self.exact["passed"]


def exact_throughput_check(params_cfg: dict, values: dict, seed: int) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from relaystop import (EstimatorConfig, SystemParams, full_csi_rate_sampler,
                           oracle_threshold_search, success_prob)

    params = SystemParams(**params_cfg)
    threshold = values["rate_threshold"]
    oracle_seed = int(np.random.SeedSequence([seed, 0x5CE1]).generate_state(1)[0])
    est = EstimatorConfig(mc_samples=EXACT_SAMPLES, seed=oracle_seed)
    _, exact = oracle_threshold_search(params, [threshold], est)
    # The same draw the oracle made, for the sample's ratio-estimator stderr.
    rates = full_csi_rate_sampler(params)(np.random.default_rng(oracle_seed), EXACT_SAMPLES)
    t = params.data_time
    kept = rates >= threshold
    x = np.where(kept, 0.5 * t * rates, 0.0)
    y = t * kept + params.slot_time / success_prob(params.num_sources, params.source_prob)
    ratio = x.sum() / y.sum()
    exact_se = float(np.std(x - ratio * y, ddof=1) / math.sqrt(rates.size) / y.mean())
    sim, sim_se = values["throughput"], values["throughput_stderr"]
    margin = EXACT_Z * math.hypot(sim_se, exact_se)
    passed = (abs(ratio - exact) <= 1e-9 * exact and abs(sim - exact) <= margin)
    return {"passed": bool(passed), "exact": exact, "exact_se": exact_se,
            "detail": (f"exact throughput check {'PASS' if passed else 'FAIL'}: "
                       f"|{sim:.6g} - {exact:.6g}| = {abs(sim - exact):.3g}, margin "
                       f"{EXACT_Z:g}*hypot(sim se {sim_se:.3g}, exact se {exact_se:.3g}) "
                       f"= {margin:.3g}")}


def check_packets(path: Path, packets: int, throughput) -> tuple[bool, dict]:
    """Validate a packet CSV and return its exact observation counts."""
    if not path.exists():
        return False, {}
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    counts = {"packets": int(table.shape[0]),
              "main_observations": int(table[:, 1].sum()),
              "sub_observations": int(table[:, 2].sum())}
    ok = (table.shape == (packets, 7) and bool(np.all(np.isfinite(table)))
          and np.array_equal(table[:, 0], np.arange(1, packets + 1))
          and bool(np.all(table[:, 1] >= 1)) and bool(np.all(table[:, 5] > 0))
          and throughput is not None and math.isfinite(throughput)
          # CSV values carry 12 significant digits
          and abs(table[:, 6].sum() / table[:, 5].sum() - throughput) <= 1e-9 * throughput)
    return ok, counts


def parse_report(stdout: str) -> tuple[dict, dict]:
    """Numeric fields and verdicts from the CLI's printed report."""
    values, verdicts = {}, {}
    for line in stdout.splitlines():
        key, sep, rest = line.strip().partition(": ")
        if not sep:
            continue
        if key.startswith("verdict "):
            status, _, detail = rest.partition(" ")
            verdicts[key[len("verdict "):]] = (status == "PASS", detail.strip("()"))
        elif key != "runtime_s":
            try:
                values[key] = int(rest)
            except ValueError:
                try:
                    values[key] = float(rest)
                except ValueError:
                    pass
    return values, verdicts


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": THREAD_ENV}


def median(values) -> float:
    return float(statistics.median(values))


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        run = Run(name, seed, Path(tmp))
        t0 = clock()
        durations = []
        while True:
            start = clock()
            for mode in ("plain", "trace") if trace else ("plain",):
                run.rep(mode)
            durations.append(clock() - start)
            elapsed = clock() - t0
            typical = median(durations)
            if elapsed + typical > REPS_CAP_S:
                break
            if (len(durations) >= (MIN_PAIRS if trace else MIN_REPS)
                    and elapsed + typical > seconds):
                break
        probe = run_probe(run) if trace else {}
    good = [r for r in run.reps if "counts" in r]
    complete = len(good) == len(run.reps)
    metrics = {}
    if complete:
        metrics = layer_metrics(run, good, probe) if trace else end_to_end(good)
    result = {"correct": run.failed_ops == 0 and complete,
              "attempted": run.attempted, "failed": run.failed_ops,
              "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "loadavg_before": load_before,
              "loadavg_after": os.getloadavg(), "notes": list(dict.fromkeys(run.notes)),
              "reps": [{k: v for k, v in r.items() if k != "spans"} for r in run.reps],
              "result": result}
    (WORK / "runs").mkdir(exist_ok=True)
    (WORK / "runs" / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    report(record)
    return result


def run_probe(run: Run) -> dict:
    """Batch-solver rows/s and coupled peak memory, for workloads with a gamma.

    The probe's solves count as one more operation of the run.
    """
    gamma = run.reference and run.reference["values"].get(
        "gamma_star", run.reference["values"].get("gamma_star_optimal"))
    if gamma is None:
        return {}
    result = run.tmp / "probe.json"
    argv = [sys.executable, str(BENCH / "child.py"), "--mode", "probe", "--result",
            str(result), "--gamma", repr(gamma), "--", *run.cli_args(run.tmp / "probe")]
    proc = run.spawn(argv)
    run.attempted += 1
    if proc is None or proc.returncode != 0:
        if proc is not None:
            run.notes.append(f"probe failed: {proc.stderr.strip()[-300:]}")
        run.failed_ops += 1
        return {}
    return json.loads(result.read_text())


def end_to_end(reps: list[dict]) -> dict:
    def solve_s(rep):
        return sum(v["s"] for k, v in rep["spans"].items() if k.startswith("solver."))

    values = {"wall_s": median(r["wall_s"] for r in reps),
              "setup_s": median(r["setup_s"] for r in reps),
              "solve_s": median(solve_s(r) for r in reps),
              "peak_rss_mb": median(r["rss_mb"] for r in reps)}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def layer_metrics(run: Run, reps: list[dict], probe: dict) -> dict:
    traced = [r for r in reps if r["mode"] == "trace"]
    plain = [r for r in reps if r["mode"] == "plain"]

    def span(rep, name, field="s"):
        return rep["spans"].get(name, {}).get(field, 0)

    def spans(rep, prefix, field="s"):
        return sum(v[field] for k, v in rep["spans"].items() if k.startswith(prefix))

    def med(fn):
        return median(fn(r) for r in traced)

    iterations = traced[0]["counts"]["iterations"]
    logs = traced[0]["counts"]["logs"].values()
    packets = sum(c["packets"] for c in logs)
    main_obs = sum(c["main_observations"] for c in logs)
    sub_obs = sum(c["sub_observations"] for c in logs)
    sim_s = median(spans(r, "simulator.") for r in plain)
    batch_rows = sum(v for k, v in traced[0]["counters"].items()
                     if k.startswith("solver.in_sim"))
    values = {
        "sim_packets_per_s": packets / sim_s if sim_s else 0.0,
        "simulator.self_s": med(lambda r: spans(r, "simulator.", "self_s")),
        "simulator.main_obs_per_packet": main_obs / packets if packets else 0.0,
        "simulator.sub_obs_per_packet": sub_obs / packets if packets else 0.0,
        "contention.calls": span(traced[0], "contention.sample_contention", "calls"),
        "contention.s": med(lambda r: span(r, "contention.sample_contention")),
        "policies.decide_calls": spans(traced[0], "policies.", "calls"),
        "policies.decide_s": med(lambda r: spans(r, "policies.")),
        "channel.af_rate_calls": span(traced[0], "channel.af_rate", "calls"),
        "channel.af_rate_s": med(lambda r: span(r, "channel.af_rate")),
        "channel.sample_calls": span(traced[0], "channel.sample", "calls"),
        "solver.full_csi_s": med(lambda r: span(r, "solver.full_csi")),
        "solver.intuitive_s": med(lambda r: span(r, "solver.intuitive")),
        "solver.coupled_s": med(lambda r: span(r, "solver.coupled")),
        "solver.intuitive_iterations": iterations.get("intuitive", 0),
        "solver.coupled_iterations": iterations.get("coupled", 0),
        "solver.w_batch_rows_per_s": probe.get("w_batch_rows_per_s", 0.0),
        "solver.sub_layer_batch_rows_per_s": probe.get("sub_layer_batch_rows_per_s", 0.0),
        "solver.in_sim_batch_calls": spans(traced[0], "solver.in_sim", "calls"),
        "solver.in_sim_batch_s": med(lambda r: spans(r, "solver.in_sim")),
        "solver.in_sim_rows_used_ratio": main_obs / batch_rows if batch_rows else 0.0,
        "solver.coupled_peak_mb": probe.get("coupled_peak_mb", 0.0),
        "cli.load_config_s": med(lambda r: span(r, "cli.load_config")),
        "cli.self_s": med(lambda r: span(r, "cli.main", "self_s")),
        "cli.output_bytes": traced[0]["output_bytes"],
        "trace.overhead_s": (median(r["main_s"] for r in traced)
                             - median(r["main_s"] for r in plain)),
    }
    if values["trace.overhead_s"] < 0:
        run.notes.append(f"trace.overhead_s is negative: the tracing cost is below the "
                         f"noise of {len(plain)} untraced and {len(traced)} traced repetitions")
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def report(record: dict) -> None:
    res = record["result"]
    env = record["environment"]
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {int(record['trace'])}: {len(record['reps'])} repetitions")
    print(f"  environment: nproc {env['nproc']} (affinity {env['affinity']}), "
          f"python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"threads pinned to 1")
    print(f"  loadavg before {record['loadavg_before']} after {record['loadavg_after']}")
    for i, rep in enumerate(record["reps"]):
        extra = f" setup {rep['setup_s']:.3f} s" if "setup_s" in rep else ""
        print(f"  rep {i} ({rep['mode']}): wall {rep['wall_s']:.3f} s{extra}, "
              f"exit {rep['exit']}, failed ops {rep['failed']}")
    for note in record["notes"]:
        print(f"  note: {note}")
    for name, m in res["metrics"].items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    share = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"  failed operations: {res['failed']} of {res['attempted']} ({share:.1%})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "relaystop" / "__init__.py").is_file():
        print(f"error: no relaystop sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    # Compile once so that no repetition pays for bytecode compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "relaystop")],
                   check=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
