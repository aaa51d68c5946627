"""Command-line front end: solve, simulate, compare, sweep, and oracle runs.

Configuration lives in a JSON file with a versioned schema; CLI flags
override individual values. Summaries are written as JSON plus per-packet
CSV logs, and every summary echoes the exact configuration and seed that
produced it. Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 a
configuration, solver or output-writing error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
import typing
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .channel import SystemParams, full_csi_rate_sampler
from .errors import ConfigError, InvalidParameterError, RelayStopError
from .policies import PolicyKind, PolicySpec
from .simulator import SimConfig, SimStats, run_scenario1, run_scenario2
from .solver import (
    EstimatorConfig,
    ThresholdSolution,
    oracle_threshold_search,
    solve_full_csi_lambda,
    solve_main_gamma_intuitive,
    solve_main_gamma_optimal,
)

SCHEMA_VERSION = 1
SCENARIOS = tuple(kind.value for kind in PolicyKind)
# the config root's sections, in echo order
SECTIONS = ("schema", "params", "estimator", "sim", "scenario", "out")

# mc_samples floor for CLI (production) runs; library callers may go lower.
MIN_PRODUCTION_MC_SAMPLES = 1000

# rate thresholds the oracle searches, evenly spaced on [0, 2 x the solved one];
# an odd count makes the solved one the middle node
ORACLE_POINTS = 501

@dataclass
class ExperimentConfig:
    params: SystemParams
    estimator: EstimatorConfig
    sim: SimConfig
    scenario: str
    out: Path | None = None
    # Not fields: the CLI runs the Rayleigh hops of params. perfbench/child.py's
    # probe reads these two; they go with the benchmark change of ROADMAP item 4.
    first_hop = second_hop = None

    def echo(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "params": dataclasses.asdict(self.params),
            "estimator": dataclasses.asdict(self.estimator),
            "sim": dataclasses.asdict(self.sim),
            "scenario": self.scenario,
            "out": str(self.out) if self.out else None,
        }


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str

    def __post_init__(self) -> None:
        # Comparisons against numpy scalars leak numpy bools; keep summaries
        # JSON-clean.
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass
class ReportSummary:
    """One command's report; the fields are summary.json's keys, in order.
    ``main`` sets the command's runtime, the config echo and the environment:
    the Python, numpy and relaystop versions (numpy does not promise the same
    random streams across versions)."""

    command: str
    scenario: str
    seed: int
    thresholds: dict
    results: dict
    verdicts: list[Verdict]
    runtime_s: float = 0.0
    config: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


# ---------------------------------------------------------------------------
# Configuration loading


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    schema = raw.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"schema: expected {SCHEMA_VERSION}, got {schema!r}")
    unknown = set(raw) - set(SECTIONS)
    if unknown:
        raise ConfigError(f"config root: unknown fields {sorted(unknown)}")

    if not isinstance(raw.get("params"), dict):
        raise ConfigError("params: section is required and must be an object")
    params = _build_section("params", raw["params"], SystemParams)
    estimator = _build_section("estimator", raw.get("estimator", {}), EstimatorConfig)
    if estimator.mc_samples < MIN_PRODUCTION_MC_SAMPLES:
        raise ConfigError(
            f"estimator.mc_samples: must be >= {MIN_PRODUCTION_MC_SAMPLES} for CLI runs")
    sim = _build_section("sim", raw.get("sim", {}), SimConfig, packets=10_000)
    scenario = raw.get("scenario", "1")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario: must be one of {SCENARIOS}, got {scenario!r}")
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out: must be a path string or null, got {out!r}")
    return ExperimentConfig(params=params, estimator=estimator, sim=sim,
                            scenario=scenario, out=Path(out) if out else None)


def _build_section(name: str, section, cls, **defaults):
    """Build the dataclass ``cls`` from one config section.

    Each given field is cast to the kind its annotation names (int, else
    float); a null keeps a field whose default is None. Unknown and missing
    fields, bad values and the dataclass's own validation errors are config
    errors named after the section or field.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(section) - set(fields)
    if unknown:
        raise ConfigError(f"{name}: unknown fields {sorted(unknown)}")
    kinds = _field_kinds(cls)
    kwargs = dict(defaults)
    for key, value in section.items():
        if value is not None or fields[key].default is not None:
            kwargs[key] = _cast(f"{name}.{key}", value, kinds[key])
    missing = [key for key, f in fields.items()
               if f.default is dataclasses.MISSING and key not in kwargs]
    if missing:
        raise ConfigError(f"{name}.{missing[0]}: field is required")
    try:
        return cls(**kwargs)
    except RelayStopError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _field_kinds(cls) -> dict:
    """The config kind of each field of ``cls``: int where annotated int, else float."""
    return {key: int if hint is int else float
            for key, hint in typing.get_type_hints(cls).items()}


def _cast(name: str, value, kind):
    if isinstance(value, bool):
        raise ConfigError(f"{name}: expected a number, got a boolean")
    try:
        if kind is int:
            if isinstance(value, float) and not value.is_integer():
                raise ValueError("not an integer")
            return int(value)
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}") from exc


def apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    try:
        if args.seed is not None:
            cfg.sim = dataclasses.replace(cfg.sim, seed=args.seed)
            cfg.estimator = dataclasses.replace(cfg.estimator, seed=args.seed)
        if args.packets is not None:
            cfg.sim = dataclasses.replace(cfg.sim, packets=args.packets)
    except RelayStopError as exc:
        raise ConfigError(f"command-line override: {exc}") from exc
    if args.scenario is not None:  # argparse choices already checked it
        cfg.scenario = args.scenario
    if args.out is not None:
        cfg.out = Path(args.out)
    return cfg


# ---------------------------------------------------------------------------
# Commands
#
# Each command returns its report and its output files: file name -> writer
# of that file's path. ``main`` times the command and writes the outputs.


def _solve_for_scenario(cfg: ExperimentConfig) -> tuple[ThresholdSolution, PolicySpec]:
    kind = PolicyKind(cfg.scenario)
    # built per call, so that the solver names are looked up when they run
    solve = {PolicyKind.FULL_CSI: solve_full_csi_lambda,
             PolicyKind.INTUITIVE_BILEVEL: solve_main_gamma_intuitive,
             PolicyKind.OPTIMAL_BILEVEL: solve_main_gamma_optimal}[kind]
    sol = solve(cfg.params, cfg.estimator)
    return sol, PolicySpec(kind, sol.value)


def _solution_items(sol: ThresholdSolution, name: str) -> dict:
    """A solved threshold's report items in order: its value as ``name``, then its counters."""
    return {name: sol.value, "residual": sol.residual, "iterations": sol.iterations,
            "inner_iterations": sol.inner_iterations, "kernel_rows": sol.kernel_rows}


def _threshold_dict(cfg: ExperimentConfig, sol: ThresholdSolution) -> dict:
    name = "lambda_star" if cfg.scenario == "1" else "gamma_star"
    out = {**_solution_items(sol, name), "bracket": list(sol.bracket)}
    if cfg.scenario == "1":
        out["rate_threshold"] = 2.0 * sol.value
    return out


def cmd_solve(cfg: ExperimentConfig) -> tuple[ReportSummary, dict]:
    # no verdict: the root search returns only within tol, and raises otherwise
    sol, _ = _solve_for_scenario(cfg)
    return ReportSummary("solve", cfg.scenario, cfg.sim.seed,
                         _threshold_dict(cfg, sol), {}, []), {}


def _run_simulation(cfg: ExperimentConfig, spec: PolicySpec) -> SimStats:
    if spec.kind is PolicyKind.FULL_CSI:
        return run_scenario1(cfg.params, spec, cfg.sim)
    return run_scenario2(cfg.params, spec, cfg.sim, est=cfg.estimator)


def _match_verdict(name: str, stats: SimStats, sol: ThresholdSolution, tol: float) -> Verdict:
    simulated, target = stats.throughput, sol.value
    diff = abs(simulated - target)
    # the target itself is only solved to the estimator tolerance
    margin = 3.0 * stats.throughput_stderr + tol * max(1.0, abs(target))
    return Verdict(name, diff <= margin,
                   f"|{simulated:.6g} - {target:.6g}| = {diff:.3g}, "
                   f"margin 3*stderr+tol = {margin:.3g}")


def cmd_simulate(cfg: ExperimentConfig) -> tuple[ReportSummary, dict]:
    sol, spec = _solve_for_scenario(cfg)
    stats = _run_simulation(cfg, spec)
    verdicts = [_match_verdict("throughput_matches_threshold", stats, sol, cfg.estimator.tol)]
    results = {
        "throughput": stats.throughput,
        "throughput_stderr": stats.throughput_stderr,
        "packets": int(stats.bits.size),
        "total_bits": float(stats.bits.sum()),
        "total_time": float(stats.elapsed.sum()),
        # headroom against simulator.OBSERVATION_CAP
        "max_main_observations": int(stats.main_observations.max()),
        "max_sub_observations": int(stats.sub_observations.max()),
    }
    summary = ReportSummary("simulate", cfg.scenario, cfg.sim.seed,
                            _threshold_dict(cfg, sol), results, verdicts)
    return summary, {"packets.csv": partial(_write_packets_csv, stats=stats)}


def cmd_compare(cfg: ExperimentConfig) -> tuple[ReportSummary, dict]:
    sol_opt = solve_main_gamma_optimal(cfg.params, cfg.estimator)
    sol_int = sol_opt.start
    stats_int = _run_simulation(cfg, PolicySpec(PolicyKind.INTUITIVE_BILEVEL, sol_int.value))
    stats_opt = _run_simulation(cfg, PolicySpec(PolicyKind.OPTIMAL_BILEVEL, sol_opt.value))

    pooled = math.hypot(stats_int.throughput_stderr, stats_opt.throughput_stderr)
    tol = cfg.estimator.tol
    verdicts = [
        Verdict("solver_dominance",
                sol_opt.value >= sol_int.value - 10.0 * tol,
                f"gamma_opt={sol_opt.value:.8g} gamma_int={sol_int.value:.8g}"),
        _match_verdict("intuitive_matches_gamma", stats_int, sol_int, tol),
        _match_verdict("optimal_matches_gamma", stats_opt, sol_opt, tol),
        Verdict("simulated_dominance",
                stats_opt.throughput >= stats_int.throughput - 3.0 * pooled - 1e-12,
                f"opt={stats_opt.throughput:.6g} int={stats_int.throughput:.6g} "
                f"pooled_stderr={pooled:.3g}"),
    ]
    items = [_solution_items(sol, "gamma_star") for sol in (sol_int, sol_opt)]
    thresholds = {f"{key}_{rule}": part[key] for key in items[0]
                  for rule, part in zip(("intuitive", "optimal"), items)}
    results = {
        "throughput_intuitive": stats_int.throughput,
        "stderr_intuitive": stats_int.throughput_stderr,
        "throughput_optimal": stats_opt.throughput,
        "stderr_optimal": stats_opt.throughput_stderr,
        "gamma_gap": sol_opt.value - sol_int.value,
    }
    summary = ReportSummary("compare", "2-optimal", cfg.sim.seed, thresholds, results,
                            verdicts)
    return summary, {"packets_intuitive.csv": partial(_write_packets_csv, stats=stats_int),
                     "packets_optimal.csv": partial(_write_packets_csv, stats=stats_opt)}


def cmd_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> tuple[ReportSummary, dict]:
    axis, values = args.axis, [v for v in args.values.split(",") if v != ""]
    kind = _field_kinds(SystemParams).get(axis)
    if kind is None:
        raise ConfigError(f"--axis: {axis!r} is not a SystemParams field")
    if not values:
        raise ConfigError("--values: at least one value is required")
    rows = []
    verdicts = []
    for value in values:
        try:
            params = dataclasses.replace(
                cfg.params, **{axis: _cast(f"sweep value for {axis}", value, kind)})
        except InvalidParameterError as exc:
            raise ConfigError(f"sweep value {value!r} for {axis}: {exc}") from exc
        point = dataclasses.replace(cfg, params=params, out=None)
        sol, spec = _solve_for_scenario(point)
        row = {"axis": axis, "value": value, "threshold": sol.value,
               "residual": sol.residual, "throughput": None, "stderr": None}
        if args.simulate:
            stats = _run_simulation(point, spec)
            row.update(throughput=stats.throughput, stderr=stats.throughput_stderr)
            verdicts.append(_match_verdict(f"{axis}={value}_match", stats, sol, cfg.estimator.tol))
        rows.append(row)
    summary = ReportSummary("sweep", cfg.scenario, cfg.sim.seed, {}, {"sweep": rows},
                            verdicts)
    return summary, {}


def cmd_oracle(cfg: ExperimentConfig) -> tuple[ReportSummary, dict]:
    if cfg.scenario != "1":
        raise ConfigError("oracle runs target scenario 1 only")
    # solved on the very sample the oracle searches, so that both verdicts
    # compare the fixed point with brute force on one distribution
    sol = solve_full_csi_lambda(cfg.params, cfg.estimator, full_csi_rate_sampler(cfg.params))
    rate_threshold = 2.0 * sol.value
    grid = np.linspace(0.0, 2.0 * rate_threshold, ORACLE_POINTS)
    best_th, best_tp = oracle_threshold_search(cfg.params, grid, cfg.estimator)
    step = float(grid[1] - grid[0])
    # The middle node, rate_threshold, keeps the sample optimum's rates, so best_tp is
    # the sample's optimal throughput, which sol.bracket encloses with sol.value;
    # best_tp's suffix sums round by up to (n - 1) eps relative.
    margin = (sol.bracket[1] - sol.bracket[0]
              + (cfg.estimator.mc_samples - 1) * np.finfo(float).eps * abs(best_tp))
    verdicts = [
        Verdict("oracle_threshold_agreement",
                abs(best_th - rate_threshold) <= step + 1e-12,
                f"|{best_th:.6g} - {rate_threshold:.6g}| vs step {step:.3g}"),
        Verdict("oracle_throughput_agreement",
                abs(best_tp - sol.value) <= margin,
                f"|{best_tp:.17g} - {sol.value:.17g}| = {abs(best_tp - sol.value):.3g}, "
                f"margin enclosure+rounding = {margin:.3g}"),
    ]
    results = {
        "best_threshold": best_th,
        "best_throughput": best_tp,
        "grid_lo": float(grid[0]),
        "grid_hi": float(grid[-1]),
        "grid_points": int(grid.size),
    }
    return ReportSummary("oracle", "1", cfg.sim.seed, _threshold_dict(cfg, sol),
                         results, verdicts), {}


# ---------------------------------------------------------------------------
# Output & entry point


def _write_packets_csv(path: Path, stats: SimStats) -> None:
    # imported here, so that commands that write no log do not load it
    from .packetlog import write_packets_csv

    write_packets_csv(path, stats)


def _print_summary(summary: ReportSummary) -> None:
    print(f"command: {summary.command} (scenario {summary.scenario}, seed {summary.seed})")
    for key, value in summary.thresholds.items():
        print(f"  {key}: {value}")
    for key, value in summary.results.items():
        if key == "sweep":
            for row in value:
                print(f"  {row['axis']}={row['value']}: threshold={row['threshold']:.8g}"
                      + (f" throughput={row['throughput']:.8g}" if row["throughput"] is not None else ""))
        else:
            print(f"  {key}: {value}")
    for verdict in summary.verdicts:
        print(f"  verdict {verdict.name}: {'PASS' if verdict.passed else 'FAIL'} ({verdict.detail})")
    print(f"  runtime_s: {summary.runtime_s:.3f}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaystop",
        description="Solve stopping thresholds and simulate the relay access protocol.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "simulate", "compare", "sweep", "oracle"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override both simulation and estimator seeds")
        p.add_argument("--packets", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--scenario", default=None, choices=SCENARIOS)
        if name == "sweep":
            p.add_argument("--axis", required=True)
            p.add_argument("--values", required=True,
                           help="comma-separated sweep values, e.g. 1,2,4,8")
            p.add_argument("--simulate", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = apply_overrides(load_config(args.config), args)
        t0 = time.perf_counter()
        command = {"solve": cmd_solve, "simulate": cmd_simulate, "compare": cmd_compare,
                   "sweep": partial(cmd_sweep, args=args), "oracle": cmd_oracle}[args.command]
        summary, files = command(cfg)
    except RelayStopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary.runtime_s = time.perf_counter() - t0
    summary.config = cfg.echo()
    summary.environment = {"python": "%d.%d.%d" % sys.version_info[:3],
                           "numpy": np.__version__, "relaystop": __version__}
    if cfg.out is not None:
        try:
            cfg.out.mkdir(parents=True, exist_ok=True)
            (cfg.out / "summary.json").write_text(
                json.dumps(dataclasses.asdict(summary), indent=2))
            for name, write in files.items():
                write(cfg.out / name)
        except OSError as exc:
            print(f"error: cannot write outputs to {cfg.out}: {exc}", file=sys.stderr)
            return 2
    _print_summary(summary)
    return 0 if summary.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
