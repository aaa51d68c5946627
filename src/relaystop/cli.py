"""Command-line front end: solve, simulate, compare, sweep, and oracle runs.

Configuration lives in a JSON file with a versioned schema; CLI flags
override individual values. Summaries are written as JSON plus per-packet
CSV logs, and every summary echoes the exact configuration and seed that
produced it. Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 a
configuration or solver error.
"""
from __future__ import annotations

import argparse
import csv
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

from .channel import FixedGain, RayleighFading, SystemParams
from .errors import ConfigError, RelayStopError
from .policies import PolicyKind, PolicySpec
from .simulator import SimConfig, SimStats, run_scenario1, run_scenario2
from .solver import (
    EstimatorConfig,
    ThresholdSolution,
    default_observations,
    full_csi_rate_sampler,
    oracle_threshold_search,
    solve_full_csi_lambda,
    solve_main_gamma_intuitive,
    solve_main_gamma_optimal,
)

SCHEMA_VERSION = 1
SCENARIOS = ("1", "2-intuitive", "2-optimal")

# mc_samples floor for CLI (production) runs; library callers may go lower.
MIN_PRODUCTION_MC_SAMPLES = 1000

# config "kind" of each gain model of the "channel" section
_HOPS = {"fixed": FixedGain, "rayleigh": RayleighFading}


@dataclass(frozen=True)
class OracleSettings:
    points: int = 500
    lo: float = 0.0
    hi: float | None = None  # default: twice the solved rate threshold


@dataclass
class ExperimentConfig:
    params: SystemParams
    estimator: EstimatorConfig
    sim: SimConfig
    scenario: str
    out: Path | None = None
    oracle: OracleSettings = field(default_factory=OracleSettings)
    # optional per-hop gain overrides ("channel" config section); None means
    # the default exponential fading derived from params
    first_hop: object | None = None
    second_hop: object | None = None

    def echo(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "params": dataclasses.asdict(self.params),
            "estimator": dataclasses.asdict(self.estimator),
            "sim": dataclasses.asdict(self.sim),
            "scenario": self.scenario,
            "out": str(self.out) if self.out else None,
            "oracle": dataclasses.asdict(self.oracle),
            "channel": {
                "first_hop": _hop_echo(self.first_hop),
                "second_hop": _hop_echo(self.second_hop),
            },
        }


def _hop_echo(hop) -> dict | None:
    if hop is None:
        return None
    kind = next(k for k, cls in _HOPS.items() if type(hop) is cls)
    return {"kind": kind, **dataclasses.asdict(hop)}


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
    ``main`` sets the command's runtime and the config echo."""

    command: str
    scenario: str
    seed: int
    thresholds: dict
    results: dict
    verdicts: list[Verdict]
    runtime_s: float = 0.0
    config: dict = field(default_factory=dict)

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
    oracle = _build_oracle(raw.get("oracle", {}))
    first_hop, second_hop = _build_channel(raw.get("channel", {}))
    return ExperimentConfig(params=params, estimator=estimator, sim=sim,
                            scenario=scenario,
                            out=Path(out) if out else None, oracle=oracle,
                            first_hop=first_hop, second_hop=second_hop)


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


def _build_channel(section):
    if not isinstance(section, dict):
        raise ConfigError("channel: must be an object")
    unknown = set(section) - {"first_hop", "second_hop"}
    if unknown:
        raise ConfigError(f"channel: unknown fields {sorted(unknown)}")
    return (_build_hop("channel.first_hop", section.get("first_hop")),
            _build_hop("channel.second_hop", section.get("second_hop")))


def _build_hop(name: str, section):
    if section is None:
        return None
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError(f"{name}: must be an object with a 'kind' field")
    fields = dict(section)
    kind = fields.pop("kind")
    if not isinstance(kind, str) or kind not in _HOPS:
        raise ConfigError(f"{name}.kind: must be one of {sorted(_HOPS)}, got {kind!r}")
    return _build_section(name, fields, _HOPS[kind])


def _build_oracle(section) -> OracleSettings:
    oracle = _build_section("oracle", section, OracleSettings)
    if oracle.points < 2:
        raise ConfigError("oracle.points: must be >= 2")
    # JSON parsers accept NaN and Infinity; neither bounds a grid
    for key in ("lo", "hi"):
        value = getattr(oracle, key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"oracle.{key}: must be finite, got {value!r}")
    return oracle


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
    if cfg.scenario == "1":
        sampler = full_csi_rate_sampler(cfg.params, cfg.first_hop, cfg.second_hop)
        sol = solve_full_csi_lambda(cfg.params, cfg.estimator, rate_sampler=sampler)
        return sol, PolicySpec(PolicyKind.FULL_CSI, lambda_star=sol.value)
    if cfg.scenario == "2-intuitive":
        sol = solve_main_gamma_intuitive(cfg.params, cfg.estimator,
                                         first_hop=cfg.first_hop, second_hop=cfg.second_hop)
        return sol, PolicySpec(PolicyKind.INTUITIVE_BILEVEL, gamma_star=sol.value)
    sol = solve_main_gamma_optimal(cfg.params, cfg.estimator,
                                   first_hop=cfg.first_hop, second_hop=cfg.second_hop)
    return sol, PolicySpec(PolicyKind.OPTIMAL_BILEVEL, gamma_star=sol.value)


def _threshold_dict(cfg: ExperimentConfig, sol: ThresholdSolution) -> dict:
    name = "lambda_star" if cfg.scenario == "1" else "gamma_star"
    out = {
        name: sol.value,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "inner_iterations": sol.inner_iterations,
        "kernel_rows": sol.kernel_rows,
        "bracket": list(sol.bracket),
    }
    if cfg.scenario == "1":
        out["rate_threshold"] = 2.0 * sol.value
    return out


def cmd_solve(cfg: ExperimentConfig) -> tuple[ReportSummary, dict]:
    sol, _ = _solve_for_scenario(cfg)
    verdicts = [Verdict("solver_converged", abs(sol.residual) <= cfg.estimator.tol,
                        f"|residual|={abs(sol.residual):.3e} tol={cfg.estimator.tol:.1e}")]
    return ReportSummary("solve", cfg.scenario, cfg.sim.seed,
                         _threshold_dict(cfg, sol), {}, verdicts), {}


def _run_simulation(cfg: ExperimentConfig, spec: PolicySpec) -> SimStats:
    if cfg.scenario == "1":
        sampler = default_observations(cfg.params, cfg.first_hop, cfg.second_hop)
        return run_scenario1(cfg.params, spec, cfg.sim, observation_sampler=sampler)
    return run_scenario2(cfg.params, spec, cfg.sim, est=cfg.estimator,
                         first_hop=cfg.first_hop, second_hop=cfg.second_hop)


def _match_verdict(name: str, simulated: float, stderr: float, target: float,
                   tol: float) -> Verdict:
    diff = abs(simulated - target)
    # the target itself is only solved to the estimator tolerance
    margin = 3.0 * stderr + tol * max(1.0, abs(target))
    return Verdict(name, diff <= margin,
                   f"|{simulated:.6g} - {target:.6g}| = {diff:.3g}, "
                   f"margin 3*stderr+tol = {margin:.3g}")


def cmd_simulate(cfg: ExperimentConfig) -> tuple[ReportSummary, dict]:
    sol, spec = _solve_for_scenario(cfg)
    stats = _run_simulation(cfg, spec)
    verdicts = [_match_verdict("throughput_matches_threshold", stats.throughput,
                               stats.throughput_stderr, sol.value, cfg.estimator.tol)]
    results = {
        "throughput": stats.throughput,
        "throughput_stderr": stats.throughput_stderr,
        "packets": int(stats.bits.size),
        "total_bits": stats.total_bits,
        "total_time": stats.total_time,
        # headroom against the sim caps echoed in the config
        "max_main_observations": int(stats.main_observations.max()),
        "max_sub_observations": int(stats.sub_observations.max()),
    }
    summary = ReportSummary("simulate", cfg.scenario, cfg.sim.seed,
                            _threshold_dict(cfg, sol), results, verdicts)
    return summary, {"packets.csv": partial(_write_packets_csv, stats=stats)}


def cmd_compare(cfg: ExperimentConfig) -> tuple[ReportSummary, dict]:
    hops = dict(first_hop=cfg.first_hop, second_hop=cfg.second_hop)
    sol_int = solve_main_gamma_intuitive(cfg.params, cfg.estimator, **hops)
    # the coupled solve starts at the intuitive root, so it reuses this one
    sol_opt = solve_main_gamma_optimal(cfg.params, cfg.estimator, start=sol_int, **hops)
    spec_int = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, gamma_star=sol_int.value)
    spec_opt = PolicySpec(PolicyKind.OPTIMAL_BILEVEL, gamma_star=sol_opt.value)
    stats_int = run_scenario2(cfg.params, spec_int, cfg.sim, est=cfg.estimator, **hops)
    stats_opt = run_scenario2(cfg.params, spec_opt, cfg.sim, est=cfg.estimator, **hops)

    pooled = math.hypot(stats_int.throughput_stderr, stats_opt.throughput_stderr)
    tol = cfg.estimator.tol
    verdicts = [
        Verdict("solver_dominance",
                sol_opt.value >= sol_int.value - 10.0 * tol,
                f"gamma_opt={sol_opt.value:.8g} gamma_int={sol_int.value:.8g}"),
        _match_verdict("intuitive_matches_gamma", stats_int.throughput,
                       stats_int.throughput_stderr, sol_int.value, tol),
        _match_verdict("optimal_matches_gamma", stats_opt.throughput,
                       stats_opt.throughput_stderr, sol_opt.value, tol),
        Verdict("simulated_dominance",
                stats_opt.throughput >= stats_int.throughput - 3.0 * pooled - 1e-12,
                f"opt={stats_opt.throughput:.6g} int={stats_int.throughput:.6g} "
                f"pooled_stderr={pooled:.3g}"),
    ]
    thresholds = {
        "gamma_star_intuitive": sol_int.value,
        "gamma_star_optimal": sol_opt.value,
        "residual_intuitive": sol_int.residual,
        "residual_optimal": sol_opt.residual,
        "iterations_intuitive": sol_int.iterations,
        "iterations_optimal": sol_opt.iterations,
        "inner_iterations_intuitive": sol_int.inner_iterations,
        "inner_iterations_optimal": sol_opt.inner_iterations,
        "kernel_rows_intuitive": sol_int.kernel_rows,
        "kernel_rows_optimal": sol_opt.kernel_rows,
    }
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


def cmd_sweep(cfg: ExperimentConfig, axis: str, values,
              simulate: bool = False) -> tuple[ReportSummary, dict]:
    kind = _field_kinds(SystemParams).get(axis)
    if kind is None:
        raise ConfigError(f"--axis: {axis!r} is not a SystemParams field")
    if not values:
        raise ConfigError("--values: at least one value is required")
    rows = []
    verdicts = []
    for value in values:
        try:
            params = dataclasses.replace(cfg.params, **{axis: _cast(axis, value, kind)})
        except RelayStopError as exc:
            raise ConfigError(f"sweep value {value!r} for {axis}: {exc}") from exc
        point = dataclasses.replace(cfg, params=params, out=None)
        sol, spec = _solve_for_scenario(point)
        row = {"axis": axis, "value": value, "threshold": sol.value,
               "residual": sol.residual, "throughput": None, "stderr": None}
        if simulate:
            stats = _run_simulation(point, spec)
            row["throughput"] = stats.throughput
            row["stderr"] = stats.throughput_stderr
            verdicts.append(_match_verdict(f"{axis}={value}_match", stats.throughput,
                                           stats.throughput_stderr, sol.value,
                                           cfg.estimator.tol))
        verdicts.append(Verdict(f"{axis}={value}_converged",
                                abs(sol.residual) <= cfg.estimator.tol,
                                f"residual={sol.residual:.3e}"))
        rows.append(row)
    summary = ReportSummary("sweep", cfg.scenario, cfg.sim.seed, {}, {"sweep": rows},
                            verdicts)
    return summary, {"sweep.csv": partial(_write_sweep_csv, rows=rows)}


def cmd_oracle(cfg: ExperimentConfig) -> tuple[ReportSummary, dict]:
    if cfg.scenario != "1":
        raise ConfigError("oracle runs target scenario 1 only")
    sol, _ = _solve_for_scenario(cfg)
    rate_threshold = 2.0 * sol.value
    hi = cfg.oracle.hi if cfg.oracle.hi is not None else 2.0 * rate_threshold
    if hi <= cfg.oracle.lo:
        raise ConfigError("oracle.hi: must exceed oracle.lo")
    grid = np.linspace(cfg.oracle.lo, hi, cfg.oracle.points)
    sampler = full_csi_rate_sampler(cfg.params, cfg.first_hop, cfg.second_hop)
    best_th, best_tp = oracle_threshold_search(cfg.params, grid, cfg.estimator,
                                               rate_sampler=sampler)
    step = float(grid[1] - grid[0])
    in_range = bool(grid[0] <= rate_threshold <= grid[-1])
    verdicts = [
        Verdict("oracle_brackets_optimum", in_range,
                f"rate threshold {rate_threshold:.6g} vs grid "
                f"[{grid[0]:.6g}, {grid[-1]:.6g}]"),
        Verdict("oracle_threshold_agreement",
                in_range and abs(best_th - rate_threshold) <= step + 1e-12,
                f"|{best_th:.6g} - {rate_threshold:.6g}| vs step {step:.3g}"),
        Verdict("oracle_throughput_agreement",
                abs(best_tp - sol.value) <= 0.005 * max(sol.value, 1e-12),
                f"oracle {best_tp:.6g} vs solver {sol.value:.6g}"),
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


_PACKET_ROW = "%d,%d,%d,%.12g,%d,%.12g,%.12g\r\n"
_CSV_BLOCK = 1024


def _write_packets_csv(path: Path, stats: SimStats) -> None:
    """The packet log in csv.writer's dialect: CRLF line ends, floats to 12
    significant digits. Each block interleaves the columns into one tuple."""
    n = stats.bits.size
    columns = (stats.main_observations, stats.sub_observations, stats.rate_at_stop,
               stats.relay, stats.elapsed, stats.bits)
    with path.open("w", newline="") as fh:
        fh.write("packet_index,main_observations,sub_observations,"
                 "rate_at_stop,relay,elapsed,bits\r\n")
        for i in range(0, n, _CSV_BLOCK):
            k = min(_CSV_BLOCK, n - i)
            cells = [None] * (7 * k)
            cells[0::7] = range(i + 1, i + k + 1)
            for j, column in enumerate(columns, start=1):
                cells[j::7] = column[i:i + k].tolist()
            fh.write(_PACKET_ROW * k % tuple(cells))


def _write_sweep_csv(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "threshold", "residual", "throughput", "stderr"])
        for row in rows:
            writer.writerow([row["axis"], row["value"], f"{row['threshold']:.12g}",
                             f"{row['residual']:.3e}",
                             "" if row["throughput"] is None else f"{row['throughput']:.12g}",
                             "" if row["stderr"] is None else f"{row['stderr']:.6g}"])


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
        if args.command == "sweep":
            values = [v for v in args.values.split(",") if v != ""]
            summary, files = cmd_sweep(cfg, args.axis, values, simulate=args.simulate)
        else:
            command = {"solve": cmd_solve, "simulate": cmd_simulate,
                       "compare": cmd_compare, "oracle": cmd_oracle}[args.command]
            summary, files = command(cfg)
    except RelayStopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary.runtime_s = time.perf_counter() - t0
    summary.config = cfg.echo()
    if cfg.out is not None:
        cfg.out.mkdir(parents=True, exist_ok=True)
        (cfg.out / "summary.json").write_text(
            json.dumps(dataclasses.asdict(summary), indent=2))
        for name, write in files.items():
            write(cfg.out / name)
    _print_summary(summary)
    return 0 if summary.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
