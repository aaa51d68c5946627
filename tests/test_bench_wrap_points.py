"""The benchmark's wrap points and output contract, checked against the package.

perfbench/child.py replaces functions of ``relaystop.cli``, ``simulator``,
``policies`` and ``channel`` by timed wrappers before it calls the CLI, and
child.py and run.py import further names from the package. A name that
leaves the package breaks traced benchmark runs, so the first check runs the
wrapping and resolves every such name in a fresh interpreter. The second runs
each workload's command on a small copy of its config and applies the bench's
own report and packet-log checks. The third runs the ``--trace 1`` probe, which
reads the loaded config and calls the batch solvers itself. All three only read
perfbench/: ``-B`` keeps bytecode out of it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RESOLVE = """
import ast, importlib, pathlib, types

import child, spans

wrapped_main = child.instrument(spans.Recorder(), traced=True)
assert callable(wrapped_main)
for script in ("child.py", "run.py"):
    tree = ast.parse(pathlib.Path("perfbench", script).read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("relaystop"):
                    modules[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("relaystop"):
            package = importlib.import_module(node.module)
            for alias in node.names:
                modules[alias.asname or alias.name] = getattr(package, alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if isinstance(module, types.ModuleType):
                getattr(module, node.attr)
print("resolved")
"""

# The sizes perfbench/test_bench.py runs its workloads at. Each command runs
# through child.py's plain mode, as a bench run does: the bench's setup_s ends at
# the first solver span, so a solver the CLI calls past the wrapped names leaves
# it unset. The packet-log and residual checks are run.py's; its million-sample
# exact-throughput check is not.
CONTRACT = """
import contextlib, io, json, math, pathlib, sys

import child, run

tmp = pathlib.Path(sys.argv[1])
for name, workload in run.WORKLOADS.items():
    cfg = json.loads((run.BENCH / "configs" / f"{name}.json").read_text())
    cfg["estimator"]["mc_samples"], cfg["sim"]["packets"] = 1000, 400
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp / name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code, result, _ = child.run_cli("plain", run.Run(name, 5, tmp, config=path).cli_args(out))
    assert code in (0, 1), (name, code)
    assert result["t_first_solve"] is not None, name
    values, _ = run.parse_report(stdout.getvalue())
    for solve in workload.solves:
        assert math.isfinite(values[solve.value]), (name, solve)
        assert abs(values[solve.residual]) <= cfg["estimator"]["tol"], (name, solve)
    for sim in workload.sims:
        assert run.check_packets(out / sim.csv, 400, values[sim.throughput])[0], (name, sim)
        assert math.isfinite(values[sim.stderr]), (name, sim)
print("contract holds")
"""


# child.py's probe on the stress_solve config at 1000 samples, at a gamma near
# the solved one: each measured figure must come out finite and positive.
PROBE = """
import json, math, pathlib, sys

import child, run

cfg = json.loads((run.BENCH / "configs" / "stress_solve.json").read_text())
cfg["estimator"]["mc_samples"] = 1000
path = pathlib.Path(sys.argv[1]) / "stress_solve.json"
path.write_text(json.dumps(cfg))
out = child.probe(["solve", "--config", str(path), "--seed", "1"], 0.77)
for key in ("w_batch_rows_per_s", "sub_layer_batch_rows_per_s", "coupled_peak_mb"):
    assert math.isfinite(out[key]) and out[key] > 0, (key, out)
print("probe runs")
"""


def run_with_bench(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-B", "-c", script, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_bench_wrap_points_and_imports_resolve():
    assert run_with_bench(RESOLVE) == "resolved"


def test_bench_workloads_meet_the_output_contract(tmp_path):
    assert run_with_bench(CONTRACT, str(tmp_path)) == "contract holds"


def test_bench_probe_runs(tmp_path):
    assert run_with_bench(PROBE, str(tmp_path)) == "probe runs"
