"""The package namespace: exactly the names the CLI, the bench and the README use."""

import ast
import math
import re
import types
from pathlib import Path

import relaystop
from relaystop import cli

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "SystemParams", "RayleighFading", "FixedGain", "EstimatorConfig", "SimConfig",
    "PolicyKind", "PolicySpec",
    "solve_full_csi_lambda", "solve_main_gamma_intuitive", "solve_main_gamma_optimal",
    "solve_sub_layer_batch", "solve_sub_w_batch", "oracle_threshold_search",
    "full_csi_rate_sampler", "default_observations", "success_prob",
    "run_scenario1", "run_scenario2",
    "ThresholdSolution", "SubLayerStats", "SimStats",
    "RelayStopError", "ConfigError", "InvalidParameterError", "SolverFailureError",
    "ContentionDeadlockError", "CappedPacketError",
}
# public in their own modules (channel, contention, policies), not in the package's
MODULE_ONLY = ("af_rate", "rate_saturation", "sample_contention", "full_csi_decide",
               "intuitive_main_decide", "intuitive_sub_decide", "optimal_main_decide",
               "optimal_sub_decide")


def test_all_is_the_pipeline_surface():
    assert len(relaystop.__all__) == len(PUBLIC) == 27
    assert set(relaystop.__all__) == PUBLIC
    assert not [name for name in relaystop.__all__
                if isinstance(getattr(relaystop, name), types.ModuleType)]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from relaystop import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_helpers_leave_the_package_namespace():
    assert [name for name in MODULE_ONLY if hasattr(relaystop, name)] == []


def test_bench_imports_only_public_names():
    imported = set()
    for script in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "relaystop":
                imported.update(alias.name for alias in node.names)
    # child.py wraps functions inside the submodules it imports by name
    submodules = {name for name in imported
                  if (ROOT / "src" / "relaystop" / f"{name}.py").exists()}
    assert imported - submodules
    assert imported - submodules <= PUBLIC


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    stats = namespace["stats"]
    assert math.isfinite(stats.throughput) and stats.throughput > 0


def test_readme_names_the_config_sections():
    # a dropped or added section must not leave the README naming a key that exits 2
    text = " ".join((ROOT / "README.md").read_text().split())
    sentence = re.search(r"The config root holds (.*?);", text).group(1)
    assert set(re.findall(r"`(\w+)`", sentence)) == set(cli.SECTIONS)
