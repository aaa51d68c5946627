"""The benchmark's wrap points: every package name perfbench/ looks up exists.

perfbench/child.py replaces functions of ``relaystop.cli``, ``simulator``,
``policies`` and ``channel`` by timed wrappers before it calls the CLI, and
child.py and run.py import further names from the package. A name that
leaves the package breaks traced benchmark runs, so this check runs the
wrapping and resolves every such name in a fresh interpreter. It only reads
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


def test_bench_wrap_points_and_imports_resolve():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-B", "-c", RESOLVE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "resolved"
