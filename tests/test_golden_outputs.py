"""Golden outputs: the CLI's numbers and files on the bench configs, pinned.

Each case runs one command in-process through ``cli.main`` on a small copy of
a bench config (1000 samples, 400 packets) and compares it with
tests/golden_outputs.json: the exit code, the thresholds and results at full
float precision, each verdict's name and pass flag, the sha256 of every output
file, and that of summary.json without ``runtime_s``, ``environment`` and
``config.out``. Each case also checks that ``environment`` names this run's
Python, numpy and relaystop versions.

numpy does not promise the same random streams across versions (NEP 19), so
the file records the Python and numpy versions it was made with, and every
case compares those first. Regenerate the file from the repository root with

    PYTHONPATH=src python -m tests.test_golden_outputs

which prints every changed leaf as ``case key: old → new`` before it writes.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import relaystop
from relaystop import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_outputs.json")

# case name -> (bench config, command line after the config)
CASES = {
    **{f"{name}-seed{seed}": (name, [command, "--seed", str(seed)])
       for name, command in (("stress_solve", "solve"), ("bilevel_compare", "compare"),
                             ("full_csi_sim", "simulate"))
       for seed in (1, 2, 3)},
    "oracle-full_csi_sim-seed1": ("full_csi_sim", ["oracle", "--seed", "1"]),
    "sweep-bilevel_compare-seed1": ("bilevel_compare", [
        "sweep", "--axis", "num_relays", "--values", "1,2", "--simulate", "--seed", "1"]),
}


def environment() -> dict:
    return {"python": "%d.%d" % sys.version_info[:2], "numpy": np.__version__}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, tmp: Path) -> dict:
    config, command = CASES[name]
    cfg = json.loads((ROOT / "perfbench" / "configs" / f"{config}.json").read_text())
    cfg["estimator"]["mc_samples"], cfg["sim"]["packets"] = 1000, 400
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command[0], "--config", str(path), *command[1:], "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    assert summary.pop("environment") == {
        "python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
        "relaystop": relaystop.__version__}
    del summary["runtime_s"], summary["config"]["out"]
    return {
        "exit": code,
        "thresholds": summary["thresholds"],
        "results": summary["results"],
        "verdicts": [[v["name"], v["passed"]] for v in summary["verdicts"]],
        "files": {f.name: _sha256(f.read_bytes())
                  for f in sorted(out.iterdir()) if f.name != "summary.json"},
        "summary_sha256": _sha256(json.dumps(summary, indent=2).encode()),
    }


def changed_leaves(old, new, path=()):
    """(path, old, new) for each leaf that differs between two JSON documents;
    a key missing on one side reads "absent" there."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in dict.fromkeys([*old, *new]):
            yield from changed_leaves(old.get(key, "absent"), new.get(key, "absent"),
                                      (*path, key))
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, pair in enumerate(zip(old, new)):
            yield from changed_leaves(*pair, (*path, str(i)))
    elif old != new:
        yield path, old, new


def test_changed_leaves_name_each_moved_value():
    old = {"a": {"x": 1, "b": [1.0, 2.0], "gone": 0}, "same": "s"}
    new = {"a": {"x": 1, "b": [1.0, 2.5], "new": [1]}, "same": "s"}
    assert list(changed_leaves(old, new)) == [
        (("a", "b", "1"), 2.0, 2.5), (("a", "gone"), 0, "absent"),
        (("a", "new"), "absent", [1])]


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(GOLDEN.read_text())
    assert recorded["environment"] == environment(), (
        f"golden outputs were made under {recorded['environment']}, this run is under "
        f"{environment()}: regenerate them here before comparing")
    return recorded["cases"]


def test_golden_cases_are_the_pinned_ones(golden):
    assert set(golden) == set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_golden_outputs_unchanged(tmp_path, golden, name):
    assert run_case(name, tmp_path) == golden[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cases = {name: run_case(name, Path(tmp)) for name in CASES}
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for (case, *key), old, new in changed_leaves(
            {"environment": recorded.get("environment"), **recorded.get("cases", {})},
            {"environment": environment(), **cases}):
        print(f"{case} {'.'.join(key)}: {old} → {new}")
    GOLDEN.write_text(json.dumps({"environment": environment(), "cases": cases},
                                 indent=2) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
