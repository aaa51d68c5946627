"""Module boundaries of the package, checked on its source.

No module reaches into another's private names, and the solver names no hop
model and reads no power or mean gain: each hop's law, and the best-relay law
built on both hops, lives in ``relaystop.channel``, and the solver calls it by
name or by method. It reads a second-hop kernel only through ``rows``, ``e0``,
``sat_top`` and ``excess_tail``. The simulator names no ``success_prob``: the relay
contention law lives in the solver, whose relay-level solves return P.

The simulator and the solver make no BLAS reduction (``@``, ``dot``, ``inner``,
``vdot``, ``matmul``): OpenBLAS splits a long dot across threads, so its sum
would depend on the thread count. The one BLAS reduction left in the package
is the best-relay quadrature's dot of at most 256 terms in
``relaystop.channel``, below the length where OpenBLAS splits one.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relaystop"
MODULES = sorted(PACKAGE.glob("*.py"))
HOP_MODELS = {"RayleighFading", "FixedGain"}
HOP_LAW_INPUTS = {"source_power", "relay_power", "first_hop_mean_gain", "second_hop_mean_gain"}
KERNEL_INTERFACE = {"rows", "e0", "sat_top", "excess_tail"}
BLAS_REDUCTIONS = {"dot", "inner", "vdot", "matmul"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _from_package(node: ast.ImportFrom) -> bool:
    return bool(node.level) or (node.module or "").split(".")[0] == "relaystop"


def private_reach(tree: ast.Module) -> list[str]:
    """Each `_`-prefixed name taken from another relaystop module: by a
    from-import, or as an attribute of an imported relaystop module."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _from_package(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
                elif node.module is None or node.module == "relaystop":
                    modules.add(alias.asname or alias.name)  # from . import policies
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "relaystop":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def hop_dispatch(tree: ast.Module) -> list[str]:
    """Each hop-model name, and each isinstance test of a hop."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in HOP_MODELS:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in HOP_MODELS:
            found.append(node.attr)
        elif isinstance(node, ast.alias) and node.name in HOP_MODELS:
            found.append(f"import {node.name}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and "hop" in ast.unparse(node).lower()):
            found.append(ast.unparse(node))
    return found


def hop_law_reads(tree: ast.Module) -> list[str]:
    """Each read of a power or a hop's mean gain, the inputs of the channel laws."""
    return [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in HOP_LAW_INPUTS]


def kernel_reads(tree: ast.Module) -> set[str]:
    """The attributes read off a second-hop kernel: a name ``kernel`` or ``*_kernel``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and (node.value.id == "kernel" or node.value.id.endswith("_kernel"))}


def blas_reductions(tree: ast.Module) -> list[str]:
    """Each matrix product (``@``, ``@=``), each attribute named as a numpy BLAS
    reduction (``np.dot``, ``x.dot``), and each call or import of one by its
    bare name (a variable called ``inner`` is not one)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_REDUCTIONS:
            found.append(ast.unparse(node))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in BLAS_REDUCTIONS):
            found.append(ast.unparse(node.func))
        elif isinstance(node, ast.alias) and node.name in BLAS_REDUCTIONS:
            found.append(f"import {node.name}")
    return found


def name_uses(tree: ast.Module, name: str) -> list[str]:
    """Each use of ``name``: an import of it, the bare name or an attribute."""
    return [ast.unparse(node) if not isinstance(node, ast.alias) else f"import {node.name}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and node.name == name)]


def test_the_package_has_modules():
    assert {"channel.py", "solver.py", "simulator.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_no_module_imports_another_modules_private_names(module):
    assert private_reach(ast.parse(module.read_text())) == []


def test_solver_names_no_hop_model():
    assert hop_dispatch(ast.parse((PACKAGE / "solver.py").read_text())) == []


def test_solver_reads_no_power_or_mean_gain():
    assert hop_law_reads(ast.parse((PACKAGE / "solver.py").read_text())) == []


def test_solver_reads_a_kernel_only_through_its_interface():
    # the kernel's arrays, and their layout, are relaystop.channel's alone
    assert kernel_reads(ast.parse((PACKAGE / "solver.py").read_text())) == KERNEL_INTERFACE


def test_simulator_names_no_contention_law():
    # the relay contention law E[time] = T/2 + tau / (2 p_r P) lives in the
    # solver, which returns P; the simulator does not re-derive it
    assert name_uses(ast.parse((PACKAGE / "simulator.py").read_text()), "success_prob") == []


@pytest.mark.parametrize("name", ["simulator.py", "solver.py"])
def test_simulator_and_solver_make_no_blas_reduction(name):
    assert blas_reductions(ast.parse((PACKAGE / name).read_text())) == []


def test_the_checks_see_what_they_forbid():
    planted = ast.parse("from .solver import _as_rows, EstimatorConfig\n"
                        "from relaystop.channel import _scaled_exp1\n"
                        "from . import __version__, policies\n"
                        "import relaystop.solver as solver\n"
                        "policies._private(solver._newton, policies.public)\n")
    assert private_reach(planted) == ["from .solver import _as_rows",
                                      "from relaystop.channel import _scaled_exp1",
                                      "policies._private", "solver._newton"]
    planted = ast.parse("from .channel import FixedGain\n"
                        "if isinstance(hop, channel.RayleighFading) or isinstance(x, int):\n"
                        "    pass\n")
    assert sorted(hop_dispatch(planted)) == sorted([
        "import FixedGain", "RayleighFading", "isinstance(hop, channel.RayleighFading)"])
    planted = ast.parse("a_bar = params.source_power * params.first_hop_mean_gain\n"
                        "kappa = 1.0 / (cfg.params.relay_power * mean_gain)\n"
                        "b_bar = p.second_hop_mean_gain if p.num_relays else p.slot_time\n")
    assert sorted(hop_law_reads(planted)) == sorted([
        "source_power", "first_hop_mean_gain", "relay_power", "second_hop_mean_gain"])
    planted = ast.parse("from .contention import sample_contention, success_prob\n"
                        "p_r = contention.success_prob(n, p) * success_prob(2, 0.5)\n"
                        "stop_prob = success_probability = 1.0\n")
    assert sorted(name_uses(planted, "success_prob")) == sorted([
        "import success_prob", "contention.success_prob", "success_prob"])
    planted = ast.parse("hi = np.maximum(th, kernel.sat.max(axis=0), kernel.sat_top)\n"
                        "kernels.append(chunk_kernel.kappa + kernel.rows.shape[0])\n")
    assert kernel_reads(planted) == {"sat", "sat_top", "kappa", "rows"}
    planted = ast.parse("from numpy import inner, vdot\n"
                        "var = db @ db - 2.0 * r * np.dot(db, dt)\n"
                        "acc @= m\n"
                        "s = np.matmul(a, b) + b.vdot(a) + inner(a, b) + np.sum(a * b)\n"
                        "inner = outer = 0\n")
    assert sorted(blas_reductions(planted)) == sorted([
        "import inner", "import vdot", "db @ db", "np.dot", "acc @= m", "np.matmul",
        "b.vdot", "inner"])
