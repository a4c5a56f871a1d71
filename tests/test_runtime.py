"""The installed runtime needs numpy alone.

scipy serves the tests as an independent oracle (the ``test`` extra), so a
CLI run must not load it, and the package's imports must match what
``pyproject.toml`` declares.
"""
from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sparseppc
from test_cli import src_env

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sparseppc"


def declared_dependencies() -> set:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
            for req in requirements}


def third_party_imports() -> dict:
    """Top-level third-party module -> package files that import it.

    Every import statement counts, including ones inside functions.
    """
    found: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "sparseppc" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(path.name)
    return found


def test_cli_run_loads_no_scipy(tmp_path):
    script = (
        "import json, sys\n"
        "from sparseppc.cli import main\n"
        "code = main(['design', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                               if m.split('.')[0] == 'scipy')]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "configs" / "benchmark.json"),
         str(tmp_path)],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert (tmp_path / "design_report.json").exists()
    assert loaded == []


def test_imports_match_declared_dependencies():
    imported = third_party_imports()
    declared = declared_dependencies()
    assert declared == {"numpy"}
    undeclared = {m: sorted(files) for m, files in imported.items()
                  if m not in declared}
    assert not undeclared, f"imported but not declared: {undeclared}"
    assert not declared - set(imported), (
        f"declared but never imported: {sorted(declared - set(imported))}")


ONE_ROW_VIEWS = {"least_squares_packet", "ridge_packet", "fista_l1l2", "omp_l0"}


def test_no_module_calls_a_one_row_view():
    # Each one-row view builds a cold law per call; the package computes
    # every packet through a law built once per design.
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in ONE_ROW_VIEWS:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert not calls, f"one-row views called in the package: {calls}"


def test_cli_leaves_the_w_dominance_check_to_design_l0():
    # W > W* is checked in one place, design_l0, config overrides included.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "eigvalsh"]
    assert not calls, f"cli.py calls eigvalsh at lines {calls}"


def test_cli_builds_no_regulator_of_its_own():
    # Every family's regulator comes from design.design_linear; cli.py
    # only formats the designs.
    regulator = {"solve_dare", "build_horizon_matrices", "compute_wstar",
                 "fixed_point_residual", "LinearLaw"}
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    calls = [f"{node.lineno} {name}" for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (name := getattr(node.func, "id",
                                  getattr(node.func, "attr", None)))
             in regulator]
    assert not calls, f"cli.py builds a regulator at lines {calls}"
    imports = [node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module in ("riccati", "solvers")]
    assert not imports, f"cli.py imports from {imports}"


def test_public_surface_is_pinned():
    # A name added to or removed from the package surface shows up here.
    assert sparseppc.__all__ == [
        "__version__",
        "SparsePpcError", "ParameterError", "DegeneracyError", "SolverError",
        "DesignError", "ProtocolError", "ConfigError", "SimulationRunError",
        "PlantModel", "HorizonMatrices", "build_horizon_matrices", "propagate",
        "check_reachability", "controllability_matrix", "require_spd",
        "spd_sqrt",
        "DareSolution", "solve_dare", "fixed_point_residual",
        "Packet", "count_nonzero", "PacketLaw", "LinearLaw", "OmpLaw",
        "LassoLaw", "least_squares_packet", "ridge_packet", "fista_l1l2",
        "omp_l0",
        "L1L2Design", "L0Design", "design_l1l2", "design_l0", "compute_wstar",
        "omega_contains", "audit_value_sandwich", "audit_contraction_l1l2",
        "audit_contraction_l0", "audit_residual_l0", "SandwichAudit",
        "ContractionAuditL1L2", "ContractionAuditL0", "ResidualAudit",
        "DropoutTrace", "SimTrace", "MonteCarloResult",
        "gen_bounded_uniform_trace", "run_closed_loop", "run_conditions",
        "monte_carlo",
    ]
    assert all(hasattr(sparseppc, name) for name in sparseppc.__all__)


def test_readme_quick_start_runs_and_prints_what_it_claims(capsys):
    # The README's quick start is run as written.  Each print commented
    # "-> ~v" must print a value within 5% of v.
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    claims = 0
    for line, out in zip(prints, printed):
        claim = re.search(r"# -> ~(\S+?),?(\s|$)", line)
        if claim:
            claims += 1
            assert float(out) == pytest.approx(float(claim[1]), rel=0.05), line
    assert claims == len(prints)
