"""The three evaluation routes stay independent of each other.

The drop-dynamics oracle must not import the closed formulas it checks,
the simulator takes only Configuration from the package, so nothing from
the exact engine it checks, and the closed formulas take from the engine
only the recursion they fall back on.  The scalar reference the tests
check the simulator against imports nothing from the package.  Inside the
engine, one drop step moves every ball, for the single-order oracle and
the sweep alike, and one function builds the weights at the points both
of them interpolate from.  The identity suites, which check every route,
are imported by the command line front end only.  In qcalc, one kernel
reads packed sums back, and no module takes a private name of qcalc but
the Pochhammer step of the formulas.  No module of the package holds an
assert statement, which python -O strips.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "remixed"


def imports(path: Path) -> dict[str, set[str]]:
    """Package modules a source file imports, by their name inside the package.

    Each maps to the names imported from it; "*" stands for the whole module.
    """
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "remixed" and len(parts) > 1:
                    found.setdefault(parts[1], set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "remixed":
                continue
            inner = parts[1:] if node.level == 0 else [p for p in parts if p]
            if inner:
                found.setdefault(inner[0], set()).update(alias.name for alias in node.names)
            else:
                for alias in node.names:
                    found.setdefault(alias.name, set()).add("*")
    return found


@pytest.mark.parametrize("module, forbidden", [("engine", "formulas"), ("simulate", "engine")])
def test_route_does_not_import_what_it_checks(module, forbidden):
    assert forbidden not in imports(PACKAGE / f"{module}.py")


def test_simulator_takes_only_the_configuration_from_the_package():
    assert imports(PACKAGE / "simulate.py") == {"config": {"Configuration"}}


def test_formulas_take_only_the_recursion_from_the_engine():
    assert imports(PACKAGE / "formulas.py")["engine"] == {"remixed_induction"}


def test_one_drop_kernel_reads_the_bounce_geometry():
    tree = ast.parse((PACKAGE / "engine.py").read_text())
    readers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(node, ast.Name) and node.id == "_bounce_table" for node in ast.walk(func))
    }
    assert readers == {"_drop"}


def test_one_packed_evaluator():
    tree = ast.parse((PACKAGE / "qcalc.py").read_text())
    readers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(node, ast.Name) and node.id == "_unpack" for node in ast.walk(func))
    }
    assert readers == {"poly_sum"}
    private = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name in imports(path).get("qcalc", ())
        if name.startswith("_")
    }
    assert private == {("formulas", "_times_pochhammer")}


def test_one_builder_of_the_oracle_weights():
    # every other caller of _Weights asks for a tuple of points it names
    tree = ast.parse((PACKAGE / "engine.py").read_text())
    builders = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_Weights"
        and not (len(node.args) == 2 and isinstance(node.args[1], ast.Tuple))
    }
    assert builders == {"_oracle_weights"}


def test_only_the_cli_imports_the_identity_suites():
    importers = {path.stem for path in PACKAGE.glob("*.py") if "verify" in imports(path)}
    assert importers == {"cli"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_assert_in_the_package(path):
    # python -O strips assert statements; invariants raise InvariantViolation
    asserts = [node.lineno for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert asserts == []


def test_scalar_reference_imports_nothing_from_the_package():
    assert imports(TESTS / "scalar_sim.py") == {}


def test_import_reader_sees_every_form(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "import remixed.formulas\n"
        "from remixed.engine import exact_sweep\n"
        "from . import simulate\n"
        "from .qcalc import QPoly, ONE\n"
        "from .engine import remixed_exact\n"
        "import math\n"
    )
    assert imports(src) == {
        "formulas": {"*"},
        "engine": {"exact_sweep", "remixed_exact"},
        "simulate": {"*"},
        "qcalc": {"QPoly", "ONE"},
    }
