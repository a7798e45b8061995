"""The three evaluation routes stay independent of each other.

The drop-dynamics oracle must not import the closed formulas it checks,
the simulator takes only Configuration from the package, so nothing from
the exact engine it checks, and the closed formulas take from the engine
only the recursion they fall back on.  The scalar reference the tests
check the simulator against imports nothing from the package, and the
schoolbook reference the tests check the product kernels against takes
only the QPoly container and its ONE and ZERO.  Inside the
engine, one drop step moves every ball and is the one place that searches
for a hole, one walk over a stream of drop orders is the only caller of
that step, for the single-order oracle and the sweep alike, and the point
a walk runs at is built only by the oracle, the sweep and the probability
of one order.  The identity suites, which check every route, are imported
by the command line front end only.  In qcalc, one digit reader serves the
packed evaluator and the oracle's read-back, and no module takes a private
name of qcalc but the Pochhammer step of the formulas.  No module of the
package holds an assert statement, which python -O strips, and every
name a module imports is read there, but for its stated re-exports.  numpy is
imported only inside the simulator's array kernels, so every exact route,
the sweep and the identity suites included, runs without loading it.
"""

import ast
import json
import os
import subprocess
import sys
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


def hole_searchers(tree: ast.AST) -> set[str]:
    """Functions that scan an occupancy mask for a hole: the callers of .bit_length()."""
    return {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "bit_length"
            for node in ast.walk(func)
        )
    }


def test_one_drop_kernel_finds_the_holes():
    assert hole_searchers(ast.parse((PACKAGE / "engine.py").read_text())) == {"_drop"}


def test_hole_search_outside_the_drop_kernel_is_caught():
    tree = ast.parse((PACKAGE / "engine.py").read_text())
    (walk,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_walk"]
    walk.body[:0] = ast.parse("left = ~mask & (bit - 1)\na = s - left.bit_length()").body
    assert hole_searchers(tree) == {"_drop", "_walk"}


def callers(tree: ast.AST, name: str) -> set[str]:
    """Functions whose body calls the plain name, a module-level function."""
    return {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    }


def test_one_walk_drops_the_balls():
    # the single orders and the sweep both drop their balls through _walk
    assert callers(ast.parse((PACKAGE / "engine.py").read_text()), "_drop") == {"_walk"}


def test_one_packed_evaluator():
    tree = ast.parse((PACKAGE / "qcalc.py").read_text())
    readers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(node, ast.Name) and node.id == "_unpack" for node in ast.walk(func))
    }
    assert readers == {"poly_sum", "kronecker_read"}
    private = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name in imports(path).get("qcalc", ())
        if name.startswith("_")
    }
    assert private == {("formulas", "_times_pochhammer")}


def test_one_builder_of_the_oracle_weights():
    # the point a walk runs at is built by the oracle, the sweep and the
    # probability of one order only
    builders = callers(ast.parse((PACKAGE / "engine.py").read_text()), "_point")
    assert builders == {"remixed_exact", "exact_sweep", "_probability"}


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


def test_series_reference_takes_only_the_containers_from_the_package():
    # the products it checks the kernels with are its own, never poly_sum's
    assert imports(TESTS / "series_reference.py") == {"qcalc": {"QPoly", "ONE", "ZERO"}}


def unread_imports(tree: ast.AST) -> set[str]:
    """Names a module binds by an import statement and never reads.

    A name in the module's __all__ counts as read; __future__ imports bind nothing.
    """
    bound: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return bound - read


# a re-export stated in a comment beside its import
REEXPORTS = {"formulas.py": {"ShiftOutOfRange"}}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unread_imports(ast.parse(path.read_text())) == REEXPORTS.get(path.name, set())


def test_unread_import_reader_sees_every_form():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from itertools import repeat\n"
        "from operator import mul, neg as minus\n"
        "from .qcalc import QPoly, ONE\n"
        "__all__ = ['QPoly']\n"
        "def f(x: ONE):\n"
        "    return minus(x), os.sep\n"
    )
    assert unread_imports(tree) == {"np", "repeat", "mul"}


def import_time_modules(path: Path) -> set[str]:
    """Top-level names of the modules a source file imports when it is itself imported.

    A function body runs only when called, and the body of an
    `if TYPE_CHECKING:` never runs; every other statement, in a class body,
    a try or a plain if, runs at import.
    """
    found: set[str] = set()

    def visit(nodes) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If) and "TYPE_CHECKING" in {
                getattr(node.test, "id", None),
                getattr(node.test, "attr", None),
            }:
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(path.read_text()).body)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_numpy_at_import_time(path):
    assert "numpy" not in import_time_modules(path)


def test_import_time_reader_sees_every_form(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "import typing\n"
        "from typing import TYPE_CHECKING\n"
        "import os.path\n"
        "from . import simulate\n"
        "if TYPE_CHECKING:\n"
        "    import numpy\n"
        "else:\n"
        "    import json\n"
        "if typing.TYPE_CHECKING:\n"
        "    import numpy\n"
        "try:\n"
        "    from fractions import Fraction\n"
        "except ImportError:\n"
        "    pass\n"
        "class Lane:\n"
        "    import math\n"
        "    def method(self):\n"
        "        import numpy\n"
        "def kernel():\n"
        "    import numpy as np\n"
    )
    assert import_time_modules(src) == {"typing", "os", "json", "fractions", "math"}


def test_numpy_stays_unloaded_until_an_array_kernel_runs():
    # a fresh interpreter: the test process itself has numpy loaded; every
    # exact route, the sweep and the identity suites included, runs first
    script = """
import contextlib, io, json, sys
from fractions import Fraction
import remixed
from remixed import cli
from remixed.config import Configuration, all_configurations
from remixed.engine import exact_sweep, remixed_exact
from remixed.simulate import simulate_batch
argvs = [
    ["eval", "0,0,2,1,1,3,0,2,0,0,0,4,0", "--crosscheck"],
    ["eval", "0,2,1,0,3,0", "--method", "exact", "--crosscheck"],
    ["classify", "0,0,2,1,1,3,0,2,0,0,0,4,0"],
    ["table", "hit", "--lambda", "4,2,1", "--n", "7"],
    ["table", "cs", "--x", "2", "--y", "3", "--rsmax", "3"],
    ["verify", "all", "--nmax", "4"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
table = exact_sweep(3)
sweep = sorted(table) == sorted(c.c for c in all_configurations(3)) and all(
    table[ct] == remixed_exact(Configuration(ct)) for ct in table
)
before = "numpy" in sys.modules
flags = simulate_batch(Configuration((1, 1, 1)), Fraction(1), 40, 3)
print(json.dumps({"codes": codes, "before": before, "sweep": sweep,
                  "simulated": int(flags.sum()), "after": "numpy" in sys.modules}))
"""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "codes": [0, 0, 0, 0, 0, 0],
        "before": False,
        "sweep": True,
        "simulated": 40,
        "after": True,
    }


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
