"""The three evaluation routes stay independent of each other.

The drop-dynamics oracle must not import the closed formulas it checks,
and the simulator must not import the exact engine it checks.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "remixed"


def imported_modules(path: Path) -> set[str]:
    """Package modules a source file imports, by their name inside the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "remixed" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "remixed":
                continue
            inner = parts[1:] if node.level == 0 else [p for p in parts if p]
            if inner:
                found.add(inner[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("module, forbidden", [("engine", "formulas"), ("simulate", "engine")])
def test_route_does_not_import_what_it_checks(module, forbidden):
    assert forbidden not in imported_modules(PACKAGE / f"{module}.py")


def test_import_reader_sees_every_form(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "import remixed.formulas\n"
        "from remixed.engine import exact_sweep\n"
        "from . import simulate\n"
        "from .qcalc import QPoly\n"
        "import math\n"
    )
    assert imported_modules(src) == {"formulas", "engine", "simulate", "qcalc"}
