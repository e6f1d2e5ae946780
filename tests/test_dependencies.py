"""The package has no runtime dependencies: every module imports only the
standard library and the package itself, at module level or inside a
function alike."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tolerant"
MODULES = sorted(PACKAGE.rglob("*.py"))


def imported_names(tree):
    """(line, top-level module name) of every absolute import in ``tree``;
    relative imports name the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.partition(".")[0]


def test_the_package_has_modules():
    assert {"_rings.py", "field.py", "cli.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_standard_library_or_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [(line, name) for line, name in imported_names(tree)
               if name != "tolerant" and name not in sys.stdlib_module_names]
    assert foreign == [], f"{path.name} imports outside the standard library"
