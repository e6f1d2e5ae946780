"""Every module-level function and class of the package is mentioned
somewhere outside its own definition: in ``src/``, ``tests/``, ``bench/`` or
README.md.  A helper left without callers fails here."""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tolerant"
MODULES = sorted(PACKAGE.glob("*.py"))


@functools.cache
def texts() -> dict:
    """Path -> lines of every file that may mention a name."""
    paths = [path for d in ("src", "tests", "bench")
             for path in (ROOT / d).rglob("*.py")]
    return {path: path.read_text(encoding="utf-8").splitlines()
            for path in [*paths, ROOT / "README.md"]}


def mentioned(name: str, path: Path, node: ast.AST) -> bool:
    """Whether ``name`` appears outside lines first..end of ``node``, its
    decorators included, in ``path``."""
    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
    word = re.compile(rf"\b{re.escape(name)}\b")
    for other, lines in texts().items():
        if other == path:
            lines = lines[:first - 1] + lines[node.end_lineno:]
        if any(word.search(line) for line in lines):
            return True
    return False


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_definition_is_mentioned(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
              and not mentioned(node.name, path, node)]
    assert unused == [], f"{path.name} defines names nothing mentions"
