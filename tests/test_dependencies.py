"""The library imports only the standard library and its own modules, so the
test-only oracles (sympy, mpmath, hypothesis) never become dependencies."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spets"


def foreign_imports(source: str) -> list[str]:
    """Modules imported by the source that are neither relative imports of
    sibling spets modules nor in the standard library."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:  # from .module import ...: a sibling spets module
                continue
            names.append("." * node.level + (node.module or ""))
    return [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_only_stdlib(path):
    assert foreign_imports(path.read_text()) == []


def test_guard_flags_foreign_imports():
    src = ("import re\nimport sympy\nfrom mpmath import mp\nfrom . import laurent\n"
           "from .cyclotomic import Cyclo\nfrom ..other import f\nimport os.path\n")
    assert foreign_imports(src) == ["sympy", "mpmath", "..other"]
