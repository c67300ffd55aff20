"""Static checks on the package source, with the standard library's ast."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "packbound"


def unused_imports(source: str) -> list:
    """Names bound by an import statement in source and never read.  The
    first part of a dotted `import a.b` is the name it binds; `__future__`
    imports bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = (
                    node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_unused_imports_finds_what_a_deletion_leaves():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport mpmath as mp\n"
              "from . import exact\nfrom .exact import frac, poly_eval\n"
              "x = frac(mp.pi) + math.e\n")
    assert unused_imports(source) == [(3, "os"), (5, "exact"),
                                      (6, "poly_eval")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_src_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
