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


def unused_parameters(source: str) -> list:
    """(line, function, parameter) for each parameter of a def or lambda in
    source that the function never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            found += [(node.lineno, getattr(node, "name", "<lambda>"), p.arg)
                      for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p and p.arg not in read]
    return sorted(found)


def _shared_handler_signature(path, name, param) -> bool:
    """The one exemption: dispatch calls every cli._cmd_* handler as
    handler(args, cfg), so a handler keeps both even if it reads one."""
    return (path.name == "cli.py" and name.startswith("_cmd_")
            and param in ("args", "cfg"))


def test_unused_parameters_finds_what_a_deletion_leaves():
    source = ("def _f2_rank(rows, n):\n    return len(rows)\n"
              "class A:\n    def get(self, key, *, default=None):\n"
              "        return self.table.get(key)\n"
              "f = lambda x, *rest, **kw: kw\n")
    assert unused_parameters(source) == [
        (1, "_f2_rank", "n"), (4, "get", "default"),
        (6, "<lambda>", "rest"), (6, "<lambda>", "x")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_src_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_src_has_no_unused_parameters(path):
    assert [(line, name, param) for line, name, param
            in unused_parameters(path.read_text())
            if not _shared_handler_signature(path, name, param)] == []
