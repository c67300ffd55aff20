"""Static checks on the package source, with the standard library's ast."""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "packbound"


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


def _dispatched(path, name) -> bool:
    """Whether name is a cli._cmd_* handler, which dispatch looks up by a
    name it builds from the command."""
    return path.name == "cli.py" and name.startswith("_cmd_")


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
    assert unused_parameters(path.read_text()) == []


def _names_read(tree) -> Counter:
    """How often each name is read in tree: as a name, an attribute or a
    string constant."""
    names = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names[n.value] += 1
    return names


def uncalled_defs(source: str, call_sources) -> list:
    """(line, function) for each def in source whose name nothing in
    call_sources reads outside that def: no call, no reference (a method
    handed to partial, a function to map) and no string naming it (a
    tracer wraps a function by name).  Dunder methods, which Python calls,
    are left out."""
    read = sum((_names_read(ast.parse(s)) for s in call_sources), Counter())
    return sorted((node.lineno, node.name)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (node.name.startswith("__")
                           and node.name.endswith("__"))
                  and read[node.name] <= _names_read(node)[node.name])


def test_uncalled_defs_finds_test_only_code():
    source = ("def used(x):\n    return helper(x)\n"
              "def helper(x):\n    return x\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
              "def traced():\n    pass\n"
              "class K:\n    def __init__(self):\n        self.f = self.m\n"
              "    def m(self):\n        return 1\n"
              "    def unused(self):\n        return 2\n")
    callers = "used(1)\nwrap(K, 'traced')\n"
    assert uncalled_defs(source, [source, callers]) == [
        (5, "recursive"), (14, "unused")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_src_defs_have_callers(path):
    # a def that only tests call is code the program does not need
    calls = [p.read_text() for p in sorted(SRC.glob("*.py"))
             + sorted((ROOT / "bench").glob("*.py"))]
    assert [(line, name) for line, name
            in uncalled_defs(path.read_text(), calls)
            if not _dispatched(path, name)] == []


def unread_module_names(source: str, read_sources) -> list:
    """(line, name) for each name that an assignment at the top level of
    source binds and that nothing in read_sources reads: as a name, an
    attribute or a string, as _names_read counts them.  Dunder names, which
    Python reads, are left out."""
    read = sum((_names_read(ast.parse(s)) for s in read_sources), Counter())
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            found += [(n.lineno, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)
                      and not (n.id.startswith("__") and n.id.endswith("__"))
                      and not read[n.id]]
    return sorted(found)


def test_unread_module_names_finds_a_leftover_constant():
    source = ("__all__ = ['f']\n_USED = 1\n_LEFT, _RIGHT = 2, 3\n"
              "_LEFTOVER = 64\nLIMIT: int = 10\n_NAMED = 5\n"
              "def f():\n    _LOCAL = 7\n    return _USED + _LEFT\n"
              "class K:\n    _FIELD = 8\n")
    readers = "import m\nm.LIMIT\nsetattr(m, '_NAMED', 6)\n"
    assert unread_module_names(source, [source, readers]) == [
        (3, "_RIGHT"), (4, "_LEFTOVER")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_src_module_names_are_read(path):
    # a constant that nothing in the program reads is left behind by a
    # deletion; a test that sets or reads it does not keep it alive
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))
               + sorted((ROOT / "bench").glob("*.py"))]
    assert unread_module_names(path.read_text(), sources) == []


def attribute_getters(source: str) -> list:
    """(line, function) for each def in source whose whole body, after an
    optional docstring, is `return self.<attr>`: a field read through a
    call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (len(body) > 1 and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            ret = body[0]
            if (len(body) == 1 and isinstance(ret, ast.Return)
                    and isinstance(ret.value, ast.Attribute)
                    and isinstance(ret.value.value, ast.Name)
                    and ret.value.value.id == "self"):
                found.append((node.lineno, node.name))
    return sorted(found)


def test_attribute_getters_finds_a_stored_field_behind_a_call():
    source = ("class L:\n    def is_unimodular(self):\n"
              "        'Its own dual.'\n        return self.unimodular\n"
              "    def quantum(self):\n        return self.q\n"
              "    def doc(self):\n        'only a docstring'\n"
              "    def table(self):\n        return dict(self.rows)\n"
              "    def other(self, x):\n        return x.q\n"
              "    def nested(self):\n        return self.a.b\n")
    assert attribute_getters(source) == [(2, "is_unimodular"), (5, "quantum")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_src_reads_fields_without_getters(path):
    assert attribute_getters(path.read_text()) == []


def _passes(call, index, param) -> bool:
    """Whether call passes the parameter at positional index (None for a
    keyword-only one) named param; a *args or **kwargs passes every one."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, param) for k in call.keywords)
            or (index is not None and len(call.args) > index))


def _parameters(def_sources, call_sources):
    """(function, positional index or None for a keyword-only one, parameter,
    whether it has a default, the calls of the function) for each parameter
    of a def in def_sources that is called in call_sources.  Calls are
    matched by name, and a call of a class is a call of its __init__; a
    def with no call is left out, and so is a method's self or cls."""
    calls = {}
    for source in call_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                calls.setdefault(name, []).append(node)
    for source in def_sources:
        tree = ast.parse(source)
        owner = {id(n): c.name for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) for n in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = owner.get(id(node))
            sites = calls.get(cls if node.name == "__init__" else node.name)
            if not sites:
                continue
            bound = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list)
            a = node.args
            positional = (a.posonlyargs + a.args)[bound:]
            first = len(positional) - len(a.defaults)
            qualname = f"{cls}.{node.name}" if cls else node.name
            for i, p in enumerate(positional):
                yield qualname, i, p.arg, i >= first, sites
            for p, default in zip(a.kwonlyargs, a.kw_defaults):
                yield qualname, None, p.arg, default is not None, sites


def defaults_never_passed(def_sources, call_sources) -> list:
    """(function, parameter) for each parameter with a default of a def in
    def_sources that is called in call_sources but that no call passes."""
    return sorted((name, param) for name, i, param, default, sites
                  in _parameters(def_sources, call_sources)
                  if default and not any(_passes(c, i, param) for c in sites))


def _literal(call, index, param):
    """The constant that call passes for the parameter at positional index
    (None for a keyword-only one) named param, as (type, value); None when
    it passes an expression, or a *args or **kwargs may pass it."""
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords)):
        return None
    passed = [k.value for k in call.keywords if k.arg == param]
    if not passed and index is not None and index < len(call.args):
        passed = [call.args[index]]
    if passed and isinstance(passed[0], ast.Constant):
        return type(passed[0].value), passed[0].value
    return None


def literals_always_passed(def_sources, call_sources) -> list:
    """(function, parameter) for each parameter without a default of a def
    in def_sources that every call in call_sources passes as one and the
    same constant: a constant spelled at each call."""
    found = []
    for name, i, param, default, sites in _parameters(def_sources,
                                                      call_sources):
        values = {_literal(call, i, param) for call in sites}
        if not default and len(values) == 1 and None not in values:
            found.append((name, param))
    return sorted(found)


def test_defaults_never_passed_finds_a_constant_option():
    source = ("def f(a, b=1, *, c=2):\n    return a + b + c\n"
              "def g(x, y=0, z=0):\n    return x + y + z\n"
              "def unused(w=3):\n    return w\n"
              "class K:\n    def __init__(self, p, q=None):\n"
              "        self.p = p\n"
              "    def m(self, r, s=5):\n        return r + s\n"
              "    @staticmethod\n    def h(t=1):\n        return t\n"
              "f(1, 2)\ng(1, y=2)\ng(*[1, 2, 3])\nK(1).m(3, 4)\nK.h(0)\n")
    assert defaults_never_passed([source], [source]) == [
        ("K.__init__", "q"), ("f", "c")]


def test_src_defaults_are_overridden():
    # an option that every caller in the program leaves at its default is
    # a constant; tests set such a constant with monkeypatch
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    bench = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    assert defaults_never_passed(sources, sources + bench) == []


def test_literals_always_passed_finds_a_constant_argument():
    source = ("def f(a, b, c=1):\n    return a + b + c\n"
              "def g(x, y):\n    return x + y\n"
              "def h(t):\n    return t\n"
              "class K:\n    def m(self, r, s):\n        return r + s\n"
              "f(1, None, 2)\nf(2, b=None)\ng(1, 2)\ng(1, 3)\ng(*[1, 2])\n"
              "h(t=0)\nh(False)\nK().m('a', n)\nK().m('a', 2)\n")
    assert literals_always_passed([source], [source]) == [
        ("K.m", "r"), ("f", "b")]


def _pinned_contrast(name, param) -> bool:
    """The one exemption: the program builds the Leech lattice from its glue
    shift at scale 1 only, and the tests pin scale 2, the Niemeier A1^24
    lattice, as its contrast."""
    return (name, param) == ("_build_leech_from_shift", "shift_scale")


def test_src_parameters_take_more_than_one_value():
    # a parameter that every call in the program sets to the same constant
    # is a constant too
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    bench = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    assert [(name, param) for name, param
            in literals_always_passed(sources, sources + bench)
            if not _pinned_contrast(name, param)] == []


def calling_defs(source: str, name: str) -> list:
    """(line, function) for each def in source whose own body, not a nested
    def's, calls name, as name(...) or module.name(...); a call outside any
    def counts as "<module>"."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (child.lineno, child.name))
                continue
            f = child.func if isinstance(child, ast.Call) else None
            if name in (getattr(f, "id", None), getattr(f, "attr", None)):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), (0, "<module>"))
    return sorted(set(found))


def test_calling_defs_finds_each_caller():
    source = ("from .exact import real_roots\nimport exact\n"
              "def proof(p):\n    return real_roots(p, 0)\n"
              "def outer(p):\n    def inner():\n"
              "        return exact.real_roots(p, 1)\n    return inner\n"
              "def other(p):\n    return root_points(p, 0)\n"
              "roots = real_roots([1, 2], 0)\n")
    assert calling_defs(source, "real_roots") == [
        (0, "<module>"), (3, "proof"), (6, "inner")]


def test_one_function_proves_signs_by_real_roots():
    # outside exact, one function calls real_roots: the LP path's sign
    # proofs, sampled and forced, share it, so a second sign-proof path
    # fails here
    callers = [(path.name, name) for path in sorted(SRC.glob("*.py"))
               if path.name != "exact.py"
               for _, name in calling_defs(path.read_text(), "real_roots")]
    assert callers == [("lpbound.py", "_sign_steps")]


def raised_names(source: str) -> set:
    """The names of the exceptions a `raise` in source names: `raise E`,
    `raise E(...)` or `raise m.E(...)` give E."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                found.add(getattr(exc, "id", None) or exc.attr)
    return found


def test_raised_names_reads_every_spelling():
    source = ("def f(x):\n    if x:\n        raise KeyError\n"
              "    raise lp.LpError(f'{x}') from None\n"
              "def g():\n    try:\n        pass\n    except OSError:\n"
              "        raise\n    raise ValueError('bad')\n")
    assert raised_names(source) == {"KeyError", "LpError", "ValueError"}


def _dispatch_catches(source: str) -> set:
    """The names of the exceptions an `except` clause of cli.dispatch
    names, one name or a tuple of them."""
    [dispatch] = [node for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "dispatch"]
    return {n.id for h in ast.walk(dispatch)
            if isinstance(h, ast.ExceptHandler) and h.type is not None
            for n in ast.walk(h.type) if isinstance(n, ast.Name)}


def test_every_error_class_maps_to_a_usage_exit():
    # dispatch turns PackboundError into exit 2; an error class outside it
    # would surface as a traceback with exit 1 ("refuted"), so every class
    # the package defines is PackboundError or a subclass of it; a class
    # that nothing raises, itself or through a subclass, is left behind by
    # a deletion
    from packbound.exact import PackboundError
    classes = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"packbound.{path.stem}")
        classes += [c for _, c in inspect.getmembers(module, inspect.isclass)
                    if issubclass(c, BaseException)
                    and c.__module__ == module.__name__]
    assert PackboundError in classes
    assert [c.__name__ for c in classes
            if not issubclass(c, PackboundError)] == []
    assert "PackboundError" in _dispatch_catches(
        (SRC / "cli.py").read_text())
    raised = set().union(*(raised_names(p.read_text())
                           for p in SRC.glob("*.py")))
    assert [c.__name__ for c in classes
            if not any(issubclass(d, c) for d in classes
                       if d.__name__ in raised)] == []
