"""The benchmark harness in bench/ looks these names up on the package with
getattr; a missing one fails every benchmark operation, so tier-1 checks
that each still resolves."""

import importlib
import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module, function", tracing.FUNCTIONS)
def test_traced_function_resolves(module, function):
    mod = importlib.import_module(f"packbound.{module}")
    assert callable(getattr(mod, function))


@pytest.mark.parametrize("module, cls, method", tracing.METHODS)
def test_traced_method_resolves(module, cls, method):
    mod = importlib.import_module(f"packbound.{module}")
    assert callable(getattr(getattr(mod, cls), method))


@pytest.mark.parametrize("module, name", [
    ("magic", "_SPEC_CACHE"), ("magic", "_GL_CACHE"),
    ("lattices", "_LATTICE_CACHE"),
])
def test_cache_dict_exists(module, name):
    mod = importlib.import_module(f"packbound.{module}")
    assert isinstance(getattr(mod, name), dict)
