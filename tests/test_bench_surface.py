"""The names that code outside the package reaches in cscbench still exist.

``perfbench/tracer.py`` looks each traced function and method up by name
when a ``--trace 1`` run installs it, and ``perfbench/run.py`` catches
``ConvergenceError``; a cleanup of ``src/`` that drops one of them breaks
those runs. The tracer module is loaded from its file and not modified.
A name left in ``cscbench.__all__`` after its definition is removed breaks
``from cscbench import *``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import cscbench
from cscbench import analysis, data, dictionary, learning, models, numeric, pursuit  # noqa: F401
from cscbench.errors import CscbenchError

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("cscbench_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners(tracer):
    """(owner, name) for every cscbench namespace that holds a traced
    function under its name, and every traced method's class."""
    modules = [m for n, m in sys.modules.items() if n == "cscbench" or n.startswith("cscbench.")]
    owners = []
    for module, name in tracer.FUNCTIONS:
        original = getattr(importlib.import_module(f"cscbench.{module}"), name)
        owners += [(mod, name) for mod in modules if getattr(mod, name, None) is original]
    for module, cls_name, name in tracer.METHODS:
        owners.append((getattr(importlib.import_module(f"cscbench.{module}"), cls_name), name))
    return owners


def _bound(owners):
    return [owner.__dict__[name] for owner, name in owners]


def test_every_traced_name_resolves(tracer):
    for module, name in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"cscbench.{module}"), name, None)), (
            f"cscbench.{module}.{name}"
        )
    for module, cls_name, name in tracer.METHODS:
        cls = getattr(importlib.import_module(f"cscbench.{module}"), cls_name, None)
        assert callable(getattr(cls, name, None)), f"cscbench.{module}.{cls_name}.{name}"


def test_every_exported_name_resolves():
    missing = [name for name in cscbench.__all__ if not hasattr(cscbench, name)]
    assert not missing, f"cscbench.__all__ names undefined {missing}"


def test_convergence_error_exists():
    assert issubclass(cscbench.errors.ConvergenceError, CscbenchError)


def test_install_then_uninstall_restores_every_name(tracer):
    owners = _owners(tracer)
    before = _bound(owners)
    t = tracer.Tracer()
    t.install()
    try:
        during = _bound(owners)
    finally:
        t.uninstall()
    assert all(d is not b for d, b in zip(during, before))  # every name was wrapped
    assert all(a is b for a, b in zip(_bound(owners), before))
