"""Every function in ``src/cscbench`` is reached by some command, or says why not.

``scripts/write_outputs.py`` runs every CLI command on seeded inputs. This
test runs it in process under ``sys.setprofile`` and collects each function
of the package that is called. The functions that are never called must be
exactly the entries of ``UNREACHED``, each with its reason. So a new
function that no command reaches, or one left behind by a refactor, fails
here until it is deleted or justified, and an entry whose function is now
reached or gone fails too.
"""

import importlib.util
import inspect
import sys
import types
from pathlib import Path

import pytest

import cscbench

PACKAGE = Path(cscbench.__file__).resolve().parent
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "write_outputs.py"

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="names functions by co_qualname, new in Python 3.11")

# "<module>.<qualified name>": why no command calls it
UNREACHED = {
    "data.classify": "the whole-array nearest-centroid classifier; the sweep calls its parts "
                     "block by block, and tests use it as their reference",
    "dictionary.ConvDictionary.kernel_array": "the taps as one array for perfbench/oracles.py",
    "dictionary.ConvKernel.__post_init__": "public API, exported in __all__; the list form "
                                           "of the ConvDictionary constructor takes it",
    "dictionary.project_to_kernel_grad": "the dense kernel gradient of the tests' "
                                         "reference_learn; traced by perfbench",
    "errors.BoundInapplicableError.__init__": "raised by analysis.lemma2_bound when a "
                                              "lemma's condition fails, which no seeded "
                                              "check meets",
    "errors.ConvergenceError.__init__": "raised by numeric.spectral_lmax only",
    "models.ResCSCModel.__post_init__": "the Res-CSC family, which no command builds",
    "models.rescsc_forward": "public API, exported in __all__: the paper's Res-CSC forward, "
                             "checked by the tests and acceptance criterion 10",
    "models.msdcsc_forward": "public API, exported in __all__: the paper's dense model end "
                             "to end; commands run its layers one at a time",
    "numeric.soft_threshold": "public API, exported in __all__; the solvers inline the prox",
    "numeric.spectral_lmax": "public API, exported in __all__; traced by perfbench",
    "pursuit.gram_operator": "reached by perfbench's tracer tests only",
}


def defined_functions():
    """Every function and method defined in the package's source files,
    nested ones included, as "<module>.<qualified name>"."""
    names = set()

    def walk(code, module):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                # class bodies run at import; comprehensions and lambdas are no API
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    names.add(f"{module}.{const.co_qualname}")
                walk(const, module)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return names


def test_every_unreached_function_is_listed(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("write_outputs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.chdir(tmp_path)  # write_outputs changes the working directory
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        script.write_outputs(tmp_path / "out")
    finally:
        sys.setprofile(None)
    reached = {f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in called
               if Path(code.co_filename).resolve().parent == PACKAGE}
    unreached = defined_functions() - reached
    assert sorted(unreached - UNREACHED.keys()) == [], "unreached and not listed"
    assert sorted(UNREACHED.keys() - unreached) == [], "listed but reached or gone"
