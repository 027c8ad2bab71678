"""Import hygiene: a fresh process loads only what its path uses.

Every sweep worker, service worker and CLI call starts a cold
interpreter, so the package must load no third-party package but numpy:
not scipy (needed only by the ``repro.analog`` calibration experiments)
and no graph library.  Each check runs in a fresh subprocess: the test
session itself has long since imported everything.
"""

import os
import subprocess
import sys

import pytest

import repro

_PACKAGE_ROOT = os.path.dirname(
    os.path.dirname(os.path.abspath(repro.__file__)))


def _run(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = _PACKAGE_ROOT + os.pathsep + \
        env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


#: Prints the top-level names of the third-party packages (anything
#: under site-packages) that importing ``{module}`` loads, other than
#: numpy and an installed copy of repro itself.  Modules already loaded
#: at interpreter start (``.pth`` hooks) are not counted.
_THIRD_PARTY_SCRIPT = """
import site, sys, sysconfig
roots = tuple({{sysconfig.get_paths()[key] for key in ("purelib", "platlib")}}
              | {{site.getusersitepackages()}})
before = set(sys.modules)
import {module}
loaded = {{name.split(".")[0] for name in set(sys.modules) - before
          if (getattr(sys.modules[name], "__file__", None) or "")
          .startswith(roots)}}
print(sorted(loaded - {{"numpy", "repro"}}))
"""


@pytest.mark.parametrize("module", [
    "repro.harness.sweep",
    "repro.harness.parallel",
    "repro.service.__main__",
    "repro.service.worker",
])
def test_worker_and_cli_imports_stay_lean(module):
    """No third-party package but numpy: in particular neither scipy
    (only ``repro.analog`` needs it) nor a graph library."""
    loaded = _run(_THIRD_PARTY_SCRIPT.format(module=module))
    assert loaded == "[]", "{} loaded {}".format(module, loaded)


def test_analog_loads_on_first_access():
    out = _run(
        "import sys, repro\n"
        "before = 'repro.analog' in sys.modules\n"
        "bench = repro.analog.CalibrationBench\n"
        "print(before, 'scipy' in sys.modules, bench.__name__)")
    assert out == "False True CalibrationBench"


def test_from_import_analog():
    out = _run("from repro import analog\n"
               "print(analog.__name__)")
    assert out == "repro.analog"


def test_star_import_binds_analog():
    out = _run("from repro import *\n"
               "print(analog.__name__, QuantumCircuit.__name__)")
    assert out == "repro.analog QuantumCircuit"


def test_unknown_attribute_raises():
    out = _run("import repro\n"
               "try:\n"
               "    repro.no_such_module\n"
               "except AttributeError as exc:\n"
               "    print('AttributeError', exc)\n")
    assert out == ("AttributeError module 'repro' has no attribute "
                   "'no_such_module'")
