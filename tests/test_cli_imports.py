"""What each entry point imports: no subcommand loads scipy or
``dataclasses``, and only a Monte Carlo run loads numpy: ``import bpskrx``,
the analytic subcommands on either alpha grid and ``montecarlo --help`` load
none of them. The records on these paths are named tuples: importing
``dataclasses`` pulls in ``inspect``, ``ast`` and ``dis``, about 11 ms of
every cold command.

Each case starts a fresh interpreter, runs ``cli.main`` on a small input and
lists the ``scipy``, ``numpy`` and ``dataclasses`` modules in
``sys.modules`` afterwards.
Counting modules instead of timing the start-up keeps the check
deterministic. The package itself re-exports nothing: each name is imported
from the module that defines it, as the README's quick start does.
"""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bpskrx
from bpskrx import cli
from bpskrx.receivers import RECEIVERS

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
README = ROOT / "README.md"

CHILD = """
import json, sys
import bpskrx
rc = 0
if sys.argv[1:]:
    from bpskrx import cli
    try:
        rc = cli.main(sys.argv[1:])
    except SystemExit as exc:
        rc = exc.code
print(json.dumps([rc, *(sorted(m for m in sys.modules if m.split(".")[0] == top)
                        for top in ("scipy", "numpy", "dataclasses"))]))
"""

LOSSY = ["--eta", "0.9", "--nu", "1e-3", "--tau", "0.99", "--xi", "0.995"]

CASES = {
    "import-bpskrx": ([], 0),
    "params": (["params", "--alpha-sq", "0.25"], 0),
    # strong squeezing at low efficiency (r_opt = 2.17) solves: exit 0
    "params-low-eta": (["params", "--alpha-sq", "1", "--eta", "0.01"], 0),
    "sweep": (["sweep", "--points", "5", "--out", "{tmp}/default.csv"], 0),
    "sweep-linear": (
        ["sweep", "--points", "5", "--scale", "linear", "--out", "{tmp}/linear.csv"], 0
    ),
    # type1 and type2 reject coupling loss, so those points are omitted: exit 2
    "sweep-all-tags-lossy": (
        ["sweep", "--points", "5", "--receivers", ",".join(RECEIVERS), *LOSSY,
         "--out", "{tmp}/lossy.csv"],
        2,
    ),
    "verify-gaussian": (["verify-gaussian", "--alpha-sq", "0.25"], 0),
    "montecarlo": (
        ["montecarlo", "--points", "3", "--trials", "1000", "--out", "{tmp}/mc.csv"], 0
    ),
    "montecarlo-help": (["montecarlo", "--help"], 0),
    "plot": (["plot", "{tmp}/in.csv", "--out", "{tmp}/fig.svg"], 0),
}


def _run_child(argv, code=CHILD):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", list(CASES))
def test_cli_never_imports_scipy(tmp_path, name):
    argv, expected_rc = CASES[name]
    if name == "plot":
        assert cli.main(["sweep", "--points", "5", "--out", str(tmp_path / "in.csv")]) == 0
    rc, scipy_loaded, numpy_loaded, dataclasses_loaded = _run_child(
        [a.format(tmp=tmp_path) for a in argv]
    )
    assert rc == expected_rc
    assert scipy_loaded == []
    assert dataclasses_loaded == []
    if name != "montecarlo":  # only its draws need numpy
        assert numpy_loaded == []


def _module_names():
    return [m.name for m in pkgutil.iter_modules(bpskrx.__path__)]


@pytest.mark.parametrize("module", _module_names())
def test_module_all_names_are_its_own(module):
    """Every name in a module's ``__all__`` resolves on it, by attribute and
    by ``import *``, and a class or function there is defined there: no
    module re-exports another's names."""
    sub = importlib.import_module(f"bpskrx.{module}")
    namespace = {}
    exec(f"from bpskrx.{module} import *", namespace)
    for name in sub.__all__:
        value = getattr(sub, name)
        assert namespace[name] is value, name
        if callable(value):
            assert value.__module__ == sub.__name__, name


_RECORD = "a record type that a public function returns"

#: Public names that no package module and nothing in ``bench/`` imports,
#: each with why it stays public.
TEST_ONLY = {
    "cli.main": "the entry point of the console script and of python -m bpskrx.cli",
    "gaussian.GaussianState": _RECORD,
    "gaussian.SymplecticOp": _RECORD,
    "gaussian.ConditionedState": _RECORD,
    "gaussian.ConditionalOutput": _RECORD,
    "montecarlo.McEstimate": _RECORD,
    "optimize.RootResult": _RECORD,
    "optimize.LandscapePoint": _RECORD,
    "optimize.LandscapeSummary": _RECORD,
    "gaussian.symplectic_form": (
        "the Omega convention of the quadrature ordering, which the tests' references are built on"
    ),
    "optimize.type1_residuals": (
        "the independent gate of the type1 solve, evaluated away from any optimum"
    ),
}


def _imported_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every ``from bpskrx.module import name`` and
    ``from .module import name`` in ``path``."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.removeprefix("bpskrx.")
            out.update((module, alias.name) for alias in node.names)
    return out


def test_every_public_name_has_a_caller():
    """Each ``__all__`` name is imported by another package module (`cli`
    included) or by ``bench/``, or is listed in `TEST_ONLY` with its reason;
    the list holds nothing else, so the public surface cannot grow back."""
    files = [*(ROOT / "src" / "bpskrx").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    uncalled = set()
    for module in _module_names():
        used = set().union(*(_imported_names(f) for f in files if f.stem != module))
        uncalled |= {
            f"{module}.{name}"
            for name in importlib.import_module(f"bpskrx.{module}").__all__
            if (module, name) not in used
        }
    assert uncalled == set(TEST_ONLY)


def test_package_holds_only_its_version():
    """The package re-exports nothing: besides ``__version__`` its public
    names are only the submodules imported so far."""
    public = {name for name in vars(bpskrx) if not name.startswith("_")}
    assert public <= set(_module_names())
    assert bpskrx.__version__


def test_readme_quick_start_runs(capsys):
    """The README's python block runs as written and prints the values its
    comments show."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    calls = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls) == 3
    for call, out in zip(calls, printed):
        shown = call.partition("#")[2].split()
        assert len(shown) in (0, len(out.split())), call
        for prefix, value in zip(shown, out.split()):
            assert value.startswith(prefix.rstrip(".")), (call, out)


GAUSSIAN_CHILD = """
import json, sys
import numpy as np
from bpskrx.core import BinaryEnsemble
from bpskrx.gaussian import (
    GaussianMeasurementSpec, GaussianState, _block_diag, apply_gaussian_unitary,
    binary_conditional_output, condition_on_partial_measurement, pure_normal_form,
    random_symplectic, symplectic_form, vacuum,
)
op = random_symplectic(4, np.random.default_rng(7))
GaussianState(_block_diag([vacuum(1).cov, vacuum(2).cov]), np.zeros(6))
meas = GaussianMeasurementSpec.homodyne_stack([0.5, 1.0], [0.0, 0.3], [0.2, -0.1, 0.4, 0.3])
symplectic_form(3)
condition_on_partial_measurement(apply_gaussian_unitary(vacuum(4), op), 2, meas)
out = binary_conditional_output(BinaryEnsemble(0.8), op, meas)
pure_normal_form(out.shared_cov)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_gaussian_layer_never_imports_scipy():
    """The whole Gaussian layer runs on numpy alone: building circuits,
    direct sums and measurement stacks, conditioning (Cholesky and solve)
    and the normal form (SVD) load no scipy module."""
    assert _run_child([], GAUSSIAN_CHILD) == []


FOCK_CHILD = """
import json, sys
from bpskrx.fock import receiver_error_fock
receiver_error_fock(1.0, 0.5, 0.3, 0.9, 0.0)
receiver_error_fock(1.0, 0.5, 0.3, 0.9, 0.0, dim=64)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_fock_oracle_never_imports_scipy():
    """The number-basis oracle evolves on numpy slices: neither the adaptive
    search nor a fixed truncation loads scipy."""
    assert _run_child([], FOCK_CHILD) == []


@pytest.mark.parametrize("module", _module_names())
def test_module_imports_neither_scipy_nor_dataclasses(module):
    """The runtime needs numpy only, and every record is a named tuple: no
    module of the package imports scipy or ``dataclasses``, at its top or
    inside a function. scipy stays a test reference."""
    tree = ast.parse((Path(bpskrx.__file__).parent / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert not imported & {"scipy", "dataclasses"}
