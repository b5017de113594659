"""What each entry point imports: no subcommand loads scipy, and only a
Monte Carlo run loads numpy: ``import bpskrx``, the analytic subcommands on
either alpha grid and ``montecarlo --help`` load neither.

Each case starts a fresh interpreter, runs ``cli.main`` on a small input and
lists the ``scipy`` and ``numpy`` modules in ``sys.modules`` afterwards.
Counting modules instead of timing the start-up keeps the check
deterministic. The package's lazy attributes must still be the submodules'
own objects.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bpskrx
from bpskrx import RECEIVERS, cli

SRC = str(Path(__file__).resolve().parents[1] / "src")

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
                        for top in ("scipy", "numpy"))]))
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
    rc, scipy_loaded, numpy_loaded = _run_child([a.format(tmp=tmp_path) for a in argv])
    assert rc == expected_rc
    assert scipy_loaded == []
    if name != "montecarlo":  # only its draws need numpy
        assert numpy_loaded == []


#: Every name the package exported when it imported all its layers eagerly,
#: by the module that defines it.
EXPORTS = {
    "core": (
        "BinaryEnsemble", "BracketError", "ConvergenceError", "CsvFormatError",
        "DetectorModel", "DimensionMismatchError", "NotPureError", "ReceiverResult",
        "SingularMatrixError", "TruncationError", "UnsupportedConfigurationError",
    ),
    "gaussian": (
        "ConditionalOutput", "ConditionedState", "GaussianMeasurementSpec",
        "GaussianState", "SymplecticOp", "apply_gaussian_unitary", "beamsplitter",
        "binary_conditional_output", "coherent_state",
        "condition_on_partial_measurement", "measurement_cov", "phase_rotation",
        "pure_normal_form", "random_symplectic", "squeezer", "symplectic_form",
        "tensor", "vacuum",
    ),
    "fock": ("receiver_error_fock",),
    "montecarlo": (
        "McConfig", "McEstimate", "RNG_ID", "derive_point_seed", "simulate_type2",
        "sweep_montecarlo",
    ),
    "optimize": (
        "LandscapePoint", "LandscapeSummary", "RootResult", "bayes_error_from_contrast",
        "contrast_factor", "displaced_squeezed_error", "solve_type1_params",
        "solve_type2_gamma", "solve_type2_gamma_imperfect", "type1_residuals",
        "verify_gaussian_optimum",
    ),
    "receivers": (
        "RECEIVERS", "helstrom", "homodyne_limit", "homodyne_limit_attenuated",
        "kennedy_error", "kennedy_raw_error", "mean_intensity", "type1_error",
        "type2_error", "type2_imperfect_error",
    ),
}


@pytest.mark.parametrize("module", list(EXPORTS))
def test_package_names_are_the_submodules_objects(module):
    sub = importlib.import_module(f"bpskrx.{module}")
    for name in EXPORTS[module]:
        value = getattr(bpskrx, name)
        assert value is getattr(sub, name), name
        assert vars(bpskrx)[name] is value  # cached after the first lookup
    names = EXPORTS[module]
    namespace = {}
    exec(f"from bpskrx import {', '.join(names)}", namespace)
    assert all(namespace[n] is getattr(sub, n) for n in names)


LAZY_MODULES = ("gaussian", "fock", "montecarlo")


@pytest.mark.parametrize("module", LAZY_MODULES)
def test_lazy_table_equals_module_all(module):
    """The package resolves lazily exactly the names each numpy layer
    declares in ``__all__``: no more, no fewer."""
    assert set(bpskrx._LAZY.values()) == set(LAZY_MODULES)
    sub = importlib.import_module(f"bpskrx.{module}")
    lazy = sorted(name for name, owner in bpskrx._LAZY.items() if owner == module)
    assert lazy == sorted(sub.__all__)


def test_package_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bpskrx.no_such_name
    assert not hasattr(bpskrx, "erfc")


GAUSSIAN_CHILD = """
import json, sys
import numpy as np
from bpskrx.gaussian import (
    GaussianMeasurementSpec, random_symplectic, symplectic_form, tensor, vacuum,
)
random_symplectic(4, np.random.default_rng(7))
tensor(vacuum(1), vacuum(2))
GaussianMeasurementSpec.homodyne_stack([0.5, 1.0], [0.0, 0.3])
symplectic_form(3)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_gaussian_construction_never_imports_scipy():
    """Building circuits, direct sums and measurement stacks stays on numpy;
    scipy.linalg is for the Cholesky and eigh steps only."""
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
