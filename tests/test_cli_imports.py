"""The CLI runs on numpy alone: no subcommand loads scipy.

Each case starts a fresh interpreter, runs ``cli.main`` on a small input and
lists the ``scipy`` modules in ``sys.modules`` afterwards. Counting modules
instead of timing the start-up keeps the check deterministic.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bpskrx import RECEIVERS, cli

SRC = str(Path(__file__).resolve().parents[1] / "src")

CHILD = """
import json, sys
from bpskrx import cli
rc = cli.main(sys.argv[1:])
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

LOSSY = ["--eta", "0.9", "--nu", "1e-3", "--tau", "0.99", "--xi", "0.995"]

CASES = {
    "params": (["params", "--alpha-sq", "0.25"], 0),
    # no Newton start converges for type1 here, so the call fails: exit 3
    "params-low-eta": (["params", "--alpha-sq", "1", "--eta", "0.01"], 3),
    "sweep": (["sweep", "--points", "5", "--out", "{tmp}/default.csv"], 0),
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
    rc, loaded = _run_child([a.format(tmp=tmp_path) for a in argv])
    assert rc == expected_rc
    assert loaded == []


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
