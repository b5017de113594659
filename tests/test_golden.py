"""Pinned CLI output bytes.

Each file below is written by the CLI and compared against a pinned sha256,
so a refactor that moves a single digit of a CSV or a single coordinate of
the SVG fails here. Two runs of the
same code agreeing (the rerun tests in `test_cli`) cannot catch that.

The digests assume the float behaviour of the platform they were captured on
(x86-64, CPython 3.11, numpy 2.4, scipy 1.17); they depend neither on the
OpenBLAS kernel nor on which SIMD loops numpy dispatches to, which a second
test checks by running the CLI with each switched. Regenerate them only for a
change that is meant to alter output, and say so in the change log:

    python tests/test_golden.py OUTDIR
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from bpskrx import cli

ALL_TAGS = (
    "helstrom,homodyne,homodyne_tau,kennedy,kennedy_imperfect,"
    "kennedy_raw,type1,type2,type2_imperfect"
)
LOSSY = ["--eta", "0.9", "--nu", "1e-3", "--tau", "0.99", "--xi", "0.995"]
MC = ["--points", "12", "--trials", "20000", "--seed", "7"]

#: (output file, argv without --out, exit code), run in this order; plot
#: reads the CSVs. The lossy sweep exits 2: type1 and type2 refuse coupling
#: loss, so their points are omitted.
RUNS = (
    ("sweep_default.csv", ["sweep"], 0),
    ("sweep_all_ideal.csv", ["sweep", "--receivers", ALL_TAGS], 0),
    ("sweep_all_lossy.csv", ["sweep", "--receivers", ALL_TAGS, *LOSSY], 2),
    ("mc_ideal.csv", ["montecarlo", *MC], 0),
    ("mc_lossy.csv", ["montecarlo", *MC, *LOSSY], 0),
    ("landscape.csv", ["verify-gaussian", "--alpha-sq", "0.25"], 0),
    (
        "figure.svg",
        ["plot", "sweep_default.csv", "sweep_all_ideal.csv", "sweep_all_lossy.csv",
         "mc_ideal.csv", "mc_lossy.csv"],
        0,
    ),
)

#: Captured with the command in the module docstring. The three sweeps were
#: re-pinned when the log alpha grid moved from ``np.logspace`` to
#: ``10.0 ** x`` on Python floats (7 of 60 grid points moved by one ulp);
#: the default and ideal sweeps again when the type1 optimum became one
#: bracketed root in w (59 of 60 type1 rows moved, p_error by at most 1.1e-16
#: and r_opt by at most 2.0e-15, whose worst error against a 50-digit solve
#: fell from 2.0e-15 to 7.2e-16; no other row moved); the figure when the
#: type1 optimum became one bracketed root in r, and again with the root in
#: w, whose last type1 vertex moved (alpha^2 = 8.9: 1.7e-16 -> 5.6e-17, both
#: round-off of a closed form that subtracts from 1/2); the
#: landscape when its Bayes error became erfc(sqrt(2 e) alpha)/2 instead of
#: erfc(sqrt(2) e alpha)/2; the two Monte Carlo files date from before the
#: receiver table and the shared Schur complement.
GOLDEN = {
    "sweep_default.csv": "8f8131c86783e0102d370a6b1d7c77aedda7624328b0aa9ab6ca526850bd819d",
    "sweep_all_ideal.csv": "61eff858a62ef4ba0b27f356a8558a6182afad59f5a965a2448a361b8f9b87e9",
    "sweep_all_lossy.csv": "f1d700ae7842594031d6e51049582c82f62588821bbfe0e1da7956adc83ca966",
    "mc_ideal.csv": "e8d092c8df9067fea1cfd9dcd47f526717a96d696f60e879089230597c94382e",
    "mc_lossy.csv": "e15fd7e2d00af240a05b6ae7db2a3534a3bdcc63919e9bfd3abbbd5a68a77ac4",
    "landscape.csv": "224838fec07b9c34cf32144fa745fd0b6799e00ff7338145ef138df41f1a01d9",
    "figure.svg": "2e6c3295873d8f1a82015b259bdab76263e81f43720ebf8487c5e8cfcc50365c",
}


def _run_all(outdir) -> dict[str, str]:
    digests = {}
    for name, argv, code in RUNS:
        argv = [str(outdir / a) if a.endswith(".csv") else a for a in argv]
        assert cli.main([*argv, "--out", str(outdir / name)]) == code, name
        digests[name] = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
    return digests


def test_cli_outputs_match_pinned_bytes(tmp_path):
    assert _run_all(tmp_path) == GOLDEN


#: Child environments that change how the host rounds: OpenBLAS forced onto
#: an old pre-AVX kernel, which rounds without fma, and numpy's own dispatch
#: switch turning off its AVX-512 loops, whose `power` rounds unlike libm.
CHILD_ENVS = {
    "prescott-blas": {"OPENBLAS_CORETYPE": "Prescott"},
    "npy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="both switches name x86-64 kernels",
)
@pytest.mark.parametrize("child_env", list(CHILD_ENVS))
def test_cli_outputs_match_pinned_bytes_in_child(tmp_path, child_env):
    """The same bytes in a child whose BLAS kernel or numpy SIMD loops are
    switched: no pinned output may go through a call whose bits depend on
    either."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **CHILD_ENVS[child_env])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
        "from test_golden import _run_all; print(json.dumps(_run_all(Path(sys.argv[2]))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == GOLDEN


if __name__ == "__main__":
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name, digest in _run_all(out).items():
        print(f'    "{name}": "{digest}",')
