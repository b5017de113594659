"""Pinned CLI output bytes.

Each file below is written by the CLI and compared against a pinned sha256,
so a refactor that moves a single digit of a CSV or a single coordinate of
the SVG fails here. Two runs of the
same code agreeing (the rerun tests in `test_cli`) cannot catch that.

The digests assume the float behaviour of the platform they were captured on
(x86-64, CPython 3.11, numpy 2.4, scipy 1.17); they do not depend on the
OpenBLAS kernel, which a second test checks by running the CLI on another
one. Regenerate them only for a change that is meant to alter output, and say
so in the change log:

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

#: Captured with the command in the module docstring. The two sweeps with
#: type1 rows and the figure drawn from them were re-pinned when the type1
#: optimum became one bracketed root in r of the reduced second residual
#: (its beta and r moved at round-off, by up to 1.1e-12); the other four
#: date from before the receiver table and the shared Schur complement.
GOLDEN = {
    "sweep_default.csv": "74514fba260d30d846dc7af0dc45db540115b5a965bcb561e0d3725a4ea809f9",
    "sweep_all_ideal.csv": "62d3054ba7c027cb67642df1f6d6985eed7d65e869adefc780561fd21cfd7015",
    "sweep_all_lossy.csv": "98f62ac6e364d7810864a6267445b45c6605768cbf9cc192a80a5073e0dd1d60",
    "mc_ideal.csv": "e8d092c8df9067fea1cfd9dcd47f526717a96d696f60e879089230597c94382e",
    "mc_lossy.csv": "e15fd7e2d00af240a05b6ae7db2a3534a3bdcc63919e9bfd3abbbd5a68a77ac4",
    "landscape.csv": "0e77eb3bb2169852205aba2568809c8881f136820e1a45be796f2d9031966451",
    "figure.svg": "4a84ecdf1ee7ba608782a1623bb5dffd9c7949ca2775bbd1b8fb1fc2ce4b5b1a",
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


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE names x86-64 kernels",
)
def test_cli_outputs_match_pinned_bytes_on_prescott_blas(tmp_path):
    """The same bytes with OpenBLAS forced onto an old pre-AVX kernel, which
    rounds without fma, unlike the AVX-512 one: no pinned output may go
    through a BLAS call whose bits depend on the kernel."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
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
