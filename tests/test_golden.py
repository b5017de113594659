"""Pinned CLI output bytes.

Each file below is written by the CLI and compared against a pinned sha256,
so a refactor that moves a single digit of a CSV or a single coordinate of
the SVG fails here. Two runs of the
same code agreeing (the rerun tests in `test_cli`) cannot catch that.

The digests assume the float behaviour of the platform they were captured on
(x86-64, CPython 3.11, numpy 2.4); no CLI byte goes through scipy. They
depend neither on the OpenBLAS kernel nor on which SIMD loops numpy
dispatches to, which a second test checks by running the CLI with each
switched. Regenerate them only for a
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
from bpskrx.sweepio import read_csv, write_csv

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
#: erfc(sqrt(2) e alpha)/2. The three sweeps, both Monte Carlo files and the
#: figure again when gamma became one inversion of w tanh w = c with sqrt(tau)
#: in the tanh, and the click error's exponent gap came from the nulling
#: residual instead of b - a. Only type2, type2_imperfect, kennedy_imperfect
#: and kennedy_raw rows moved (56, 112 and 158 of 300, 540 and 420 rows);
#: worst p_error error against an 80-digit evaluation: type2 8.4e-6 -> 5.8e-15
#: (exp of a + b ~ 32 at alpha^2 = 7.9), type2_imperfect 2.1e-5 -> 8.1e-16
#: (the old gamma did not minimize the error at tau = 0.99),
#: kennedy_imperfect 5.1e-14 -> 4.6e-16, kennedy_raw 5.7e-14 -> 4.7e-16. In
#: the Monte Carlo files gamma_opt moved by at most one ulp in the ideal rows
#: and by up to 0.25% in the lossy ones, whose p_error moved in 8 of 12 rows;
#: no ideal p_error moved. The three sweeps, both Monte Carlo files and the
#: landscape again when the Bayes error took libm's erfc in place of a port
#: of cephes' and both roots one safeguarded Newton in place of Brent, every
#: moved value at the rounding level: homodyne and homodyne_tau 39 of 60
#: rows per sweep (p_error by at most 1.2e-15); type1 29 of 60 (beta_opt by
#: at most 5.4e-16, p_error by up to 2.3e-13 and r_opt by up to 2e-4 where
#: r_opt < 0.01, whose cancellation near r = 0 sets both); type2 18 of 60
#: (36 of 120 in the all-tags sweep) and type2_imperfect 12 of 60 (gamma_opt
#: by at most 3.1e-16, p_error 3.5e-15); Monte Carlo gamma_opt in 2 and 5 of
#: 12 rows; landscape p_error in 21 of 63. No helstrom or kennedy row and no
#: SVG byte moved.
GOLDEN = {
    "sweep_default.csv": "9b884129a2cf788717860a207b44fbed3bda59e8a439722299839ebeebcdd7f7",
    "sweep_all_ideal.csv": "9d98aaf4382a76995d6224f3c0fadca49c6b5266c4facd27c63e32643d03f71e",
    "sweep_all_lossy.csv": "1518e9dce94bf4e5bcf32e0a60469c9953c5620998587c0638a572fcb02a28e7",
    "mc_ideal.csv": "b112f69fc1049bf77e02880f4ec53c5c0bff4112901b5dc87f648784776a4585",
    "mc_lossy.csv": "821980d259bcfd89930759385a5c51ea9239c4a0490a390e40dbd0665a54e911",
    "landscape.csv": "0557bbfb27f004b372586b9748ece8d7a91d493e1990191c9d340e90163f10a6",
    "figure.svg": "9e2680fccdd22b9323a94207e052973016f49f0bf7bb88b67dfbb80fdb4bbf77",
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


def test_csv_rewrite_reproduces_the_pinned_files(tmp_path):
    """Each pinned sweep and Monte Carlo CSV, read and written back, gives
    its pinned bytes, metadata lines included; its values repeat over many
    rows, and the writer formats each distinct cell once."""
    _run_all(tmp_path)
    again = tmp_path / "again.csv"
    for name in [name for name, _, _ in RUNS if name.startswith(("sweep_", "mc_"))]:
        write_csv(again, *reversed(read_csv(tmp_path / name)))
        assert hashlib.sha256(again.read_bytes()).hexdigest() == GOLDEN[name], name


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
