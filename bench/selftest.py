"""Fast self-test of the benchmark; not part of the program's test suite.

    python3 -m pytest bench/selftest.py -q

Runs each workload for one second, untraced, and one workload traced, and
checks the result contract against BENCHMARK.json: every end-to-end and
per-layer metric appears with its unit, ``failed_frac`` is computed, the
result's ``failed`` counts only failures outside the known defects, and a
copy of the benchmark without the program refuses to run. It also checks
that inputs follow the seed and do not repeat, and that only the named
known defects leave ``correct`` true. Takes about a minute.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

from inputs import cli_session, curves_points, oracle_checks  # noqa: E402
from worker import known_defect  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    return result


def _check_units(metrics: dict, spec: list) -> None:
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    proc = _run(workload, 0)
    result = _result(proc)
    _check_units(result["metrics"], SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    frac = re.search(r"^failed_frac = (\S+) \((\d+) of (\d+) ops, known defects included\)$", proc.stdout, re.M)
    assert frac, proc.stdout
    defective = int(frac[2])
    assert int(frac[3]) == result["attempted"]
    assert float(frac[1]) == pytest.approx(defective / result["attempted"], rel=1e-5)
    ok = result["metrics"]["ok_frac"]["value"]
    assert ok == pytest.approx(1.0 - defective / result["attempted"])
    new = re.search(r"^failures outside the known defects = (\d+) \((\d+) ops\)$", proc.stdout, re.M)
    assert new and int(new[2]) == result["failed"] <= defective
    assert result["correct"] == (int(new[1]) == 0)
    assert re.search(r"^tail percentile = p\S+ of \d+ samples$", proc.stdout, re.M)
    env = json.loads(re.search(r"^# env (.*)$", proc.stdout, re.M)[1])
    assert set(env) == {"python", "numpy", "scipy", "blas", "blas_threads", "nproc"}
    assert env["blas_threads"] == "1"


def test_per_layer_metrics():
    result = _result(_run("curves", 1))
    _check_units(result["metrics"], SPEC["per_layer"])
    assert result["metrics"]["receivers.type1.call_us"]["value"] > 0
    assert result["metrics"]["fock.dim512_ms"]["value"] > 0


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_follow_the_seed():
    for make in (
        cli_session,
        lambda s: list(islice(curves_points(s), 200)),
        lambda s: list(islice(oracle_checks(s), 64)),
    ):
        assert make(1) == make(1)
        assert make(1) != make(2)


def test_inputs_do_not_repeat():
    points = [tuple(p.values()) for p in islice(curves_points(1), 20000)]
    assert len(set(points)) == len(points)


@pytest.mark.parametrize(
    "who, kind, miss, eta, known",
    [
        ("type1", "ConvergenceError", math.inf, 0.01, True),
        ("type2", "ConvergenceError", math.inf, 0.01, False),
        ("type1", "below_floor", 1e-18, 1.0, True),
        ("type1", "below_floor", 1e-9, 1.0, False),
        ("type1", "order", 1e-15, 0.5, True),
        ("kennedy", "out_of_range", 1e-15, 0.5, True),
        ("kennedy", "out_of_range", 1e-15, 1.0, False),
        ("kennedy", "out_of_range", math.inf, 0.5, False),
        ("homodyne", "out_of_range", 1e-15, 0.5, False),
        ("kennedy_imperfect", "below_floor", 1e-18, 0.5, False),
        ("type2", "order", 1e-9, 1.0, False),
        ("gaussian", "not_symplectic", math.inf, 1.0, True),
        ("gaussian", "purity", math.inf, 1.0, False),
        ("gaussian", "NotPureError", math.inf, 1.0, False),
        ("fock", "mismatch", math.inf, 1.0, False),
    ],
)
def test_known_defects_are_scoped(who, kind, miss, eta, known):
    assert known_defect(who, kind, miss, eta) is known


@pytest.mark.parametrize("kind", ["purity", "affine_split", "NotPureError", "ValueError", "SingularMatrixError"])
def test_gaussian_round_off_is_known_only_when_squeezed(kind):
    assert known_defect("gaussian", kind, squeezed=True)
    assert not known_defect("gaussian", kind, squeezed=False)
    assert not known_defect("fock", kind, squeezed=True)
