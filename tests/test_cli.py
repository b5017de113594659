"""End-to-end CLI runs (direct main() calls) and the CSV/SVG round trip."""

import argparse
import errno
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bpskrx import cli, optimize
from bpskrx.core import (
    BinaryEnsemble,
    ConvergenceError,
    CsvFormatError,
    DetectorModel,
    ReceiverResult,
)
from bpskrx.montecarlo import RNG_ID, McConfig, simulate_type2
from bpskrx.optimize import solve_type2_gamma
from bpskrx.receivers import (
    RECEIVERS,
    helstrom,
    homodyne_limit,
    homodyne_limit_attenuated,
    kennedy_error,
    kennedy_raw_error,
    type1_error,
    type2_error,
    type2_imperfect_error,
)
from bpskrx.svgplot import render_svg
from bpskrx.sweepio import CsvRow, read_csv, row_from_result, write_csv

SRC = str(Path(__file__).resolve().parents[1] / "src")
#: The CSV header line: the `CsvRow` field names, comma-joined.
HEADER = ",".join(CsvRow._fields)


def test_sweep_matches_library_values(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        [
            "sweep",
            "--alpha-sq-min", "0.25",
            "--alpha-sq-max", "1.0",
            "--points", "2",
            "--scale", "linear",
            "--receivers", "helstrom",
            "--out", str(out),
        ]
    )
    assert rc == 0
    meta, rows = read_csv(out)
    assert meta["tool"] == "bpskrx sweep"
    assert meta["receivers"] == "helstrom"
    assert [r.alpha_sq for r in rows] == [0.25, 1.0]
    assert rows[0].p_error == helstrom(BinaryEnsemble(0.5))
    assert rows[1].p_error == helstrom(BinaryEnsemble(1.0))
    # quantum floor carries no detector columns
    assert rows[0].eta is None and rows[0].nu is None
    assert rows[0].provenance == "analytic"


def test_sweep_reruns_byte_identical(tmp_path):
    argv = [
        "sweep",
        "--points", "6",
        "--eta", "0.9",
        "--nu", "1e-3",
        "--receivers", "kennedy,type2",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_sweep_receiver_ordering_rowwise(tmp_path):
    """The default five-receiver sweep reproduces the canonical ordering at
    every grid point when read back from disk."""
    out = tmp_path / "fig.csv"
    assert cli.main(["sweep", "--points", "10", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    by_alpha = {}
    for row in rows:
        by_alpha.setdefault(row.alpha_sq, {})[row.receiver] = row.p_error
    assert len(by_alpha) == 10
    for alpha_sq, group in by_alpha.items():
        assert set(group) == {"helstrom", "homodyne", "kennedy", "type1", "type2"}
        assert group["helstrom"] <= group["type1"] + 1e-15
        assert group["type1"] <= group["type2"] + 1e-15
        assert group["type2"] <= group["kennedy"] + 1e-15
        assert group["type2"] < group["homodyne"]


def test_sweep_hyphenated_tags_accepted(tmp_path):
    out = tmp_path / "s.csv"
    rc = cli.main(
        ["sweep", "--points", "2", "--receivers", "type2-imperfect",
         "--tau", "0.99", "--xi", "0.995", "--eta", "0.9", "--nu", "1e-3",
         "--out", str(out)]
    )
    assert rc == 0
    _, rows = read_csv(out)
    assert {r.receiver for r in rows} == {"type2_imperfect"}
    assert rows[0].tau == 0.99 and rows[0].xi == 0.995


def test_sweep_partial_failure_exit_2(tmp_path, monkeypatch, capsys):
    def boom(ensemble, detector=None):
        raise ConvergenceError("injected failure")

    monkeypatch.setitem(RECEIVERS, "type1", RECEIVERS["type1"]._replace(evaluate=boom))
    out = tmp_path / "partial.csv"
    rc = cli.main(
        ["sweep", "--points", "3", "--receivers", "helstrom,type1", "--out", str(out)]
    )
    assert rc == 2
    assert "injected failure" in capsys.readouterr().err
    _, rows = read_csv(out)
    # the healthy receiver still produced all its rows
    assert [r.receiver for r in rows] == ["helstrom"] * 3


@pytest.mark.parametrize("flags, no_information", [
    (["--eta", "1e-200", "--xi", "1e-200"], True), (["--eta", "1e-40"], True),
    (["--tau", "1e-50"], False),
], ids=["eta-xi-1e-400", "eta-1e-40", "tau-1e-50"])
def test_gamma_inputs_once_refused_give_rows(tmp_path, capsys, flags, no_information):
    """Below eta xi = 1e-30, and at tau = 1e-50, the bracketed gamma solve
    refused every point. Each now has its root:
    sweep writes every row, the no-information 1/2 where eta is that small,
    and montecarlo runs."""
    flags = [*flags, "--points", "3"]
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--receivers", "type2_imperfect", *flags, "--out", str(out)]) == 0
    rows = read_csv(out)[1]
    assert len(rows) == 3 and all(0.0 <= r.p_error <= 0.5 for r in rows)
    if no_information:
        assert {r.p_error for r in rows} == {0.5}
    assert cli.main(["montecarlo", "--trials", "10", *flags, "--out", str(tmp_path / "m.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_lossy_click_rows_stay_probabilities_at_large_amplitude(tmp_path):
    """At tau = 0.99 and alpha^2 from 1e16 to 1e17 a rounded b - a of a few
    hundred once reached expm1 and wrote p_error 0.4998 and -3.9e13. The
    exponent gap now comes from the nulling residual, and every row is the
    underflowed 0.0 that the true value rounds to."""
    out = tmp_path / "s.csv"
    rc = cli.main(["sweep", "--receivers", "kennedy_imperfect,type2_imperfect", "--tau", "0.99",
                   "--alpha-sq-min", "1e16", "--alpha-sq-max", "1e17", "--points", "3",
                   "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)[1]
    assert len(rows) == 6 and all(0.0 <= r.p_error <= 0.5 for r in rows)


@pytest.mark.parametrize("argv, expected_rc, message, kept", [
    (["sweep", "--alpha-sq-min", "1e308", "--alpha-sq-max", "1.79e308", "--points", "2",
      "--receivers", "kennedy,type2"], 2, "kennedy click probability overflows", []),
    (["sweep", "--receivers", "helstrom,kennedy_imperfect", "--tau", "0.5", "--alpha-sq-min",
      "1", "--alpha-sq-max", "1e20", "--points", "2"], 0, "", [1.0, 1.0, 1e20, 1e20]),
    (["montecarlo", "--points", "2", "--trials", "10", "--alpha-sq-max", "1e308"], 3,
     "mean intensity overflows", None),
], ids=["sweep-1e308", "sweep-kennedy-imperfect-1e20", "montecarlo-1e308"])
def test_overflow_at_the_top_of_the_float_range(
    tmp_path, capsys, argv, expected_rc, message, kept
):
    """Where a click probability's exponents overflow (a + b = inf at
    alpha^2 = 1e308, or an overflowed square) the point is a solver failure:
    sweep omits it (exit 2) and writes no NaN, montecarlo exits 3. At
    alpha^2 = 1e20, tau = 0.5 nothing overflows: kennedy_imperfect's exponent
    gap is 0 and its row is the underflowed 0.0 that helstrom also gives."""
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == expected_rc
    assert message in capsys.readouterr().err
    if kept is not None:
        _, rows = read_csv(out)
        assert [r.alpha_sq for r in rows] == kept
        assert all(math.isfinite(r.p_error) for r in rows)
        assert all(r.p_error == 0.0 for r in rows if r.alpha_sq == 1e20)


def test_sweep_type1_at_alpha_zero_is_omitted(tmp_path, capsys):
    out = tmp_path / "zero.csv"
    rc = cli.main(
        ["sweep", "--scale", "linear", "--alpha-sq-min", "0", "--alpha-sq-max", "1",
         "--points", "2", "--receivers", "helstrom,type1", "--out", str(out)]
    )
    assert rc == 2
    assert "type1 at alpha_sq=0.0: " in capsys.readouterr().err
    _, rows = read_csv(out)
    assert [(r.alpha_sq, r.receiver) for r in rows] == [
        (0.0, "helstrom"), (1.0, "helstrom"), (1.0, "type1")
    ]


def test_params_output(capsys):
    assert cli.main(["params", "--alpha-sq", "0.25"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "alpha_sq=0.25 eta=1.0"
    gamma = float(re.search(r"gamma_opt=([^ ]+)", out).group(1))
    beta = float(re.search(r"beta_opt=([^ ]+)", out).group(1))
    r = float(re.search(r"r_opt=([^ ]+)", out).group(1))
    assert abs(gamma - 0.7717023192091041) < 1e-14
    assert abs(beta - 0.708909526414441) < 1e-9
    assert abs(r - 0.24288679719072476) < 1e-9
    # a lossy detector, and both Newton solves at the ends of their domain
    for alpha_sq, eta in (("1", "0.01"), ("1e-300", "1e-3"), ("1e300", "1e-3")):
        assert cli.main(["params", "--alpha-sq", alpha_sq, "--eta", eta]) == 0
        values = re.findall(r"=(\S+)", capsys.readouterr().out)
        assert len(values) == 7 and all(math.isfinite(float(v)) for v in values)


def test_params_solver_failure_exit_3(monkeypatch, capsys):
    def boom(alpha, eta=1.0):
        raise ConvergenceError("injected failure")

    monkeypatch.setattr(cli, "solve_type1_params", boom)
    assert cli.main(["params", "--alpha-sq", "0.25"]) == 3
    assert "optimizer failed" in capsys.readouterr().err


def test_params_huge_alpha_exit_3(capsys):
    """alpha^2 = 1e308 overflows the type1 residuals to NaN, which the
    solver rejects; that is an optimizer failure, not a traceback."""
    assert cli.main(["params", "--alpha-sq", "1e308"]) == 3
    assert "optimizer failed" in capsys.readouterr().err


def test_params_huge_alpha_no_warnings():
    """The overflow at alpha^2 = 1e308 gives quiet infs in the residuals: a
    fresh ``bpskrx params`` run, with warnings shown, prints no warning."""
    env = dict(os.environ, PYTHONWARNINGS="default")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bpskrx.cli", "params", "--alpha-sq", "1e308"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 3
    assert "optimizer failed" in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv", [["params", "--alpha-sq", "1"], ["verify-gaussian", "--alpha-sq", "0.25"]],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_exits_141_quietly(argv, unbuffered):
    """A reader that is gone before the output is written (``| head -c0``)
    gives the shell's SIGPIPE status and nothing on stderr, whether the
    write fails at a print or at the final flush."""
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bpskrx.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_no_stdout_at_all_exits_0():
    """With fd 1 closed (``>&-``) Python has no ``sys.stdout`` and print
    writes nothing; the command still succeeds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bpskrx.cli", "params", "--alpha-sq", "1"],
        stderr=subprocess.PIPE, env=env, timeout=60, preexec_fn=lambda: os.close(1),
    )
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_verify_gaussian_pass(tmp_path, capsys):
    out = tmp_path / "landscape.csv"
    rc = cli.main(["verify-gaussian", "--alpha-sq", "0.25", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "argmin at (r_max, phi=0): PASS" in stdout
    lines = out.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "r,phi,e,p_error"
    assert len(data) == 1 + 9 * 7


def test_verify_gaussian_degenerate_exit_0(capsys):
    # a single squeezing value of 0 makes every phi tie exactly
    rc = cli.main(["verify-gaussian", "--alpha-sq", "0.25", "--r-grid", "0"])
    assert rc == 0
    assert "DEGENERATE" in capsys.readouterr().out


def test_verify_gaussian_fail_exit_1(capsys):
    rc = cli.main(
        ["verify-gaussian", "--alpha-sq", "0.25",
         "--r-grid", "0.5,1.0", "--phi-grid", "2.0,3.0"]
    )
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_gaussian_grid_syntax(capsys):
    rc = cli.main(
        ["verify-gaussian", "--alpha-sq", "1.0", "--r-grid", "0:8:5", "--phi-grid", "0"]
    )
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_gaussian_huge_r_passes(capsys):
    # cosh(2r) overflows at r = 400; the landscape takes the r -> inf limit
    rc = cli.main(["verify-gaussian", "--alpha-sq", "1", "--r-grid", "0,400"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "argmin at (r_max, phi=0): PASS" in out
    assert "argmin: r=400.0 phi=0.0" in out


@pytest.mark.parametrize(
    "grid, message",
    [pytest.param("0:1:-1", "'0:1:-1' is neither lo:hi:n nor a comma list of numbers "
                  "(Number of samples, -1, must be non-negative.)", id="0:1:-1-negative-count"),
     pytest.param("abc", "'abc' is neither lo:hi:n nor a comma list of numbers "
                  "(could not convert string to float: 'abc')", id="abc-not-a-number"),
     pytest.param("1:2", "'1:2' is neither lo:hi:n nor a comma list of numbers "
                  "(not enough values to unpack (expected 3, got 2))", id="1:2-two-fields"),
     ("0:1:0", "grid needs at least one point")],
)
def test_grid_point_count_errors(capsys, grid, message):
    """A grid spec that parses as neither form names both forms and the
    cause; one that parses to no point says so."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-gaussian", "--alpha-sq", "1", "--r-grid", grid])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bpskrx verify-gaussian")
    assert f"bpskrx verify-gaussian: error: argument --r-grid: {message}" in err


def _linspace_cases():
    """Seeded (lo, hi, n) over many magnitudes and both signs, plus the
    edges of numpy's recipe: n <= 1, lo == hi, reversed bounds, signed
    zeros and steps that underflow to subnormal or zero."""
    rng = np.random.default_rng(20261018)
    tiny = 5e-324
    yield from [
        (0.0, 1.0, 0), (2.0, 3.0, 1), (-0.0, 0.0, 1), (-0.0, -0.0, 1), (-0.0, -1.0, 1),
        (0.0, -0.0, 5), (-0.0, 0.0, 5), (-0.0, -0.0, 3), (1.5, 1.5, 9), (-0.0, 1.0, 4),
        (3.0, -2.0, 11), (0.0, 3 * tiny, 10), (0.0, 1e-320, 7), (-tiny, tiny, 40),
        (1e-310, -1e-310, 1000), (0.0, math.pi, 7), (1e308, -1e308, 5),
    ]
    for _ in range(20_000):
        lo, hi = (float(s * 10.0 ** e) for s, e in zip(
            rng.uniform(-1.0, 1.0, 2), rng.uniform(-320.0, 308.0, 2) * (rng.random() < 0.5)
        ))
        kind = rng.integers(5)
        if kind == 0:
            hi = lo
        elif kind == 1:
            lo, hi = -abs(lo), abs(lo) * rng.uniform(0.0, 4.0)
        elif kind == 2:  # subnormal bounds: the step often underflows to 0
            lo, hi = (float(k) * tiny for k in rng.integers(-60, 61, 2))
        yield lo, hi, int(rng.integers(0, 80))


def test_linspace_equals_numpy_bitwise():
    n_cases = 0
    for lo, hi, n in _linspace_cases():
        ours = np.array(cli._linspace(lo, hi, n), dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # hi - lo = +-inf
            theirs = np.linspace(lo, hi, n)
        assert ours.tobytes() == theirs.tobytes(), (lo, hi, n)
        n_cases += 1
    assert n_cases >= 20_000
    with pytest.raises(ValueError, match="must be non-negative"):
        cli._linspace(0.0, 1.0, -1)


@pytest.mark.parametrize(
    "lo, hi",
    [(0.001, 5.0), (0.01, 10.0), (0.03, 7.0), (0.2, 3.0), (1e-5, 0.7), (0.05, 40.0), (2.5, 1e300)],
)
def test_log_grid_ends_at_the_bounds(lo, hi):
    """The log grid starts and ends at exactly the bounds given, though
    10 ** log10(bound) is often an ulp off; the inner points are 10 ** x."""
    args = argparse.Namespace(alpha_sq_min=lo, alpha_sq_max=hi, points=60, scale="log")
    grid = cli._alpha_grid(args)
    inner = [10.0 ** x for x in cli._linspace(math.log10(lo), math.log10(hi), 60)]
    assert grid[0] == lo and grid[-1] == hi
    assert grid[1:-1] == inner[1:-1]


def test_montecarlo_csv(tmp_path):
    out = tmp_path / "mc.csv"
    argv = [
        "montecarlo",
        "--alpha-sq-min", "0.25",
        "--alpha-sq-max", "1.0",
        "--points", "2",
        "--scale", "linear",
        "--trials", "2000",
        "--seed", "99",
        "--out", str(out),
    ]
    assert cli.main(argv) == 0
    meta, rows = read_csv(out)
    assert meta["rng_id"] == RNG_ID
    assert meta["seed"] == "99" and meta["trials"] == "2000"
    assert all(r.provenance == "montecarlo" for r in rows)
    assert all(r.std_err is not None for r in rows)
    # first grid point reproduces a direct simulation with the derived seed
    gamma = solve_type2_gamma(0.5).value
    direct = simulate_type2(
        McConfig(2000, int(np.random.SeedSequence([99, 0]).generate_state(1, np.uint64)[0]),
                 BinaryEnsemble(0.5), DetectorModel(), gamma)
    )
    assert rows[0].p_error == direct.p_hat
    assert rows[0].std_err == direct.std_err
    assert rows[0].gamma_opt == gamma
    # reruns are byte-identical
    out2 = tmp_path / "mc2.csv"
    assert cli.main(argv[:-1] + [str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_montecarlo_single_trial(tmp_path):
    out = tmp_path / "one.csv"
    rc = cli.main(
        ["montecarlo", "--points", "2", "--trials", "1", "--seed", "5", "--out", str(out)]
    )
    assert rc == 0
    _, rows = read_csv(out)
    for row in rows:
        assert row.p_error in (0.0, 1.0)
        assert row.std_err == 0.0


def test_plot_one_polyline_per_group(tmp_path):
    csv = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--points", "6", "--out", str(csv)]) == 0
    svg = tmp_path / "fig.svg"
    assert cli.main(["plot", str(csv), "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<polyline") == 5
    for name in ("helstrom", "homodyne", "kennedy", "type1", "type2"):
        assert f">{name}</text>" in text
    # rerenders are byte-identical
    svg2 = tmp_path / "fig2.svg"
    assert cli.main(["plot", str(csv), "--out", str(svg2)]) == 0
    assert svg.read_bytes() == svg2.read_bytes()


def test_plot_merges_inputs_and_labels_provenance(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "mc.csv"
    assert cli.main(["sweep", "--points", "4", "--receivers", "type2", "--out", str(a)]) == 0
    assert cli.main(
        ["montecarlo", "--points", "4", "--trials", "500", "--seed", "1", "--out", str(b)]
    ) == 0
    svg = tmp_path / "both.svg"
    assert cli.main(["plot", str(a), str(b), "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<polyline") == 2
    assert ">type2 [montecarlo]</text>" in text


def test_plot_empty_rows_draws_axes(tmp_path):
    csv = tmp_path / "empty.csv"
    write_csv(csv, [], metadata={"tool": "test"})
    svg = tmp_path / "empty.svg"
    assert cli.main(["plot", str(csv), "--out", str(svg)]) == 0
    text = svg.read_text()
    assert "<polyline" not in text
    assert "alpha^2" in text


def test_plot_extreme_values_keep_axes(tmp_path):
    """A deep-tail sweep writes p_error = 5e-324, whose power of ten
    underflows, and alpha_sq near the float maximum has one that overflows;
    the axes stop at the last finite nonzero decade. The 306 x decades keep
    their ticks, but their labels sit at least 48 px apart."""
    csv = tmp_path / "deep.csv"
    csv.write_text(
        HEADER
        + "\n150.0,helstrom,,,,,5e-324,,,,analytic,\n1.5e308,helstrom,,,,,1e-300,,,,analytic,\n"
    )
    svg = render_svg(read_csv(csv)[1])
    assert svg.count("<polyline") == 1
    assert ">1e-323</text>" in svg and ">1e-300</text>" in svg and ">1e+308</text>" in svg
    assert "nan" not in svg and "inf" not in svg
    xs = [float(x) for x in re.findall(r'<text x="([\d.]+)" y="448" font-size="11"', svg)]
    assert len(xs) > 1
    assert min(b - a for a, b in zip(xs, xs[1:])) >= 48.0


def test_plot_deep_tail_y_labels_readable(tmp_path):
    """The deep-tail sweep spans 64 decades down to 5e-324: every decade
    keeps its tick, but labels are thinned to sit at least 14 px apart."""
    csv = tmp_path / "deep.csv"
    argv = ["sweep", "--receivers", "helstrom,kennedy", "--alpha-sq-min", "150",
            "--alpha-sq-max", "187", "--points", "40", "--out", str(csv)]
    assert cli.main(argv) == 0
    rows = read_csv(csv)[1]
    assert min(r.p_error for r in rows if r.p_error > 0.0) == 5e-324
    svg = render_svg(rows)
    ticks = re.findall(r'<line x1="65" y1="([-\d.]+)"', svg)
    labels = re.findall(r'<text x="62" y="([-\d.]+)"[^>]*>1e(-\d+)</text>', svg)
    assert len(ticks) == 64
    assert len(labels) > 1
    ys = sorted(float(y) for y, _ in labels)
    assert min(b - a for a, b in zip(ys, ys[1:])) >= 14.0
    steps = {int(b) - int(a) for (_, a), (_, b) in zip(labels, labels[1:])}
    assert len(steps) == 1


def test_plot_bad_header_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("alpha,receiver\n1.0,helstrom\n")
    assert cli.main(["plot", str(bad), "--out", str(tmp_path / "x.svg")]) == 4
    assert "line 1:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row",
    [
        "abc,helstrom,,,,,0.5,,,,analytic,",
        "1.0,helstrom,,,,,inf,,,,analytic,",
        "1.0,helstrom,,,,,nan,,,,analytic,",
    ],
    ids=["abc", "inf", "nan"],
)
def test_plot_bad_value_exit_4(tmp_path, capsys, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(HEADER + "\n" + row + "\n")
    assert cli.main(["plot", str(bad), "--out", str(tmp_path / "x.svg")]) == 4
    assert "line 2:" in capsys.readouterr().err


def test_plot_missing_file_exit_4(tmp_path, capsys):
    assert cli.main(["plot", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.svg")]) == 4
    assert "nope.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, line",
    [(b"\xff\xfe\x00bad", 1), (b"# a=1\r\n" + HEADER.encode() + b"\r\n1.0,hel\xe9strom", 3)],
    ids=["first-byte", "crlf-line-3"],
)
def test_plot_non_utf8_input_exit_4(tmp_path, capsys, data, line):
    bad = tmp_path / "bin.csv"
    bad.write_bytes(data)
    assert cli.main(["plot", str(bad), "--out", str(tmp_path / "x.svg")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line {line}: not UTF-8:"), err
    assert err.count("\n") == 1
    with pytest.raises(CsvFormatError) as exc:
        read_csv(bad)
    assert exc.value.line == line


#: One short run of each subcommand that takes ``--out``; plot reads
#: ``{tmp}/in.csv``, which the test writes first.
_OUT_ARGVS = [
    ["sweep", "--points", "3"],
    ["verify-gaussian", "--alpha-sq", "0.25"],
    ["montecarlo", "--points", "2", "--trials", "100"],
    ["plot", "{tmp}/in.csv"],
]


@pytest.mark.parametrize("argv", _OUT_ARGVS, ids=lambda argv: argv[0])
def test_unwritable_out_exit_2(tmp_path, capsys, argv):
    if argv[0] == "plot":
        assert cli.main(["sweep", "--points", "3", "--out", str(tmp_path / "in.csv")]) == 0
    out = tmp_path / "missing" / "x.out"
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {out}: {os.strerror(errno.ENOENT)}\n"
    assert captured.out == ""
    assert not out.parent.exists()


@pytest.mark.parametrize("argv", _OUT_ARGVS, ids=lambda argv: argv[0])
def test_out_is_a_directory_exit_2(tmp_path, capsys, argv):
    """An ``--out`` that is an existing directory passes the up-front check
    and is refused when the file is written, which leaves nothing behind."""
    if argv[0] == "plot":
        assert cli.main(["sweep", "--points", "3", "--out", str(tmp_path / "in.csv")]) == 0
    out = tmp_path / "dir"
    out.mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out}: {os.strerror(errno.EISDIR)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "parent, code", [("missing", errno.ENOENT), ("file", errno.ENOTDIR)], ids=["missing", "file"]
)
def test_unwritable_out_exits_2_before_the_work(tmp_path, capsys, monkeypatch, parent, code):
    """An ``--out`` whose directory is missing or a file is refused before
    a single simulation runs."""
    from bpskrx import montecarlo

    def simulate(*args):
        raise AssertionError("the simulation ran")

    monkeypatch.setattr(montecarlo, "sweep_montecarlo", simulate)
    (tmp_path / "file").write_text("")
    out = tmp_path / parent / "x.csv"
    assert cli.main(["montecarlo", "--points", "60", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out}: {os.strerror(code)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def _one_row_per_tag():
    """One analytic row per receiver tag (coupled detector where the tag
    keeps tau and xi), plus one Monte Carlo row with a standard error."""
    ens, ideal = BinaryEnsemble(0.5), DetectorModel(eta=0.9, nu=1e-3)
    coupled = DetectorModel(eta=0.9, nu=1e-3, tau=0.95, xi=0.97)
    rows = [
        row_from_result(0.25, rec.evaluate(ens, coupled if "tau" in rec.detector_cols else ideal))
        for rec in RECEIVERS.values()
    ]
    gamma = solve_type2_gamma(0.5, 0.9).value
    est = simulate_type2(McConfig(1000, 7, ens, ideal, gamma))
    result = ReceiverResult("type2", est.p_hat, provenance="montecarlo", gamma_opt=gamma,
                            detector=ideal)
    return rows + [row_from_result(0.25, result, std_err=est.std_err)]


def test_csv_round_trip_exact(tmp_path):
    rows = _one_row_per_tag()
    assert [r.receiver for r in rows[:-1]] == list(RECEIVERS)
    assert rows[-1].provenance == "montecarlo" and rows[-1].std_err > 0.0
    path = tmp_path / "rt.csv"
    write_csv(path, rows, metadata={"scale": "log"})
    meta, back = read_csv(path)
    assert meta == {"scale": "log"}
    assert back == rows  # repr round-trips float64 exactly
    assert all(type(r) is CsvRow for r in back)


def test_csv_line_endings_and_utf8_bytes(tmp_path):
    """CRLF and lone-CR files read as the LF file does, and non-ASCII
    metadata is written as UTF-8 with LF endings."""
    rows = _one_row_per_tag()
    lf = tmp_path / "lf.csv"
    write_csv(lf, rows, metadata={"note": "\u03b7 = 0.9", "scale": "log"})
    data = lf.read_bytes()
    assert data.startswith(b"# note=\xce\xb7 = 0.9\n# scale=log\n" + HEADER.encode() + b"\n")
    assert data.endswith(b"\n") and b"\r" not in data
    expected = read_csv(lf)
    assert expected == ({"note": "\u03b7 = 0.9", "scale": "log"}, rows)
    for name, ending in (("crlf.csv", b"\r\n"), ("cr.csv", b"\r")):
        other = tmp_path / name
        other.write_bytes(data.replace(b"\n", ending))
        assert read_csv(other) == expected


def test_csv_numpy_floats_write_the_same_bytes(tmp_path):
    rows = _one_row_per_tag()
    wide = [CsvRow._make(np.float64(x) if isinstance(x, float) else x for x in r) for r in rows]
    assert any(isinstance(x, np.float64) for x in wide[0])
    write_csv(tmp_path / "py.csv", rows)
    write_csv(tmp_path / "np.csv", wide)
    assert (tmp_path / "np.csv").read_bytes() == (tmp_path / "py.csv").read_bytes()


def test_csv_row_contract(tmp_path):
    """The header line that `write_csv` writes is the field names of
    `CsvRow`, and a row cannot be assigned."""
    row = _one_row_per_tag()[0]
    write_csv(tmp_path / "one.csv", [row])
    assert (tmp_path / "one.csv").read_text().splitlines()[0] == ",".join(CsvRow._fields)
    with pytest.raises(AttributeError):
        row.p_error = 0.0


def test_csv_detector_column_masking(tmp_path):
    det = DetectorModel(eta=0.9, nu=1e-3)
    row = row_from_result(0.25, type1_error(BinaryEnsemble(0.5), det))
    assert row.eta == 0.9 and row.nu == 1e-3
    assert row.tau is None and row.xi is None
    assert row.gamma_opt is None and row.beta_opt is not None


def test_csv_rejects_unknown_tag(tmp_path):
    path = tmp_path / "tag.csv"
    path.write_text(HEADER + "\n0.5,warpdrive,,,,,0.1,,,,analytic,\n")
    with pytest.raises(CsvFormatError) as err:
        read_csv(path)
    assert err.value.line == 2
    assert "warpdrive" in str(err.value)


def test_csv_rejects_unknown_provenance(tmp_path):
    """Only "analytic" and "montecarlo" are written; "fock" is not one."""
    path = tmp_path / "prov.csv"
    for tag in ("guess", "fock"):
        path.write_text(HEADER + f"\n0.5,helstrom,,,,,0.1,,,,{tag},\n")
        with pytest.raises(CsvFormatError, match=f"unknown provenance '{tag}'") as err:
            read_csv(path)
        assert err.value.line == 2


@pytest.mark.parametrize("text, line", [("", 1), ("# a=1\n", 2)], ids=["empty", "metadata-only"])
def test_csv_rejects_missing_header(tmp_path, text, line):
    path = tmp_path / "headless.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError, match="no header line found") as err:
        read_csv(path)
    assert err.value.line == line


def test_csv_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text(HEADER + "\n0.5,helstrom,0.1\n")
    with pytest.raises(CsvFormatError) as err:
        read_csv(path)
    assert err.value.line == 2


def test_csv_rejects_blank_required_field(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text(HEADER + "\n,helstrom,,,,,0.1,,,,analytic,\n")
    with pytest.raises(CsvFormatError):
        read_csv(path)


def test_csv_line_numbers_count_metadata_lines(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("# a=1\n# b=2\n" + HEADER + "\n0.5,helstrom,,,,,nan?,,,,analytic,\n")
    with pytest.raises(CsvFormatError) as err:
        read_csv(path)
    assert err.value.line == 4


_NUMERIC_COLUMNS = [c for c in CsvRow._fields if c not in ("receiver", "provenance")]


@pytest.mark.parametrize("text, problem", [("abc", "is not a number"), ("inf", "is not finite"),
                                           ("nan", "is not finite")], ids=["abc", "inf", "nan"])
@pytest.mark.parametrize("col", _NUMERIC_COLUMNS)
def test_csv_names_the_bad_column(tmp_path, col, text, problem):
    good = "0.5,type2_imperfect,0.9,0.001,0.95,0.97,0.1,0.2,0.3,0.4,montecarlo,0.01".split(",")
    bad = [text if name == col else value for name, value in zip(CsvRow._fields, good)]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["# a=1", "# b=2", HEADER, ",".join(good), ",".join(bad), ""]))
    with pytest.raises(CsvFormatError) as err:
        read_csv(path)
    assert str(err.value) == f"line 5: column '{col}' {problem}: '{text}'"
    assert err.value.line == 5


@pytest.mark.parametrize(
    "receivers, message",
    [
        ("warpdrive", "unknown receiver 'warpdrive'"),
        (",", "no receiver given"),
        ("type2,type2", "receiver 'type2' given twice"),
        ("type2-imperfect,type2_imperfect", "receiver 'type2_imperfect' given twice"),
    ],
    ids=["unknown", "empty", "repeated", "repeated-spelling"],
)
def test_unknown_receiver_flag_rejected(tmp_path, capsys, receivers, message):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--receivers", receivers, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: bpskrx sweep" in err and message in err
    assert not out.exists()


LOSSY_FLAGS = ["--eta", "0.9", "--nu", "1e-3", "--tau", "0.99", "--xi", "0.995"]

#: Direct calls of the public receiver functions, one per tag.
DIRECT = {
    "helstrom": lambda ens, det: helstrom(ens),
    "homodyne": lambda ens, det: homodyne_limit(ens),
    "homodyne_tau": homodyne_limit_attenuated,
    "kennedy": lambda ens, det: kennedy_error(ens, det).p_error,
    "kennedy_imperfect": lambda ens, det: kennedy_error(ens, det).p_error,
    "kennedy_raw": lambda ens, det: kennedy_raw_error(ens, det).p_error,
    "type1": lambda ens, det: type1_error(ens, det).p_error,
    "type2": lambda ens, det: type2_error(ens, det).p_error,
    "type2_imperfect": lambda ens, det: type2_imperfect_error(ens, det).p_error,
}


@pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
@pytest.mark.parametrize("tag", list(RECEIVERS))
def test_sweep_rows_follow_receiver_table(tmp_path, tag, lossy):
    out = tmp_path / "t.csv"
    flags = LOSSY_FLAGS if lossy else []
    rc = cli.main(["sweep", "--points", "3", "--receivers", tag, *flags, "--out", str(out)])
    _, rows = read_csv(out)
    if lossy and tag in ("type1", "type2"):
        # these refuse coupling loss, so every point is omitted
        assert rc == 2 and rows == []
        return
    assert rc == 0 and len(rows) == 3
    det = DetectorModel(0.9, 1e-3, 0.99, 0.995) if lossy else DetectorModel()
    # the row tag quirks: kennedy names its row after the coupling, and
    # type2_imperfect at ideal coupling writes type2 rows
    quirks = {("kennedy", True): "kennedy_imperfect", ("kennedy_imperfect", False): "kennedy",
              ("type2_imperfect", False): "type2"}
    for row in rows:
        assert row.receiver == quirks.get((tag, lossy), tag)
        kept = RECEIVERS[row.receiver].detector_cols
        for col in ("eta", "nu", "tau", "xi"):
            assert getattr(row, col) == (getattr(det, col) if col in kept else None), col
        assert row.p_error == DIRECT[tag](BinaryEnsemble(math.sqrt(row.alpha_sq)), det)


def test_montecarlo_solves_gamma_once_per_point(tmp_path, monkeypatch):
    calls = []
    solve = optimize._solve_gamma

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(optimize, "_solve_gamma", counting)
    out = tmp_path / "mc.csv"
    argv = ["montecarlo", "--points", "5", "--trials", "10", *LOSSY_FLAGS, "--out", str(out)]
    assert cli.main(argv) == 0
    assert len(calls) == 5
    _, rows = read_csv(out)
    assert [r.gamma_opt for r in rows] == [solve(*c).value for c in calls]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--alpha-sq-min", "5", "--alpha-sq-max", "1"],
        ["sweep", "--points", "1"],
        ["sweep", "--eta", "1.5"],
        ["sweep", "--tau", "1.5"],
        ["sweep", "--xi", "-0.1"],
        ["sweep", "--nu", "-1"],
        ["sweep", "--alpha-sq-min", "-1"],
        ["sweep", "--alpha-sq-max", "1.7976931348623157e308"],  # 10 ** log10 overflows
        ["montecarlo", "--alpha-sq-max", "1.7976931348623157e308"],
        ["montecarlo", "--trials", "0"],
        ["montecarlo", "--eta", "1.5"],
        ["params", "--alpha-sq", "-1"],
        ["params", "--alpha-sq", "0"],
        ["params", "--alpha-sq", "1", "--eta", "1.5"],
        ["verify-gaussian", "--alpha-sq", "-1"],
        ["verify-gaussian", "--alpha-sq", "1", "--r-grid", ","],
        ["verify-gaussian", "--alpha-sq", "1", "--phi-grid", "0:1:0"],
        ["verify-gaussian", "--alpha-sq", "1", "--r-grid", "nan"],
    ],
    ids=" ".join,
)
def test_argument_errors_exit_2_with_usage(tmp_path, capsys, argv):
    out = tmp_path / "never.csv"
    if argv[0] != "params":
        argv = [*argv, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"usage: bpskrx {argv[0]}" in err
    assert f"bpskrx {argv[0]}: error:" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--eta", "--tau"])
def test_montecarlo_solver_failure_exit_3(tmp_path, capsys, flag):
    out = tmp_path / "mc.csv"
    assert cli.main(["montecarlo", "--points", "2", flag, "0", "--out", str(out)]) == 3
    assert "error: optimizer failed:" in capsys.readouterr().err
    assert not out.exists()
