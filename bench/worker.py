"""In-process side of the benchmark: the `curves` and `oracle` workloads,
the set-up probe, and the per-layer probes of a traced run.

`run.py` starts this file in a fresh interpreter with the BLAS/OpenMP
thread count pinned and ``src`` on ``PYTHONPATH``; each subcommand prints
one JSON object as its last line of standard output.

    worker.py setup  --workload W --seed N --out DIR   import, inputs, warm-up
    worker.py run    --workload W --seed N --out DIR --seconds S --trace 0|1
    worker.py probes --seed N --out DIR                per-layer probes only
    worker.py fock-dim64                               one Fock size, as pinned
    worker.py env                                      numeric environment
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import numpy as np
import scipy

from bpskrx import cli
from bpskrx.core import (
    BinaryEnsemble,
    DetectorModel,
    NotPureError,
    ReceiverResult,
    SingularMatrixError,
    TruncationError,
)
from bpskrx.fock import receiver_error_fock
from bpskrx.gaussian import (
    GaussianMeasurementSpec,
    apply_gaussian_unitary,
    binary_conditional_output,
    condition_on_partial_measurement,
    pure_normal_form,
    random_symplectic,
    vacuum,
)
from bpskrx.montecarlo import McConfig, simulate_type2, sweep_montecarlo
from bpskrx.optimize import (
    displaced_squeezed_error,
    solve_type1_params,
    solve_type2_gamma,
    solve_type2_gamma_imperfect,
    verify_gaussian_optimum,
)
from bpskrx.receivers import (
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
from bpskrx.sweepio import read_csv, row_from_result, write_csv

from inputs import (
    ALL_TAGS,
    CLI_SUBS,
    CURVES_BLOCK,
    ORACLE_BLOCK,
    ORACLE_MC_TRIALS,
    ORACLE_MODES,
    cli_session,
    curves_points,
    oracle_checks,
)
import calib
from tracing import NULL, Tracer

#: Relative slack of the value checks: floor, ordering.
REL_TOL = 1e-9
#: Agreement required between the closed form and the number-basis oracle
#: (the bound of the number-basis acceptance test).
FOCK_TOL = 1e-7
#: Agreement required of the Gaussian algebra identities.
GAUSS_TOL = 1e-9
#: Largest |z| accepted between simulation and closed form (a false alarm
#: once in about two million checks).
MC_Z = 5.0
#: Condition number of a random circuit's symplectic matrix from which it
#: counts as strongly squeezed: about one circuit in ten.
SQUEEZED_COND = 1e4
#: CPU seconds of ops between two passes of the reference work.
REF_EVERY_S = 0.15
#: Known tail defects are wrong by less than this, in absolute terms; a
#: value that misses a check by more is a new failure.
TAIL_ABS = 1e-12

#: (tag, function, detector argument). "ideal" is (eta, nu) with
#: tau = xi = 1; "coupled" adds the point's tau and xi below 1.
RECEIVERS = (
    ("helstrom", helstrom, None),
    ("homodyne", homodyne_limit, None),
    ("homodyne_tau", homodyne_limit_attenuated, "coupled"),
    ("kennedy", kennedy_error, "ideal"),
    ("kennedy_imperfect", kennedy_error, "coupled"),
    ("kennedy_raw", kennedy_raw_error, "coupled"),
    ("type1", type1_error, "ideal"),
    ("type2", type2_error, "ideal"),
    ("type2_imperfect", type2_imperfect_error, "coupled"),
)

#: Order that must hold at every point, smallest first (helstrom comes in
#: through the floor check).
ORDER = ("type1", "type2", "kennedy")

#: Fixed inputs of the untimed warm-up call, so set-up time does not depend
#: on the seed.
WARMUP_POINT = {"alpha_sq": 1.0, "eta": 0.9, "nu": 1e-3, "tau": 0.95, "xi": 0.98}
WARMUP_CHECK = {
    "fock": {"alpha": 0.5, "beta": 0.3, "r": 0.2, "eta": 0.9, "nu": 0.0},
    "circuit_seed": 1,
    "mc": {"alpha_sq": 0.5, "eta": 0.9, "nu": 1e-3, "tau": 0.95, "xi": 0.98, "seed": 1},
}


#: (receiver, check) pairs whose tail values are known to lose all relative
#: precision; "order" names the lower receiver of the pair that is swapped.
TAIL_DEFECTS = {
    ("type1", "below_floor"),  # 0.0 from alpha^2 ~ 8.9
    ("type1", "order"),  # above type2 from alpha^2 ~ 7.4
    ("type1", "out_of_range"),  # about -1e-16
    ("type2", "below_floor"),  # a third of helstrom at alpha^2 ~ 8.3, eta = 1
    ("type2", "order"),  # above kennedy by about 1e-15
    ("type2", "out_of_range"),  # about -1e-15
}


def known_defect(who: str, kind: str, miss: float = math.inf, eta: float = 1.0, squeezed: bool = False) -> bool:
    """True for the failures the program is known to have today.

    * type1 raises ConvergenceError over much of the low-efficiency domain.
    * Tail values lose all relative precision, each by less than `TAIL_ABS`
      in absolute terms: the `TAIL_DEFECTS`, and kennedy at eta < 1, which
      returns values near -1e-15 at large alpha^2. ``miss`` is by how much
      the check was missed; for "out_of_range" it is finite only for a
      negative value.
    * Round-off at strong squeezing. `random_symplectic` raises ValueError
      ("not symplectic within 1e-10") on about one random circuit in 150,
      as it composes the squeezers. More rarely, on a circuit whose matrix
      has a condition number of `SQUEEZED_COND` or more (``squeezed``), a
      Gaussian identity misses `GAUSS_TOL`, or the layer raises
      NotPureError, SingularMatrixError or ValueError (a conditioned
      covariance just past the uncertainty relation's -1e-10 floor).

    They count in ``ok_frac`` and by kind, not in the result's ``failed``,
    and leave ``correct`` true. Any other failure is a new one: it counts
    in ``failed`` too and sets ``correct`` false.
    """
    if kind == "ConvergenceError":
        return who == "type1"
    if who == "gaussian":
        return kind == "not_symplectic" or squeezed
    if not miss < TAIL_ABS:
        return False
    return (who, kind) in TAIL_DEFECTS or ((who, kind) == ("kennedy", "out_of_range") and eta < 1.0)


def fail(who: str, kind: str, miss: float = math.inf, eta: float = 1.0, squeezed: bool = False) -> tuple[str, str, bool]:
    """A failure as (who, kind, is it a known defect)."""
    return who, kind, known_defect(who, kind, miss, eta, squeezed)


class Tally:
    """Operations attempted, with any failure (``defective``) and with a
    failure outside the known defects (``failed``); failures counted by
    kind, and those outside the known defects (``unknown``)."""

    def __init__(self):
        self.attempted = 0
        self.defective = 0
        self.failed = 0
        self.unknown = 0
        self.kinds: Counter = Counter()

    def add(self, failures: list[tuple[str, str, bool]]) -> None:
        self.attempted += 1
        self.defective += bool(failures)
        new = sum(not known for _, _, known in failures)
        self.failed += bool(new)
        self.unknown += new
        self.kinds.update(f"{who}.{kind}" for who, kind, _ in failures)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.defective += other.defective
        self.failed += other.failed
        self.unknown += other.unknown
        self.kinds.update(other.kinds)


def check_point(values: dict[str, float], eta: float) -> list[tuple[str, str, bool]]:
    """Value checks of one curves point at efficiency ``eta``: every value
    finite and in [0, 1/2], at or above the Helstrom floor, and
    type1 <= type2 <= kennedy, all to `REL_TOL` relative."""
    out = []
    floor = values.get("helstrom")
    for tag, p in values.items():
        if not (math.isfinite(p) and 0.0 <= p <= 0.5):
            out.append(fail(tag, "out_of_range", -p if p < 0.0 else math.inf, eta))
        elif floor is not None and tag != "helstrom" and p < floor * (1.0 - REL_TOL):
            out.append(fail(tag, "below_floor", floor - p, eta))
    chain = [t for t in ORDER if t in values]
    for lo, hi in zip(chain, chain[1:]):
        if values[lo] > values[hi] * (1.0 + REL_TOL):
            out.append(fail(lo, "order", values[lo] - values[hi], eta))
    return out


def curves_point(point: dict, tr, out_dir: Path) -> tuple[list, list]:
    """One (alpha^2, detector) point: every receiver, checked, written and
    read back. Returns (failures, rows)."""
    alpha_sq = point["alpha_sq"]
    ens = BinaryEnsemble(math.sqrt(alpha_sq))
    dets = {
        "ideal": DetectorModel(point["eta"], point["nu"]),
        "coupled": DetectorModel(point["eta"], point["nu"], point["tau"], point["xi"]),
    }
    failures = []
    values = {}
    rows = []
    for tag, fn, which in RECEIVERS:
        det = dets.get(which)
        args = (ens,) if det is None else (ens, det)
        try:
            with tr.span(f"receivers.{tag}"):
                out = fn(*args)
        except Exception as exc:  # a failed receiver must not stop the run
            failures.append(fail(tag, type(exc).__name__))
            continue
        if not isinstance(out, ReceiverResult):
            out = ReceiverResult(tag, out, detector=det or DetectorModel())
        values[tag] = out.p_error
        rows.append(row_from_result(alpha_sq, out))
    failures += check_point(values, point["eta"])
    path = out_dir / "point.csv"
    with tr.span("sweepio.write_csv"):
        write_csv(path, rows, metadata={"tool": "bench curves", **{k: repr(v) for k, v in point.items()}})
    if tr.enabled:
        tr.value("sweepio.bytes_written", path.stat().st_size)
    with tr.span("sweepio.read_csv"):
        _, back = read_csv(path)
    # A fresh file per point: rewriting one file in place makes ext4 flush
    # it on every close, which would time the filesystem, not sweepio.
    path.unlink()
    if back != rows:
        failures.append(fail("sweepio", "roundtrip"))
    return failures, rows


def _circuit_check(m: int, rng: np.random.Generator, tr) -> list:
    """A random m-mode circuit conditioned on homodyne outcomes: the output
    covariance must not depend on the outcome, the branch means must split
    as offset +- signal, and the normal form must map the covariance to I.
    A failure of a strongly squeezed circuit (`SQUEEZED_COND`) is the
    known round-off defect."""
    try:
        op = random_symplectic(m, rng)
    except ValueError as exc:
        return [fail("gaussian", _gaussian_kind(str(exc)))]
    squeezed = bool(np.linalg.cond(op.matrix) >= SQUEEZED_COND)
    k = 1 + int(rng.integers(m - 1))
    meas = GaussianMeasurementSpec.homodyne_stack(
        rng.uniform(0.0, 2.0, k), rng.uniform(0.0, 2 * math.pi, k), rng.normal(size=2 * k)
    )
    ens = BinaryEnsemble(float(rng.uniform(0.1, 1.5)))
    name = f"gaussian.binary_conditional_output.m{m}"
    try:
        with tr.span(name):
            out = binary_conditional_output(ens, op, meas)
        with tr.span(name):
            other = binary_conditional_output(ens, op, GaussianMeasurementSpec(meas.cov, np.zeros(2 * k)))
        with tr.span("gaussian.pure_normal_form"):
            sd = pure_normal_form(out.shared_cov)
    except (SingularMatrixError, NotPureError) as exc:
        return [fail("gaussian", type(exc).__name__, squeezed=squeezed)]
    except ValueError as exc:
        return [fail("gaussian", _gaussian_kind(str(exc)), squeezed=squeezed)]
    gaps = {
        "outcome_dependent_cov": np.abs(out.shared_cov - other.shared_cov).max(),
        "affine_split": max(
            np.abs(out.state_plus.disp - (out.disp_offset + out.disp_signal)).max(),
            np.abs(out.state_minus.disp - (out.disp_offset - out.disp_signal)).max(),
        ),
        "purity": np.abs(sd.matrix @ out.shared_cov @ sd.matrix.T - np.eye(2 * (m - k))).max(),
    }
    return [fail("gaussian", kind, squeezed=squeezed) for kind, g in gaps.items() if not g <= GAUSS_TOL]


def _gaussian_kind(message: str) -> str:
    """Failure kind of a ValueError of the Gaussian layer."""
    return "not_symplectic" if "not symplectic" in message else "ValueError"


def oracle_check(check: dict, tr, out_dir: Path = None) -> tuple[list, list]:
    """One cross-check: closed form against the adaptive number-basis
    oracle, random circuits through the Gaussian algebra, and a 10^6-trial
    simulation against the closed form. Returns (failures, [])."""
    failures = []
    f = check["fock"]
    args = (f["alpha"], f["beta"], f["r"], f["eta"], f["nu"])
    with tr.span("optimize.displaced_squeezed_error"):
        closed = displaced_squeezed_error(*args)
    try:
        with tr.span("fock.receiver_error_fock"):
            brute = receiver_error_fock(*args)
        if not abs(closed - brute) <= FOCK_TOL:
            failures.append(fail("fock", "mismatch"))
    except TruncationError:
        failures.append(fail("fock", "TruncationError"))

    for m in ORACLE_MODES:
        failures += _circuit_check(m, np.random.default_rng([check["circuit_seed"], m]), tr)

    mc = check["mc"]
    ens = BinaryEnsemble(math.sqrt(mc["alpha_sq"]))
    det = DetectorModel(mc["eta"], mc["nu"], mc["tau"], mc["xi"])
    with tr.span("receivers.type2_imperfect"):
        truth = type2_imperfect_error(ens, det)
    with tr.span("montecarlo.simulate_type2"):
        est = simulate_type2(McConfig(ORACLE_MC_TRIALS, mc["seed"], ens, det, truth.gamma_opt))
    p = truth.p_error
    z = (est.p_hat - p) / math.sqrt(p * (1.0 - p) / ORACLE_MC_TRIALS)
    if not abs(z) < MC_Z:
        failures.append(fail("montecarlo", "zscore"))
    return failures, []


#: (operation, input generator, warm-up input, operations per input block,
#: kind of reference work)
WORKLOADS = {
    "curves": (curves_point, curves_points, WARMUP_POINT, CURVES_BLOCK, "scalar"),
    "oracle": (oracle_check, oracle_checks, WARMUP_CHECK, ORACLE_BLOCK, "array"),
}


def closed_loop(op, inputs, block: int, work: str, seconds: float, out_dir: Path, passes) -> tuple[list, float]:
    """One client, next operation only after the last returns, until
    ``seconds`` have passed and the current input block is complete (so
    every run sees whole stratified blocks). ``inputs`` is an endless
    iterator; each block is drawn from it when the block starts.

    ``passes`` is a list of (recorder, tally) pairs. Each input block runs
    once per pass, back to back, so a traced and an untraced pass see the
    same inputs at nearly the same time. Returns, per pass, the CPU seconds
    (user + system, this process) and the wall seconds of each op, and the
    host's speed over the run (`calib.host_speed`), from the reference work
    of kind ``work`` run between ops every `REF_EVERY_S` of op time. CPU
    time leaves out the stretches in which the host takes the processor
    away, which otherwise set the tail.
    """
    times = [([], []) for _ in passes]
    calib.reference_time(time.process_time, work)  # the first pass imports and warms up
    refs = [calib.reference_time(time.process_time, work)]
    since = 0.0
    end = time.perf_counter() + seconds
    first = 0
    while True:
        batch = list(islice(inputs, block))
        for (tr, tally), (cpu, wall) in zip(passes, times):
            for i, item in enumerate(batch, first):
                if since >= REF_EVERY_S:
                    refs.append(calib.reference_time(time.process_time, work))
                    since = 0.0
                tr.op_id = i
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    failures, _ = op(item, tr, out_dir)
                except Exception as exc:  # counted; the run goes on
                    failures = [fail("op", type(exc).__name__)]
                c1, t1 = time.process_time(), time.perf_counter()
                cpu.append(c1 - c0)
                wall.append(t1 - t0)
                since += c1 - c0
                tally.add(failures)
        first += block
        if time.perf_counter() >= end:
            refs.append(calib.reference_time(time.process_time, work))
            return times, calib.host_speed(refs, work)


def probes(seed: int, tr: Tracer, tally: Tally, out_dir: Path) -> None:
    """Fixed calls into every module's public functions, under spans, so a
    traced run of any workload reports every per-layer metric."""
    points = list(islice(curves_points(seed), 30))
    rows = []
    for point in points:
        failures, got = curves_point(point, tr, out_dir)
        tally.add(failures)
        rows += got
    for point in points:
        alpha, eta = math.sqrt(point["alpha_sq"]), point["eta"]
        coupled = DetectorModel(eta, point["nu"], point["tau"], point["xi"])
        with tr.span("optimize.solve_type2_gamma"):
            res = solve_type2_gamma(alpha, eta)
        tr.value("optimize.solve_type2_gamma.iterations", res.iterations)
        with tr.span("optimize.solve_type2_gamma_imperfect"):
            solve_type2_gamma_imperfect(alpha, coupled)
        with tr.span("optimize.displaced_squeezed_error"):
            displaced_squeezed_error(alpha, res.value, 0.1, eta, point["nu"])
        try:
            with tr.span("optimize.solve_type1_params"):
                res = solve_type1_params(alpha, eta)
            tr.value("optimize.solve_type1_params.iterations", res.iterations)
        except ArithmeticError:
            pass  # counted by the receivers pass above
    r_grid, phi_grid = [float(k) for k in range(9)], list(np.linspace(0.0, math.pi, 7))
    for point in points[:3]:
        with tr.span("optimize.verify_gaussian_optimum"):
            verify_gaussian_optimum(BinaryEnsemble(math.sqrt(point["alpha_sq"])), r_grid, phi_grid)
    for _ in range(3):
        with tr.span("svgplot.render_svg"):
            render_svg(rows)

    for dim, reps in ((64, 5), (128, 5), (256, 3), (512, 2)):
        for _ in range(reps):
            with tr.span(f"fock.dim{dim}"):
                receiver_error_fock(1.0, 0.5, 0.3, 0.9, 0.0, dim=dim)
    for check in islice(oracle_checks(seed), 4):
        failures, _ = oracle_check(check, tr)
        tally.add(failures)
    rng = np.random.default_rng(seed)
    for m in (2, 3, 4):
        state = apply_gaussian_unitary(vacuum(m), random_symplectic(m, rng))
        k = 1 + int(rng.integers(m - 1))
        meas = GaussianMeasurementSpec.homodyne_stack(
            rng.uniform(0.0, 2.0, k), rng.uniform(0.0, 2 * math.pi, k), rng.normal(size=2 * k)
        )
        for _ in range(5):
            with tr.span("gaussian.condition_on_partial_measurement"):
                condition_on_partial_measurement(state, m - k, meas)
    grid = np.logspace(-2.0, 0.5, 60)
    template = McConfig(10**5, seed % 2**63, BinaryEnsemble(1.0), DetectorModel(0.9, 1e-3, 0.95, 0.98), 0.0)
    for _ in range(2):
        with tr.span("montecarlo.sweep_montecarlo"):
            sweep_montecarlo(grid, template)

    warm = out_dir / "warm"
    warm.mkdir(exist_ok=True)
    for sub, argv, _ in cli_session(seed):
        argv = [str(warm / a) if a.endswith((".csv", ".svg")) else a for a in argv]
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                with tr.span(f"cli.{sub}.warm"):
                    rc = cli.main(argv)
            tally.add([] if rc == 0 else [fail("cli", f"exit{rc}")])


def layer_metrics(tr: Tracer, tally: Tally) -> dict[str, float]:
    """Per-layer numbers of a traced run, from its spans, values and counts."""
    med = tr.median
    out = {f"cli.{sub}.warm_ms": med(f"cli.{sub}.warm", 1e3) for sub in CLI_SUBS}
    out.update({f"receivers.{tag}.call_us": med(f"receivers.{tag}", 1e6) for tag, _, _ in RECEIVERS})
    failed = Counter()
    wrong = Counter()
    for key, n in tally.kinds.items():
        who, kind = key.split(".", 1)
        if who in ALL_TAGS:
            if kind in ("out_of_range", "below_floor", "order"):
                wrong[kind] += n
            else:
                failed[kind if kind in ("ConvergenceError", "BracketError") else "other"] += n
    for kind in ("ConvergenceError", "BracketError", "other"):
        out[f"receivers.failed.{kind}"] = failed[kind]
    for kind in ("out_of_range", "below_floor", "order"):
        out[f"receivers.wrong.{kind}"] = wrong[kind]

    def vmed(name):
        v = tr.values.get(name)
        return statistics.median(v) if v else 0.0

    for fn in ("solve_type1_params", "solve_type2_gamma"):
        out[f"optimize.{fn}.call_us"] = med(f"optimize.{fn}", 1e6)
        out[f"optimize.{fn}.iterations"] = vmed(f"optimize.{fn}.iterations")
    out["optimize.solve_type2_gamma_imperfect.call_us"] = med("optimize.solve_type2_gamma_imperfect", 1e6)
    out["optimize.displaced_squeezed_error.call_us"] = med("optimize.displaced_squeezed_error", 1e6)
    out["optimize.verify_gaussian_optimum.call_ms"] = med("optimize.verify_gaussian_optimum", 1e3)
    out["sweepio.write_csv_ms"] = med("sweepio.write_csv", 1e3)
    out["sweepio.read_csv_ms"] = med("sweepio.read_csv", 1e3)
    out["sweepio.bytes_written"] = vmed("sweepio.bytes_written")
    out["svgplot.render_svg_ms"] = med("svgplot.render_svg", 1e3)
    out["fock.receiver_error_fock.call_ms"] = med("fock.receiver_error_fock", 1e3)
    for dim in (64, 128, 256, 512):
        out[f"fock.dim{dim}_ms"] = med(f"fock.dim{dim}", 1e3)
    out["fock.truncation_errors"] = tally.kinds["fock.TruncationError"]
    for m in ORACLE_MODES:
        out[f"gaussian.binary_conditional_output_us.m{m}"] = med(f"gaussian.binary_conditional_output.m{m}", 1e6)
    out["gaussian.condition_on_partial_measurement_us"] = med("gaussian.condition_on_partial_measurement", 1e6)
    out["gaussian.pure_normal_form_us"] = med("gaussian.pure_normal_form", 1e6)
    out["gaussian.singular_errors"] = tally.kinds["gaussian.SingularMatrixError"] + tally.kinds["gaussian.NotPureError"]
    out["montecarlo.simulate_type2_ms_per_1e6"] = med("montecarlo.simulate_type2", 1e3 * 1e6 / ORACLE_MC_TRIALS)
    out["montecarlo.sweep_montecarlo_ms"] = med("montecarlo.sweep_montecarlo", 1e3)
    return out


def numeric_env() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "nproc": os.cpu_count(),
    }


def _tally_json(tally: Tally) -> dict:
    return {
        "attempted": tally.attempted,
        "defective": tally.defective,
        "failed": tally.failed,
        "unknown": tally.unknown,
        "kinds": dict(sorted(tally.kinds.items())),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("cmd", choices=("setup", "run", "probes", "fock-dim64", "env"))
    ap.add_argument("--workload", choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    if args.cmd == "env":
        result = numeric_env()
    elif args.cmd == "fock-dim64":
        receiver_error_fock(1.0, 0.5, 0.3, 0.9, 0.0, dim=64)
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            receiver_error_fock(1.0, 0.5, 0.3, 0.9, 0.0, dim=64)
            times.append(time.perf_counter() - t0)
        result = {"ms": statistics.median(times) * 1e3}
    elif args.cmd == "probes":
        tr, tally = Tracer(), Tally()
        probes(args.seed, tr, tally, args.out)
        result = {"layers": layer_metrics(tr, tally), "probe_tally": _tally_json(tally)}
        tr.dump(args.out / "spans-probes.jsonl")
    else:
        op, make_inputs, warmup, block, work = WORKLOADS[args.workload]
        inputs = make_inputs(args.seed)
        op(warmup, NULL, args.out)
        if args.cmd == "setup":
            result = {}
        else:
            tally = Tally()
            if args.trace:
                tr, traced_tally = Tracer(), Tally()
                ((plain, plain_wall), (cpu, wall)), speed = closed_loop(
                    op, inputs, block, work, args.seconds, args.out, [(NULL, tally), (tr, traced_tally)]
                )
                tally.merge(traced_tally)
                probes(args.seed, tr, traced_tally, args.out)
                layers = layer_metrics(tr, traced_tally)
                layers["trace.overhead_pct"] = 100.0 * (sum(cpu) / sum(plain) - 1.0)
                tr.dump(args.out / f"spans-{args.workload}.jsonl")
                cpu, wall = plain + cpu, plain_wall + wall
            else:
                ((cpu, wall),), speed = closed_loop(op, inputs, block, work, args.seconds, args.out, [(NULL, tally)])
                layers = None
            result = {
                "times": cpu,
                "speed": speed,
                "wall": wall,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "env": numeric_env(),
                "layers": layers,
                **_tally_json(tally),
            }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
