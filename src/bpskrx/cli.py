"""Command-line front end.

Subcommands:

* ``sweep``           analytic error-probability curves over an alpha^2 grid -> CSV
* ``params``          optimal displacement/squeezing at one amplitude -> stdout
* ``verify-gaussian`` scan the Gaussian-measurement landscape, check the optimum
* ``montecarlo``      click-level simulation sweep -> CSV (provenance=montecarlo)
* ``plot``            render sweep CSVs as a deterministic SVG chart

Exit codes: 0 success, 1 landscape verification failed, 2 argument error
(an unwritable ``--out`` included) or partial sweep (some points omitted),
3 optimizer failure, 4 input format error, 141 standard output closed
before the output was written (the shell's SIGPIPE status; nothing on stderr).
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys

from .core import (
    BinaryEnsemble,
    ConvergenceError,
    CsvFormatError,
    DetectorModel,
    ReceiverResult,
    UnsupportedConfigurationError,
)
from .optimize import solve_type1_params, solve_type2_gamma, verify_gaussian_optimum
from .receivers import RECEIVERS, coupled_tag
from .sweepio import read_csv, row_from_result, write_csv, write_text
from .svgplot import render_svg

__all__ = ["main"]

_SOLVER_FAILURES = (ConvergenceError, UnsupportedConfigurationError)


def _parse_receivers(text: str) -> list[str]:
    tags = []
    for part in text.split(","):
        tag = part.strip().replace("-", "_")
        if not tag:
            continue
        if tag not in RECEIVERS:
            raise argparse.ArgumentTypeError(
                f"unknown receiver {part.strip()!r}; choose from {', '.join(RECEIVERS)}"
            )
        if tag in tags:
            raise argparse.ArgumentTypeError(f"receiver {tag!r} given twice")
        tags.append(tag)
    if not tags:
        raise argparse.ArgumentTypeError("no receiver given")
    return tags


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``np.linspace(lo, hi, n)`` on floats, bit for bit: point i is ``i *
    step + lo`` with ``step = (hi - lo) / (n - 1)`` (``i / (n - 1) * (hi -
    lo)`` if step underflows to 0), the last point is ``hi``, and one point
    is ``0.0 * (hi - lo) + lo``."""
    if n < 0:
        raise ValueError(f"Number of samples, {n}, must be non-negative.")
    delta, div = hi - lo, n - 1
    if div <= 0:
        return [0.0 * delta + lo] * n
    step = delta / div
    values = [(i / div * delta if step == 0.0 else i * step) + lo for i in range(n)]
    values[-1] = hi
    return values


def _parse_grid(text: str) -> list[float]:
    """Either ``lo:hi:n`` (inclusive linear spacing) or a comma list."""
    try:
        if ":" in text:
            lo_s, hi_s, n_s = text.split(":")
            values = _linspace(float(lo_s), float(hi_s), int(n_s))
        else:
            values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{text!r} is neither lo:hi:n nor a comma list of numbers ({exc})"
        ) from None
    if not values or not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError("grid needs at least one point, all finite")
    return values


def _usage(build, **kwargs):
    """Build a model from flag values; a ValueError from its validation
    becomes an argument error."""
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _save(path, write, *args) -> int:
    """Run ``write(path, *args)``; a path that cannot be written is an
    argument error: one line on stderr and exit 2."""
    try:
        write(path, *args)
    except OSError as exc:
        print(f"error: {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def _out_dir_error(path) -> int:
    """2, after the message of `_save`, where the directory of ``--out`` is
    missing or not writable, else 0: checked before any work, creating
    nothing, so a run that fails later leaves no file behind."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK):
        return 0
    code = errno.EACCES if os.path.isdir(parent) else (
        errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)
    print(f"error: {path}: {os.strerror(code)}", file=sys.stderr)
    return 2


def _alpha_grid(args) -> list[float]:
    if not 0.0 <= args.alpha_sq_min < args.alpha_sq_max < math.inf:
        raise argparse.ArgumentTypeError(
            "need 0 <= --alpha-sq-min < --alpha-sq-max, both finite"
        )
    if args.points < 2:
        raise argparse.ArgumentTypeError("--points must be at least 2")
    if args.scale == "linear":
        return _linspace(args.alpha_sq_min, args.alpha_sq_max, args.points)
    if args.alpha_sq_min == 0.0:
        raise argparse.ArgumentTypeError("--scale log needs --alpha-sq-min > 0")
    lo, hi = math.log10(args.alpha_sq_min), math.log10(args.alpha_sq_max)
    try:
        grid = [10.0 ** x for x in _linspace(lo, hi, args.points)]
    except OverflowError:
        raise argparse.ArgumentTypeError("--alpha-sq-max is too large for --scale log") from None
    # 10 ** log10(bound) can miss the bound by an ulp; the ends are the bounds
    grid[0], grid[-1] = args.alpha_sq_min, args.alpha_sq_max
    return grid


def _detector(args) -> DetectorModel:
    return _usage(DetectorModel, eta=args.eta, nu=args.nu, tau=args.tau, xi=args.xi)


def _detector_metadata(det: DetectorModel) -> dict:
    return {name: repr(getattr(det, name)) for name in ("eta", "nu", "tau", "xi")}


def _add_detector_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", type=float, default=1.0, help="quantum efficiency")
    p.add_argument("--nu", type=float, default=0.0, help="mean dark counts per pulse")
    p.add_argument("--tau", type=float, default=1.0, help="tap transmittance")
    p.add_argument("--xi", type=float, default=1.0, help="mode-match factor")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha-sq-min", type=float, default=1e-2)
    p.add_argument("--alpha-sq-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--scale", choices=("log", "linear"), default="log")


def _cmd_sweep(args) -> int:
    grid = _alpha_grid(args)
    det = _detector(args)
    rows = []
    omitted = 0
    for alpha_sq in grid:
        ensemble = BinaryEnsemble(math.sqrt(alpha_sq))
        for tag in args.receivers:
            try:
                result = RECEIVERS[tag].evaluate(ensemble, det)
            except _SOLVER_FAILURES as exc:
                print(
                    f"warning: {tag} at alpha_sq={alpha_sq!r}: {exc}", file=sys.stderr
                )
                omitted += 1
                continue
            rows.append(row_from_result(alpha_sq, result))
    metadata = {
        "tool": "bpskrx sweep",
        "receivers": ",".join(args.receivers),
        **_detector_metadata(det),
        "scale": args.scale,
        "points": args.points,
    }
    return _save(args.out, write_csv, rows, metadata) or (2 if omitted else 0)


def _cmd_params(args) -> int:
    if not 0.0 < args.alpha_sq < math.inf:
        raise argparse.ArgumentTypeError(f"--alpha-sq must be positive, got {args.alpha_sq!r}")
    _usage(DetectorModel, eta=args.eta)
    alpha = math.sqrt(args.alpha_sq)
    try:
        gamma = solve_type2_gamma(alpha, args.eta)
        pair = solve_type1_params(alpha, args.eta)
    except _SOLVER_FAILURES as exc:
        print(f"error: optimizer failed: {exc}", file=sys.stderr)
        return 3
    beta, r = pair.value
    print(f"alpha_sq={args.alpha_sq!r} eta={args.eta!r}")
    print(f"gamma_opt={gamma.value!r} residual={gamma.residual:.3e}")
    print(f"beta_opt={beta!r} r_opt={r!r} residual={pair.residual:.3e}")
    return 0


def _cmd_verify_gaussian(args) -> int:
    if not 0.0 <= args.alpha_sq < math.inf:
        raise argparse.ArgumentTypeError(f"--alpha-sq must be >= 0, got {args.alpha_sq!r}")
    ensemble = BinaryEnsemble(math.sqrt(args.alpha_sq))
    points, summary = verify_gaussian_optimum(ensemble, args.r_grid, args.phi_grid)
    if args.out:
        lines = [
            "# tool=bpskrx verify-gaussian",
            f"# alpha_sq={args.alpha_sq!r}",
            "r,phi,e,p_error",
        ]
        lines += [
            f"{p.r!r},{p.phi!r},{p.e!r},{p.p_error!r}" for p in points
        ]
        if _save(args.out, write_text, "\n".join(lines) + "\n"):
            return 2
    verdict = "DEGENERATE" if summary.degenerate else ("PASS" if summary.optimal else "FAIL")
    print(f"argmin at (r_max, phi=0): {verdict} ({summary.note})")
    print(
        f"argmin: r={summary.argmin.r!r} phi={summary.argmin.phi!r} "
        f"p_error={summary.argmin.p_error!r}"
    )
    return 0 if (summary.optimal or summary.degenerate) else 1


def _cmd_montecarlo(args) -> int:
    from .montecarlo import RNG_ID, McConfig, sweep_montecarlo

    grid = _alpha_grid(args)
    det = _detector(args)
    template = _usage(
        McConfig,
        trials=args.trials,
        seed=args.seed,
        ensemble=BinaryEnsemble(1.0),
        detector=det,
        gamma=0.0,
    )
    try:
        estimates = sweep_montecarlo(grid, template)
    except _SOLVER_FAILURES as exc:
        print(f"error: optimizer failed: {exc}", file=sys.stderr)
        return 3
    tag = coupled_tag("type2", det)
    rows = []
    for alpha_sq, est in zip(grid, estimates):
        result = ReceiverResult(
            tag, est.p_hat, provenance="montecarlo", gamma_opt=est.gamma, detector=det
        )
        rows.append(row_from_result(alpha_sq, result, std_err=est.std_err))
    metadata = {
        "tool": "bpskrx montecarlo",
        "seed": args.seed,
        "trials": args.trials,
        "rng_id": RNG_ID,
        **_detector_metadata(det),
    }
    return _save(args.out, write_csv, rows, metadata)


def _cmd_plot(args) -> int:
    rows = []
    for path in args.csv:
        try:
            _, file_rows = read_csv(path)
        except (CsvFormatError, OSError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 4
        rows.extend(file_rows)
    return _save(args.out, write_text, render_svg(rows))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpskrx",
        description="Binary coherent-state receivers: sweeps, optima, simulation, plots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="analytic error curves over an alpha^2 grid")
    _add_grid_flags(p)
    _add_detector_flags(p)
    p.add_argument(
        "--receivers",
        type=_parse_receivers,
        default=["helstrom", "homodyne", "kennedy", "type1", "type2"],
        help="comma-separated receiver tags (hyphens and underscores both accepted)",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep, usage_error=p.error)

    p = sub.add_parser("params", help="optimal receiver parameters at one amplitude")
    p.add_argument("--alpha-sq", type=float, required=True)
    p.add_argument("--eta", type=float, default=1.0)
    p.set_defaults(func=_cmd_params, usage_error=p.error)

    p = sub.add_parser(
        "verify-gaussian", help="scan Gaussian measurements, verify homodyne wins"
    )
    p.add_argument("--alpha-sq", type=float, required=True)
    p.add_argument(
        "--r-grid", type=_parse_grid, default=[float(k) for k in range(9)],
        help="comma list or lo:hi:n",
    )
    p.add_argument(
        "--phi-grid", type=_parse_grid, default=_linspace(0.0, math.pi, 7),
        help="comma list or lo:hi:n",
    )
    p.add_argument("--out", default=None, help="optional landscape CSV path")
    p.set_defaults(func=_cmd_verify_gaussian, usage_error=p.error)

    p = sub.add_parser("montecarlo", help="click-level simulation sweep")
    _add_grid_flags(p)
    _add_detector_flags(p)
    p.add_argument("--seed", type=int, default=20260814)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_montecarlo, usage_error=p.error)

    p = sub.add_parser("plot", help="render sweep CSVs to SVG")
    p.add_argument("csv", nargs="+", help="input CSV paths")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_plot, usage_error=p.error)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None) and _out_dir_error(args.out):
            return 2
        status = args.func(args)
        if sys.stdout is not None:  # None where fd 1 was closed (``>&-``)
            sys.stdout.flush()  # a closed pipe fails here, not in the exit flush
        return status
    except argparse.ArgumentTypeError as exc:
        args.usage_error(str(exc))  # exits 2 with the subcommand's usage line
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
