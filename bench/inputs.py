"""Seeded inputs of the three workloads.

Everything the program sees is drawn here from the ``--seed`` argument with
``random.Random``, so one seed gives the same inputs on every machine. The
draws are endless and stratified in small blocks (see `curves_points` and
`oracle_checks`), so no input repeats within a run and the mix of cheap and
costly inputs in one run barely depends on the seed; that keeps run-to-run spread
low without leaving any part of the input domain out.

This module is stdlib-only: the orchestrator imports it without numpy.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator

#: Every receiver tag the CLI accepts, in `bpskrx.core.RECEIVER_TAGS` order.
ALL_TAGS = (
    "helstrom",
    "homodyne",
    "homodyne_tau",
    "kennedy",
    "kennedy_imperfect",
    "kennedy_raw",
    "type1",
    "type2",
    "type2_imperfect",
)

#: Detector efficiencies and dark counts of the `curves` workload.
CURVES_ETAS = (1.0, 0.9, 0.5, 0.1, 0.01)
CURVES_NUS = (0.0, 1e-3)
CURVES_ALPHA_SQ = (1e-3, 30.0)

#: Points per stratified block: (eta, nu) pairs times alpha^2 strata.
CURVES_BLOCK = len(CURVES_ETAS) * len(CURVES_NUS) * 8
#: Checks per stratified block.
ORACLE_BLOCK = 16
#: Random circuits per oracle check, one for each mode count.
ORACLE_MODES = (2, 3, 4)
#: Monte Carlo trials per oracle check.
ORACLE_MC_TRIALS = 10**6


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of ``n`` equal strata of [lo, hi], shuffled."""
    width = (hi - lo) / n
    out = [lo + (k + rng.random()) * width for k in range(n)]
    rng.shuffle(out)
    return out


def curves_points(seed: int) -> Iterator[dict]:
    """Endless (alpha^2, detector) pairs: alpha^2 log-uniform on [1e-3, 30],
    eta in {1, 0.9, 0.5, 0.1, 0.01}, nu in {0, 1e-3}; the imperfect-coupling
    tags get tau in [0.8, 1) and xi in [0.9, 1).

    Each block of `CURVES_BLOCK` points gives every (eta, nu) pair one
    alpha^2 from each eighth of the log range, in shuffled order. Blocks are
    drawn lazily, one at a time, so no input repeats within a run however
    long it is, and set-up does not grow with the run.
    """
    rng = random.Random(f"curves:{seed}")
    lo, hi = (math.log(v) for v in CURVES_ALPHA_SQ)
    while True:
        block = [
            {
                "alpha_sq": math.exp(log_a2),
                "eta": eta,
                "nu": nu,
                "tau": rng.uniform(0.8, 0.999),
                "xi": rng.uniform(0.9, 0.999),
            }
            for eta in CURVES_ETAS
            for nu in CURVES_NUS
            for log_a2 in _strata(rng, 8, lo, hi)
        ]
        rng.shuffle(block)
        yield from block


def oracle_checks(seed: int) -> Iterator[dict]:
    """Endless cross-check inputs, drawn lazily like `curves_points`.

    ``fock``: (alpha, beta, r, eta, nu) in the box of the number-basis
    acceptance test (alpha in [0.05, 2], |beta|, |r| <= 0.8). ``circuit_seed``
    seeds the random 2-4-mode circuits. ``mc``: a detector and alpha^2 in
    [0.01, 1.5], where 10^6 trials see enough errors for a z-test.

    (alpha, beta, r) is uniform on the box, stratified by its size
    (alpha + |beta| + 1)^2 exp(2|r|), which sets the oracle's truncation and
    so the cost of a check, steeply: from about 1 ms to 0.7 s. Each block
    of `ORACLE_BLOCK` checks ranks 1024 uniform draws by size and takes the
    middle draw of each 16th, so a block holds one check at each
    1/32, 3/32, ..., 31/32 quantile of the size. A random draw within each
    16th would let the cost of a run's largest checks, and so its tail and
    throughput, swing with the seed.
    """
    rng = random.Random(f"oracle:{seed}")
    per = 1024 // ORACLE_BLOCK
    while True:
        draws = sorted(
            ((rng.uniform(0.05, 2.0), rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)) for _ in range(ORACLE_BLOCK * per)),
            key=lambda p: (p[0] + abs(p[1]) + 1.0) ** 2 * math.exp(2.0 * abs(p[2])),
        )
        block_draws = [draws[i + per // 2] for i in range(0, len(draws), per)]
        rng.shuffle(block_draws)
        for alpha, beta, r in block_draws:
            yield {
                "fock": {
                    "alpha": alpha,
                    "beta": beta,
                    "r": r,
                    "eta": rng.choice((0.5, 0.9, 1.0)),
                    "nu": rng.choice((0.0, 1e-3)),
                },
                "circuit_seed": rng.getrandbits(63),
                "mc": {
                    "alpha_sq": math.exp(rng.uniform(math.log(0.01), math.log(1.5))),
                    "eta": rng.uniform(0.5, 1.0),
                    "nu": rng.choice((0.0, 1e-3)),
                    "tau": rng.choice((1.0, rng.uniform(0.8, 0.999))),
                    "xi": rng.choice((1.0, rng.uniform(0.9, 0.999))),
                    "seed": rng.getrandbits(63),
                },
            }


def cli_session(seed: int) -> list[tuple[str, list[str], list[str]]]:
    """One interactive session: (name, argv after ``-m bpskrx.cli``, output
    files). Paths are relative to the session directory; ``plot`` reads the
    CSVs the earlier commands wrote.

    eta is drawn from [0.5, 1], where every receiver solve converges, so a
    session's exit codes measure the CLI and not the type1 solver defects
    that the `curves` workload counts.
    """
    rng = random.Random(f"cli:{seed}")
    a2_min = repr(math.exp(rng.uniform(math.log(1e-3), math.log(1e-2))))
    a2_max = repr(rng.uniform(5.0, 10.0))
    eta = repr(rng.uniform(0.5, 1.0))
    nu = repr(rng.uniform(1e-4, 1e-3))
    grid = ["--alpha-sq-min", a2_min, "--alpha-sq-max", a2_max]
    return [
        ("params", ["params", "--alpha-sq", repr(math.exp(rng.uniform(math.log(0.01), math.log(5.0)))), "--eta", eta], []),
        ("sweep60", ["sweep", *grid, "--points", "60", "--out", "sweep60.csv"], ["sweep60.csv"]),
        (
            "sweep600",
            ["sweep", *grid, "--points", "600", "--receivers", ",".join(ALL_TAGS),
             "--eta", eta, "--nu", nu, "--out", "sweep600.csv"],
            ["sweep600.csv"],
        ),
        (
            "verify_gaussian",
            ["verify-gaussian", "--alpha-sq", repr(math.exp(rng.uniform(math.log(0.05), math.log(2.0)))),
             "--out", "landscape.csv"],
            ["landscape.csv"],
        ),
        (
            "montecarlo",
            ["montecarlo", *grid, "--points", "60", "--trials", "100000", "--eta", eta, "--nu", nu,
             "--tau", repr(rng.uniform(0.8, 0.999)), "--xi", repr(rng.uniform(0.9, 0.999)),
             "--seed", str(rng.getrandbits(63)), "--out", "mc.csv"],
            ["mc.csv"],
        ),
        ("plot", ["plot", "sweep60.csv", "sweep600.csv", "mc.csv", "--out", "figure.svg"], ["figure.svg"]),
    ]


#: Subcommand names of a session, in order.
CLI_SUBS = ("params", "sweep60", "sweep600", "verify_gaussian", "montecarlo", "plot")
