"""Acceptance gate: one test per headline claim, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdicts. Every test both prints its verdict and asserts it, so the suite
fails loudly if any claim stops holding. Wall-clock budgets are part of the
claims and are asserted too.
"""

import math
import time

import numpy as np
from scipy.special import erfc

from bpskrx.core import BinaryEnsemble, DetectorModel
from bpskrx.fock import receiver_error_fock
from bpskrx.gaussian import (
    GaussianMeasurementSpec,
    binary_conditional_output,
    measurement_cov,
    pure_normal_form,
    random_symplectic,
)
from bpskrx.montecarlo import McConfig, simulate_type2
from bpskrx.optimize import (
    _brentq,
    displaced_squeezed_error,
    solve_type1_params,
    solve_type2_gamma,
    solve_type2_gamma_imperfect,
    verify_gaussian_optimum,
)
from bpskrx.receivers import (
    helstrom,
    homodyne_limit,
    kennedy_error,
    type1_error,
    type2_error,
    type2_imperfect_error,
)

FIG_DETECTOR = DetectorModel(eta=0.9, nu=1e-3, tau=0.99, xi=0.995)

#: Squeezing range the closed form is checked against the number basis over.
R_BOX = 1.5


def _verdict(label: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_homodyne_tail_crossing():
    """The homodyne curve hits 1e-9 between alpha^2 = 7 and 10."""
    t0 = time.perf_counter()
    f = lambda a_sq: homodyne_limit(BinaryEnsemble(math.sqrt(a_sq))) - 1e-9
    lo, hi = 7.0, 10.0
    assert f(lo) > 0 > f(hi)
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    dt = time.perf_counter() - t0
    ok = 7.0 < root < 10.0 and abs(root - 8.9934222473188547) < 0.1 and dt < 1.0
    assert _verdict(
        "homodyne-1e-9-crossing", ok, f"alpha^2 = {root:.5f}, {dt * 1e3:.0f} ms"
    )


def test_kennedy_homodyne_crossover():
    """exp(-4 a^2)/2 meets erfc(sqrt(2) a)/2 inside alpha^2 in (0.35, 0.45)."""
    t0 = time.perf_counter()
    f = lambda a_sq: 0.5 * math.exp(-4.0 * a_sq) - 0.5 * erfc(
        math.sqrt(2.0 * a_sq)
    )
    root, _ = _brentq(f, 0.35, 0.45)
    dt = time.perf_counter() - t0
    ok = 0.35 < root < 0.45 and abs(root - 0.38409927839541491) < 1e-9 and dt < 1.0
    assert _verdict(
        "kennedy-homodyne-crossover", ok, f"alpha^2 = {root:.12f}, {dt * 1e3:.0f} ms"
    )


def test_receiver_ordering_on_full_grid():
    """helstrom <= type1 <= type2 <= kennedy and type2 < homodyne, all 60
    points of the standard grid."""
    t0 = time.perf_counter()
    slack = 1e-15
    worst_gap = math.inf
    ok = True
    for alpha_sq in np.logspace(-2.0, 1.0, 60):
        ens = BinaryEnsemble(math.sqrt(alpha_sq))
        h = helstrom(ens)
        t1 = type1_error(ens).p_error
        t2 = type2_error(ens).p_error
        k = kennedy_error(ens).p_error
        hom = homodyne_limit(ens)
        ok = ok and h <= t1 + slack and t1 <= t2 + slack and t2 <= k + slack and t2 < hom
        worst_gap = min(worst_gap, hom - t2)
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    assert _verdict(
        "receiver-ordering-60pt", ok, f"min(homodyne - type2) = {worst_gap:.3e}, {dt:.2f} s"
    )


def test_optimal_displacement_limits():
    """gamma_opt -> 1/sqrt(2) as alpha -> 0 and -> alpha for large alpha."""
    t0 = time.perf_counter()
    small = solve_type2_gamma(1e-4, 1.0).value
    large = solve_type2_gamma(2.0, 1.0).value
    dt = time.perf_counter() - t0
    ok = (
        abs(small - 1.0 / math.sqrt(2.0)) < 1e-3
        and abs(large - 2.0) < 1e-6
        and dt < 0.1
    )
    assert _verdict(
        "displacement-limits",
        ok,
        f"gamma(1e-4) - 2^-0.5 = {small - 2 ** -0.5:.2e}, "
        f"gamma(2) - 2 = {large - 2.0:.2e}, {dt * 1e3:.1f} ms",
    )


def test_closed_form_against_number_basis():
    """50 random parameter tuples (alpha <= 3, |r| <= R_BOX) plus the
    optimized operating points agree with the brute-force number-basis
    evaluation to 1e-7."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(50):
        alpha = float(rng.uniform(0.05, 3.0))
        beta = float(rng.uniform(-0.8, 0.8))
        r = float(rng.uniform(-R_BOX, R_BOX))
        eta = float(rng.choice([0.5, 0.9, 1.0]))
        nu = float(rng.choice([0.0, 1e-3]))
        diff = abs(
            displaced_squeezed_error(alpha, beta, r, eta, nu)
            - receiver_error_fock(alpha, beta, r, eta, nu)
        )
        worst = max(worst, diff)
    for alpha in (0.25, 0.5, 1.0):
        ens = BinaryEnsemble(alpha)
        t1 = type1_error(ens)
        worst = max(
            worst, abs(t1.p_error - receiver_error_fock(alpha, t1.beta_opt, t1.r_opt))
        )
        t2 = type2_error(ens)
        worst = max(
            worst, abs(t2.p_error - receiver_error_fock(alpha, t2.gamma_opt, 0.0))
        )
    dt = time.perf_counter() - t0
    ok = worst < 1e-7 and dt < 60.0
    assert _verdict(
        "closed-form-vs-number-basis", ok, f"worst |diff| = {worst:.3e}, {dt:.1f} s"
    )


def test_gaussian_landscape_minimum():
    """The scanned Gaussian-measurement minimum sits at maximal r, phi = 0
    and touches the homodyne limit."""
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for alpha in (0.25, 1.0):
        ens = BinaryEnsemble(alpha)
        _, summary = verify_gaussian_optimum(
            ens, [float(k) for k in range(9)], np.linspace(0.0, math.pi, 7)
        )
        gap = abs(summary.argmin.p_error - homodyne_limit(ens))
        worst = max(worst, gap)
        ok = ok and summary.optimal and gap < 1e-6
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    assert _verdict(
        "gaussian-landscape-minimum", ok, f"worst |P* - homodyne| = {worst:.3e}, {dt * 1e3:.0f} ms"
    )


def test_conditional_state_population():
    """200 random circuits: conditional covariance ignores the outcome, the
    two branch means split affinely, and the output stays pure to 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst_cov = worst_affine = worst_rt = 0.0
    for trial in range(200):
        n = 2 + trial % 3
        k = 1 + int(rng.integers(n - 1)) if n > 1 else 1
        op = random_symplectic(n, rng)
        meas = GaussianMeasurementSpec.homodyne_stack(
            rng.uniform(0.0, 2.0, k), rng.uniform(0.0, 2 * math.pi, k), rng.normal(size=2 * k)
        )
        ens = BinaryEnsemble(float(rng.uniform(0.1, 1.5)))
        out = binary_conditional_output(ens, op, meas)
        other = binary_conditional_output(
            ens, op, GaussianMeasurementSpec(meas.cov, np.zeros(2 * k))
        )
        worst_cov = max(worst_cov, float(np.abs(out.shared_cov - other.shared_cov).max()))
        worst_affine = max(
            worst_affine,
            float(np.abs(out.state_plus.disp - (out.disp_offset + out.disp_signal)).max()),
            float(np.abs(out.state_minus.disp - (out.disp_offset - out.disp_signal)).max()),
        )
        sd = pure_normal_form(out.shared_cov)
        worst_rt = max(
            worst_rt,
            float(np.abs(sd.matrix @ out.shared_cov @ sd.matrix.T - np.eye(2 * (n - k))).max()),
        )
    dt = time.perf_counter() - t0
    worst = max(worst_cov, worst_affine, worst_rt)
    ok = worst < 1e-9 and dt < 30.0
    assert _verdict(
        "conditional-state-population",
        ok,
        f"cov {worst_cov:.1e}, affine {worst_affine:.1e}, round-trip {worst_rt:.1e}, {dt:.1f} s",
    )


def test_imperfect_receiver_and_simulation():
    """With a realistic detector the optimized receiver beats the fixed one
    at every grid point, and a million-shot simulation lands within four
    standard errors of the formula."""
    t0 = time.perf_counter()
    ok = True
    min_gap = math.inf
    for alpha_sq in np.logspace(-2.0, 1.0, 60):
        ens = BinaryEnsemble(math.sqrt(alpha_sq))
        gap = (
            kennedy_error(ens, FIG_DETECTOR).p_error
            - type2_imperfect_error(ens, FIG_DETECTOR).p_error
        )
        min_gap = min(min_gap, gap)
        ok = ok and gap > 0.0
    ens = BinaryEnsemble(math.sqrt(0.5))
    truth = type2_imperfect_error(ens, FIG_DETECTOR).p_error
    gamma = solve_type2_gamma_imperfect(ens.alpha, FIG_DETECTOR).value
    est = simulate_type2(McConfig(10**6, 20260814, ens, FIG_DETECTOR, gamma))
    z = (est.p_hat - truth) / est.std_err
    dt = time.perf_counter() - t0
    ok = ok and abs(z) < 4.0 and dt < 30.0
    assert _verdict(
        "imperfect-receiver-and-simulation",
        ok,
        f"min gap = {min_gap:.3e}, simulation z = {z:+.2f}, {dt:.1f} s",
    )


def test_stationarity_of_joint_optimum():
    """Central finite differences of the error vanish at the solved
    (beta, r) for every tabulated (alpha, eta)."""
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0):
        for eta in (0.9, 1.0):
            beta, r = solve_type1_params(alpha, eta).value
            gb = (
                displaced_squeezed_error(alpha, beta + h, r, eta)
                - displaced_squeezed_error(alpha, beta - h, r, eta)
            ) / (2 * h)
            gr = (
                displaced_squeezed_error(alpha, beta, r + h, eta)
                - displaced_squeezed_error(alpha, beta, r - h, eta)
            ) / (2 * h)
            worst = max(worst, abs(gb), abs(gr))
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 5.0
    assert _verdict(
        "joint-optimum-stationarity", ok, f"worst |gradient| = {worst:.3e}, {dt * 1e3:.0f} ms"
    )
