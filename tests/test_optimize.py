"""Root solves and the two receiver parameter optimizations."""

import ctypes
import functools
import glob
import hashlib
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from bpskrx import optimize
from bpskrx.core import (
    BinaryEnsemble,
    BracketError,
    ConvergenceError,
    DetectorModel,
    UnsupportedConfigurationError,
)
from bpskrx.fock import receiver_error_fock
from bpskrx.optimize import (
    R_BOX,
    _beta_given_r,
    _fma,
    _maxabs,
    _newton_2d,
    _solve2,
    bayes_error_from_contrast,
    contrast_factor,
    displaced_squeezed_error,
    find_root_bracketed,
    solve_type1_params,
    solve_type2_gamma,
    solve_type2_gamma_imperfect,
    type1_residuals,
    verify_gaussian_optimum,
)

# jointly optimal (beta, r) for the squeeze-displace receiver, frozen from
# an independent run of the solver cross-checked against the number-basis
# oracle (local 7x7 grid argmin) and finite-difference gradients
TYPE1_OPTIMA = {
    (0.25, 1.0): (0.6354597684899026, 0.3191843697306846, 0.27891305125770405),
    (0.5, 1.0): (0.708909526414441, 0.24288679719072476, 0.11944222326866605),
    (1.0, 1.0): (1.0267225508056843, 0.0540538444539208, 0.007683184736111459),
    (0.25, 0.9): (0.6496953388405817, 0.3544916217871127, 0.28585065181319996),
    (0.5, 0.9): (0.7239476133194283, 0.27512382855543777, 0.128823367720035),
    (1.0, 0.9): (1.0359961916796474, 0.07410882342424135, 0.010789869570028698),
}


def test_find_root_linear():
    res = find_root_bracketed(lambda x: x - 1.0, 0.0, 3.0)
    assert res.value == pytest.approx(1.0, abs=1e-14)
    assert res.residual < 1e-12


def test_find_root_tanh():
    res = find_root_bracketed(lambda x: math.tanh(x) - 0.5, 0.0, 2.0)
    assert abs(res.value - 0.5493061443340549) < 1e-13


def test_find_root_endpoint_zero():
    res = find_root_bracketed(lambda x: x * x, 0.0, 1.0)
    assert res.value == 0.0 and res.iterations == 0


def test_find_root_expands_past_initial_bracket():
    # root at 40, initial bracket [0, 1]; doubling must reach it
    res = find_root_bracketed(lambda x: x - 40.0, 0.0, 1.0)
    assert res.value == pytest.approx(40.0, abs=1e-10)


def test_find_root_no_sign_change():
    with pytest.raises(BracketError):
        find_root_bracketed(lambda x: x * x + 1.0, 0.0, 1.0)


def test_type2_gamma_frozen():
    assert abs(solve_type2_gamma(0.5).value - 0.7717023192091041) < 1e-14
    assert abs(solve_type2_gamma(1.0).value - 1.0326690694873524) < 1e-14


def test_type2_gamma_limits():
    """gamma -> 1/sqrt(2 eta) as alpha -> 0 and gamma -> alpha as alpha grows."""
    assert abs(solve_type2_gamma(1e-4, 1.0).value - 1.0 / math.sqrt(2.0)) < 1e-3
    assert abs(solve_type2_gamma(0.0, 1.0).value - 1.0 / math.sqrt(2.0)) < 1e-15
    assert abs(solve_type2_gamma(2.0, 1.0).value - 2.0) < 1e-6
    assert abs(solve_type2_gamma(0.0, 0.5).value - 1.0) < 1e-15


def test_type2_gamma_decreases_with_eta():
    last = math.inf
    for eta in (0.3, 0.5, 0.7, 0.9, 1.0):
        g = solve_type2_gamma(0.4, eta).value
        assert g < last
        last = g


def test_type2_gamma_deterministic():
    a = solve_type2_gamma(0.6180339887, 0.87)
    b = solve_type2_gamma(0.6180339887, 0.87)
    assert a.value == b.value and a.residual == b.residual


def test_type2_imperfect_reduces_bitwise_at_ideal_coupling():
    det = DetectorModel(eta=0.9, nu=1e-3)
    for alpha in (0.1, 0.5, 1.3):
        assert solve_type2_gamma_imperfect(alpha, det).value == solve_type2_gamma(alpha, 0.9).value


def test_type2_imperfect_frozen():
    det = DetectorModel(eta=0.9, nu=1e-3, tau=0.99, xi=0.995)
    got = solve_type2_gamma_imperfect(math.sqrt(0.5), det).value
    assert abs(got - 0.8725512174767196) < 1e-14


def test_type2_imperfect_zero_alpha_limit():
    det = DetectorModel(eta=0.8, tau=0.81)
    want = math.sqrt(math.sqrt(0.81) / (2 * 0.8))
    assert abs(solve_type2_gamma_imperfect(0.0, det).value - want) < 1e-12


def test_type2_imperfect_rejects_dead_detector():
    with pytest.raises(UnsupportedConfigurationError):
        solve_type2_gamma_imperfect(0.5, DetectorModel(eta=0.0))


def test_type1_frozen_optima():
    for (alpha, eta), (beta, r, p) in TYPE1_OPTIMA.items():
        res = solve_type1_params(alpha, eta)
        b, rr = res.value
        assert abs(b - beta) < 1e-9, (alpha, eta)
        assert abs(rr - r) < 1e-9, (alpha, eta)
        assert abs(displaced_squeezed_error(alpha, b, rr, eta) - p) < 1e-12
        assert res.residual < 1e-10


def test_type1_damped_newton_step():
    """At eta = 0.1 the starts r = -0.3 and r = 0 each accept one halved
    Newton step; all three starts reach the optimum in 7 iterations."""
    res = solve_type1_params(math.sqrt(0.5), 0.1)
    beta, r = res.value
    assert abs(beta - 0.9426332700401004) < 1e-9
    assert abs(r - 1.1954551386485819) < 1e-9
    assert res.iterations == 21


@pytest.mark.parametrize(
    "call, exc, match",
    [
        (lambda: solve_type1_params(0.5, 0.0), UnsupportedConfigurationError, "eta must be positive"),
        (lambda: solve_type1_params(0.5, -0.1), UnsupportedConfigurationError, "eta must be positive"),
        (lambda: solve_type1_params(0.0, 1.0), ValueError, "alpha must be > 0"),
        (lambda: solve_type1_params(-0.5, 1.0), ValueError, "alpha must be > 0"),
        (lambda: solve_type2_gamma(-0.5), ValueError, "alpha must be >= 0"),
        (lambda: verify_gaussian_optimum(BinaryEnsemble(0.5), [], [0.0]), ValueError, "nonempty"),
        (lambda: verify_gaussian_optimum(BinaryEnsemble(0.5), [1.0], []), ValueError, "nonempty"),
    ],
    ids=["type1-eta0", "type1-eta-neg", "type1-alpha0", "type1-alpha-neg", "type2-alpha-neg",
         "landscape-no-r", "landscape-no-phi"],
)
def test_solver_input_guards(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


def test_type1_residuals_vanish_at_optima():
    worst = 0.0
    for (alpha, eta), (beta, r, _) in TYPE1_OPTIMA.items():
        r1, r2 = type1_residuals(alpha, beta, r, eta)
        worst = max(worst, abs(r1), abs(r2))
    print(f"stationarity residuals at frozen optima: {worst:.3e}")
    assert worst < 1e-9


def test_type1_residuals_match_finite_difference_sign():
    """Perturbing off the optimum moves the residuals off zero in the
    direction finite differences of the error predict."""
    alpha, eta = 0.5, 1.0
    beta, r, _ = TYPE1_OPTIMA[(alpha, eta)]
    h = 1e-5
    for db, dr in ((h, 0.0), (0.0, h)):
        p_plus = displaced_squeezed_error(alpha, beta + db, r + dr, eta)
        p_minus = displaced_squeezed_error(alpha, beta - db, r - dr, eta)
        # optimum: symmetric difference quotient is ~h^2, not ~h
        assert abs(p_plus - p_minus) / (2 * h) < 1e-6


def test_type1_gradient_flat_at_solution():
    for alpha in (0.25, 0.5, 1.0):
        for eta in (0.9, 1.0):
            beta, r = solve_type1_params(alpha, eta).value
            h = 1e-5
            gb = (
                displaced_squeezed_error(alpha, beta + h, r, eta)
                - displaced_squeezed_error(alpha, beta - h, r, eta)
            ) / (2 * h)
            gr = (
                displaced_squeezed_error(alpha, beta, r + h, eta)
                - displaced_squeezed_error(alpha, beta, r - h, eta)
            ) / (2 * h)
            assert max(abs(gb), abs(gr)) < 1e-6


def test_type1_deterministic():
    a = solve_type1_params(0.7342, 0.93)
    b = solve_type1_params(0.7342, 0.93)
    assert a.value == b.value


def test_type1_is_local_minimum_of_fock_oracle():
    """A 7x7 grid of brute-force evaluations around the solved point puts
    the smallest value at the center."""
    alpha = 0.5
    beta, r = solve_type1_params(alpha).value
    spacing = 0.01
    vals = np.empty((7, 7))
    for i in range(7):
        for j in range(7):
            vals[i, j] = receiver_error_fock(
                alpha, beta + (i - 3) * spacing, r + (j - 3) * spacing, dim=160
            )
    assert np.unravel_index(np.argmin(vals), vals.shape) == (3, 3)


def test_landscape_optimum_found():
    ens = BinaryEnsemble(0.5)
    points, summary = verify_gaussian_optimum(ens, np.linspace(0, 8, 9), np.linspace(0, math.pi, 7))
    assert summary.optimal and not summary.degenerate
    assert summary.argmin.r == 8.0 and summary.argmin.phi == 0.0
    assert len(points) == 63
    for p in points:
        assert -1e-12 <= p.e <= 1.0 + 1e-12


def test_landscape_error_decreases_along_phi_zero():
    ens = BinaryEnsemble(0.8)
    points, _ = verify_gaussian_optimum(ens, np.linspace(0, 6, 13), [0.0])
    ps = [p.p_error for p in points]
    assert all(a > b for a, b in zip(ps, ps[1:]))


def test_landscape_degenerate_cases():
    ens = BinaryEnsemble(0.5)
    _, single = verify_gaussian_optimum(ens, [1.0], [0.0])
    assert single.degenerate
    # r = 0 only: every phi ties exactly
    _, flat = verify_gaussian_optimum(ens, [0.0], [0.0, 1.0, 2.0])
    assert flat.degenerate and "tie" in flat.note


def test_landscape_failure_flagged():
    """Grids that exclude phi = 0 cannot reach the corner; the summary
    must say so rather than claim success."""
    ens = BinaryEnsemble(0.5)
    _, summary = verify_gaussian_optimum(ens, [0.5, 1.0], [2.0, math.pi])
    assert not summary.optimal and not summary.degenerate
    assert "not the sharp-homodyne corner" in summary.note


PHIS = [0.0, 0.5, math.pi / 2, 2.0, 3.0, math.pi]


def _contrast_formula(r, phi):
    ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    return (1.0 + ch + sh * math.cos(phi)) / (2.0 * (1.0 + ch))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+r", "-r"])
def test_contrast_factor_signed_limit(sign):
    """Once the formula's denominator overflows (|r| > 354.89, where it
    would give 0 or NaN) and at r = +-inf the factor is the signed limit
    (1 +- cos phi)/2, which the finite formula approaches."""
    for phi in PHIS:
        limit = 0.5 * (1.0 + sign * math.cos(phi))
        for r in (355.0, 356.0, 400.0, 1e300, math.inf):
            assert contrast_factor(sign * r, phi) == limit
        assert contrast_factor(sign * 20.0, phi) == pytest.approx(limit, abs=1e-15)
    assert contrast_factor(-math.inf, 0.0) == 0.0 == contrast_factor(-20.0, 0.0)


def test_contrast_factor_finite_formula_unchanged():
    """Wherever the formula's denominator is finite the result is the
    formula's, bit for bit: the limit only fills in where it overflows."""
    for r in [*np.linspace(-354.0, 354.0, 2001), 354.89, -354.89]:
        for phi in PHIS:
            assert contrast_factor(float(r), phi) == _contrast_formula(float(r), phi)
    assert math.isnan(contrast_factor(1.0, math.nan))


def test_landscape_huge_r_finds_corner():
    ens = BinaryEnsemble(1.0)
    _, summary = verify_gaussian_optimum(ens, [0.0, 400.0], [0.0, 1.0, math.pi])
    assert summary.optimal and summary.argmin.e == 1.0
    assert summary.argmin.p_error == bayes_error_from_contrast(ens, 1.0)


# --- type1's Newton on floats: pins against the numpy version it replaced ---


def _openblas_core():
    """Name of the OpenBLAS kernel numpy's LAPACK runs on, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


#: `_solve2` reproduces the operation order of this kernel's dgesv; other
#: kernels (Haswell, Prescott, ...) skip the fma and differ in the last bit.
_BLAS_CORE = _openblas_core()
needs_skylakex_blas = pytest.mark.skipif(
    _BLAS_CORE != "SkylakeX",
    reason=f"np.linalg.solve runs on OpenBLAS kernel {_BLAS_CORE!r}, not SkylakeX",
)


@functools.cache
def _systems():
    """100,000 seeded 2x2 systems with entries of either sign and magnitude
    2^-27 .. 2^27 (about 1e-8 .. 1e8), built exactly with ldexp; every 10th
    ties the pivot, |a21| == |a11|. Returns (systems, `_solve2` results)."""
    rng = np.random.default_rng(20261018)
    n = 100_000
    mant = rng.uniform(0.5, 1.0, (n, 6))
    expo = rng.integers(-27, 28, (n, 6))
    sign = np.where(rng.random((n, 6)) < 0.5, -1.0, 1.0)
    vals = sign * np.ldexp(mant, expo)
    vals[::10, 2] = vals[::10, 0] * sign[::10, 2]
    systems = [tuple(row) for row in vals.tolist()]
    return systems, [_solve2(*s) for s in systems]


def test_solve2_bits_pinned():
    """The step's bits on every host: a sha256 over the results, captured
    where they equal np.linalg.solve (the next test)."""
    _, got = _systems()
    assert all(x is not None for x in got)
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert digest == "28dccd7b01f2f6a931ede2cd678574a20dbbc818cf9b6fa9518679587b835218"


@needs_skylakex_blas
def test_solve2_matches_numpy_bitwise():
    systems, got = _systems()
    arr = np.array(systems)
    # the stacked solve runs the same dgesv per system as a single 2x2 call
    want = np.linalg.solve(arr[:, :4].reshape(-1, 2, 2), arr[:, 4:, None])[:, :, 0]
    assert np.array_equal(np.array(got), want)


@pytest.mark.parametrize(
    "system",
    [
        (0.0, 1.0, 0.0, 2.0, 1.0, 1.0),  # zero column: no pivot
        (-0.0, 1.0, 0.0, 2.0, 1.0, 1.0),
        (1.0, 3.0, 2.0, 6.0, 1.0, 1.0),  # rank one: u22 == 0
        (0.5, 0.25, -0.5, -0.25, 1.0, 2.0),  # rank one at a pivot tie
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    ],
)
def test_solve2_singular_is_none(system):
    a11, a12, a21, a22, b1, b2 = system
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.array([[a11, a12], [a21, a22]]), np.array([b1, b2]))
    assert _solve2(*system) is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("pos", range(6))
def test_solve2_non_finite_is_none(bad, pos):
    """No step from a non-finite system. numpy's answer there depends on the
    kernel (an infinite pivot can give a finite step), but the Newton only
    meets such systems with a NaN residual, where every trial point fails
    ``max|f| < NaN`` and the solve ends in None either way."""
    system = [1.5, -0.25, 0.75, 2.0, 1.0, -3.0]
    system[pos] = bad
    assert _solve2(*system) is None


def test_solve2_tie_keeps_row_order():
    """|a21| == |a11| does not swap: the first row stays the pivot row, which
    moves the last bit of x1 here, as in np.linalg.solve."""
    assert _solve2(2.5, -2.76, -2.5, 0.17, -0.24, -2.63) == (1.1273513513513511, 1.1081081081081081)
    assert _solve2(-2.5, 0.17, 2.5, -2.76, -2.63, -0.24) == (1.1273513513513513, 1.1081081081081081)


def test_fma_is_correctly_rounded():
    """Against exact rationals over the whole double range, subnormal and
    overflowing results included, then IEEE 754's special cases."""
    rng = np.random.default_rng(7)
    for _ in range(3000):
        a, b, c = (
            float(np.ldexp(s * m, e))
            for s, m, e in zip(
                rng.choice([-1.0, 1.0], 3), rng.uniform(0.5, 1.0, 3), rng.integers(-1074, 1024, 3)
            )
        )
        exact = Fraction(a) * Fraction(b) + Fraction(c)
        try:
            want = float(exact)
        except OverflowError:
            want = math.inf if exact > 0 else -math.inf
        if exact == 0:
            want = a * b + c
        got = _fma(a, b, c)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (a, b, c)
    inf = math.inf
    assert _fma(1e300, 1e300, -inf) == -inf
    assert _fma(-1e300, 1e300, 1.0) == -inf
    assert math.isnan(_fma(inf, 0.0, 1.0)) and math.isnan(_fma(inf, 2.0, -inf))
    assert math.isnan(_fma(2.0, 3.0, math.nan))
    assert math.copysign(1.0, _fma(-0.0, 1.0, -0.0)) == -1.0
    assert math.copysign(1.0, _fma(2.0, 3.0, -6.0)) == 1.0
    assert _fma(0.1, 10.0, -1.0) == 5.551115123125783e-17  # 0.1 * 10.0 rounds to 1.0


def test_maxabs_propagates_nan():
    assert _maxabs(-3.0, 2.0) == 3.0 and _maxabs(0.5, -4.0) == 4.0
    assert math.isnan(_maxabs(math.nan, 1.0))
    assert math.isnan(_maxabs(1.0, math.nan))
    assert math.isnan(_maxabs(math.nan, math.inf))
    assert math.isnan(_maxabs(math.inf, math.nan))


def _newton_2d_numpy(alpha, eta, beta0, r0):
    """The numpy `_newton_2d` that the float version replaced, verbatim."""
    x = np.array([beta0, r0])
    h = 1e-7

    def fvec(p):
        return np.array(type1_residuals(alpha, float(p[0]), float(p[1]), eta))

    fx = fvec(x)
    for it in range(1, 81):
        norm = float(np.abs(fx).max())
        if norm < 1e-12:
            return float(x[0]), float(x[1]), norm, it
        jac = np.empty((2, 2))
        for j in range(2):
            dp = np.zeros(2)
            dp[j] = h
            jac[:, j] = (fvec(x + dp) - fvec(x - dp)) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        for _ in range(25):
            trial = x + lam * step
            if trial[0] > 0.0 and abs(trial[1]) <= R_BOX:
                ft = fvec(trial)
                if np.abs(ft).max() < norm:
                    x, fx = trial, ft
                    break
            lam *= 0.5
        else:
            return None
        if lam * np.abs(step).max() < 1e-15 and np.abs(fx).max() > 1e-10:
            return None
    norm = float(np.abs(fx).max())
    return (float(x[0]), float(x[1]), norm, 80) if norm < 1e-10 else None


@needs_skylakex_blas
def test_newton_2d_matches_numpy_version():
    """Full returns, None included, on alpha^2 from 1e-6 to 1e308, densest
    where the optimum has r != 0. Near 1e308 the residuals overflow to NaN
    and both versions give up."""
    exps = [-6.0 + 8.0 * i / 47 for i in range(48)]
    exps += [2.0 + 306.0 * i / 15 for i in range(1, 16)] + [306.5, 307.0, 307.3, 307.6]
    seen = {"tuple": 0, "none": 0, "iterated": 0}
    with np.errstate(all="ignore"):
        for e in exps:
            alpha = math.sqrt(10.0**e)
            for eta in (1.0, 0.5, 0.05, 1e-3):
                for r0 in (-0.3, 0.0, 0.3):
                    try:
                        beta0 = _beta_given_r(alpha, r0, eta)
                    except (BracketError, ConvergenceError):
                        continue
                    got = _newton_2d(alpha, eta, beta0, r0)
                    assert got == _newton_2d_numpy(alpha, eta, beta0, r0), (e, eta, r0)
                    seen["none" if got is None else "tuple"] += 1
                    seen["iterated"] += got is not None and got[3] > 1
    assert seen["tuple"] > 500 and seen["none"] > 200 and seen["iterated"] > 300, seen


def test_type1_solves_r0_start_once(monkeypatch):
    calls = []

    def counted(alpha, r, eta):
        calls.append(r)
        return _beta_given_r(alpha, r, eta)

    monkeypatch.setattr(optimize, "_beta_given_r", counted)
    solve_type1_params(0.5, 1.0)
    assert calls == [-0.3, 0.0, 0.3]


def test_type1_r0_start_failure_raised_at_slice_check(monkeypatch):
    """If beta at r = 0 cannot be solved, the other starts still run and the
    r = 0 slice check raises that error."""

    def flat_fails(alpha, r, eta):
        if r == 0.0:
            raise BracketError("no beta at r = 0")
        return _beta_given_r(alpha, r, eta)

    monkeypatch.setattr(optimize, "_beta_given_r", flat_fails)
    with pytest.raises(BracketError, match="no beta at r = 0"):
        solve_type1_params(0.5, 1.0)
