"""Root solves and the two receiver parameter optimizations."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpskrx.core import (
    BinaryEnsemble,
    ConvergenceError,
    DetectorModel,
    UnsupportedConfigurationError,
)
from bpskrx.fock import receiver_error_fock
from bpskrx.gaussian import GaussianState, SymplecticOp, apply_gaussian_unitary
from bpskrx.optimize import (
    _newton,
    _solve_gamma,
    bayes_error_from_contrast,
    displaced_squeezed_error,
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
    # strong squeezing at low efficiency
    (math.sqrt(0.5), 0.1): (0.9426332700401004, 1.1954551386485819, 0.15558329776139584),
}


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
    # a 60-digit solve; the condition without sqrt(tau) in the tanh gave 0.8725512174767196
    assert got == pytest.approx(0.873997947879275974, rel=1e-15, abs=0.0)


def test_type2_imperfect_zero_alpha_limit():
    det = DetectorModel(eta=0.8, tau=0.81)
    # gamma tanh(2 eta xi sqrt(tau) alpha gamma) -> 2 eta xi sqrt(tau) alpha gamma^2
    want = 1.0 / math.sqrt(2 * 0.8)
    assert abs(solve_type2_gamma_imperfect(0.0, det).value - want) < 1e-12


def test_type2_imperfect_rejects_dead_detector():
    with pytest.raises(UnsupportedConfigurationError):
        solve_type2_gamma_imperfect(0.5, DetectorModel(eta=0.0))


# --- the safeguarded Newton behind both roots (the w tanh w = c inversion
# and the type1 solve): its typed failures ---


def test_newton_nan_raises_convergence_error():
    fdf = lambda x: (math.nan if 0.4 < x < 0.6 else x - 0.5, 1.0)
    with pytest.raises(ConvergenceError, match="NaN") as exc:
        _newton(fdf, 0.0, 1.0, 0.0)
    assert exc.value.best == 0.0  # the last iterate with a finite f
    with pytest.raises(ConvergenceError, match="NaN at an end") as exc:
        _newton(fdf, 0.5, 1.0, 1.0)
    assert exc.value.best is None


def test_newton_maxiter_raises_convergence_error():
    """A step at 1e-300 gives Newton no slope, so every step bisects, and
    about 1,000 halvings would reach it; the solve stops at 100 steps."""
    fdf = lambda x: (-1.0 if x < 1e-300 else 1.0, 0.0)
    with pytest.raises(ConvergenceError, match="after 100 Newton steps") as exc:
        _newton(fdf, 0.0, 1.0, 1.0)
    assert 0.0 < exc.value.best < 1.0


def test_newton_same_sign_raises_convergence_error():
    with pytest.raises(ConvergenceError, match="same sign") as exc:
        _newton(lambda x: (x * x + 1.0, 2.0 * x), 0.0, 1.0, 0.5)
    assert exc.value.best is None


def test_newton_converged_step_onto_a_bracket_end_returns():
    """The stopping test comes before the bracket test: a step below 4 eps
    relative returns even where it lands on an end of the bracket, here
    the start 1.0, which the first step moves by 1e-20; a bisection would
    have gone to 1.5."""
    calls = []

    def fdf(x):
        calls.append(x)
        return x - 1.0 - 1e-20, 1.0

    assert _newton(fdf, 1.0, 2.0, 1.0) == (1.0, 1)
    assert calls == [1.0, 2.0, 1.0]


def _mp_gamma(alpha, eta, tau, xi):
    """80-digit root of the gamma condition, as u / sqrt(2 eta) with
    u tanh(u s) = s, s^2 = c = 2 eta xi^2 tau alpha^2 (u = 1 at c = 0)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        a, e, t, x = map(mp.mpf, (alpha, eta, tau, xi))
        s = x * mp.sqrt(2 * e * t) * a
        u = 1 if s == 0 else mp.findroot(
            lambda u: u * mp.tanh(u * s) / s - 1, 1 if s < 1 else s, tol=mp.mpf(10) ** -70
        )
        return u / mp.sqrt(2 * e)


def _relative_error(got, want):
    return float(abs(got / want - 1))


def test_gamma_solves_its_whole_domain():
    """alpha^2 in [1e-300, 1e300] x eta, xi in [1e-15, 1] x tau down to 1e-60:
    every input returns a finite root whose residual |w tanh w - c| is within
    rounding of c = 2 eta xi^2 tau alpha^2. Before the shared inversion,
    eta xi < 1e-30 was refused and small c failed Brent's bisection."""
    decades = [10.0**e for e in range(-15, 1, 3)]
    grid = itertools.product(range(-300, 301, 20), decades, decades, (1e-60, 1e-3, 0.5, 1.0))
    n = 0
    for a2_exp, eta, xi, tau in grid:
        alpha = math.sqrt(10.0**a2_exp)
        res = _solve_gamma(alpha, eta, tau, xi)
        c = 2.0 * eta * xi * xi * tau * alpha * alpha
        assert 0.0 < res.value < math.inf
        assert res.residual <= 1e-15 * c
        n += 1
    assert n == 31 * 6 * 6 * 4


def test_gamma_matches_an_80_digit_root():
    """Seeded draws over alpha^2 in [1e-300, 1e300], eta in [1e-3, 1], xi down
    to 1e-15 and tau down to 1e-60 (worst seen 3.2e-16 on 3,000 draws; the
    bracketed Brent solve it replaced raised on about a third of them)."""
    rng = np.random.default_rng(20261020)
    worst = 0.0
    for _ in range(300):
        a2, eta, xi, tau = 10.0 ** rng.uniform([-300, -3, -15, -60], [300, 0, 0, 0])
        alpha = math.sqrt(a2)
        got = _solve_gamma(alpha, eta, tau, xi).value
        worst = max(worst, _relative_error(got, _mp_gamma(alpha, eta, tau, xi)))
    assert worst <= 1e-15


def test_gamma_gate_scales_with_the_target():
    """At alpha^2 = 1.8e31 the tanh saturates (c > 20), so the root is the
    target xi sqrt(tau) alpha itself, with residual 0; the bracketed Brent
    solve stopped one ulp (0.5) below it."""
    alpha = math.sqrt(1.797195868616573e31)
    res = _solve_gamma(alpha, 0.9008609348173033, 1.0, 1.0)
    assert res.value == alpha == 4239334698530623.0 and res.residual == 0.0


@pytest.mark.parametrize(
    "alpha, eta, tau, xi",
    [
        (0.5, 1e-200, 1.0, 1e-200),  # 2 eta xi underflows
        (0.5, 1e-40, 1.0, 1.0),  # below the old eta xi floor of 1e-30
        (0.5, 1.0, 1e-50, 1.0),  # refused: f(1e-12) > 0
        (1.0, 1.0, 1e-20, 1.0),  # refused: Brent's absolute 1e-15 missed the residual gate
        (0.5, 1.0, 1e-40, 1.0),  # refused by the residual gate
        (3.857150886539509e-248, 0.00279, 1.0, 2.09e-25),  # Brent ran out of steps
    ],
    ids=["eta-xi-underflow", "eta-below-floor", "root-below-bracket", "small-target",
         "tiny-tau", "tiny-alpha-and-xi"],
)
def test_gamma_returns_roots_it_once_refused(alpha, eta, tau, xi):
    """Inputs the bracketed Brent solve refused or failed on now return their
    root to double precision."""
    res = _solve_gamma(alpha, eta, tau, xi)
    assert _relative_error(res.value, _mp_gamma(alpha, eta, tau, xi)) <= 1e-15


def test_gamma_found_inputs_are_pinned():
    # at c = 5e-41 the root is 1/sqrt(2) to a double
    assert _solve_gamma(0.5, 1.0, 1e-40, 1.0).value == 0.7071067811865475
    tiny = _solve_gamma(3.857150886539509e-248, 0.00279, 1.0, 2.09e-25)
    assert tiny.value == 13.386988815041647  # 1/sqrt(2 eta): c, about 4e-546, underflows to 0


def test_gamma_solves_beside_a_root_below_the_lower_end():
    """At tau = 1e-50, where the bracketed Brent solve found the root of alpha
    = 0.5 below its lower end 1e-12, larger amplitudes return their root, in
    closed form at small c and by the shared inversion at larger c."""
    for alpha, iterations in ((1e13, 0), (1e20, 3), (1e30, 0)):
        res = _solve_gamma(alpha, 1.0, 1e-50, 1.0)
        assert res.iterations == iterations
        assert _relative_error(res.value, _mp_gamma(alpha, 1.0, 1e-50, 1.0)) <= 1e-15


def test_type1_gate_scales_with_the_terms():
    """At eta = 2.2e-8 the second residual, 7.45e-9, is round-off of
    8 alpha beta = 3.7e7; an absolute 1e-10 gate rejected the optimum."""
    alpha, eta = math.sqrt(4667938.572718305), 2.1938337239844158e-08
    res = solve_type1_params(alpha, eta)
    beta, r = res.value
    r1, r2 = type1_residuals(alpha, beta, r, eta)
    assert r1 == 0.0 and 7e-9 < abs(r2) < 8e-9 and 8.0 * alpha * beta > 3.7e7
    assert res.residual == abs(r2)


def test_type1_frozen_optima():
    for (alpha, eta), (beta, r, p) in TYPE1_OPTIMA.items():
        res = solve_type1_params(alpha, eta)
        b, rr = res.value
        assert abs(b - beta) < 1e-9, (alpha, eta)
        assert abs(rr - r) < 1e-9, (alpha, eta)
        assert abs(displaced_squeezed_error(alpha, b, rr, eta) - p) < 1e-12
        assert res.residual < 1e-10


def test_type1_damped_newton_step():
    """At eta = 0.1 the optimum sits at strong squeezing, where a full Newton
    step from r = 0 overshoots; the safeguarded Newton in w, started at the
    w of r = 0, reaches it in 9 steps (Brent took 11)."""
    res = solve_type1_params(math.sqrt(0.5), 0.1)
    beta, r = res.value
    assert abs(beta - 0.9426332700401004) < 1e-9
    assert abs(r - 1.1954551386485819) < 1e-9
    assert res.residual < 1e-10
    assert res.iterations == 9


@pytest.mark.parametrize(
    "call, exc, match",
    [
        (lambda: solve_type1_params(0.5, 0.0), UnsupportedConfigurationError, "eta must be positive"),
        (lambda: solve_type1_params(0.5, -0.1), UnsupportedConfigurationError, "eta must be positive"),
        (lambda: solve_type1_params(0.5, 1.5), UnsupportedConfigurationError, "at most 1, got 1.5"),
        (lambda: solve_type1_params(0.0, 1.0), ValueError, "alpha must be > 0"),
        (lambda: solve_type1_params(-0.5, 1.0), ValueError, "alpha must be > 0"),
        (lambda: solve_type2_gamma(-0.5), ValueError, "alpha must be >= 0"),
        (lambda: verify_gaussian_optimum(BinaryEnsemble(0.5), [], [0.0]), ValueError, "nonempty"),
        (lambda: verify_gaussian_optimum(BinaryEnsemble(0.5), [1.0], []), ValueError, "nonempty"),
        # a float overflow is a typed error naming the amplitudes
        (lambda: displaced_squeezed_error(1e154, 1e154, 0.0), UnsupportedConfigurationError,
         r"overflows at alpha=1e\+154, beta=1e\+154"),
        (lambda: displaced_squeezed_error(1e154, -1e154, 0.0), UnsupportedConfigurationError,
         r"overflows at alpha=1e\+154, beta=-1e\+154"),
        (lambda: displaced_squeezed_error(0.5, 0.5, -400.0), UnsupportedConfigurationError,
         r"overflows at alpha=0.5, beta=0.5, r=-400.0"),
    ],
    ids=["type1-eta0", "type1-eta-neg", "type1-eta-above-1", "type1-alpha0", "type1-alpha-neg",
         "type2-alpha-neg", "landscape-no-r",
         "landscape-no-phi", "dse-overflow-plus", "dse-overflow-minus", "dse-overflow-squeeze"],
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


def _sharpness(r, phi):
    """The sharpness e of the landscape scan's point at (r, phi)."""
    (point,), _ = verify_gaussian_optimum(BinaryEnsemble(1.0), [r], [phi])
    return point.e


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+r", "-r"])
def test_contrast_factor_signed_limit(sign):
    """Once the formula's denominator overflows (|r| > 354.89, where it
    would give 0 or NaN) and at r = +-inf the landscape's sharpness factor
    is the signed limit (1 +- cos phi)/2, which the finite formula
    approaches."""
    for phi in PHIS:
        limit = 0.5 * (1.0 + sign * math.cos(phi))
        for r in (355.0, 356.0, 400.0, 1e300, math.inf):
            assert _sharpness(sign * r, phi) == limit
        assert _sharpness(sign * 20.0, phi) == pytest.approx(limit, abs=1e-15)
    assert _sharpness(-math.inf, 0.0) == 0.0 == _sharpness(-20.0, 0.0)


def test_contrast_factor_finite_formula_unchanged():
    """Wherever the formula's denominator is finite the landscape's
    sharpness is the formula's, bit for bit: the limit only fills in where
    it overflows. A NaN angle gives a NaN sharpness, which the landscape
    point refuses."""
    rs = [*map(float, np.linspace(-354.0, 354.0, 2001)), 354.89, -354.89]
    points, _ = verify_gaussian_optimum(BinaryEnsemble(1.0), rs, PHIS)
    assert len(points) == len(rs) * len(PHIS)
    for p in points:
        assert p.e == _contrast_formula(p.r, p.phi)
    with pytest.raises(ValueError, match="sharpness e = nan outside"):
        verify_gaussian_optimum(BinaryEnsemble(1.0), [1.0], [math.nan])


def test_landscape_huge_r_finds_corner():
    ens = BinaryEnsemble(1.0)
    _, summary = verify_gaussian_optimum(ens, [0.0, 400.0], [0.0, 1.0, math.pi])
    assert summary.optimal and summary.argmin.e == 1.0
    assert summary.argmin.p_error == bayes_error_from_contrast(ens, 1.0)


# --- type1 over its whole domain ---


def _type1_domain_grid():
    """15 eta x 154 alpha^2: 150 log-spaced in [1e-6, 60] plus 100, 1e3,
    1e6 and 1e12."""
    lo, hi = math.log10(1e-6), math.log10(60.0)
    alpha_sq = [10.0 ** (lo + (hi - lo) * i / 149) for i in range(150)]
    alpha_sq += [100.0, 1e3, 1e6, 1e12]
    etas = (1.0, 0.95, 0.9, 0.8, 0.7, 0.5, 0.3, 0.2, 0.1, 0.07, 0.05, 0.03, 0.02, 0.01, 1e-3)
    return [(math.sqrt(a2), eta) for eta in etas for a2 in alpha_sq]


def test_type1_solves_the_whole_domain_grid():
    """Every grid point solves, the low-efficiency, small-alpha^2 corner
    included, where the optimum's squeeze reaches r = 3.8 at eta = 1e-3."""
    worst_r = 0.0
    for alpha, eta in _type1_domain_grid():
        res = solve_type1_params(alpha, eta)
        assert res.residual < 1e-10 and 0 < res.iterations <= 30, (alpha, eta)
        worst_r = max(worst_r, abs(res.value[1]))
    assert 3.7 < worst_r < 3.9


@pytest.mark.parametrize("eta", [1e-3, 1.0])
@pytest.mark.parametrize("alpha_sq", [1e-300, 1e-6, 1e300, 1e308])
def test_type1_extremes_raise_only_convergence_error(alpha_sq, eta):
    """At the ends of the float range the solve either returns a point with
    residuals below 1e-10 or raises ConvergenceError: no OverflowError,
    ZeroDivisionError or ValueError escapes."""
    alpha = math.sqrt(alpha_sq)
    try:
        res = solve_type1_params(alpha, eta)
    except ConvergenceError:
        return
    r1, r2 = type1_residuals(alpha, *res.value, eta)
    assert abs(r1) < 1e-10 and abs(r2) < 1e-10


def test_type1_optima_match_gaussian_layer():
    """Beyond the Fock oracle's reach (|r*| up to 3.8): the no-click
    probability of each squeezed, displaced branch after a beamsplitter of
    transmission eta, computed from the covariance of mode 0 with the
    Gaussian layer, reproduces the closed form at the solved optimum."""
    nu = 1e-3
    for eta in (0.05, 0.01, 1e-3):
        c, s = math.sqrt(eta), math.sqrt(1.0 - eta)  # [[c I, -s I], [s I, c I]]
        loss = SymplecticOp([[c, 0, -s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, s, 0, c]])
        for alpha_sq in np.geomspace(1e-3, 20.0, 12):
            alpha = math.sqrt(alpha_sq)
            beta, r = solve_type1_params(alpha, eta).value
            p_off = []
            for sign in (1.0, -1.0):
                state = GaussianState(np.eye(4), [math.sqrt(2.0) * (beta + sign * alpha), 0, 0, 0])
                squeeze = SymplecticOp(np.diag([math.exp(r), math.exp(-r), 1.0, 1.0]))
                state = apply_gaussian_unitary(state, squeeze)
                state = apply_gaussian_unitary(state, loss)
                v, d = state.cov[:2, :2] + np.eye(2), state.disp[:2]
                vac = 2.0 / math.sqrt(np.linalg.det(v)) * math.exp(-d @ np.linalg.solve(v, d))
                p_off.append(math.exp(-nu) * vac)
            want = displaced_squeezed_error(alpha, beta, r, eta, nu)
            assert abs(0.5 * (p_off[0] + 1.0 - p_off[1]) - want) < 1e-14, (eta, alpha_sq)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    log10_alpha_sq=st.floats(min_value=-6.0, max_value=308.0),
    eta=st.floats(min_value=1e-3, max_value=1.0),
)
def test_type1_solution_is_local_minimum(log10_alpha_sq, eta):
    """Over alpha^2 log-uniform in [1e-6, 1e308] and eta in [1e-3, 1] the
    solver raises ConvergenceError or returns a point whose residuals are
    below 1e-10 and which no 5x5 neighbour at spacing 1e-4 undercuts by
    more than 1e-12."""
    alpha = math.sqrt(10.0**log10_alpha_sq)
    try:
        res = solve_type1_params(alpha, eta)
    except ConvergenceError:
        return
    beta, r = res.value
    r1, r2 = type1_residuals(alpha, beta, r, eta)
    assert abs(r1) < 1e-10 and abs(r2) < 1e-10
    assert res.residual == max(abs(r1), abs(r2))
    p_star = displaced_squeezed_error(alpha, beta, r, eta)
    delta = 1e-4
    for i in range(-2, 3):
        for j in range(-2, 3):
            p = displaced_squeezed_error(alpha, beta + i * delta, r + j * delta, eta)
            assert p >= p_star - 1e-12, (i, j)
