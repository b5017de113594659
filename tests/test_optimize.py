"""Root solves and the two receiver parameter optimizations."""

import math

import numpy as np
import pytest

from bpskrx.core import (
    BinaryEnsemble,
    BracketError,
    DetectorModel,
    UnsupportedConfigurationError,
)
from bpskrx.fock import receiver_error_fock
from bpskrx.optimize import (
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
