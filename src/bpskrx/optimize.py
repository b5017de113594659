"""Transcendental optimality conditions of the near-optimal receivers.

Root solvers for the displacement photon receivers (optimal displacement
gamma, and the joint displacement/squeezing pair for the squeeze-assisted
variant), both built on one inversion of ``w tanh w = c``, and a grid verifier
for the claim that sharp x-homodyne is the best single-mode Gaussian
measurement on the binary coherent ensemble, with the sharpness factor and
Bayes error it scans. All on Python floats, without numpy or scipy: both
roots come from one safeguarded Newton, `_newton`, and the Bayes error from
libm's ``erfc``.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import NamedTuple

from .core import (
    ConvergenceError,
    UnsupportedConfigurationError,
    BinaryEnsemble,
    DetectorModel,
)

__all__ = [
    "RootResult",
    "LandscapePoint",
    "LandscapeSummary",
    "displaced_squeezed_error",
    "type1_residuals",
    "solve_type2_gamma",
    "solve_type2_gamma_imperfect",
    "solve_type1_params",
    "verify_gaussian_optimum",
    "bayes_error_from_contrast",
]

#: Bracket end in r of the type1 solve; r* is about ln(1/eta)/2 + 0.35.
_R_END = 12.0
_MAXITER = 100  #: step cap of `_newton`
_RTOL = 4.0 * sys.float_info.epsilon  #: relative step at which `_newton` stops


class RootResult(NamedTuple):
    """Outcome of a root solve.

    value : the solution; a float for scalar solves, a (beta, r) tuple for
        the two-parameter solver.
    residual : achieved max |f| at the solution; for gamma, ``|w tanh w - c|``
        of its inversion (0 where the tanh saturates).
    iterations : Newton steps spent; for the type1 pair, of its w-solve.
    """

    value: float | tuple[float, float]
    residual: float
    iterations: int


def _newton(fdf, lo: float, hi: float, x: float) -> tuple[float, int]:
    """(root, steps) of a safeguarded Newton in the style of Numerical
    Recipes' ``rtsafe``: ``fdf(x)`` gives (f, f'), f changes sign on [lo, hi]
    and the iterate starts at ``x``. The bracket shrinks to the last iterate
    of each sign, and a step that would leave it bisects instead. The solve
    stops at a step below 4 eps relative, tested before the bracket, so a
    converged step onto a bracket end does not bisect. A NaN from ``f``, a
    same-sign bracket or ``_MAXITER`` steps raise `ConvergenceError`, with the
    last finite iterate in ``best`` (None at the ends)."""
    f_lo, f_hi = fdf(lo)[0], fdf(hi)[0]
    if f_lo != f_lo or f_hi != f_hi:
        raise ConvergenceError(f"f is NaN at an end of [{lo}, {hi}]")
    if f_lo == 0.0 or f_hi == 0.0:
        return (lo if f_lo == 0.0 else hi), 0
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise ConvergenceError(f"f({lo}) and f({hi}) have the same sign")
    last = lo
    for i in range(1, _MAXITER + 1):
        f, d = fdf(x)
        if f != f:
            raise ConvergenceError(f"f({x!r}) is NaN", best=last)
        if f == 0.0:
            return x, i
        lo, hi = (x, hi) if (f < 0.0) == (f_lo < 0.0) else (lo, x)
        last, step = x, f / d if d else math.inf
        if abs(step) <= _RTOL * abs(x):
            return x - step, i
        x -= step
        if not lo < x < hi:  # bisect
            x = 0.5 * (lo + hi)
            if hi - lo <= _RTOL * abs(x):
                return x, i
    raise ConvergenceError(f"no convergence after {_MAXITER} Newton steps", best=x)


def displaced_squeezed_error(
    alpha: float, beta: float, r: float, eta: float = 1.0, nu: float = 0.0
) -> float:
    """Error probability of the squeeze-plus-displace on/off receiver at
    arbitrary (not necessarily optimal) parameters.

    With ``G = eta + (2 - eta) exp(-2r)`` and ``H = eta + (2 - eta) exp(2r)``:

        P = 1/2 - exp(-nu)/sqrt(G H) * [exp(-2 eta (alpha - beta)^2 / G)
                                        - exp(-2 eta (alpha + beta)^2 / G)]

    Derivation (certified against the number-basis oracle in `fock`): the
    signal branch |pm alpha> is displaced by ``beta`` and squeezed so that
    the x quadrature is stretched by ``exp(r)``, leaving a pure Gaussian
    state with covariance ``diag(exp(2r), exp(-2r))`` and mean
    ``(sqrt(2) (beta pm alpha) exp(r), 0)``. The no-click element is
    ``exp(-nu) s^n`` with ``s = 1 - eta``, which is ``1/eta`` times a
    thermal-shaped Gaussian operator of covariance ``((2 - eta)/eta) I``;
    its expectation therefore follows from the two-Gaussian overlap
    ``2 / sqrt(det(S1 + S2)) exp(-d^T (S1 + S2)^{-1} d)``, giving

        P(off | pm) = 2 exp(-nu)/sqrt(G H) * exp(-2 eta (beta pm alpha)^2 / G).

    A click decides "minus was sent is false", i.e. no click -> minus,
    click -> plus, and averaging the two mistakes gives the formula above.
    The squeezing enters only through the quadrature-dependent factors G
    (along the displacement) and H (orthogonal); ``r = 0`` collapses both
    to 2 and recovers the pure displacement receiver.

    Where a float overflows (``(alpha + beta) ** 2`` at alpha = beta = 1e154)
    the call raises UnsupportedConfigurationError.
    """
    try:
        g = eta + (2.0 - eta) * math.exp(-2.0 * r)
        h = eta + (2.0 - eta) * math.exp(2.0 * r)
        pref = math.exp(-nu) / math.sqrt(g * h)
        return 0.5 - pref * (
            math.exp(-2.0 * eta * (alpha - beta) ** 2 / g)
            - math.exp(-2.0 * eta * (alpha + beta) ** 2 / g)
        )
    except OverflowError:
        raise UnsupportedConfigurationError(
            f"squeeze-displace error overflows at alpha={alpha!r}, beta={beta!r}, r={r!r}"
        ) from None


def type1_residuals(alpha: float, beta: float, r: float, eta: float) -> tuple[float, float]:
    """Stationarity residuals of `displaced_squeezed_error` in (beta, r).

    The raw d/dr condition carries a 1/(1 - exp(4r)) factor that is singular
    at r = 0; both residuals here are multiplied through by the offending
    denominators, leaving smooth functions whose simultaneous zero is the
    stationary point:

        R1 = beta tanh(w) - alpha,              w = 4 eta alpha beta / G
        R2 = 8 alpha beta
             - [4 (alpha^2 + beta^2) - (1 - exp(4r)) G / H] tanh(w)

    At r = 0 the bracket in R2 loses its r-dependent term and R1 reduces to
    the pure displacement condition (beta playing gamma's role).
    """
    g = eta + (2.0 - eta) * math.exp(-2.0 * r)
    h = eta + (2.0 - eta) * math.exp(2.0 * r)
    w = 4.0 * eta * alpha * beta / g
    t = math.tanh(w)
    r1 = beta * t - alpha
    r2 = 8.0 * alpha * beta - (
        4.0 * (alpha * alpha + beta * beta) - (1.0 - math.exp(4.0 * r)) * g / h
    ) * t
    return r1, r2


def _solve_gamma(alpha: float, eta: float, tau: float, xi: float) -> RootResult:
    """The gamma condition ``xi sqrt(tau) alpha = gamma tanh(y)``, ``y = 2 eta
    xi sqrt(tau) alpha gamma``, on gamma > 0: where the click error ``1/2 -
    exp(-nu - eta (tau alpha^2 + gamma^2)) sinh(y)`` is least. Shared by both
    public solvers.

    It is ``y tanh y = c``, ``c = 2 eta xi^2 tau alpha^2``, which
    `_w_tanh_w_inverse` solves for type1 too: ``gamma = u / sqrt(2 eta)`` with
    ``u = w / sqrt(c)``, or ``1 + c/6`` below c = 1e-12 (alpha = 0 included).
    Above c = 20 tanh y is 1 to a double and ``gamma = xi sqrt(tau) alpha``.
    """
    if eta <= 0.0 or xi <= 0.0 or tau <= 0.0:
        raise UnsupportedConfigurationError(
            "eta, tau, xi must be positive for the gamma condition "
            f"(got eta={eta!r}, tau={tau!r}, xi={xi!r})"
        )
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha!r}")
    c = 2.0 * eta * xi * xi * tau * alpha * alpha
    if c > 20.0:
        return RootResult(xi * math.sqrt(tau) * alpha, 0.0, 0)
    w, iterations = _w_tanh_w_inverse(c)
    u = 1.0 + c / 6.0 if c < 1e-12 else w / math.sqrt(c)
    return RootResult(u / math.sqrt(2.0 * eta), abs(w * math.tanh(w) - c), iterations)


def solve_type2_gamma(alpha: float, eta: float = 1.0) -> RootResult:
    """Optimal displacement of the pure displacement photon receiver.

    Solves ``alpha = gamma tanh(2 eta alpha gamma)``; the solution satisfies
    ``gamma >= alpha`` and approaches ``1/sqrt(2 eta)`` as ``alpha -> 0``
    (returned directly in that limit, no iteration) and ``alpha`` itself for
    large amplitudes where the tanh saturates. Any ``eta > 0`` is accepted;
    any other raises UnsupportedConfigurationError.
    """
    return _solve_gamma(alpha, eta, 1.0, 1.0)


def solve_type2_gamma_imperfect(alpha: float, detector: DetectorModel) -> RootResult:
    """Optimal displacement under transmission tau and mode overlap xi.

    Solves ``xi sqrt(tau) alpha = gamma tanh(2 eta xi sqrt(tau) alpha
    gamma)``. At ``tau = xi = 1`` every coefficient is multiplied by exactly
    1.0, so the result is bitwise equal to `solve_type2_gamma`.
    """
    return _solve_gamma(alpha, detector.eta, detector.tau, detector.xi)


def _w_tanh_w_inverse(c: float) -> tuple[float, int]:
    """(w, iterations) for the w >= 0 with ``w tanh w = c``: ``sqrt(c) (1 +
    c/6)`` below 1e-12, else the `_newton` root within ``max(c, sqrt c) <= w
    <= (c + sqrt(c (c + 4)))/2``, started at the upper end for c < 1 and at
    the lower end otherwise; the derivative is ``tanh w + w sech^2 w``."""
    if c < 1e-12:
        return math.sqrt(c) * (1.0 + c / 6.0), 0
    lo, hi = max(c, math.sqrt(c)), 0.5 * (c + math.sqrt(c) * math.sqrt(c + 4.0))
    tanh = math.tanh

    def fdf(w: float) -> tuple[float, float]:
        t = tanh(w)
        return w * t - c, t + w * (1.0 - t * t)

    return _newton(fdf, lo, hi, hi if c < 1.0 else lo)


def solve_type1_params(alpha: float, eta: float = 1.0) -> RootResult:
    """Jointly optimal displacement and squeezing of the squeeze-assisted
    photon receiver.

    One bracketed root in w = 4 eta alpha beta / G: where the first residual
    vanishes, beta = alpha / tanh w, G = 4 eta alpha^2 / (w tanh w) and
    x = exp(2r) = (2 - eta) / (G - eta), so r runs over the reals as
    w tanh w runs over (0, 4 alpha^2). The second residual times beta / alpha,
    4 alpha^2 / sinh^2 w - (x - 1)(x + 1) G / H, its first term taken as
    (4 alpha exp(-w) / expm1(-2w))^2 so that it cannot overflow, is solved by
    `_newton` between a lower bound on the w of r = -`_R_END` and the w of
    r = +`_R_END`, from the w of r = 0; ``iterations`` counts that solve. Its
    derivative takes d(q^2)/dw = -2 q^2 / tanh w, dc/dw = tanh w + w sech^2 w
    and dx/dc = k 4 alpha^2 / (4 alpha^2 - c)^2, in ratios that cannot overflow.

    Accepted only if the residuals of `type1_residuals` are below 1e-10
    times the size of their terms, ``|R1| < 1e-10 max(1, alpha)`` and ``|R2|
    < 1e-10 max(1, 4 (alpha^2 + beta^2))`` (NaN fails); anything else raises
    ConvergenceError, with ``best = (beta, r)`` for a rejected point.
    """
    if not 0.0 < eta <= 1.0:
        raise UnsupportedConfigurationError(f"eta must be positive and at most 1, got {eta!r}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha!r}")
    alpha4, eta2 = 4.0 * alpha, 2.0 - eta  # products as Python groups them
    a4, k = alpha4 * alpha, eta2 / eta
    eta_a4, tanh, exp, expm1 = eta * a4, math.tanh, math.exp, math.expm1
    failed = f"stationarity solve failed for alpha={alpha}, eta={eta}"

    def reduced(w: float) -> tuple[float, float]:
        t = tanh(w)
        c = w * t
        x = k * (c / (a4 - c))
        q = alpha4 * exp(-w) / expm1(-2.0 * w)
        q2, xx, e, den = q * q, (x - 1.0) * (x + 1.0), eta_a4 / c, eta + eta2 * x
        dlog_c = 1.0 / w + (1.0 - t * t) / t  # (dc/dw) / c
        c_dx = x * (a4 / (a4 - c))  # c dx/dc
        d_tail = dlog_c * e * (c_dx * (2.0 * x * den - xx * eta2) / (den * den) - xx / den)
        return q2 - xx * e / den, -2.0 * q2 / t - d_tail

    try:
        c_lo = a4 / (1.0 + k * math.exp(2.0 * _R_END))
        w_hi = _w_tanh_w_inverse(a4 / (1.0 + k * math.exp(-2.0 * _R_END)))[0]
        if not (c_lo > 0.0 and w_hi * math.tanh(w_hi) < a4):
            raise ConvergenceError(f"floats hold no bracket for |r| <= {_R_END}")
        w_lo = max(c_lo, math.sqrt(c_lo))
        w0 = _w_tanh_w_inverse(a4 / (1.0 + k))[0]  # r = 0
        w, iterations = _newton(reduced, w_lo, w_hi, min(max(w0, w_lo), w_hi))
    except ConvergenceError as exc:
        raise ConvergenceError(f"{failed}: {exc}") from exc
    c = w * math.tanh(w)
    beta, r = alpha / math.tanh(w), 0.5 * math.log(k * (c / (a4 - c)))
    r1, r2 = type1_residuals(alpha, beta, r, eta)
    if not (abs(r1) < 1e-10 * max(1.0, alpha)
            and abs(r2) < 1e-10 * max(1.0, 4.0 * (alpha * alpha + beta * beta))):
        raise ConvergenceError(f"{failed}: residuals ({r1:.3e}, {r2:.3e})", best=(beta, r))
    return RootResult((beta, r), max(abs(r1), abs(r2)), iterations)


def _contrast_factor(r: float, phi: float) -> float:
    """Sharpness factor e(r, phi) of a single-mode Gaussian measurement.

    ``e = (1 + cosh 2r + sinh 2r cos phi) / (2 (1 + cosh 2r))``, in [0, 1].
    ``e -> 1`` for sharp x-homodyne (r -> inf, phi = 0). Where the
    denominator overflows (|r| > 354.89, and r = +-inf) the exact limit
    ``(1 +- cos phi)/2`` for r -> +-inf is returned, so the ideal case
    carries no truncation artifact.
    """
    try:
        ch = math.cosh(2.0 * r)
        den = 2.0 * (1.0 + ch)
    except OverflowError:
        den = math.inf
    if den == math.inf:
        return 0.5 * (1.0 + math.copysign(1.0, r) * math.cos(phi))
    return (1.0 + ch + math.sinh(2.0 * r) * math.cos(phi)) / den


def bayes_error_from_contrast(ensemble: BinaryEnsemble, e: float) -> float:
    """Bayesian error probability of a Gaussian measurement with sharpness e:
    ``erfc(sqrt(2 e) alpha) / 2``. The outcome densities N(+-mu, Sigma) have
    ``mu^T Sigma^-1 mu = 4 e alpha^2``. Zero amplitude or ``e = 0`` carry no
    information, so the best strategy guesses and errs half the time.
    """
    alpha = ensemble.alpha
    if alpha == 0.0 or e <= 0.0:
        return 0.5
    return 0.5 * math.erfc(math.sqrt(2.0 * e) * alpha)


class LandscapePoint(namedtuple("LandscapePoint", "r phi e p_error")):
    """One grid point of the Gaussian-measurement landscape."""

    __slots__ = ()

    def __new__(cls, r: float, phi: float, e: float, p_error: float):
        if not -1e-12 <= e <= 1.0 + 1e-12:
            raise ValueError(f"sharpness e = {e} outside [0, 1]")
        return tuple.__new__(cls, (r, phi, e, p_error))


class LandscapeSummary(NamedTuple):
    """Verdict of the landscape scan: where the minimum sits and whether it
    matches the expected sharp-homodyne corner."""

    argmin: LandscapePoint
    optimal: bool
    degenerate: bool
    note: str


def verify_gaussian_optimum(
    ensemble: BinaryEnsemble, r_grid, phi_grid
) -> tuple[list[LandscapePoint], LandscapeSummary]:
    """Scan the Bayes error of single-mode Gaussian measurements over an
    (r, phi) grid and check the minimum lands at phi = 0, maximal r.

    Returns all grid points plus a summary. A scan is flagged degenerate
    when it cannot distinguish the corner: a single grid point, or an exact
    tie for the minimum (the r = 0 row is exactly flat in phi, so a grid
    with only r = 0 ties across all phi).
    """
    r_grid = list(r_grid)
    phi_grid = list(phi_grid)
    if not r_grid or not phi_grid:
        raise ValueError("grids must be nonempty")
    points = []
    for r in r_grid:
        for phi in phi_grid:
            e = _contrast_factor(r, phi)
            points.append(
                LandscapePoint(r, phi, e, bayes_error_from_contrast(ensemble, e))
            )
    best = min(p.p_error for p in points)
    winners = [p for p in points if p.p_error == best]
    argmin = winners[0]
    tied = len(winners) > 1
    single = len(points) == 1
    degenerate = tied or single
    optimal = argmin.r == max(r_grid) and abs(argmin.phi) < 1e-12
    if single:
        note = "single grid point; nothing to compare"
    elif tied:
        note = f"{len(winners)} grid points tie at P = {best!r}; verdict not meaningful"
    elif optimal:
        note = "minimum at maximal r, phi = 0 as expected"
    else:
        note = f"minimum at (r={argmin.r}, phi={argmin.phi}), not the sharp-homodyne corner"
    return points, LandscapeSummary(argmin, optimal, degenerate, note)
