"""Transcendental optimality conditions of the near-optimal receivers.

Root solvers for the displacement photon receivers (optimal displacement
gamma, and the joint displacement/squeezing pair for the squeeze-assisted
variant), both built on one inversion of ``w tanh w = c``, and a grid verifier
for the claim that sharp x-homodyne is the best single-mode Gaussian
measurement on the binary coherent ensemble, with the sharpness factor and
Bayes error it scans. All on Python floats, without numpy or scipy: `_brentq`
and `_erfc` are step-for-step ports of scipy's ``brentq`` and ``erfc``.
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
    "contrast_factor",
    "bayes_error_from_contrast",
]

#: Bracket end in r of the type1 solve; r* is about ln(1/eta)/2 + 0.35.
_R_END = 12.0
_MAXITER = 100  #: iteration cap of `_brentq`, SciPy's ``brentq`` default


class RootResult(NamedTuple):
    """Outcome of a root solve.

    value : the solution; a float for scalar solves, a (beta, r) tuple for
        the two-parameter solver.
    residual : achieved max |f| at the solution; for gamma, ``|w tanh w - c|``
        of its inversion (0 where the tanh saturates).
    iterations : Brent iterations spent; for the type1 pair, of its w-solve.
    """

    value: float | tuple[float, float]
    residual: float
    iterations: int


def _brentq(f, xa: float, xb: float, xtol: float = 1e-15):
    """Brent's method on a sign-changing bracket; returns (root, iterations).

    A step-for-step port of ``brentq.c`` in SciPy (BSD-3-Clause, Copyright
    (c) 2001-2002 Enthought, Inc. and 2003-2024 SciPy Developers): root and
    iterations of SciPy's ``brentq(f, xa, xb, xtol)`` with rtol = 4 eps;
    ``xtol = 0``, which SciPy refuses, leaves only the relative tolerance.
    Where SciPy raises on a same-sign bracket, a NaN from ``f`` or after its
    100 iterations, this raises `ConvergenceError` with the last finite
    iterate in ``best`` (None at the ends); ``< 0`` on nonzero non-NaN is
    C's signbit. ``|x|`` is ``x if x >= 0.0 else -x`` and ``min(a, b)`` is
    ``b if b < a else a``, the same comparisons without a call.
    """
    rtol = 4.0 * sys.float_info.epsilon
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre != fpre or fcur != fcur:
        raise ConvergenceError(f"f is NaN at an end of [{xa}, {xb}]")
    if fpre == 0.0 or fcur == 0.0:
        return (xpre if fpre == 0.0 else xcur), 0
    if (fpre < 0.0) == (fcur < 0.0):
        raise ConvergenceError(f"f({xa}) and f({xb}) have the same sign")
    for i in range(1, _MAXITER + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        afcur = fcur if fcur >= 0.0 else -fcur
        afblk = fblk if fblk >= 0.0 else -fblk
        if afblk < afcur:
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            afcur = afblk
        delta = (xtol + rtol * (xcur if xcur >= 0.0 else -xcur)) / 2
        sbis = (xblk - xcur) / 2
        asbis = sbis if sbis >= 0.0 else -sbis
        if fcur == 0.0 or asbis < delta:
            return xcur, i
        aspre = spre if spre >= 0.0 else -spre
        if aspre > delta and afcur < (fpre if fpre >= 0.0 else -fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; a zero divisor makes C's step inf or NaN
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            bound = 3 * asbis - delta
            if 2 * (stry if stry >= 0.0 else -stry) < (bound if bound < aspre else aspre):
                spre, scur = scur, stry  # good short step
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        ascur = scur if scur >= 0.0 else -scur
        xcur += scur if ascur > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if fcur != fcur:
            raise ConvergenceError(f"f({xcur!r}) is NaN", best=xpre)
    raise ConvergenceError(f"no convergence after {_MAXITER} iterations", best=xcur)


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
    c/6)`` below 1e-12, else the `_brentq` root, to relative precision, within
    ``max(c, sqrt c) <= w <= (c + sqrt(c (c + 4)))/2``."""
    if c < 1e-12:
        return math.sqrt(c) * (1.0 + c / 6.0), 0
    hi, tanh = 0.5 * (c + math.sqrt(c) * math.sqrt(c + 4.0)), math.tanh
    return _brentq(lambda w: w * tanh(w) - c, max(c, math.sqrt(c)), hi, xtol=0.0)


def solve_type1_params(alpha: float, eta: float = 1.0) -> RootResult:
    """Jointly optimal displacement and squeezing of the squeeze-assisted
    photon receiver.

    One bracketed root in w = 4 eta alpha beta / G: where the first residual
    vanishes, beta = alpha / tanh w, G = 4 eta alpha^2 / (w tanh w) and
    x = exp(2r) = (2 - eta) / (G - eta), so r runs over the reals as
    w tanh w runs over (0, 4 alpha^2). The second residual times beta / alpha,
    4 alpha^2 / sinh^2 w - (x - 1)(x + 1) G / H, its first term taken as
    (4 alpha exp(-w) / expm1(-2w))^2 so that it cannot overflow, is solved by
    `_brentq` to relative precision between a lower bound on the w of
    r = -`_R_END` and the w of r = +`_R_END`; ``iterations`` counts that solve.

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

    def reduced(w: float) -> float:
        c = w * tanh(w)
        x = k * (c / (a4 - c))
        q = alpha4 * exp(-w) / expm1(-2.0 * w)
        return q * q - (x - 1.0) * (x + 1.0) * (eta_a4 / c) / (eta + eta2 * x)

    try:
        c_lo = a4 / (1.0 + k * math.exp(2.0 * _R_END))
        w_hi = _w_tanh_w_inverse(a4 / (1.0 + k * math.exp(-2.0 * _R_END)))[0]
        if not (c_lo > 0.0 and w_hi * math.tanh(w_hi) < a4):
            raise ConvergenceError(f"floats hold no bracket for |r| <= {_R_END}")
        w, iterations = _brentq(reduced, max(c_lo, math.sqrt(c_lo)), w_hi, xtol=0.0)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{failed}: {exc}") from exc
    c = w * math.tanh(w)
    beta, r = alpha / math.tanh(w), 0.5 * math.log(k * (c / (a4 - c)))
    r1, r2 = type1_residuals(alpha, beta, r, eta)
    if not (abs(r1) < 1e-10 * max(1.0, alpha)
            and abs(r2) < 1e-10 * max(1.0, 4.0 * (alpha * alpha + beta * beta))):
        raise ConvergenceError(f"{failed}: residuals ({r1:.3e}, {r2:.3e})", best=(beta, r))
    return RootResult((beta, r), max(abs(r1), abs(r2)), iterations)


def contrast_factor(r: float, phi: float) -> float:
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


# cephes ndtr.c as shipped in SciPy (scipy.special, BSD-3-Clause): erfc(x) =
# exp(-x^2) P(x)/Q(x) on 1 <= x < 8 and exp(-x^2) R(x)/S(x) beyond, erf(x) =
# x T(x^2)/U(x^2) on |x| < 1. Highest power first; Q, S, U lead with 1.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
#: ln(DBL_MAX); exp(-x^2) underflows past it.
_MAXLOG = 7.09782712893383996843e2


def _polevl(x: float, coef: tuple) -> float:
    """Horner evaluation in cephes order. With a leading 1 the first two
    steps give ``x + coef[1]`` exactly, so this also serves as p1evl."""
    ans = 0.0
    for c in coef:
        ans = ans * x + c
    return ans


def _erfc(a: float) -> float:
    """Complementary error function, ported step for step from ``erfc`` and
    ``erf`` in cephes ``ndtr.c`` (Stephen L. Moshier) as shipped in SciPy,
    so it equals ``scipy.special.erfc`` bitwise. Past ``_MAXLOG`` it
    returns 0, or 2 for negative ``a``."""
    if a != a:
        return math.nan
    x = abs(a)
    if x < 1.0:  # 1 - erf(a); erf is odd, and the sign flips exactly
        z = a * a
        return 1.0 - a * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    z = -a * a
    if z >= -_MAXLOG:
        p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
        y = (math.exp(z) * _polevl(x, p)) / _polevl(x, q)
        y = 2.0 - y if a < 0 else y
        if y != 0.0:
            return y
    return 2.0 if a < 0 else 0.0


def bayes_error_from_contrast(ensemble: BinaryEnsemble, e: float) -> float:
    """Bayesian error probability of a Gaussian measurement with sharpness e:
    ``erfc(sqrt(2 e) alpha) / 2``. The outcome densities N(+-mu, Sigma) have
    ``mu^T Sigma^-1 mu = 4 e alpha^2``. Zero amplitude or ``e = 0`` carry no
    information, so the best strategy guesses and errs half the time.
    """
    alpha = ensemble.alpha
    if alpha == 0.0 or e <= 0.0:
        return 0.5
    return float(0.5 * _erfc(math.sqrt(2.0 * e) * alpha))


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
            e = contrast_factor(r, phi)
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
