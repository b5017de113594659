"""Closed-form error probabilities of the binary coherent-state receivers.

Everything here evaluates the discrimination error of the ensemble
{|alpha>, |-alpha>}: the quantum-mechanical floor, the sharp
homodyne (Gaussian) limit, and the photon-counting receivers that displace
(and optionally squeeze) the signal before an on/off detector.

Decision rule for all click receivers: the displacement is aimed so the
"minus" branch is (approximately) nulled, so no click decides minus and a
click decides plus.

Numerical policy: every formula is arranged so small error probabilities
come out as sums of nonnegative exponentially small terms (``expm1`` where
the textbook form would subtract sinh products from 1/2), keeping full
relative precision down to the underflow floor; a click exponent's gap is
built from the nulling residual, never as a difference (`_click_result`).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .core import (
    BinaryEnsemble,
    DetectorModel,
    ReceiverResult,
    UnsupportedConfigurationError,
)
from .optimize import (
    bayes_error_from_contrast,
    displaced_squeezed_error,
    solve_type1_params,
    solve_type2_gamma_imperfect,
)

__all__ = [
    "RECEIVERS",
    "coupled_tag",
    "helstrom",
    "homodyne_limit",
    "homodyne_limit_attenuated",
    "kennedy_error",
    "kennedy_raw_error",
    "type1_error",
    "type2_error",
    "type2_imperfect_error",
    "mean_intensity",
]


def _require(what: str, detector: DetectorModel) -> None:
    """The coupling guard: ``what`` is implemented for tau = xi = 1 only."""
    if not detector.ideal_coupling:
        raise UnsupportedConfigurationError(
            f"{what} assumes tau = xi = 1; use the imperfect variant "
            f"(got tau={detector.tau}, xi={detector.xi})"
        )


def coupled_tag(name: str, detector: DetectorModel) -> str:
    """Row tag of a receiver with an imperfect-coupling variant: ``name`` at
    tau = xi = 1, ``name + "_imperfect"`` otherwise."""
    return name if detector.ideal_coupling else f"{name}_imperfect"


def helstrom(ensemble: BinaryEnsemble) -> float:
    """Minimum error probability allowed by quantum mechanics.

    ``(1 - sqrt(1 - exp(-4 alpha^2)))/2``, computed as
    ``u / (2 (1 + sqrt(1-u)))`` with ``u = exp(-4 alpha^2)`` so the value
    keeps full relative precision deep into the tail (the naive difference
    dies at ~1e-17).
    """
    u = math.exp(-4.0 * ensemble.alpha**2)
    return u / (2.0 * (1.0 + math.sqrt(1.0 - u)))


def homodyne_limit(ensemble: BinaryEnsemble) -> float:
    """Error of ideal sharp x-homodyne, the best Gaussian strategy:
    ``erfc(sqrt(2) alpha)/2``, the shared Bayes formula at sharpness 1."""
    return bayes_error_from_contrast(ensemble, 1.0)


def homodyne_limit_attenuated(ensemble: BinaryEnsemble, detector: DetectorModel) -> float:
    """Homodyne limit with the signal attenuated to ``sqrt(tau) alpha``.

    Companion curve to `homodyne_limit` for comparisons against receivers
    that lose a tau fraction of the signal in a tap beamsplitter; emitted
    separately so either convention can be read off.
    """
    attenuated = BinaryEnsemble(math.sqrt(detector.tau) * ensemble.alpha)
    return bayes_error_from_contrast(attenuated, 1.0)


def _click_result(
    tag: str, ensemble: BinaryEnsemble, gamma: float, null: float, detector: DetectorModel
) -> ReceiverResult:
    """Row ``tag``: error of a displacement receiver with nulling
    amplitude ``gamma`` under the full detector model, given its nulling
    residual ``null = gamma - xi sqrt(tau) alpha``.

    Exponent bookkeeping: with ``a = eta (tau alpha^2 + gamma^2)`` and
    ``b = 2 eta xi sqrt(tau) alpha gamma``,

        P = 1/2 [ -expm1(-nu) + exp(-nu) (-expm1(b - a) + exp(-b - a)) ]

    which equals ``1/2 - exp(-nu - a) sinh(b)`` but never subtracts two
    nearly equal halves, and ``a - b = eta [null^2 + tau alpha^2 (1 - xi)(1 +
    xi)] >= 0`` is a sum of nonnegative terms, so it carries no cancellation
    either. Where ``a + b`` is not finite (``a = inf`` at alpha^2 = 1e308)
    the call raises UnsupportedConfigurationError.
    """
    alpha = ensemble.alpha
    eta, nu, tau, xi = detector.eta, detector.nu, detector.tau, detector.xi
    a = eta * (tau * alpha * alpha + gamma * gamma)
    total = a + 2.0 * eta * xi * math.sqrt(tau) * alpha * gamma
    if not total < math.inf:  # an overflowed square, or 0 * inf
        raise UnsupportedConfigurationError(f"{tag} click probability overflows at alpha={alpha!r}")
    gap = eta * (null * null + tau * alpha * alpha * (1.0 - xi) * (1.0 + xi))
    twice_p = -math.expm1(-nu) + math.exp(-nu) * (-math.expm1(-gap) + math.exp(-total))
    return ReceiverResult(tag, 0.5 * twice_p, "analytic", None, None, gamma, detector)


def kennedy_error(
    ensemble: BinaryEnsemble, detector: DetectorModel = DetectorModel()
) -> ReceiverResult:
    """Displacement receiver with the non-optimized nulling choice.

    Displaces by ``gamma = sqrt(tau) alpha``, exactly cancelling the
    attenuated minus branch (for an ideal-coupling detector this is the
    textbook ``gamma = alpha``, and the error reduces to
    ``exp(-4 alpha^2)/2`` at eta = 1, nu = 0). See `kennedy_raw_error` for
    the variant that ignores the attenuation when aiming.
    """
    gamma = math.sqrt(detector.tau) * ensemble.alpha
    tag = coupled_tag("kennedy", detector)
    return _click_result(tag, ensemble, gamma, gamma * (1.0 - detector.xi), detector)


def kennedy_raw_error(
    ensemble: BinaryEnsemble, detector: DetectorModel = DetectorModel()
) -> ReceiverResult:
    """Displacement receiver aimed at the unattenuated amplitude.

    Uses ``gamma = alpha`` regardless of tau, the convention of a receiver
    calibrated before the loss. Coincides with `kennedy_error` at tau = 1.
    """
    null = ensemble.alpha * (1.0 - detector.xi * math.sqrt(detector.tau))
    return _click_result("kennedy_raw", ensemble, ensemble.alpha, null, detector)


def type2_error(
    ensemble: BinaryEnsemble, detector: DetectorModel = DetectorModel()
) -> ReceiverResult:
    """Displacement receiver with the optimal nulling amplitude.

    ``gamma_opt`` solves ``alpha = gamma tanh(2 eta alpha gamma)``; the
    error is ``1/2 - exp(-nu - eta (alpha^2 + gamma^2)) sinh(2 eta alpha
    gamma)`` in its stable arrangement. Always at or below the
    non-optimized receiver. Strictly below the homodyne limit at an ideal
    detector (eta = 1, nu = 0), but not at every efficiency: at alpha^2 = 1,
    eta = 0.5 it gives 0.0544 against 0.0228. The ideal-coupling case of
    `type2_imperfect_error`.
    """
    _require("the optimized displacement receiver", detector)
    return type2_imperfect_error(ensemble, detector)


def type1_error(
    ensemble: BinaryEnsemble, detector: DetectorModel = DetectorModel()
) -> ReceiverResult:
    """Squeeze-plus-displace receiver at its jointly optimal parameters.

    Solves the coupled stationarity conditions for (beta_opt, r_opt) and
    evaluates the closed-form error there. Setting r = 0 in the formula
    recovers the optimized displacement receiver, so this one is never
    worse. At alpha = 0 every (beta, r) gives P = 1/2, so there is no
    optimum to report and the call raises UnsupportedConfigurationError.
    """
    _require("the squeeze-displace receiver", detector)
    if ensemble.alpha == 0.0:
        raise UnsupportedConfigurationError(
            "the squeeze-displace receiver has no optimum at alpha = 0: "
            "every (beta, r) gives P = 1/2"
        )
    beta, r = solve_type1_params(ensemble.alpha, detector.eta).value
    p_error = displaced_squeezed_error(ensemble.alpha, beta, r, detector.eta, detector.nu)
    return ReceiverResult("type1", p_error, "analytic", beta, r, None, detector)


def mean_intensity(
    sign: int, ensemble: BinaryEnsemble, beta: float, detector: DetectorModel
) -> float:
    """Mean photon number hitting the detector after displacing the
    (possibly attenuated, imperfectly mode-matched) signal by ``beta``.

    ``I = (1 - xi)(tau alpha^2 + beta^2) + xi (sign sqrt(tau) alpha + beta)^2``:
    the matched fraction xi interferes coherently, the rest adds in power.
    Where the result is not finite (an overflowed square, an inf term, or
    0 * inf) the call raises UnsupportedConfigurationError.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    alpha, tau, xi = ensemble.alpha, detector.tau, detector.xi
    try:
        coherent = (sign * math.sqrt(tau) * alpha + beta) ** 2
    except OverflowError:
        coherent = math.nan
    out = (1.0 - xi) * (tau * alpha * alpha + beta * beta) + xi * coherent
    if not math.isfinite(out):
        raise UnsupportedConfigurationError(f"mean intensity overflows at alpha={alpha!r}")
    return out


def type2_imperfect_error(
    ensemble: BinaryEnsemble, detector: DetectorModel
) -> ReceiverResult:
    """Optimized displacement receiver with transmission and mode-match
    imperfections folded in.

    The error is ``1/2 - exp(-nu - a) sinh(b)`` (stable form, see
    `_click_result`), and ``gamma_opt`` minimizes it: ``xi sqrt(tau) alpha =
    gamma tanh(b)`` with ``b = 2 eta xi sqrt(tau) alpha gamma``. At ``tau =
    xi = 1`` the row is tagged ``type2``.
    """
    alpha, gamma = ensemble.alpha, solve_type2_gamma_imperfect(ensemble.alpha, detector).value
    e = math.exp(-4.0 * detector.eta * detector.xi * math.sqrt(detector.tau) * alpha * gamma)
    null = 2.0 * gamma * e / (1.0 + e)  # gamma (1 - tanh b), by the gamma condition
    return _click_result(coupled_tag("type2", detector), ensemble, gamma, null, detector)


class _Receiver(NamedTuple):
    """One entry of the receiver table."""

    evaluate: Callable[[BinaryEnsemble, DetectorModel], ReceiverResult]
    #: Detector fields that enter the formula; the CSV blanks the others.
    detector_cols: tuple[str, ...]


_IDEAL = ("eta", "nu")
_COUPLED = ("eta", "nu", "tau", "xi")

#: Every receiver the package knows, in the order the CLI lists them: tag ->
#: evaluator and CSV detector columns. The one place to add a receiver.
#: An evaluator may name its row after the detector's coupling (see
#: `coupled_tag`): ``kennedy`` with coupling loss gives a
#: ``kennedy_imperfect`` row, ``type2_imperfect`` at tau = xi = 1 a ``type2``
#: row.
RECEIVERS: dict[str, _Receiver] = {
    "helstrom": _Receiver(lambda ens, det: ReceiverResult("helstrom", helstrom(ens)), ()),
    "homodyne": _Receiver(
        lambda ens, det: ReceiverResult("homodyne", homodyne_limit(ens)), ()
    ),
    "homodyne_tau": _Receiver(
        lambda ens, det: ReceiverResult(
            "homodyne_tau", homodyne_limit_attenuated(ens, det), detector=det
        ),
        ("tau",),
    ),
    "kennedy": _Receiver(kennedy_error, _IDEAL),
    "kennedy_imperfect": _Receiver(kennedy_error, _COUPLED),
    "kennedy_raw": _Receiver(kennedy_raw_error, _COUPLED),
    "type1": _Receiver(type1_error, _IDEAL),
    "type2": _Receiver(type2_error, _IDEAL),
    "type2_imperfect": _Receiver(type2_imperfect_error, _COUPLED),
}
