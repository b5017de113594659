"""Truncated number-basis oracle.

Brute-force reference implementation used to cross-check every analytic
error-probability formula in the package: the two coherent signal states
are displaced and squeezed in the number basis and weighted with the on/off
detector's no-click element, giving the receiver error probability.

Truncation policy: the coherent vectors are cut at ``dim`` levels,
zero-padded to ``dim + PAD`` and evolved there by ``expm_multiply`` under the
sparse displacement and squeeze generators; the detector reads the first
``dim`` levels. The pad keeps the hard edge of the truncated generators away
from the levels that are read. The generators are exactly antisymmetric, so
evolution keeps the padded vector's norm: each evolved squared norm must
match its start to 1e-8, or the evaluation raises `TruncationError`. The
mass left in the pad levels is not a gate: at a settled truncation it
reaches 4e-3 at alpha = 3, |beta| = 0.8, r = 1.5 while the error probability
still matches the closed form to 2e-15, because the detector weights decay
with photon number. Convergence is judged by the adaptive search in
`receiver_error_fock`.
"""

from __future__ import annotations

import math

import numpy as np

from .core import TruncationError

__all__ = ["PAD", "receiver_error_fock"]

#: Extra levels the vectors are evolved on before the detector reads them.
PAD = 20

#: Hard ceiling for the adaptive truncation search.
DIM_CAP = 512


def _coherent_amps(alpha: float, dim: int) -> np.ndarray:
    """Number-basis amplitudes ``exp(-alpha^2/2) alpha^m / sqrt(m!)`` of the
    coherent state of real amplitude ``alpha``, for ``m < dim``.

    Evaluated in log space so large ``m`` does not overflow.
    """
    if alpha == 0.0:
        amps = np.zeros(dim)
        amps[0] = 1.0
        return amps
    m = np.arange(dim)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    amps = np.exp(-0.5 * alpha * alpha + m * math.log(abs(alpha)) - 0.5 * log_fact)
    if alpha < 0.0:
        amps[1::2] = -amps[1::2]
    return amps


def _off_diagonal(eta: float, nu: float, dim: int) -> np.ndarray:
    """Diagonal ``exp(-nu) (1 - eta)^m`` of the on/off detector's no-click
    element, for quantum efficiency ``eta`` and mean dark count ``nu``."""
    m = np.arange(dim)
    return math.exp(-nu) * (1.0 - eta) ** m


def _error_at_dim(
    alpha: float, beta: float, r: float, eta: float, nu: float, dim: int
) -> float:
    """Single fixed-truncation evaluation of the receiver error."""
    from scipy.sparse import diags_array
    from scipy.sparse.linalg import expm_multiply

    n = dim + PAD
    a = diags_array(np.sqrt(np.arange(1.0, n)), offsets=1, format="csr")
    psi = np.zeros((n, 2))
    psi[:dim, 0] = _coherent_amps(alpha, dim)
    psi[:dim, 1] = _coherent_amps(-alpha, dim)
    start = (psi**2).sum(axis=0)
    psi = expm_multiply(beta * (a.T - a), psi)
    if r != 0.0:
        psi = expm_multiply(-0.5 * r * (a @ a - a.T @ a.T), psi)
    defect = float(np.abs((psi**2).sum(axis=0) - start).max())
    if defect >= 1e-8:
        raise TruncationError(
            f"evolved norm^2 moved by {defect:.3e} at dim {dim} + {PAD} "
            f"(alpha={alpha}, beta={beta}, r={r})"
        )
    p_off_plus, p_off_minus = _off_diagonal(eta, nu, dim) @ psi[:dim] ** 2
    return 0.5 * (float(p_off_plus) + 1.0 - float(p_off_minus))


def receiver_error_fock(
    alpha: float,
    beta: float,
    r: float,
    eta: float = 1.0,
    nu: float = 0.0,
    dim: int | None = None,
) -> float:
    """Error probability of the displace-and-squeeze on/off receiver,
    evaluated by brute force in the number basis.

    Both signs of the signal are displaced by ``beta`` and squeezed with
    parameter ``-r`` (so positive ``r`` squeezes the x quadrature the same
    way the analytic formulas count it), then measured by the on/off
    detector; a click means "minus" was sent. The ``(beta, r)`` arguments
    parameterize the closed-form expression in `optimize`; the realized
    unitary, written squeeze-first, is displacement ``beta * exp(r)`` after
    squeeze ``-r``.

    With ``dim=None`` the truncation is chosen adaptively: start at
    ``ceil(8 (alpha + |beta| + 1)^2 exp(2|r|))`` (clamped to 256 so one
    doubling stays under the cap), double until the result moves by less
    than 1e-10, give up at 512.

    Raises
    ------
    ValueError
        If alpha or beta is not finite, |r| > 2 or r is not finite, eta is
        outside [0, 1], nu is negative or not finite, or ``dim < 1``.
    TruncationError
        If the adaptive search hits the 512-level cap without converging,
        or an evolved vector's norm drifts by 1e-8 or more.
    """
    for name, value, ok, rule in (
        ("alpha", alpha, math.isfinite(alpha), "finite"),
        ("beta", beta, math.isfinite(beta), "finite"),
        ("r", r, abs(r) <= 2.0, "finite with |r| <= 2"),
        ("eta", eta, 0.0 <= eta <= 1.0, "in [0, 1]"),
        ("nu", nu, 0.0 <= nu < math.inf, "finite and >= 0"),
        ("dim", dim, dim is None or dim >= 1, ">= 1"),
    ):
        if not ok:
            raise ValueError(f"{name} = {value!r} is outside the oracle domain: must be {rule}")
    if dim is not None:
        return _error_at_dim(alpha, beta, r, eta, nu, dim)
    start = math.ceil(8.0 * (abs(alpha) + abs(beta) + 1.0) ** 2 * math.exp(2.0 * abs(r)))
    d = min(max(start, 8), 256)
    prev = _error_at_dim(alpha, beta, r, eta, nu, d)
    while 2 * d <= DIM_CAP:
        d *= 2
        cur = _error_at_dim(alpha, beta, r, eta, nu, d)
        if abs(cur - prev) < 1e-10:
            return cur
        prev = cur
    raise TruncationError(
        f"receiver error did not settle below 1e-10 by dim {DIM_CAP} "
        f"(alpha={alpha}, beta={beta}, r={r})"
    )
