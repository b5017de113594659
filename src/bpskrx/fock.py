"""Truncated number-basis oracle.

Brute-force reference implementation used to cross-check every analytic
error-probability formula in the package: the two coherent signal states
are displaced and squeezed in the number basis and weighted with the on/off
detector's no-click element, giving the receiver error probability.

Truncation policy: the coherent vectors are cut at ``dim`` levels,
zero-padded to ``dim + PAD`` and evolved there under the banded displacement
and squeeze generators by `_expm_action`, Al-Mohy and Higham's scaled Taylor
method (SIAM J. Sci. Comput. 33, 2011) on numpy slices; the detector reads the
first ``dim`` levels. The pad keeps the truncated generators' hard edge away
from the levels that are read. The cut vectors must hold unit squared norm to
1e-8, or the evaluation raises `TruncationError`: a cut that drops the
coherent state's own mass (alpha = 40 at 256 levels) would otherwise give a
wrong value that further doublings agree with. The displaced amplitude
|alpha| + |beta| must not exceed 2 sqrt(n) on the n evolved levels, or the
evaluation raises before any Taylor step: past that the displaced states hold
none of their norm there, and the displacement's Taylor steps grow as
|beta| sqrt(n) without bound (1.8e8 term matvecs at beta = 1e6). The generators
are exactly antisymmetric, so evolution keeps the padded vector's norm: each
evolved squared norm must match its start to 1e-8, or the evaluation raises.
The mass left in the pad levels is not a gate: at a settled truncation it
reaches 4e-3 at alpha = 3, |beta| = 0.8, r = 1.5 while the error probability
still matches the closed form to 2e-15, because the detector weights decay
with photon number. Convergence is judged by the adaptive search in
`receiver_error_fock`, which starts at `_start_dim`, the evolved state's
photon-number extent, and evaluates its first pair of truncations (d, 2d)
in one propagation: each pair of rows evolves under its own cut band with
the larger truncation's Taylor steps, so the larger value is bitwise its
separate evaluation. Further rungs double up to `DIM_CAP`, the last one
clamped to it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import TruncationError

__all__ = ["receiver_error_fock"]

#: Extra levels the vectors are evolved on before the detector reads them.
PAD = 20

#: Hard ceiling for the adaptive truncation search.
DIM_CAP = 512


def _start_dim(alpha: float, beta: float, r: float) -> int:
    """First truncation of the adaptive search: ``ceil((A exp(|r|) + 3)^2)`` for
    the displaced amplitude ``A = |alpha| + |beta|``, at most ``DIM_CAP // 2``.

    Displacing ``+-alpha`` by ``beta`` gives coherent amplitudes of at most ``A``,
    and the squeeze stretches them by at most ``exp(|r|)``, so the square root of
    the evolved photon number centres below ``A exp(|r|)``; 3 more is the tail
    margin. The start is at least ``(|alpha| + 3)^2``, on which the coherent state
    of amplitude alpha holds its norm^2 to 1e-8 for every alpha below 13, where
    the cap takes over, so the start trips the coherent-mass gate only where the
    cap does. Strong squeezing and slowly decaying detector weights (eta near 0)
    need more levels, and the search doubles from here for them. The detector
    weights could shrink the start further at eta near 1, but the best start per
    input, found by search, was only 2% faster on the cross-check box. The
    amplitude is capped at 16, past which the start is at the cap anyway, so the
    square stays finite."""
    reach = min(abs(alpha) + abs(beta), 16.0) * math.exp(abs(r)) + 3.0
    return min(math.ceil(reach * reach), DIM_CAP // 2)


@functools.lru_cache(maxsize=16)
def _log_factorials(dim: int) -> np.ndarray:
    """``log(m!)`` for ``m < dim``, read-only: the adaptive search asks for the
    same few truncations again and again."""
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    log_fact.setflags(write=False)
    return log_fact


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
    amps = np.exp(-0.5 * alpha * alpha + m * math.log(abs(alpha)) - 0.5 * _log_factorials(dim))
    if alpha < 0.0:
        amps[1::2] = -amps[1::2]
    return amps


def _off_diagonal(eta: float, nu: float, dim: int) -> np.ndarray:
    """Diagonal ``exp(-nu) (1 - eta)^m`` of the on/off detector's no-click
    element, for quantum efficiency ``eta`` and mean dark count ``nu``."""
    m = np.arange(dim)
    return math.exp(-nu) * (1.0 - eta) ** m


#: Al-Mohy and Higham's double-precision theta_m, as scipy tabulates it: m Taylor
#: terms of exp(A) reach unit round-off once ||A||_1 <= theta_m.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3, 7: 2.38e-2,
    8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1,
    15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82,
    23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7,
    40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


def _expm_action(c: np.ndarray, k: int, psi: np.ndarray) -> np.ndarray:
    """``exp(G)`` on each row of ``psi``, for ``(G v)[j] = c[j-k] v[j-k] - c[j] v[j+k]``:
    algorithm 3.2 of Al-Mohy and Higham (2011), ``s`` Taylor steps of at most ``m``
    terms, ``m s`` least with ``||G||_1 <= s theta_m``. A step ends once two
    successive terms fall below unit round-off of the partial sum in the inf-norm;
    that norm is taken only once its running bound allows the stop.

    ``c`` holds one band per row, the largest last. ``(m, s)`` and the stop test
    are those of the rows that share the last band, so these rows evolve bitwise
    as they would alone."""
    n = psi.shape[-1]
    band = np.pad(c, ((0, 0), (k, k)))  # band[j] = G[j, j-k], band[j+k] = -G[j, j+k]
    norm = float((np.abs(band[:, :n]) + np.abs(band[:, k:])).max())
    costs = ((m, max(math.ceil(norm / theta), 1)) for m, theta in _THETA.items())
    m, s = min(costs, key=lambda ms: ms[0] * ms[1])
    scaled = band / (s * np.arange(1.0, m + 1.0)).reshape((m, 1, 1))
    lead = int((c == c[-1]).all(axis=1).sum())
    f = np.pad(psi, ((0, 0), (k, k)))  # zero pads of k make a matvec two slices
    term, nxt = np.zeros_like(f), np.zeros_like(f)
    prod, mag, col = np.empty_like(psi), np.empty((lead, f.shape[1])), np.empty(f.shape[1])

    def inf_norm(v):  # of the lead rows, in the buffers above
        return np.maximum.reduce(np.add.reduce(np.abs(v[-lead:], out=mag), out=col))

    for _ in range(s):
        term[:] = f
        c1 = bound = inf_norm(f)
        for j in range(m):
            out = nxt[:, k:-k]
            np.multiply(scaled[j, :, :n], term[:, :n], out=out)
            np.multiply(scaled[j, :, k:], term[:, 2 * k :], out=prod)
            out -= prod
            term, nxt = nxt, term
            c2 = inf_norm(term)
            f += term
            bound += c2
            if c1 + c2 <= 2.0**-53 * bound and c1 + c2 <= 2.0**-53 * inf_norm(f):
                break
            c1 = c2
    return f[:, k:-k]


def _error_at_dim(
    alpha: float, beta: float, r: float, eta: float, nu: float, dims: tuple[int, ...]
) -> tuple[float, ...]:
    """Fixed-truncation evaluations of the receiver error, one per entry of
    ``dims``, evolved together: row pair i holds the +-alpha vectors cut at
    ``dims[i]``, and its bands are zero past ``dims[i] + PAD - k``, so it evolves
    under exactly its own truncated generators."""
    n = max(dims) + PAD
    psi = np.zeros((2 * len(dims), n))
    for i, dim in enumerate(dims):
        psi[2 * i, :dim] = _coherent_amps(alpha, dim)
        psi[2 * i + 1, :dim] = _coherent_amps(-alpha, dim)
    start = (psi**2).sum(axis=1)
    for dim, miss in zip(dims, np.abs(start - 1.0).reshape(-1, 2).max(axis=1)):
        if miss >= 1e-8:
            raise TruncationError(
                f"coherent vectors cut at dim {dim} miss unit norm^2 by {miss:.3e} "
                f"(alpha={alpha}, beta={beta}, r={r})"
            )

    amplitude = abs(alpha) + abs(beta)
    if not amplitude <= 2.0 * math.sqrt(n):
        raise TruncationError(
            f"displaced amplitude {amplitude:.3e} does not fit dim {max(dims)} + {PAD}: "
            f"more than 2 sqrt({n}) (alpha={alpha}, beta={beta}, r={r})"
        )

    def rows(c, k):
        cut = np.repeat(np.array(dims) + (PAD - k), 2)
        return np.where(np.arange(n - k) < cut[:, None], c, 0.0)

    # displacement beta (a^dag - a), then squeeze (r/2) (a^dag^2 - a^2)
    psi = _expm_action(rows(beta * np.sqrt(np.arange(1.0, n)), 1), 1, psi)
    if r != 0.0:
        psi = _expm_action(
            rows(0.5 * r * np.sqrt(np.arange(1.0, n - 1) * np.arange(2.0, n)), 2), 2, psi
        )
    defects = np.abs((psi**2).sum(axis=1) - start).reshape(-1, 2).max(axis=1)
    for dim, defect in zip(dims, defects):
        if defect >= 1e-8:
            raise TruncationError(
                f"evolved norm^2 moved by {defect:.3e} at dim {dim} + {PAD} "
                f"(alpha={alpha}, beta={beta}, r={r})"
            )
    errors = []
    for i, dim in enumerate(dims):
        p_off_plus, p_off_minus = psi[2 * i : 2 * i + 2, :dim] ** 2 @ _off_diagonal(eta, nu, dim)
        errors.append(0.5 * (float(p_off_plus) + 1.0 - float(p_off_minus)))
    return tuple(errors)


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
    ``d = _start_dim(alpha, beta, r)``, ``ceil((A exp(|r|) + 3)^2)`` for
    ``A = |alpha| + |beta|`` (at most 256, so one doubling stays under the cap),
    evaluate d and 2d together, then step to ``min(2 d, 512)`` until the result
    moves by less than 1e-10, and give up once 512 itself has not settled. A
    last rung from d to 512 is shorter than a doubling and must settle below
    ``1e-10 (512 - d) / d``: a 480 -> 512 rung sees about a fifteenth of a
    doubling's change, and at a plain 1e-10 the rungs 480 -> 512 and
    504 -> 512 returned values 1.6e-11 and 2e-10 off the closed form.

    Raises
    ------
    ValueError
        If alpha or beta is not finite, |r| > 2 or r is not finite, eta is
        outside [0, 1], nu is negative or not finite, or ``dim`` is not an int >= 1.
    TruncationError
        If the adaptive search reaches the 512-level cap without converging
        (the message names the truncations tried and the last change), the
        cut coherent vectors miss unit norm^2 by 1e-8 or more, the displaced
        amplitude exceeds 2 sqrt(dim + PAD), or an evolved vector's norm
        drifts by 1e-8 or more.
    """
    for name, value, ok, rule in (
        ("alpha", alpha, math.isfinite(alpha), "finite"),
        ("beta", beta, math.isfinite(beta), "finite"),
        ("r", r, abs(r) <= 2.0, "finite with |r| <= 2"),
        ("eta", eta, 0.0 <= eta <= 1.0, "in [0, 1]"),
        ("nu", nu, 0.0 <= nu < math.inf, "finite and >= 0"),
        ("dim", dim, dim is None or (type(dim) is int and dim >= 1), "an int >= 1"),
    ):
        if not ok:
            raise ValueError(f"{name} = {value!r} is outside the oracle domain: must be {rule}")
    if dim is not None:
        return _error_at_dim(alpha, beta, r, eta, nu, (dim,))[0]
    d = _start_dim(alpha, beta, r)
    dims = [d, 2 * d]
    prev, cur = _error_at_dim(alpha, beta, r, eta, nu, (d, 2 * d))
    # 1e-10 on a doubling; a last rung clamped to the cap is shorter, and settles that much tighter
    while not abs(cur - prev) < 1e-10 * ((dims[-1] - dims[-2]) / dims[-2]):
        if dims[-1] == DIM_CAP:
            raise TruncationError(
                f"receiver error did not settle below 1e-10 by dim {DIM_CAP}: "
                f"tried dims {dims}, last change {abs(cur - prev):.3e} "
                f"(alpha={alpha}, beta={beta}, r={r})"
            )
        dims.append(min(2 * dims[-1], DIM_CAP))
        prev, (cur,) = cur, _error_at_dim(alpha, beta, r, eta, nu, (dims[-1],))
    return cur
