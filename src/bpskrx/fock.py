"""Truncated number-basis oracle.

Brute-force reference implementation used to cross-check every analytic
error-probability formula in the package: coherent vectors, displacement and
squeeze matrices built by matrix exponential, the on/off detector POVM, and
the resulting receiver error probability.

Truncation policy: every matrix exponential is computed on ``dim + PAD``
levels and then cut back to ``dim``. The exponential of an exactly
antihermitian generator is unitary to machine precision at any truncation,
so unitarity is certified on the padded matrix before the cut; the cut block
itself cannot be unitary (columns near the edge lose probability mass to the
discarded levels, for squeezers catastrophically so), which is why the
certificate is attached at production time rather than re-measured on the
block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TruncationError

__all__ = [
    "FockVector",
    "FockOperator",
    "PAD",
    "coherent_vector",
    "displacement_matrix",
    "squeeze_matrix",
    "receiver_error_fock",
]

#: Extra levels used for matrix exponentials before truncating back.
PAD = 20

#: Hard ceiling for the adaptive truncation search.
DIM_CAP = 512


@dataclass(frozen=True)
class FockVector:
    """State vector in the number basis.

    ``tail_bound`` is the reported norm deficit ``1 - sum |c_m|^2``;
    ``tail_warning`` is set when it exceeds the tolerance the caller asked
    for at construction.
    """

    amps: np.ndarray
    dim: int
    tail_bound: float
    tail_warning: bool = False

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        if amps.shape != (self.dim,):
            raise ValueError(f"amplitude vector shape {amps.shape}, dim {self.dim}")
        norm_sq = float(np.vdot(amps, amps).real)
        if norm_sq > 1.0 + 1e-12:
            raise ValueError(f"norm^2 = {norm_sq} exceeds 1")
        if self.tail_bound < -1e-12:
            raise ValueError(f"tail bound {self.tail_bound} is negative")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)


@dataclass(frozen=True)
class FockOperator:
    """Truncated unitary on the number basis.

    ``unitarity_defect`` is max|U^dag U - I| measured on the padded
    exponential before truncation and must be below 1e-8.
    """

    mat: np.ndarray
    dim: int
    unitarity_defect: float = 0.0

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(f"matrix shape {mat.shape}, dim {self.dim}")
        if self.unitarity_defect >= 1e-8:
            raise ValueError(f"unitarity defect {self.unitarity_defect:.3e} exceeds 1e-8")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)


def coherent_vector(alpha: float, dim: int, tail_tol: float = 1e-9) -> FockVector:
    """Coherent state of real amplitude ``alpha``, truncated at ``dim`` levels.

    Amplitudes ``c_m = exp(-alpha^2/2) alpha^m / sqrt(m!)`` are evaluated in
    log space so large ``m`` does not overflow. Sets ``tail_warning`` when
    the norm deficit exceeds ``tail_tol``.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if alpha == 0.0:
        amps = np.zeros(dim)
        amps[0] = 1.0
        return FockVector(amps, dim, 0.0)
    from scipy.special import gammaln
    m = np.arange(dim)
    log_mag = -0.5 * alpha * alpha + m * math.log(abs(alpha)) - 0.5 * gammaln(m + 1.0)
    amps = np.exp(log_mag)
    if alpha < 0.0:
        amps = amps * np.where(m % 2 == 0, 1.0, -1.0)
    tail = max(0.0, 1.0 - float(amps @ amps))
    return FockVector(amps, dim, tail, tail_warning=tail > tail_tol)


def _ladder(dim: int) -> np.ndarray:
    """Annihilation operator on ``dim`` levels."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def _padded_unitary(generator: np.ndarray, dim: int) -> tuple[np.ndarray, float]:
    """expm of an antihermitian generator; returns the dim x dim cut and the
    unitarity defect of the full padded matrix."""
    from scipy.linalg import expm
    u_full = expm(generator)
    defect = float(np.abs(u_full.conj().T @ u_full - np.eye(u_full.shape[0])).max())
    return u_full[:dim, :dim], defect


def displacement_matrix(beta: float, dim: int) -> FockOperator:
    """Displacement operator ``exp(beta (adag - a))`` for real ``beta``."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    a = _ladder(dim + PAD)
    mat, defect = _padded_unitary(beta * (a.T - a), dim)
    return FockOperator(mat, dim, defect)


def squeeze_matrix(r: float, dim: int) -> FockOperator:
    """Squeeze operator ``exp(r (a^2 - adag^2) / 2)`` for real ``r``.

    Matches the phase-space convention ``x -> exp(-r) x``: the x-quadrature
    variance of ``squeeze_matrix(r) |0>`` is ``exp(-2r)``.
    """
    if dim < 4:
        raise ValueError("dim must be at least 4")
    if abs(r) > 2.0:
        raise ValueError(f"|r| = {abs(r)} outside the oracle validity range [0, 2]")
    a = _ladder(dim + PAD)
    mat, defect = _padded_unitary(0.5 * r * (a @ a - a.T @ a.T), dim)
    return FockOperator(mat, dim, defect)


def _off_diagonal(eta: float, nu: float, dim: int) -> np.ndarray:
    """Diagonal ``exp(-nu) (1 - eta)^m`` of the on/off detector's no-click
    element, for quantum efficiency ``eta`` and mean dark count ``nu``."""
    m = np.arange(dim)
    return math.exp(-nu) * (1.0 - eta) ** m


def _error_at_dim(
    alpha: float, beta: float, r: float, eta: float, nu: float, dim: int
) -> float:
    """Single fixed-truncation evaluation of the receiver error."""
    disp = displacement_matrix(beta, dim).mat
    if r != 0.0:
        squeeze = squeeze_matrix(-r, dim).mat
        u = squeeze @ disp
    else:
        u = disp
    weights = _off_diagonal(eta, nu, dim)
    psi_plus = u @ coherent_vector(alpha, dim).amps
    psi_minus = u @ coherent_vector(-alpha, dim).amps
    p_off_plus = float(weights @ np.abs(psi_plus) ** 2)
    p_off_minus = float(weights @ np.abs(psi_minus) ** 2)
    return 0.5 * (p_off_plus + 1.0 - p_off_minus)


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
    TruncationError
        If the adaptive search hits the 512-level cap without converging.
    """
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
