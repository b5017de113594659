"""Multimode Gaussian-state algebra.

Covariance-matrix representation of Gaussian states, symplectic transforms,
and partial Gaussian measurements with conditional outputs, on numpy alone. A
Gaussian measurement is named by its seed state: a `GaussianState` whose
covariance is the measurement covariance and whose displacement is the
observed outcome. The scalar sharpness factor and Bayes error of a
single-mode measurement live in `optimize`.

Records are named tuples, as in `core`. `GaussianState` and `SymplecticOp`
check their values in ``__new__`` and hold read-only arrays: build them
through the class, never with ``_make`` or ``_replace``, which skip the check.

Conventions (fixed throughout the package):

* Quadrature ordering ``(x1, p1, x2, p2, ...)``.
* Vacuum covariance is the identity; a coherent state of real amplitude
  ``alpha`` has displacement ``[sqrt(2)*alpha, 0]``.
* A squeezer with parameter ``r`` maps ``x -> exp(-r) x``, ``p -> exp(r) p``.
* The symplectic form is ``Omega = diag([[0, 1], [-1, 0]], ...)`` per mode.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .core import (
    BinaryEnsemble,
    DimensionMismatchError,
    NotPureError,
    SingularMatrixError,
)

__all__ = [
    "GaussianState",
    "SymplecticOp",
    "GaussianMeasurementSpec",
    "ConditionedState",
    "ConditionalOutput",
    "symplectic_form",
    "vacuum",
    "random_symplectic",
    "apply_gaussian_unitary",
    "condition_on_partial_measurement",
    "binary_conditional_output",
    "pure_normal_form",
]

#: Condition-number guard for every matrix solve in this module.
COND_LIMIT = 1e12

_OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_OMEGAS: dict[int, np.ndarray] = {}


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form for the (x1, p1, ...) ordering.

    Built once per mode count and shared, so the array is read-only."""
    if n_modes not in _OMEGAS:
        _OMEGAS[n_modes] = _block_diag([_OMEGA_1] * n_modes)
        _OMEGAS[n_modes].setflags(write=False)
    return _OMEGAS[n_modes]


def _block_diag(blocks) -> np.ndarray:
    """Direct sum of square blocks: scipy's ``block_diag``, +0.0 elsewhere."""
    out = np.zeros((sum(len(b) for b in blocks),) * 2)
    i = 0
    for b in blocks:
        out[i : i + len(b), i : i + len(b)] = b
        i += len(b)
    return out


def _finite(a, what: str) -> np.ndarray:
    """Read-only float copy of ``a``, checked to hold no NaN or infinity;
    ``what`` names it in the error."""
    a = np.array(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has a non-finite entry")
    a.setflags(write=False)
    return a


def _checked_cov(cov, what: str) -> np.ndarray:
    """Finite read-only copy of a covariance, checked to be 2n x 2n, symmetric
    within 1e-12 and to satisfy cov + i*Omega >= 0: eigenvalues above -1e-10
    times its largest |entry|, or times 1 if that is larger. ``what`` names
    it in errors."""
    cov = _finite(cov, what)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
        raise DimensionMismatchError(f"{what} shape {cov.shape} is not 2n x 2n")
    if np.abs(cov - cov.T).max(initial=0.0) > 1e-12:
        raise ValueError(f"{what} is not symmetric within 1e-12")
    low = np.linalg.eigvalsh(cov + 1j * symplectic_form(len(cov) // 2)).min(initial=0.0)
    if low < -1e-10 * max(1.0, float(np.abs(cov).max(initial=0.0))):
        raise ValueError(
            f"{what} violates the uncertainty relation: min eig(cov + i Omega) = {low:.3e}"
        )
    return cov


class GaussianState(namedtuple("GaussianState", "cov disp")):
    """Gaussian state: covariance matrix plus displacement vector.

    Parameters
    ----------
    cov : (2n, 2n) real symmetric array
        Covariance matrix, vacuum = identity.
    disp : (2n,) real array
        Mean quadrature vector.
    """

    __slots__ = ()
    _role = "state"  # names the covariance in errors

    def __new__(cls, cov, disp):
        cov = _checked_cov(cov, f"{cls._role} covariance")
        disp = _finite(disp, "displacement")
        if disp.shape != (cov.shape[0],):
            raise DimensionMismatchError(
                f"displacement shape {disp.shape} does not match covariance {cov.shape}"
            )
        return tuple.__new__(cls, (cov, disp))

    @property
    def n_modes(self) -> int:
        return self.disp.shape[0] // 2


def vacuum(n_modes: int) -> GaussianState:
    """The n-mode vacuum."""
    return GaussianState(np.eye(2 * n_modes), np.zeros(2 * n_modes))


class SymplecticOp(namedtuple("SymplecticOp", "matrix")):
    """Gaussian unitary in phase space: ``z -> S z``."""

    __slots__ = ()

    def __new__(cls, matrix):
        s = _finite(matrix, "symplectic matrix")
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
            raise DimensionMismatchError(f"symplectic matrix shape {s.shape}")
        omega = symplectic_form(s.shape[0] // 2)
        if np.abs(s @ omega @ s.T - omega).max() > 1e-10:
            raise ValueError("matrix is not symplectic within 1e-10")
        return tuple.__new__(cls, (s,))

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


def _embed(n_modes: int, modes: tuple[int, ...], block: np.ndarray) -> np.ndarray:
    """Embed a small symplectic block acting on ``modes`` into 2n x 2n."""
    s = np.eye(2 * n_modes)
    idx = np.array([k for m in modes for k in (2 * m, 2 * m + 1)])
    s[idx[:, None], idx] = block
    return s


def _gate_block(gate: str, x: float) -> np.ndarray:
    """4x4 beamsplitter block at angle x; 2x2 rotation at angle x or squeezer at r = x."""
    c, s = math.cos(x), math.sin(x)
    if gate == "beamsplitter":  # the zeros keep the signs of c * eye(2) and s * eye(2)
        zc, zs = c * 0.0, s * 0.0
        return np.array([[c, zc, -s, -zs], [zc, c, -zs, -s], [s, zs, c, zc], [zs, s, zc, c]])
    if gate == "rotation":
        return np.array([[c, s], [-s, c]])
    return np.diag([math.exp(-x), math.exp(x)])


def random_symplectic(n_modes: int, rng: np.random.Generator) -> SymplecticOp:
    """Seeded generic symplectic: layered beamsplitters, rotations, squeezers.

    Each of the ``3 * n_modes`` layers applies a beamsplitter with
    uniform angle on a random mode pair (skipped for one mode), a uniform
    phase rotation on a random mode, and a squeeze with r uniform in
    [0, 1.5] on a random mode. Spans generic symplectics without Haar
    machinery; the draw order is fixed, so results are reproducible from
    the generator state. The gate matrices are multiplied, each on the
    left, and only the product is checked to be symplectic.
    """
    s = np.eye(2 * n_modes)
    for _ in range(3 * n_modes):
        if n_modes >= 2:
            i, j = rng.choice(n_modes, size=2, replace=False)
            block = _gate_block("beamsplitter", rng.uniform(0.0, 2.0 * math.pi))
            s = _embed(n_modes, (int(i), int(j)), block) @ s
        block = _gate_block("rotation", rng.uniform(0.0, 2.0 * math.pi))  # angle, then mode
        s = _embed(n_modes, (int(rng.integers(n_modes)),), block) @ s
        block = _gate_block("squeezer", rng.uniform(0.0, 1.5))
        s = _embed(n_modes, (int(rng.integers(n_modes)),), block) @ s
    return SymplecticOp(s)


def _measurement_cov(r: float, phi: float) -> np.ndarray:
    """Covariance of a general single-mode Gaussian measurement.

    ``[[c-, s], [s, c+]]`` with ``c_pm = cosh(2r) +- sinh(2r) cos(phi)`` and
    ``s = sinh(2r) sin(phi)``; determinant is exactly 1. ``(r, 0)`` with
    large ``r`` approaches sharp x-homodyne, ``r = 0`` is heterodyne.
    """
    ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    c_minus = ch - sh * math.cos(phi)
    c_plus = ch + sh * math.cos(phi)
    s = sh * math.sin(phi)
    return np.array([[c_minus, s], [s, c_plus]])


class GaussianMeasurementSpec(GaussianState):
    """A Gaussian measurement on K modes, named by its seed state: ``cov`` is
    the measurement covariance and ``disp`` the observed outcome (length 2K)."""

    __slots__ = ()
    _role = "measurement"

    @classmethod
    def homodyne_stack(cls, rs, phis, outcome=None) -> "GaussianMeasurementSpec":
        """Independent single-mode measurements on K modes; ``rs`` and
        ``phis`` are sequences of equal length."""
        if len(rs) != len(phis):
            raise ValueError(f"homodyne_stack got {len(rs)} rs but {len(phis)} phis")
        blocks = [_measurement_cov(r, p) for r, p in zip(rs, phis)]
        if not blocks:
            raise ValueError("homodyne_stack needs at least one mode; rs and phis give none")
        cov = _block_diag(blocks)
        return cls(cov, np.zeros(cov.shape[0]) if outcome is None else outcome)


def apply_gaussian_unitary(state: GaussianState, op: SymplecticOp) -> GaussianState:
    """Transform a state: cov -> S cov S^T, disp -> S disp."""
    if op.n_modes != state.n_modes:
        raise DimensionMismatchError(
            f"op acts on {op.n_modes} modes, state has {state.n_modes}"
        )
    cov = op.matrix @ state.cov @ op.matrix.T
    cov = 0.5 * (cov + cov.T)
    return GaussianState(cov, op.matrix @ state.disp)


def _schur(g: np.ndarray, na: int, shift: np.ndarray, rhs: np.ndarray, what: str):
    """Condition the leading ``na`` coordinates of ``g`` on the trailing ones.

    With ``g`` split into blocks A (leading), B (trailing), C (cross) and
    ``M = B + shift``, returns

    * the Schur complement ``A - C M^{-1} C^T``, symmetrized,
    * the gain ``K = M^{-1} C^T``, so ``C M^{-1} v = K^T v``,
    * ``M^{-1} rhs`` for the trailing-length columns of ``rhs``,
    * ``log det M``.

    ``M`` is checked against ``COND_LIMIT`` once, its Cholesky factor gives
    positive definiteness and ``log det M``, and one solve takes every
    right-hand side at once. An empty trailing block conditions on nothing:
    ``A``, an empty gain and ``log det = 0``.

    Raises
    ------
    SingularMatrixError
        If ``M`` is ill-conditioned or not positive definite; ``what`` names
        ``M`` in the message.
    """
    a, c = g[:na, :na], g[:na, na:]
    m = g[na:, na:] + shift
    if m.size == 0:
        return a, c.T, rhs, 0.0
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrixError(f"{what} is numerically singular", float(cond))
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(f"{what} is not positive definite", math.inf) from None
    x = np.linalg.solve(m, np.column_stack([c.T, rhs]))
    gain, solved = x[:, : c.shape[0]], x[:, c.shape[0] :]
    out = a - c @ gain
    return 0.5 * (out + out.T), gain, solved, 2.0 * float(np.log(np.diag(low)).sum())


class ConditionedState(NamedTuple):
    """One conditional branch: output covariance, displacement, and the
    normalized outcome density (integrates to 1 over the outcome vector)."""

    cov: np.ndarray
    disp: np.ndarray
    density: float


def condition_on_partial_measurement(
    state: GaussianState, keep_modes: int, meas: GaussianMeasurementSpec
) -> ConditionedState:
    """Condition a state on a Gaussian measurement of its trailing modes.

    The measurement acts on modes ``keep_modes+1 ... M``. With the covariance
    split into blocks A (kept), B (measured), C (cross), and the measurement
    covariance ``gamma_M`` with outcome ``d_M``:

    * output covariance  ``A - C (B + gamma_M)^{-1} C^T``  (outcome-independent),
    * output displacement ``d_A - C (B + gamma_M)^{-1} (d_B - d_M)``,
    * outcome density ``pi^{-K} det(B + gamma_M)^{-1/2}
      exp[-(d_B - d_M)^T (B + gamma_M)^{-1} (d_B - d_M)]``.

    The density is normalized: integrating it over all outcomes gives 1.

    Raises
    ------
    SingularMatrixError
        If ``B + gamma_M`` has condition number above ``COND_LIMIT``.
    """
    k = state.n_modes - keep_modes
    if k < 0 or meas.n_modes != k:
        raise DimensionMismatchError(
            f"measurement covers {meas.n_modes} modes, state leaves {k} to measure"
        )
    na = 2 * keep_modes
    v = state.disp[na:] - meas.disp
    cov_out, gain, w, logdet = _schur(state.cov, na, meas.cov, v[:, None], "B + gamma_M")
    disp_out = state.disp[:na] - gain.T @ v
    log_density = -k * math.log(math.pi) - 0.5 * logdet - float(v @ w[:, 0])
    return ConditionedState(cov_out, disp_out, math.exp(log_density))


class ConditionalOutput(NamedTuple):
    """Both conditional branches of the binary ensemble after a Gaussian
    operation with a partial measurement.

    The displacements decompose as ``D_pm = pm disp_signal + disp_offset``:
    ``disp_signal`` carries the signal amplitude and is outcome-independent,
    ``disp_offset`` is linear in the measurement outcome. Both branches share
    the covariance ``shared_cov`` exactly (same formula, no outcome
    dependence); ``weight_plus/minus`` are half the normalized outcome
    densities, the prior of each sign being 1/2.
    """

    state_plus: GaussianState
    state_minus: GaussianState
    weight_plus: float
    weight_minus: float
    shared_cov: np.ndarray
    disp_signal: np.ndarray
    disp_offset: np.ndarray


def binary_conditional_output(
    ensemble: BinaryEnsemble, op: SymplecticOp, meas: GaussianMeasurementSpec
) -> ConditionalOutput:
    """Feed |+alpha> and |-alpha> (signal in mode 1, vacuum elsewhere) through
    a Gaussian unitary, then condition on a measurement of the trailing modes.

    Returns both branches with the shared output covariance and the
    decomposition of their displacements into the antisymmetric signal part
    and the common outcome-dependent offset.
    """
    m_modes = op.n_modes
    k = meas.n_modes
    if k > m_modes:
        raise DimensionMismatchError("measurement covers more modes than the op")
    na = 2 * (m_modes - k)
    s = op.matrix
    cov = s @ s.T  # input covariance is the identity for coherent branches
    cov = 0.5 * (cov + cov.T)
    d_sig = np.zeros(2 * m_modes)
    d_sig[0] = math.sqrt(2.0) * ensemble.alpha
    s_sig = s @ d_sig

    # Both branches share the Schur complement; the trailing part of the
    # signal and the outcome are the two right-hand sides.
    v_sig, v_out = s_sig[na:], meas.disp
    cov, gain, w, logdet = _schur(
        cov, na, meas.cov, np.column_stack([v_sig, v_out]), "B + gamma_M"
    )
    w_sig, w_out = w[:, 0], w[:, 1]
    disp_signal = s_sig[:na] - gain.T @ v_sig
    disp_offset = gain.T @ v_out
    log_norm = -k * math.log(math.pi) - 0.5 * logdet
    dens_plus = math.exp(log_norm - float((v_sig - v_out) @ (w_sig - w_out)))
    dens_minus = math.exp(log_norm - float((v_sig + v_out) @ (w_sig + w_out)))

    # the covariance is checked once; the minus branch shares the checked array
    state_plus = GaussianState(cov, disp_offset + disp_signal)
    disp_minus = _finite(disp_offset - disp_signal, "displacement")
    state_minus = tuple.__new__(GaussianState, (state_plus.cov, disp_minus))
    return ConditionalOutput(
        state_plus=state_plus,
        state_minus=state_minus,
        weight_plus=0.5 * dens_plus,
        weight_minus=0.5 * dens_minus,
        shared_cov=state_plus.cov,
        disp_signal=disp_signal,
        disp_offset=disp_offset,
    )


def pure_normal_form(cov: np.ndarray) -> SymplecticOp:
    """Symplectic transform taking a pure covariance to the identity.

    For a pure Gaussian covariance ``Gamma = S S^T`` the inverse symmetric
    square root ``Gamma^{-1/2}`` is the inverse of the symplectic polar
    factor of ``S``, hence itself symplectic, and satisfies
    ``S_D Gamma S_D^T = I`` by construction. Computed from the singular
    value decomposition of the positive definite ``Gamma``, which is its
    eigendecomposition, so the output is deterministic.

    Raises
    ------
    ValueError
        If ``cov`` fails the checks of a state covariance (`GaussianState`).
    NotPureError
        If any symplectic eigenvalue of ``cov`` deviates from 1 by more
        than 1e-6 (the offending eigenvalue is reported).
    """
    cov = _checked_cov(cov, "covariance")
    # moduli of the eigenvalues of Omega cov: each symplectic eigenvalue twice
    nus = np.abs(np.linalg.eigvals(symplectic_form(len(cov) // 2) @ cov))
    worst = nus[np.argmax(np.abs(nus - 1.0))]
    if abs(worst - 1.0) > 1e-6:
        raise NotPureError(float(worst))
    # not np.linalg.eigh: its syevd vectors fail the 1e-10 check about twice as often
    v, w, _ = np.linalg.svd(cov)
    s_d = (v / np.sqrt(w)) @ v.T
    s_d = 0.5 * (s_d + s_d.T)
    return SymplecticOp(s_d)
