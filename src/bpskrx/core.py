"""Shared value types and exceptions for the BPSK receiver toolkit.

The two problem-defining records live here so that every other module
(Gaussian algebra, Fock oracle, receivers, optimizer, Monte Carlo, CLI)
can import them without circular dependencies:

* :class:`BinaryEnsemble` -- the discrimination instance {|alpha>, |-alpha>},
  sent with equal priors.
* :class:`DetectorModel` -- on/off detector and coupling imperfections
  (quantum efficiency eta, dark counts nu, transmittance tau, mode match xi).
* :class:`ReceiverResult` -- a computed error probability with its operating
  parameters and provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "BinaryEnsemble", "DetectorModel", "ReceiverResult", "PROVENANCES", "ConvergenceError",
    "CsvFormatError", "DimensionMismatchError", "NotPureError", "SingularMatrixError",
    "TruncationError", "UnsupportedConfigurationError",
]


class DimensionMismatchError(ValueError):
    """Operator and state dimensions do not match."""


class SingularMatrixError(ArithmeticError):
    """A matrix that must be inverted is singular or too ill-conditioned.

    Carries the estimated condition number in ``cond``.
    """

    def __init__(self, message: str, cond: float = math.inf):
        super().__init__(f"{message} (condition number ~ {cond:.3e})")
        self.cond = cond


class NotPureError(ValueError):
    """Input covariance is not a pure state. Carries the offending symplectic
    eigenvalue in ``eigenvalue``."""

    def __init__(self, eigenvalue: float):
        super().__init__(
            f"covariance is not pure: symplectic eigenvalue {eigenvalue!r} != 1"
        )
        self.eigenvalue = eigenvalue


class ConvergenceError(ArithmeticError):
    """An iterative solve failed. ``best`` carries the best point found."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class TruncationError(ArithmeticError):
    """Fock-space truncation could not reach the requested tolerance."""


class UnsupportedConfigurationError(ValueError):
    """The requested parameter combination has no implemented formula."""


class CsvFormatError(ValueError):
    """A CSV input does not conform to the sweep schema.

    ``line`` is the offending 1-based line number.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class BinaryEnsemble:
    """Binary coherent signal {|alpha>, |-alpha>}, each sent with prior 1/2.

    ``alpha`` is the real signal amplitude (mean photon number alpha**2).
    """

    alpha: float

    def __post_init__(self):
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha!r}")


@dataclass(frozen=True)
class DetectorModel:
    """On/off detector with coupling imperfections.

    eta: quantum efficiency in [0, 1].
    nu:  mean dark counts per pulse (the no-click probability gets a factor
         exp(-nu)), dimensionless.
    tau: transmittance of the displacement beamsplitter in [0, 1].
    xi:  mode-match factor between signal and local oscillator in [0, 1].
    """

    eta: float = 1.0
    nu: float = 0.0
    tau: float = 1.0
    xi: float = 1.0

    def __post_init__(self):
        for name, x in (("eta", self.eta), ("tau", self.tau), ("xi", self.xi)):
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
        if not (self.nu >= 0.0 and math.isfinite(self.nu)):
            raise ValueError(f"nu must be finite and >= 0, got {self.nu!r}")

    @property
    def ideal_coupling(self) -> bool:
        """True when tau = xi = 1 (no beamsplitter loss, perfect mode match)."""
        return self.tau == 1.0 and self.xi == 1.0


#: How a `ReceiverResult` number was obtained.
PROVENANCES = ("analytic", "montecarlo")

#: The receiver table of `receivers`, which validates tags. That module
#: imports this one, so the table is bound on first use; importing it on
#: every construction would cost microseconds per result.
_RECEIVERS = None


@dataclass(frozen=True)
class ReceiverResult:
    """Error probability of one receiver at one operating point.

    Optional operating parameters are populated only where they apply
    (beta_opt/r_opt for the displacement+squeezing receiver, gamma_opt for
    displacement-only receivers). ``provenance`` records how the number was
    obtained: "analytic" or "montecarlo".
    """

    receiver: str
    p_error: float
    provenance: str = "analytic"
    beta_opt: float | None = None
    r_opt: float | None = None
    gamma_opt: float | None = None
    detector: DetectorModel = field(default_factory=DetectorModel)

    def __post_init__(self):
        global _RECEIVERS
        if _RECEIVERS is None:
            from .receivers import RECEIVERS as _RECEIVERS
        if self.receiver not in _RECEIVERS:
            raise ValueError(f"unknown receiver tag {self.receiver!r}")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
