"""Binary coherent-state discrimination toolkit.

Error probabilities for receivers distinguishing |alpha> from |-alpha>:
the quantum floor, the homodyne (best Gaussian) limit, and near-optimal
photon-counting receivers built from displacement, squeezing, and on/off
detection, with their transcendental parameter optimizations, a truncated
number-basis oracle, multimode Gaussian conditioning algebra, and a
click-level Monte Carlo. The ``bpskrx`` console script exposes sweeps,
optimizer queries, landscape verification, simulation, and SVG plotting.
"""

import importlib

from .core import (
    BinaryEnsemble,
    BracketError,
    ConvergenceError,
    CsvFormatError,
    DetectorModel,
    DimensionMismatchError,
    NotPureError,
    ReceiverResult,
    SingularMatrixError,
    TruncationError,
    UnsupportedConfigurationError,
)
from .optimize import (
    LandscapePoint,
    LandscapeSummary,
    RootResult,
    bayes_error_from_contrast,
    contrast_factor,
    displaced_squeezed_error,
    solve_type1_params,
    solve_type2_gamma,
    solve_type2_gamma_imperfect,
    type1_residuals,
    verify_gaussian_optimum,
)
from .receivers import (
    RECEIVERS,
    helstrom,
    homodyne_limit,
    homodyne_limit_attenuated,
    kennedy_error,
    kennedy_raw_error,
    mean_intensity,
    type1_error,
    type2_error,
    type2_imperfect_error,
)

__version__ = "0.1.0"

#: Names of the layers that need numpy, resolved on first use and then cached
#: in the module globals (PEP 562), so ``import bpskrx`` loads no numpy.
_LAZY = {name: module for module, names in (
    ("gaussian", """ConditionalOutput ConditionedState GaussianMeasurementSpec
        GaussianState SymplecticOp apply_gaussian_unitary beamsplitter
        binary_conditional_output coherent_state condition_on_partial_measurement
        measurement_cov phase_rotation pure_normal_form random_symplectic squeezer
        symplectic_form tensor vacuum"""),
    ("fock", "receiver_error_fock"),
    ("montecarlo", "McConfig McEstimate RNG_ID derive_point_seed simulate_type2 sweep_montecarlo"),
) for name in names.split()}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value
