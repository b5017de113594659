"""The value records are immutable named tuples, validated on construction.

For each record of `core`, `optimize`, `montecarlo` and `gaussian`: its
fields keep their names and order, a field cannot be assigned, an instance
has no ``__dict__`` (a subclass without ``__slots__ = ()`` would grow one),
and a record with a check refuses a bad value with the same message whether
it is passed by position or by keyword.
"""

import numpy as np
import pytest

from bpskrx.core import BinaryEnsemble, DetectorModel, ReceiverResult
from bpskrx.gaussian import (
    ConditionalOutput,
    ConditionedState,
    GaussianMeasurementSpec,
    GaussianState,
    SymplecticOp,
    binary_conditional_output,
    condition_on_partial_measurement,
    random_symplectic,
    vacuum,
)
from bpskrx.montecarlo import McConfig, McEstimate
from bpskrx.optimize import LandscapePoint, LandscapeSummary, RootResult

ENS = BinaryEnsemble(0.5)
DET = DetectorModel(0.9, 1e-3, 0.95, 0.98)
CONFIG = McConfig(10, 1, ENS, DET, 0.5)
POINT = LandscapePoint(1.0, 0.0, 0.5, 0.1)
MEAS = GaussianMeasurementSpec.homodyne_stack([1.0], [0.3], [0.2, -0.1])
OP = random_symplectic(2, np.random.default_rng(4))

#: record -> (field names, a valid instance)
RECORDS = {
    BinaryEnsemble: (("alpha",), ENS),
    DetectorModel: (("eta", "nu", "tau", "xi"), DET),
    ReceiverResult: (
        ("receiver", "p_error", "provenance", "beta_opt", "r_opt", "gamma_opt", "detector"),
        ReceiverResult("type2", 0.1, gamma_opt=0.4, detector=DET),
    ),
    RootResult: (("value", "residual", "iterations"), RootResult(0.4, 0.0, 3)),
    LandscapePoint: (("r", "phi", "e", "p_error"), POINT),
    LandscapeSummary: (
        ("argmin", "optimal", "degenerate", "note"), LandscapeSummary(POINT, True, False, "")
    ),
    McConfig: (("trials", "seed", "ensemble", "detector", "gamma"), CONFIG),
    McEstimate: (("config", "errors"), McEstimate(CONFIG, 3)),
    GaussianState: (("cov", "disp"), vacuum(1)),
    GaussianMeasurementSpec: (("cov", "disp"), MEAS),
    SymplecticOp: (("matrix",), OP),
    ConditionedState: (
        ("cov", "disp", "density"), condition_on_partial_measurement(vacuum(2), 1, MEAS)
    ),
    ConditionalOutput: (
        ("state_plus", "state_minus", "weight_plus", "weight_minus", "shared_cov",
         "disp_signal", "disp_offset"),
        binary_conditional_output(ENS, OP, MEAS),
    ),
}

#: (record, field, bad value, start of the refusal message)
REFUSALS = [
    (BinaryEnsemble, "alpha", -1.0, "alpha must be finite and >= 0"),
    (BinaryEnsemble, "alpha", float("inf"), "alpha must be finite and >= 0"),
    (DetectorModel, "eta", 1.5, "eta must lie in [0, 1]"),
    (DetectorModel, "nu", -1e-3, "nu must be finite and >= 0"),
    (DetectorModel, "tau", -0.1, "tau must lie in [0, 1]"),
    (DetectorModel, "xi", 2.0, "xi must lie in [0, 1]"),
    (ReceiverResult, "receiver", "nope", "unknown receiver tag 'nope'"),
    (ReceiverResult, "provenance", "guess", "unknown provenance 'guess'"),
    (LandscapePoint, "e", 1.5, "sharpness e = 1.5 outside [0, 1]"),
    (McConfig, "trials", 0, "trials must be an int >= 1"),
    (McConfig, "trials", 10.0, "trials must be an int >= 1"),
    (McConfig, "seed", 2**64, "seed must be an int in [0, 2**64)"),
    (McConfig, "gamma", float("nan"), "gamma must be finite"),
    (GaussianState, "disp", [float("nan"), 0.0], "displacement has a non-finite entry"),
    (GaussianState, "cov", [[0.5, 0.0], [0.0, 0.5]], "state covariance violates the uncertainty"),
    (GaussianMeasurementSpec, "cov", [[0.5, 0.0], [0.0, 0.5]], "measurement covariance violates"),
    (SymplecticOp, "matrix", [[2.0, 0.0], [0.0, 2.0]], "matrix is not symplectic within 1e-10"),
]


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda r: r.__name__)
def test_record_fields_and_immutability(record):
    fields, instance = RECORDS[record]
    assert record._fields == fields
    assert type(instance) is record
    assert not hasattr(instance, "__dict__")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(instance, name, getattr(instance, name))


@pytest.mark.parametrize(
    "record, field, value, message", REFUSALS, ids=lambda x: getattr(x, "__name__", str(x))
)
def test_record_refuses_bad_value(record, field, value, message):
    fields, instance = RECORDS[record]
    values = dict(zip(fields, instance))
    values[field] = value
    with pytest.raises(ValueError) as positional:
        record(*values.values())
    with pytest.raises(ValueError) as keyword:
        record(**values)
    assert str(positional.value).startswith(message)
    assert str(keyword.value) == str(positional.value)


def test_detector_and_result_defaults():
    assert DetectorModel() == (1.0, 0.0, 1.0, 1.0)
    assert DetectorModel().ideal_coupling and not DET.ideal_coupling
    result = ReceiverResult("helstrom", 0.1)
    assert result[2:] == ("analytic", None, None, None, DetectorModel())
    assert result.detector is ReceiverResult("homodyne", 0.2).detector
