"""Number-basis brute force: coherent amplitudes, truncation control, the receiver oracle."""

import math

import numpy as np
import pytest

from bpskrx.core import TruncationError
from bpskrx.fock import _coherent_amps, _off_diagonal, receiver_error_fock
from bpskrx.optimize import displaced_squeezed_error


def test_coherent_vacuum():
    v = _coherent_amps(0.0, 10)
    assert v[0] == 1.0
    assert np.abs(v[1:]).max() == 0.0


def test_coherent_mean_photon_number():
    for alpha in (0.3, 0.8, 1.2):
        v = _coherent_amps(alpha, 30)
        n_mean = float(np.arange(30) @ np.abs(v) ** 2)
        assert abs(n_mean - alpha * alpha) < 1e-10


def test_coherent_negative_amplitude_alternates_sign():
    v = _coherent_amps(-0.9, 12)
    w = _coherent_amps(0.9, 12)
    signs = (-1.0) ** np.arange(12)
    assert np.allclose(v, signs * w, atol=1e-16)


def test_coherent_tail():
    """The norm deficit of the truncated amplitudes is the tail mass."""
    assert 1.0 - _coherent_amps(2.0, 40) @ _coherent_amps(2.0, 40) < 1e-12
    assert 1.0 - _coherent_amps(2.0, 4) @ _coherent_amps(2.0, 4) > 1e-2


@pytest.mark.parametrize(
    "name, value",
    [
        ("alpha", math.nan),
        ("alpha", math.inf),
        ("beta", -math.inf),
        ("r", 2.5),
        ("r", 400.0),
        ("r", math.nan),
        ("eta", 1.5),
        ("eta", -0.1),
        ("eta", math.nan),
        ("nu", -1.0),
        ("nu", math.inf),
        ("dim", 0),
    ],
)
def test_receiver_error_rejects_bad_input(name, value):
    """Out-of-domain input raises a ValueError naming the argument; |r| > 2
    is rejected before the truncation estimate exp(2|r|) can overflow."""
    args = {"alpha": 0.5, "beta": 0.2, "r": 0.5, "eta": 1.0, "nu": 0.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} = "):
        receiver_error_fock(**args)


def test_off_operator_values():
    """The oracle's no-click weights are the diagonal of the off element."""
    off = _off_diagonal(1.0, 0.0, 6)
    expect = np.zeros(6)
    expect[0] = 1.0
    assert np.array_equal(off, expect)
    # diagonal e^{-nu} (1-eta)^m
    off2 = _off_diagonal(0.7, 0.2, 5)
    assert np.allclose(off2, math.exp(-0.2) * 0.3 ** np.arange(5))


def test_off_operator_expectation_on_coherent():
    """<alpha| off |alpha> = exp(-nu - eta alpha^2)."""
    for eta, nu, alpha in ((1.0, 0.0, 0.8), (0.55, 0.01, 1.3), (0.9, 1e-3, 0.4)):
        v = _coherent_amps(alpha, 50)
        got = float(_off_diagonal(eta, nu, 50) @ np.abs(v) ** 2)
        assert abs(got - math.exp(-nu - eta * alpha * alpha)) < 1e-10


def test_receiver_error_kennedy_reduction():
    """beta = alpha, r = 0 nulls the minus branch: error exp(-4 a^2)/2."""
    for alpha in (0.3, 0.7, 1.1):
        got = receiver_error_fock(alpha, alpha, 0.0)
        assert abs(got - 0.5 * math.exp(-4 * alpha * alpha)) < 1e-9


def test_receiver_error_against_closed_form():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10):
        alpha = rng.uniform(0.05, 1.6)
        beta = rng.uniform(-0.8, 0.8)
        r = rng.uniform(-0.8, 0.8)
        eta = float(rng.choice([0.5, 0.9, 1.0]))
        nu = float(rng.choice([0.0, 1e-3]))
        got = receiver_error_fock(alpha, beta, r, eta, nu)
        want = displaced_squeezed_error(alpha, beta, r, eta, nu)
        worst = max(worst, abs(got - want))
    print(f"fock vs closed form, worst |diff| = {worst:.3e}")
    assert worst < 1e-7


def test_receiver_error_at_frozen_optima():
    cases = [
        (0.25, 0.6354597684899026, 0.3191843697306846),
        (0.5, 0.708909526414441, 0.24288679719072476),
        (1.0, 1.0267225508056843, 0.0540538444539208),
    ]
    for alpha, beta, r in cases:
        got = receiver_error_fock(alpha, beta, r)
        want = displaced_squeezed_error(alpha, beta, r)
        assert abs(got - want) < 1e-8


def test_receiver_error_explicit_dim():
    loose = receiver_error_fock(0.5, 0.2, 0.1, dim=40)
    tight = receiver_error_fock(0.5, 0.2, 0.1, dim=200)
    assert abs(loose - tight) < 1e-10
    assert abs(tight - displaced_squeezed_error(0.5, 0.2, 0.1)) < 1e-10


def test_receiver_error_truncation_cap():
    """A state pushed far past 512 levels, probed with a detector weight
    that decays slowly in photon number, cannot settle and must say so."""
    with pytest.raises(TruncationError):
        receiver_error_fock(2.0, 2.0, 2.0, eta=0.01)
