"""Number-basis brute force: operators, truncation control, the receiver oracle."""

import math

import numpy as np
import pytest

from bpskrx.core import TruncationError
from bpskrx.fock import (
    _off_diagonal,
    coherent_vector,
    displacement_matrix,
    receiver_error_fock,
    squeeze_matrix,
)
from bpskrx.optimize import displaced_squeezed_error


def test_coherent_vacuum():
    v = coherent_vector(0.0, 10)
    assert v.amps[0] == 1.0
    assert np.abs(v.amps[1:]).max() == 0.0
    assert v.tail_bound == 0.0 and not v.tail_warning


def test_coherent_mean_photon_number():
    for alpha in (0.3, 0.8, 1.2):
        v = coherent_vector(alpha, 30)
        n_mean = float(np.arange(30) @ np.abs(v.amps) ** 2)
        assert abs(n_mean - alpha * alpha) < 1e-10


def test_coherent_negative_amplitude_alternates_sign():
    v = coherent_vector(-0.9, 12)
    w = coherent_vector(0.9, 12)
    signs = (-1.0) ** np.arange(12)
    assert np.allclose(v.amps, signs * w.amps, atol=1e-16)


def test_coherent_tail():
    assert coherent_vector(2.0, 40).tail_bound < 1e-12
    tiny = coherent_vector(2.0, 4)
    assert tiny.tail_warning
    assert tiny.tail_bound > 1e-2


def test_displacement_identity_and_action():
    assert np.array_equal(displacement_matrix(0.0, 8).mat, np.eye(8))
    d = displacement_matrix(0.7, 40)
    vac = np.zeros(40)
    vac[0] = 1.0
    assert np.abs(d.mat @ vac - coherent_vector(0.7, 40).amps).max() < 1e-9
    assert d.unitarity_defect < 1e-8


def test_displacement_inverse_pair():
    """D(1) D(-1) is the identity on the faithful part of the block."""
    prod = displacement_matrix(1.0, 60).mat @ displacement_matrix(-1.0, 60).mat
    assert np.abs(prod[:25, :25] - np.eye(25)).max() < 1e-8


def test_squeeze_variance():
    assert np.array_equal(squeeze_matrix(0.0, 8).mat, np.eye(8))
    dim = 60
    r = 0.5
    vac = np.zeros(dim)
    vac[0] = 1.0
    psi = squeeze_matrix(r, dim).mat @ vac
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
    x = a + a.T
    var = float(np.real(np.conj(psi) @ (x @ x) @ psi))
    assert abs(var - math.exp(-2 * r)) < 1e-6
    # squeezed vacuum lives on even photon numbers only
    assert np.abs(psi[1::2]).max() == 0.0


def test_squeeze_guard_rails():
    with pytest.raises(ValueError):
        squeeze_matrix(2.5, 40)
    with pytest.raises(ValueError):
        squeeze_matrix(0.5, 3)


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
        v = coherent_vector(alpha, 50).amps
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
