"""The scipy-free ports equal scipy bitwise.

`optimize._erfc` against ``scipy.special.erfc`` and `optimize._brentq`
against ``scipy.optimize.brentq``, compared with ``==``: the ports replace
the scipy calls on the analytic path, so any difference would move the
printed curves. `_brentq` is pinned at its default absolute tolerance and at
the relative-only tolerance (``xtol = 0``) of the w tanh w = c inversion and
the type1 solve.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import erfc

from bpskrx import optimize
from bpskrx.core import ConvergenceError
from bpskrx.optimize import _brentq, _erfc


def test_erfc_equals_scipy_bitwise():
    grid = np.logspace(-300.0, math.log10(30.0), 10_000)
    # erf's T/U serve |x| < 1, where a wrong last digit moves few values
    dense = np.linspace(0.0, 1.0, 100_001)
    edge = np.linspace(26.5, 27.3, 801)  # exp(-x^2) goes subnormal, then 0
    special = np.array([0.0, 1.0, 8.0, math.inf])
    xs = np.concatenate([grid, dense, edge, special])
    xs = np.concatenate([xs, -xs])
    ours = np.array([_erfc(float(x)) for x in xs])
    theirs = erfc(xs)
    assert np.array_equal(ours, theirs)
    assert np.array_equal(np.signbit(ours), np.signbit(theirs))
    assert _erfc(-0.0) == 1.0 and math.isnan(_erfc(math.nan))


def _gamma_condition(alpha, eta):
    slope, target = 2.0 * eta * alpha, alpha
    return lambda x: x * math.tanh(slope * x) - target


def _beta_condition(alpha, eta, r):
    g = eta + (2.0 - eta) * math.exp(-2.0 * r)
    return lambda b: b * math.tanh(4.0 * eta * alpha * b / g) - alpha


def _brackets():
    """The gamma and beta conditions over an (alpha, eta, r) grid, each with a
    sign-changing bracket found by doubling its upper end, and a bracket with
    an exact zero at its lower end."""
    alphas = np.logspace(-3.0, 1.2, 16)
    etas = (0.05, 0.3, 0.7, 1.0)
    for alpha, eta in itertools.product(map(float, alphas), etas):
        cases = [_gamma_condition(alpha, eta)]
        cases += [_beta_condition(alpha, eta, r) for r in (-1.5, -0.3, 0.0, 0.4, 1.5)]
        for f in cases:
            lo, hi = 1e-12, alpha + 3.0 / math.sqrt(2.0 * eta) + 2.0
            while f(hi) < 0.0:
                hi = lo + 2.0 * (hi - lo)
            yield f, lo, hi
    yield (lambda x: x * x - 0.25), 0.5, 1.0


def _type1_brackets(monkeypatch):
    """The ``w tanh w = c`` and ``reduced`` brackets that `solve_type1_params`
    hands to `_brentq` over an (alpha, eta) grid, alpha in [1e-3, 31.6] and
    eta in [1e-3, 1], recorded as (f, lo, hi, xtol)."""
    calls = []

    def record(f, lo, hi, xtol=1e-15):
        calls.append((f, lo, hi, xtol))
        return _brentq(f, lo, hi, xtol)

    monkeypatch.setattr(optimize, "_brentq", record)
    for alpha, eta in itertools.product(np.logspace(-3.0, 1.5, 12), np.logspace(-3.0, 0.0, 11)):
        optimize.solve_type1_params(float(alpha), float(eta))
    monkeypatch.undo()
    return calls


def test_brentq_equals_scipy_bitwise(monkeypatch):
    n = 0
    for f, lo, hi in _brackets():
        ours, iters = _brentq(f, lo, hi)
        theirs, info = brentq(f, lo, hi, xtol=1e-15, full_output=True)
        assert ours == theirs
        if f(lo) != 0.0 and f(hi) != 0.0:
            assert iters == info.iterations
        n += 1
    assert n == 16 * 4 * 6 + 1
    # relative tolerance alone; SciPy needs xtol > 0, and 5e-324 is lost in
    # xtol + rtol |x| at every root here
    calls = _type1_brackets(monkeypatch)
    assert len(calls) == 12 * 11 * 2
    n = 0
    for f, lo, hi, xtol in calls:
        assert xtol == 0.0
        ours, iters = _brentq(f, lo, hi, xtol=0.0)
        theirs, info = brentq(f, lo, hi, xtol=5e-324, full_output=True)
        assert ours == theirs
        if f(lo) != 0.0 and f(hi) != 0.0:  # SciPy leaves iterations unset at a zero end
            assert iters == info.iterations
            n += 1
    assert n == 231
    same_sign = lambda x: x * x + 1.0
    with pytest.raises(ConvergenceError, match="same sign"):
        _brentq(same_sign, 0.0, 1.0)
    with pytest.raises(ValueError, match="different signs"):
        brentq(same_sign, 0.0, 1.0)


def test_brentq_nan_raises_convergence_error():
    f = lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5
    with pytest.raises(ConvergenceError, match="NaN") as exc:
        _brentq(f, 0.0, 1.0)
    assert exc.value.best is not None


def test_brentq_maxiter_raises_convergence_error():
    """A step at 1e-300 with no absolute tolerance needs about 1,000
    halvings; both solvers stop at the 100-iteration cap."""
    f = lambda x: -1.0 if x < 1e-300 else 1.0
    with pytest.raises(ConvergenceError, match="after 100 iterations") as exc:
        _brentq(f, 0.0, 1.0, xtol=0.0)
    assert 0.0 < exc.value.best < 1.0
    with pytest.raises(RuntimeError, match="after 100 iterations"):
        brentq(f, 0.0, 1.0, xtol=5e-324)


def test_erfc_relative_accuracy_against_mpmath():
    """Bitwise equality with scipy says nothing about accuracy; against
    120-bit mpmath the port stays within 1e-13 relative, down to
    erfc(26.5) ~ 1e-307 (worst seen: 5.7e-14 near x = 25.6)."""
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate([np.linspace(-6.0, 26.5, 8001), np.logspace(-300.0, -1.0, 500)])
    with mpmath.workprec(120):
        worst = max(
            abs(mpmath.mpf(_erfc(x)) / mpmath.erfc(mpmath.mpf(x)) - 1)
            for x in map(float, xs)
        )
    assert worst <= 1e-13
