"""The safeguarded Newton and the libm ``erfc`` that replaced the SciPy ports.

`optimize._newton` serves both roots of the analytic path (the w tanh w = c
inversion and the type1 solve); its typed failures are pinned here. The
Bayes error takes libm's ``erfc``, checked against mpmath through
`homodyne_limit` at the exact arguments it passes.
"""

import math

import numpy as np
import pytest

from bpskrx.core import BinaryEnsemble, ConvergenceError
from bpskrx.optimize import _newton
from bpskrx.receivers import homodyne_limit


def test_newton_nan_raises_convergence_error():
    fdf = lambda x: (math.nan if 0.4 < x < 0.6 else x - 0.5, 1.0)
    with pytest.raises(ConvergenceError, match="NaN") as exc:
        _newton(fdf, 0.0, 1.0, 0.0)
    assert exc.value.best == 0.0  # the last iterate with a finite f
    with pytest.raises(ConvergenceError, match="NaN at an end") as exc:
        _newton(fdf, 0.5, 1.0, 1.0)
    assert exc.value.best is None


def test_newton_maxiter_raises_convergence_error():
    """A step at 1e-300 gives Newton no slope, so every step bisects, and
    about 1,000 halvings would reach it; the solve stops at 100 steps."""
    fdf = lambda x: (-1.0 if x < 1e-300 else 1.0, 0.0)
    with pytest.raises(ConvergenceError, match="after 100 Newton steps") as exc:
        _newton(fdf, 0.0, 1.0, 1.0)
    assert 0.0 < exc.value.best < 1.0


def test_newton_same_sign_raises_convergence_error():
    with pytest.raises(ConvergenceError, match="same sign") as exc:
        _newton(lambda x: (x * x + 1.0, 2.0 * x), 0.0, 1.0, 0.5)
    assert exc.value.best is None


def test_newton_converged_step_onto_a_bracket_end_returns():
    """The stopping test comes before the bracket test: a step below 4 eps
    relative returns even where it lands on an end of the bracket, here
    the start 1.0, which the first step moves by 1e-20; a bisection would
    have gone to 1.5."""
    calls = []

    def fdf(x):
        calls.append(x)
        return x - 1.0 - 1e-20, 1.0

    assert _newton(fdf, 1.0, 2.0, 1.0) == (1.0, 1)
    assert calls == [1.0, 2.0, 1.0]


def test_erfc_relative_accuracy_against_mpmath():
    """`homodyne_limit` is libm's erfc(sqrt(2) alpha)/2. Against 200-bit
    mpmath at the argument it passes, it stays within 1e-15 relative down
    to erfc(26.5) ~ 1e-307 (worst seen: 3.1e-16); past that, where erfc
    goes subnormal, within 4 units of the smallest subnormal, and nonzero
    wherever the true value is above them."""
    mpmath = pytest.importorskip("mpmath")
    edge = math.sqrt(2.0)
    alphas = np.concatenate([np.linspace(0.0, 26.5 / edge, 8001), np.logspace(-300.0, -1.0, 500)])
    ulp = 5e-324
    with mpmath.workprec(200):
        exact = lambda a: mpmath.erfc(mpmath.mpf(math.sqrt(2.0) * a)) / 2
        worst = max(
            abs(mpmath.mpf(homodyne_limit(BinaryEnsemble(a))) / exact(a) - 1)
            for a in map(float, alphas)
        )
        for a in map(float, np.linspace(26.5 / edge, 27.3 / edge, 801)):
            p, ref = homodyne_limit(BinaryEnsemble(a)), exact(a)
            assert abs(p - ref) <= 4 * ulp, a
            assert p > 0.0 or ref < 4 * ulp, a
    assert worst <= 1e-15
