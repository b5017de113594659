"""Error-probability formulas for each receiver and their orderings."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpskrx.core import (
    BinaryEnsemble,
    DetectorModel,
    ReceiverResult,
    UnsupportedConfigurationError,
)
from bpskrx.fock import receiver_error_fock
from bpskrx.receivers import (
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

FIG4_DETECTOR = DetectorModel(eta=0.9, nu=1e-3, tau=0.99, xi=0.995)


def test_helstrom_values():
    assert helstrom(BinaryEnsemble(1.0)) == pytest.approx(0.004600070369588713, abs=1e-18)
    assert helstrom(BinaryEnsemble(0.25)) == pytest.approx(0.26484089591906335, abs=1e-16)
    assert helstrom(BinaryEnsemble(0.0)) == 0.5


def test_helstrom_stable_in_the_tail():
    # naive 0.5 (1 - sqrt(1-u)) would return exactly 0 here
    deep = helstrom(BinaryEnsemble(5.0))
    assert deep == pytest.approx(0.25 * math.exp(-100.0), rel=1e-12)
    assert deep > 0.0


def test_homodyne_values():
    # erfc(sqrt 2)/2 to 200 bits rounds to ...198; scipy's erfc gives ...195
    assert homodyne_limit(BinaryEnsemble(1.0)) == pytest.approx(0.022750131948179198, abs=1e-18)
    assert homodyne_limit(BinaryEnsemble(math.sqrt(10.0))) == pytest.approx(
        1.2698142947354325e-10, rel=1e-10
    )
    assert homodyne_limit(BinaryEnsemble(0.0)) == 0.5


def test_homodyne_attenuated():
    det = DetectorModel(tau=0.81)
    got = homodyne_limit_attenuated(BinaryEnsemble(1.0), det)
    assert got == homodyne_limit(BinaryEnsemble(0.9))
    assert got > homodyne_limit(BinaryEnsemble(1.0))


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


def test_kennedy_ideal_closed_form():
    for alpha in (0.2, 0.5, 1.0, 1.5):
        res = kennedy_error(BinaryEnsemble(alpha))
        assert res.receiver == "kennedy"
        assert res.p_error == pytest.approx(0.5 * math.exp(-4 * alpha * alpha), rel=1e-14)
        assert res.gamma_opt == alpha


def test_kennedy_frozen_with_detector():
    res = kennedy_error(BinaryEnsemble(0.5), DetectorModel(eta=0.9, nu=1e-3))
    assert res.p_error == pytest.approx(0.20358139673228437, abs=1e-16)
    assert res.receiver == "kennedy"


def test_kennedy_tags_and_raw_variant():
    det = DetectorModel(eta=0.9, nu=1e-3, tau=0.9, xi=0.99)
    aimed = kennedy_error(BinaryEnsemble(0.8), det)
    raw = kennedy_raw_error(BinaryEnsemble(0.8), det)
    assert aimed.receiver == "kennedy_imperfect"
    assert raw.receiver == "kennedy_raw"
    assert aimed.gamma_opt == math.sqrt(0.9) * 0.8
    assert raw.gamma_opt == 0.8
    assert aimed.p_error != raw.p_error
    # at tau = 1 the two aiming conventions coincide exactly
    det1 = DetectorModel(eta=0.9, nu=1e-3, xi=0.99)
    assert kennedy_error(BinaryEnsemble(0.8), det1).p_error == kennedy_raw_error(
        BinaryEnsemble(0.8), det1
    ).p_error


def test_type2_frozen():
    res = type2_error(BinaryEnsemble(0.5))
    assert res.gamma_opt == pytest.approx(0.7717023192091041, abs=1e-14)
    assert res.p_error == pytest.approx(0.13480570157214394, abs=1e-16)
    res1 = type2_error(BinaryEnsemble(1.0))
    assert res1.gamma_opt == pytest.approx(1.0326690694873524, abs=1e-14)
    # a 60-digit solve; the b - a cancellation once left 0.008560780393629959,
    # 1.6e-14 relative off, and the nulling-residual gap is 2e-16 off
    assert res1.p_error == pytest.approx(0.0085607803936300926, rel=1e-15, abs=0.0)


def test_type2_imperfect_frozen_and_reduction():
    res = type2_imperfect_error(BinaryEnsemble(math.sqrt(0.5)), FIG4_DETECTOR)
    assert res.receiver == "type2_imperfect"
    # a 60-digit evaluation at the 60-digit optimum; the gamma condition without
    # sqrt(tau) in the tanh gave 0.06955638206975191 at gamma = 0.8725512174767196
    assert res.p_error == pytest.approx(0.0695551709950816557, rel=1e-15, abs=0.0)
    assert res.gamma_opt == pytest.approx(0.873997947879275974, rel=1e-15, abs=0.0)
    # ideal coupling: identical floating-point path as the clean variant
    det = DetectorModel(eta=0.9, nu=1e-3)
    a = type2_imperfect_error(BinaryEnsemble(0.7), det)
    b = type2_error(BinaryEnsemble(0.7), det)
    assert a.p_error == b.p_error and a.gamma_opt == b.gamma_opt
    assert a.receiver == "type2"


def test_type1_result_fields():
    res = type1_error(BinaryEnsemble(0.5))
    assert res.receiver == "type1"
    assert res.beta_opt == pytest.approx(0.708909526414441, abs=1e-9)
    assert res.r_opt == pytest.approx(0.24288679719072476, abs=1e-9)
    assert res.p_error == pytest.approx(0.11944222326866605, abs=1e-12)
    assert res.gamma_opt is None


def test_receiver_ordering_chain():
    """helstrom <= type1 <= type2 <= kennedy, and type2 below homodyne."""
    slack = 1e-15
    for alpha_sq in (0.01, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.5, 2.0):
        ens = BinaryEnsemble(math.sqrt(alpha_sq))
        h = helstrom(ens)
        t1 = type1_error(ens).p_error
        t2 = type2_error(ens).p_error
        k = kennedy_error(ens).p_error
        hom = homodyne_limit(ens)
        assert h <= t1 + slack, alpha_sq
        assert t1 <= t2 + slack, alpha_sq
        assert t2 <= k + slack, alpha_sq
        assert t2 < hom, alpha_sq


def test_type2_below_homodyne_at_the_ideal_detector():
    """At eta = 1, nu = 0, type2 stays below homodyne, relatively, on a
    2,001-point log grid of alpha^2 in [1e-4, 60]: the largest ratio is
    0.99878, at the small-signal end. A lossy detector can lose the race:
    at alpha^2 = 1, eta = 0.5 type2 gives 0.0544 against 0.0228."""
    ratios = [
        type2_error(ens).p_error / homodyne_limit(ens)
        for ens in (BinaryEnsemble(math.sqrt(a)) for a in np.logspace(-4.0, math.log10(60.0), 2001))
    ]
    assert max(ratios) < 1.0
    ens = BinaryEnsemble(1.0)
    assert type2_error(ens, DetectorModel(eta=0.5)).p_error > homodyne_limit(ens)


_UNIT = st.floats(min_value=0.0, max_value=1.0)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(log10_alpha_sq=st.floats(min_value=-6.0, max_value=math.log10(60.0)), eta=_UNIT,
       nu=st.floats(min_value=0.0, max_value=10.0), tau=_UNIT, xi=_UNIT)
def test_lossy_click_ordering_over_the_cli_domain(log10_alpha_sq, eta, nu, tau, xi):
    """Over alpha^2 in [1e-6, 60] and every (eta, nu, tau, xi) the CLI
    accepts, helstrom <= type2_imperfect <= kennedy_imperfect to 1e-9
    relative. A zero eta, tau or xi, which has no gamma root, and an eta below
    the normal range, where gamma^2 ~ 1/(2 eta) overflows, are typed errors."""
    ens, det = BinaryEnsemble(math.sqrt(10.0**log10_alpha_sq)), DetectorModel(eta, nu, tau, xi)
    try:
        t2 = type2_imperfect_error(ens, det).p_error
    except UnsupportedConfigurationError:
        assert 0.0 in (tau, xi) or eta < sys.float_info.min
        return
    k = kennedy_error(ens, det).p_error
    assert helstrom(ens) <= t2 * (1.0 + 1e-9) and t2 <= k * (1.0 + 1e-9)
    assert 0.0 <= t2 <= 0.5


def _mp_type2_error(alpha, eta, nu):
    """80-digit type2 error at its 80-digit optimal gamma."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        a, e, n = map(mp.mpf, (alpha, eta, nu))
        s = a * mp.sqrt(2 * e)  # y tanh y = s^2, y = s u
        u = mp.findroot(lambda u: u * mp.tanh(u * s) / s - 1, 1 if s < 1 else s)
        g = u / mp.sqrt(2 * e)
        return (1 - mp.exp(-n - e * (a * a + g * g)) * 2 * mp.sinh(2 * e * a * g)) / 2


@settings(derandomize=True, max_examples=150, deadline=None)
@given(log10_alpha_sq=st.floats(min_value=-6.0, max_value=math.log10(60.0)),
       eta=st.floats(min_value=1e-3, max_value=1.0), nu=st.floats(min_value=0.0, max_value=10.0))
def test_type2_matches_mpmath(log10_alpha_sq, eta, nu):
    """type2 to 1e-13 relative of an 80-digit evaluation. The b - a
    cancellation this replaced was 8.4e-6 off on the golden sweeps; what is
    left is the rounding of the exponent a + b, up to about 4 eta alpha^2,
    that exp amplifies."""
    alpha = math.sqrt(10.0**log10_alpha_sq)
    got = type2_error(BinaryEnsemble(alpha), DetectorModel(eta, nu)).p_error
    want = _mp_type2_error(alpha, eta, nu)
    assert float(abs(got / want - 1)) <= 1e-13


def test_errors_decrease_with_amplitude():
    for fn in (
        helstrom,
        homodyne_limit,
        lambda e: kennedy_error(e).p_error,
        lambda e: type2_error(e).p_error,
        lambda e: type1_error(e).p_error,
    ):
        last = 0.5 + 1e-15
        for alpha in np.sqrt(np.linspace(0.02, 2.0, 12)):
            p = fn(BinaryEnsemble(float(alpha)))
            assert p < last
            last = p


def test_errors_stay_in_range_over_default_grid():
    det = DetectorModel(eta=0.9, nu=1e-3)
    for alpha_sq in np.logspace(-2.0, 1.0, 60):
        ens = BinaryEnsemble(math.sqrt(alpha_sq))
        for p in (
            helstrom(ens),
            homodyne_limit(ens),
            kennedy_error(ens, det).p_error,
            type2_error(ens, det).p_error,
        ):
            assert 0.0 < p <= 0.5


def test_kennedy_homodyne_crossover_bracket():
    """The non-optimized click receiver overtakes homodyne near a^2 ~ 0.38."""
    def gap(alpha_sq):
        ens = BinaryEnsemble(math.sqrt(alpha_sq))
        return kennedy_error(ens).p_error - homodyne_limit(ens)

    assert gap(0.35) > 0 > gap(0.45)
    assert gap(0.38409927839541491 - 1e-6) > 0 > gap(0.38409927839541491 + 1e-6)


def test_unequal_priors_rejected_where_unsupported():
    """The signal is sent with equal priors; no receiver takes others, and
    an ensemble built with priors fails at construction, not later."""
    with pytest.raises(TypeError):
        BinaryEnsemble(0.5, 0.4, 0.6)
    with pytest.raises(TypeError):
        BinaryEnsemble(0.5, p_plus=0.4)
    assert BinaryEnsemble._fields == ("alpha",)


def test_coupled_loss_rejected_for_squeezing_receivers():
    lossy = DetectorModel(tau=0.9)
    with pytest.raises(UnsupportedConfigurationError):
        type1_error(BinaryEnsemble(0.5), lossy)
    with pytest.raises(UnsupportedConfigurationError):
        type2_error(BinaryEnsemble(0.5), lossy)


@pytest.mark.parametrize(
    "fields, match",
    [
        ({"receiver": "warpdrive"}, "unknown receiver tag 'warpdrive'"),
        ({"provenance": "guess"}, "unknown provenance 'guess'"),
    ],
    ids=["tag", "provenance"],
)
def test_receiver_result_rejects_unknown_labels(fields, match):
    with pytest.raises(ValueError, match=match):
        ReceiverResult(**{"receiver": "helstrom", "p_error": 0.1, **fields})


@pytest.mark.parametrize(
    "args, match",
    [
        ((-0.1,), "alpha must be finite and >= 0"),
        ((math.nan,), "alpha must be finite and >= 0"),
    ],
    ids=["negative-alpha", "nan-alpha"],
)
def test_binary_ensemble_rejects_bad_input(args, match):
    with pytest.raises(ValueError, match=match):
        BinaryEnsemble(*args)


def test_mean_intensity():
    det = DetectorModel(tau=1.0, xi=1.0)
    ens = BinaryEnsemble(0.5)
    assert mean_intensity(1, ens, 0.3, det) == pytest.approx(0.64)
    assert mean_intensity(-1, ens, 0.3, det) == pytest.approx(0.04)
    # xi = 0: no interference at all, only added power
    det0 = DetectorModel(xi=0.0)
    assert mean_intensity(1, ens, 0.3, det0) == mean_intensity(-1, ens, 0.3, det0)
    with pytest.raises(ValueError):
        mean_intensity(0, ens, 0.3, det)
    # a non-finite intensity raises: 0 * inf = NaN at xi = 1, inf at xi = 0.5
    big = BinaryEnsemble(1e155)
    for xi in (1.0, 0.5):
        with pytest.raises(UnsupportedConfigurationError, match="mean intensity overflows"):
            mean_intensity(-1, big, 1e155, DetectorModel(xi=xi))


def test_analytic_matches_fock_with_detector():
    det = DetectorModel(eta=0.9, nu=1e-3)
    for alpha in (0.25, 0.6, 1.0):
        ens = BinaryEnsemble(alpha)
        t2 = type2_error(ens, det)
        got = receiver_error_fock(alpha, t2.gamma_opt, 0.0, det.eta, det.nu)
        assert abs(got - t2.p_error) < 1e-8
        t1 = type1_error(ens, det)
        got1 = receiver_error_fock(alpha, t1.beta_opt, t1.r_opt, det.eta, det.nu)
        assert abs(got1 - t1.p_error) < 1e-8
