"""Number-basis brute force: coherent amplitudes, the banded propagator, truncation
control, the receiver oracle and its sparse-`expm_multiply` reference."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import diags_array
from scipy.sparse.linalg import expm_multiply

from bpskrx import fock
from bpskrx.core import TruncationError
from bpskrx.fock import PAD, _coherent_amps, _expm_action, _off_diagonal, receiver_error_fock
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
        ("dim", 40.5),
        ("dim", True),
        ("dim", 513),
    ],
)
def test_receiver_error_rejects_bad_input(name, value):
    """Out-of-domain input raises a ValueError naming the argument; |r| > 2
    is rejected before the truncation estimate exp(|r|) can overflow, and a
    truncation must be an integer, not a float or a bool, and at most the
    adaptive search's cap, checked before any buffer is allocated."""
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


def _band(k, x, n):
    """The oracle's generator bands: displacement ``beta (a^dag - a)`` for
    k = 1, squeeze ``(r/2) (a^dag^2 - a^2)`` for k = 2."""
    j = np.arange(1.0, n - k + 1.0)
    return x * np.sqrt(j) if k == 1 else 0.5 * x * np.sqrt(j * (j + 1.0))


def _dense(c, k):
    n = len(c) + k
    g = np.zeros((n, n))
    g[np.arange(k, n), np.arange(n - k)] = c
    g[np.arange(n - k), np.arange(k, n)] = -c
    return g


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [8, 40, 120])
@pytest.mark.parametrize("x", [0.05, -0.05, 0.8, -0.8, 2.0, -2.0])
def test_expm_action_matches_dense_expm(k, n, x):
    """The banded Taylor propagator is exp(G) of the same band and keeps
    each row's squared norm to 1e-13.

    On the oracle's block, the coherent vectors of +-alpha cut at n/2, it
    matches the dense exponential to 1e-13 relative in the inf-norm. On
    random vectors that fill the band the bound is 1e-12: there the dense
    exponential is itself 4e-13 off a 40-digit evaluation at k = 2, n = 40,
    r = 2, and a Taylor series with ||G||_1 up to 240 loses about as much.
    """
    c = _band(k, x, n)
    dense = scipy.linalg.expm(_dense(c, k))
    cut = n // 2
    block = np.zeros((2, n))
    block[0, :cut] = _coherent_amps(1.0, cut)
    block[1, :cut] = _coherent_amps(-1.0, cut)
    noise = np.random.default_rng(n + 10 * k).standard_normal((2, n))
    for psi, bound in ((block, 1e-13), (noise, 1e-12)):
        got = _expm_action(np.stack([c, c]), k, psi)  # one band per row
        want = psi @ dense.T
        assert np.abs(got - want).sum(axis=0).max() <= bound * np.abs(want).sum(axis=0).max()
        start = (psi**2).sum(axis=1)
        assert np.abs((got**2).sum(axis=1) / start - 1.0).max() < 1e-13


def _expm_action_reference(c, k, psi):
    """The banded Taylor propagator as first written, slicing its buffers and
    bands on every term: the bitwise reference for `_expm_action`."""
    n = psi.shape[-1]
    band = np.pad(c, ((0, 0), (k, k)))
    norm = float((np.abs(band[:, :n]) + np.abs(band[:, k:])).max())
    costs = ((m, max(math.ceil(norm / theta), 1)) for m, theta in fock._THETA.items())
    m, s = min(costs, key=lambda ms: ms[0] * ms[1])
    scaled = band / (s * np.arange(1.0, m + 1.0)).reshape((m, 1, 1))
    lead = int((c == c[-1]).all(axis=1).sum())
    f = np.pad(psi, ((0, 0), (k, k)))
    term, nxt = np.zeros_like(f), np.zeros_like(f)
    prod, mag, col = np.empty_like(psi), np.empty((lead, f.shape[1])), np.empty(f.shape[1])

    def inf_norm(v):
        return np.maximum.reduce(np.add.reduce(np.abs(v[-lead:], out=mag), out=col))

    for _ in range(s):
        term[:] = f
        c1 = bound = inf_norm(f)
        for j in range(m):
            out = nxt[:, k:-k]
            np.multiply(scaled[j, :, :n], term[:, :n], out=out)
            np.multiply(scaled[j, :, k:], term[:, 2 * k :], out=prod)
            out -= prod
            term, nxt = nxt, term
            c2 = inf_norm(term)
            f += term
            bound += c2
            if c1 + c2 <= 2.0**-53 * bound and c1 + c2 <= 2.0**-53 * inf_norm(f):
                break
            c1 = c2
    return f[:, k:-k]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("per_row", [False, True], ids=["one-band", "band-per-row"])
def test_expm_action_equals_reference_bitwise(k, per_row):
    """On seeded bands and vectors the propagator is bitwise the reference,
    with one band for all rows or one cut band per row pair, the largest last,
    as the oracle's pair of truncations evolves. The norms span one Taylor step
    of few terms to many steps of 55."""
    rng = np.random.default_rng([2011, k, per_row])
    for n, x in ((12, 0.05), (60, 0.8), (140, -2.0), (300, 1.5)):
        c = _band(k, x * rng.uniform(0.5, 1.5), n)
        cut = np.repeat([n // 3, n - k], 2) if per_row else np.full(4, n - k)
        bands = np.where(np.arange(n - k) < cut[:, None], c, 0.0)
        psi = rng.standard_normal((4, n))
        psi[:2, n // 2 :] = 0.0
        got = _expm_action(bands, k, psi)
        assert got.tobytes() == _expm_action_reference(bands, k, psi).tobytes()


def _sparse_error_at_dim(alpha, beta, r, eta, nu, dims):
    """The oracle's fixed-truncation step as it was on scipy's sparse
    ``expm_multiply``, kept as an independent reference: every truncation of
    ``dims`` is evaluated on its own."""
    return tuple(_sparse_error_at_one(alpha, beta, r, eta, nu, dim) for dim in dims)


def _sparse_error_at_one(alpha, beta, r, eta, nu, dim):
    n = dim + PAD
    a = diags_array(np.sqrt(np.arange(1.0, n)), offsets=1, format="csr")
    psi = np.zeros((n, 2))
    psi[:dim, 0] = _coherent_amps(alpha, dim)
    psi[:dim, 1] = _coherent_amps(-alpha, dim)
    start = (psi**2).sum(axis=0)
    psi = expm_multiply(beta * (a.T - a), psi)
    if r != 0.0:
        psi = expm_multiply(-0.5 * r * (a @ a - a.T @ a.T), psi)
    defect = float(np.abs((psi**2).sum(axis=0) - start).max())
    if defect >= 1e-8:
        raise TruncationError(f"evolved norm^2 moved by {defect:.3e}")
    p_off_plus, p_off_minus = _off_diagonal(eta, nu, dim) @ psi[:dim] ** 2
    return 0.5 * (float(p_off_plus) + 1.0 - float(p_off_minus))


def _outcome(args):
    try:
        return receiver_error_fock(*args)
    except TruncationError:
        return "TruncationError"


def test_oracle_matches_sparse_expm_multiply(monkeypatch):
    """On 64 seeded inputs of the cross-check box, and on two that cannot
    settle, the banded propagator gives the sparse evaluation's values to
    1e-14 and raises on exactly the same inputs. The sparse step evaluates
    each truncation of the adaptive search separately, the first pair too."""
    rng = np.random.default_rng(5151)
    inputs = [
        (rng.uniform(0.05, 2.0), rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8),
         float(rng.choice([0.5, 0.9, 1.0])), float(rng.choice([0.0, 1e-3])))
        for _ in range(64)
    ] + [(2.0, 2.0, 2.0, 0.01, 0.0), (3.0, -2.0, 1.9, 0.0, 0.0)]
    banded = [_outcome(args) for args in inputs]
    monkeypatch.setattr(fock, "_error_at_dim", _sparse_error_at_dim)
    sparse = [_outcome(args) for args in inputs]
    raised = [isinstance(v, str) for v in banded]
    assert raised == [isinstance(v, str) for v in sparse]
    assert raised[-2:] == [True, True] and not any(raised[:-2])
    worst = max(abs(b - s) for b, s in zip(banded, sparse) if not isinstance(b, str))
    print(f"banded vs sparse oracle, worst |diff| = {worst:.3e}")
    assert worst < 1e-14


def test_oracle_leaves_global_rng_alone():
    """The oracle draws no random numbers: numpy's global stream is not
    advanced, and its values do not depend on the global seed."""
    rng = np.random.default_rng(7)
    inputs = [
        (rng.uniform(0.05, 2.0), rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8), 0.9, 1e-3)
        for _ in range(20)
    ]
    np.random.seed(7)
    before = np.random.get_state()
    receiver_error_fock(1.2, 0.5, 0.6, 0.9, 0.0)
    after = np.random.get_state()
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]
    runs = []
    for seed in (0, 7, 2**31):
        np.random.seed(seed)
        runs.append([receiver_error_fock(*args).hex() for args in inputs])
    assert runs[0] == runs[1] == runs[2]


def test_truncation_pair_matches_separate_evaluations():
    """Evolved together, the adaptive search's first pair (d, 2d) gives each
    truncation's separate value: the larger one bitwise, since its rows set
    the Taylor steps and the stop, the smaller one to 1e-14. The inputs are
    seeded cross-check points, and two at d = 256 where the pair is far
    from settled, so the smaller truncation's cut band is what sets its value."""
    rng = np.random.default_rng(6262)
    inputs = [
        (rng.uniform(0.05, 2.0), rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8),
         float(rng.choice([0.5, 0.9, 1.0])), float(rng.choice([0.0, 1e-3])))
        for _ in range(24)
    ] + [(2.0, 2.0, 2.0, 0.01, 0.0), (3.0, -2.0, 1.9, 0.0, 0.0)]
    unsettled, worst = 0, 0.0
    for alpha, beta, r, eta, nu in inputs:
        args = (alpha, beta, r, eta, nu)
        d = fock._start_dim(alpha, beta, r)
        small, big = fock._error_at_dim(*args, (d, 2 * d))
        assert big == fock._error_at_dim(*args, (2 * d,))[0]
        worst = max(worst, abs(small - fock._error_at_dim(*args, (d,))[0]))
        unsettled += not abs(big - small) < 1e-10
    print(f"pair vs separate, smaller truncation, worst |diff| = {worst:.3e}")
    assert worst < 1e-14
    assert unsettled >= 2


@pytest.mark.parametrize(
    "args",
    [(40.0, -40.0, 0.0), (-40.0, 40.0, 0.0), (1e200, 0.0, 0.0), (1.0, 0.5, 0.3, 1.0, 0.0, 1)],
)
def test_cut_that_drops_coherent_mass_raises(args):
    """A cut that keeps too little of the coherent state's norm raises
    instead of returning a value: at alpha = 40 both 256 and 512 levels hold
    almost none of it, and the evaluations would settle on 0.5 where the
    error is 1; at alpha = 1e200 the truncation estimate must not overflow;
    an explicit ``dim=1`` cannot hold alpha = 1."""
    with pytest.raises(TruncationError, match="miss unit norm"):
        receiver_error_fock(*args)
    if args[0] == 40.0:
        assert displaced_squeezed_error(*args) == 1.0


def test_start_rule_settles_on_the_closed_form(monkeypatch):
    """The adaptive search, started at the evolved state's photon-number extent,
    returns the closed form to 1e-13 on 64 seeded cross-check inputs, below the
    old start of ``8 (alpha + |beta| + 1)^2 exp(2|r|)``. The last rung clamped to
    the cap lets (1.06, 0.73, 1.35, 0.01) settle at 512 from 396, where the
    256/512 pair never did; inputs that 512 levels cannot hold still raise, and
    the error names the truncations tried and the last change. The 506 -> 512
    rung of (2.46, -1.05, 1.3, 0.01) moves by 6.9e-11, under 1e-10, while the
    value at 512 is 1.2e-10 off: a rung that short must settle tighter."""
    rng = np.random.default_rng(2011)
    inputs = [
        (rng.uniform(0.05, 2.0), rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8),
         float(rng.choice([0.5, 0.9, 1.0])), float(rng.choice([0.0, 1e-3])))
        for _ in range(64)
    ]
    worst = max(abs(receiver_error_fock(*a) - displaced_squeezed_error(*a)) for a in inputs)
    print(f"adaptive oracle vs closed form, worst |diff| = {worst:.3e}")
    assert worst < 1e-13
    assert all(
        fock._start_dim(*a[:3]) < 8.0 * (a[0] + abs(a[1]) + 1.0) ** 2 * math.exp(2.0 * abs(a[2]))
        for a in inputs
    )

    calls, inner = [], fock._error_at_dim
    monkeypatch.setattr(fock, "_error_at_dim", lambda *a: calls.append(a[-1]) or inner(*a))
    args = (1.06, 0.73, 1.35, 0.01, 0.0)
    assert abs(receiver_error_fock(*args) - displaced_squeezed_error(*args)) < 1e-13
    assert calls == [(99, 198), (396,), (fock.DIM_CAP,)]

    for args, tried in (
        ((2.0, 2.0, 2.0, 0.01, 0.0), "256, 512"),
        ((3.0, -2.0, 1.9, 0.0, 0.0), "256, 512"),
        ((2.46, -1.05, 1.3, 0.01, 0.0), "253, 506, 512"),
    ):
        with pytest.raises(TruncationError, match=rf"tried dims \[{tried}\], last change \d"):
            receiver_error_fock(*args)


@pytest.mark.parametrize(
    "args, dim", [((0.5, 1e6, 0.0), None), ((0.5, 1e6, 0.0), 64), ((0.5, 1e308, 0.0), None)]
)
def test_displacement_past_the_truncation_raises_at_once(args, dim):
    """A displacement the truncation cannot hold raises before any Taylor step:
    at beta = 1e6 the steps would grow as |beta| sqrt(n) (1.8e8 term matvecs),
    and at 1e308 their count would overflow."""
    with pytest.raises(TruncationError, match="does not fit"):
        receiver_error_fock(*args, dim=dim)
