"""Click-simulation determinism, exact degenerate cases, and coverage."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bpskrx.core import BinaryEnsemble, DetectorModel
from bpskrx.montecarlo import (
    _CHUNK,
    _MINUS,
    _PLUS,
    McConfig,
    McEstimate,
    derive_point_seed,
    simulate_type2,
    sweep_montecarlo,
)
from bpskrx.optimize import solve_type2_gamma_imperfect
from bpskrx.receivers import mean_intensity, type2_imperfect_error

FIG4_DETECTOR = DetectorModel(eta=0.9, nu=1e-3, tau=0.99, xi=0.995)


def _config(alpha, detector, trials=100000, seed=20260814, gamma=None):
    ens = BinaryEnsemble(alpha)
    if gamma is None:
        gamma = solve_type2_gamma_imperfect(alpha, detector).value
    return McConfig(trials=trials, seed=seed, ensemble=ens, detector=detector, gamma=gamma)


def test_validation():
    ens = BinaryEnsemble(0.5)
    det = DetectorModel()
    with pytest.raises(ValueError):
        McConfig(0, 1, ens, det, 0.5)
    with pytest.raises(ValueError):
        McConfig(10, -1, ens, det, 0.5)
    with pytest.raises(ValueError):
        McConfig(10, 2**64, ens, det, 0.5)


@pytest.mark.parametrize(
    "name, value",
    [
        ("trials", 1e3),
        ("trials", True),
        ("trials", 0),
        ("seed", 1.5),
        ("seed", True),
        ("seed", -1),
        ("seed", 2**64),
    ],
)
def test_config_requires_int_trials_and_seed(name, value):
    """trials and seed must be ints, not floats or bools: a float used to
    reach numpy and fail there, and seed=True ran as seed 1."""
    args = {"trials": 10, "seed": 1, "ensemble": BinaryEnsemble(0.5),
            "detector": DetectorModel(), "gamma": 0.5, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an int"):
        McConfig(**args)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_non_finite_gamma_rejected(gamma):
    with pytest.raises(ValueError, match="gamma"):
        McConfig(10, 1, BinaryEnsemble(0.5), DetectorModel(), gamma)


def test_estimate_std_err_consistency():
    """An estimate is its request plus an error count; the rest is derived."""
    c = _config(0.5, FIG4_DETECTOR, trials=401, seed=9)
    est = simulate_type2(c)
    assert est.config is c
    assert [f.name for f in dataclasses.fields(McEstimate)] == ["config", "errors"]
    assert est.p_hat == est.errors / c.trials
    assert est.std_err == math.sqrt(est.p_hat * (1.0 - est.p_hat) / c.trials)
    assert est.gamma is c.gamma


def test_deterministic_given_seed():
    a = simulate_type2(_config(0.5, FIG4_DETECTOR))
    b = simulate_type2(_config(0.5, FIG4_DETECTOR))
    assert a == b
    c = simulate_type2(_config(0.5, FIG4_DETECTOR, seed=20260815))
    assert c.p_hat != a.p_hat


def test_single_trial():
    est = simulate_type2(_config(0.5, FIG4_DETECTOR, trials=1, seed=3))
    assert est.p_hat in (0.0, 1.0)
    assert est.std_err == 0.0


def test_degenerate_detector_never_clicks():
    """eta = nu = 0: no clicks ever, every plus-trial errs, none of the
    minus trials do, so p_hat is the plus share floor(trials / 2) / trials."""
    det = DetectorModel(eta=0.0, nu=0.0)
    for trials in (10000, 10001):
        est = simulate_type2(_config(0.8, det, trials=trials, gamma=0.3))
        assert est.p_hat == (trials // 2) / trials


def test_degenerate_detector_always_clicks():
    # nu = 50 drives the click probability to 1 - 1e-22: with 1e4 draws the
    # chance of seeing a no-click is negligible and every minus trial errs
    det = DetectorModel(eta=1.0, nu=50.0)
    est = simulate_type2(_config(0.8, det, trials=10000, gamma=0.3))
    assert est.p_hat == 0.5


def test_estimate_tracks_analytic_value():
    truth = type2_imperfect_error(BinaryEnsemble(math.sqrt(0.5)), FIG4_DETECTOR).p_error
    est = simulate_type2(_config(math.sqrt(0.5), FIG4_DETECTOR, trials=10**6))
    z = (est.p_hat - truth) / est.std_err
    print(f"mc vs analytic: p_hat={est.p_hat}, truth={truth}, z={z:+.2f}")
    assert abs(z) < 4.0


def test_coverage_over_grid():
    """20 grid points, 3 sigma should capture nearly all; 5 sigma must."""
    grid = np.linspace(0.05, 2.0, 20)
    template = _config(1.0, FIG4_DETECTOR, trials=200000, seed=4242, gamma=1.0)
    results = sweep_montecarlo(grid, template)
    outside3 = 0
    for alpha_sq, est in zip(grid, results):
        truth = type2_imperfect_error(BinaryEnsemble(math.sqrt(alpha_sq)), FIG4_DETECTOR).p_error
        z = (est.p_hat - truth) / est.std_err
        assert abs(z) < 5.0
        if abs(z) > 3.0:
            outside3 += 1
    assert outside3 <= 1


def test_pooled_bias():
    """50 independent configurations: the standardized residuals average
    out, so the simulator is not systematically shifted."""
    rng = np.random.default_rng(7)
    zs = []
    for k in range(50):
        alpha = float(rng.uniform(0.2, 1.4))
        est = simulate_type2(_config(alpha, FIG4_DETECTOR, trials=50000, seed=1000 + k))
        truth = type2_imperfect_error(BinaryEnsemble(alpha), FIG4_DETECTOR).p_error
        zs.append((est.p_hat - truth) / est.std_err)
    zs = np.array(zs)
    print(f"pooled z: mean={zs.mean():+.3f}, max|z|={np.abs(zs).max():.2f}")
    assert abs(zs.mean()) < 0.5
    assert np.abs(zs).max() < 5.0


def test_sweep_single_point_equals_direct_call():
    template = _config(1.0, FIG4_DETECTOR, trials=5000, seed=11, gamma=123.0)
    swept = sweep_montecarlo([0.5], template)[0]
    direct = simulate_type2(
        _config(math.sqrt(0.5), FIG4_DETECTOR, trials=5000, seed=derive_point_seed(11, 0))
    )
    assert swept == direct


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep_montecarlo([], _config(1.0, FIG4_DETECTOR))


def test_derive_point_seed_spreads():
    seeds = {derive_point_seed(20260814, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_point_seed(20260814, 0) == derive_point_seed(20260814, 0)


@pytest.mark.parametrize("p_plus", [0.5])
@pytest.mark.parametrize("trials", [1, 2, 7, 10**6 + 3])
def test_stratified_mask_equals_two_floor_formula(trials, p_plus):
    """At p = 1/2 the stratified sign sequence floor((i + 1) p) > floor(i p)
    is "odd i sends plus", which the chunks read as prefixes of _PLUS; an
    even _CHUNK keeps the parity across chunk edges."""
    i = np.arange(trials, dtype=float)
    ref = np.floor((i + 1.0) * p_plus) > np.floor(i * p_plus)
    sent = np.concatenate([_PLUS[: min(_CHUNK, trials - lo)] for lo in range(0, trials, _CHUNK)])
    assert np.array_equal(sent, ref)


@pytest.mark.parametrize("gamma", [0.4])
def test_error_count_equals_click_comparison(gamma):
    """p_hat equals the count of trials whose click disagrees with the sent
    sign, plus at odd trials, the click drawn as ``u < p_on[sign]`` from the
    same stream."""
    det = DetectorModel(eta=0.8, nu=0.01)
    ens = BinaryEnsemble(0.6)
    p_on = {s: -math.expm1(-(det.nu + det.eta * mean_intensity(s, ens, gamma, det)))
            for s in (1, -1)}
    for seed, trials in [(1, 10001), (2, 777), (3, 99999)]:
        plus = np.arange(trials) % 2 == 1
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        clicks = rng.random(trials) < np.where(plus, p_on[1], p_on[-1])
        errors = int(np.count_nonzero(clicks != plus))
        est = simulate_type2(McConfig(trials, seed, ens, det, gamma))
        assert est.p_hat == errors / trials


def _one_shot_p_hat(config):
    """The simulation on whole arrays of length ``trials``, as it ran before
    the stream was drawn in chunks."""
    ens, det = config.ensemble, config.detector
    p_on = {s: -math.expm1(-(det.nu + det.eta * mean_intensity(s, ens, config.gamma, det)))
            for s in (1, -1)}
    plus = np.arange(config.trials) % 2 == 1
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    u = rng.random(config.trials)
    misses = np.count_nonzero(plus) - np.count_nonzero((u < p_on[1]) & plus)
    return int(misses + np.count_nonzero((u < p_on[-1]) & ~plus)) / config.trials


@pytest.mark.parametrize("eta", [0.5, 1 / 3, 0.3, 0.77, 0.999, 0.29])
@pytest.mark.parametrize("trials", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7, 10**6])
def test_chunked_stream_equals_one_shot(trials, eta):
    """Drawing the uniforms chunk by chunk and counting per chunk gives the
    bits of one draw of the whole stream, at and around chunk edges, over a
    range of detector efficiencies."""
    det = DetectorModel(eta=eta, nu=1e-3, tau=0.99, xi=0.995)
    config = McConfig(trials, 7 + trials, BinaryEnsemble(0.7), det, 0.5)
    assert simulate_type2(config).p_hat == _one_shot_p_hat(config)


@pytest.mark.parametrize(
    "trials",
    [*range(1, 30), _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 1, 2 * _CHUNK,
     3 * _CHUNK + 7, 10**6, 10**6 + 1],
)
def test_chunked_stream_equals_one_shot_random_detector(trials):
    """Drawing the uniforms chunk by chunk and counting per chunk gives the
    bits of one draw of the whole stream, at and around chunk edges, for odd
    and even counts and a seeded random detector."""
    rng = np.random.default_rng(trials)
    det = DetectorModel(eta=rng.uniform(), nu=rng.uniform(0.0, 0.1),
                        tau=rng.uniform(0.5, 1.0), xi=rng.uniform(0.5, 1.0))
    ens = BinaryEnsemble(rng.uniform(0.0, 1.5))
    config = McConfig(trials, 7 + trials, ens, det, rng.uniform(0.0, 1.5))
    assert simulate_type2(config).p_hat == _one_shot_p_hat(config)


def test_plus_mask_cache_holds_one_read_only_mask():
    """Every chunk reads a prefix of one module-level sign array, plus at
    odd trials, and of its complement; nothing may write to either."""
    assert _PLUS.shape == (_CHUNK,) and _PLUS.dtype == bool
    assert np.array_equal(_PLUS, np.arange(_CHUNK) % 2 == 1)
    assert np.array_equal(_MINUS, ~_PLUS)
    for mask in (_PLUS, _MINUS):
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = True


def test_repeated_call_allocates_per_chunk_not_per_trial():
    """A 2e6-trial call holds about one chunk of uniforms and masks at a
    time, not arrays of length ``trials``."""
    config = _config(0.8, FIG4_DETECTOR, trials=2 * 10**6, gamma=0.8)
    simulate_type2(config)
    tracemalloc.start()
    try:
        simulate_type2(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
