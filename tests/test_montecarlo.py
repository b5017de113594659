"""Click-simulation determinism, draw order and exact law, degenerate cases,
coverage, and the tail."""

import math
import tracemalloc

import numpy as np
import pytest

from bpskrx.core import BinaryEnsemble, DetectorModel
from bpskrx.montecarlo import McConfig, McEstimate, simulate_type2, sweep_montecarlo
from bpskrx.optimize import solve_type2_gamma_imperfect
from bpskrx.receivers import mean_intensity, type2_error, type2_imperfect_error

FIG4_DETECTOR = DetectorModel(eta=0.9, nu=1e-3, tau=0.99, xi=0.995)


def _point_seed(master_seed, index):
    """The seed of sweep point ``index``: the first 64-bit word of
    ``SeedSequence([master_seed, index])``."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


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
    assert McEstimate._fields == ("config", "errors")
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
        _config(math.sqrt(0.5), FIG4_DETECTOR, trials=5000, seed=_point_seed(11, 0))
    )
    assert swept == direct


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep_montecarlo([], _config(1.0, FIG4_DETECTOR))


def test_sweep_point_seeds_spread():
    """Point i of a sweep runs on the seed of ``SeedSequence([master, i])``,
    which its estimate carries; 100 points get 100 distinct seeds, and a
    rerun gets the same ones."""
    template = _config(1.0, FIG4_DETECTOR, trials=2, seed=20260814)
    seeds = [est.config.seed for est in sweep_montecarlo(np.linspace(0.1, 1.0, 100), template)]
    assert seeds == [_point_seed(20260814, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert seeds == [est.config.seed for est in sweep_montecarlo(np.linspace(0.1, 1.0, 100), template)]


def test_tail_tracks_analytic_value():
    """Deep in the tail at eta = 1, nu = 0 (P about 3.1e-6, 1.0e-9 and
    3.5e-13), with trials sized for about 10^6 expected errors, up to
    2.9e18: the estimate agrees with the stable arrangement of the closed
    form in `_click_result`."""
    for alpha_sq in (3, 5, 7):
        truth = type2_error(BinaryEnsemble(math.sqrt(alpha_sq)))
        trials = round(1e6 / truth.p_error)
        assert trials < 2**63
        est = simulate_type2(_config(math.sqrt(alpha_sq), DetectorModel(), trials=trials,
                                     seed=alpha_sq, gamma=truth.gamma_opt))
        z = (est.p_hat - truth.p_error) / est.std_err
        print(f"alpha^2={alpha_sq}: p_hat={est.p_hat}, truth={truth.p_error}, z={z:+.2f}")
        assert abs(z) < 5.0


def _branch_probabilities(config):
    """The probabilities that a plus trial does not click and that a minus
    trial does, for the mean intensities of each sign."""
    ens, det = config.ensemble, config.detector
    plus, minus = (det.nu + det.eta * mean_intensity(s, ens, config.gamma, det) for s in (1, -1))
    return math.exp(-plus), -math.expm1(-minus)


def _two_draws(config):
    """The plus trials without a click, drawn first over the floor(trials /
    2) plus trials, and then the minus trials with one, over the rest, both
    from the generator of the config's seed."""
    p_miss, p_false = _branch_probabilities(config)
    half = config.trials // 2
    draws = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    return int(draws.binomial(half, p_miss) + draws.binomial(config.trials - half, p_false))


@pytest.mark.parametrize("p_plus", [0.5])
@pytest.mark.parametrize("trials", [1, 2, 7, 10**6 + 3])
def test_stratified_mask_equals_two_floor_formula(trials, p_plus):
    """At p = 1/2 the stratified sign sequence floor((i + 1) p) > floor(i p)
    is "odd i sends plus"; a detector that never clicks errs on exactly the
    plus trials, so its error count is the number of plus trials there."""
    i = np.arange(trials, dtype=float)
    plus = np.count_nonzero(np.floor((i + 1.0) * p_plus) > np.floor(i * p_plus))
    det = DetectorModel(eta=0.0, nu=0.0)
    assert simulate_type2(_config(0.8, det, trials=trials, gamma=0.3)).errors == plus


@pytest.mark.parametrize("gamma", [0.4])
def test_error_count_equals_click_comparison(gamma):
    """p_hat is the count of plus trials without a click and minus trials
    with one, over the trials, each count drawn as one binomial, plus first,
    from the config's generator."""
    det = DetectorModel(eta=0.8, nu=0.01)
    ens = BinaryEnsemble(0.6)
    for seed, trials in [(1, 10001), (2, 777), (3, 99999)]:
        config = McConfig(trials, seed, ens, det, gamma)
        assert simulate_type2(config).p_hat == _two_draws(config) / trials


@pytest.mark.parametrize("eta", [0.5, 1 / 3, 0.3, 0.77, 0.999, 0.29])
@pytest.mark.parametrize("trials", [1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 7, 10**6])
def test_chunked_stream_equals_one_shot(trials, eta):
    """The error count equals the two binomial draws, plus first, from the
    config's generator, at odd and even trial counts over a range of
    detector efficiencies."""
    det = DetectorModel(eta=eta, nu=1e-3, tau=0.99, xi=0.995)
    config = McConfig(trials, 7 + trials, BinaryEnsemble(0.7), det, 0.5)
    assert simulate_type2(config).errors == _two_draws(config)


@pytest.mark.parametrize(
    "trials",
    [*range(1, 30), 2**16 - 1, 2**16, 2**16 + 1, 2**17 - 1, 2**17, 3 * 2**16 + 7,
     10**6, 10**6 + 1, 10**18 + 1, 2**63 - 1],
)
def test_chunked_stream_equals_one_shot_random_detector(trials):
    """The error count equals the two binomial draws, plus first, from the
    config's generator, for odd and even counts up to 2**63 - 1 and a
    seeded random detector."""
    rng = np.random.default_rng(trials)
    det = DetectorModel(eta=rng.uniform(), nu=rng.uniform(0.0, 0.1),
                        tau=rng.uniform(0.5, 1.0), xi=rng.uniform(0.5, 1.0))
    config = McConfig(trials, 7 + trials, BinaryEnsemble(rng.uniform(0.0, 1.5)), det,
                      rng.uniform(0.0, 1.5))
    assert simulate_type2(config).errors == _two_draws(config)


def _pmf_of_sum(n_plus, p_plus, n_minus, p_minus):
    """Exact law of Binomial(n_plus, p_plus) + Binomial(n_minus, p_minus)."""
    def pmf(n, p):
        return [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]

    plus, minus = pmf(n_plus, p_plus), pmf(n_minus, p_minus)
    return [sum(plus[j] * minus[k - j] for j in range(len(plus)) if 0 <= k - j < len(minus))
            for k in range(n_plus + n_minus + 1)]


@pytest.mark.parametrize("trials", [9, 10])
def test_error_count_has_the_exact_law(trials):
    """Over 20,000 seeds the error counts follow the exact law of the sum of
    the plus-without-click and minus-with-click binomials, by a chi-square
    over bins pooled to at least 5 expected counts; 45 is about the 1e-6
    tail at the most degrees of freedom, 9. At odd trials, plus sends
    floor(trials / 2) of them, so swapping the two counts fails here too."""
    seeds = 20000
    config = _config(0.6, DetectorModel(eta=0.8, nu=0.01), trials=trials, seed=0, gamma=0.1)
    p_miss, p_false = _branch_probabilities(config)
    expected = [seeds * q for q in _pmf_of_sum(trials // 2, p_miss, trials - trials // 2, p_false)]
    observed = np.bincount(
        [simulate_type2(config._replace(seed=seed)).errors for seed in range(seeds)],
        minlength=trials + 1,
    ).tolist()
    bins = []  # (observed, expected), each tail pooled into its neighbour
    for obs, exp in zip(observed, expected):
        if bins and bins[-1][1] < 5.0:
            bins[-1] = (bins[-1][0] + obs, bins[-1][1] + exp)
        else:
            bins.append((obs, exp))
    if bins[-1][1] < 5.0:
        last = bins.pop()
        bins[-1] = (bins[-1][0] + last[0], bins[-1][1] + last[1])
    chi2 = sum((obs - exp) ** 2 / exp for obs, exp in bins)
    print(f"trials={trials}: chi2={chi2:.2f} over {len(bins)} bins")
    assert chi2 < 45.0


def test_repeated_call_allocates_nothing_per_trial():
    """A call draws two binomial counts and holds no array of length
    ``trials``, at 2e6 trials or at 2**62."""
    for trials in (2 * 10**6, 2**62):
        config = _config(0.8, FIG4_DETECTOR, trials=trials, gamma=0.8)
        simulate_type2(config)
        tracemalloc.start()
        try:
            simulate_type2(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
