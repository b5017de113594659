"""Covariance algebra: constructors, conditioning, normal forms, Bayes error."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import block_diag, cho_factor, cho_solve, eigh

from bpskrx import gaussian
from bpskrx.core import (
    BinaryEnsemble,
    DimensionMismatchError,
    NotPureError,
    SingularMatrixError,
)
from bpskrx.gaussian import (
    GaussianMeasurementSpec,
    GaussianState,
    SymplecticOp,
    _block_diag,
    _gate_block,
    _schur,
    apply_gaussian_unitary,
    binary_conditional_output,
    condition_on_partial_measurement,
    pure_normal_form,
    random_symplectic,
    symplectic_form,
    vacuum,
)
from bpskrx.optimize import bayes_error_from_contrast, verify_gaussian_optimum

# Textbook gates and states, built here without the library's gate code.


def _beamsplitter(theta):
    """[[c I, -s I], [s I, c I]] from ``eye(2)``: its zeros carry the signs
    of c and s."""
    c, s = math.cos(theta), math.sin(theta)
    i2 = np.eye(2)
    return np.block([[c * i2, -s * i2], [s * i2, c * i2]])


def _rotation(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, s], [-s, c]])


def _squeezer(r):
    return np.diag([math.exp(-r), math.exp(r)])


def _on_modes(n, modes, block):
    """The 2n x 2n matrix that applies ``block`` to ``modes``, identity elsewhere."""
    out = np.eye(2 * n)
    idx = [k for m in modes for k in (2 * m, 2 * m + 1)]
    out[np.ix_(idx, idx)] = block
    return out


def _signal_state(alpha, n=1):
    """|alpha> in mode 0, vacuum in the other n - 1 modes."""
    disp = np.zeros(2 * n)
    disp[0] = math.sqrt(2.0) * alpha
    return GaussianState(np.eye(2 * n), disp)


def _meas_cov(r, phi):
    """Covariance of the single-mode measurement (r, phi)."""
    return GaussianMeasurementSpec.homodyne_stack([r], [phi]).cov


def _landscape_point(alpha, r, phi):
    """The landscape scan's point at (r, phi): sharpness e and Bayes error."""
    (point,), _ = verify_gaussian_optimum(BinaryEnsemble(alpha), [r], [phi])
    return point


def test_vacuum_and_coherent():
    """The vacuum is (I, 0); the signal |alpha> enters the binary output
    with displacement [sqrt(2) alpha, 0]."""
    v = vacuum(2)
    assert np.array_equal(v.cov, np.eye(4))
    assert np.array_equal(v.disp, np.zeros(4))
    empty = GaussianMeasurementSpec(np.empty((0, 0)), np.empty(0))
    out = binary_conditional_output(BinaryEnsemble(1.5), SymplecticOp(np.eye(2)), empty)
    assert np.allclose(out.disp_signal, [1.5 * math.sqrt(2), 0.0])


def test_balanced_beamsplitter_splits_amplitude():
    """|alpha> on a 50:50 splitter puts alpha/sqrt(2) in each arm."""
    st = apply_gaussian_unitary(_signal_state(1.0, 2), SymplecticOp(_beamsplitter(math.pi / 4)))
    assert np.allclose(st.disp, [1.0, 0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(st.cov, np.eye(4), atol=1e-15)


def test_squeezer_convention():
    """The circuits' squeezer at r maps the vacuum to diag(exp(-2r), exp(2r))."""
    st = apply_gaussian_unitary(vacuum(1), SymplecticOp(_gate_block("squeezer", 0.7)))
    assert np.allclose(st.cov, np.diag([math.exp(-1.4), math.exp(1.4)]))


def test_rotation_is_symplectic_orthogonal():
    s = _gate_block("rotation", 0.9)
    assert np.allclose(s @ s.T, np.eye(2), atol=1e-15)


def test_non_symplectic_matrix_rejected():
    with pytest.raises(ValueError, match="symplectic"):
        SymplecticOp(np.diag([2.0, 2.0]))


def test_dimension_mismatches_rejected():
    with pytest.raises(DimensionMismatchError):
        GaussianState(np.eye(3), np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        GaussianState(np.eye(2), np.zeros(4))
    with pytest.raises(DimensionMismatchError):
        apply_gaussian_unitary(vacuum(2), SymplecticOp(np.eye(2)))
    with pytest.raises(DimensionMismatchError, match=r"shape \(0,\) is not 2n x 2n"):
        GaussianMeasurementSpec([], [])


def test_zero_mode_state():
    """The state left after measuring every mode has no modes; it is valid."""
    st = GaussianState(np.zeros((0, 0)), np.zeros(0))
    assert st.n_modes == 0


def test_uncertainty_violation_rejected():
    with pytest.raises(ValueError, match="uncertainty"):
        GaussianState(0.5 * np.eye(2), np.zeros(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: GaussianState(np.eye(2), [x, 0.0]),
        lambda x: GaussianState([[x, 0.0], [0.0, 1.0]], [0.0, 0.0]),
        lambda x: GaussianState([[1.0, x], [x, 1.0]], [0.0, 0.0]),
        lambda x: GaussianMeasurementSpec(np.eye(2), [x, 0.0]),
        lambda x: GaussianMeasurementSpec([[x, 0.0], [0.0, 1.0]], [0.0, 0.0]),
        lambda x: SymplecticOp([[x, 0.0], [0.0, 1.0]]),
    ],
    ids=["state-disp", "state-cov-diag", "state-cov-offdiag", "meas-outcome", "meas-cov", "symplectic"],
)
def test_non_finite_input_rejected(build, bad):
    with pytest.raises(ValueError, match="non-finite"):
        build(bad)


def test_random_symplectic_stays_symplectic():
    # constructor re-validates, so surviving construction is the property;
    # run a spread of mode counts and check determinism for equal seeds
    for n in (1, 2, 3, 4):
        s1 = random_symplectic(n, np.random.default_rng(123))
        s2 = random_symplectic(n, np.random.default_rng(123))
        assert np.array_equal(s1.matrix, s2.matrix)
        omega = symplectic_form(n)
        assert np.abs(s1.matrix @ omega @ s1.matrix.T - omega).max() < 1e-10


def _layered_reference(n, rng):
    """The circuit draw as a layer-by-layer composition of 3 n layers of
    textbook gates: each gate's matrix multiplies the product so far from
    the left."""
    s = np.eye(2 * n)
    for _ in range(3 * n):
        gates = []
        if n >= 2:
            i, j = rng.choice(n, size=2, replace=False)
            block = _beamsplitter(rng.uniform(0.0, 2.0 * math.pi))
            gates.append(_on_modes(n, (int(i), int(j)), block))
        block = _rotation(rng.uniform(0.0, 2.0 * math.pi))  # angle, then mode
        gates.append(_on_modes(n, (int(rng.integers(n)),), block))
        block = _squeezer(rng.uniform(0.0, 1.5))
        gates.append(_on_modes(n, (int(rng.integers(n)),), block))
        for g in gates:
            s = g @ s
    return s


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_symplectic_pins_draw_and_product_order(n):
    """Bitwise equal to the layered composition, for several seeds; a
    change of draw order or of multiplication order breaks this."""
    for seed in (0, 1, 123, 2024):
        got = random_symplectic(n, np.random.default_rng([seed, n]))
        ref = _layered_reference(n, np.random.default_rng([seed, n]))
        assert got.matrix.tobytes() == ref.tobytes()


@pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2, 2.5, math.pi, 4.0, 5.9])
def test_beamsplitter_block_equals_block_form_bitwise(theta):
    """The circuits' beamsplitter block is [[c I, -s I], [s I, c I]] built
    from ``eye(2)``, zeros' sign bits included."""
    ref = _beamsplitter(theta)
    got = _gate_block("beamsplitter", theta)
    assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symplectic_form_equals_block_diag_bitwise(n):
    """The cached form equals scipy's direct sum, zeros' sign bits included,
    and cannot be written through."""
    omega = symplectic_form(n)
    ref = block_diag(*([np.array([[0.0, 1.0], [-1.0, 0.0]])] * n))
    assert omega.dtype == ref.dtype and np.array_equal(omega, ref)
    assert np.array_equal(np.signbit(omega), np.signbit(ref))
    assert symplectic_form(n) is omega
    with pytest.raises(ValueError, match="read-only"):
        omega[0, 1] = 2.0


def test_block_diag_equals_scipy_bitwise():
    rng = np.random.default_rng(5)
    blocks = [rng.normal(size=(d, d)) for d in (2, 4, 2, 2, 4)]
    blocks[1][0, 0] = -0.0
    ours, ref = _block_diag(blocks), block_diag(*blocks)
    assert ours.dtype == ref.dtype and np.array_equal(ours, ref)
    assert np.array_equal(np.signbit(ours), np.signbit(ref))


def test_empty_direct_sums_rejected():
    with pytest.raises(ValueError, match="rs and phis give none"):
        GaussianMeasurementSpec.homodyne_stack([], [])


def test_measurement_is_its_seed_state():
    """A measurement is a `GaussianState`: measurement covariance and, as
    ``disp``, the outcome; its covariance is named in errors."""
    meas = GaussianMeasurementSpec.homodyne_stack([1.0, 0.5], [0.0, 0.7], (0.1, 0.2, -0.3, 0.4))
    assert isinstance(meas, GaussianState) and meas.n_modes == 2
    assert np.array_equal(meas.disp, [0.1, 0.2, -0.3, 0.4])
    assert np.array_equal(meas.cov, _block_diag([_meas_cov(1.0, 0.0), _meas_cov(0.5, 0.7)]))
    assert np.array_equal(GaussianMeasurementSpec.homodyne_stack([1.0], [0.0]).disp, [0.0, 0.0])
    with pytest.raises(ValueError, match="measurement covariance violates the uncertainty"):
        GaussianMeasurementSpec(0.5 * np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="state covariance violates the uncertainty"):
        GaussianState(0.5 * np.eye(2), np.zeros(2))


def test_homodyne_stack_unequal_lengths_rejected():
    with pytest.raises(ValueError, match="2 rs but 1 phis"):
        GaussianMeasurementSpec.homodyne_stack([1.0, 2.0], [0.0])


def test_measurement_cov_det_one():
    rng = np.random.default_rng(11)
    for _ in range(200):
        r, phi = rng.uniform(0, 2.5), rng.uniform(0, 2 * math.pi)
        assert abs(np.linalg.det(_meas_cov(r, phi)) - 1.0) < 1e-9
    assert np.array_equal(_meas_cov(0.0, 1.3), np.eye(2))
    assert np.allclose(_meas_cov(1.0, 0.0), np.diag([math.exp(-2), math.exp(2)]))


def _random_pure_state(n, rng, alpha=0.7):
    op = random_symplectic(n, rng)
    return apply_gaussian_unitary(_signal_state(alpha, n), op)


def test_condition_zero_modes_is_passthrough():
    """Measuring nothing returns the state bitwise, even a covariance that is
    symmetric only within round-off, with density 1."""
    skew = np.eye(4)
    skew[0, 1] = 1e-14
    nothing = GaussianMeasurementSpec(np.empty((0, 0)), np.empty(0))
    for st in (_random_pure_state(2, np.random.default_rng(0)), GaussianState(skew, [0.3, -0.0, 0, 1])):
        out = condition_on_partial_measurement(st, 2, nothing)
        assert out.cov.tobytes() == st.cov.tobytes() and out.disp.tobytes() == st.disp.tobytes()
        assert out.density == 1.0


def test_condition_product_state_leaves_kept_mode_alone():
    """Measuring an uncorrelated mode must not touch the kept one (C = 0)."""
    st = GaussianState(np.eye(4), [math.sqrt(2.0) * 0.5, 0.0, math.sqrt(2.0) * -0.3, 0.0])
    meas = GaussianMeasurementSpec.homodyne_stack([1.0], [0.0], (0.2, -0.4))
    out = condition_on_partial_measurement(st, 1, meas)
    assert np.allclose(out.cov, np.eye(2), atol=1e-15)
    assert np.allclose(out.disp, st.disp[:2], atol=1e-15)


def test_condition_covariance_outcome_independent():
    st = _random_pure_state(3, np.random.default_rng(21))
    mc = _meas_cov(1.2, 0.4)
    cov_big = np.kron(np.eye(2), mc)  # two independent identical measurements
    a = condition_on_partial_measurement(st, 1, GaussianMeasurementSpec(cov_big, np.array([1.0, 0, -2.0, 3.0])))
    b = condition_on_partial_measurement(st, 1, GaussianMeasurementSpec(cov_big, np.zeros(4)))
    assert np.array_equal(a.cov, b.cov)


def test_condition_density_normalized():
    """Integrating the outcome density over the outcome plane gives 1.

    The density on the 161 x 161 grid is one batched Gaussian quadratic form
    through a single Cholesky factor of the outcome covariance; 200 seeded
    grid points check it against `condition_on_partial_measurement`."""
    st = _random_pure_state(2, np.random.default_rng(5))
    mc = _meas_cov(6.0, 0.0)
    m = st.cov[2:, 2:] + mc
    w, v = np.linalg.eigh(m)
    n1 = 161
    s1 = np.linspace(-9 * math.sqrt(w[0]), 9 * math.sqrt(w[0]), n1)
    s2 = np.linspace(-9 * math.sqrt(w[1]), 9 * math.sqrt(w[1]), n1)
    grid = np.stack(np.meshgrid(s1, s2, indexing="ij"), axis=-1).reshape(-1, 2)
    outcomes = st.disp[2:] + grid @ v.T
    chol = np.linalg.cholesky(m)
    u = np.linalg.solve(chol, (st.disp[2:] - outcomes).T)
    vals = np.exp(-np.sum(u * u, axis=0)) / (math.pi * np.prod(np.diag(chol)))
    for k in np.random.default_rng(6).choice(n1 * n1, 200, replace=False):
        lib = condition_on_partial_measurement(
            st, 1, GaussianMeasurementSpec(mc, outcomes[k])
        ).density
        assert abs(vals[k] - lib) <= 1e-12 * lib
    vals = vals.reshape(n1, n1)
    total = simpson(simpson(vals, x=s2, axis=1), x=s1)
    assert abs(total - 1.0) < 1e-6


def test_condition_singular_guard():
    st = vacuum(2)
    bad = GaussianMeasurementSpec(np.diag([1e14, 1e-14]), np.zeros(2))
    with pytest.raises(SingularMatrixError):
        condition_on_partial_measurement(st, 1, bad)


def test_schur_matches_scipy_cholesky():
    """On 300 seeded circuits the gain, the solved columns and ``log det M``
    match scipy's ``cho_factor``/``cho_solve`` to 1e-12 relative, or to
    4 eps cond(M) where that is larger: two backward-stable solves differ
    by about eps cond(M), and cond(M) reaches 1e6 on these circuits."""
    rng = np.random.default_rng(20261020)
    for _ in range(300):
        m = 2 + int(rng.integers(3))
        s = random_symplectic(m, rng).matrix
        g = s @ s.T
        g = 0.5 * (g + g.T)
        k = 1 + int(rng.integers(m - 1))
        meas = GaussianMeasurementSpec.homodyne_stack(rng.uniform(0.0, 2.0, k), rng.uniform(0.0, 2 * math.pi, k))
        na, rhs = 2 * (m - k), rng.normal(size=(2 * k, 2))
        _, gain, solved, logdet = _schur(g, na, meas.cov, rhs, "M")
        mat = g[na:, na:] + meas.cov
        factor = cho_factor(mat)
        tol = max(1e-12, 4 * np.finfo(float).eps * np.linalg.cond(mat))
        for got, ref in ((gain, cho_solve(factor, g[:na, na:].T)), (solved, cho_solve(factor, rhs))):
            assert np.abs(got - ref).max() <= tol * np.abs(ref).max()
        ref_logdet = 2.0 * np.log(np.diag(factor[0])).sum()
        assert abs(logdet - ref_logdet) <= 1e-12 * max(1.0, abs(ref_logdet))


def test_binary_output_shares_covariance_object_level(monkeypatch):
    """Both branches and ``shared_cov`` hold one read-only covariance, which
    is checked once per call."""
    ens = BinaryEnsemble(0.8)
    op = random_symplectic(3, np.random.default_rng(9))
    meas = GaussianMeasurementSpec.homodyne_stack([1.0, 0.5], [0.0, 0.7], [0.1, 0.2, -0.3, 0.4])
    checked = []
    check = gaussian._checked_cov
    monkeypatch.setattr(gaussian, "_checked_cov", lambda cov, what: checked.append(what) or check(cov, what))
    out = binary_conditional_output(ens, op, meas)
    assert checked == ["state covariance"]
    assert out.state_minus.cov is out.state_plus.cov is out.shared_cov
    assert not out.shared_cov.flags.writeable and not out.state_minus.disp.flags.writeable
    assert np.array_equal(out.state_plus.disp, out.disp_offset + out.disp_signal)
    assert np.array_equal(out.state_minus.disp, out.disp_offset - out.disp_signal)


def test_binary_output_matches_direct_conditioning():
    """Branches agree with conditioning the explicitly built +/- states,
    also when the measurement covers every mode (nothing is kept)."""
    ens = BinaryEnsemble(0.6)
    rng = np.random.default_rng(33)
    op = random_symplectic(2, rng)
    for keep, meas in (
        (1, GaussianMeasurementSpec.homodyne_stack([1.5], [0.0], (0.8, -0.1))),
        (0, GaussianMeasurementSpec.homodyne_stack([1.5, 0.7], [0.0, 0.4], (0.8, -0.1, 0.3, 0.2))),
    ):
        out = binary_conditional_output(ens, op, meas)
        assert out.shared_cov.shape == (2 * keep, 2 * keep)
        for sign, state, weight in (
            (1.0, out.state_plus, out.weight_plus),
            (-1.0, out.state_minus, out.weight_minus),
        ):
            fed = apply_gaussian_unitary(_signal_state(sign * ens.alpha, 2), op)
            ref = condition_on_partial_measurement(fed, keep, meas)
            assert np.allclose(state.cov, ref.cov, atol=1e-12)
            assert np.allclose(state.disp, ref.disp, atol=1e-12)
            assert weight > 0.0
            assert math.isclose(weight, 0.5 * ref.density, rel_tol=1e-12)


def test_binary_output_no_measurement():
    ens = BinaryEnsemble(0.5)
    op = SymplecticOp(_beamsplitter(math.pi / 4))
    out = binary_conditional_output(ens, op, GaussianMeasurementSpec(np.empty((0, 0)), np.empty(0)))
    assert out.weight_plus == out.weight_minus == 0.5
    assert np.allclose(out.disp_signal, [0.5, 0, 0.5, 0])


def test_pure_normal_form_examples():
    assert np.allclose(pure_normal_form(np.eye(2)).matrix, np.eye(2))
    got = pure_normal_form(np.diag([math.exp(-2.0), math.exp(2.0)])).matrix
    assert np.allclose(got, np.diag([math.e, 1.0 / math.e]), atol=1e-12)


def test_pure_normal_form_rejects_mixed():
    with pytest.raises(NotPureError) as err:
        pure_normal_form(2.0 * np.eye(2))
    assert abs(err.value.eigenvalue - 2.0) < 1e-12


@pytest.mark.parametrize(
    "cov, error, match",
    [
        (-np.eye(2), ValueError, "uncertainty relation"),
        ([[2.0, 1.0], [0.0, 0.5]], ValueError, "not symmetric"),
        ([[math.nan, 0.0], [0.0, 1.0]], ValueError, "non-finite"),
        (np.eye(3), DimensionMismatchError, "not 2n x 2n"),
    ],
    ids=["negative", "asymmetric", "nan", "odd"],
)
def test_pure_normal_form_rejects_what_is_no_covariance(cov, error, match):
    """The SVD sees only |eigenvalues|, so an input that is no state
    covariance is refused up front; -I would otherwise map to I."""
    with pytest.raises(error, match=match):
        pure_normal_form(cov)


def test_pure_normal_form_population():
    """500 random pure covariances: S_D Gamma S_D^T returns to the identity."""
    rng = np.random.default_rng(20260814)
    worst = 0.0
    used = 0
    for _ in range(500):
        n = 1 + int(rng.integers(3))
        s = random_symplectic(n, rng)
        cov = s.matrix @ s.matrix.T
        cov = 0.5 * (cov + cov.T)
        if np.linalg.cond(cov) > 1e6:
            # float64 cannot do better than ~eps * cond on the round trip, so
            # extreme draws are skipped rather than pretending to verify them
            continue
        used += 1
        sd = pure_normal_form(cov)
        worst = max(worst, np.abs(sd.matrix @ cov @ sd.matrix.T - np.eye(2 * n)).max())
    assert used > 400
    assert worst < 1e-9


def test_pure_normal_form_refuses_no_more_than_scipy_eigh():
    """On 1,500 circuits drawn as the benchmark's oracle draws them, the
    normal form refuses no more output covariances as not symplectic than
    the same construction from scipy's ``eigh``. numpy's ``eigh`` (LAPACK
    syevd) refuses more on these draws."""
    omega = {n: symplectic_form(n) for n in (1, 2, 3)}
    ours = ref = 0
    for seed in range(500):
        for m in (2, 3, 4):
            rng = np.random.default_rng([7919 * seed + 13, m])
            op = random_symplectic(m, rng)
            k = 1 + int(rng.integers(m - 1))
            meas = GaussianMeasurementSpec.homodyne_stack(
                rng.uniform(0.0, 2.0, k), rng.uniform(0.0, 2 * math.pi, k), rng.normal(size=2 * k)
            )
            cov = binary_conditional_output(BinaryEnsemble(float(rng.uniform(0.1, 1.5))), op, meas).shared_cov
            try:
                pure_normal_form(cov)
            except NotPureError:
                continue
            except ValueError as exc:
                assert "not symplectic" in str(exc)
                ours += 1
            w, v = eigh(cov)
            s_d = (v / np.sqrt(w)) @ v.T
            s_d = 0.5 * (s_d + s_d.T)
            ref += np.abs(s_d @ omega[m - k] @ s_d.T - omega[m - k]).max() > 1e-10
    assert ours <= ref


def test_pure_normal_form_deterministic():
    s = random_symplectic(2, np.random.default_rng(77))
    cov = 0.5 * (s.matrix @ s.matrix.T + (s.matrix @ s.matrix.T).T)
    assert np.array_equal(pure_normal_form(cov).matrix, pure_normal_form(cov).matrix)


def test_contrast_factor():
    """The landscape's sharpness factor e(r, phi)."""
    assert _landscape_point(1.0, 0.0, 0.0).e == 0.5
    assert _landscape_point(1.0, math.inf, 0.0).e == 1.0
    assert _landscape_point(1.0, math.inf, math.pi).e == pytest.approx(0.0, abs=1e-15)
    last = 0.0
    for r in np.linspace(0.0, 6.0, 25):
        e = _landscape_point(1.0, float(r), 0.0).e
        assert e >= last  # sharper squeezing never hurts at phi = 0
        last = e
        assert _landscape_point(1.0, float(r), math.pi).e <= 0.5 + 1e-15


def test_bayes_error_values():
    from scipy.special import erfc

    ens = BinaryEnsemble(1.0)
    assert bayes_error_from_contrast(ens, 1.0) == pytest.approx(0.5 * erfc(math.sqrt(2)), abs=1e-16)
    # r = 0 erases the phi dependence entirely: e = 1/2 exactly, so the call
    # is libm's erfc(0.7)/2 bit for bit (scipy's erfc is 6e-17 above it)
    assert _landscape_point(0.7, 0.0, 1.3).p_error == 0.5 * math.erfc(0.7)
    assert bayes_error_from_contrast(BinaryEnsemble(0.0), 1.0) == 0.5
    assert bayes_error_from_contrast(ens, 0.0) == 0.5


def test_bayes_error_monotone_in_sharpness():
    ens = BinaryEnsemble(0.5)
    es = np.linspace(0.05, 1.0, 30)
    ps = [bayes_error_from_contrast(ens, float(e)) for e in es]
    assert all(a > b for a, b in zip(ps, ps[1:]))


@pytest.mark.parametrize(
    "alpha, r, phi", [(0.5, 0.0, 0.0), (0.8, 0.5, 0.7), (0.3, 1.2, 2.5), (1.0, 2.0, 0.0)]
)
def test_bayes_error_integrates_outcome_densities(alpha, r, phi):
    """The Bayes error of the single-mode measurement (r, phi) is the
    integral of min(rho_+, rho_-) / 2 over the outcome plane, where rho_pm
    are the outcome densities of |+-alpha> (cross-checked against
    `condition_on_partial_measurement` at 20 seeded grid points).

    The grid runs along the eigenvectors of the outcome covariance; 401
    points per axis bring simpson's rule within 1e-5 relative of the exact
    value, where a sharpness e in place of sqrt(e) is off by 4% or more."""
    gm = _meas_cov(r, phi)
    m = np.eye(2) + gm
    w, v = np.linalg.eigh(m)
    axes = [np.linspace(-10 * math.sqrt(wi) - 2 * alpha, 10 * math.sqrt(wi) + 2 * alpha, 401) for wi in w]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2) @ v.T
    m_inv = np.linalg.inv(m)
    mu = np.array([math.sqrt(2.0) * alpha, 0.0])
    rho = [
        np.exp(-np.einsum("ij,jk,ik->i", grid - d, m_inv, grid - d)) / (math.pi * math.sqrt(np.linalg.det(m)))
        for d in (mu, -mu)
    ]
    for k in np.random.default_rng(6).choice(len(grid), 20, replace=False):
        lib = condition_on_partial_measurement(_signal_state(alpha), 0, GaussianMeasurementSpec(gm, grid[k]))
        assert abs(lib.density - rho[0][k]) <= 1e-12 * lib.density
    vals = (0.5 * np.minimum(*rho)).reshape(len(axes[0]), len(axes[1]))
    total = simpson(simpson(vals, x=axes[1], axis=1), x=axes[0])
    p = _landscape_point(alpha, r, phi).p_error
    assert abs(total - p) <= 1e-5 * p
