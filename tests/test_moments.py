"""Layer moment formulas: fixed-value cases, algebraic properties, MC spot checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpbnn import moments as m
from mpbnn.mc_oracle import mc_layer_moments
from mpbnn.network import LayerSpec, DENSE, DROPOUT, MP_GELU, RELU


def full_mv(mean, cov):
    return m.MomentVector(np.asarray(mean, float), np.asarray(cov, float), m.FULL)


def diag_mv(mean, var):
    return m.MomentVector(np.asarray(mean, float), np.asarray(var, float), m.DIAG)


def random_psd(n, rng, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T / n + 0.2 * np.eye(n))


class TestMomentVector:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(m.MomentError):
            full_mv([1.0, 2.0], np.zeros((3, 3)))
        with pytest.raises(m.MomentError):
            diag_mv([1.0, 2.0], [1.0, 1.0, 1.0])

    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(m.MomentError):
            full_mv([0.0, 0.0], cov)

    def test_variance_clamp_policy(self):
        """Tiny negatives are symmetrization noise and clamp to zero."""
        mv = diag_mv([0.0], [-5e-11])
        assert mv.cov[0] == 0.0
        with pytest.raises(m.MomentError):
            diag_mv([0.0], [-1e-6])
        for make in (diag_mv, lambda mean, var: full_mv(mean, np.diag(var))):
            mixed = make(np.zeros(4), [2.0, -5e-11, 0.0, 3e-11])
            np.testing.assert_array_equal(mixed.variances, [2.0, 0.0, 0.0, 3e-11])
            assert make([0.0], [m.VAR_CLAMP]).variances[0] == 0.0
            with pytest.raises(m.MomentError, match=r"-3\.000e-04"):
                make(np.zeros(3), [-1e-6, 1.0, -3e-4])
        # NaN entries pass through untouched, -0.0 is not negative.
        np.testing.assert_array_equal(
            m._clamp_variances(np.array([np.nan, -5e-11, 1.0]), "t"), [np.nan, 0.0, 1.0]
        )
        with pytest.raises(m.MomentError):
            m._clamp_variances(np.array([np.nan, -1e-6]), "t")
        assert math.copysign(1.0, m._clamp_variances(np.array([-0.0]), "t")[0]) == -1.0

    def test_non_finite_rejected(self):
        with pytest.raises(m.MomentError):
            diag_mv([np.nan], [1.0])

    def test_immutable(self):
        mv = diag_mv([1.0], [1.0])
        with pytest.raises(ValueError):
            mv.mean[0] = 2.0


class TestLiftDeterministic:
    def test_wraps_values_with_zero_covariance(self):
        mv = m.lift_deterministic([1.0, -2.0], m.FULL)
        np.testing.assert_array_equal(mv.mean, [1.0, -2.0])
        np.testing.assert_array_equal(mv.cov, np.zeros((2, 2)))

    def test_empty_vector_is_error(self):
        with pytest.raises(m.MomentError):
            m.lift_deterministic([], m.FULL)

    def test_non_finite_is_error(self):
        with pytest.raises(m.MomentError):
            m.lift_deterministic([1.0, np.inf], m.DIAG)

    def test_feature_row_shape_contract(self):
        row = np.random.default_rng(0).standard_normal(13)
        assert m.lift_deterministic(row, m.DIAG).dim == 13


class TestDensePropagate:
    def test_identity_map(self):
        mv = full_mv([1.0, 2.0], np.zeros((2, 2)))
        out = m.dense_propagate(mv, np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(out.mean, [1.0, 2.0])
        np.testing.assert_array_equal(out.cov, np.zeros((2, 2)))

    def test_sum_of_independent_unit_variances(self):
        mv = diag_mv([0.0, 0.0], [1.0, 1.0])
        out = m.dense_propagate(mv, np.array([[1.0, 1.0]]), np.zeros(1))
        assert out.mean[0] == 0.0
        assert out.cov[0] == pytest.approx(2.0)

    def test_dimension_mismatch_is_error(self):
        mv = diag_mv([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(m.MomentError):
            m.dense_propagate(mv, np.eye(3), np.zeros(3))
        with pytest.raises(m.MomentError):
            m.dense_propagate(mv, np.eye(2), np.zeros(3))

    def test_matches_mc_oracle(self):
        """Random 3x3 map on a random full-covariance input, 1e6 samples, 3 se."""
        rng = np.random.default_rng(11)
        mv = full_mv(rng.uniform(-1, 1, 3), random_psd(3, rng))
        w = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        out = m.dense_propagate(mv, w, b)
        est = mc_layer_moments(LayerSpec(DENSE, in_dim=3, out_dim=3), mv, 10**6,
                               seed=1, weights=w, bias=b)
        assert np.all(np.abs(out.mean - est.mean) <= 3 * est.standard_error_mean)
        assert np.all(np.abs(np.asarray(out.cov) - est.cov) <= 3 * est.standard_error_cov)


class TestDropoutPropagate:
    def test_rate_zero_is_identity(self):
        rng = np.random.default_rng(2)
        mv = full_mv(rng.uniform(-1, 1, 3), random_psd(3, rng))
        out = m.dropout_propagate(mv, 0.0)
        np.testing.assert_allclose(out.mean, mv.mean, atol=0)
        np.testing.assert_allclose(out.cov, mv.cov, atol=0)

    def test_rate_one_drops_everything(self):
        mv = diag_mv([3.0, -1.0], [1.0, 2.0])
        out = m.dropout_propagate(mv, 1.0)
        np.testing.assert_array_equal(out.mean, [0.0, 0.0])
        np.testing.assert_array_equal(out.cov, [0.0, 0.0])

    def test_bernoulli_half_variance(self):
        out = m.dropout_propagate(diag_mv([1.0], [0.0]), 0.5)
        assert out.mean[0] == pytest.approx(0.5)
        assert out.cov[0] == pytest.approx(0.25)

    def test_rate_outside_unit_interval_is_error(self):
        mv = diag_mv([0.0], [1.0])
        with pytest.raises(m.MomentError):
            m.dropout_propagate(mv, -0.1)
        with pytest.raises(m.MomentError):
            m.dropout_propagate(mv, 1.1)

    def test_matches_mc_oracle(self):
        rng = np.random.default_rng(3)
        mv = full_mv(rng.uniform(-1, 1, 4), random_psd(4, rng))
        out = m.dropout_propagate(mv, 0.1)
        est = mc_layer_moments(LayerSpec(DROPOUT, rate=0.1), mv, 10**6, seed=4)
        assert np.all(np.abs(out.mean - est.mean) <= 3 * est.standard_error_mean)
        assert np.all(np.abs(np.asarray(out.cov) - est.cov) <= 3 * est.standard_error_cov)


class TestGateRates:
    def test_standard_normal_symmetry(self):
        rates = m.mp_gelu_rates(diag_mv([0.0], [1.0])).rates
        assert rates[0] == pytest.approx(0.5)

    def test_far_positive_mean_tail(self):
        rates = m.mp_gelu_rates(diag_mv([10.0], [1.0])).rates
        assert rates[0] == pytest.approx(7.62e-24, rel=1e-2)

    def test_deterministic_negative_input_always_drops(self):
        rates = m.mp_gelu_rates(diag_mv([-3.0], [0.0])).rates
        assert rates[0] == 1.0

    def test_deterministic_limits(self):
        rates = m.mp_gelu_rates(diag_mv([5.0, 0.0, -5.0], [0.0, 0.0, 0.0])).rates
        np.testing.assert_array_equal(rates, [0.0, 0.5, 1.0])

    def test_unit_variance_reduces_to_plain_gate(self):
        """With σ forced to 1 the drop probability is Φ(-μ)."""
        from scipy.special import ndtr

        mus = np.linspace(-3, 3, 13)
        rates = m.mp_gelu_rates(diag_mv(mus, np.ones_like(mus))).rates
        np.testing.assert_allclose(rates, ndtr(-mus), rtol=1e-12)


class TestMpGeluPropagate:
    def test_standard_normal_closed_form(self):
        """p = 0.5 at μ=0, σ²=1: q(σ²+μ²) − q²μ² = 0.5."""
        out = m.mp_gelu_propagate(diag_mv([0.0], [1.0]))
        assert out.mean[0] == pytest.approx(0.0, abs=1e-15)
        assert out.cov[0] == pytest.approx(0.5)

    def test_deterministic_positive_passes_unchanged(self):
        out = m.mp_gelu_propagate(diag_mv([2.0], [0.0]))
        assert out.mean[0] == 2.0 and out.cov[0] == 0.0

    def test_deterministic_negative_blocked(self):
        out = m.mp_gelu_propagate(diag_mv([-2.0], [0.0]))
        assert out.mean[0] == 0.0 and out.cov[0] == 0.0

    def test_matches_mc_oracle_standard_normal(self):
        mv = diag_mv([0.0], [1.0])
        est = mc_layer_moments(LayerSpec(MP_GELU), mv, 10**6, seed=9)
        assert abs(est.mean[0]) <= 4 * est.standard_error_mean[0]
        assert abs(est.cov[0, 0] - 0.5) <= 4 * est.standard_error_cov[0, 0]


class TestReluPropagate:
    def test_standard_normal_closed_form(self):
        out = m.relu_propagate(diag_mv([0.0], [1.0]))
        assert out.mean[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-9)
        assert out.cov[0] == pytest.approx(0.5 - 1.0 / (2 * math.pi), rel=1e-9)

    def test_deterministic_inputs(self):
        out = m.relu_propagate(diag_mv([3.0, -3.0], [0.0, 0.0]))
        np.testing.assert_array_equal(out.mean, [3.0, 0.0])
        np.testing.assert_array_equal(out.cov, [0.0, 0.0])

    def test_below_sigma_floor_keeps_first_order_variance(self):
        """step(μ)² var, the gain the full-mode off-diagonals use."""
        out = m.relu_propagate(diag_mv([3.0, -3.0, 0.0], [1e-26, 1e-26, 1e-26]))
        np.testing.assert_array_equal(out.mean, [3.0, 0.0, 0.0])
        np.testing.assert_array_equal(out.cov, [1e-26, 0.0, 0.25e-26])

    def test_matches_mc_oracle(self):
        mv = diag_mv([0.0], [1.0])
        est = mc_layer_moments(LayerSpec(RELU), mv, 10**6, seed=10)
        assert est.mean[0] == pytest.approx(0.39894, abs=4 * est.standard_error_mean[0])


class TestModeAgreement:
    """Full-mode diagonal equals diag-mode output when the input cov is diagonal."""

    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(0, 4)), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_gating_ops_agree_across_modes(self, cells):
        mean = np.array([c[0] for c in cells])
        var = np.array([c[1] for c in cells])
        mv_d = diag_mv(mean, var)
        mv_f = full_mv(mean, np.diag(var))
        for op in (lambda v: m.dropout_propagate(v, 0.3), m.mp_gelu_propagate):
            out_d = op(mv_d)
            out_f = op(mv_f)
            np.testing.assert_allclose(out_f.mean, out_d.mean, atol=1e-12, rtol=0)
            np.testing.assert_allclose(
                np.diagonal(out_f.cov), out_d.cov, atol=1e-12, rtol=0
            )


class TestReluLimit:
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_mp_gelu_equals_relu_on_deterministic_inputs(self, means):
        mean = np.array(means)
        mv = diag_mv(mean, np.zeros_like(mean))
        gated = m.mp_gelu_propagate(mv)
        rect = m.relu_propagate(mv)
        np.testing.assert_array_equal(gated.mean, rect.mean)
        np.testing.assert_array_equal(gated.cov, rect.cov)


class TestPsdPreservation:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_dense_output_covariance_stays_psd(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 4, 3
        mv = full_mv(rng.uniform(-2, 2, n), random_psd(n, rng, scale=2.0))
        w = rng.standard_normal((k, n))
        out = m.dense_propagate(mv, w, rng.standard_normal(k))
        evals = np.linalg.eigvalsh(np.asarray(out.cov))
        assert evals.min() >= -1e-8 * max(evals.max(), 1e-30)
        assert np.all(out.variances >= 0.0)

    @given(
        st.integers(0, 10_000),
        st.lists(st.floats(-12.5, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(-60.0, 60.0), min_size=4, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_full_mode_gates_and_dropout_stay_symmetric_psd(self, seed, log_sigma, ratio):
        """σ from just below the floor to 10, |μ/σ| up to 60, correlated units."""
        rng = np.random.default_rng(seed)
        sigma = 10.0 ** np.array(log_sigma)
        a = rng.standard_normal((4, 4))
        corr = a @ a.T + 0.05 * np.eye(4)
        d = np.sqrt(np.diag(corr))
        cov = sigma[:, None] * (corr / d[:, None] / d[None, :]) * sigma[None, :]
        mv = full_mv(np.array(ratio) * sigma, 0.5 * (cov + cov.T))
        for op in (m.mp_gelu_propagate, m.relu_propagate,
                   lambda v: m.dropout_propagate(v, 0.3)):
            out = np.asarray(op(mv).cov)
            scale = max(1.0, np.max(np.abs(out)))
            assert np.max(np.abs(out - out.T)) <= m.SYM_RTOL * scale
            evals = np.linalg.eigvalsh(out)
            assert evals.min() >= -1e-8 * max(evals.max(), 1e-30)
            assert np.all(np.diag(out) >= 0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_gating_ops_never_produce_negative_variance(self, seed):
        rng = np.random.default_rng(seed)
        mean = rng.uniform(-4, 4, 5)
        var = rng.uniform(0, 3, 5)
        for op in (m.mp_gelu_propagate, m.relu_propagate,
                   lambda v: m.dropout_propagate(v, 0.2)):
            out = op(diag_mv(mean, var))
            assert np.all(out.cov >= 0.0)


class TestFunctionCounters:
    def test_mp_gelu_uses_n_erf_calls(self):
        mv = diag_mv(np.zeros(7), np.ones(7))
        m.counters.reset()
        m.mp_gelu_propagate(mv)
        snap = m.counters.snapshot()
        assert snap["erf"] == 7
        assert snap["exp"] == 0
        assert snap["sqrt"] == 7

    def test_relu_uses_two_n_transcendental_calls_diag(self):
        mv = diag_mv(np.zeros(7), np.ones(7))
        m.counters.reset()
        m.relu_propagate(mv)
        snap = m.counters.snapshot()
        assert snap["erf"] == 7 and snap["exp"] == 7
        assert snap["erf"] + snap["exp"] >= 2 * 7

    def test_dense_and_dropout_use_none(self):
        mv = diag_mv(np.zeros(5), np.ones(5))
        m.counters.reset()
        m.dense_propagate(mv, np.eye(5), np.zeros(5))
        m.dropout_propagate(mv, 0.4)
        assert m.counters.total() == 0
