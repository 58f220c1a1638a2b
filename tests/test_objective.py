"""Objective and metrics: closed-form reductions, MC agreement, independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from mpbnn import moments as m
from mpbnn import objective as obj
from mpbnn.mc_oracle import mc_expected_ll
from mpbnn.network import HEAD_HETEROSCEDASTIC, HEAD_HOMOSCEDASTIC

LOG_2PI = math.log(2.0 * math.pi)


def head2(mean, cov, mode=m.FULL):
    return m.MomentVector(np.asarray(mean, float), np.asarray(cov, float), mode)


def random_head(rng, var_cap=1.2):
    mean = rng.uniform(-2, 2, 2)
    a = rng.standard_normal((2, 2))
    cov = a @ a.T * 0.4 + np.eye(2) * 0.05
    if cov[1, 1] > var_cap:  # keep e^{h2} tame; rescale preserves PSD
        d = np.diag([1.0, math.sqrt(var_cap / cov[1, 1])])
        cov = d @ cov @ d
    return head2(mean, cov)


class TestExpectedLogLikelihood:
    def test_zero_covariance_zero_head_reduces_to_unit_gaussian(self):
        mv = head2([0.0, 0.0], np.zeros((2, 2)))
        assert obj.expected_log_likelihood(mv, 0.0) == pytest.approx(-0.5 * LOG_2PI)

    def test_deterministic_head_is_gaussian_log_density(self):
        """E[h] = (y, 2 log s) with zero covariance gives log N(y|y, s²)."""
        for y, s in ((0.7, 0.5), (-1.2, 2.0), (3.0, 1.0)):
            mv = head2([y, 2.0 * math.log(s)], np.zeros((2, 2)))
            assert obj.expected_log_likelihood(mv, y) == pytest.approx(
                -0.5 * math.log(2 * math.pi * s * s)
            )

    def test_matches_mc_estimate(self):
        """A handful of random heads against the bivariate MC oracle, 4 se."""
        rng = np.random.default_rng(21)
        for case in range(20):
            mv = random_head(rng)
            y = rng.uniform(-2, 2)
            ell = obj.expected_log_likelihood(mv, y)
            est, se = mc_expected_ll(mv, y, 10**5, seed=100 + case)
            assert abs(ell - est) <= 4 * max(se, 1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_value_names_row_and_head_moments(self):
        """A head log-variance of -800 overflows exp(s22/2 − m2); the raise
        names the first bad row and its moments in both kernels."""
        mean = np.array([[0.1, 0.2], [0.5, -800.0], [0.0, -900.0]])
        var = np.array([[0.3, 0.4], [0.25, 0.5], [0.1, 0.1]])
        # Full-mode covariances batch-last, (h, h, B), as the moment kernels give them.
        for mode, cov in ((m.DIAG, var), (m.FULL, np.stack([np.diag(v) for v in var], -1))):
            with pytest.raises(FloatingPointError, match=r"non-finite expected log-likelihood "
                               r"at row 1 \(m1=0\.5, m2=-800\.0, s11=0\.25, s22=0\.5\)$"):
                obj._ell2_fwd(mean, cov, np.zeros(3), mode)
        with pytest.raises(FloatingPointError, match=r"at row 0 \(m1=0\.0, m2=-800\.0, "):
            obj.expected_log_likelihood(head2([0.0, -800.0], np.eye(2)), 0.0)
        with pytest.raises(FloatingPointError, match=r"\(1-output\) at row 2 \(m1=-1e\+200, s11=1\.0\)$"):
            obj._ell1_fwd(np.array([[0.0], [1.0], [-1e200]]), np.ones((3, 1)), np.zeros(3), m.DIAG)

    def test_wrong_head_dim_rejected(self):
        mv = m.MomentVector(np.zeros(1), np.zeros((1, 1)), m.FULL)
        with pytest.raises(m.MomentError):
            obj.expected_log_likelihood(mv, 0.0)

    def test_diagonal_mode_equals_full_with_zero_cross_term(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            mean = rng.uniform(-2, 2, 2)
            var = rng.uniform(0.01, 1.5, 2)
            y = rng.uniform(-2, 2)
            full = obj.expected_log_likelihood(head2(mean, np.diag(var)), y)
            diag = obj.expected_log_likelihood(head2(mean, var, m.DIAG), y)
            assert full == diag


class TestEll2Adjoint:
    """`_ell2_bwd` is the transpose of `_ell2_fwd`'s Jacobian J up to the
    overflow of exp(s22/2 − m2), which is near 709.8: ⟨g, J v⟩, a central
    difference of the forward kernel along a random direction v = (v_mean,
    symmetric v_cov), must equal ⟨Jᵀ g, v⟩ within 1e-5 relative, at step
    1e-5.  With m2 near −700 the exponent carries a rounding error of up to
    half an ulp of 700 (5.7e-14), about 6e-9 of a difference at that step,
    more where rows cancel.  Over 200 seeds the worst relative error was
    6.0e-8 at 0, 4.8e-7 at 300 and 9.7e-7 at 700 (4.4e-6 at step 1e-6)."""

    @pytest.mark.parametrize("excess", [0.0, 300.0, 700.0])
    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_backward_is_the_forward_transpose(self, mode, excess):
        step, rows = 1e-5, 4
        for seed in range(20):
            rng = np.random.default_rng(seed)
            s11, s22 = rng.uniform(0.5, 1.5, rows), rng.uniform(0.5, 1.5, rows)
            mean = np.stack([rng.standard_normal(rows), 0.5 * s22 - excess], axis=1)
            if mode == m.FULL:  # batch-last (h, h, B), as the moment kernels give it
                s12 = rng.uniform(-0.5, 0.5, rows) * np.sqrt(s11 * s22)
                cov = np.array([[s11, s12], [s12, s22]])
                v_cov = rng.standard_normal(cov.shape)
                v_cov = 0.5 * (v_cov + v_cov.transpose(1, 0, 2))
            else:
                cov = np.stack([s11, s22], axis=1)
                v_cov = rng.standard_normal(cov.shape)
            y, g = rng.standard_normal(rows), rng.standard_normal(rows)
            v_mean = rng.standard_normal(mean.shape)
            plus = obj._ell2_fwd(mean + step * v_mean, cov + step * v_cov, y, mode)[0]
            minus = obj._ell2_fwd(mean - step * v_mean, cov - step * v_cov, y, mode)[0]
            g_jv = np.vdot(g, (plus - minus) / (2.0 * step))
            g_mean, g_cov = obj._ell2_bwd(obj._ell2_fwd(mean, cov, y, mode)[1], g)
            jtg_v = np.vdot(g_mean, v_mean) + np.vdot(g_cov, v_cov)
            assert abs(g_jv - jtg_v) <= 1e-5 * abs(jtg_v), (seed, g_jv, jtg_v)


class TestEll1Adjoint:
    """`_ell1_bwd` is the transpose of `_ell1_fwd`'s Jacobian J: ⟨g, J v⟩, a
    central difference of the forward kernel at step 1e-5 along a random
    direction v, must equal ⟨Jᵀ g, v⟩ within 1e-6 relative.  Of 4 rows, one
    has s11 = 0 (its variance is VARIANCE_FLOOR) and one s11 within a few
    floors of 0.  Each row's label, mean and direction are on the scale of
    its σ (v_s11 on that of its variance), so every row counts alike and no
    perturbation drowns in the rounding of its operand.  Over 200 seeds the
    worst relative error was 6.6e-9 (9.0e-7 at step 1e-4, 2.5e-8 at 1e-6)."""

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_backward_is_the_forward_transpose(self, mode):
        step, rows = 1e-5, 4
        for seed in range(20):
            rng = np.random.default_rng(seed)
            s11 = np.array([0.0, rng.uniform(0.5, 2.0) * obj.VARIANCE_FLOOR,
                            *rng.uniform(0.5, 1.5, rows - 2)])
            sd = np.sqrt(s11 + obj.VARIANCE_FLOOR)
            y = sd * rng.standard_normal(rows)
            mean = (y + sd * rng.standard_normal(rows))[:, None]
            v_mean = sd[:, None] * rng.standard_normal((rows, 1))
            v_s11 = sd * sd * rng.standard_normal(rows)
            if mode == m.FULL:  # batch-last (1, 1, B), as the moment kernels give it
                cov, v_cov = s11[None, None], v_s11[None, None]
            else:
                cov, v_cov = s11[:, None], v_s11[:, None]
            g = rng.standard_normal(rows)
            plus = obj._ell1_fwd(mean + step * v_mean, cov + step * v_cov, y, mode)[0]
            minus = obj._ell1_fwd(mean - step * v_mean, cov - step * v_cov, y, mode)[0]
            g_jv = np.vdot(g, (plus - minus) / (2.0 * step))
            g_mean, g_cov = obj._ell1_bwd(obj._ell1_fwd(mean, cov, y, mode)[1], g)
            jtg_v = np.vdot(g_mean, v_mean) + np.vdot(g_cov, v_cov)
            assert abs(g_jv - jtg_v) <= 1e-6 * abs(jtg_v), (seed, g_jv, jtg_v)


class TestExpectedLogLikelihoodOneOutput:
    def test_unit_epistemic_variance_at_label(self):
        mv = m.MomentVector(np.array([1.3]), np.array([1.0]), m.DIAG)
        assert obj.expected_log_likelihood_1out(mv, 1.3) == pytest.approx(
            -0.5 * LOG_2PI, rel=1e-9
        )

    def test_zero_variance_bounded_by_floor_and_finite(self):
        mv = m.MomentVector(np.array([0.0]), np.array([0.0]), m.DIAG)
        val = obj.expected_log_likelihood_1out(mv, 2.0)
        assert math.isfinite(val)
        assert val < -1e10  # 4 / (2 * 1e-12) dominates

    def test_matches_independent_gaussian_log_density(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            mean, var, y = rng.uniform(-2, 2), rng.uniform(0.01, 3), rng.uniform(-2, 2)
            mv = m.MomentVector(np.array([mean]), np.array([var]), m.DIAG)
            expect = norm.logpdf(y, loc=mean, scale=math.sqrt(var + 1e-12))
            assert obj.expected_log_likelihood_1out(mv, y) == pytest.approx(expect, rel=1e-9)


class TestPredictiveMoments:
    def test_deterministic_head(self):
        for mean, s in ((0.4, 0.7), (-2.0, 1.5)):
            mv = head2([mean, 2.0 * math.log(s)], np.zeros((2, 2)))
            pm = obj.predictive_moments(mv, HEAD_HETEROSCEDASTIC)
            assert pm.mean == mean
            assert pm.variance == pytest.approx(s * s)

    def test_additivity_of_variance_components(self):
        mv = head2([0.0, 0.0], np.diag([0.25, 0.0]))
        pm = obj.predictive_moments(mv, HEAD_HETEROSCEDASTIC)
        assert pm.variance == pytest.approx(1.25)

    def test_one_output_head_uses_epistemic_variance_only(self):
        mv = m.MomentVector(np.array([0.3]), np.array([0.8]), m.DIAG)
        pm = obj.predictive_moments(mv, HEAD_HOMOSCEDASTIC)
        assert pm.mean == 0.3
        assert pm.variance == pytest.approx(0.8, rel=1e-9)

    def test_variance_matches_mc_total_variance(self):
        """Var[h1] + E[e^{h2}] estimated from 1e6 head draws, 4 se."""
        rng = np.random.default_rng(9)
        from mpbnn.mc_oracle import sample_input

        for case in range(6):
            mv = random_head(rng)
            pm = obj.predictive_moments(mv, HEAD_HETEROSCEDASTIC)
            draws = sample_input(mv, 10**6, np.random.default_rng(200 + case))
            h1 = draws[:, 0]
            ev = np.exp(draws[:, 1])
            est = h1.var(ddof=1) + ev.mean()
            c1 = (h1 - h1.mean()) ** 2
            se = math.sqrt((c1.var(ddof=1) + ev.var(ddof=1)) / draws.shape[0])
            assert abs(pm.variance - est) <= 4 * se


class TestMetrics:
    def test_nll_standard_normal_at_zero(self):
        pm = obj.PredictiveMoments(0.0, 1.0)
        assert obj.nll_metric(pm, 0.0) == pytest.approx(0.5 * LOG_2PI)

    @given(
        st.floats(-5, 5), st.floats(0.1, 5),
        st.floats(0.01, 10), st.floats(0.011, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_nll_increases_with_distance_at_fixed_variance(self, mean, var, d1, d2):
        lo, hi = sorted((d1, d2))
        if hi - lo < 1e-9:
            return
        pm = obj.PredictiveMoments(mean, var)
        assert obj.nll_metric(pm, mean + hi) > obj.nll_metric(pm, mean + lo)
        assert obj.nll_metric(pm, mean - hi) > obj.nll_metric(pm, mean - lo)

    def test_rmse_identities(self):
        ys = np.array([0.5, -1.0, 2.0])
        assert obj.rmse(ys, ys) == 0.0
        assert obj.rmse(ys + 1.0, ys) == pytest.approx(1.0)

    def test_rmse_length_mismatch_is_error(self):
        with pytest.raises(m.MomentError):
            obj.rmse(np.zeros(3), np.zeros(4))

    def test_predictive_variance_floor_enforced(self):
        with pytest.raises(m.MomentError):
            obj.PredictiveMoments(0.0, 0.0)
