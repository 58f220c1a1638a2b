"""Layer moment formulas: fixed-value cases, algebraic properties, MC spot checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        with pytest.raises(m.MomentError, match=r"full covariance must be \(2, 2\), got \(3, 3\)"):
            full_mv([1.0, 2.0], np.zeros((3, 3)))
        with pytest.raises(m.MomentError, match=r"diag covariance must be \(2,\), got \(3,\)"):
            diag_mv([1.0, 2.0], [1.0, 1.0, 1.0])
        with pytest.raises(m.MomentError, match=r"got \(0,\)"):
            diag_mv([1.0, 2.0], np.zeros(0))
        # The shape is checked before the symmetry.
        with pytest.raises(m.MomentError, match="must be"):
            full_mv([1.0, 2.0], np.triu(np.ones((3, 3))))

    def test_asymmetric_covariance_rejected(self):
        for cov in ([[1.0, 0.5], [0.1, 1.0]], [[1.0, 0.1], [0.5, 1.0]],
                    [[-1.0, 0.5], [0.1, 1.0]]):  # before the variance clamp
            with pytest.raises(m.MomentError, match="full covariance is not symmetric"):
                full_mv([0.0, 0.0], cov)
        # Within SYM_RTOL of the largest |entry| (or of 1) passes.
        full_mv([0.0, 0.0], [[1e3, 0.5], [0.5 + 1e-7, 1.0]])
        with pytest.raises(m.MomentError, match="not symmetric"):
            full_mv([0.0, 0.0], [[1e3, 0.5], [0.5 + 1e-5, 1.0]])

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
        nan_full = np.ones((2, 2))
        nan_full[0, 1] = nan_full[1, 0] = np.nan
        for make in (lambda: diag_mv([np.nan], [1.0]),
                     lambda: diag_mv([0.0, 0.0], [1.0, -np.inf]),  # before the clamp
                     lambda: diag_mv([np.inf, 0.0], [-1.0, 1.0]),
                     lambda: full_mv([0.0, 0.0], nan_full),
                     lambda: full_mv([0.0, 0.0], np.full((3, 3), np.nan))):  # before the shape
            with pytest.raises(m.MomentError, match="non-finite entries in moments"):
                make()

    def test_diag_view_writes_through(self):
        """Contiguous or not, `_diag(write=True)` is a view: writes reach the
        matrix.  A batch-last (n, n, B) stack gives its diagonals as (B, n)."""
        base = np.arange(18.0).reshape(3, 3, 2)
        for cov in (base.copy(), base.copy().transpose(1, 0, 2), base[..., 0].copy(),
                    base.copy()[..., 1]):
            want = np.einsum("ii...->...i", cov).copy()
            assert want.shape == cov.shape[2:] + (3,)
            np.testing.assert_array_equal(m._diag(cov), want)
            d = m._diag(cov, write=True)
            np.testing.assert_array_equal(d, want)
            d[...] = -1.0
            np.testing.assert_array_equal(np.einsum("ii...->...i", cov), -np.ones_like(want))

    def test_immutable(self):
        mv = diag_mv([1.0], [1.0])
        with pytest.raises(ValueError):
            mv.mean[0] = 2.0


# References for the guards' decisions: every minimum by `np.minimum.reduce`
# and every finiteness check by `np.isfinite`, as the guards first made them.
def ref_clamp_variances(var, where):
    worst = np.minimum.reduce(var, axis=None) if var.size else 0.0
    if worst >= 0.0:
        return var
    if worst < m.VAR_CLAMP or (worst != worst and np.any(var < m.VAR_CLAMP)):
        raise m.MomentError(f"negative variance {float(worst):.3e} in {where}")
    return np.where(var < 0.0, 0.0, var)


def ref_floor_guard(var, where):
    worst = np.minimum.reduce(var, axis=None) if var.size else 0.0
    if worst >= 0.0 and math.sqrt(worst) >= m.SIGMA_FLOOR:
        return var, np.sqrt(var), None
    var = ref_clamp_variances(var, where)
    sigma = np.sqrt(var)
    det = sigma < m.SIGMA_FLOOR
    return var, sigma, (det if det.any() else None)


def ref_moment_vector(mean, cov, mode):
    """(mean, cov) as `MomentVector` stores them, or its raise."""
    cov_max = float(np.maximum.reduce(np.abs(cov), axis=None)) if cov.size else 0.0
    if not (np.isfinite(mean).all() and math.isfinite(cov_max)):
        raise m.MomentError("non-finite entries in moments")
    n = mean.size
    if mode == m.FULL:
        if cov.shape != (n, n):
            raise m.MomentError(f"full covariance must be ({n}, {n}), got {cov.shape}")
        if np.maximum.reduce(cov - cov.T, axis=None) > m.SYM_RTOL * max(1.0, cov_max):
            raise m.MomentError("full covariance is not symmetric")
        cov = cov.copy()
        np.fill_diagonal(cov, ref_clamp_variances(np.diagonal(cov).copy(), "MomentVector"))
        return mean, cov
    if cov.shape != (n,):
        raise m.MomentError(f"diag covariance must be ({n},), got {cov.shape}")
    return mean, ref_clamp_variances(cov.copy(), "MomentVector")


def outcome(fn, *args):
    """What a call returned, as bytes (None stays None), or the message it
    raised."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            out = fn(*args)
    except m.MomentError as exc:
        return "raise", str(exc)
    parts = out if isinstance(out, tuple) else (out,)
    return "ok", [None if a is None else (a.shape, np.asarray(a).tobytes()) for a in parts]


EDGES = [np.nan, np.inf, -np.inf, -0.0, 0.0, -5e-11, m.VAR_CLAMP, -1e-6,
         m.SIGMA_FLOOR**2, np.nextafter(m.SIGMA_FLOOR**2, 0.0), 1e-300, 1e200]
# Mostly valid variances, with every edge at any position.
variances = st.one_of(
    st.floats(0.0, 4.0),
    st.floats(m.VAR_CLAMP, 0.0, exclude_min=True, exclude_max=True),
    st.sampled_from(EDGES),
)


@st.composite
def variance_arrays(draw):
    """Variances as the guards see them: a contiguous (B, n) array, the
    strided (B, n) diagonal view of a batch-last (n, n, B) covariance, a
    1-d vector or the diagonal of one (n, n) matrix."""
    batch, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    vals = np.array(draw(st.lists(variances, min_size=batch * n, max_size=batch * n)))
    layout = draw(st.sampled_from(["rows", "batch-last", "vector", "matrix"]))
    if layout == "rows":
        return vals.reshape(batch, n)
    if layout == "vector":
        return vals[:n].copy()
    cov = np.full((n, n, batch), 0.3)
    m._diag(cov, write=True)[...] = vals.reshape(batch, n)
    return m._diag(cov) if layout == "batch-last" else m._diag(cov[..., 0].copy())


class TestGuardReductions:
    """The guards take their minimum by `argmin` where that is cheaper and
    their finiteness from one dot product; every decision, returned byte and
    message stays that of `np.minimum.reduce` and `np.isfinite`."""

    @given(variance_arrays())
    @settings(max_examples=300, deadline=None)
    def test_clamp_variances_matches_reference(self, var):
        got = outcome(m._clamp_variances, var, "t")
        assert got == outcome(ref_clamp_variances, var, "t")
        if np.minimum.reduce(var, axis=None) >= 0.0:  # nothing to clamp: no copy
            assert m._clamp_variances(var, "t") is var

    @given(variance_arrays())
    @settings(max_examples=300, deadline=None)
    def test_floor_guard_matches_reference(self, var):
        assert outcome(m._floor_guard, var, "t") == outcome(ref_floor_guard, var, "t")

    @pytest.mark.filterwarnings("ignore:overflow encountered in dot")
    @given(st.lists(variances, max_size=12), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_finite_matches_isfinite(self, vals, rows):
        a = np.array(vals * rows).reshape(rows, -1)
        for view in (a, a.T, a[:, ::2]):
            assert m._finite(view) == bool(np.isfinite(view).all())

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_moment_vector_matches_reference(self, data):
        mode = data.draw(st.sampled_from(m.MODES))
        n = data.draw(st.integers(1, 4))
        size = n + data.draw(st.sampled_from([0, 0, 0, 1]))  # now and then the wrong shape
        mean = np.array(data.draw(st.lists(st.one_of(st.floats(-3.0, 3.0), st.sampled_from(EDGES)),
                                           min_size=n, max_size=n)))
        if mode == m.DIAG:
            cov = np.array(data.draw(st.lists(variances, min_size=size, max_size=size)))
        else:
            a = np.array(data.draw(st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from(EDGES)),
                                            min_size=size * size, max_size=size * size)))
            a = a.reshape(size, size)
            cov = np.where(np.tri(size, dtype=bool), a.T, a)
            np.fill_diagonal(cov, data.draw(st.lists(variances, min_size=size, max_size=size)))
            cov[0, -1] += data.draw(st.sampled_from([0.0, 0.0, 5e-10, 2e-9, 1e-3]))

        def build(mean, cov, mode):
            mv = m.MomentVector(mean, cov, mode)
            return mv.mean, mv.cov

        assert outcome(build, mean, cov, mode) == outcome(ref_moment_vector, mean, cov, mode)


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

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5, np.inf])
    def test_rate_outside_unit_interval_rejected(self, bad):
        with pytest.raises(m.MomentError, match=r"rates must lie in \[0, 1\]"):
            m.GateRates([bad, 0.5])
        m.GateRates([0.0, 0.5, 1.0])


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

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_tiny_negative_input_variance_is_clamped(self, mode):
        """A direct kernel call with var −5e-11 at μ > 0: the gate clamps it
        to 0 for its rate, its output and its context, as the rectifier
        does."""
        mean = np.array([[2.0, -1.0, 0.5]])
        var = np.array([-5e-11, 1.0, 0.3])
        cov = np.diag(var)[:, :, None] if mode == m.FULL else var[None]
        _, out_cov, ctx = m._mp_gelu_fwd(mean, cov, mode)
        _, relu_cov, _ = m._relu_fwd(mean, cov, mode)
        gate_var, relu_var = (m._diag(c) if mode == m.FULL else c for c in (out_cov, relu_cov))
        assert gate_var[0, 0] == 0.0 and relu_var[0, 0] == 0.0
        assert ctx[1][0, 0] == 0.0  # the variance the adjoint reads
        assert np.all(gate_var >= 0.0)

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

    def test_variance_keeps_its_precision_at_large_ratio(self):
        """At μ/σ ≥ 1e8 the variance passes through (E[r²] − mean'² gave 0,
        0 and +22 % here); at moderate μ/σ the value is unchanged."""
        out = m.relu_propagate(diag_mv([1e3, 1e5, 1e6], [1e-12, 1e-8, 1e-4]))
        np.testing.assert_allclose(out.cov, [1e-12, 1e-8, 1e-4], rtol=1e-12, atol=0)
        from scipy.special import ndtr

        mean, var = np.array([0.3, -3.0, 2.0]), np.array([1.0, 0.5, 1.0])
        sigma = np.sqrt(var)
        cdf, pdf = ndtr(mean / sigma), np.exp(-0.5 * (mean / sigma) ** 2) / math.sqrt(2 * math.pi)
        first = mean * cdf + sigma * pdf
        second = (mean * mean + var) * cdf + mean * sigma * pdf
        out = m.relu_propagate(diag_mv(mean, var))
        np.testing.assert_allclose(out.mean, first, rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.cov, second - first * first, rtol=1e-12, atol=0)

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
        for op in (lambda v: m.dropout_propagate(v, 0.3), m.mp_gelu_propagate,
                   m.relu_propagate):
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
        # Half the units keep |μ/σ| ≤ 60; the rest stretch it up to 6e10.
        st.lists(st.one_of(st.just(1.0), st.sampled_from([1e4, 1e8, 1e9])),
                 min_size=4, max_size=4),
    )
    @example(seed=0, log_sigma=[0.0] * 4, ratio=[1.0] * 4, stretch=[1e8, 1.0, 1.0, 1.0])
    @settings(max_examples=150, deadline=None)
    def test_full_mode_gates_and_dropout_stay_symmetric_psd(self, seed, log_sigma, ratio,
                                                            stretch):
        """σ from just below the floor to 10, |μ/σ| up to 6e10, correlated units."""
        ratio = np.array(ratio) * np.array(stretch)
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
        assert m.counters.snapshot() == {"erf": 0, "exp": 0, "sqrt": 0}
