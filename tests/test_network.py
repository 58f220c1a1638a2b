"""Model assembly: architecture fidelity, initialization, forward pass, persistence."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpbnn import checks, mc_oracle
from mpbnn import moments as m
from mpbnn import network as net
from mpbnn import training as tr
from mpbnn.mc_oracle import mc_layer_moments, mc_network_moments


class TestBuilders:
    def test_gated_architecture_layer_for_layer(self):
        config = net.build_mp_gelu_model(13, 20, 0.05, m.FULL, net.HEAD_HETEROSCEDASTIC)
        kinds = [l.kind for l in config.layers]
        assert kinds == [net.DROPOUT, net.DENSE, net.MP_GELU, net.DENSE, net.MP_GELU, net.DENSE]
        assert len(config.layers) == 6
        assert config.dense_shapes == [(20, 13), (20, 20), (2, 20)]
        assert config.layers[-1].out_dim == 2

    def test_gated_one_output_variant(self):
        config = net.build_mp_gelu_model(1, 20, 0.05, m.FULL, net.HEAD_HOMOSCEDASTIC)
        assert config.layers[-1].out_dim == 1
        assert net.HEAD_DIMS[config.head] == 1

    def test_rectifier_architecture_layer_for_layer(self):
        """Dropout before each of the three dense layers, two rectifiers."""
        config = net.build_relu_model(13, 20, 0.05, m.FULL, net.HEAD_HETEROSCEDASTIC)
        kinds = [l.kind for l in config.layers]
        assert kinds == [
            net.DROPOUT, net.DENSE, net.RELU,
            net.DROPOUT, net.DENSE, net.RELU,
            net.DROPOUT, net.DENSE,
        ]
        assert sum(k == net.DROPOUT for k in kinds) == 3
        rates = {l.rate for l in config.layers if l.kind == net.DROPOUT}
        assert rates == {0.05}

    def test_rectifier_final_dense_shape(self):
        config = net.build_relu_model(8, 20, 0.05, m.DIAG, net.HEAD_HETEROSCEDASTIC)
        assert config.dense_shapes[-1] == (2, 20)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            net.build_mp_gelu_model(13, 0)
        with pytest.raises(ValueError):
            net.build_relu_model(0, 20)
        with pytest.raises(ValueError):
            net.build_mp_gelu_model(13, 20, dropout_rate=1.5)

    def test_head_dimension_consistency_enforced(self):
        layers = (net.dense(3, 20), net.dense(20, 3))
        with pytest.raises(ValueError):
            net.ModelConfig(layers, m.FULL, net.HEAD_HETEROSCEDASTIC)

    def test_layer_after_the_head_rejected(self):
        layers = (net.dense(3, 20), net.dense(20, 2), net.dropout(0.1))
        with pytest.raises(ValueError, match="^the head must be the last layer, not 'dropout'$"):
            net.ModelConfig(layers, m.FULL, net.HEAD_HETEROSCEDASTIC)

    def test_dense_chain_mismatch_rejected(self):
        layers = (net.dense(3, 8), net.dense(9, 2))
        with pytest.raises(ValueError):
            net.ModelConfig(layers, m.FULL, net.HEAD_HETEROSCEDASTIC)


class TestParameterSet:
    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError):
            net.ParameterSet([np.array([[np.nan]])], [np.zeros(1)])

    def test_gradient_shapes_mirror_parameters(self):
        """The GradientSet of a step is shaped exactly like the parameters."""
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, 3)), rng.standard_normal(2)
        for arch in (net.ARCH_MP_GELU, net.ARCH_RELU):
            config = net.build_model(arch, 3, 4, 0.1, m.FULL, net.HEAD_HOMOSCEDASTIC)
            params = net.init_parameters(config, 0)
            _, grads = tr.loss_and_gradients(config, params, x, y)
            assert [g.shape for g in grads.weights] == [w.shape for w in params.weights]
            assert [g.shape for g in grads.biases] == [b.shape for b in params.biases]


class TestInitParameters:
    def test_same_seed_bit_identical(self):
        config = net.build_mp_gelu_model(13, 20)
        p1 = net.init_parameters(config, 42)
        p2 = net.init_parameters(config, 42)
        for w1, w2 in zip(p1.weights, p2.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_different_seeds_differ(self):
        config = net.build_mp_gelu_model(13, 20)
        p1 = net.init_parameters(config, 1)
        p2 = net.init_parameters(config, 2)
        assert not np.array_equal(p1.weights[0], p2.weights[0])

    def test_fan_scaled_bound(self):
        config = net.build_mp_gelu_model(13, 20)
        params = net.init_parameters(config, 0)
        limit = np.sqrt(6.0 / 33.0)
        assert np.max(np.abs(params.weights[0])) <= limit
        for b in params.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_shared_initializer_across_architectures(self):
        """Equal dense-shape sequences give identical parameters per seed."""
        gated = net.build_mp_gelu_model(13, 20, 0.05, m.FULL, net.HEAD_HETEROSCEDASTIC)
        rect = net.build_relu_model(13, 20, 0.05, m.FULL, net.HEAD_HETEROSCEDASTIC)
        pg = net.init_parameters(gated, 7)
        pr = net.init_parameters(rect, 7)
        for wg, wr in zip(pg.weights, pr.weights):
            np.testing.assert_array_equal(wg, wr)


class TestForward:
    def test_zero_network_maps_to_zero_moments(self):
        config = net.build_mp_gelu_model(3, 5, 0.0, m.FULL, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 0)
        for w in params.weights:
            w[...] = 0.0
        mv = net.forward(config, params, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_array_equal(mv.mean, np.zeros(2))
        np.testing.assert_array_equal(mv.cov, np.zeros((2, 2)))

    def test_diag_mode_head_covariance_is_diagonal_vector(self):
        config = net.build_relu_model(4, 6, 0.1, m.DIAG, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 3)
        mv = net.forward(config, params, np.random.default_rng(0).standard_normal(4))
        assert mv.mode == m.DIAG
        assert mv.cov.shape == (2,)

    def test_full_mode_head_covariance_is_two_by_two(self):
        config = net.build_mp_gelu_model(4, 6, 0.1, m.FULL, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 3)
        mv = net.forward(config, params, np.random.default_rng(0).standard_normal(4))
        assert mv.cov.shape == (2, 2)

    def test_forward_determinism_bit_identical(self):
        config = net.build_relu_model(5, 8, 0.07, m.FULL, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 9)
        x = np.random.default_rng(1).standard_normal(5)
        a = net.forward(config, params, x)
        b = net.forward(config, params, x)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.cov, b.cov)

    @pytest.mark.parametrize("arch", [net.ARCH_MP_GELU, net.ARCH_RELU])
    def test_full_mode_batch_matches_public_op_chain(self, arch):
        """The batched pass enters the first dense layer with per-unit
        variances, the public ops with a full zero matrix: both agree."""
        config = net.build_model(arch, 5, 7, 0.1, m.FULL, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 4)
        xs = np.random.default_rng(2).standard_normal((6, 5))
        means, covs = net.forward_batch(config, params, xs)
        for x, mean, cov in zip(xs, means, covs):
            mv = m.lift_deterministic(x, m.FULL)
            weights = iter(zip(params.weights, params.biases))
            for layer in config.layers:
                if layer.kind == net.DENSE:
                    mv = m.dense_propagate(mv, *next(weights))
                elif layer.kind == net.DROPOUT:
                    mv = m.dropout_propagate(mv, layer.rate)
                elif layer.kind == net.MP_GELU:
                    mv = m.mp_gelu_propagate(mv)
                else:
                    mv = m.relu_propagate(mv)
            np.testing.assert_allclose(mean, mv.mean, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(cov, mv.cov, rtol=1e-10, atol=1e-12)

    def test_wrong_input_dim_rejected(self):
        config = net.build_mp_gelu_model(5, 4)
        params = net.init_parameters(config, 0)
        for x, shape in ((np.zeros(4), r"\(4,\)"), (np.zeros((1, 5)), r"\(1, 5\)"),
                         (0.0, r"\(\)")):
            with pytest.raises(m.MomentError,
                               match=rf"^input must be a vector of 5 features, got shape {shape}$"):
                net.forward(config, params, x)
        with pytest.raises(m.MomentError, match=r"^input batch must be \(B, 5\), got \(2, 4\)$"):
            net.forward_batch(config, params, np.zeros((2, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        """`forward` names the vector it was given, `forward_batch` the batch."""
        config = net.build_mp_gelu_model(5, 4)
        params = net.init_parameters(config, 0)
        x = np.zeros(5)
        x[3] = bad
        with pytest.raises(m.MomentError, match="^non-finite entries in input vector$"):
            net.forward(config, params, x)
        with pytest.raises(m.MomentError, match="^non-finite entries in input batch$"):
            net.forward_batch(config, params, np.stack([np.zeros(5), x]))

    @given(st.lists(st.one_of(st.floats(-3.0, 3.0),
                              st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 1e200])),
                    min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered in dot")
    def test_input_check_matches_isfinite(self, vals):
        """The input check accepts exactly what `np.isfinite` calls finite,
        whatever the shape, and names what it was given."""
        config = net.build_mp_gelu_model(4, 3, 0.05, m.DIAG)
        params = net.init_parameters(config, 0)
        xs = np.array(vals)

        def passed(fn, x):
            try:
                fn(config, params, x)
            except m.MomentError as exc:
                return str(exc)
            return "passed"

        bad = "passed" if np.isfinite(xs).all() else "non-finite entries in input"
        stub = mock.Mock(return_value=(np.zeros((1, 2)), np.zeros((1, 2))))
        with mock.patch.object(net, "_run_layers", stub):
            if xs.size == 4:
                assert passed(net.forward, xs) == bad.replace("input", "input vector")
            else:
                assert passed(net.forward, xs).startswith("input must be a vector of 4")
            if xs.size % 4 == 0:
                batch = xs.reshape(-1, 4)
                assert passed(net.forward_batch, batch) == bad.replace("input", "input batch")
                assert passed(net.forward_batch, batch.T[::-1].T) == passed(net.forward_batch,
                                                                            batch)

    @pytest.mark.parametrize("arch", [net.ARCH_MP_GELU, net.ARCH_RELU])
    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_forward_is_row_zero_of_a_batch_of_one(self, arch, mode):
        """One path: `forward` is `forward_batch` on its vector, bit for bit,
        at widths 20 and 64 (see `TestOneRowPass`)."""
        for width in (20, 64):
            config = net.build_model(arch, 13, width, 0.05, mode, net.HEAD_HETEROSCEDASTIC)
            params = net.init_parameters(config, 6)
            for x in np.random.default_rng(3).standard_normal((4, 13)):
                mv = net.forward(config, params, x)
                means, covs = net.forward_batch(config, params, x[None])
                assert mv.mean.tobytes() == means[0].tobytes()
                assert mv.cov.tobytes() == covs[0].tobytes()

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_weight_edited_in_place_reaches_the_next_pass(self, mode):
        """SGD updates weights in place, so nothing derived from them is kept
        between passes."""
        config = net.build_relu_model(5, 6, 0.1, mode, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 2)
        x = np.random.default_rng(4).standard_normal(5)
        before = net.forward(config, params, x)
        for layer in range(3):
            params.weights[layer] *= 1.5
            params.biases[layer] += 0.25
            after = net.forward(config, params, x)
            assert not np.array_equal(after.mean, before.mean)
            assert not np.array_equal(after.cov, before.cov)
            before = after

    @pytest.mark.parametrize("arch", [net.ARCH_MP_GELU, net.ARCH_RELU])
    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_non_finite_weight_rejected(self, arch, mode):
        """A weight that went NaN after construction (SGD updates in place)
        reaches the head and is rejected there, whichever layer holds it."""
        config = net.build_model(arch, 3, 5, 0.1, mode, net.HEAD_HETEROSCEDASTIC)
        for layer in range(3):
            params = net.init_parameters(config, 0)
            params.weights[layer][0, 0] = np.nan
            with pytest.raises(m.MomentError, match="^non-finite entries in moments$"):
                net.forward(config, params, np.ones(3))

    def test_head_moments_match_sampled_network(self):
        """Gated model head moments vs a 1e5-draw sampled pass, 4 se.

        The gated pipeline's moment algebra is exact (dense/gating layers
        need only the input's first two moments), so the strict bound holds
        end to end."""
        config = net.build_mp_gelu_model(3, 6, 0.15, m.FULL, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 5)
        x = np.array([0.8, -0.4, 1.3])
        mv = net.forward(config, params, x)
        est = mc_network_moments(config, params, x, 10**5, seed=17)
        assert np.all(np.abs(mv.mean - est.mean) <= 4 * est.standard_error_mean)
        assert np.all(
            np.abs(np.asarray(mv.cov) - est.cov) <= 4 * est.standard_error_cov
        )


class TestOneRowPass:
    """A one-row batch takes its own dense products: one 2-D GEMM each for
    W Σ and (W Σ) Wᵀ where a batch of B > 1 rows takes a flat GEMM and m
    GEMMs over the batch axis (see `moments`).  So it rounds differently
    from a row of a larger batch, within 1e-12 relative (the worst seen
    over 20 seeds was 1.6e-14), and raises what a larger batch raises.
    `TestForward::test_forward_is_row_zero_of_a_batch_of_one` holds
    `forward` to a batch of one, bit for bit."""

    WIDTHS = pytest.mark.parametrize("width", [20, 64])
    ARCHS = pytest.mark.parametrize("arch", [net.ARCH_MP_GELU, net.ARCH_RELU])
    MODES = pytest.mark.parametrize("mode", [m.FULL, m.DIAG])

    @staticmethod
    def model(arch, mode, width):
        config = net.build_model(arch, 13, width, 0.05, mode, net.HEAD_HETEROSCEDASTIC)
        return config, net.init_parameters(config, 8)

    @staticmethod
    def raised(fn, *args):
        with pytest.raises((m.MomentError, FloatingPointError)) as info:
            fn(*args)
        return type(info.value), str(info.value)

    @WIDTHS
    @ARCHS
    @MODES
    def test_forward_within_1e_12_of_its_row_in_a_batch(self, mode, arch, width):
        """Relative to the largest entry of the row's mean or covariance."""
        config, params = self.model(arch, mode, width)
        xs = np.random.default_rng(width).standard_normal((3, 13))
        means, covs = net.forward_batch(config, params, xs)
        for x, mean, cov in zip(xs, means, covs):
            mv = net.forward(config, params, x)
            for got, want in ((mv.mean, mean), (mv.cov, cov)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @WIDTHS
    @ARCHS
    @MODES
    def test_nan_weight_raises_the_same_at_one_and_three_rows(self, mode, arch, width):
        """A NaN weight in any dense layer below the head makes every head
        moment NaN, so the objective's message names the same row and
        values at either batch size."""
        config, params = self.model(arch, mode, width)
        x = np.random.default_rng(width).standard_normal((1, 13))
        for layer in range(len(params.weights) - 1):
            bad = params.copy()
            bad.weights[layer][0, 0] = np.nan
            one = self.raised(tr.loss, config, bad, x, [0.5])
            three = self.raised(tr.loss, config, bad, np.repeat(x, 3, axis=0), [0.5] * 3)
            assert one == three
            assert one[1].startswith("non-finite expected log-likelihood at row 0 (m1=nan")

    @WIDTHS
    @ARCHS
    @MODES
    def test_negative_variance_at_the_dense_clamp_raises_the_same(self, mode, arch, width):
        """The second dense layer resumed from a negative-definite input
        covariance, -Σ/4 with Σ the identity, on one row and on three copies
        of it."""
        config, params = self.model(arch, mode, width)
        x = np.random.default_rng(width).standard_normal((1, 13))
        states = []
        net._run_layers(config, params, x, states=states)
        layer_i, dense_i, mean, _ = states[1]
        messages = []
        for rows in (1, 3):
            cov = (np.broadcast_to(-0.25 * np.eye(width)[..., None], (width, width, rows))
                   if mode == m.FULL else np.full((rows, width), -0.25))
            resume = (layer_i, dense_i, np.repeat(mean, rows, axis=0), np.ascontiguousarray(cov))
            messages.append(self.raised(net._run_layers, config, params, x, None, None, resume))
        assert messages[0] == messages[1]
        assert messages[0][0] is m.MomentError
        assert re.fullmatch(r"negative variance -\d\.\d{3}e[+-]\d\d in dense_propagate",
                            messages[0][1])


SCALE, SCALE_FACTOR = "scale", -1.5


@pytest.fixture
def scale_kind(monkeypatch):
    """A test-only layer kind x -> a x, whose moments are exact and trivial:
    mean a μ, covariance a² Σ in every layout, adjoint (a g_μ, a² g_Σ) and
    draws a x.  It is registered in the three tables, and nowhere else."""
    a = SCALE_FACTOR
    monkeypatch.setitem(net._FWD, SCALE,
                        lambda layer, mean, cov, wb, mode: (a * mean, a * a * cov, None))
    monkeypatch.setitem(tr._BWD, SCALE,
                        lambda ctx, g_mean, g_cov, mode: (a * g_mean, a * a * g_cov))
    monkeypatch.setitem(mc_oracle._SAMPLE, SCALE, lambda layer, mean, cov, wb: (
        lambda x, u: np.multiply(x, a, out=x), False))


class TestNewLayerKind:
    """A new layer kind is its two kernels plus one entry in each of
    `network._FWD`, `training._BWD` and `mc_oracle._SAMPLE`: so registered,
    a kind placed after the first dense layer runs through the forward
    pass, the gradients and their finite-difference check, the MC oracle
    and `checks.layer_oracle`."""

    @staticmethod
    def model(mode, scaled=True):
        """A gated model with the scale layer after its first dense layer
        and nonzero biases; without `scaled`, the same model with the scale
        folded into the first dense layer's parameters instead."""
        layers = [net.dropout(0.15), net.dense(3, 6), net.LayerSpec(SCALE),
                  net.LayerSpec(net.MP_GELU), net.dense(6, 2)]
        params = net.init_parameters(net.ModelConfig(layers, mode, net.HEAD_HETEROSCEDASTIC), 5)
        params.biases[0][:] = np.linspace(-0.5, 0.5, 6)
        if not scaled:
            del layers[2]
            params.weights[0] *= SCALE_FACTOR
            params.biases[0] *= SCALE_FACTOR
        return net.ModelConfig(layers, mode, net.HEAD_HETEROSCEDASTIC), params

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_forward_is_the_folded_model(self, scale_kind, mode):
        x = np.array([0.8, -0.4, 1.3])
        got = net.forward(*self.model(mode), x)
        want = net.forward(*self.model(mode, scaled=False), x)
        np.testing.assert_allclose(got.mean, want.mean, rtol=1e-12)
        np.testing.assert_allclose(np.asarray(got.cov), np.asarray(want.cov), rtol=1e-12)

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_gradients_pass_fd_check(self, scale_kind, mode):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((4, 3)), rng.standard_normal(4)
        coordinates, _, violations = checks.fd_check(*self.model(mode), x, y)
        assert coordinates == 6 * 3 + 6 + 2 * 6 + 2
        assert violations == []

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_layer_moments_match_the_oracle(self, scale_kind, mode):
        a = SCALE_FACTOR
        mv = checks.random_case(4, mode, np.random.default_rng(6))
        est = mc_layer_moments(net.LayerSpec(SCALE), mv, 10**5, 3)
        assert np.all(np.abs(a * mv.mean - est.mean) <= 4 * est.standard_error_mean)
        if mode == m.FULL:
            assert np.all(np.abs(a * a * np.asarray(mv.cov) - est.cov)
                          <= 4 * est.standard_error_cov)
        else:
            assert np.all(np.abs(a * a * mv.variances - np.diag(est.cov))
                          <= 4 * np.diagonal(est.standard_error_cov))

    def test_kind_without_a_sampling_rule_is_named(self, scale_kind, monkeypatch):
        monkeypatch.delitem(mc_oracle._SAMPLE, SCALE)
        mv = checks.random_case(4, m.DIAG, np.random.default_rng(6))
        with pytest.raises(ValueError, match="^unknown layer kind 'scale'$"):
            mc_layer_moments(net.LayerSpec(SCALE), mv, 1000, 3)

    def test_network_moments_match_the_oracle(self, scale_kind):
        """Full mode, where the gated model's moment algebra is exact."""
        config, params = self.model(m.FULL)
        x = np.array([0.8, -0.4, 1.3])
        mv = net.forward(config, params, x)
        est = mc_network_moments(config, params, x, 10**5, seed=17)
        assert np.all(np.abs(mv.mean - est.mean) <= 4 * est.standard_error_mean)
        assert np.all(np.abs(np.asarray(mv.cov) - est.cov) <= 4 * est.standard_error_cov)

    def test_layer_oracle_checks_it(self, scale_kind):
        """`checks.layer_oracle` reads the kinds when it runs: the scale
        kind is checked in both modes, and the other kinds' results are
        those of a run without it."""
        mc_seed = lambda k, case: case  # noqa: E731
        results = checks.layer_oracle(2, 2000, 0, mc_seed)
        assert results[SCALE, m.FULL][1] == results[SCALE, m.DIAG][1] == []
        with mock.patch.dict(net._FWD):
            del net._FWD[SCALE]
            without = checks.layer_oracle(2, 2000, 0, mc_seed)
        assert {key: r for key, r in results.items() if key[0] != SCALE} == without


class TestPersistence:
    def test_roundtrip_bit_identical(self, tmp_path):
        config = net.build_relu_model(7, 9, 0.03, m.DIAG, net.HEAD_HOMOSCEDASTIC)
        params = net.init_parameters(config, 11)
        path = tmp_path / "model.json"
        net.save_model(path, config, params)
        config2, params2 = net.load_model(path)
        assert config2 == config
        for w1, w2 in zip(params.weights, params2.weights):
            np.testing.assert_array_equal(w1, w2)
        for b1, b2 in zip(params.biases, params2.biases):
            np.testing.assert_array_equal(b1, b2)

    def test_document_field_names(self, tmp_path):
        import json

        config = net.build_mp_gelu_model(3, 4)
        params = net.init_parameters(config, 0)
        doc = json.loads(net.model_to_json(config, params))
        assert set(doc) == {
            "covariance_mode", "head", "hidden_width", "layers", "weights", "biases",
        }
        assert doc["layers"][0]["kind"] == "dropout"
        assert doc["hidden_width"] == 4  # the first dense layer's width

    def test_shape_mismatch_rejected(self):
        config = net.build_mp_gelu_model(3, 4)
        params = net.init_parameters(config, 0)
        import json

        doc = json.loads(net.model_to_json(config, params))
        doc["weights"][0] = [[0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ValueError):
            net.model_from_json(json.dumps(doc))

    def test_head_bias_of_wrong_length_rejected(self):
        import json

        config = net.build_mp_gelu_model(3, 4)
        doc = json.loads(net.model_to_json(config, net.init_parameters(config, 0)))
        doc["biases"][-1] = [0.0]
        with pytest.raises(ValueError, match=r"^bias shapes \[\(4,\), \(4,\), \(1,\)\] "
                                             r"do not match config \[\(4,\), \(4,\), \(2,\)\]$"):
            net.model_from_json(json.dumps(doc))

    def test_missing_bias_list_rejected(self):
        import json

        config = net.build_mp_gelu_model(3, 4)
        doc = json.loads(net.model_to_json(config, net.init_parameters(config, 0)))
        del doc["biases"][1]
        with pytest.raises(ValueError, match=r"^bias shapes \[\(4,\), \(2,\)\] "
                                             r"do not match config \[\(4,\), \(4,\), \(2,\)\]$"):
            net.model_from_json(json.dumps(doc))
