"""Model assembly: architecture fidelity, initialization, forward pass, persistence."""

import numpy as np
import pytest

from mpbnn import moments as m
from mpbnn import network as net
from mpbnn.mc_oracle import mc_network_moments


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
        assert config.head_dim == 1

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

    def test_dense_chain_mismatch_rejected(self):
        layers = (net.dense(3, 8), net.dense(9, 2))
        with pytest.raises(ValueError):
            net.ModelConfig(layers, m.FULL, net.HEAD_HETEROSCEDASTIC)


class TestParameterSet:
    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError):
            net.ParameterSet([np.array([[np.nan]])], [np.zeros(1)])

    def test_gradient_shapes_mirror_parameters(self):
        config = net.build_mp_gelu_model(3, 4)
        params = net.init_parameters(config, 0)
        for w, g in zip(params.weights, params.grad_weights):
            assert w.shape == g.shape
        with pytest.raises(ValueError):
            net.ParameterSet(
                [np.zeros((2, 2))], [np.zeros(2)],
                grad_weights=[np.zeros((3, 3))], grad_biases=[np.zeros(2)],
            )


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
        with pytest.raises(m.MomentError):
            net.forward(config, params, np.zeros(4))

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

    def test_shape_mismatch_rejected(self):
        config = net.build_mp_gelu_model(3, 4)
        params = net.init_parameters(config, 0)
        text = net.model_to_json(config, params).replace('"hidden_width": 4', '"hidden_width": 4')
        import json

        doc = json.loads(text)
        doc["weights"][0] = [[0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ValueError):
            net.model_from_json(json.dumps(doc))
