"""Gradient machinery and the SGD loop."""

import threading

import numpy as np
import pytest

from mpbnn import moments as m
from mpbnn import network as net
from mpbnn import training as tr
from mpbnn.data import toy_generate


def fd_gradient(config, params, x, y, arr, idx, h=1e-5):
    orig = arr[idx]
    arr[idx] = orig + h
    lp, _ = tr.loss_and_gradients(config, params, x, y)
    arr[idx] = orig - h
    lm, _ = tr.loss_and_gradients(config, params, x, y)
    arr[idx] = orig
    return (lp - lm) / (2.0 * h)


def assert_grads_match_fd(config, params, x, y):
    _, grads = tr.loss_and_gradients(config, params, x, y)
    for arrs, garrs in ((params.weights, grads.weights), (params.biases, grads.biases)):
        for li, arr in enumerate(arrs):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                fd = fd_gradient(config, params, x, y, arr, idx)
                an = garrs[li][idx]
                if abs(an) < 1e-3:
                    assert abs(an - fd) < 1e-7, (li, idx, an, fd)
                else:
                    assert abs(an - fd) / abs(an) < 1e-4, (li, idx, an, fd)


class TestLossAndGradients:
    def test_zero_weight_network_smoke(self):
        """Zero weights: finite loss, finite bias gradients."""
        config = net.build_mp_gelu_model(3, 5, 0.1, m.FULL, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 0)
        for w in params.weights:
            w[...] = 0.0
        rng = np.random.default_rng(0)
        loss, grads = tr.loss_and_gradients(
            config, params, rng.standard_normal((4, 3)), rng.standard_normal(4)
        )
        assert np.isfinite(loss)
        for g in grads.biases:
            assert np.all(np.isfinite(g))

    @pytest.mark.parametrize("arch", [net.ARCH_MP_GELU, net.ARCH_RELU])
    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_gradients_match_finite_differences(self, arch, mode):
        """Exact adjoints vs central differences on a small two-head sweep.

        Each architecture also runs without its leading dropout, so its
        first dense layer sees an exactly zero input covariance."""
        rng = np.random.default_rng(13)
        for head in (net.HEAD_HETEROSCEDASTIC, net.HEAD_HOMOSCEDASTIC):
            config = net.build_model(arch, 4, 5, 0.2, mode, head)
            params = net.init_parameters(config, 1)
            x = rng.standard_normal((3, 4))
            y = rng.standard_normal(3)
            assert_grads_match_fd(config, params, x, y)
            dense_first = net.ModelConfig(config.layers[1:], mode, head, hidden_width=5)
            assert dense_first.layers[0].kind == net.DENSE
            assert_grads_match_fd(dense_first, net.init_parameters(dense_first, 1), x, y)

    def test_duplicated_batch_leaves_mean_gradient_unchanged(self):
        config = net.build_relu_model(3, 5, 0.1, m.DIAG, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 2)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 3))
        y = rng.standard_normal(3)
        loss1, g1 = tr.loss_and_gradients(config, params, x, y)
        loss2, g2 = tr.loss_and_gradients(
            config, params, np.vstack([x, x]), np.concatenate([y, y])
        )
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        for a, b in zip(g1.weights, g2.weights):
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_empty_batch_rejected(self):
        config = net.build_mp_gelu_model(3, 4)
        params = net.init_parameters(config, 0)
        with pytest.raises(ValueError):
            tr.loss_and_gradients(config, params, np.zeros((0, 3)), np.zeros(0))

    def test_non_finite_loss_is_hard_error(self, monkeypatch):
        config = net.build_mp_gelu_model(2, 3, 0.1, m.DIAG, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 0)
        orig = m._mp_gelu_fwd

        def poisoned(mean, cov, mode):
            out_mean, out_cov, ctx = orig(mean, cov, mode)
            return np.full_like(out_mean, np.nan), out_cov, ctx

        monkeypatch.setattr(tr.moments, "_mp_gelu_fwd", poisoned)
        rng = np.random.default_rng(0)
        with pytest.raises(FloatingPointError, match="non-finite"):
            tr.loss_and_gradients(
                config, params, rng.standard_normal((2, 2)), rng.standard_normal(2)
            )

    def test_non_finite_gradient_error_names_layer(self, monkeypatch):
        config = net.build_mp_gelu_model(2, 3, 0.1, m.DIAG, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 0)
        orig = tr._mp_gelu_bwd

        def poisoned(ctx, g_mean, g_cov, mode):
            g_mean_in, g_cov_in = orig(ctx, g_mean, g_cov, mode)
            return np.full_like(g_mean_in, np.nan), g_cov_in

        monkeypatch.setattr(tr, "_mp_gelu_bwd", poisoned)
        rng = np.random.default_rng(0)
        with pytest.raises(FloatingPointError, match=r"layer \d+ \(mp_gelu\)"):
            tr.loss_and_gradients(
                config, params, rng.standard_normal((2, 2)), rng.standard_normal(2)
            )

    def test_gradient_accumulators_updated_in_place(self):
        config = net.build_mp_gelu_model(2, 3, 0.1)
        params = net.init_parameters(config, 0)
        rng = np.random.default_rng(1)
        _, grads = tr.loss_and_gradients(
            config, params, rng.standard_normal((2, 2)), rng.standard_normal(2)
        )
        for acc, g in zip(params.grad_weights, grads.weights):
            np.testing.assert_array_equal(acc, g)


class TestStepBufferPool:
    """Full-mode steps lend their (B, n, n) arrays from a per-thread pool."""

    @staticmethod
    def _unpooled(config, params, xs, ys):
        """Reference call with no buffer reuse: a new thread starts with an
        empty pool, and `_release` is patched out by the caller."""
        out = []
        worker = threading.Thread(
            target=lambda: out.append(tr.loss_and_gradients(config, params, xs, ys))
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and out
        return out[0]

    def test_reused_buffers_give_identical_results(self, monkeypatch):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((9, 3))
        y = rng.standard_normal(9)
        batches = {"full": (x, y), "short": (x[:4], y[:4])}
        models = {}
        for arch in (net.ARCH_MP_GELU, net.ARCH_RELU):
            config = net.build_model(arch, 3, 5, 0.2, m.FULL, net.HEAD_HETEROSCEDASTIC)
            models[arch] = (config, net.init_parameters(config, 3))
        with monkeypatch.context() as patch:
            patch.setattr(m, "_release", lambda arr: None)
            ref = {(a, b): self._unpooled(*models[a], *batches[b])
                   for a in models for b in batches}

        def check(arch, batch):
            loss, grads = tr.loss_and_gradients(*models[arch], *batches[batch])
            ref_loss, ref_grads = ref[arch, batch]
            assert loss == ref_loss, (arch, batch)
            for got, want in zip(grads.weights + grads.biases,
                                 ref_grads.weights + ref_grads.biases):
                np.testing.assert_array_equal(got, want)

        order = [(net.ARCH_MP_GELU, "full"), (net.ARCH_RELU, "full"),
                 (net.ARCH_MP_GELU, "short"), (net.ARCH_RELU, "short"),
                 (net.ARCH_RELU, "full"), (net.ARCH_MP_GELU, "full")]
        for arch, batch in order:
            check(arch, batch)

        def poisoned(ctx, g_mean, g_cov, mode):
            raise FloatingPointError("poisoned kernel")

        with monkeypatch.context() as patch:
            patch.setattr(tr, "_relu_bwd", poisoned)
            with pytest.raises(FloatingPointError, match="poisoned"):
                tr.loss_and_gradients(*models[net.ARCH_RELU], x, y)
        assert m._pool.lent is None  # the raise closed the step

        # Outside a step nothing is pooled, so a later step cannot touch
        # what forward_batch returned.
        fb_mean, fb_cov = net.forward_batch(*models[net.ARCH_MP_GELU], x)
        kept = fb_cov.copy()
        lent = []
        orig_empty = m._empty

        def recording(shape):
            arr = orig_empty(shape)
            lent.append(arr)
            return arr

        with monkeypatch.context() as patch:
            patch.setattr(m, "_empty", recording)
            for arch, batch in reversed(order):
                check(arch, batch)
        assert lent
        assert not any(np.shares_memory(fb, arr) for fb in (fb_mean, fb_cov) for arr in lent)
        np.testing.assert_array_equal(fb_cov, kept)


class TestSgdStep:
    def test_zero_learning_rate_is_identity(self):
        config = net.build_mp_gelu_model(2, 3)
        params = net.init_parameters(config, 0)
        before = [w.copy() for w in params.weights]
        grads = tr.GradientSet(
            [np.ones_like(w) for w in params.weights],
            [np.ones_like(b) for b in params.biases],
        )
        tr.sgd_step(params, grads, 0.0)
        for w, b in zip(params.weights, before):
            np.testing.assert_array_equal(w, b)

    def test_single_scalar_update(self):
        params = net.ParameterSet([np.array([[1.0]])], [np.array([0.0])])
        grads = tr.GradientSet([np.array([[2.0]])], [np.array([0.0])])
        tr.sgd_step(params, grads, 0.1)
        assert params.weights[0][0, 0] == pytest.approx(0.8)

    def test_two_identical_steps_identical_result(self):
        config = net.build_relu_model(2, 3)
        p1 = net.init_parameters(config, 5)
        p2 = p1.copy()
        grads = tr.GradientSet(
            [np.full_like(w, 0.3) for w in p1.weights],
            [np.full_like(b, -0.2) for b in p1.biases],
        )
        tr.sgd_step(p1, grads, 0.05)
        tr.sgd_step(p2, grads, 0.05)
        for a, b in zip(p1.weights, p2.weights):
            np.testing.assert_array_equal(a, b)


class TestTrainLoop:
    def test_zero_epochs_returns_initial_parameters(self):
        config = net.build_mp_gelu_model(1, 4, 0.01)
        ds = toy_generate(20, seed=0)
        tc = tr.TrainConfig(0.1, 0, 10, 3)
        params, trace = tr.train(config, tc, ds.features, ds.labels)
        init_ss = np.random.SeedSequence(3).spawn(2)[0]
        reference = net.init_parameters(config, init_ss)
        for a, b in zip(params.weights, reference.weights):
            np.testing.assert_array_equal(a, b)
        assert trace == []

    def test_training_is_bit_deterministic(self):
        config = net.build_relu_model(1, 6, 0.05, m.DIAG, net.HEAD_HETEROSCEDASTIC)
        ds = toy_generate(30, seed=1)
        tc = tr.TrainConfig(0.05, 8, 8, 7)
        p1, t1 = tr.train(config, tc, ds.features, ds.labels)
        p2, t2 = tr.train(config, tc, ds.features, ds.labels)
        assert t1 == t2
        for a, b in zip(p1.weights, p2.weights):
            np.testing.assert_array_equal(a, b)

    def test_loss_decreases_on_toy_data(self):
        config = net.build_mp_gelu_model(1, 10, 0.001, m.FULL, net.HEAD_HETEROSCEDASTIC)
        ds = toy_generate(60, seed=2)
        tc = tr.TrainConfig(0.1, 80, 60, 0)
        _, trace = tr.train(config, tc, ds.features, ds.labels)
        assert trace[-1] < trace[0]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(-0.1, 10, 10, 0)
        with pytest.raises(ValueError):
            tr.TrainConfig(0.1, -1, 10, 0)
        with pytest.raises(ValueError):
            tr.TrainConfig(0.1, 10, 0, 0)

    def test_last_batch_may_be_short(self):
        config = net.build_mp_gelu_model(1, 3, 0.05)
        ds = toy_generate(13, seed=4)
        tc = tr.TrainConfig(0.05, 2, 5, 0)  # 13 = 5 + 5 + 3
        _, trace = tr.train(config, tc, ds.features, ds.labels)
        assert len(trace) == 2


class TestEvaluateModel:
    def test_metrics_shape_and_finiteness(self):
        config = net.build_relu_model(2, 5, 0.1, m.FULL, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 0)
        rng = np.random.default_rng(8)
        res = tr.evaluate_model(
            config, params, rng.standard_normal((12, 2)), rng.standard_normal(12)
        )
        assert np.isfinite(res["nll"]) and np.isfinite(res["rmse"])
        assert res["pred_var"].shape == (12,)
        assert np.all(res["pred_var"] > 0)
