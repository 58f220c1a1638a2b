"""Gradient machinery and the SGD loop."""

import contextlib
import functools
import itertools
import json
import os
import subprocess
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from mpbnn import checks
from mpbnn import moments as m
from mpbnn import network as net
from mpbnn import training as tr
from mpbnn.data import toy_generate
from mpbnn.mc_oracle import mc_network_moments

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def assert_grads_match_fd(config, params, x, y):
    _, _, violations = checks.fd_check(config, params, x, y)
    assert not violations, violations[:5]


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
            dense_first = net.ModelConfig(config.layers[1:], mode, head)
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

    def test_non_finite_dense_gradient_error_names_layer(self, monkeypatch):
        config = net.build_mp_gelu_model(2, 3, 0.1, m.DIAG, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 0)
        orig, calls = tr._dense_bwd, [0]

        def poisoned(ctx, g_mean, g_cov, mode, input_grad=True):
            g_mean_in, g_cov_in, g_w, g_b = orig(ctx, g_mean, g_cov, mode, input_grad)
            calls[0] += 1
            if calls[0] == 2:  # the middle dense layer, layer 3
                g_w = np.full_like(g_w, np.nan)
            return g_mean_in, g_cov_in, g_w, g_b

        monkeypatch.setattr(tr, "_dense_bwd", poisoned)
        rng = np.random.default_rng(0)
        with pytest.raises(FloatingPointError) as info:
            tr.loss_and_gradients(
                config, params, rng.standard_normal((2, 2)), rng.standard_normal(2)
            )
        assert str(info.value) == "non-finite gradient in layer 3 (dense)"

    def test_overflowing_mean_log_likelihood_is_hard_error(self):
        """Each row's log-likelihood is finite (about -5e307 at E[h2] = -700
        and a residual of 100), but the 4-row sum overflows."""
        config = net.build_mp_gelu_model(2, 3, 0.1, m.DIAG, net.HEAD_HETEROSCEDASTIC)
        mean = np.tile([100.0, -700.0], (4, 1))
        cov = np.zeros((4, 2))
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError) as info:
                tr._head_loss(config, mean, cov, np.zeros(4))
        assert str(info.value) == "non-finite training loss"

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_layer_tables_look_kernels_up_when_called(self, monkeypatch, mode):
        """Kernels rebound on their modules after import are the ones every
        pass runs; a table entry bound at import would count no calls."""
        calls = Counter()

        def counting(name, orig):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)
            return wrapper

        for module, suffix in ((m, "fwd"), (tr, "bwd")):
            for kind in net._FWD:
                name = f"_{kind}_{suffix}"
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((4, 3)), rng.standard_normal(4)
        # The backward pass skips the leading dropout, below the first dense layer.
        expected = {
            net.ARCH_MP_GELU: ({"_dropout_fwd": 1, "_dense_fwd": 3, "_mp_gelu_fwd": 2},
                               {"_dense_bwd": 3, "_mp_gelu_bwd": 2}),
            net.ARCH_RELU: ({"_dropout_fwd": 3, "_dense_fwd": 3, "_relu_fwd": 2},
                            {"_dropout_bwd": 2, "_dense_bwd": 3, "_relu_bwd": 2}),
        }
        for arch, (fwd, bwd) in expected.items():
            config = net.build_model(arch, 3, 5, 0.1, mode, net.HEAD_HETEROSCEDASTIC)
            params = net.init_parameters(config, 0)
            for run, want in ((lambda: net.forward_batch(config, params, x), fwd),
                              (lambda: net.forward(config, params, x[0]), fwd),
                              (lambda: tr.loss_and_gradients(config, params, x, y), {**fwd, **bwd}),
                              (lambda: mc_network_moments(config, params, x[0], 1000, 0), fwd)):
                calls.clear()
                run()
                assert calls == Counter(want), arch
        # 2 cases of each kind in each of the 2 modes.
        calls.clear()
        checks.layer_oracle(2, 1000, 0, lambda k, case: case)
        assert calls == Counter({f"_{kind}_fwd": 4 for kind in net._FWD})


class TestLoss:
    """`loss` is the loss of `loss_and_gradients` from the forward pass alone."""

    @pytest.mark.parametrize("arch", [net.ARCH_MP_GELU, net.ARCH_RELU])
    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    @pytest.mark.parametrize("head", [net.HEAD_HETEROSCEDASTIC, net.HEAD_HOMOSCEDASTIC])
    def test_bit_identical_to_loss_and_gradients(self, arch, mode, head):
        rng = np.random.default_rng(17)
        config = net.build_model(arch, 13, 20, 0.05, mode, head)
        params = net.init_parameters(config, 2)
        for batch in (1, 3, 40, 256):
            x, y = rng.standard_normal((batch, 13)), rng.standard_normal(batch)
            want = tr.loss_and_gradients(config, params, x, y)[0]
            assert repr(tr.loss(config, params, x, y)) == repr(want)

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    @pytest.mark.parametrize("head", [net.HEAD_HETEROSCEDASTIC, net.HEAD_HOMOSCEDASTIC])
    def test_loss_has_the_bits_of_numpys_mean(self, mode, head):
        """The loss is -np.mean of the head's log-likelihoods, compared by
        repr, and a call over several passes stacked along the batch axis
        gives each pass's loss."""
        rng = np.random.default_rng(31)
        config = net.build_model(net.ARCH_RELU, 13, 20, 0.05, mode, head)
        params = net.init_parameters(config, 5)
        ell_fwd = (tr.objective._ell2_fwd if head == net.HEAD_HETEROSCEDASTIC
                   else tr.objective._ell1_fwd)
        for batch in (1, 3, 40, 256):
            y = rng.standard_normal(batch)
            heads, losses = [], []
            for _ in range(4):
                x = rng.standard_normal((batch, 13))
                heads.append(net._run_layers(config, params, x))
                want = repr(-float(np.mean(ell_fwd(*heads[-1], y, mode)[0])))
                losses.append(tr.loss(config, params, x, y))
                assert repr(losses[-1]) == want
            stacked = (np.concatenate([h[0] for h in heads]),
                       np.concatenate([h[1] for h in heads], -1 if mode == m.FULL else 0))
            grouped = tr._head_loss(config, *stacked, y, len(heads))[0]
            assert repr(grouped.tolist()) == repr(losses)

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_runs_no_backward_kernel_and_lends_no_buffer(self, monkeypatch, mode):
        def poisoned(*args, **kwargs):
            raise AssertionError("backward kernel called")

        for name in ("_dense_bwd", "_dropout_bwd", "_mp_gelu_bwd", "_relu_bwd"):
            monkeypatch.setattr(tr, name, poisoned)
        for name in ("_ell2_bwd", "_ell1_bwd"):
            monkeypatch.setattr(tr.objective, name, poisoned)
        monkeypatch.setattr(m, "_open_step", poisoned)
        lent = []
        orig_empty = m._empty

        def recording(shape):
            lent.append(m._pool.lent)
            return orig_empty(shape)

        monkeypatch.setattr(m, "_empty", recording)
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((5, 3)), rng.standard_normal(5)
        for arch in (net.ARCH_MP_GELU, net.ARCH_RELU):
            for head in (net.HEAD_HETEROSCEDASTIC, net.HEAD_HOMOSCEDASTIC):
                config = net.build_model(arch, 3, 4, 0.1, mode, head)
                assert np.isfinite(tr.loss(config, net.init_parameters(config, 0), x, y))
        assert m._pool.lent is None
        assert all(entry is None for entry in lent)
        assert bool(lent) == (mode == m.FULL)

    @pytest.mark.parametrize("xs, ys", [
        (np.zeros((0, 3)), np.zeros(0)),
        (np.zeros(3), np.zeros(1)),
        (np.zeros((2, 3)), np.zeros(3)),
        (np.zeros((2, 3)), np.zeros((2, 1))),
        (np.zeros((2, 4)), np.zeros(2)),
    ])
    def test_bad_shapes_raise_as_loss_and_gradients_does(self, xs, ys):
        config = net.build_mp_gelu_model(3, 4, 0.1, m.FULL, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 0)
        with pytest.raises(ValueError) as want:
            tr.loss_and_gradients(config, params, xs, ys)
        with pytest.raises(ValueError) as got:
            tr.loss(config, params, xs, ys)
        assert str(got.value) == str(want.value)


def resumed(config, params, xs, ys, state):
    """The loss of a pass resumed from `state`, scored as `tr.loss` scores one."""
    mean, cov = net._run_layers(config, params, xs, resume=state)
    return float(tr._head_loss(config, mean, cov, ys)[0][0])


class TestResume:
    """A pass resumed from a state recorded before a dense layer gives the
    whole pass's loss, and `fd_check` probes resume from such states."""

    @pytest.mark.parametrize("arch", [net.ARCH_MP_GELU, net.ARCH_RELU])
    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    @pytest.mark.parametrize("head", [net.HEAD_HETEROSCEDASTIC, net.HEAD_HOMOSCEDASTIC])
    def test_resume_is_bit_identical(self, arch, mode, head):
        rng = np.random.default_rng(23)
        config = net.build_model(arch, 13, 20, 0.05, mode, head)
        params = net.init_parameters(config, 3)
        dense_layers = [i for i, layer in enumerate(config.layers) if layer.kind == net.DENSE]
        for batch in (1, 3, 40):
            x, y = rng.standard_normal((batch, 13)), rng.standard_normal(batch)
            states = []
            recorded = net._run_layers(config, params, x, states=states)
            plain = net._run_layers(config, params, x)
            for got, want in zip(recorded, plain):
                np.testing.assert_array_equal(got, want)
            assert [s[:2] for s in states] == [(i, d) for d, i in enumerate(dense_layers)]
            whole = tr.loss(config, params, x, y)
            for li, state in enumerate(states):
                assert resumed(config, params, x, y, state) == whole
                # A parameter of the resumed layer may change; those below it may not.
                params.weights[li][0, 0] += 1e-3
                assert resumed(config, params, x, y, state) == tr.loss(config, params, x, y)
                params.weights[li][0, 0] -= 1e-3

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_fd_check_keeps_its_states_and_its_results(self, monkeypatch, mode):
        """`fd_check` gives the tuples of one whole pass per probe, floats
        compared by repr, in chunks of the default size and of 7 rows, and
        with every coordinate a violation, so that each probe's difference
        is in the result.  The head runs once per probe, the objective once
        per chunk of probes, and one stacked pass per chunk below the head
        stops at the head's input; the states the probes start from are
        never written to."""
        rng = np.random.default_rng(29)
        for arch in (net.ARCH_MP_GELU, net.ARCH_RELU):
            for head in (net.HEAD_HETEROSCEDASTIC, net.HEAD_HOMOSCEDASTIC):
                config = net.build_model(arch, 4, 6, 0.2, mode, head)
                params = net.init_parameters(config, 0)
                for batch in (3, 1):
                    x, y = rng.standard_normal((batch, 4)), rng.standard_normal(batch)
                    self.check_fd_check(monkeypatch, config, params, x, y)

    def test_fd_check_within_bound_at_width_20(self, monkeypatch):
        """Criterion 2's eight models (`gradient_fd(42, 6, 20, 0.1, 6)`:
        width 20, B = 6), with every coordinate a violation so that each
        central difference is in the result.  `fd_check` gives the
        coordinates of one whole pass per probe, and each difference within
        1e-9 absolute of it.  A dense product's rounding of a row can depend
        on the rows beside it at this width, so a few differences are not
        bit for bit: the worst seen was 3.6e-10, in 5 of 4732 coordinates.
        One ulp of a unit loss is 1.1e-11 after division by 2 FD_STEP."""
        compared = []
        fd_check = checks.fd_check

        def ones(config, params, x, y):
            return 0.0, tr.GradientSet([np.ones_like(w) for w in params.weights],
                                       [np.ones_like(b) for b in params.biases])

        def comparing(config, params, x, y):
            want = self.whole_pass_fd_check(config, params, x, y)
            got = fd_check(config, params, x, y)
            compared.append(config)
            assert got[0] == want[0] == len(got[2]) == len(want[2])
            for g, w in zip(got[2], want[2], strict=True):
                assert g[:4] == w[:4]
                assert abs(g[4] - w[4]) <= 1e-9, (g, w)
            return got

        monkeypatch.setattr(tr, "loss_and_gradients", ones)
        monkeypatch.setattr(checks, "fd_check", comparing)
        list(checks.gradient_fd(42, 6, 20, 0.1, 6))
        assert len(compared) == 8

    def test_gradient_sweep_call_counts(self, monkeypatch):
        """`mpbnn check`'s sweep on seed 0, 8 models at B=3.  Per model:
        one `loss_and_gradients` call, with its own objective call, and one
        objective call per chunk of probes (3, as each layer's probes fit
        one chunk).  The head runs once per probe (1320 in all), and per
        model in the gradient pass and the state pass.  The layers below
        the head run once per probe of their own (1152 in all), and per
        model in those two passes and, the middle layer only, in the
        stacked pass of the first layer's probes (that of the middle
        layer's probes stops at the head)."""
        calls = Counter()

        def counting(module, name, key):
            orig = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return orig(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(tr, "loss_and_gradients", "loss_and_gradients")
        counting(tr.objective, "_ell2_fwd", "objective")
        counting(tr.objective, "_ell1_fwd", "objective")
        dense_fwd = m._dense_fwd

        def counting_heads(mean, cov, w, b, mode):
            calls["dense kernel"] += 1
            # The head is the one dense layer with fewer outputs than inputs.
            calls["head kernel"] += w.shape[0] < w.shape[1]
            return dense_fwd(mean, cov, w, b, mode)

        monkeypatch.setattr(m, "_dense_fwd", counting_heads)
        assert len(list(checks.check_gradients(0))) == 8
        assert calls == {"loss_and_gradients": 8, "objective": 8 + 24,
                         "head kernel": 1320 + 8 * 2,
                         "dense kernel": 1320 + 1152 + 8 * (2 * 3 + 1)}

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_non_finite_probe_names_its_parameter(self, monkeypatch, mode):
        """One probe's head mean poisoned: its chunk is scored again one
        probe at a time, and the error is that probe's own, with its row
        within the batch, followed by its layer, parameter and step."""
        config = net.build_mp_gelu_model(4, 6, 0.2, mode, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 0)
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((3, 4)), rng.standard_normal(3)
        run_layers = net._run_layers
        probe_runs = []

        def poisoning(*args, resume=None, stop=None, **kwargs):
            mean, cov = run_layers(*args, resume=resume, stop=stop, **kwargs)
            # A probe's run goes through the head; a chunk's stacked pass stops below it.
            if resume is not None and stop is None:
                probe_runs.append(resume[0])
                # Layer 0 has 60 probes; layer 1's sixth moves W1[0, 2] by -h.
                if len(probe_runs) == 60 + 6:
                    mean = mean.copy()
                    mean[1, 0] = np.inf
            return mean, cov

        monkeypatch.setattr(net, "_run_layers", poisoning)
        with pytest.raises(FloatingPointError) as raised:
            checks.fd_check(config, params, x, y)
        message = str(raised.value)
        assert message.startswith("non-finite expected log-likelihood at row 1 (m1=inf, ")
        assert message.endswith("; dense layer 1, weights[0, 2] moved by -1e-05")
        assert message == f"{raised.value.__cause__}; dense layer 1, weights[0, 2] moved by -1e-05"
        assert len(probe_runs) == 60 + 84

    @staticmethod
    def whole_pass_fd_check(config, params, x, y):
        """`checks.fd_check` as one whole `tr.loss` pass per probe."""
        _, grads = tr.loss_and_gradients(config, params, x, y)
        coordinates, worst, violations = 0, 0.0, []
        for name in ("weights", "biases"):
            for li, w in enumerate(getattr(params, name)):
                for idx in np.ndindex(w.shape):
                    orig = w[idx]
                    w[idx] = orig + 1e-5
                    lp = tr.loss(config, params, x, y)
                    w[idx] = orig - 1e-5
                    lm = tr.loss(config, params, x, y)
                    w[idx] = orig
                    fd = (lp - lm) / (2.0 * 1e-5)
                    an = getattr(grads, name)[li][idx]
                    coordinates += 1
                    if abs(an) < 1e-3:
                        ok = abs(an - fd) < 1e-7
                    else:
                        rel = abs(an - fd) / abs(an)
                        worst = max(worst, rel)
                        ok = rel < 1e-4
                    if not ok:
                        violations.append((name, li, idx, an, fd))
        return coordinates, worst, violations

    def check_fd_check(self, monkeypatch, config, params, x, y):
        ones = tr.GradientSet([np.ones_like(w) for w in params.weights],
                              [np.ones_like(b) for b in params.biases])
        for wrong in (False, True):
            if wrong:
                monkeypatch.setattr(tr, "loss_and_gradients", lambda *args: (0.0, ones))
            want = self.whole_pass_fd_check(config, params, x, y)
            assert len(want[2]) == (want[0] if wrong else 0)
            for chunk in (checks.FD_CHUNK_ROWS, 7):
                monkeypatch.setattr(checks, "FD_CHUNK_ROWS", chunk)
                recorded, stacked, objective_rows, head_rows = [], [], [], []
                run_layers, dense_fwd = net._run_layers, m._dense_fwd

                def recording(*args, states=None, stop=None, **kwargs):
                    out = run_layers(*args, states=states, stop=stop, **kwargs)
                    if states is not None:
                        recorded.append((states, [(s[2].copy(), s[3].copy()) for s in states]))
                    if stop is not None:
                        assert stop == len(config.layers) - 1  # the head
                        stacked.append(len(out[0]))
                    return out

                def counting_heads(mean, cov, w, b, mode):
                    if w is params.weights[-1]:
                        head_rows.append(len(mean))
                    return dense_fwd(mean, cov, w, b, mode)

                with monkeypatch.context() as mp:
                    mp.setattr(net, "_run_layers", recording)
                    mp.setattr(m, "_dense_fwd", counting_heads)
                    for name in ("_ell2_fwd", "_ell1_fwd"):
                        mp.setattr(tr.objective, name, functools.partial(
                            self.counting_objective, getattr(tr.objective, name), objective_rows))
                    got = checks.fd_check(config, params, x, y)
                assert repr(got) == repr(want)
                for states, copies in recorded:
                    for state, (mean, cov) in zip(states, copies):
                        np.testing.assert_array_equal(state[2], mean)
                        np.testing.assert_array_equal(state[3], cov)
                assert len(recorded) == 1
                states = recorded[0][0]
                assert len(states) == len(params.weights)
                # One objective call per chunk of a layer's probes; a
                # one-row batch's chunks are single probes.
                batch = len(x)
                per_chunk = max(1, chunk // batch) if batch > 1 else 1
                chunks = [[min(per_chunk, probes - start) for start in range(0, probes, per_chunk)]
                          for probes in (2 * w.size + 2 * b.size
                                         for w, b in zip(params.weights, params.biases))]
                gradient_pass = [] if wrong else [batch]
                assert objective_rows == gradient_pass + [batch * k for c in chunks for k in c]
                # One stacked pass per chunk below the head, up to the
                # head's input; the head once per probe on its own rows,
                # besides the gradient pass and the state pass.
                assert stacked == [batch * k for c in chunks[:-1] for k in c]
                assert head_rows == [batch] * (len(gradient_pass) + 1 + 2 * got[0])
        monkeypatch.undo()

    @staticmethod
    def counting_objective(kernel, rows, mean, *args):
        rows.append(len(mean))
        return kernel(mean, *args)


def gate_input_cov(rng, sigma, mode):
    """A gate kernel's input covariance with (rows, n) standard deviations
    `sigma`: their squares in diag mode, else a batch-last (n, n, rows) one
    with random correlations."""
    if mode == m.DIAG:
        return sigma * sigma
    rows, n = sigma.shape
    a = rng.standard_normal((rows, n, n))
    corr = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(n)
    d = np.sqrt(np.einsum("bii->bi", corr))
    corr /= d[:, :, None] * d[:, None, :]
    cov = corr * sigma[:, :, None] * sigma[:, None, :]
    return np.ascontiguousarray(cov.transpose(1, 2, 0))


def symmetric_like(rng, cov):
    """A random array shaped like `cov`, symmetric if it is a full one."""
    s = rng.standard_normal(cov.shape)
    return s + s.transpose(1, 0, 2) if cov.ndim == 3 else s


# Batch sizes of the adjoint checks: a one-row batch takes its own branches
# in the dense kernel and the gain map (see `moments`).
ROWS = (1, 4)


def strided_copy(a):
    """A copy of `a` that is not C-contiguous, and whose (n, n) matrices
    are not either: the leading columns of a wider array.  An adjoint
    that writes its result through a flattening reshape of such a g_cov
    writes to a copy, and loses the writes."""
    wide = np.zeros((a.shape[0], a.shape[1] + 1) + a.shape[2:])
    wide[:, :-1] = a
    return wide[:, :-1]


class TestGuardedPaths:
    """A batch with no unit below SIGMA_FLOOR runs the gates' plain formulas
    and carries det=None; one such unit anywhere sends the whole batch
    through the masked ones.  The other rows must not see the difference.
    Full covariances are batch-last, so their rows are the last axis."""

    @staticmethod
    def _batch(rng, rows, n, mode, sigma):
        mean = rng.uniform(-3.0, 3.0, (rows, n)) * sigma
        mean[0, 0] = 0.0
        mean[1, :2] = (40.0 * sigma[1, 0], -40.0 * sigma[1, 1])  # both far tails
        return mean, gate_input_cov(rng, sigma, mode)

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    @pytest.mark.parametrize("kind", [net.MP_GELU, net.RELU])
    def test_plain_rows_bit_identical_under_guarded_path(self, kind, mode):
        rng = np.random.default_rng(17)
        rows, n = 5, 4
        sigma = rng.uniform(0.3, 2.0, (rows + 1, n))
        sigma[rows, 1:3] = (1e-13, 0.0)  # the extra row: units below the floor
        mean, cov = self._batch(rng, rows + 1, n, mode, sigma)

        def head(a):
            """The first `rows` rows of a mean, or of a covariance of `mode`."""
            return a[..., :rows] if a.ndim == 3 else a[:rows]

        fwd, bwd = getattr(m, f"_{kind}_fwd"), getattr(tr, f"_{kind}_bwd")
        plain = fwd(mean[:rows].copy(), head(cov).copy(), mode)
        guarded = fwd(mean, cov, mode)
        assert any(c is None for c in plain[2])  # det
        assert not any(c is None for c in guarded[2])
        for a, b in zip(plain[:2], guarded[:2]):
            np.testing.assert_array_equal(a, head(b))
        g_mean = rng.standard_normal(mean.shape)
        g_cov = symmetric_like(rng, cov)
        plain_in = bwd(plain[2], g_mean[:rows].copy(), head(g_cov).copy(), mode)
        guarded_in = bwd(guarded[2], g_mean.copy(), g_cov.copy(), mode)
        for a, b in zip(plain_in, guarded_in):
            assert np.isfinite(b).all()
            np.testing.assert_array_equal(a, head(b))


class TestAdjointModeAgreement:
    """The adjoint counterpart of `test_moments.TestModeAgreement`: with a
    diagonal input Σ and a diagonal g_cov, a gain layer's full-mode adjoints
    are its diag-mode ones, g_mean_in and the diagonal of g_cov_in, and the
    off-diagonals of g_cov_in are 0.  Tolerance 1e-12 absolute; over 200
    seeds the differences were exactly 0."""

    @pytest.mark.parametrize("kind", [net.DROPOUT, net.MP_GELU, net.RELU])
    def test_gain_layer_adjoints_agree_across_modes(self, kind):
        fwd, bwd = getattr(m, f"_{kind}_fwd"), getattr(tr, f"_{kind}_bwd")
        rate = (0.3,) if kind == net.DROPOUT else ()
        rows, n = 3, 4
        for seed in range(20):
            rng = np.random.default_rng(seed)
            mean = rng.uniform(-3.0, 3.0, (rows, n))
            var = rng.uniform(0.0, 4.0, (rows, n))
            var[0, seed % n] = 0.0  # a unit below the floor: the masked formulas
            g_mean, g_var = rng.standard_normal((rows, n)), rng.standard_normal((rows, n))
            cov, g_cov = np.zeros((n, n, rows)), np.zeros((n, n, rows))
            m._diag(cov, write=True)[...] = var
            m._diag(g_cov, write=True)[...] = g_var
            diag_in = bwd(fwd(mean, var, *rate, m.DIAG)[2], g_mean.copy(), g_var, m.DIAG)
            g_mean_in, g_cov_in = bwd(fwd(mean, cov, *rate, m.FULL)[2], g_mean.copy(), g_cov,
                                      m.FULL)
            np.testing.assert_allclose(g_mean_in, diag_in[0], atol=1e-12, rtol=0)
            np.testing.assert_allclose(m._diag(g_cov_in), diag_in[1], atol=1e-12, rtol=0)
            offdiag = g_cov_in * (1.0 - np.eye(n))[:, :, None]
            np.testing.assert_allclose(offdiag, 0.0, atol=1e-12, rtol=0)


class TestAdjointDotProduct:
    """Each gate adjoint is the transpose of its forward kernel's Jacobian J:
    ⟨g, J v⟩, a central difference of the forward kernel along a random
    direction v = (v_mean, symmetric v_cov), must equal ⟨Jᵀ g, v⟩ from the
    backward kernel within 1e-6 relative.  At |μ/σ| = 0.7 every rate
    derivative counts; at 5, 10 and 30 the gate rates lie within 1e-6 of 0
    or 1.  The kernels flatten there, so the step grows with |μ/σ| to keep
    the difference above its rounding noise.  Every check runs on batches of
    `ROWS` rows, so the one-row branches meet their adjoints too, and hands
    the adjoint a g_cov that is not C-contiguous (`strided_copy`)."""

    @pytest.mark.parametrize("ratio, step", [(0.7, 1e-6), (5.0, 1e-5), (10.0, 1e-4),
                                             (30.0, 1e-4)])
    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    @pytest.mark.parametrize("kind", [net.MP_GELU, net.RELU])
    def test_backward_is_the_forward_transpose(self, kind, mode, ratio, step):
        fwd, bwd = getattr(m, f"_{kind}_fwd"), getattr(tr, f"_{kind}_bwd")
        n = 5
        for rows, seed in itertools.product(ROWS, range(5)):
            rng = np.random.default_rng(seed)
            sigma = rng.uniform(0.5, 1.5, (rows, n))
            mean = ratio * sigma * rng.choice((-1.0, 1.0), (rows, n))
            cov = gate_input_cov(rng, sigma, mode)
            v_mean, v_cov = rng.standard_normal(mean.shape), symmetric_like(rng, cov)
            g_mean, g_cov = rng.standard_normal(mean.shape), symmetric_like(rng, cov)
            plus = fwd(mean + step * v_mean, cov + step * v_cov, mode)
            minus = fwd(mean - step * v_mean, cov - step * v_cov, mode)
            g_jv = sum(np.vdot(g, (p - q) / (2.0 * step))
                       for g, p, q in zip((g_mean, g_cov), plus, minus))
            # The backward kernel overwrites g_cov, so it gets a copy.
            g_mean_in, g_cov_in = bwd(fwd(mean, cov, mode)[2], g_mean.copy(),
                                      strided_copy(g_cov), mode)
            jtg_v = np.vdot(g_mean_in, v_mean) + np.vdot(g_cov_in, v_cov)
            assert abs(g_jv - jtg_v) <= 1e-6 * abs(jtg_v), (rows, seed, g_jv, jtg_v)

    @pytest.mark.parametrize("factor, det", [(0.5, True), (2.0, False)])
    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    @pytest.mark.parametrize("kind", [net.MP_GELU, net.RELU])
    def test_backward_is_the_forward_transpose_at_the_floor(self, kind, mode, factor, det):
        """The same check with the first two units of each row at
        σ = `factor`·SIGMA_FLOOR: below the floor the whole batch takes the
        masked formulas (det), just above it the plain ones.  Each unit's
        mean is ±0.7·s, where s is its σ except in the second unit, whose
        s is O(1): a gate at |μ/σ| = 0.7 and one at |μ/σ| ~ 1e12, the usual
        deterministic unit.  The direction's mean part is scaled by s and
        its covariance part by σ_i σ_j, so a variance moves by a multiple of
        itself and no step crosses the floor; the cotangent g is scaled by
        the inverses, so every unit adds an O(1) term to both sides.  At
        step 1e-6 the worst relative error over 30 seeds was 1.3e-8, against
        the tolerance of 1e-6."""
        fwd, bwd = getattr(m, f"_{kind}_fwd"), getattr(tr, f"_{kind}_bwd")
        step, n = 1e-6, 5
        for rows, seed in itertools.product(ROWS, range(5)):
            rng = np.random.default_rng(seed)
            sigma = rng.uniform(0.5, 1.5, (rows, n))
            sigma[:, :2] = factor * m.SIGMA_FLOOR
            s = sigma.copy()
            s[:, 1] = rng.uniform(0.5, 1.5, rows)
            mean = 0.7 * s * rng.choice((-1.0, 1.0), (rows, n))
            cov = gate_input_cov(rng, sigma, mode)
            scale = sigma.T[:, None] * sigma.T[None] if mode == m.FULL else sigma * sigma
            v_mean = s * rng.standard_normal(mean.shape)
            v_cov = scale * symmetric_like(rng, cov)
            g_mean = rng.standard_normal(mean.shape) / s
            g_cov = symmetric_like(rng, cov) / scale
            plus = fwd(mean + step * v_mean, cov + step * v_cov, mode)
            minus = fwd(mean - step * v_mean, cov - step * v_cov, mode)
            g_jv = sum(np.vdot(g, (p - q) / (2.0 * step))
                       for g, p, q in zip((g_mean, g_cov), plus, minus))
            ctx = fwd(mean, cov, mode)[2]
            assert (ctx[-1 if kind == net.MP_GELU else 4] is not None) == det
            g_mean_in, g_cov_in = bwd(ctx, g_mean.copy(), strided_copy(g_cov), mode)
            jtg_v = np.vdot(g_mean_in, v_mean) + np.vdot(g_cov_in, v_cov)
            assert abs(g_jv - jtg_v) <= 1e-6 * abs(jtg_v), (rows, seed, g_jv, jtg_v)

    @staticmethod
    def direction(rng, a):
        """A random direction shaped like `a`, symmetric if `a` is a full
        covariance."""
        return symmetric_like(rng, a) if a.ndim == 3 else rng.standard_normal(a.shape)

    @pytest.mark.parametrize("m_out, n_in, input_grad", [
        (2, 5, True),   # the head: m < n
        (5, 5, True),   # a square hidden layer
        (7, 5, True),   # m > n with a full input
        (6, 4, False),  # the first layer: a variance-vector input, g_W and g_b only
    ])
    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_dense_backward_is_the_forward_transpose(self, mode, m_out, n_in, input_grad):
        """The dense adjoint against its forward kernel, with the direction
        v moving the input moments (when the adjoint returns theirs), W and
        b together.  W Σ Wᵀ is cubic in them, so the central difference is
        off by O(step²); at step 1e-5 the worst relative error over 30
        seeds was 4.0e-9, against a tolerance of 1e-7."""
        step = 1e-5
        for rows, seed in itertools.product(ROWS, range(10)):
            rng = np.random.default_rng(seed)
            sigma = rng.uniform(0.5, 1.5, (rows, n_in))
            mean = rng.standard_normal((rows, n_in))
            cov = (gate_input_cov(rng, sigma, mode) if mode == m.FULL and input_grad
                   else sigma * sigma)
            w, b = rng.standard_normal((m_out, n_in)), rng.standard_normal(m_out)
            point = (mean, cov, w, b)
            v = [self.direction(rng, a) for a in point]
            if not input_grad:
                v[0], v[1] = np.zeros_like(mean), np.zeros_like(cov)
            out_mean, out_cov, ctx = m._dense_fwd(*point, mode)
            g = (rng.standard_normal(out_mean.shape), self.direction(rng, out_cov))
            plus = m._dense_fwd(*(a + step * d for a, d in zip(point, v)), mode)
            minus = m._dense_fwd(*(a - step * d for a, d in zip(point, v)), mode)
            g_jv = sum(np.vdot(gi, (p - q) / (2.0 * step)) for gi, p, q in zip(g, plus, minus))
            adjoints = tr._dense_bwd(ctx, g[0], strided_copy(g[1]), mode, input_grad=input_grad)
            if not input_grad:
                assert adjoints[:2] == (None, None)
                adjoints, v = adjoints[2:], v[2:]
            jtg_v = sum(np.vdot(a, d) for a, d in zip(adjoints, v))
            assert abs(g_jv - jtg_v) <= 1e-7 * abs(jtg_v), (rows, seed, g_jv, jtg_v)

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_dropout_backward_is_the_forward_transpose(self, mode):
        """Dropout is linear in the covariance and quadratic in the mean, so
        a central difference at step 1e-5 is exact but for rounding: the
        worst relative error over 30 seeds was 1.9e-10, against a tolerance
        of 1e-7."""
        step, n = 1e-5, 5
        for rows, seed in itertools.product(ROWS, range(10)):
            rng = np.random.default_rng(seed)
            sigma = rng.uniform(0.5, 1.5, (rows, n))
            mean, cov = rng.standard_normal((rows, n)), gate_input_cov(rng, sigma, mode)
            v_mean, v_cov = rng.standard_normal(mean.shape), self.direction(rng, cov)
            g_mean, g_cov = rng.standard_normal(mean.shape), self.direction(rng, cov)
            plus = m._dropout_fwd(mean + step * v_mean, cov + step * v_cov, 0.3, mode)
            minus = m._dropout_fwd(mean - step * v_mean, cov - step * v_cov, 0.3, mode)
            g_jv = sum(np.vdot(g, (p - q) / (2.0 * step))
                       for g, p, q in zip((g_mean, g_cov), plus, minus))
            ctx = m._dropout_fwd(mean, cov, 0.3, mode)[2]
            g_mean_in, g_cov_in = tr._dropout_bwd(ctx, g_mean.copy(), strided_copy(g_cov), mode)
            jtg_v = np.vdot(g_mean_in, v_mean) + np.vdot(g_cov_in, v_cov)
            assert abs(g_jv - jtg_v) <= 1e-7 * abs(jtg_v), (rows, seed, g_jv, jtg_v)


class TestStepBufferPool:
    """Full-mode steps lend their (n, n, B) arrays from a per-thread pool."""

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

        # A fresh thread's pool lends 4-row buffers, then replaces them for 9
        # rows, then lends contiguous prefixes of the 9-row ones for 4 again:
        # a `[..., :B]` slice there would break the kernels' flat reshapes.
        errors = []

        def grow():
            try:
                for arch in models:
                    for batch in ("short", "full", "short"):
                        check(arch, batch)
            except AssertionError as exc:
                errors.append(exc)

        worker = threading.Thread(target=grow)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and not errors, errors

        def poisoned(ctx, g_mean, g_cov, mode):
            raise FloatingPointError("poisoned kernel")

        with monkeypatch.context() as patch:
            patch.setattr(tr, "_relu_bwd", poisoned)
            with pytest.raises(FloatingPointError, match="poisoned"):
                tr.loss_and_gradients(*models[net.ARCH_RELU], x, y)
        assert m._pool.lent is None  # the raise closed the step

        # Outside a step nothing is pooled, so a later step cannot touch
        # what forward_batch or forward returned.
        fb_mean, fb_cov = net.forward_batch(*models[net.ARCH_MP_GELU], x)
        mv = net.forward(*models[net.ARCH_RELU], x[0])
        kept = fb_cov.copy(), mv.mean.copy(), mv.cov.copy()
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
        returned = (fb_mean, fb_cov, mv.mean, mv.cov)
        assert not any(np.shares_memory(out, arr) for out in returned for arr in lent)
        for got, want in zip((fb_cov, mv.mean, mv.cov), kept):
            np.testing.assert_array_equal(got, want)

    def test_poisoned_releases_leave_every_step_bitwise_equal(self, monkeypatch):
        """Every buffer handed to `_release` is NaN-filled as it goes back, so
        an array read after its release poisons the step.  Two consecutive
        steps, the second lending what the first poisoned, equal the
        unpooled reference bit for bit in every configuration."""
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((256, 5)), rng.standard_normal(256)
        cases = [(arch, mode, head, width, batch)
                 for arch in (net.ARCH_MP_GELU, net.ARCH_RELU) for mode in m.MODES
                 for head in (net.HEAD_HETEROSCEDASTIC, net.HEAD_HOMOSCEDASTIC)
                 for width in (20, 64) for batch in (2, 3, 256)]
        models = {}
        for arch, mode, head, width, _ in cases:
            config = net.build_model(arch, 5, width, 0.1, mode, head)
            models[arch, mode, head, width] = (config, net.init_parameters(config, 2))
        with monkeypatch.context() as patch:
            patch.setattr(m, "_release", lambda arr: None)
            ref = {case: self._unpooled(*models[case[:4]], x[:case[4]], y[:case[4]])
                   for case in cases}
        release = m._release
        poisoned = []

        def poisoning(arr):
            entry = m._pool.lent.get(id(arr.base))
            if entry is not None:
                entry[1].fill(np.nan)
                poisoned.append(entry[1].size)
            release(arr)

        monkeypatch.setattr(m, "_release", poisoning)
        for case in cases:
            ref_loss, ref_grads = ref[case]
            for _ in range(2):
                loss, grads = tr.loss_and_gradients(*models[case[:4]], x[:case[4]],
                                                    y[:case[4]])
                assert loss == ref_loss, case
                for got, want in zip(grads.weights + grads.biases,
                                     ref_grads.weights + ref_grads.biases):
                    np.testing.assert_array_equal(got, want, err_msg=str(case))
        assert poisoned

    @pytest.mark.parametrize("arch", [net.ARCH_MP_GELU, net.ARCH_RELU])
    def test_taped_step_returns_each_buffer_at_its_last_read(self, monkeypatch, arch):
        """In a taped full-mode step each pooled covariance goes back at its
        last read: a dense layer's input once the layer has run, a dropout's
        input as its own output's buffer, and a gate's input, which its
        context keeps, only once the gate's adjoint has run.  Every dense
        context keeps its (m, n, B) W Σ instead of its input.  A diag-mode
        step returns nothing early."""
        batch = 7
        config = net.build_model(arch, 3, 5, 0.2, m.FULL, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 1)
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((batch, 3)), rng.standard_normal(batch)
        events, calls = [], []

        def spy_fwd(kind, kernel):
            def run(mean, cov, *args):
                lent = id(cov.base) in m._pool.lent
                out = kernel(mean, cov, *args)
                if kind == net.DENSE and args[-1] == m.FULL:
                    w, wsig = args[0], out[2][2]
                    assert wsig.shape == (*w.shape, batch)
                    want = (np.einsum("ij,jkb->ikb", w, cov) if cov.ndim == 3
                            else w[:, :, None] * cov.T)
                    np.testing.assert_allclose(wsig, want, rtol=1e-12,
                                               atol=1e-12 * np.abs(want).max())
                calls.append((kind, cov, lent, out))
                events.append(("fwd", cov))
                return out
            return run

        def spy_bwd(kernel):
            def run(ctx, *args, **kwargs):
                out = kernel(ctx, *args, **kwargs)
                events.append(("bwd", ctx))
                return out
            return run

        for kind in (net.DENSE, net.DROPOUT, net.MP_GELU, net.RELU):
            monkeypatch.setattr(m, f"_{kind}_fwd", spy_fwd(kind, getattr(m, f"_{kind}_fwd")))
            monkeypatch.setattr(tr, f"_{kind}_bwd", spy_bwd(getattr(tr, f"_{kind}_bwd")))
        release = m._release

        def recording(arr):
            events.append(("release", arr, id(arr.base) in m._pool.lent))
            release(arr)
            assert id(arr.base) not in m._pool.lent

        monkeypatch.setattr(m, "_release", recording)
        for _ in range(2):  # the second step lends the first one's buffers again
            events.clear()
            calls.clear()
            tr.loss_and_gradients(config, params, x, y)
            # (event index, array) of each release that returned a buffer.
            releases = [(i, ev[1]) for i, ev in enumerate(events)
                        if ev[0] == "release" and ev[2]]
            fwd_at = {id(ev[1]): i for i, ev in enumerate(events) if ev[0] == "fwd"}
            bwd_at = {id(ev[1]): i for i, ev in enumerate(events) if ev[0] == "bwd"}
            dropouts = gates = 0
            for kind, cov, lent, (_, out_cov, ctx) in calls:
                if cov.ndim == 2:  # per-unit variances, below the first dense layer
                    continue
                if kind == net.DROPOUT:
                    # Its input went back as the layer began, for its output.
                    dropouts += 1
                    assert not lent and out_cov.base is cov.base
                    continue
                assert lent
                back = [i for i, arr in releases if arr is cov]
                assert len(back) == 1
                if kind == net.DENSE:
                    assert back[0] > fwd_at[id(cov)]
                else:
                    gates += 1
                    assert ctx[2] is cov
                    early = [i for i, arr in releases if arr.base is cov.base
                             and fwd_at[id(cov)] < i < bwd_at[id(ctx)]]
                    assert not early and back[0] > bwd_at[id(ctx)], "a gate input went back early"
            assert gates == 2 and dropouts == (2 if arch == net.ARCH_RELU else 0)
            for kind, _, _, (_, _, ctx) in calls:
                if kind == net.DENSE:  # W Σ goes back inside its adjoint
                    back = [i for i, arr in releases if arr is ctx[2]]
                    assert len(back) == 1 and back[0] < bwd_at[id(ctx)]

        events.clear()
        diag = net.build_model(arch, 3, 5, 0.2, m.DIAG, net.HEAD_HETEROSCEDASTIC)
        tr.loss_and_gradients(diag, net.init_parameters(diag, 1), x, y)
        assert not [ev for ev in events if ev[0] == "release"]

    @pytest.mark.parametrize("arch", [net.ARCH_MP_GELU, net.ARCH_RELU])
    def test_warm_step_pool_holds_four_covariance_buffers(self, arch):
        """Memory guard: after warm width-20 B=256 full-mode steps, a fresh
        thread's pool holds four (20, 20, 256) buffers, against six when
        each buffer went back only at a layer's end or the step's."""
        config = net.build_model(arch, 13, 20, 0.05, m.FULL, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 0)
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((256, 13)), rng.standard_normal(256)
        spare = []

        def steps():
            for _ in range(2):
                tr.loss_and_gradients(config, params, x, y)
            spare.extend(m._pool.spare[20, 20])

        worker = threading.Thread(target=steps)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert [buf.size for buf in spare] == [20 * 20 * 256] * 4


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


class TestBatchCheck:
    """`loss`, `loss_and_gradients` (so `train`) and `evaluate_model` check
    their batch in one place, `_batch`, and bad input is a ValueError, never
    a divergence."""

    CONFIG = net.build_mp_gelu_model(3, 5, 0.1, m.DIAG, net.HEAD_HETEROSCEDASTIC)

    @staticmethod
    def _bad(kind):
        rng = np.random.default_rng(2)
        xs, ys = rng.standard_normal((4, 3)), rng.standard_normal(4)
        if kind == "width":
            return xs[:, :2], ys, r"batch must be a non-empty \(B, 3\) array, got shape \(4, 2\)"
        if kind == "nan features":
            xs[1, 2] = np.nan
            return xs, ys, "non-finite entries in batch features"
        if kind == "inf features":
            xs[0, 0] = np.inf
            return xs, ys, "non-finite entries in batch features"
        if kind == "nan labels":
            ys[3] = np.nan
            return xs, ys, "non-finite entries in batch labels"
        if kind == "inf labels":
            ys[0] = -np.inf
            return xs, ys, "non-finite entries in batch labels"
        return xs, ys[:, None], r"labels shape \(4, 1\) does not match batch \(4, 3\)"

    KINDS = ["width", "nan features", "inf features", "nan labels", "inf labels", "column labels"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("call", ["loss", "loss_and_gradients", "train", "evaluate_model"])
    def test_bad_batch_is_an_input_error(self, call, kind):
        xs, ys, message = self._bad(kind)
        params = net.init_parameters(self.CONFIG, 0)
        run = {
            "loss": lambda: tr.loss(self.CONFIG, params, xs, ys),
            "loss_and_gradients": lambda: tr.loss_and_gradients(self.CONFIG, params, xs, ys),
            "train": lambda: tr.train(self.CONFIG, tr.TrainConfig(0.1, 1, 4, 0), xs, ys),
            "evaluate_model": lambda: tr.evaluate_model(self.CONFIG, params, xs, ys),
        }[call]
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            run()
        assert not isinstance(info.value, tr.DIVERGENCE_ERRORS)


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

    def test_forward_pass_runs_with_blas_pinned(self, monkeypatch):
        pinned, inside = [False], []
        orig_pin, orig_run = tr.single_thread_blas, tr._run_layers

        @contextlib.contextmanager
        def recording_pin():
            with orig_pin():
                pinned[0] = True
                try:
                    yield
                finally:
                    pinned[0] = False

        def recording_run(*args):
            inside.append(pinned[0])
            return orig_run(*args)

        monkeypatch.setattr(tr, "single_thread_blas", recording_pin)
        monkeypatch.setattr(tr, "_run_layers", recording_run)
        config = net.build_mp_gelu_model(2, 5, 0.1)
        rng = np.random.default_rng(8)
        tr.evaluate_model(config, net.init_parameters(config, 0),
                          rng.standard_normal((4, 2)), rng.standard_normal(4))
        assert inside == [True]


class TestSingleThreadBlas:
    def test_threadpoolctl_limits_blas_to_one_thread(self, monkeypatch):
        entered = []

        @contextlib.contextmanager
        def recording_limits(**kwargs):
            entered.append(kwargs)
            yield

        monkeypatch.setattr(tr, "threadpool_limits", recording_limits)
        monkeypatch.setattr(tr, "_openblas_threads", lambda: ())
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        with tr.single_thread_blas():
            assert entered == [{"limits": 1}]
        assert tr.blas_pinned() is True

    def test_pins_every_openblas_and_restores_the_prior_count(self):
        """In a fresh interpreter with no thread variables set, every OpenBLAS
        found reports one thread inside the context and its prior count after."""
        code = (
            "import json; from mpbnn import training as tr\n"
            "libs = tr._openblas_threads()\n"
            "for _, set_ in libs: set_(2)\n"
            "count = lambda: [get() for get, _ in libs]\n"
            "before = count()\n"
            "with tr.single_thread_blas(): inside = count()\n"
            "print(json.dumps([len(libs), before, inside, count(), tr.blas_pinned()]))\n"
        )
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(tr.__file__))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        found, before, inside, after, pinned = json.loads(out.stdout)
        numpy_blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if sys.platform.startswith("linux") and "openblas" in numpy_blas:
            assert found >= 1
        assert before == [2] * found
        assert inside == [1] * found
        assert after == before
        assert pinned is (found > 0 or tr.threadpool_limits is not None)
