"""The MC oracle itself: semantics, standard-error behavior, degeneracies."""

import contextlib
import functools
import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mpbnn import checks, mc_oracle
from mpbnn import moments as m
from mpbnn import network as net
from mpbnn.mc_oracle import (
    draw_normals, mc_expected_ll, mc_layer_moments, mc_network_moments, sample_input,
)
from mpbnn.network import LayerSpec, DENSE, DROPOUT, MP_GELU, RELU


class TestSampling:
    def test_full_covariance_sampler_reproduces_moments(self):
        rng = np.random.default_rng(0)
        cov = np.array([[1.0, 0.6], [0.6, 2.0]])
        mv = m.MomentVector(np.array([1.0, -1.0]), cov, m.FULL)
        draws = sample_input(mv, 200_000, rng)
        np.testing.assert_allclose(draws.mean(axis=0), mv.mean, atol=0.02)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.03)

    def test_non_psd_covariance_rejected(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        mv = m.MomentVector(np.array([0.0, 0.0]), cov, m.FULL)
        with pytest.raises(m.MomentError):
            sample_input(mv, 1000, np.random.default_rng(0))

    def test_rank_deficient_covariance_accepted(self):
        # A widening dense layer's output covariance has rank 3 in 6 units;
        # at a largest eigenvalue of ~1e6 its zero eigenvalues come out of
        # eigh as roundoff of either sign, below -1e-10 on some seeds.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            mv = m.MomentVector(rng.standard_normal(3), np.diag(rng.uniform(50, 150, 3)), m.FULL)
            out = m.dense_propagate(mv, 30 * rng.standard_normal((6, 3)), rng.standard_normal(6))
            draws = sample_input(out, 1000, np.random.default_rng(seed))
            assert np.all(np.isfinite(draws))

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_stream_order(self, mode):
        """Draw k of unit j is entry (k, j) of one (samples, n) standard-normal
        call, so the same seed gives the same sample in any draw layout or
        blocking."""
        samples, mean = 20_000, np.array([0.5, -2.0, 3.0])
        cov = np.array([[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 0.5]])
        if mode == m.DIAG:
            cov = np.diag(cov).copy()
        mv = m.MomentVector(mean, cov, mode)
        got = sample_input(mv, samples, np.random.default_rng(21))
        z = np.random.default_rng(21).standard_normal((samples, 3))
        if mode == m.DIAG:
            np.testing.assert_array_equal(got, z * np.sqrt(cov) + mean)
        else:
            evals, evecs = np.linalg.eigh(cov)
            want = z @ (evecs * np.sqrt(evals)).T + mean
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_minimum_sample_count_enforced(self):
        mv = m.MomentVector(np.zeros(2), np.ones(2), m.DIAG)
        with pytest.raises(ValueError):
            mc_layer_moments(LayerSpec(RELU), mv, 100, seed=0)

    @pytest.mark.parametrize("samples", [0, 1, 999])
    def test_expected_ll_minimum_sample_count_enforced(self, samples):
        # One sample would give a NaN standard error, which a deviation
        # test in standard errors would pass silently.
        mv = m.MomentVector(np.zeros(2), np.ones(2), m.DIAG)
        with pytest.raises(ValueError, match="samples must be >= 1000"):
            mc_expected_ll(mv, 0.0, samples, seed=0)

    @pytest.mark.parametrize("samples", [0, 1, 999])
    def test_network_minimum_sample_count_enforced(self, samples):
        config = net.build_model(net.ARCH_RELU, 2, 3, 0.1, m.DIAG, net.HEAD_HETEROSCEDASTIC)
        params = net.init_parameters(config, 0)
        with pytest.raises(ValueError, match="samples must be >= 1000"):
            mc_network_moments(config, params, np.zeros(2), samples, seed=0)


class TestLayerSemantics:
    def test_dense_identity_recovers_input_moments(self):
        mv = m.MomentVector(np.array([0.5, -0.5]), np.array([0.7, 1.3]), m.DIAG)
        est = mc_layer_moments(
            LayerSpec(DENSE, in_dim=2, out_dim=2), mv, 10**5, seed=1,
            weights=np.eye(2), bias=np.zeros(2),
        )
        assert np.all(np.abs(est.mean - mv.mean) <= 4 * est.standard_error_mean)
        assert np.all(
            np.abs(np.diag(est.cov) - mv.cov) <= 4 * np.diagonal(est.standard_error_cov)
        )

    def test_zero_covariance_dense_is_exact_with_zero_se(self):
        # Power-of-two weights make each product exact, so every draw rounds
        # W x + b alike in any BLAS order; the oracle's own summation of
        # the equal draws is what this pins.
        mv = m.MomentVector(np.array([0.1, -0.3]), np.zeros((2, 2)), m.FULL)
        w = np.array([[2.0, 0.5], [-1.0, 4.0], [0.25, -2.0]])
        b = np.array([0.7, -1.3, 0.2])
        est = mc_layer_moments(
            LayerSpec(DENSE, in_dim=2, out_dim=3), mv, 10**4, seed=8, weights=w, bias=b,
        )
        np.testing.assert_array_equal(est.mean, w @ mv.mean + b)
        assert np.all(est.cov == 0.0)
        assert np.all(est.standard_error_mean == 0.0)
        assert np.all(est.standard_error_cov == 0.0)

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    def test_constant_rectifier_unit_is_exact_with_zero_se(self, mode):
        # Unit 1 sits 50 sd below zero, so every draw of it clips to 0.
        sd = np.array([1.0, 0.8, 1.5])
        mean = np.array([0.4, -50.0 * sd[1], -0.3])
        corr = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, -0.4], [0.2, -0.4, 1.0]])
        cov = corr * np.outer(sd, sd) if mode == m.FULL else sd * sd
        est = mc_layer_moments(LayerSpec(RELU), m.MomentVector(mean, cov, mode), 10**4, seed=12)
        assert est.mean[1] == 0.0
        assert np.all(est.cov[1] == 0.0) and np.all(est.cov[:, 1] == 0.0)
        assert est.standard_error_mean[1] == 0.0
        assert np.all(est.standard_error_cov[1] == 0.0)
        assert np.all(est.standard_error_cov[:, 1] == 0.0)
        assert np.all(est.cov[[0, 2], [0, 2]] > 0.0)

    def test_constant_whose_mean_rounds_is_exact(self):
        # The mean of 10⁴ copies of 0.1 or 0.7 rounds away from them, so a
        # plain mean over the draws misses them; centering gives them exactly.
        mv = m.MomentVector(np.array([0.1, 0.7]), np.zeros((2, 2)), m.FULL)
        est = mc_layer_moments(LayerSpec(RELU), mv, 10**4, seed=13)
        np.testing.assert_array_equal(est.mean, mv.mean)
        assert np.all(est.cov == 0.0)
        assert np.all(est.standard_error_mean == 0.0)
        assert np.all(est.standard_error_cov == 0.0)

    def test_dense_requires_weights(self):
        mv = m.MomentVector(np.zeros(2), np.ones(2), m.DIAG)
        with pytest.raises(ValueError):
            mc_layer_moments(LayerSpec(DENSE, in_dim=2, out_dim=2), mv, 10**4, seed=0)

    def test_gated_activation_closed_form_at_standard_normal(self):
        mv = m.MomentVector(np.array([0.0]), np.array([1.0]), m.DIAG)
        est = mc_layer_moments(LayerSpec(MP_GELU), mv, 10**6, seed=2)
        assert abs(est.mean[0] - 0.0) <= 3 * est.standard_error_mean[0]
        assert abs(est.cov[0, 0] - 0.5) <= 3 * est.standard_error_cov[0, 0]

    def test_rectifier_closed_form_at_standard_normal(self):
        mv = m.MomentVector(np.array([0.0]), np.array([1.0]), m.DIAG)
        est = mc_layer_moments(LayerSpec(RELU), mv, 10**6, seed=3)
        assert est.mean[0] == pytest.approx(0.39894, abs=3 * est.standard_error_mean[0])


class TestStandardErrors:
    def test_se_shrinks_like_inverse_sqrt_of_samples(self):
        """Doubling samples shrinks the reported se by ~1/sqrt(2) (within 20%)."""
        mv = m.MomentVector(np.array([0.3, -0.2]), np.array([1.0, 0.5]), m.DIAG)
        layer = LayerSpec(RELU)
        se1 = mc_layer_moments(layer, mv, 10**5, seed=4).standard_error_mean
        se2 = mc_layer_moments(layer, mv, 2 * 10**5, seed=5).standard_error_mean
        ratio = se2 / se1
        expected = 1.0 / np.sqrt(2.0)
        assert np.all(np.abs(ratio - expected) <= 0.2 * expected)


class TestExpectedLlOracle:
    def test_zero_covariance_is_exact_with_zero_se(self):
        mv = m.MomentVector(np.array([0.4, -0.3]), np.zeros((2, 2)), m.FULL)
        y = 1.1
        est, se = mc_expected_ll(mv, y, 10**4, seed=6)
        h1, h2 = mv.mean
        exact = -0.5 * (np.log(2 * np.pi) + h2 + (y - h1) ** 2 * np.exp(-h2))
        assert est == pytest.approx(exact, rel=1e-12)
        assert se == 0.0

    def test_estimate_decreases_as_label_moves_away(self):
        cov = np.array([[0.3, 0.05], [0.05, 0.2]])
        mv = m.MomentVector(np.array([0.0, 0.0]), cov, m.FULL)
        vals = [mc_expected_ll(mv, y, 10**4, seed=7)[0] for y in (0.0, 1.5, 3.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_two_output_head_required(self):
        mv = m.MomentVector(np.zeros(3), np.ones(3), m.DIAG)
        with pytest.raises(m.MomentError):
            mc_expected_ll(mv, 0.0, 10**4, seed=0)


def _layer_case(kind, mode, seed, n):
    """A `checks.random_case` input and the `mc_layer_moments` arguments for it."""
    rng = np.random.default_rng(seed)
    mv = checks.random_case(n, mode, rng)
    kw = {}
    if kind == DENSE:
        kw = {"weights": rng.standard_normal((2, n)), "bias": rng.standard_normal(2)}
    return LayerSpec(kind, in_dim=n, out_dim=2, rate=0.13), mv, kw


class TestInPlace:
    """The streamed oracle gives the estimates of the whole-array arithmetic,
    and a call holds no more than its blocks, plus a dropout or gate call's
    (n, samples) input draws."""

    # One estimate per kind x mode at 10^4 draws, recorded before the oracle
    # worked in place: (mean[0], cov[0, -1], standard_error_cov[-1, -1]).
    PINNED = {
        ("dense", "full"): (3.48133895504326, 1.8165386531519832, 0.013515822465752355),
        ("dropout", "full"): (1.5402707075481337, 0.18747000464461283, 0.019718455867939605),
        ("mp_gelu", "full"): (0.5233832963115441, 0.09470414724720881, 0.01362202586453909),
        ("relu", "full"): (0.24908762138649007, -0.006194303084416981, 0.0020901592493209734),
        ("dense", "diag"): (1.319461511000613, -2.932007151195948, 0.08983877161635294),
        ("dropout", "diag"): (1.536987901568207, -0.03244407048068204, 0.019710545185008404),
        ("mp_gelu", "diag"): (0.5292578177502022, -0.018473226459288956, 0.013414956114818086),
        ("relu", "diag"): (0.24244137171818164, -0.0005291353807245705, 0.0018821081292126373),
    }

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    @pytest.mark.parametrize("kind", tuple(net._FWD))
    def test_estimates_pinned(self, kind, mode):
        layer, mv, kw = _layer_case(kind, mode, (5, list(net._FWD).index(kind)), 3)
        est = mc_layer_moments(layer, mv, 10**4, 11, **kw)
        got = (est.mean[0], est.cov[0, -1], est.standard_error_cov[-1, -1])
        np.testing.assert_allclose(got, self.PINNED[kind, mode], rtol=1e-12)

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    @pytest.mark.parametrize("kind", tuple(net._FWD))
    def test_layer_call_allocates_no_extra_draw_matrix(self, kind, mode):
        samples, n = 10**5, 4
        layer, mv, kw = _layer_case(kind, mode, 0, n)
        mc_layer_moments(layer, mv, 1000, 0, **kw)  # any lazy set-up first
        tracemalloc.start()
        try:
            mc_layer_moments(layer, mv, samples, 1, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A dense or rectifier call holds blocks only (about 0.55× and 0.71×
        # here); a dropout or gate call keeps its input draws beside them,
        # because its mask uniforms follow all the normals (about 1.64×).
        masked = kind in (DROPOUT, MP_GELU)
        assert peak <= (1.75 if masked else 0.8) * samples * n * 8

    def test_expected_ll_allocates_no_extra_draw_matrix(self):
        samples = 10**5
        mv = m.MomentVector(np.array([0.3, -0.2]), np.array([[0.5, 0.1], [0.1, 0.3]]), m.FULL)
        mc_expected_ll(mv, 0.4, 1000, 0)
        tracemalloc.start()
        try:
            mc_expected_ll(mv, 0.4, samples, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Blocks only (about 0.58× of the (samples, 2) draws, which no call
        # builds): three (block, 2) normals, the (4, block) work buffer of
        # the head draws and log-likelihoods, and `_Sums`' two (2, block)
        # stacks.
        assert peak <= 2.6 * samples * 2 * 8


def _all_estimates(samples=3 * mc_oracle._BLOCK + 100):
    """Every oracle entry point on one case each, as a list of arrays: each
    layer kind x mode (a partial last block included), the objective and a
    whole network."""
    out = []
    for mode in (m.FULL, m.DIAG):
        for kind in net._FWD:
            layer, mv, kw = _layer_case(kind, mode, (7, list(net._FWD).index(kind)), 3)
            est = mc_layer_moments(layer, mv, samples, 3, **kw)
            out += [est.mean, est.cov, est.standard_error_mean, est.standard_error_cov]
    head = m.MomentVector(np.array([0.3, -0.2]), np.array([[0.5, 0.1], [0.1, 0.3]]), m.FULL)
    out.append(np.array(mc_expected_ll(head, 0.4, samples, 5)))
    config = net.build_model(net.ARCH_RELU, 2, 3, 0.1, m.FULL, net.HEAD_HETEROSCEDASTIC)
    est = mc_network_moments(config, net.init_parameters(config, 0), np.array([0.5, -1.0]),
                             samples, 9)
    out += [est.mean, est.cov, est.standard_error_mean, est.standard_error_cov]
    out.append(sample_input(m.MomentVector(np.zeros(2), np.ones(2), m.DIAG), samples,
                            np.random.default_rng(4)))
    return out


class TestBlockIterator:
    """The helper thread changes when a block is drawn, never what it holds,
    and no thread outlives a call."""

    @staticmethod
    @contextlib.contextmanager
    def inline_blocks(fills, samples, n, given=()):
        """The reference: `given`, then every block drawn in the caller,
        into one buffer."""
        buf = np.empty((min(samples, mc_oracle._BLOCK), n))
        drawn = (fill(out=buf[:samples - k])
                 for fill in fills for k in range(0, samples, mc_oracle._BLOCK))
        yield itertools.chain(given, drawn)

    def test_estimates_bit_identical_when_drawn_inline(self, monkeypatch):
        # Threads switched as often as the interpreter allows, so that a
        # block read while the helper writes it would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _all_estimates()
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(mc_oracle, "_blocks", self.inline_blocks)
        for got, want in zip(_all_estimates(), threaded, strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    @pytest.mark.parametrize("kind", tuple(net._FWD))
    def test_shared_normals_give_the_bits_of_the_seed(self, kind, mode):
        samples = 2 * mc_oracle._BLOCK + 7
        layer, mv, kw = _layer_case(kind, mode, (8, list(net._FWD).index(kind)), 3)
        normals = draw_normals(samples, mv.dim, 12)
        for _ in range(2):  # a call leaves the shared draw as it was
            got = mc_layer_moments(layer, mv, samples, normals, **kw)
            want = mc_layer_moments(layer, mv, samples, 12, **kw)
            for f in ("mean", "cov", "standard_error_mean", "standard_error_cov"):
                np.testing.assert_array_equal(getattr(got, f), getattr(want, f))

    @pytest.mark.parametrize("mode", [m.FULL, m.DIAG])
    @pytest.mark.parametrize("kind", [DENSE, RELU])
    def test_dense_and_rectifier_calls_hold_only_blocks(self, kind, mode):
        samples, n = 10**6, 4
        layer, mv, kw = _layer_case(kind, mode, 0, n)
        mc_layer_moments(layer, mv, 1000, 0, **kw)  # any lazy set-up first
        tracemalloc.start()
        try:
            mc_layer_moments(layer, mv, samples, 1, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A few (block, n) buffers, about 2 MB, against 32 MB of draws.
        assert peak <= 0.1 * samples * n * 8

    def test_shared_normals_of_another_shape_rejected(self):
        layer, mv, kw = _layer_case(RELU, m.DIAG, 0, 3)
        with pytest.raises(ValueError, match="normals of shape"):
            mc_layer_moments(layer, mv, 2000, draw_normals(2000, 4, 0), **kw)

    def test_no_thread_outlives_a_call(self, monkeypatch):
        before = threading.active_count()
        _all_estimates()
        assert threading.active_count() == before
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(m.MomentError):
            mc_layer_moments(LayerSpec(RELU), m.MomentVector(np.zeros(2), cov, m.FULL), 10**4, 0)
        assert threading.active_count() == before

        real = np.random.default_rng

        class Poisoned:
            """A generator whose third block fails, on whichever thread draws it."""

            def __init__(self, seed=None):
                self.rng, self.fills = real(seed), 0
                self.bit_generator = self.rng.bit_generator

            def fill(self, name, out):
                self.fills += 1
                if self.fills == 3:
                    raise RuntimeError("poisoned block")
                return getattr(self.rng, name)(out=out)

            def standard_normal(self, out):
                return self.fill("standard_normal", out)

            def random(self, out):
                return self.fill("random", out)

        head = m.MomentVector(np.zeros(2), np.ones(2), m.DIAG)
        calls = [functools.partial(mc_expected_ll, head, 0.0, 10**5, 0)]
        for kind in net._FWD:
            layer, mv, kw = _layer_case(kind, m.DIAG, 0, 3)
            calls.append(functools.partial(mc_layer_moments, layer, mv, 10**5, 0, **kw))
        # Normals drawn before the poisoning: the uniforms come from the
        # generator restored after them, drawn on the helper.
        layer, mv, _ = _layer_case(DROPOUT, m.DIAG, 0, 3)
        calls.append(functools.partial(mc_layer_moments, layer, mv, 10**5,
                                       draw_normals(10**5, 3, 0)))
        # One stream per masked layer, the first of them poisoned.
        config = net.build_model(net.ARCH_RELU, 2, 3, 0.1, m.DIAG, net.HEAD_HETEROSCEDASTIC)
        calls.append(functools.partial(mc_network_moments, config,
                                       net.init_parameters(config, 0), np.array([0.5, -1.0]),
                                       10**5, 0))
        monkeypatch.setattr(np.random, "default_rng", Poisoned)
        for call in calls:
            with pytest.raises(RuntimeError, match="poisoned block"):
                call()
            assert threading.active_count() == before


def test_estimates_do_not_depend_on_blas_threads():
    """In a fresh interpreter, every oracle estimate is bit-identical with
    every OpenBLAS on two threads and on one: the (n, n) @ (n, block) and
    Gram products are shapes that OpenBLAS can split across threads."""
    code = (
        "import hashlib, json\n"
        "import numpy as np\n"
        "from mpbnn import checks, mc_oracle, moments as m, training as tr\n"
        "from mpbnn.network import _FWD, LayerSpec\n"
        "libs = tr._openblas_threads()\n"
        "def digest():\n"
        "    h = hashlib.sha256()\n"
        "    for mode in (m.FULL, m.DIAG):\n"
        "        for i, kind in enumerate(_FWD):\n"
        "            rng = np.random.default_rng((i, 3))\n"
        "            mv = checks.random_case(4, mode, rng)\n"
        "            kw = {'weights': rng.standard_normal((3, 4)),\n"
        "                  'bias': rng.standard_normal(3)} if kind == 'dense' else {}\n"
        "            layer = LayerSpec(kind, in_dim=4, out_dim=3, rate=0.13)\n"
        "            est = mc_oracle.mc_layer_moments(layer, mv, 10**5, i, **kw)\n"
        "            for a in (est.mean, est.cov, est.standard_error_mean,\n"
        "                      est.standard_error_cov):\n"
        "                h.update(a.tobytes())\n"
        "    head = m.MomentVector(np.array([0.3, -0.2]),\n"
        "                          np.array([[0.5, 0.1], [0.1, 0.3]]), m.FULL)\n"
        "    h.update(np.array(mc_oracle.mc_expected_ll(head, 0.4, 10**5, 5)).tobytes())\n"
        "    return h.hexdigest()\n"
        "out = []\n"
        "for threads in (2, 1):\n"
        "    for _, set_ in libs: set_(threads)\n"
        "    out.append(digest())\n"
        "print(json.dumps(out))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(m.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    two, one = json.loads(out.stdout)
    assert two == one
