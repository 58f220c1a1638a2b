"""Reverse-mode gradients through the moment pass, and the SGD loop.

Every layer's backward rule is hand-derived from its forward moment
formulas, including the dependence of the gated activation's rates on the
input statistics.  Key identities used below, with α = μ/σ, Φ/φ the
standard normal CDF/PDF, q = Φ(α) the keep probability:

    gated:  ∂q/∂μ = φ(α)/σ,      ∂q/∂var = -φ(α)·α/(2·var)
    rect.:  ∂mean'/∂μ = Φ(α),    ∂mean'/∂var = φ(α)/(2σ)
            ∂E[r²]/∂μ = 2·mean', ∂E[r²]/∂var = Φ(α)
            ⇒ ∂var'/∂μ = 2·mean'·(1-Φ), ∂var'/∂var = Φ - mean'·φ/σ

Where σ is below the deterministic floor the rates/gains are constants of
the input and their derivative terms are zero (the rectifier-limit
subgradient convention).

Finite differences are kept as a test oracle only; this module is the
production gradient path.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import moments, objective
from .moments import FULL
from .network import (
    DENSE,
    DROPOUT,
    HEAD_HETEROSCEDASTIC,
    MP_GELU,
    ModelConfig,
    ParameterSet,
    forward_batch,
    init_parameters,
)

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


try:
    from threadpoolctl import threadpool_limits
except ImportError:
    threadpool_limits = None


def single_thread_blas():
    """Pin BLAS to one thread; threaded GEMM loses badly on these tiny shapes.

    A no-op when threadpoolctl is not installed."""
    if threadpool_limits is None:
        return contextlib.nullcontext()
    return threadpool_limits(limits=1)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    seed: int

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")


@dataclass
class GradientSet:
    """Loss gradients, shaped exactly like a ParameterSet."""

    weights: list
    biases: list


# ---------------------------------------------------------------------------
# Per-layer backward kernels.  Adjoint conventions: g_mean is dL/d(mean) with
# shape (B, n); g_cov is dL/d(cov), shaped like the forward covariance.  A
# full covariance is a symmetric matrix, and its adjoint is taken as one too:
# a symmetric g_cov with dL = Σ_ij g_ij dΣ_ij for every symmetric dΣ, so a
# term that reads Σ_ij (i ≠ j) splits its derivative evenly over g_ij and
# g_ji.  Every kernel maps a symmetric g_cov to a symmetric one.  Nothing
# else holds a g_cov once it is passed down, so the gate and dropout adjoints
# may overwrite it with their full-mode result.
# ---------------------------------------------------------------------------


def _dense_bwd(ctx, g_mean, g_cov, mode, input_grad=True):
    """Parameter adjoints and, unless `input_grad` is false, input adjoints
    (returned as None otherwise: nothing uses them below the first dense
    layer, which is also the only place a full-mode input is diagonal)."""
    in_mean, w, aux = ctx
    g_b = g_mean.sum(axis=0)
    g_w = g_mean.T @ in_mean
    m, n = w.shape
    if mode == FULL:
        # aux is W Σ.  ∂/∂W Σ_kl g_kl (W Σ Wᵀ)_kl = 2 g W Σ for symmetric g,
        # summed over the batch as one flat GEMM.
        g_w += 2.0 * (g_cov.reshape(-1, m).T @ aux.reshape(-1, n))
    else:
        # aux is the input variance vector.
        g_w += 2.0 * w * (g_cov.T @ aux)
    if not input_grad:
        return None, None, g_w, g_b
    g_mean_in = g_mean @ w
    if mode == FULL:
        batch = g_mean.shape[0]
        gw = moments._empty((batch, m, n))
        np.matmul(g_cov.reshape(-1, m), w, out=gw.reshape(-1, n))
        g_cov_in = np.matmul(w.T, gw, out=moments._empty((batch, n, n)))
    else:
        g_cov_in = g_cov @ (w * w)
    return g_mean_in, g_cov_in, g_w, g_b


def _dropout_bwd(ctx, g_mean, g_cov, mode):
    in_mean, p = ctx
    q = 1.0 - p
    if g_cov.ndim == 3:
        g_diag = np.einsum("bii->bi", g_cov)
        g_mean_in = q * g_mean + g_diag * (2.0 * p * q * in_mean)
        g_var_in = q * g_diag  # a copy: g_diag is a view of g_cov
        g_cov_in = np.multiply(g_cov, q * q, out=g_cov)
        np.einsum("bii->bi", g_cov_in)[...] = g_var_in
    else:
        g_mean_in = q * g_mean + g_cov * (2.0 * p * q * in_mean)
        g_cov_in = q * g_cov
    return g_mean_in, g_cov_in


def _gate_rate_derivs(mean, var, sigma, det):
    """(∂q/∂μ, ∂q/∂var) for q = Φ(μ/σ); zero in the deterministic limit."""
    safe_sigma = np.where(det, 1.0, sigma)
    safe_var = np.where(det, 1.0, var)
    alpha = mean / safe_sigma
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * alpha * alpha)
    dq_dmu = np.where(det, 0.0, pdf / safe_sigma)
    dq_dvar = np.where(det, 0.0, -pdf * alpha / (2.0 * safe_var))
    return dq_dmu, dq_dvar


def _offdiag_gain_adjoint(g_cov, in_cov, gain):
    """dL/d(gain_i) from off-diagonal terms cov'_ij = gain_i gain_j cov_ij;
    g_cov and in_cov symmetric, so the (i, j) and (j, i) terms are equal."""
    rows = np.einsum("bij,bij,bj->bi", g_cov, in_cov, gain)
    return 2.0 * (rows - np.einsum("bii,bii->bi", g_cov, in_cov) * gain)


def _mp_gelu_bwd(ctx, g_mean, g_cov, mode):
    mean, var, in_cov, p, q, sigma, det = ctx
    dq_dmu, dq_dvar = _gate_rate_derivs(mean, var, sigma, det)
    full = g_cov.ndim == 3
    if full:
        g_diag = np.einsum("bii->bi", g_cov)
        g_q = _offdiag_gain_adjoint(g_cov, in_cov, q)
    else:
        g_diag = g_cov
        g_q = np.zeros_like(g_cov)
    # var' = q·var + (q - q²)·μ²  ⇒  ∂var'/∂q = var + (1 - 2q)·μ²
    g_q += g_mean * mean + g_diag * (var + (1.0 - 2.0 * q) * mean * mean)
    g_mean_in = q * g_mean + g_diag * (2.0 * p * q * mean) + g_q * dq_dmu
    g_var_in = q * g_diag + g_q * dq_dvar
    if full:
        g_cov_in = moments._scale_offdiag(g_cov, q, g_var_in, g_cov)
    else:
        g_cov_in = g_var_in
    return g_mean_in, g_cov_in


def _relu_bwd(ctx, g_mean, g_cov, mode):
    mean, var, in_cov, sigma, det, cdf, pdf, out_mean = ctx
    safe_sigma = np.where(det, 1.0, sigma)
    safe_var = np.where(det, 1.0, var)
    alpha = mean / safe_sigma
    dm_dvar = np.where(det, 0.0, pdf / (2.0 * safe_sigma))
    dv_dmu = 2.0 * out_mean * (1.0 - cdf)
    dv_dvar = np.where(det, cdf * cdf, cdf - out_mean * pdf / safe_sigma)
    if g_cov.ndim == 3:
        g_diag = np.einsum("bii->bi", g_cov)
        g_gain = _offdiag_gain_adjoint(g_cov, in_cov, cdf)
        dgain_dmu = np.where(det, 0.0, pdf / safe_sigma)
        dgain_dvar = np.where(det, 0.0, -pdf * alpha / (2.0 * safe_var))
        g_mean_in = g_mean * cdf + g_diag * dv_dmu + g_gain * dgain_dmu
        g_var_in = g_mean * dm_dvar + g_diag * dv_dvar + g_gain * dgain_dvar
        g_cov_in = moments._scale_offdiag(g_cov, cdf, g_var_in, g_cov)
    else:
        g_mean_in = g_mean * cdf + g_cov * dv_dmu
        g_cov_in = g_mean * dm_dvar + g_cov * dv_dvar
    return g_mean_in, g_cov_in


def _forward_tape(config, params, xs):
    """Batched forward pass recording per-layer backward contexts.

    Layers below the first dense layer have no parameters and nothing
    above depends on their adjoints, so they are not recorded.

    In full mode the dense and dropout contexts keep nothing of their input
    covariance, so that input goes back to the step's buffer pool as soon as
    the layer has run; the gates' contexts keep theirs.  (Diag-mode arrays
    are not pooled, so releasing the dense input there is a no-op.)"""
    mode = config.covariance_mode
    mean = np.asarray(xs, dtype=float)
    cov = np.zeros_like(mean)
    tape = []
    dense_i = 0
    for layer_i, layer in enumerate(config.layers):
        param_i = None
        cov_in = cov
        if layer.kind == DENSE:
            param_i = dense_i
            mean, cov, ctx = moments._dense_fwd(
                mean, cov, params.weights[dense_i], params.biases[dense_i], mode
            )
            dense_i += 1
        elif layer.kind == DROPOUT:
            mean, cov, ctx = moments._dropout_fwd(mean, cov, layer.rate, mode)
        elif layer.kind == MP_GELU:
            mean, cov, ctx = moments._mp_gelu_fwd(mean, cov, mode)
        else:
            mean, cov, ctx = moments._relu_fwd(mean, cov, mode)
        if layer.kind in (DENSE, DROPOUT):
            moments._release(cov_in)
        if dense_i:
            tape.append((layer_i, layer.kind, param_i, ctx))
    return mean, cov, tape


def loss_and_gradients(config: ModelConfig, params: ParameterSet, xs, ys):
    """Mean negative expected log-likelihood over a batch, with exact gradients.

    Returns (loss, GradientSet); the .grad_* accumulators on `params` are
    overwritten with the same values.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise ValueError("batch must be a non-empty (B, Q) array")
    if ys.shape != (xs.shape[0],):
        raise ValueError(f"labels shape {ys.shape} does not match batch {xs.shape}")
    mode = config.covariance_mode
    batch = xs.shape[0]

    # Full-mode (B, n, n) arrays come from the thread's buffer pool while the
    # step is open; nothing returned below refers to them.
    moments._open_step()
    try:
        mean, cov, tape = _forward_tape(config, params, xs)
        if config.head == HEAD_HETEROSCEDASTIC:
            ell, octx = objective._ell2_fwd(mean, cov, ys, mode)
            g_mean, g_cov = objective._ell2_bwd(octx, np.full(batch, -1.0 / batch))
        else:
            ell, octx = objective._ell1_fwd(mean, cov, ys, mode)
            g_mean, g_cov = objective._ell1_bwd(octx, np.full(batch, -1.0 / batch))
        loss = -float(np.mean(ell))
        if not math.isfinite(loss):
            raise FloatingPointError("non-finite training loss")

        grads = GradientSet(
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(b) for b in params.biases],
        )
        for layer_i, kind, dense_i, ctx in reversed(tape):
            if kind == DENSE:
                g_mean, g_cov, g_w, g_b = _dense_bwd(
                    ctx, g_mean, g_cov, mode, input_grad=dense_i > 0
                )
                grads.weights[dense_i] = g_w
                grads.biases[dense_i] = g_b
                if not (np.isfinite(g_w).all() and np.isfinite(g_b).all()):
                    raise FloatingPointError(f"non-finite gradient in layer {layer_i} (dense)")
                if dense_i == 0:  # the tape starts here; no input adjoints
                    break
            elif kind == DROPOUT:
                g_mean, g_cov = _dropout_bwd(ctx, g_mean, g_cov, mode)
            elif kind == MP_GELU:
                g_mean, g_cov = _mp_gelu_bwd(ctx, g_mean, g_cov, mode)
            else:
                g_mean, g_cov = _relu_bwd(ctx, g_mean, g_cov, mode)
            if not np.isfinite(g_mean).all():
                raise FloatingPointError(f"non-finite gradient in layer {layer_i} ({kind})")
    finally:
        moments._close_step()

    for gw, gb, pw, pb in zip(grads.weights, grads.biases, params.grad_weights, params.grad_biases):
        pw[...] = gw
        pb[...] = gb
    return loss, grads


def sgd_step(params: ParameterSet, grads: GradientSet, lr: float) -> ParameterSet:
    """Plain SGD: w ← w − lr·g.  No momentum, no weight decay.  In place."""
    for w, g in zip(params.weights, grads.weights):
        w -= lr * g
    for b, g in zip(params.biases, grads.biases):
        b -= lr * g
    return params


def train(config: ModelConfig, train_config: TrainConfig, xs, ys, params=None):
    """Seeded epoch loop over shuffled mini-batches.

    Shuffling is a fresh full permutation per epoch; the last batch may be
    short.  Returns (params, per-epoch mean loss trace).  When `params` is
    None they are initialized from the training seed.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = xs.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    init_ss, shuffle_ss = np.random.SeedSequence(train_config.seed).spawn(2)
    if params is None:
        params = init_parameters(config, init_ss)
    rng = np.random.default_rng(shuffle_ss)
    bs = train_config.batch_size
    trace = []
    with single_thread_blas():
        for _ in range(train_config.epochs):
            perm = rng.permutation(n)
            total = 0.0
            for start in range(0, n, bs):
                idx = perm[start : start + bs]
                loss, grads = loss_and_gradients(config, params, xs[idx], ys[idx])
                sgd_step(params, grads, train_config.learning_rate)
                total += loss * idx.size
            trace.append(total / n)
    return params, trace


def evaluate_model(config: ModelConfig, params: ParameterSet, xs, ys):
    """Mean predictive NLL and RMSE over a dataset (standardized space)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    mean, cov = forward_batch(config, params, xs)
    pm, pv = objective._predictive_batch(mean, cov, config.head, config.covariance_mode)
    nll = 0.5 * (objective.LOG_2PI + np.log(pv) + (ys - pm) ** 2 / pv)
    return {
        "nll": float(np.mean(nll)),
        "rmse": objective.rmse(pm, ys),
        "pred_mean": pm,
        "pred_var": pv,
    }
