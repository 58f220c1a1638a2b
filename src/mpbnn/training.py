"""Reverse-mode gradients through the moment pass, and the SGD loop.

Every layer's backward rule is hand-derived from its forward moment
formulas, including the dependence of the gated activation's rates on the
input statistics.  Key identities used below, with α = μ/σ, Φ/φ the
standard normal CDF/PDF, q = Φ(α) the keep probability:

    gated:  ∂q/∂μ = φ(α)/σ,      ∂q/∂var = -φ(α)·α/(2·var)
    rect.:  ∂mean'/∂μ = Φ(α),    ∂mean'/∂var = φ(α)/(2σ)
            ∂E[r²]/∂μ = 2·mean', ∂E[r²]/∂var = Φ(α)
            ⇒ ∂var'/∂μ = 2·mean'·(1-Φ), ∂var'/∂var = Φ - mean'·φ/σ

The rectifier's off-diagonal gain is q too: both use `_gate_rate_derivs`.
Where σ is below the deterministic floor the rates/gains are constants of
the input and their derivative terms are zero (the rectifier-limit
subgradient convention).  A context's `det` is None when no unit is below
the floor (see `moments`); the adjoints then skip the masks.

Finite differences are kept as a test oracle only (`checks.fd_check`); this
module is the production gradient path.  `loss_and_gradients` runs a taped
forward pass and the backward pass inside a pooled step (see `moments`).
`loss` gives the same loss, bit for bit, from the forward pass alone: the
whole-pass reference of the finite-difference tests.  Both take their head
objective from one place (`_head_loss`), and both, with `evaluate_model`,
their input checks (`_batch`).

`train` and `evaluate_model` run with BLAS pinned to one thread
(`single_thread_blas`): through threadpoolctl when it is installed, else
through the thread-count functions of each OpenBLAS loaded in the process,
found once on first use.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from dataclasses import dataclass

import numpy as np

from . import moments, objective
from .moments import _INV_SQRT_2PI, FULL
from .network import (
    DENSE,
    DROPOUT,
    HEAD_HETEROSCEDASTIC,
    MP_GELU,
    RELU,
    ModelConfig,
    ParameterSet,
    _run_layers,
    init_parameters,
)

try:
    from threadpoolctl import threadpool_limits
except ImportError:
    threadpool_limits = None

# (get, set) thread-count symbols of an OpenBLAS: numpy's 64-bit-integer
# build, scipy's, then a system OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_threads() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS in the process.

    Found on first use, from the libraries mapped into the process (Linux
    only; elsewhere there are none), and kept for the life of the process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


@contextlib.contextmanager
def _pin_openblas():
    """Every OpenBLAS found on one thread; the prior counts back on exit.
    The counts are process-wide, as threadpoolctl's limits are."""
    libs = _openblas_threads()
    prior = [get() for get, _ in libs]
    for _, set_ in libs:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), threads in zip(libs, prior):
            set_(threads)


def single_thread_blas():
    """Pin BLAS to one thread; threaded GEMM loses badly on these tiny shapes.

    Through threadpoolctl when it is installed, else through each loaded
    OpenBLAS's own thread-count functions; a no-op when neither is there."""
    if threadpool_limits is None:
        return _pin_openblas()
    return threadpool_limits(limits=1)


def blas_pinned() -> bool:
    """Whether BLAS runs on one thread inside `single_thread_blas()`: either
    threadpoolctl is importable, an OpenBLAS was found to pin, or the
    environment set OpenBLAS's thread count to 1 (OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS, as OpenBLAS reads them when it loads)."""
    if threadpool_limits is not None or _openblas_threads():
        return True
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return threads == "1"


# What a diverging run raises: a non-finite loss or gradient, or a negative
# variance.
DIVERGENCE_ERRORS = (FloatingPointError, moments.MomentError)


def with_context(exc: Exception, where: str) -> Exception:
    """A new exception of `exc`'s type whose message ends with `where`."""
    return type(exc)(f"{exc}; {where}")


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
# shape (B, n); g_cov is dL/d(cov), shaped like the forward covariance, so a
# full one is batch-last (n, n, B) (see `moments`).  A full covariance is a
# symmetric matrix, and its adjoint is taken as one too: a symmetric g_cov
# with dL = Σ_ij g_ij dΣ_ij for every symmetric dΣ, so a term that reads
# Σ_ij (i ≠ j) splits its derivative evenly over g_ij and g_ji.  Every
# kernel maps a symmetric g_cov to a symmetric one.  Nothing else holds a
# g_cov once it is passed down, so the gain layers' adjoints overwrite it:
# the gain map of `moments._gained` is its own adjoint, and each returns
# `_gained(g_cov, gain, g_var_in, out=g_cov)`.
#
# The dense adjoint of Σ' = W Σ Wᵀ, per batch entry, with H = g W (m × n):
#     g_Σ = Wᵀ g W = Wᵀ H,   g_W = 2 g W Σ = 2 g (W Σ)   (g and Σ symmetric).
# Every full-mode dense context keeps the (m, n, B) W Σ that its forward
# pass formed, never its input Σ, so g_W, summed over the batch, is m GEMMs
# of (m, B)(B, n).  Batch-last, H is matmul(Wᵀ, g) over g's leading axis,
# m GEMMs of (n, m)(m, B) into an (m, n, B) array, and g_Σ is a flat GEMM
# over (·, n·B); both are formed only when the input adjoints are wanted.
# Each pooled array goes back to the step's pool at its last read (see
# `moments`): W Σ once g_W is formed, the incoming g once H is, so that H
# and g_Σ take their buffers.
# ---------------------------------------------------------------------------


def _dense_bwd(ctx, g_mean, g_cov, mode, input_grad=True):
    """Parameter adjoints and, unless `input_grad` is false, input adjoints
    (returned as None otherwise: nothing uses them below the first dense
    layer).  The context is (input mean, W, W Σ) in full mode and (input
    mean, W, input variances) in diag mode."""
    in_mean, w, cov = ctx
    g_b = g_mean.sum(axis=0)
    g_w = g_mean.T @ in_mean
    if mode != FULL:
        # cov is the input variance vector.
        g_w += 2.0 * w * (g_cov.T @ cov)
        if not input_grad:
            return None, None, g_w, g_b
        return g_mean @ w, g_cov @ (w * w), g_w, g_b
    # cov is W Σ, (m, n, B): Σ_b g_b (W Σ)_b as m GEMMs, summed.
    g_w += 2.0 * np.matmul(g_cov.transpose(1, 0, 2), cov.transpose(0, 2, 1)).sum(axis=0)
    moments._release(cov)
    if not input_grad:
        return None, None, g_w, g_b
    m, n = w.shape
    batch = g_mean.shape[0]
    h = np.matmul(w.T, g_cov, out=moments._empty((m, n, batch)))
    moments._release(g_cov)
    g_cov_in = moments._empty((n, n, batch))
    np.dot(w.T, h.reshape(m, n * batch), out=g_cov_in.reshape(n, n * batch))
    return g_mean @ w, g_cov_in, g_w, g_b


def _dropout_bwd(ctx, g_mean, g_cov, mode):
    in_mean, p = ctx
    q = 1.0 - p
    g_diag = moments._variances(g_cov)
    g_mean_in = q * g_mean + g_diag * (2.0 * p * q * in_mean)
    return g_mean_in, moments._gained(g_cov, q, q * g_diag, out=g_cov)


def _gate_rate_derivs(mean, var, sigma, det, pdf=None):
    """(∂q/∂μ, ∂q/∂var) for q = Φ(μ/σ); zero in the deterministic limit.
    `pdf`, when given, is the caller's φ(μ/σ), already zero on `det`."""
    if det is not None:
        # With σ = var = 1 and φ = 0 there, both derivatives are 0.
        sigma = np.where(det, 1.0, sigma)
        var = np.where(det, 1.0, var)
    alpha = mean / sigma
    if pdf is None:
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * alpha * alpha)
        if det is not None:
            pdf = np.where(det, 0.0, pdf)
    return pdf / sigma, -pdf * alpha / (2.0 * var)


def _offdiag_gain_adjoint(g_cov, in_cov, gain):
    """dL/d(gain_i) from off-diagonal terms cov'_ij = gain_i gain_j cov_ij;
    g_cov and in_cov symmetric, so the (i, j) and (j, i) terms are equal.
    Summed with the batch axis innermost; `gain` and the result are (B, n)."""
    rows = np.einsum("ijb,ijb,jb->bi", g_cov, in_cov, np.ascontiguousarray(gain.T))
    return 2.0 * (rows - moments._diag(g_cov) * moments._diag(in_cov) * gain)


def _mp_gelu_bwd(ctx, g_mean, g_cov, mode):
    mean, var, in_cov, p, q, sigma, det = ctx
    dq_dmu, dq_dvar = _gate_rate_derivs(mean, var, sigma, det)
    g_diag = moments._variances(g_cov)
    # var' = q·var + (q - q²)·μ²  ⇒  ∂var'/∂q = var + (1 - 2q)·μ²
    g_q = g_mean * mean + g_diag * (var + (1.0 - 2.0 * q) * mean * mean)
    if g_cov.ndim == 3:
        g_q += _offdiag_gain_adjoint(g_cov, in_cov, q)
    g_mean_in = q * g_mean + g_diag * (2.0 * p * q * mean) + g_q * dq_dmu
    g_var_in = q * g_diag + g_q * dq_dvar
    return g_mean_in, moments._gained(g_cov, q, g_var_in, out=g_cov)


def _relu_bwd(ctx, g_mean, g_cov, mode):
    mean, var, in_cov, sigma, det, cdf, lo, pdf, out_mean = ctx
    ccdf = np.where(mean < 0.0, 1.0 - lo, lo)  # 1 − Φ(α), lo = Φ(−|α|)
    if det is not None:
        # φ is 0 there, so with σ = var = 1 every φ term below is 0 too.
        sigma = np.where(det, 1.0, sigma)
        var = np.where(det, 1.0, var)
        ccdf = np.where(det, 1.0 - cdf, ccdf)
    dm_dvar = pdf / (2.0 * sigma)
    dv_dmu = 2.0 * out_mean * ccdf
    dv_dvar = cdf - out_mean * pdf / sigma
    if det is not None:
        dv_dvar = np.where(det, cdf * cdf, dv_dvar)
    g_diag = moments._variances(g_cov)
    g_mean_in = g_mean * cdf + g_diag * dv_dmu
    g_var_in = g_mean * dm_dvar + g_diag * dv_dvar
    if g_cov.ndim == 3:
        # σ and var are already 1 on `det`, where the context's φ is 0.
        g_gain = _offdiag_gain_adjoint(g_cov, in_cov, cdf)
        dgain_dmu, dgain_dvar = _gate_rate_derivs(mean, var, sigma, None, pdf)
        g_mean_in += g_gain * dgain_dmu
        g_var_in += g_gain * dgain_dvar
    return g_mean_in, moments._gained(g_cov, cdf, g_var_in, out=g_cov)


# Adjoint per parameter-free layer kind, each looked up when called (see
# `network._FWD`).  Dense is the backward loop's own branch: it alone yields
# parameter gradients, and the tape starts at the first dense layer.
_BWD = {
    DROPOUT: lambda ctx, g_mean, g_cov, mode: _dropout_bwd(ctx, g_mean, g_cov, mode),
    MP_GELU: lambda ctx, g_mean, g_cov, mode: _mp_gelu_bwd(ctx, g_mean, g_cov, mode),
    RELU: lambda ctx, g_mean, g_cov, mode: _relu_bwd(ctx, g_mean, g_cov, mode),
}


def _release_context(ctx) -> None:
    """Return the pooled arrays of a layer's context to the step's pool once
    the layer's adjoint has run: nothing reads them afterwards.  A context
    may be a tuple or list (its own arrays go back), one array, or anything
    else, such as None (nothing goes back)."""
    for arr in ctx if isinstance(ctx, (tuple, list)) else (ctx,):
        if isinstance(arr, np.ndarray):
            moments._release(arr)


def _forward_tape(config, params, xs):
    """Batched forward pass recording per-layer backward contexts."""
    tape = []
    mean, cov = _run_layers(config, params, xs, tape)
    return mean, cov, tape


def _batch(config, xs, ys):
    """The batch as float arrays, checked: finite (B, Q) features of the
    model's input width Q, finite (B,) labels.  A rejection is a
    ValueError, outside `DIVERGENCE_ERRORS`: bad input is not a diverging
    run."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    q = config.input_dim
    if xs.ndim != 2 or xs.shape[0] == 0 or xs.shape[1] != q:
        raise ValueError(f"batch must be a non-empty (B, {q}) array, got shape {xs.shape}")
    if ys.shape != (xs.shape[0],):
        raise ValueError(f"labels shape {ys.shape} does not match batch {xs.shape}")
    if not moments._finite(xs):
        raise ValueError("non-finite entries in batch features")
    if not moments._finite(ys):
        raise ValueError("non-finite entries in batch labels")
    return xs, ys


def _head_loss(config, mean, cov, ys, passes=1):
    """Mean negative expected log-likelihood of head moments: those of one
    pass over the batch `ys`, or of `passes` such passes stacked along the
    batch axis (`moments._stack_rows`).

    Returns (each pass's loss as an array, the head's objective backward
    kernel, its context)."""
    mode = config.covariance_mode
    if passes > 1:
        ys = np.tile(ys, passes)
    if config.head == HEAD_HETEROSCEDASTIC:
        ell, octx = objective._ell2_fwd(mean, cov, ys, mode)
        bwd = objective._ell2_bwd
    else:
        ell, octx = objective._ell1_fwd(mean, cov, ys, mode)
        bwd = objective._ell1_bwd
    # np.mean's bits without its Python-level wrapper: each pass's rows are
    # one contiguous pairwise sum, then one division.
    ell = ell.reshape(passes, -1)
    losses = -(np.add.reduce(ell, axis=1) / ell.shape[1])
    if not np.isfinite(losses).all():
        raise FloatingPointError("non-finite training loss")
    return losses, bwd, octx


def loss(config: ModelConfig, params: ParameterSet, xs, ys) -> float:
    """The loss of `loss_and_gradients`, bit for bit, from the forward pass
    alone: no tape, no backward pass and no pooled step."""
    xs, ys = _batch(config, xs, ys)
    mean, cov = _run_layers(config, params, xs)
    return float(_head_loss(config, mean, cov, ys)[0][0])


def loss_and_gradients(config: ModelConfig, params: ParameterSet, xs, ys):
    """Mean negative expected log-likelihood over a batch, with exact gradients.

    Returns (loss, GradientSet).
    """
    xs, ys = _batch(config, xs, ys)
    mode = config.covariance_mode
    batch = xs.shape[0]

    # Full-mode (n, n, B) arrays come from the thread's buffer pool while the
    # step is open; nothing returned below refers to them.
    moments._open_step()
    try:
        mean, cov, tape = _forward_tape(config, params, xs)
        losses, head_bwd, octx = _head_loss(config, mean, cov, ys)
        loss = float(losses[0])
        g_mean, g_cov = head_bwd(octx, np.full(batch, -1.0 / batch))

        grads = GradientSet([None] * len(params.weights), [None] * len(params.biases))
        full = mode == FULL
        for layer_i, kind, dense_i, ctx in reversed(tape):
            if kind == DENSE:
                g_mean, g_cov, g_w, g_b = _dense_bwd(
                    ctx, g_mean, g_cov, mode, input_grad=dense_i > 0
                )
                grads.weights[dense_i] = g_w
                grads.biases[dense_i] = g_b
                if not (moments._finite(g_w) and moments._finite(g_b)):
                    raise FloatingPointError(f"non-finite gradient in layer {layer_i} (dense)")
                if dense_i == 0:  # the tape starts here; no input adjoints
                    break
            else:
                g_mean, g_cov = _BWD[kind](ctx, g_mean, g_cov, mode)
                if full:
                    _release_context(ctx)
            if not moments._finite(g_mean):
                raise FloatingPointError(f"non-finite gradient in layer {layer_i} ({kind})")
    finally:
        moments._close_step()
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
    None they are initialized from the training seed.  A diverging step's
    error is raised again with its epoch and the batch's start in the
    permutation.
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
        for epoch in range(train_config.epochs):
            perm = rng.permutation(n)
            total = 0.0
            for start in range(0, n, bs):
                idx = perm[start : start + bs]
                try:
                    loss, grads = loss_and_gradients(config, params, xs[idx], ys[idx])
                except DIVERGENCE_ERRORS as exc:
                    raise with_context(exc, f"epoch {epoch}, batch start {start}") from exc
                sgd_step(params, grads, train_config.learning_rate)
                total += loss * idx.size
            trace.append(total / n)
    return params, trace


def evaluate_model(config: ModelConfig, params: ParameterSet, xs, ys):
    """Mean predictive NLL and RMSE over a dataset (standardized space),
    checked as a batch (`_batch`), so the pass runs the layers directly."""
    xs, ys = _batch(config, xs, ys)
    with single_thread_blas():
        mean, cov = _run_layers(config, params, xs)
    pm, pv = objective._predictive_batch(mean, moments._variances(cov), config.head)
    return {
        "nll": float(np.mean(objective._gaussian_nll(pm, pv, ys))),
        "rmse": objective.rmse(pm, ys),
        "pred_mean": pm,
        "pred_var": pv,
    }
