"""Analytic first- and second-moment propagation for Gaussian activations.

Each layer maps an input random vector h with known mean and covariance to
the exact (or documented-approximate) mean and covariance of its output,
so a full network pass needs no sampling.  Two covariance representations
are supported: a dense symmetric matrix ("full") and a per-unit variance
vector ("diag").  The representation is fixed per model run; mixing modes
in one operation is an error.

Network inputs are deterministic, and dropout and the gated activations
keep a covariance diagonal, so a full-mode pass carries per-unit variances
up to its first dense layer, which expands them to W diag(v) Wᵀ.  Only the
dense kernel reads the mode; every other kernel picks its formula from the
covariance's shape.

The public operations work on single examples wrapped in `MomentVector`.
Internally every formula is implemented once, in batched kernels operating
on arrays with a leading batch axis; training and the experiment runner
call the kernels directly for speed.

Buffer rule: the full-mode (B, n, n) and (B, m, n) kernel outputs come from
`_empty`.  Outside a training step that is plain `np.empty`, so
`forward_batch`, the public operations and the MC oracle never return pooled
memory.  Inside a step (`_open_step` ... `_close_step`, opened only by
`training.loss_and_gradients`) `_empty` lends a buffer from a per-thread
pool that outlives the step, so a warm step allocates and page-faults
nothing; every lent buffer returns to the pool when the step closes, and
`_release` returns one earlier once nothing reads it any more.  The pool
holds, for the life of its thread, about the memory of the largest step
that thread ran.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

FULL = "full"
DIAG = "diag"
MODES = (FULL, DIAG)

# Gate rates switch to the deterministic-sign limit below this input std.
SIGMA_FLOOR = 1e-12
# Computed variances in (VAR_CLAMP, 0) are symmetrization/roundoff noise and
# clamp to 0; anything more negative is a genuine bug and raises.
VAR_CLAMP = -1e-10
# Symmetry tolerance for full covariance matrices (relative).
SYM_RTOL = 1e-9

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class MomentError(ValueError):
    """A moment-propagation contract violation (shape, domain, or mode)."""


@dataclass
class FunctionCounters:
    """Tally of scalar transcendental evaluations in forward propagation.

    Counts reflect the inference path only (backward passes do not count).
    Plain ints on a process-global object: instrumentation, not thread-safe.
    """

    erf: int = 0
    exp: int = 0
    sqrt: int = 0

    def reset(self) -> None:
        self.erf = 0
        self.exp = 0
        self.sqrt = 0

    def snapshot(self) -> dict:
        return {"erf": self.erf, "exp": self.exp, "sqrt": self.sqrt}

    def total(self) -> int:
        return self.erf + self.exp + self.sqrt


counters = FunctionCounters()


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    counters.erf += x.size
    return ndtr(x)


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    counters.exp += x.size
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def _counted_sqrt(x: np.ndarray) -> np.ndarray:
    counters.sqrt += x.size
    return np.sqrt(x)


def _clamp_variances(var: np.ndarray, where: str) -> np.ndarray:
    """Zero out tiny negative variances; raise on anything worse.

    One `min` decides the common case.  NaN entries stay NaN and -0.0 is not
    negative; the minimum is NaN when any entry is, so then the raise looks
    at every entry."""
    worst = var.min() if var.size else 0.0
    if worst >= 0.0:
        return var
    if worst < VAR_CLAMP or (worst != worst and np.any(var < VAR_CLAMP)):
        raise MomentError(f"negative variance {float(worst):.3e} in {where}")
    return np.where(var < 0.0, 0.0, var)


def _clamp_diag_inplace(cov: np.ndarray, where: str) -> np.ndarray:
    d = np.einsum("...ii->...i", cov)
    clamped = _clamp_variances(d, where)
    if clamped is not d:
        d[...] = clamped
    return cov


@dataclass(frozen=True)
class MomentVector:
    """Mean vector plus covariance of one activation random vector.

    `cov` is an (n, n) symmetric matrix in full mode or a length-n variance
    vector in diag mode.  Arrays are copied and frozen on construction, so
    instances are immutable and safe to share across threads.
    """

    mean: np.ndarray
    cov: np.ndarray
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise MomentError(f"unknown covariance mode {self.mode!r}")
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size == 0:
            raise MomentError("mean must be a non-empty 1-d vector")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise MomentError("non-finite entries in moments")
        n = mean.size
        if self.mode == FULL:
            if cov.shape != (n, n):
                raise MomentError(f"full covariance must be ({n}, {n}), got {cov.shape}")
            scale = max(1.0, float(np.max(np.abs(cov))))
            if np.max(np.abs(cov - cov.T)) > SYM_RTOL * scale:
                raise MomentError("full covariance is not symmetric")
            cov = cov.copy()
            _clamp_diag_inplace(cov, "MomentVector")
        else:
            if cov.shape != (n,):
                raise MomentError(f"diag covariance must be ({n},), got {cov.shape}")
            cov = _clamp_variances(cov.copy(), "MomentVector")
        mean = mean.copy()
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def variances(self) -> np.ndarray:
        """Per-unit variances in either mode."""
        if self.mode == FULL:
            return np.diagonal(self.cov)
        return self.cov


@dataclass(frozen=True)
class GateRates:
    """Per-unit drop probabilities for a gated activation."""

    rates: np.ndarray

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        if rates.ndim != 1:
            raise MomentError("rates must be a 1-d vector")
        if np.any(rates < 0.0) or np.any(rates > 1.0):
            raise MomentError("rates must lie in [0, 1]")
        rates = rates.copy()
        rates.flags.writeable = False
        object.__setattr__(self, "rates", rates)


class _StepPool(threading.local):
    """The calling thread's full-mode step buffers, kept across steps."""

    def __init__(self):
        self.spare = {}  # trailing shape -> buffers free to lend
        self.lent = None  # id -> buffer lent in the open step; None outside


_pool = _StepPool()


def _open_step() -> None:
    _pool.lent = {}


def _close_step() -> None:
    """Return every buffer lent in the step to the pool."""
    for buf in _pool.lent.values():
        _pool.spare.setdefault(buf.shape[1:], []).append(buf)
    _pool.lent = None


def _empty(shape) -> np.ndarray:
    """`np.empty(shape)`, or inside a step a `[:B]` view of a pooled buffer
    with the same trailing shape and at least B rows."""
    lent = _pool.lent
    if lent is None:
        return np.empty(shape)
    rows = shape[0]
    free = _pool.spare.get(shape[1:])
    buf = free.pop() if free else None
    if buf is None or buf.shape[0] < rows:
        buf = np.empty(shape)  # a too-small spare is dropped, not kept
    lent[id(buf)] = buf
    return buf[:rows]


def _release(arr: np.ndarray) -> None:
    """Return the buffer behind `arr` before the step closes; nothing reads
    `arr` afterwards.  A no-op for memory the step did not lend."""
    lent = _pool.lent
    if lent is not None:
        buf = lent.pop(id(arr.base), None)
        if buf is not None:
            _pool.spare.setdefault(buf.shape[1:], []).append(buf)


# ---------------------------------------------------------------------------
# Batched kernels.  mean: (B, n); cov: (B, n, n) in full mode, (B, n) in diag
# mode and in full mode below the first dense layer.
# Each returns (out_mean, out_cov, ctx); ctx carries what backward needs.
# ---------------------------------------------------------------------------


def _dense_fwd(mean, cov, w, b, mode):
    out_mean = mean @ w.T + b
    if mode == FULL:
        # W Σ Wᵀ as (W Σ) Wᵀ, the second product one flat GEMM; W Σ is kept
        # for the backward pass.  A diagonal Σ = diag(v) gives W Σ = W ∘ v.
        m, n = w.shape
        batch = mean.shape[0]
        wsig = _empty((batch, m, n))
        if cov.ndim == 2:
            np.multiply(w, cov[:, None, :], out=wsig)
        else:
            np.matmul(w, cov, out=wsig)
        out_cov = _empty((batch, m, m))
        np.matmul(wsig.reshape(-1, n), w.T, out=out_cov.reshape(-1, m))
        _clamp_diag_inplace(out_cov, "dense_propagate")
        return out_mean, out_cov, (mean, w, wsig)
    out_cov = cov @ (w * w).T
    out_cov = _clamp_variances(out_cov, "dense_propagate")
    return out_mean, out_cov, (mean, w, cov)


def _scale_offdiag(cov, gain, diag, out):
    """Writes gain_i gain_j cov_ij off the diagonal and `diag` on it into
    `out`, which may be `cov`; used by the gates and their adjoints."""
    np.multiply(cov, gain[:, :, None], out=out)
    out *= gain[:, None, :]
    np.einsum("bii->bi", out)[...] = diag
    return out


def _dropout_fwd(mean, cov, rate, mode):
    p = float(rate)
    q = 1.0 - p
    out_mean = q * mean
    if cov.ndim == 3:
        var = np.einsum("bii->bi", cov)
        out_cov = np.multiply(cov, q * q, out=_empty(cov.shape))
        np.einsum("bii->bi", out_cov)[...] = q * var + p * q * mean * mean
    else:
        out_cov = q * cov + p * q * mean * mean
    return out_mean, out_cov, (mean, p)


def _gate_rates(mean, var, where):
    """Drop probability Φ(−μ/σ) per unit, with the σ→0 sign limit.

    Returns (p, sigma, deterministic_mask)."""
    var = _clamp_variances(var, where)
    sigma = _counted_sqrt(var)
    det = sigma < SIGMA_FLOOR
    safe_sigma = np.where(det, 1.0, sigma)
    p = _norm_cdf(-mean / safe_sigma)
    if det.any():
        limit = np.where(mean > 0.0, 0.0, np.where(mean < 0.0, 1.0, 0.5))
        p = np.where(det, limit, p)
    return p, sigma, det


def _mp_gelu_fwd(mean, cov, mode):
    var = np.einsum("bii->bi", cov) if cov.ndim == 3 else cov
    p, sigma, det = _gate_rates(mean, var, "mp_gelu_propagate")
    q = 1.0 - p
    out_mean = q * mean
    out_var = q * var + p * q * mean * mean
    if cov.ndim == 3:
        out_cov = _scale_offdiag(cov, q, out_var, _empty(cov.shape))
    else:
        out_cov = out_var
    return out_mean, out_cov, (mean, var, cov, p, q, sigma, det)


def _relu_fwd(mean, cov, mode):
    var = np.einsum("bii->bi", cov) if cov.ndim == 3 else cov
    var = _clamp_variances(var, "relu_propagate")
    sigma = _counted_sqrt(var)
    det = sigma < SIGMA_FLOOR
    safe_sigma = np.where(det, 1.0, sigma)
    alpha = mean / safe_sigma
    cdf = _norm_cdf(alpha)
    pdf = _norm_pdf(alpha)
    if det.any():
        step = np.where(mean > 0.0, 1.0, np.where(mean < 0.0, 0.0, 0.5))
        cdf = np.where(det, step, cdf)
        pdf = np.where(det, 0.0, pdf)
    out_mean = mean * cdf + sigma * pdf
    second = (mean * mean + var) * cdf + mean * sigma * pdf
    out_var = _clamp_variances(second - out_mean * out_mean, "relu_propagate")
    if det.any():
        # The linearization the off-diagonals use: a zero variance next to
        # gain·gain·Σ_ij off the diagonal would not be PSD.
        out_mean = np.where(det, np.maximum(mean, 0.0), out_mean)
        out_var = np.where(det, cdf * cdf * var, out_var)
    if cov.ndim == 3:
        out_cov = _scale_offdiag(cov, cdf, out_var, _empty(cov.shape))
    else:
        out_cov = out_var
    return out_mean, out_cov, (mean, var, cov, sigma, det, cdf, pdf, out_mean)


def _zero_cov(batch, n, mode):
    if mode == FULL:
        return np.zeros((batch, n, n))
    return np.zeros((batch, n))


# ---------------------------------------------------------------------------
# Public single-example operations.
# ---------------------------------------------------------------------------


def lift_deterministic(x, mode: str = FULL) -> MomentVector:
    """Wrap a deterministic feature vector as a zero-covariance MomentVector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise MomentError("input must be a non-empty 1-d vector")
    if not np.all(np.isfinite(x)):
        raise MomentError("non-finite entries in input vector")
    if mode not in MODES:
        raise MomentError(f"unknown covariance mode {mode!r}")
    return MomentVector(x, _zero_cov(1, x.size, mode)[0], mode)


def dense_propagate(mv: MomentVector, weights, bias) -> MomentVector:
    """Affine map W h + b: mean' = W μ + b, Cov' = W Σ Wᵀ.

    Diag mode keeps only var'_k = Σ_j W_kj² var_j (off-diagonals of the
    exact result are discarded by the representation).
    """
    w = np.asarray(weights, dtype=float)
    b = np.asarray(bias, dtype=float)
    if w.ndim != 2 or w.shape[1] != mv.dim:
        raise MomentError(f"weight shape {w.shape} does not accept input of dim {mv.dim}")
    if b.shape != (w.shape[0],):
        raise MomentError(f"bias shape {b.shape} does not match output dim {w.shape[0]}")
    out_mean, out_cov, _ = _dense_fwd(mv.mean[None], mv.cov[None], w, b, mv.mode)
    return MomentVector(out_mean[0], out_cov[0], mv.mode)


def dropout_propagate(mv: MomentVector, rate: float) -> MomentVector:
    """Bernoulli gating h' = diag(ε) h with shared keep probability 1 − rate.

    No inverted-dropout rescaling: the raw gated product is propagated, so
    mean'_i = (1−p) μ_i, var'_i = (1−p) var_i + p (1−p) μ_i², and full-mode
    off-diagonals scale by (1−p)².
    """
    if not (0.0 <= rate <= 1.0):
        raise MomentError(f"dropout rate {rate} outside [0, 1]")
    out_mean, out_cov, _ = _dropout_fwd(mv.mean[None], mv.cov[None], rate, mv.mode)
    return MomentVector(out_mean[0], out_cov[0], mv.mode)


def mp_gelu_rates(mv: MomentVector) -> GateRates:
    """Per-unit drop probability Φ(−μ_i/σ_i) from the input statistics.

    For σ_i below 1e-12 the deterministic limit applies: 1 for negative
    mean, 0 for positive, 0.5 at exactly zero.
    """
    p, _, _ = _gate_rates(mv.mean[None], np.atleast_2d(mv.variances), "mp_gelu_rates")
    return GateRates(p[0])


def mp_gelu_propagate(mv: MomentVector) -> MomentVector:
    """Gated activation with data-dependent rates p_i = Φ(−μ_i/σ_i).

    The gates are Bernoulli(1 − p_i), independent of the realized input
    (they depend only on its statistics), so with q_i = 1 − p_i:
    mean'_i = q_i μ_i, var'_i = q_i var_i + p_i q_i μ_i², and full-mode
    Cov'_ij = q_i q_j Cov_ij for i ≠ j.
    """
    out_mean, out_cov, _ = _mp_gelu_fwd(mv.mean[None], mv.cov[None], mv.mode)
    return MomentVector(out_mean[0], out_cov[0], mv.mode)


def relu_propagate(mv: MomentVector) -> MomentVector:
    """Rectifier moments, exact per unit, first-order across units.

    With α_i = μ_i/σ_i: mean'_i = μ_i Φ(α_i) + σ_i φ(α_i) and
    E[r_i²] = (μ_i² + var_i) Φ(α_i) + μ_i σ_i φ(α_i); var' follows.  σ_i below
    1e-12 degenerates to max(0, μ_i) with the first-order variance
    step(μ_i)² var_i, zero at σ_i = 0.  Full-mode off-diagonals
    use the first-order gain product Cov'_ij = Φ(α_i) Φ(α_j) Cov_ij, which
    is exact to first order in Cov_ij.
    """
    out_mean, out_cov, _ = _relu_fwd(mv.mean[None], mv.cov[None], mv.mode)
    return MomentVector(out_mean[0], out_cov[0], mv.mode)
