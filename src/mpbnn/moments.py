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
dense kernel reads the mode.

The public operations work on single examples wrapped in `MomentVector`.
Internally every formula is implemented once, in batched kernels; training
and the experiment runner call the kernels directly for speed.

Layout rule: inside the kernels a mean is (B, n) and a diag-mode covariance
(B, n), but a full covariance is batch-last, a C-contiguous (n, n, B)
array.  Then W Σ is one flat GEMM over (n, n·B), (W Σ) Wᵀ is a matmul over
a leading axis of length m, and the gain scaling runs with B as the
contiguous inner axis.  One row (B = 1) is the exception: there that
matmul would be m matrix-vector calls, so W Σ and (W Σ) Wᵀ are one 2-D
GEMM each, on (m, n) and (m, m) views of the (·, ·, 1) arrays, and the
gain map works on the (n, n) view.  So a one-row batch rounds as one 2-D
GEMM, not as a row of a larger batch (within about 1e-14 relative of it);
every B > 1 batch keeps the batched products and their bits.

Dropout, the gate and the rectifier are gain layers: gain_i gain_j Σ_ij
off the diagonal, their own variances on it.  They read their input
variances with `_variances` (a contiguous (B, n) copy of the diagonal in
full mode, whatever B) and return their covariance through `_gained`, the
only places that look at the layout, so their per-unit formulas are the
same in both modes.
`_stack_rows` and `_rows` join and slice kernel arrays along the batch
axis.  `forward_batch` and the public operations keep the (B, n, n) and
(n, n) layouts of their callers.

Buffer rule: the full-mode kernel outputs and scratch arrays come from
`_empty`.  Outside a training step that is plain `np.empty`, so
`forward_batch`, the public operations and the MC oracle never return pooled
memory.  Inside a step (`_open_step` ... `_close_step`, opened only by
`training.loss_and_gradients`) `_empty` lends a buffer from a per-thread
pool that outlives the step, so a warm step allocates and page-faults
nothing.  The pool keeps flat buffers by the shape's leading axes and
lends the contiguous prefix of one that is at least as long, reshaped: a
batch-last array stays C-contiguous whatever its B, so the kernels' flat
reshapes stay views.  Every lent buffer returns to the pool when the step
closes at the latest; inside a full-mode step each goes back at its last
read, by `_release`, so a later array of its shape reuses it: a dense
layer's input once the layer has run and a gate's input once its adjoint
has (`network._run_layers`, `training.loss_and_gradients`), and inside
the dense adjoint W Σ once g_W is formed and the incoming adjoint once H
is (`training._dense_bwd`).  A dropout's input goes back as the layer
begins, by `_pass_on`, for the layer's output to take over.  The forward
kernels release nothing; their callers decide when an input is no longer
read.  The variances `_variances` copies stay valid after their
covariance goes back.  The pool holds, for the life of its thread, about
the memory of the largest step that thread ran: a width-20 step of either
architecture leaves four (20, 20, B) buffers in it.

Guard rule: the gate and the rectifier read their inputs through
`_gate_input`, which decides both the clamp of the variances and whether
any unit's σ is below `SIGMA_FLOOR` from their one minimum, taken by
`_least` (sqrt is monotone), and forms α = μ/σ with σ = 1 on such units.
In the common case there are none: the kernel runs its plain formulas and
puts `det = None` in its context; otherwise `det` is their mask and the
guarded formulas run.  Every adjoint accepts both, and gives the same bits
on the other units either way.
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

# Whole-array reductions, without the Python frame of `ndarray.min()` and
# friends: a tenth of their cost on a 20-unit row.
_min = np.minimum.reduce
_max = np.maximum.reduce


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


def _least(a: np.ndarray):
    """The smallest entry of `a`, NaN when any entry is, or 0.0 when it has
    none.  `argmin` stops at the first NaN and costs about half of
    `np.minimum.reduce` on a contiguous row or a 1-d view, but walks the
    strided (B, n) diagonal view of a batch-last covariance slower at large
    B, so there the reduction stays."""
    if not a.size:
        return 0.0
    if a.ndim == 1 or a.flags.c_contiguous:
        return a.flat[a.argmin()]
    return _min(a, axis=None)


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of `a` is finite.  a·a is NaN or inf when an entry
    is, or when finite entries overflow (which numpy warns of), so one dot
    product decides the common case and only a non-finite one looks at
    every entry."""
    flat = a.ravel()
    return math.isfinite(flat.dot(flat)) or bool(np.isfinite(flat).all())


def _clamp_variances(var: np.ndarray, where: str) -> np.ndarray:
    """Zero out tiny negative variances; raise on anything worse.

    One `_least` decides the common case.  NaN entries stay NaN and -0.0 is
    not negative; the minimum is NaN when any entry is, so then the raise
    looks at every entry."""
    worst = _least(var)
    if worst >= 0.0:
        return var
    if worst < VAR_CLAMP or (worst != worst and np.any(var < VAR_CLAMP)):
        raise MomentError(f"negative variance {float(worst):.3e} in {where}")
    return np.where(var < 0.0, 0.0, var)


def _floor_guard(var: np.ndarray, where: str):
    """A gate's input variances clamped, their square roots, and the mask
    of the units whose σ is below `SIGMA_FLOOR`, or None when there are none.

    One `_least` decides the common case: no negative or NaN variance and
    sqrt(min var) at or above the floor.  Anything else takes the
    element-wise path of `_clamp_variances`."""
    worst = _least(var)
    if worst >= 0.0 and math.sqrt(worst) >= SIGMA_FLOOR:
        return var, _counted_sqrt(var), None
    var = _clamp_variances(var, where)
    sigma = _counted_sqrt(var)
    det = sigma < SIGMA_FLOOR
    return var, sigma, (det if det.any() else None)


def _diag(a: np.ndarray, write: bool = False) -> np.ndarray:
    """View of the diagonals of the leading (n, n) axes of `a`, with any
    trailing batch axis first: (B, n) for a batch-last (n, n, B) covariance,
    (n,) for one matrix.  Read-only (numpy's `diagonal`, the cheapest), or
    with `write` a writable one.

    The writable view of a C-contiguous array is a strided view of its
    flattened matrices.  Any other array falls back to `einsum`: reshaping
    it would copy, and writes to the copy would be lost."""
    if not write:
        return a.diagonal(0, 0, 1)
    if a.flags.c_contiguous:
        n = a.shape[0]
        return a.reshape(n * n, *a.shape[2:])[:: n + 1].T
    return np.einsum("ii...->...i", a)


def _clamp_diag_inplace(cov: np.ndarray, where: str) -> np.ndarray:
    d = _diag(cov)
    clamped = _clamp_variances(d, where)
    if clamped is not d:
        _diag(cov, write=True)[...] = clamped
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
        mode = self.mode
        if mode not in MODES:
            raise MomentError(f"unknown covariance mode {mode!r}")
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size == 0:
            raise MomentError("mean must be a non-empty 1-d vector")
        n = mean.size
        # The common case from one reduction per array.  In full mode,
        # cov − covᵀ has a NaN or +inf wherever cov has a non-finite entry,
        # so a largest entry within SYM_RTOL (which the symmetry bound's
        # max(1, max |cov|) only widens) also says that cov is finite.
        # A finite a·a of a vector says that it is (see `_finite`).
        # Anything else takes `_check_moments`, which raises in order.
        if mode == FULL:
            ok = cov.shape == (n, n)
            if ok:
                asym = cov - cov.T
                ok = asym.flat[asym.argmax()] <= SYM_RTOL
        else:
            ok = cov.shape == (n,) and math.isfinite(cov.dot(cov))
        if not (ok and math.isfinite(mean.dot(mean))):
            _check_moments(mean, cov, mode)
        # The variances are finite now: only a negative one needs the clamp.
        cov = cov.copy()
        var = _diag(cov) if mode == FULL else cov
        if var[var.argmin()] < 0.0:
            if mode == FULL:
                _clamp_diag_inplace(cov, "MomentVector")
            else:
                cov = _clamp_variances(cov, "MomentVector")
        mean = mean.copy()
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def variances(self) -> np.ndarray:
        """Per-unit variances in either mode."""
        if self.mode == FULL:
            return _diag(self.cov)
        return self.cov


def _check_moments(mean, cov, mode):
    """`MomentVector`'s checks one by one: finiteness, then the shape, then
    the symmetry.  Raises at the first that fails."""
    # max |cov| is finite exactly when every entry is, and it is also the
    # symmetry check's scale.
    cov_max = float(_max(np.abs(cov), axis=None)) if cov.size else 0.0
    if not (_finite(mean) and math.isfinite(cov_max)):
        raise MomentError("non-finite entries in moments")
    n = mean.size
    if mode == FULL:
        if cov.shape != (n, n):
            raise MomentError(f"full covariance must be ({n}, {n}), got {cov.shape}")
        # cov − covᵀ is exactly antisymmetric, so its max is its max |·|.
        if _max(cov - cov.T, axis=None) > SYM_RTOL * max(1.0, cov_max):
            raise MomentError("full covariance is not symmetric")
    elif cov.shape != (n,):
        raise MomentError(f"diag covariance must be ({n},), got {cov.shape}")


@dataclass(frozen=True)
class GateRates:
    """Per-unit drop probabilities for a gated activation."""

    rates: np.ndarray

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        if rates.ndim != 1:
            raise MomentError("rates must be a 1-d vector")
        # Written so that NaN, which fails every comparison, is rejected too.
        if not np.all((rates >= 0.0) & (rates <= 1.0)):
            raise MomentError("rates must lie in [0, 1]")
        rates = rates.copy()
        rates.flags.writeable = False
        object.__setattr__(self, "rates", rates)


class _StepPool(threading.local):
    """The calling thread's full-mode step buffers, kept across steps."""

    def __init__(self):
        self.spare = {}  # leading shape -> flat buffers free to lend
        self.lent = None  # id -> (leading shape, buffer) lent in the open step


_pool = _StepPool()


def _open_step() -> None:
    _pool.lent = {}


def _close_step() -> None:
    """Return every buffer lent in the step to the pool."""
    for key, buf in _pool.lent.values():
        _pool.spare.setdefault(key, []).append(buf)
    _pool.lent = None


def _empty(shape) -> np.ndarray:
    """`np.empty(shape)`, or inside a step the contiguous prefix of a pooled
    flat buffer kept for the same leading shape, reshaped to `shape`."""
    lent = _pool.lent
    if lent is None:
        return np.empty(shape)
    key, size = shape[:-1], math.prod(shape)
    free = _pool.spare.get(key)
    buf = free.pop() if free else None
    if buf is None or buf.size < size:
        buf = np.empty(size)  # a too-small spare is dropped, not kept
    lent[id(buf)] = (key, buf)
    return buf[:size].reshape(shape)


def _release(arr: np.ndarray) -> None:
    """Return the buffer behind `arr` before the step closes; nothing reads
    `arr` afterwards.  A no-op for memory the step did not lend."""
    _pass_on(arr)


def _pass_on(arr: np.ndarray) -> None:
    """Put the buffer behind `arr` on top of its spare list, so that the next
    `_empty` of its leading shape lends it again: the layer about to read
    `arr` (a full-mode dropout) takes it for its output and writes that over
    `arr`, element for element.  Unlike `_release`, `arr` is still read
    afterwards, by that one layer.  A no-op for memory the step did not
    lend."""
    lent = _pool.lent
    if lent is not None:
        entry = lent.pop(id(arr.base), None)
        if entry is not None:
            _pool.spare.setdefault(entry[0], []).append(entry[1])


# ---------------------------------------------------------------------------
# Batched kernels.  mean: (B, n); cov: (n, n, B) in full mode, (B, n) in diag
# mode and in full mode below the first dense layer.
# Each returns (out_mean, out_cov, ctx); ctx carries what backward needs.
# ---------------------------------------------------------------------------


def _dense_fwd(mean, cov, w, b, mode):
    # `np.dot` rather than `@`: the same BLAS product with less per-call
    # dispatch, which is most of the cost on one row.
    out_mean = np.dot(mean, w.T) + b
    if mode == FULL:
        # W Σ Wᵀ as (W Σ) Wᵀ: W Σ is one flat GEMM over (n, n·B), or W ∘ v
        # for a diagonal Σ = diag(v); then m GEMMs of (m, n)(n, B).  One
        # row takes one 2-D GEMM for each product (see the layout rule).
        m, n = w.shape
        batch = mean.shape[0]
        wsig = _empty((m, n, batch))
        out_cov = _empty((m, m, batch))
        if batch == 1:
            wsig1 = wsig[..., 0]
            if cov.ndim == 2:
                np.multiply(w, cov, out=wsig1)
            else:
                np.dot(w, cov[..., 0], out=wsig1)
            np.dot(wsig1, w.T, out=out_cov[..., 0])
        else:
            if cov.ndim == 2:
                np.multiply(w[:, :, None], cov.T, out=wsig)
            else:
                np.dot(w, cov.reshape(n, n * batch), out=wsig.reshape(m, n * batch))
            np.matmul(w, wsig, out=out_cov)
        # One row's diagonal as a 1-d view, where `_least` takes the argmin.
        _clamp_diag_inplace(out_cov[..., 0] if batch == 1 else out_cov, "dense_propagate")
        # The adjoint reads W Σ, not Σ (see `training`).
        return out_mean, out_cov, (mean, w, wsig)
    out_cov = np.dot(cov, (w * w).T)
    out_cov = _clamp_variances(out_cov, "dense_propagate")
    return out_mean, out_cov, (mean, w, cov)


def _variances(cov) -> np.ndarray:
    """The (B, n) per-unit variances of a kernel covariance in either layout:
    a diag-mode covariance itself, or a contiguous copy of a batch-last
    diagonal, whose strided (B, n) view ufuncs walk at about half the speed
    of a contiguous array.  The copy also outlives the covariance's buffer
    (see the buffer rule)."""
    if cov.ndim != 3:
        return cov
    return _diag(cov).copy()


def _stack_rows(arrays) -> np.ndarray:
    """Kernel means, or covariances in either layout, joined along their
    batch axis: the last of an (n, n, B) covariance, else the first."""
    return np.concatenate(arrays, -1 if arrays[0].ndim == 3 else 0)


def _rows(a, rows) -> np.ndarray:
    """The batch rows `rows` (a slice) of a kernel mean or covariance."""
    return a[..., rows] if a.ndim == 3 else a[rows]


def _gained(cov, gain, var, out=None):
    """gain_i gain_j cov_ij off the diagonal and `var` on it, into `out` (new
    when None, or `cov` itself); in diag mode `var`.  `gain` is a scalar or
    (B, n).  The map is its own adjoint, so the adjoints use it too.  One
    row works on (n, n) views, which stay views whatever the strides of
    `out` (a flattening reshape could copy, and lose the writes)."""
    if cov.ndim != 3:
        return var
    out = _empty(cov.shape) if out is None else out
    if len(var) == 1:
        row = out[..., 0]
        if isinstance(gain, np.ndarray):
            gain = gain[0]
            np.multiply(cov[..., 0], gain[:, None], out=row)
            row *= gain
        else:
            np.multiply(cov[..., 0], gain * gain, out=row)
        row.flat[:: len(row) + 1] = var
        return out
    if isinstance(gain, np.ndarray):
        gain = np.ascontiguousarray(gain.T)
        np.multiply(cov, gain[:, None, :], out=out)
        out *= gain[None, :, :]
    else:
        np.multiply(cov, gain * gain, out=out)
    _diag(out, write=True)[...] = var
    return out


def _dropout_fwd(mean, cov, rate, mode):
    p = float(rate)
    q = 1.0 - p
    out_var = q * _variances(cov)
    out_var += p * q * mean * mean
    return q * mean, _gained(cov, q, out_var), (mean, p)


def _gate_input(mean, cov, where):
    """(var, sigma, det) of a gate's input as from `_floor_guard`, and
    alpha = μ/σ with σ taken as 1 on the `det` units."""
    var, sigma, det = _floor_guard(_variances(cov), where)
    alpha = mean / (sigma if det is None else np.where(det, 1.0, sigma))
    return var, sigma, det, alpha


def _gate_rates(mean, cov, where):
    """Drop probability Φ(−μ/σ) per unit, with the σ→0 sign limit; `cov` in
    either layout.  Returns (p, var, sigma, det) as from `_gate_input`."""
    var, sigma, det, alpha = _gate_input(mean, cov, where)
    p = _norm_cdf(-alpha)
    if det is not None:
        limit = np.where(mean > 0.0, 0.0, np.where(mean < 0.0, 1.0, 0.5))
        p = np.where(det, limit, p)
    return p, var, sigma, det


def _mp_gelu_fwd(mean, cov, mode):
    p, var, sigma, det = _gate_rates(mean, cov, "mp_gelu_propagate")
    q = 1.0 - p
    out_mean = q * mean
    out_var = q * var
    out_var += p * out_mean * mean
    return out_mean, _gained(cov, q, out_var), (mean, var, cov, p, q, sigma, det)


def _relu_fwd(mean, cov, mode):
    var, sigma, det, alpha = _gate_input(mean, cov, "relu_propagate")
    # Both tails of Φ(α) from one erf: lo = Φ(−|α|) is the small one and
    # keeps its relative precision; the other is 1 − lo.
    nabs = np.copysign(alpha, -1.0)
    lo = _norm_cdf(nabs)
    cdf = 1.0 - lo
    np.copyto(cdf, lo, where=alpha < 0.0)
    pdf = _norm_pdf(alpha)
    if det is not None:
        step = np.where(mean > 0.0, 1.0, np.where(mean < 0.0, 0.0, 0.5))
        cdf = np.where(det, step, cdf)
        pdf = np.where(det, 0.0, pdf)
    out_mean = mean * cdf + sigma * pdf
    # var' = var·(Φ + α²ΦΦc + αφ(Φc − Φ) − φ²), Φc = 1 − Φ, is E[r²] − mean'²
    # without its cancellation at large α.  Whatever the sign of α, the last
    # three terms are (−|α| lo + φ)(−|α| (1 − lo) − φ) = v (−|α| − v).
    v = nabs * lo + pdf
    out_var = var * (cdf + v * (nabs - v))
    out_var = _clamp_variances(out_var, "relu_propagate")
    if det is not None:
        # The linearization the off-diagonals use: a zero variance next to
        # gain·gain·Σ_ij off the diagonal would not be PSD.
        out_mean = np.where(det, np.maximum(mean, 0.0), out_mean)
        out_var = np.where(det, cdf * cdf * var, out_var)
    out_cov = _gained(cov, cdf, out_var)
    return out_mean, out_cov, (mean, var, cov, sigma, det, cdf, lo, pdf, out_mean)


# ---------------------------------------------------------------------------
# Public single-example operations.
# ---------------------------------------------------------------------------


def _as_batch(mv: MomentVector):
    """`mv` as a batch of one in the kernels' layout: (mean, cov)."""
    return mv.mean[None], (mv.cov[..., None] if mv.mode == FULL else mv.cov[None])


def _from_batch(out_mean, out_cov, mode: str) -> MomentVector:
    """The only row of a kernel's batched output."""
    return MomentVector(out_mean[0], out_cov[..., 0] if mode == FULL else out_cov[0], mode)


def lift_deterministic(x, mode: str = FULL) -> MomentVector:
    """Wrap a deterministic feature vector as a zero-covariance MomentVector.
    `MomentVector` checks the vector and the mode."""
    x = np.asarray(x, dtype=float)
    cov = np.zeros((x.size, x.size)) if mode == FULL else np.zeros(x.size)
    return MomentVector(x, cov, mode)


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
    out_mean, out_cov, _ = _dense_fwd(*_as_batch(mv), w, b, mv.mode)
    return _from_batch(out_mean, out_cov, mv.mode)


def dropout_propagate(mv: MomentVector, rate: float) -> MomentVector:
    """Bernoulli gating h' = diag(ε) h with shared keep probability 1 − rate.

    No inverted-dropout rescaling: the raw gated product is propagated, so
    mean'_i = (1−p) μ_i, var'_i = (1−p) var_i + p (1−p) μ_i², and full-mode
    off-diagonals scale by (1−p)².
    """
    if not (0.0 <= rate <= 1.0):
        raise MomentError(f"dropout rate {rate} outside [0, 1]")
    out_mean, out_cov, _ = _dropout_fwd(*_as_batch(mv), rate, mv.mode)
    return _from_batch(out_mean, out_cov, mv.mode)


def mp_gelu_rates(mv: MomentVector) -> GateRates:
    """Per-unit drop probability Φ(−μ_i/σ_i) from the input statistics.

    For σ_i below 1e-12 the deterministic limit applies: 1 for negative
    mean, 0 for positive, 0.5 at exactly zero.
    """
    p, _, _, _ = _gate_rates(*_as_batch(mv), "mp_gelu_rates")
    return GateRates(p[0])


def mp_gelu_propagate(mv: MomentVector) -> MomentVector:
    """Gated activation with data-dependent rates p_i = Φ(−μ_i/σ_i).

    The gates are Bernoulli(1 − p_i), independent of the realized input
    (they depend only on its statistics), so with q_i = 1 − p_i:
    mean'_i = q_i μ_i, var'_i = q_i var_i + p_i q_i μ_i², and full-mode
    Cov'_ij = q_i q_j Cov_ij for i ≠ j.
    """
    out_mean, out_cov, _ = _mp_gelu_fwd(*_as_batch(mv), mv.mode)
    return _from_batch(out_mean, out_cov, mv.mode)


def relu_propagate(mv: MomentVector) -> MomentVector:
    """Rectifier moments, exact per unit, first-order across units.

    With α_i = μ_i/σ_i: mean'_i = μ_i Φ(α_i) + σ_i φ(α_i) and
    var'_i = var_i (Φ + α_i² Φ Φc + α_i φ (Φc − Φ) − φ²), Φc = 1 − Φ(α_i), the
    form of E[r_i²] − mean'_i² that does not cancel at large α_i.  σ_i below
    1e-12 degenerates to max(0, μ_i) with the first-order variance
    step(μ_i)² var_i, zero at σ_i = 0.  Full-mode off-diagonals
    use the first-order gain product Cov'_ij = Φ(α_i) Φ(α_j) Cov_ij, which
    is exact to first order in Cov_ij.
    """
    out_mean, out_cov, _ = _relu_fwd(*_as_batch(mv), mv.mode)
    return _from_batch(out_mean, out_cov, mv.mode)
