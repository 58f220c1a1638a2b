"""Monte-Carlo reference for the analytic moment formulas and the objective.

Brute-force sampling with the same layer semantics as the analytic path:
dense applies the affine map to each draw, dropout masks with iid Bernoulli
gates, the gated activation masks with per-unit rates computed once from
the *input statistics* (never from the realized draws, which is what makes
the gates independent of the input by construction), and the rectifier
clips at zero.  Used as a test oracle only, never for inference.

Stream order.  Draw k of unit j is entry (k, j) of
`rng.standard_normal((samples, n))`, and a dropout or gate mask, drawn
after all the normals, reads entry (k, j) of `rng.random((samples, n))`.
Every random number comes from one block stream, `_blocks`, whose iterator
yields these streams in turn as (block, n) arrays of `_BLOCK` samples.
Consecutive blocks are the same stream as one call, so a seed gives the
same sample in any blocking or draw layout.

Helper thread.  While the caller consumes block k, `_blocks` draws block
k+1 on a helper thread, with block k+2 queued behind it, each into its own
buffer: numpy's generator fills run without the GIL.  The helper belongs
to one stream.  `_blocks` opens it as a one-thread executor when the
caller enters the stream's `with` block (one per masked layer in
`mc_network_moments`); while the stream is open, only the helper touches
the generator, and leaving the `with` joins the helper, whether the call
returns or raises.  No thread outlives a call.

Streamed estimates.  Draws are unit-major, (n, block), so every per-unit
broadcast runs along a contiguous row.  `mc_layer_moments` and
`mc_expected_ll` sum each block as it arrives, about the first output
draw, in one running-sum estimator, `_Sums` (the objective's
log-likelihoods are its one row).  A dense or rectifier call holds only
blocks.  A dropout or gate call keeps its (n, samples) input draws,
because its mask uniforms follow all the normals; it masks them in place
and sums them block by block as the uniforms arrive.  `sample_input` and
`mc_network_moments` build the whole draw matrix (a network draws each
gating layer's masks after the layer below it has run) and sum it with the
same running sums.

Shared normals.  `draw_normals(samples, n, seed)` draws a seed's normals
once and keeps the generator state after them.  `mc_layer_moments` takes
that `Normals` object in place of the seed and gives the bits of the seed,
so calls with one seed can share one draw.  `checks.layer_oracle` does so:
the calls of one case that share a seed share its normals.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .moments import FULL, MomentError, MomentVector, VAR_CLAMP, _gate_rates
from .network import _FWD, DENSE, DROPOUT, MP_GELU, RELU, LayerSpec


@dataclass(frozen=True)
class McEstimate:
    """Empirical moments with standard errors (delta-method for covariances).

    The estimates are centered on the first draw, so a unit whose draws
    are all equal gets exactly that value as its mean and exactly zero
    covariance and standard errors, whatever order numpy sums in.
    """

    mean: np.ndarray
    cov: np.ndarray
    standard_error_mean: np.ndarray
    standard_error_cov: np.ndarray
    samples: int

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("need at least 2 samples")


@dataclass(frozen=True)
class Normals:
    """A seed's standard normals, (samples, n) in stream order, and the
    state of its generator after them (see `draw_normals`)."""

    z: np.ndarray
    state: dict


# Samples per block of the random streams.  The (block, n) buffers stay in
# cache, and a dense or rectifier call allocates no (samples, n) array: at
# 10⁵ × 4 draws that array's fresh pages cost about 1500 page faults
# (~6 ms) per call.
_BLOCK = 8192


def _check_samples(samples: int):
    if samples < 1000:
        raise ValueError(f"samples must be >= 1000, got {samples}")


@contextlib.contextmanager
def _blocks(fills, samples: int, n: int, given=()):
    """The blocks of one stream, as an iterator for a `with` block: the
    `given` blocks, then (block, n) arrays of `samples` rows from each fill
    in turn (a bound `standard_normal` or `random` of one generator), in
    stream order.  A yielded block stays valid until the next one is
    requested.

    A one-thread executor draws the fills' blocks.  The first two are
    submitted on entry, and each later one when the caller takes the block
    two before it, so the helper always has the next block queued.  Exit
    joins the helper."""
    jobs = [(fill, k) for fill in fills for k in range(0, samples, _BLOCK)]
    bufs = np.empty((3, min(samples, _BLOCK), n))

    def draw(i):
        fill, k = jobs[i]
        return fill(out=bufs[i % 3, :samples - k])

    def drawn(pool, pending):
        for i in range(len(jobs)):
            block = pending.popleft().result()
            if i + 2 < len(jobs):
                pending.append(pool.submit(draw, i + 2))
            yield block

    with ThreadPoolExecutor(1) as pool:
        pending = collections.deque(pool.submit(draw, i) for i in range(min(2, len(jobs))))
        yield itertools.chain(given, drawn(pool, pending))


def _stream(seed, samples: int, n: int, masked: bool):
    """The `_blocks` of one call: the normals, then with `masked` the mask
    uniforms.  `seed` is a seed or the `Normals` it draws."""
    if isinstance(seed, Normals):
        if seed.z.shape != (samples, n):
            raise ValueError(f"normals of shape {seed.z.shape}, need {(samples, n)}")
        rng = np.random.default_rng()  # its fresh state is replaced at once
        rng.bit_generator.state = seed.state
        given = (seed.z[k:k + _BLOCK] for k in range(0, samples, _BLOCK))
        return _blocks([rng.random] if masked else [], samples, n, given)
    rng = np.random.default_rng(seed)
    fills = [rng.standard_normal, rng.random] if masked else [rng.standard_normal]
    return _blocks(fills, samples, n)


def draw_normals(samples: int, n: int, seed) -> Normals:
    """The standard normals that `mc_layer_moments` draws first for `seed`
    at `samples` × `n`, drawn once so that calls with one seed can share
    them; they are read-only."""
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((samples, n))
    z.flags.writeable = False
    return Normals(z, rng.bit_generator.state)


def _affine(mv: MomentVector):
    """The map from (block, n) standard normals to unit-major (n, block)
    Gaussian draws with the MomentVector's moments, written into `out`.

    Full covariances are factorized by eigendecomposition.  Eigenvalues
    down to -1e-10 × max(1, largest eigenvalue) are roundoff and clamp to
    zero; anything lower is a hard error.
    """
    if mv.mode == FULL:
        evals, evecs = np.linalg.eigh(np.asarray(mv.cov))
        if np.any(evals < VAR_CLAMP * max(1.0, evals.max())):
            raise MomentError(f"input covariance not PSD (min eigenvalue {evals.min():.3e})")
        factor = evecs * np.sqrt(np.maximum(evals, 0.0))
    else:
        sd = np.sqrt(np.asarray(mv.cov))[:, None]
    mean = mv.mean[:, None]

    def draws(z, out):
        if mv.mode == FULL:
            np.matmul(factor, z.T, out=out)
        else:
            np.multiply(z.T, sd, out=out)
        out += mean
        return out

    return draws


def sample_input(mv: MomentVector, samples: int, rng) -> np.ndarray:
    """Draw (samples, n) Gaussians with the MomentVector's moments, in the
    stream order of one (samples, n) standard-normal call: a transposed
    view of unit-major draws."""
    _check_samples(samples)
    affine = _affine(mv)
    draws = np.empty((mv.dim, samples))
    with _blocks([rng.standard_normal], samples, mv.dim) as blocks:
        for k, z in zip(range(0, samples, _BLOCK), blocks):
            affine(z, draws[:, k:k + _BLOCK])
    return draws.T


class _Sums:
    """Running sums of unit-major (n, block) draws x, taken about the first
    draw x₀: the deviations c = x − x₀ summed, and the Gram of the stacked
    [c; c∘c], one GEMM per block.  A unit whose draws all equal x₀ has
    c = 0 exactly, so its estimates come out exact (see `McEstimate`)."""

    def __init__(self, n: int, samples: int):
        self.stack = np.empty((2 * n, min(samples, _BLOCK)))
        self.twin = np.empty_like(self.stack)
        self.gram = np.zeros((2 * n, 2 * n))
        self.total = np.zeros(n)
        self.samples = 0
        self.shift = None

    def add(self, x):
        n, width = x.shape
        if self.shift is None:
            self.shift = x[:, :1].copy()
        for k in range(0, width, _BLOCK):
            block = x[:, k:k + _BLOCK]
            stack = self.stack[:, :block.shape[1]]
            c = np.subtract(block, self.shift, out=stack[:n])
            np.multiply(c, c, out=stack[n:])
            self.total += c.sum(axis=1)
            # numpy runs `stack @ stack.T` as a SYRK, which OpenBLAS takes
            # about twice as long over at 2n = 8 rows as the GEMM against a
            # copy, copy included.
            twin = self.twin[:, :block.shape[1]]
            np.copyto(twin, stack)
            self.gram += stack @ twin.T
            self.samples += block.shape[1]

    def estimate(self) -> McEstimate:
        s, n = self.samples, len(self.total)
        m = self.total / s  # the mean deviation from the first draw
        g = 0.5 * (self.gram + self.gram.T)  # exactly symmetric whatever the GEMM
        a, b, d = g[:n, :n], g[:n, n:], g[n:, n:]
        mm = np.outer(m, m)
        gram = a - s * mm  # Σ (c_i − m_i)(c_j − m_j)
        cov = gram / (s - 1)
        se_mean = np.sqrt(np.maximum(np.diagonal(cov), 0.0) / s)
        # Var[(c_i c_j)] / s via second moments of the products about the
        # mean: Σ (c_i − m_i)²(c_j − m_j)² from the raw sums, with
        # b_ij = Σ c_i c_j² and q = Σ c².
        q, m2 = np.diagonal(a), m * m
        fourth = d - 2.0 * (b * m[:, None] + b.T * m)
        fourth += np.outer(q, m2) + np.outer(m2, q)
        fourth += 4.0 * mm * a - 3.0 * s * mm * mm
        first = gram / s
        var_prod = np.maximum(fourth / s - first * first, 0.0)
        se_cov = np.sqrt(var_prod / s)
        return McEstimate(self.shift[:, 0] + m, cov, se_mean, se_cov, s)


def _dense_map(w, b):
    def dense(x, u):
        out = w @ x
        out += b[:, None]
        return out

    return dense, False


def _mask_map(keep, n: int):
    """A dropout or gate layer's map: a draw of unit j is kept where its
    uniform is below `keep` (or keep[j])."""
    # A C-ordered mask: one from `u.T` alone would be F-ordered, and
    # multiplying the C-ordered draws by it would read it across its rows.
    mask = np.empty((n, _BLOCK), bool)

    def masked(x, u):
        keeps = np.less(u.T, keep, out=mask[:, :x.shape[1]])
        return np.multiply(x, keeps, out=x)

    return masked, True


# Sampling rule per layer kind, looked up when called (see `network._FWD`):
# (layer, mean, cov, (w, b) or None) -> (map, whether it reads mask uniforms).
# The map takes unit-major (n, width) draws and, for a masking layer, a
# (width, n) block of uniforms, and works in place where the shapes allow.
# `mean` and `cov`, the input's analytic moments as a batch of one, give
# the gated activation's rates.
_SAMPLE = {
    DENSE: lambda layer, mean, cov, wb: _dense_map(*wb),
    DROPOUT: lambda layer, mean, cov, wb: _mask_map(1.0 - layer.rate, mean.shape[1]),
    MP_GELU: lambda layer, mean, cov, wb: _mask_map(
        (1.0 - _gate_rates(mean, cov, "mc oracle")[0][0])[:, None], mean.shape[1]),
    RELU: lambda layer, mean, cov, wb: (lambda x, u: np.maximum(x, 0.0, out=x), False),
}


def _sample_layer(layer: LayerSpec, mean, cov, wb):
    """The layer's `_SAMPLE` rule applied; a kind without one is an error."""
    if layer.kind not in _SAMPLE:
        raise ValueError(f"unknown layer kind {layer.kind!r}")
    return _SAMPLE[layer.kind](layer, mean, cov, wb)


def mc_layer_moments(
    layer: LayerSpec,
    mv: MomentVector,
    samples: int,
    seed,
    weights=None,
    bias=None,
) -> McEstimate:
    """Empirical output moments of one layer applied to Gaussian draws.
    `seed` is a seed or the `Normals` that `draw_normals` gives for it."""
    _check_samples(samples)
    wb = None
    if layer.kind == DENSE:
        if weights is None or bias is None:
            raise ValueError("dense layer needs weights and bias")
        wb = (np.asarray(weights), np.asarray(bias))
    apply, masked = _sample_layer(layer, mv.mean[None], mv.variances[None], wb)
    affine = _affine(mv)
    n = mv.dim
    sums = _Sums(n if wb is None else len(wb[1]), samples)
    with _stream(seed, samples, n, masked) as blocks:
        if masked:
            # The uniforms follow all the normals: keep the input draws.
            draws = np.empty((n, samples))
            starts = range(0, samples, _BLOCK)
            for k, z in zip(starts, blocks):
                affine(z, draws[:, k:k + _BLOCK])
            for k, u in zip(starts, blocks):
                sums.add(apply(draws[:, k:k + _BLOCK], u))
        else:
            buf = np.empty((n, min(samples, _BLOCK)))
            for z in blocks:
                sums.add(apply(affine(z, buf[:, :len(z)]), None))
    return sums.estimate()


def mc_expected_ll(head_mv: MomentVector, y: float, samples: int, seed):
    """MC estimate (value, standard error) of E[log N(y | h1, e^{h2})].

    The draws' log-likelihoods are summed per block as one row of `_Sums`,
    so zero-spread draws (a zero head covariance) give the exact value and
    a standard error of exactly 0.
    """
    if head_mv.dim != 2:
        raise MomentError("mc_expected_ll expects a 2-output head")
    _check_samples(samples)
    affine = _affine(head_mv)
    buf = np.empty((4, min(samples, _BLOCK)))
    sums = _Sums(1, samples)
    with _stream(seed, samples, 2, False) as blocks:
        for z in blocks:
            width = len(z)
            h1, h2 = affine(z, buf[:2, :width])
            vals, scale = buf[2, :width], buf[3, :width]
            np.subtract(y, h1, out=vals)
            np.square(vals, out=vals)
            np.negative(h2, out=scale)
            vals *= np.exp(scale, out=scale)
            vals += np.add(h2, np.log(2.0 * np.pi), out=scale)
            vals *= -0.5
            sums.add(vals[None])
    est = sums.estimate()
    return float(est.mean[0]), float(est.standard_error_mean[0])


def mc_network_moments(config, params, x, samples: int, seed) -> McEstimate:
    """Sampled forward pass through a whole model (test support).

    Mirrors the analytic pass layer by layer: each gating layer draws fresh
    masks, and the gated activation's rates come from the *analytic* moments
    of its input at that depth.
    """
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    draws = np.repeat(x[:, None], samples, axis=1)
    mode = config.covariance_mode
    mean = x[None].copy()
    cov = np.zeros_like(mean)  # per-unit variances, as in `forward_batch`
    dense_i = 0
    for layer in config.layers:
        wb = None
        if layer.kind == DENSE:
            wb = (params.weights[dense_i], params.biases[dense_i])
            dense_i += 1
        apply, masked = _sample_layer(layer, mean, cov, wb)
        if masked:
            with _blocks([rng.random], samples, len(draws)) as uniforms:
                for k, u in zip(range(0, samples, _BLOCK), uniforms):
                    apply(draws[:, k:k + _BLOCK], u)
        else:
            draws = apply(draws, None)
        mean, cov, _ = _FWD[layer.kind](layer, mean, cov, wb, mode)
    sums = _Sums(len(draws), samples)
    sums.add(draws)
    return sums.estimate()
