"""Monte-Carlo reference for the analytic moment formulas and the objective.

Brute-force sampling with the same layer semantics as the analytic path:
dense applies the affine map to each draw, dropout masks with iid Bernoulli
gates, the gated activation masks with per-unit rates computed once from
the *input statistics* (never from the realized draws, which is what makes
the gates independent of the input by construction), and the rectifier
clips at zero.  Used as a test oracle only, never for inference.

The draws are held unit-major: a C-contiguous (n, samples) array, so every
per-unit broadcast and the mean over the draws run along one contiguous
row per unit.  The stream order is that of a (samples, n) layout: draw k of
unit j is entry (k, j) of `rng.standard_normal((samples, n))`, and a
dropout or gate mask reads entry (k, j) of `rng.random((samples, n))`.  The
same seed gives the same sample as a sample-major oracle.  Both streams are
drawn in blocks of `_BLOCK` samples into one small (block, n) buffer and
written through its transpose into the unit-major array; consecutive
blocks are the same stream as one call.

Each call works in place on the one draw matrix it owns: `_draws` returns
fresh memory, and `_sample_layer` and `_empirical` consume their draws.
Each in-place step is the IEEE operation of the out-of-place form.
"""

from __future__ import annotations

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


# Samples per block of the random streams.  The one (block, n) buffer stays
# in cache, and no call allocates a (samples, n) array: at 10⁵ × 4 draws
# that array's fresh pages cost about 1500 page faults (~6 ms) per call.
_BLOCK = 8192


def _check_samples(samples: int):
    if samples < 1000:
        raise ValueError(f"samples must be >= 1000, got {samples}")


def _draws(mv: MomentVector, samples: int, rng) -> np.ndarray:
    """(n, samples) Gaussian draws with the MomentVector's moments, in the
    stream order of one (samples, n) standard-normal call.

    Full covariances are factorized by eigendecomposition.  Eigenvalues
    down to -1e-10 × max(1, largest eigenvalue) are roundoff and clamp to
    zero; anything lower is a hard error.
    """
    _check_samples(samples)
    n = mv.dim
    if mv.mode == FULL:
        evals, evecs = np.linalg.eigh(np.asarray(mv.cov))
        if np.any(evals < VAR_CLAMP * max(1.0, evals.max())):
            raise MomentError(f"input covariance not PSD (min eigenvalue {evals.min():.3e})")
        factor = evecs * np.sqrt(np.maximum(evals, 0.0))
    else:
        sd = np.sqrt(np.asarray(mv.cov))[:, None]
    mean = mv.mean[:, None]
    draws = np.empty((n, samples))
    z = np.empty((min(samples, _BLOCK), n))
    for k in range(0, samples, _BLOCK):
        zt = rng.standard_normal(out=z[:samples - k]).T
        block = draws[:, k:k + _BLOCK]
        if mv.mode == FULL:
            np.matmul(factor, zt, out=block)
        else:
            np.multiply(zt, sd, out=block)
        block += mean
    return draws


def sample_input(mv: MomentVector, samples: int, rng) -> np.ndarray:
    """Draw (samples, n) Gaussians with the MomentVector's moments: a
    transposed view of the oracle's unit-major draws (see `_draws`)."""
    return _draws(mv, samples, rng).T


def _empirical(draws: np.ndarray) -> McEstimate:
    s = draws.shape[1]
    # Deviations from a draw are exactly 0 on zero-spread rows; deviations
    # from the mean are not, because the mean of equal values can round.
    shift = draws[:, 0].copy()
    centered = np.subtract(draws, shift[:, None], out=draws)
    offset = centered.mean(axis=1)
    mean = shift + offset
    centered -= offset[:, None]
    gram = centered @ centered.T
    cov = gram / (s - 1)
    se_mean = np.sqrt(np.diagonal(cov) / s)
    # Var[(c_i c_j)] / s via second moments of the centered products.
    sq = np.multiply(centered, centered, out=centered)
    second = sq @ sq.T / s
    first = gram / s
    var_prod = np.maximum(second - first * first, 0.0)
    se_cov = np.sqrt(var_prod / s)
    return McEstimate(mean, cov, se_mean, se_cov, s)


def _keep_mask(rng, draws, keep):
    """Mask of the unit-major `draws`: uniforms in the stream order of one
    (samples, n) call, below the per-unit `keep`."""
    n, samples = draws.shape
    mask = np.empty(draws.shape, bool)
    u = np.empty((min(samples, _BLOCK), n))
    for k in range(0, samples, _BLOCK):
        np.less(rng.random(out=u[:samples - k]).T, keep, out=mask[:, k:k + _BLOCK])
    return mask


def _sample_layer(layer: LayerSpec, draws, rng, mean, cov, wb):
    """One layer applied to the unit-major (n, samples) `draws`.  `mean` and
    `cov`, the analytic moments of the layer's input as a batch of one, give
    the gated activation's rates; `wb` is a dense layer's (weights, bias)."""
    if layer.kind == DENSE:
        w, b = wb
        out = w @ draws
        out += b[:, None]
        return out
    if layer.kind == DROPOUT:
        keep = _keep_mask(rng, draws, 1.0 - layer.rate)
        return np.multiply(draws, keep, out=draws)
    if layer.kind == MP_GELU:
        rates, _, _, _ = _gate_rates(mean, cov, "mc oracle")
        keep = _keep_mask(rng, draws, (1.0 - rates[0])[:, None])
        return np.multiply(draws, keep, out=draws)
    if layer.kind == RELU:
        return np.maximum(draws, 0.0, out=draws)
    raise ValueError(f"unknown layer kind {layer.kind!r}")


def mc_layer_moments(
    layer: LayerSpec,
    mv: MomentVector,
    samples: int,
    seed,
    weights=None,
    bias=None,
) -> McEstimate:
    """Empirical output moments of one layer applied to Gaussian draws."""
    rng = np.random.default_rng(seed)
    draws = _draws(mv, samples, rng)
    wb = None
    if layer.kind == DENSE:
        if weights is None or bias is None:
            raise ValueError("dense layer needs weights and bias")
        wb = (np.asarray(weights), np.asarray(bias))
    return _empirical(_sample_layer(layer, draws, rng, mv.mean[None], mv.variances[None], wb))


def mc_expected_ll(head_mv: MomentVector, y: float, samples: int, seed):
    """MC estimate (value, standard error) of E[log N(y | h1, e^{h2})].

    Both are computed from the deviations of the draws' log-likelihoods
    from the first one, so zero-spread draws (a zero head covariance) give
    the exact value and a standard error of exactly 0.
    """
    if head_mv.dim != 2:
        raise MomentError("mc_expected_ll expects a 2-output head")
    rng = np.random.default_rng(seed)
    h1, h2 = _draws(head_mv, samples, rng)
    vals = np.subtract(y, h1)
    np.square(vals, out=vals)
    scale = np.negative(h2)
    vals *= np.exp(scale, out=scale)
    vals += np.add(h2, np.log(2.0 * np.pi), out=scale)
    vals *= -0.5
    first = vals[0]
    vals -= first  # the deviations from the first draw
    est = float(first + vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(samples))
    return est, se


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
        draws = _sample_layer(layer, draws, rng, mean, cov, wb)
        mean, cov, _ = _FWD[layer.kind](layer, mean, cov, wb, mode)
    return _empirical(draws)
