"""Monte-Carlo reference for the analytic moment formulas and the objective.

Brute-force sampling with the same layer semantics as the analytic path:
dense applies the affine map to each draw, dropout masks with iid Bernoulli
gates, the gated activation masks with per-unit rates computed once from
the *input statistics* (never from the realized draws, which is what makes
the gates independent of the input by construction), and the rectifier
clips at zero.  Used as a test oracle only, never for inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moments import FULL, MomentError, MomentVector, VAR_CLAMP, mp_gelu_rates
from .network import DENSE, DROPOUT, MP_GELU, RELU, LayerSpec


@dataclass(frozen=True)
class McEstimate:
    """Empirical moments with standard errors (delta-method for covariances).

    The estimates are centered on the first draw, so a column whose draws
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


def sample_input(mv: MomentVector, samples: int, rng) -> np.ndarray:
    """Draw (samples, n) Gaussians with the MomentVector's moments.

    Full covariances are factorized by eigendecomposition; eigenvalues in
    (-1e-10, 0) clamp to zero, anything lower is a hard error.
    """
    if mv.mode == FULL:
        evals, evecs = np.linalg.eigh(np.asarray(mv.cov))
        if np.any(evals < VAR_CLAMP):
            raise MomentError(f"input covariance not PSD (min eigenvalue {evals.min():.3e})")
        evals = np.maximum(evals, 0.0)
        factor = evecs * np.sqrt(evals)
        z = rng.standard_normal((samples, mv.dim))
        return mv.mean + z @ factor.T
    z = rng.standard_normal((samples, mv.dim))
    return mv.mean + z * np.sqrt(np.asarray(mv.cov))


def _empirical(draws: np.ndarray) -> McEstimate:
    s = draws.shape[0]
    # Deviations from a draw are exactly 0 on zero-spread columns; deviations
    # from the mean are not, because the mean of equal values can round.
    shift = draws[0]
    centered = draws - shift
    offset = centered.mean(axis=0)
    mean = shift + offset
    centered -= offset
    gram = centered.T @ centered
    cov = gram / (s - 1)
    se_mean = np.sqrt(np.diagonal(cov) / s)
    # Var[(c_i c_j)] / s via second moments of the centered products.
    sq = centered * centered
    second = sq.T @ sq / s
    first = gram / s
    var_prod = np.maximum(second - first * first, 0.0)
    se_cov = np.sqrt(var_prod / s)
    return McEstimate(mean, cov, se_mean, se_cov, s)


def mc_layer_moments(
    layer: LayerSpec,
    mv: MomentVector,
    samples: int,
    seed,
    weights=None,
    bias=None,
) -> McEstimate:
    """Empirical output moments of one layer applied to Gaussian draws."""
    if samples < 1000:
        raise ValueError(f"samples must be >= 1000, got {samples}")
    rng = np.random.default_rng(seed)
    draws = sample_input(mv, samples, rng)
    if layer.kind == DENSE:
        if weights is None or bias is None:
            raise ValueError("dense layer needs weights and bias")
        out = draws @ np.asarray(weights).T + np.asarray(bias)
    elif layer.kind == DROPOUT:
        keep = rng.random(draws.shape) < (1.0 - layer.rate)
        out = draws * keep
    elif layer.kind == MP_GELU:
        rates = mp_gelu_rates(mv).rates
        keep = rng.random(draws.shape) < (1.0 - rates)
        out = draws * keep
    elif layer.kind == RELU:
        out = np.maximum(draws, 0.0)
    else:
        raise ValueError(f"unknown layer kind {layer.kind!r}")
    return _empirical(out)


def mc_expected_ll(head_mv: MomentVector, y: float, samples: int, seed):
    """MC estimate (value, standard error) of E[log N(y | h1, e^{h2})].

    Both are computed from the deviations of the draws' log-likelihoods
    from the first one, so zero-spread draws (a zero head covariance) give
    the exact value and a standard error of exactly 0.
    """
    if head_mv.dim != 2:
        raise MomentError("mc_expected_ll expects a 2-output head")
    rng = np.random.default_rng(seed)
    draws = sample_input(head_mv, samples, rng)
    h1 = draws[:, 0]
    h2 = draws[:, 1]
    vals = -0.5 * (np.log(2.0 * np.pi) + h2 + (y - h1) ** 2 * np.exp(-h2))
    dev = vals - vals[0]
    est = float(vals[0] + dev.mean())
    se = float(dev.std(ddof=1) / np.sqrt(samples))
    return est, se


def mc_network_moments(config, params, x, samples: int, seed) -> McEstimate:
    """Sampled forward pass through a whole model (test support).

    Mirrors the analytic pass layer by layer: each gating layer draws fresh
    masks, and the gated activation's rates come from the *analytic* moments
    of its input at that depth.
    """
    from .network import forward_batch
    from . import moments as _m

    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    draws = np.tile(x, (samples, 1))
    mode = config.covariance_mode
    mean = x[None].copy()
    cov = _m._zero_cov(1, x.size, mode)
    dense_i = 0
    for layer in config.layers:
        if layer.kind == DENSE:
            w, b = params.weights[dense_i], params.biases[dense_i]
            draws = draws @ w.T + b
            mean, cov, _ = _m._dense_fwd(mean, cov, w, b, mode)
            dense_i += 1
        elif layer.kind == DROPOUT:
            keep = rng.random(draws.shape) < (1.0 - layer.rate)
            draws = draws * keep
            mean, cov, _ = _m._dropout_fwd(mean, cov, layer.rate, mode)
        elif layer.kind == MP_GELU:
            var = np.einsum("bii->bi", cov) if mode == FULL else cov
            rates, _, _ = _m._gate_rates(mean, var, "mc oracle")
            keep = rng.random(draws.shape) < (1.0 - rates[0])
            draws = draws * keep
            mean, cov, _ = _m._mp_gelu_fwd(mean, cov, mode)
        else:
            draws = np.maximum(draws, 0.0)
            mean, cov, _ = _m._relu_fwd(mean, cov, mode)
    return _empirical(draws)
