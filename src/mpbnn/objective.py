"""Training objective and evaluation metrics for the regression heads.

The two-output head models p(y | h) = N(y | h1, e^{h2}) with h Gaussian
at the network output.  Its expected log-density has the closed form

    E[log N(y | h1, e^{h2})] = -1/2 * ( log 2π + E[h2]
        + (Σ11 + (E[h1] - Σ12 - y)²) / exp(E[h2] - Σ22/2) )

which is what `expected_log_likelihood` returns (diag mode sets Σ12 = 0).
The one-output head trains on the epistemic-only Gaussian log-density
log N(y | E[h1], Σ11 + floor).

Test-time NLL uses a moment-matched Gaussian predictive: the exact
marginal of y has no closed form, so its mean E[h1] and total variance
Σ11 + exp(E[h2] + Σ22/2) (law of total variance; e^{h2} is log-normal)
define the reported density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import FULL, MomentError, MomentVector
from .network import HEAD_HETEROSCEDASTIC, HEAD_HOMOSCEDASTIC

LOG_2PI = math.log(2.0 * math.pi)

# Applied wherever a variance is inverted or logged; Σ11 can be exactly 0.
VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class PredictiveMoments:
    """Moment-matched Gaussian predictive for one input."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (self.variance >= VARIANCE_FLOOR):
            raise MomentError(f"predictive variance {self.variance} below floor")


def _head_parts(mean, cov, mode):
    """Split batched 2-output head moments into scalars (Σ12 = 0 in diag)."""
    m1 = mean[:, 0]
    m2 = mean[:, 1]
    if mode == FULL:
        s11 = cov[:, 0, 0]
        s12 = cov[:, 0, 1]
        s22 = cov[:, 1, 1]
    else:
        s11 = cov[:, 0]
        s12 = np.zeros_like(s11)
        s22 = cov[:, 1]
    return m1, m2, s11, s12, s22


# ---------------------------------------------------------------------------
# Batched objective kernels (forward + reverse-mode backward).
# ---------------------------------------------------------------------------


def _ell2_fwd(mean, cov, y, mode):
    m1, m2, s11, s12, s22 = _head_parts(mean, cov, mode)
    resid = m1 - s12 - y
    inv_scale = np.exp(0.5 * s22 - m2)
    quad = s11 + resid * resid
    ell = -0.5 * (LOG_2PI + m2 + quad * inv_scale)
    if not np.isfinite(ell).all():
        raise FloatingPointError("non-finite expected log-likelihood")
    return ell, (resid, inv_scale, quad, mode, mean.shape)


def _ell2_bwd(ctx, g_ell):
    resid, inv_scale, quad, mode, shape = ctx
    batch = shape[0]
    g_mean = np.empty(shape)
    g_mean[:, 0] = g_ell * (-resid * inv_scale)
    g_mean[:, 1] = g_ell * (-0.5 * (1.0 - quad * inv_scale))
    d_s11 = g_ell * (-0.5 * inv_scale)
    d_s12 = g_ell * (resid * inv_scale)
    d_s22 = g_ell * (-0.25 * quad * inv_scale)
    if mode == FULL:
        # Symmetric adjoint: ∂/∂Σ12 splits evenly over the two entries.
        g_cov = np.empty((batch, 2, 2))
        g_cov[:, 0, 0] = d_s11
        g_cov[:, 0, 1] = g_cov[:, 1, 0] = 0.5 * d_s12
        g_cov[:, 1, 1] = d_s22
    else:
        g_cov = np.stack([d_s11, d_s22], axis=1)
    return g_mean, g_cov


def _ell1_fwd(mean, cov, y, mode):
    m1 = mean[:, 0]
    s11 = cov[:, 0, 0] if mode == FULL else cov[:, 0]
    var = s11 + VARIANCE_FLOOR
    resid = y - m1
    ell = -0.5 * (LOG_2PI + np.log(var) + resid * resid / var)
    if not np.isfinite(ell).all():
        raise FloatingPointError("non-finite expected log-likelihood (1-output)")
    return ell, (resid, var, mode, mean.shape)


def _ell1_bwd(ctx, g_ell):
    resid, var, mode, shape = ctx
    batch = shape[0]
    g_mean = np.zeros(shape)
    g_mean[:, 0] = g_ell * (resid / var)
    d_s11 = g_ell * (-0.5 * (1.0 / var - resid * resid / (var * var)))
    if mode == FULL:
        g_cov = np.zeros((batch, 1, 1))
        g_cov[:, 0, 0] = d_s11
    else:
        g_cov = d_s11[:, None]
    return g_mean, g_cov


def _predictive_batch(mean, cov, head, mode):
    """Batched moment-matched predictive (means, variances)."""
    if head == HEAD_HETEROSCEDASTIC:
        m1, m2, s11, _, s22 = _head_parts(mean, cov, mode)
        var = s11 + np.exp(m2 + 0.5 * s22)
    else:
        m1 = mean[:, 0]
        s11 = cov[:, 0, 0] if mode == FULL else cov[:, 0]
        var = s11 + VARIANCE_FLOOR
    return m1, np.maximum(var, VARIANCE_FLOOR)


# ---------------------------------------------------------------------------
# Public single-example API.
# ---------------------------------------------------------------------------


def _check_head(head_mv: MomentVector, dim: int, op: str):
    if head_mv.dim != dim:
        raise MomentError(f"{op} expects a {dim}-output head, got dim {head_mv.dim}")


def expected_log_likelihood(head_mv: MomentVector, y: float) -> float:
    """Closed-form E[log N(y | h1, e^{h2})] for a 2-output Gaussian head."""
    _check_head(head_mv, 2, "expected_log_likelihood")
    ell, _ = _ell2_fwd(head_mv.mean[None], head_mv.cov[None], np.array([y]), head_mv.mode)
    return float(ell[0])


def expected_log_likelihood_1out(head_mv: MomentVector, y: float) -> float:
    """Gaussian log-density log N(y | E[h1], Σ11 + floor): epistemic variance only."""
    _check_head(head_mv, 1, "expected_log_likelihood_1out")
    ell, _ = _ell1_fwd(head_mv.mean[None], head_mv.cov[None], np.array([y]), head_mv.mode)
    return float(ell[0])


def predictive_moments(head_mv: MomentVector, head_type: str) -> PredictiveMoments:
    """Moment-matched Gaussian predictive from the head moments."""
    if head_type == HEAD_HETEROSCEDASTIC:
        _check_head(head_mv, 2, "predictive_moments")
    elif head_type == HEAD_HOMOSCEDASTIC:
        _check_head(head_mv, 1, "predictive_moments")
    else:
        raise MomentError(f"unknown head type {head_type!r}")
    m, v = _predictive_batch(head_mv.mean[None], head_mv.cov[None], head_type, head_mv.mode)
    return PredictiveMoments(float(m[0]), float(v[0]))


def nll_metric(pm: PredictiveMoments, y: float) -> float:
    """Negative Gaussian log-density of y under the predictive."""
    if not pm.variance > 0.0:
        raise MomentError("predictive variance must be positive")
    resid = y - pm.mean
    return 0.5 * (LOG_2PI + math.log(pm.variance) + resid * resid / pm.variance)


def rmse(preds, ys) -> float:
    """Root-mean-squared error of the predictive means."""
    preds = np.asarray(preds, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if preds.shape != ys.shape:
        raise MomentError(f"length mismatch: {preds.shape} vs {ys.shape}")
    return float(np.sqrt(np.mean((preds - ys) ** 2)))
