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

from . import moments
from .moments import FULL, MomentError, MomentVector
from .network import HEAD_DIMS, HEAD_HETEROSCEDASTIC

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
    """Split batched 2-output head moments, in the moment kernels' layout
    ((B, h) means, (h, h, B) or (B, h) covariances), into per-row vectors;
    Σ12 is the scalar 0.0 in diag mode."""
    if mode == FULL:
        return mean[:, 0], mean[:, 1], cov[0, 0], cov[0, 1], cov[1, 1]
    return mean[:, 0], mean[:, 1], cov[:, 0], 0.0, cov[:, 1]


def _bad_row(ell, mean, cov) -> str:
    """Where a non-finite log-likelihood first appears: its row and that
    row's head moments.  Built only when the kernel is about to raise."""
    row = int(np.flatnonzero(~np.isfinite(ell))[0])
    var = moments._variances(cov)[row]
    parts = [f"m{k + 1}={float(mean[row, k])!r}" for k in range(mean.shape[1])]
    parts += [f"s{k + 1}{k + 1}={float(var[k])!r}" for k in range(mean.shape[1])]
    return f" at row {row} ({', '.join(parts)})"


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
        raise FloatingPointError(
            "non-finite expected log-likelihood" + _bad_row(ell, mean, cov)
        )
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
        g_cov = np.empty((2, 2, batch))
        g_cov[0, 0] = d_s11
        g_cov[0, 1] = g_cov[1, 0] = 0.5 * d_s12
        g_cov[1, 1] = d_s22
    else:
        g_cov = np.stack([d_s11, d_s22], axis=1)
    return g_mean, g_cov


def _ell1_fwd(mean, cov, y, mode):
    m1 = mean[:, 0]
    s11 = moments._variances(cov)[:, 0]
    var = s11 + VARIANCE_FLOOR
    resid = y - m1
    ell = -0.5 * (LOG_2PI + np.log(var) + resid * resid / var)
    if not np.isfinite(ell).all():
        raise FloatingPointError(
            "non-finite expected log-likelihood (1-output)" + _bad_row(ell, mean, cov)
        )
    return ell, (resid, var, mode, mean.shape)


def _ell1_bwd(ctx, g_ell):
    resid, var, mode, shape = ctx
    g_mean = np.zeros(shape)
    g_mean[:, 0] = g_ell * (resid / var)
    d_s11 = g_ell * (-0.5 * (1.0 / var - resid * resid / (var * var)))
    g_cov = d_s11[None, None] if mode == FULL else d_s11[:, None]
    return g_mean, g_cov


def _predictive_var(s11, m2, s22, head):
    """Moment-matched predictive variance, before its floor, from the head's
    first variance and its last unit, the log-variance of a 2-output head:
    columns of a batch or one head's floats."""
    if head == HEAD_HETEROSCEDASTIC:
        return s11 + np.exp(m2 + 0.5 * s22)
    return s11 + VARIANCE_FLOOR


def _predictive_batch(mean, var, head):
    """Batched moment-matched predictive (means, variances) from the (B, h)
    means and per-unit variances of a batch of heads."""
    return mean[:, 0], np.maximum(_predictive_var(var[:, 0], mean[:, -1], var[:, -1], head),
                                  VARIANCE_FLOOR)


# ---------------------------------------------------------------------------
# Public single-example API.
# ---------------------------------------------------------------------------


def _check_head(head_mv: MomentVector, dim: int, op: str):
    if head_mv.dim != dim:
        raise MomentError(f"{op} expects a {dim}-output head, got dim {head_mv.dim}")


def expected_log_likelihood(head_mv: MomentVector, y: float) -> float:
    """Closed-form E[log N(y | h1, e^{h2})] for a 2-output Gaussian head."""
    _check_head(head_mv, 2, "expected_log_likelihood")
    ell, _ = _ell2_fwd(*moments._as_batch(head_mv), np.array([y]), head_mv.mode)
    return float(ell[0])


def expected_log_likelihood_1out(head_mv: MomentVector, y: float) -> float:
    """Gaussian log-density log N(y | E[h1], Σ11 + floor): epistemic variance only."""
    _check_head(head_mv, 1, "expected_log_likelihood_1out")
    ell, _ = _ell1_fwd(*moments._as_batch(head_mv), np.array([y]), head_mv.mode)
    return float(ell[0])


def predictive_moments(head_mv: MomentVector, head_type: str) -> PredictiveMoments:
    """Moment-matched Gaussian predictive from the head moments."""
    if head_type not in HEAD_DIMS:
        raise MomentError(f"unknown head type {head_type!r}")
    _check_head(head_mv, HEAD_DIMS[head_type], "predictive_moments")
    mean, var = head_mv.mean.tolist(), head_mv.variances.tolist()
    v = float(_predictive_var(var[0], mean[-1], var[-1], head_type))
    # The floor as `np.maximum` applies it in `_predictive_batch`, on floats:
    # `max` returns its first argument unless the second is larger, so a NaN
    # stays NaN and `PredictiveMoments` rejects it.
    return PredictiveMoments(mean[0], max(v, VARIANCE_FLOOR))


def _gaussian_nll(mean, var, y):
    """Negative log-density of y under N(mean, var), element-wise."""
    return 0.5 * (LOG_2PI + np.log(var) + (y - mean) ** 2 / var)


def nll_metric(pm: PredictiveMoments, y: float) -> float:
    """Negative Gaussian log-density of y under the predictive."""
    if not pm.variance > 0.0:
        raise MomentError("predictive variance must be positive")
    return float(_gaussian_nll(pm.mean, pm.variance, y))


def rmse(preds, ys) -> float:
    """Root-mean-squared error of the predictive means."""
    preds = np.asarray(preds, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if preds.shape != ys.shape:
        raise MomentError(f"length mismatch: {preds.shape} vs {ys.shape}")
    return float(np.sqrt(np.mean((preds - ys) ** 2)))
