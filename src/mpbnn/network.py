"""Model assembly: layer sequences, parameters, and the forward moment pass.

Two fixed architectures are provided.  The gated-activation network keeps a
single dropout layer up front (the sole variance source, since raw inputs
are deterministic); the rectifier network interleaves dropout before every
dense layer:

    gated:     Dropout, Dense(Q→w), MPGELU, Dense(w→w), MPGELU, Dense(w→out)
    rectifier: Dropout, Dense(Q→w), ReLU, Dropout, Dense(w→w), ReLU,
               Dropout, Dense(w→out)

The output head is either two units (predictive mean plus log-variance) or
one unit (mean only).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import moments
from .moments import FULL, MODES, MomentError, MomentVector

DENSE = "dense"
DROPOUT = "dropout"
MP_GELU = "mp_gelu"
RELU = "relu"

HEAD_HETEROSCEDASTIC = "heteroscedastic2"
HEAD_HOMOSCEDASTIC = "homoscedastic1"
HEAD_DIMS = {HEAD_HETEROSCEDASTIC: 2, HEAD_HOMOSCEDASTIC: 1}

ARCH_MP_GELU = "mp_gelu"
ARCH_RELU = "relu"


@dataclass(frozen=True)
class LayerSpec:
    """One layer: dense (with dims), dropout (with rate), or an activation."""

    kind: str
    in_dim: int = 0
    out_dim: int = 0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in (DENSE, DROPOUT, MP_GELU, RELU):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == DENSE and (self.in_dim < 1 or self.out_dim < 1):
            raise ValueError(f"dense dims must be >= 1, got {self.in_dim}->{self.out_dim}")
        if self.kind == DROPOUT and not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"dropout rate {self.rate} outside [0, 1]")


def dense(in_dim: int, out_dim: int) -> LayerSpec:
    return LayerSpec(DENSE, in_dim=in_dim, out_dim=out_dim)


def dropout(rate: float) -> LayerSpec:
    return LayerSpec(DROPOUT, rate=rate)


@dataclass(frozen=True)
class ModelConfig:
    """Ordered layer list plus covariance mode and output-head type."""

    layers: tuple
    covariance_mode: str
    head: str
    hidden_width: int = 20

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.covariance_mode not in MODES:
            raise ValueError(f"unknown covariance mode {self.covariance_mode!r}")
        if self.head not in HEAD_DIMS:
            raise ValueError(f"unknown head type {self.head!r}")
        width = None
        last_dense = None
        for layer in self.layers:
            if layer.kind == DENSE:
                if width is not None and layer.in_dim != width:
                    raise ValueError(
                        f"dense in_dim {layer.in_dim} does not chain from width {width}"
                    )
                width = layer.out_dim
                last_dense = layer
        if last_dense is None:
            raise ValueError("model must contain at least one dense layer")
        if last_dense.out_dim != HEAD_DIMS[self.head]:
            raise ValueError(
                f"head {self.head!r} needs final dense out {HEAD_DIMS[self.head]}, "
                f"got {last_dense.out_dim}"
            )

    @property
    def input_dim(self) -> int:
        for layer in self.layers:
            if layer.kind == DENSE:
                return layer.in_dim
        raise ValueError("no dense layer")

    @property
    def head_dim(self) -> int:
        return HEAD_DIMS[self.head]

    @property
    def dense_shapes(self) -> list:
        return [(l.out_dim, l.in_dim) for l in self.layers if l.kind == DENSE]


@dataclass
class ParameterSet:
    """Dense weights/biases with paired gradient accumulators."""

    weights: list
    biases: list
    grad_weights: list = field(default_factory=list)
    grad_biases: list = field(default_factory=list)

    def __post_init__(self):
        if not self.grad_weights:
            self.grad_weights = [np.zeros_like(w) for w in self.weights]
        if not self.grad_biases:
            self.grad_biases = [np.zeros_like(b) for b in self.biases]
        for w, b, gw, gb in zip(self.weights, self.biases, self.grad_weights, self.grad_biases):
            if gw.shape != w.shape or gb.shape != b.shape:
                raise ValueError("gradient shapes must mirror parameter shapes")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("non-finite parameter entries")

    def copy(self) -> "ParameterSet":
        return ParameterSet(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            [g.copy() for g in self.grad_weights],
            [g.copy() for g in self.grad_biases],
        )


def _validate_build_args(input_dim, width, dropout_rate):
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if not (0.0 <= dropout_rate <= 1.0):
        raise ValueError(f"dropout rate {dropout_rate} outside [0, 1]")


def build_mp_gelu_model(
    input_dim: int,
    width: int = 20,
    dropout_rate: float = 0.05,
    mode: str = FULL,
    head: str = HEAD_HETEROSCEDASTIC,
) -> ModelConfig:
    """Gated-activation network: one leading dropout, two gated hidden layers."""
    _validate_build_args(input_dim, width, dropout_rate)
    layers = (
        dropout(dropout_rate),
        dense(input_dim, width),
        LayerSpec(MP_GELU),
        dense(width, width),
        LayerSpec(MP_GELU),
        dense(width, HEAD_DIMS[head]),
    )
    return ModelConfig(layers, mode, head, hidden_width=width)


def build_relu_model(
    input_dim: int,
    width: int = 20,
    dropout_rate: float = 0.05,
    mode: str = FULL,
    head: str = HEAD_HETEROSCEDASTIC,
) -> ModelConfig:
    """Rectifier network: dropout before each of the three dense layers."""
    _validate_build_args(input_dim, width, dropout_rate)
    layers = (
        dropout(dropout_rate),
        dense(input_dim, width),
        LayerSpec(RELU),
        dropout(dropout_rate),
        dense(width, width),
        LayerSpec(RELU),
        dropout(dropout_rate),
        dense(width, HEAD_DIMS[head]),
    )
    return ModelConfig(layers, mode, head, hidden_width=width)


def build_model(arch: str, input_dim: int, width: int = 20, dropout_rate: float = 0.05,
                mode: str = FULL, head: str = HEAD_HETEROSCEDASTIC) -> ModelConfig:
    if arch == ARCH_MP_GELU:
        return build_mp_gelu_model(input_dim, width, dropout_rate, mode, head)
    if arch == ARCH_RELU:
        return build_relu_model(input_dim, width, dropout_rate, mode, head)
    raise ValueError(f"unknown architecture {arch!r}")


def init_parameters(config: ModelConfig, seed) -> ParameterSet:
    """Fan-scaled uniform weights (±√(6/(fan_in+fan_out))), zero biases.

    Draws depend only on the dense-layer shape sequence, so two
    architectures sharing that sequence initialize identically per seed.
    """
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for out_dim, in_dim in config.dense_shapes:
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        weights.append(rng.uniform(-limit, limit, size=(out_dim, in_dim)))
        biases.append(np.zeros(out_dim))
    return ParameterSet(weights, biases)


def forward_batch(config: ModelConfig, params: ParameterSet, xs: np.ndarray):
    """Moment pass over a batch of deterministic inputs.

    xs: (B, Q).  Returns (means, covs) with shapes (B, h) and (B, h, h)
    in full mode or (B, h) in diag mode.  Internal fast path; the public
    per-example contract is `forward`.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != config.input_dim:
        raise MomentError(f"input batch must be (B, {config.input_dim}), got {xs.shape}")
    if not np.isfinite(xs).all():
        raise MomentError("non-finite entries in input batch")
    mode = config.covariance_mode
    mean = xs.copy()
    cov = np.zeros_like(mean)  # per-unit variances up to the first dense layer
    dense_i = 0
    for layer in config.layers:
        if layer.kind == DENSE:
            mean, cov, _ = moments._dense_fwd(
                mean, cov, params.weights[dense_i], params.biases[dense_i], mode
            )
            dense_i += 1
        elif layer.kind == DROPOUT:
            mean, cov, _ = moments._dropout_fwd(mean, cov, layer.rate, mode)
        elif layer.kind == MP_GELU:
            mean, cov, _ = moments._mp_gelu_fwd(mean, cov, mode)
        else:
            mean, cov, _ = moments._relu_fwd(mean, cov, mode)
    return mean, cov


def forward(config: ModelConfig, params: ParameterSet, x) -> MomentVector:
    """Propagate one feature vector to the head MomentVector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise MomentError(f"input must be a 1-d vector, got shape {x.shape}")
    mean, cov = forward_batch(config, params, x[None])
    return MomentVector(mean[0], cov[0], config.covariance_mode)


# ---------------------------------------------------------------------------
# Model persistence: one flat JSON document.
# Field names: covariance_mode, head, hidden_width, layers (list of
# {kind, in_dim, out_dim, rate}), weights / biases (row-major nested lists,
# one entry per dense layer in order).
# ---------------------------------------------------------------------------


def model_to_json(config: ModelConfig, params: ParameterSet) -> str:
    doc = {
        "covariance_mode": config.covariance_mode,
        "head": config.head,
        "hidden_width": config.hidden_width,
        "layers": [
            {"kind": l.kind, "in_dim": l.in_dim, "out_dim": l.out_dim, "rate": l.rate}
            for l in config.layers
        ],
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }
    return json.dumps(doc, indent=1)


def model_from_json(text: str):
    doc = json.loads(text)
    layers = tuple(
        LayerSpec(d["kind"], in_dim=d["in_dim"], out_dim=d["out_dim"], rate=d["rate"])
        for d in doc["layers"]
    )
    config = ModelConfig(layers, doc["covariance_mode"], doc["head"], doc["hidden_width"])
    params = ParameterSet(
        [np.asarray(w, dtype=float) for w in doc["weights"]],
        [np.asarray(b, dtype=float) for b in doc["biases"]],
    )
    expected = config.dense_shapes
    actual = [w.shape for w in params.weights]
    if actual != expected:
        raise ValueError(f"weight shapes {actual} do not match config {expected}")
    return config, params


def save_model(path, config: ModelConfig, params: ParameterSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(config, params))


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
