"""Model assembly: layer sequences, parameters, and the forward moment pass.

Two fixed architectures are provided.  The gated-activation network keeps a
single dropout layer up front (the sole variance source, since raw inputs
are deterministic); the rectifier network interleaves dropout before every
dense layer:

    gated:     Dropout, Dense(Q→w), MPGELU, Dense(w→w), MPGELU, Dense(w→out)
    rectifier: Dropout, Dense(Q→w), ReLU, Dropout, Dense(w→w), ReLU,
               Dropout, Dense(w→out)

The output head, the last layer, is a dense layer of either two units
(predictive mean plus log-variance) or one unit (mean only).

A layer kind is two kernels, forward in `moments` and backward in
`training`, plus one entry in each of `_FWD` below, `training._BWD` (dense,
the one kind with parameters, is the backward loop's own branch) and
`mc_oracle._SAMPLE`.  `LayerSpec` accepts exactly the kinds `_FWD` knows,
and `checks.layer_oracle` oracle-checks each kind `_FWD` holds when it runs.
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

# Forward rule per layer kind: (layer, mean, cov, (w, b) or None, mode) ->
# (mean, cov, ctx).  Each entry looks its kernel up on `moments` when called,
# so a kernel rebound there (by a tracer or a test) is the one that runs.
_FWD = {
    DENSE: lambda layer, mean, cov, wb, mode: moments._dense_fwd(mean, cov, *wb, mode),
    DROPOUT: lambda layer, mean, cov, wb, mode: moments._dropout_fwd(mean, cov, layer.rate, mode),
    MP_GELU: lambda layer, mean, cov, wb, mode: moments._mp_gelu_fwd(mean, cov, mode),
    RELU: lambda layer, mean, cov, wb, mode: moments._relu_fwd(mean, cov, mode),
}


@dataclass(frozen=True)
class LayerSpec:
    """One layer: dense (with dims), dropout (with rate), or an activation."""

    kind: str
    in_dim: int = 0
    out_dim: int = 0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in _FWD:
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
    """Ordered layer list plus covariance mode and output-head type.

    `input_dim`, the first dense layer's input width, is derived here once,
    not on every pass."""

    layers: tuple
    covariance_mode: str
    head: str
    input_dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.covariance_mode not in MODES:
            raise ValueError(f"unknown covariance mode {self.covariance_mode!r}")
        if self.head not in HEAD_DIMS:
            raise ValueError(f"unknown head type {self.head!r}")
        width = None
        for layer in self.layers:
            if layer.kind == DENSE:
                if width is None:
                    object.__setattr__(self, "input_dim", layer.in_dim)
                elif layer.in_dim != width:
                    raise ValueError(
                        f"dense in_dim {layer.in_dim} does not chain from width {width}"
                    )
                width = layer.out_dim
        if width is None:
            raise ValueError("model must contain at least one dense layer")
        if self.layers[-1].kind != DENSE:
            raise ValueError(f"the head must be the last layer, not {self.layers[-1].kind!r}")
        if width != HEAD_DIMS[self.head]:
            raise ValueError(
                f"head {self.head!r} needs final dense out {HEAD_DIMS[self.head]}, got {width}"
            )

    @property
    def dense_shapes(self) -> list:
        return [(l.out_dim, l.in_dim) for l in self.layers if l.kind == DENSE]


@dataclass
class ParameterSet:
    """Dense-layer weights and biases, in layer order."""

    weights: list
    biases: list

    def __post_init__(self):
        for w, b in zip(self.weights, self.biases):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("non-finite parameter entries")

    def copy(self) -> "ParameterSet":
        return ParameterSet([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def build_mp_gelu_model(
    input_dim: int,
    width: int = 20,
    dropout_rate: float = 0.05,
    mode: str = FULL,
    head: str = HEAD_HETEROSCEDASTIC,
) -> ModelConfig:
    """Gated-activation network: one leading dropout, two gated hidden layers."""
    layers = (
        dropout(dropout_rate),
        dense(input_dim, width),
        LayerSpec(MP_GELU),
        dense(width, width),
        LayerSpec(MP_GELU),
        dense(width, HEAD_DIMS[head]),
    )
    return ModelConfig(layers, mode, head)


def build_relu_model(
    input_dim: int,
    width: int = 20,
    dropout_rate: float = 0.05,
    mode: str = FULL,
    head: str = HEAD_HETEROSCEDASTIC,
) -> ModelConfig:
    """Rectifier network: dropout before each of the three dense layers."""
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
    return ModelConfig(layers, mode, head)


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


def _run_layers(config: ModelConfig, params: ParameterSet, xs: np.ndarray, tape=None,
                states=None, resume=None, stop=None):
    """The moment pass over a (B, Q) batch of deterministic inputs.

    The covariance starts as per-unit variances (see `moments`).  With a
    `tape` list, every layer from the first dense layer up appends
    (layer index, kind, index of the latest dense layer, ctx) for the
    backward pass; layers below it have no parameters and nothing above
    depends on their adjoints.  Also only then, and only in full mode (diag
    arrays are not pooled), each layer's input covariance goes back to the
    step's buffer pool at its last read (see `moments`): a dense layer's once
    the layer has run, since its context keeps the (m, n, B) W Σ of its
    forward pass instead (see `training`), and a dropout's before it runs,
    for its output to take over (`moments._pass_on`), since its context
    keeps none.  A gate's context keeps its input covariance, which goes
    back once its adjoint has run.  So no context may keep its own output
    covariance.  A full-mode covariance comes back batch-last.

    With a `states` list, the pass appends (layer index, dense index, mean,
    cov) before each dense layer, and from `resume`, one such state, it
    runs on bit for bit while no parameter below that layer changes (the
    kernels never write to their inputs).  States come from an untaped
    pass: a taped pass's pooled arrays are lent again once its step closes.
    The pass returns the input of layer index `stop` (None: the output).
    """
    mode = config.covariance_mode
    pooled = tape is not None and mode == FULL
    first, dense_i, mean, cov = resume or (0, 0, xs, np.zeros(xs.shape))
    for layer_i, layer in enumerate(config.layers[first:stop], first):
        kind = layer.kind
        wb = None
        if kind == DENSE:
            if states is not None:
                states.append((layer_i, dense_i, mean, cov))
            wb = (params.weights[dense_i], params.biases[dense_i])
            dense_i += 1
        elif pooled and kind == DROPOUT:
            moments._pass_on(cov)
        cov_in = cov
        mean, cov, ctx = _FWD[kind](layer, mean, cov, wb, mode)
        if tape is not None:
            if pooled and kind == DENSE:
                moments._release(cov_in)
            if dense_i:
                tape.append((layer_i, kind, dense_i - 1, ctx))
    return mean, cov


class _InputError(MomentError):
    """`forward_batch`'s rejection of its input, which `forward` words for
    the vector it was given."""


def forward_batch(config: ModelConfig, params: ParameterSet, xs: np.ndarray):
    """Moment pass over a batch of deterministic inputs.

    xs: (B, Q).  Returns (means, covs) with shapes (B, h) and (B, h, h)
    in full mode or (B, h) in diag mode.  Internal fast path; the public
    per-example contract is `forward`.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != config.input_dim:
        raise _InputError(f"input batch must be (B, {config.input_dim}), got {xs.shape}")
    if not moments._finite(xs):
        raise _InputError("non-finite entries in input batch")
    mean, cov = _run_layers(config, params, xs)
    return mean, (cov.transpose(2, 0, 1) if config.covariance_mode == FULL else cov)


def forward(config: ModelConfig, params: ParameterSet, x) -> MomentVector:
    """Propagate one feature vector to the head MomentVector.

    The vector is checked once, as `forward_batch`'s batch of one; a
    rejection is raised again in terms of the vector."""
    x = np.asarray(x, dtype=float)
    try:
        mean, cov = forward_batch(config, params, x[None])
    except _InputError:
        if x.shape != (config.input_dim,):
            raise MomentError(
                f"input must be a vector of {config.input_dim} features, got shape {x.shape}"
            ) from None
        raise MomentError("non-finite entries in input vector") from None
    return MomentVector(mean[0], cov[0], config.covariance_mode)


# ---------------------------------------------------------------------------
# Model persistence: one flat JSON document.
# Field names: covariance_mode, head, hidden_width (the first dense layer's
# width, for readers; not read back), layers (list of {kind, in_dim, out_dim,
# rate}), weights / biases (row-major nested lists, one per dense layer).
# ---------------------------------------------------------------------------


def model_to_json(config: ModelConfig, params: ParameterSet) -> str:
    doc = {
        "covariance_mode": config.covariance_mode,
        "head": config.head,
        "hidden_width": config.dense_shapes[0][0],
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
    config = ModelConfig(layers, doc["covariance_mode"], doc["head"])
    params = ParameterSet(
        [np.asarray(w, dtype=float) for w in doc["weights"]],
        [np.asarray(b, dtype=float) for b in doc["biases"]],
    )
    shapes = config.dense_shapes
    for what, arrays, expected in (("weight", params.weights, shapes),
                                   ("bias", params.biases, [(m,) for m, _ in shapes])):
        actual = [a.shape for a in arrays]
        if actual != expected:
            raise ValueError(f"{what} shapes {actual} do not match config {expected}")
    return config, params


def save_model(path, config: ModelConfig, params: ParameterSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(config, params))


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
