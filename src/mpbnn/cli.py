"""Command-line experiment runner, microbenchmark, and self-check.

Subcommands:

  toy        train both architectures on the heteroscedastic toy problem
             and dump prediction-band CSVs over [-1, 1]
  uci        run the 20-split benchmark protocol (grid-searched dropout,
             standardized metrics, timed test pass) on one dataset
  benchmark  time single-example forward passes of matched architectures
             and report transcendental call counters
  check      run the MC-oracle and finite-difference self-check suites

All outputs are UTF-8 CSV (comma, '.' decimal, LF) or JSON, deterministic
given --seed except wall-clock timing fields.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import data, mc_oracle, moments, network, objective, training
from .moments import DIAG, FULL
from .network import (
    ARCH_MP_GELU,
    ARCH_RELU,
    HEAD_HETEROSCEDASTIC,
    HEAD_HOMOSCEDASTIC,
    LayerSpec,
)

HEAD_BY_FLAG = {"2": HEAD_HETEROSCEDASTIC, "1": HEAD_HOMOSCEDASTIC}

TOY_DEFAULTS = {"lr": 0.1, "epochs": 1000, "batch": 100, "dropout": 0.001}
UCI_DEFAULTS = {"lr": 0.001, "epochs": 500, "batch": 256}
TOY_TRAIN_ROWS = 100
TOY_GRID_POINTS = 200
TEST_PASS_REPETITIONS = 5  # timed passes of `_time_test_pass`, after one warmup
BENCH_WIDTHS = (20, 64, 256, 1024)
CASE_CORR = 0.45  # share of a random correlation in full-mode `_random_case` inputs


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, (str, int)) else _fmt(c) for c in row))
            fh.write("\n")
    return path


RESULT_CSV_HEADER = [
    "dataset", "n", "q", "nll_mean", "nll_se", "rmse_mean", "rmse_se", "runtime_s",
]


@dataclass
class ExperimentResult:
    """One dataset × architecture × configuration protocol run."""

    dataset: str
    n: int
    q: int
    arch: str
    covariance_mode: str
    head: str
    dropout_rate: float
    seed: int
    nll: list
    rmse: list
    runtime_s: float
    blas_pinned: bool  # see `training.blas_pinned`
    # Derived from `nll` and `rmse` in __post_init__.
    nll_mean: float = field(init=False)
    nll_se: float = field(init=False)
    rmse_mean: float = field(init=False)
    rmse_se: float = field(init=False)

    def __post_init__(self):
        if len(self.nll) != len(self.rmse) or not self.nll:
            raise ValueError("per-split metric lists must align and be non-empty")
        if not self.runtime_s > 0:
            raise ValueError("runtime must be positive")
        k = len(self.nll)
        self.nll_mean = float(np.mean(self.nll))
        self.rmse_mean = float(np.mean(self.rmse))
        self.nll_se = float(np.std(self.nll, ddof=1) / np.sqrt(k)) if k > 1 else 0.0
        self.rmse_se = float(np.std(self.rmse, ddof=1) / np.sqrt(k)) if k > 1 else 0.0

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=1)

    def csv_row(self):
        return [getattr(self, key) for key in RESULT_CSV_HEADER]


# ---------------------------------------------------------------------------
# toy
# ---------------------------------------------------------------------------


def cmd_toy(out_dir, seed: int = 0, epochs: int = TOY_DEFAULTS["epochs"],
            lr: float = TOY_DEFAULTS["lr"], batch: int = TOY_DEFAULTS["batch"],
            dropout: float = TOY_DEFAULTS["dropout"]):
    """Train both architectures on the toy set and write Figure-1-style CSVs."""
    os.makedirs(out_dir, exist_ok=True)
    ds = data.toy_generate(TOY_TRAIN_ROWS, seed=seed)
    written = [
        _write_csv(
            os.path.join(out_dir, "toy_train.csv"),
            ["x", "y"],
            list(zip(ds.features[:, 0], ds.labels)),
        )
    ]
    grid = np.linspace(-1.0, 1.0, TOY_GRID_POINTS)
    tc = training.TrainConfig(lr, epochs, batch, seed)
    for arch in (ARCH_MP_GELU, ARCH_RELU):
        config = network.build_model(arch, 1, 20, dropout, FULL, HEAD_HETEROSCEDASTIC)
        params, _ = training.train(config, tc, ds.features, ds.labels)
        with training.single_thread_blas():
            mean, cov = network.forward_batch(config, params, grid[:, None])
        pred_mean, pred_var = objective._predictive_batch(mean, cov.diagonal(0, 1, 2),
                                                          config.head)
        epi_std = np.sqrt(cov[:, 0, 0])
        alea_std = np.sqrt(np.exp(mean[:, 1] + 0.5 * cov[:, 1, 1]))
        rows = list(zip(grid, pred_mean, np.sqrt(pred_var), epi_std, alea_std))
        written.append(
            _write_csv(
                os.path.join(out_dir, f"toy_{arch}.csv"),
                ["x", "pred_mean", "pred_std", "epistemic_std", "aleatoric_std"],
                rows,
            )
        )
    return written


# ---------------------------------------------------------------------------
# uci
# ---------------------------------------------------------------------------


def load_manifest(path) -> dict:
    """Dataset entries with `path` resolved against the manifest's directory.

    Every entry must be an object with a string `path` and positive integer
    `n` and `q`; its optional `label_col` is a column index and `drop_cols`
    a list of them."""
    manifest = _read_json_object(path, "manifest")
    base = os.path.dirname(os.path.abspath(path))
    for name, entry in manifest.items():
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: dataset {name!r} must be a JSON object")
        missing = [key for key in ("path", "n", "q") if key not in entry]
        if missing:
            raise ValueError(f"{path}: dataset {name!r} has no {', '.join(map(repr, missing))}")
        if not isinstance(entry["path"], str):
            raise ValueError(f"{path}: dataset {name!r} has path {entry['path']!r}, not a string")
        for key in ("n", "q"):
            if type(entry[key]) is not int or entry[key] < 1:
                raise ValueError(f"{path}: dataset {name!r} has {key} {entry[key]!r}, "
                                 "not a positive integer")
        columns = {"label_col": [entry.get("label_col", -1)],
                   "drop_cols": entry.get("drop_cols", [])}
        for key, cols in columns.items():
            if not isinstance(cols, list) or any(type(c) is not int for c in cols):
                raise ValueError(f"{path}: dataset {name!r} has {key} {entry[key]!r}, "
                                 "not integer column indices")
        entry["path"] = os.path.join(base, entry["path"])
    return manifest


def load_manifest_dataset(manifest: dict, name: str) -> data.Dataset:
    """Load one manifest entry and verify its shape against the declared N, Q."""
    if name not in manifest:
        raise ValueError(f"dataset {name!r} not in manifest ({sorted(manifest)})")
    entry = manifest[name]
    ds = data.load_csv(
        entry["path"],
        label_col=entry.get("label_col", -1),
        drop_cols=entry.get("drop_cols", ()),
    )
    ds = data.Dataset(ds.features, ds.labels, name)
    if ds.n != entry["n"] or ds.q != entry["q"]:
        raise ValueError(
            f"{name}: manifest declares N={entry['n']}, Q={entry['q']}, "
            f"file has N={ds.n}, Q={ds.q}"
        )
    return ds


def _time_test_pass(config, params, x_test) -> float:
    """Median wall time of the full test-set forward + predictive pass.

    Public per-example path, single-threaded, one warmup pass."""

    def one_pass():
        for row in x_test:
            mv = network.forward(config, params, row)
            objective.predictive_moments(mv, config.head)

    with training.single_thread_blas():
        one_pass()
        times = []
        for _ in range(TEST_PASS_REPETITIONS):
            t0 = time.perf_counter()
            one_pass()
            times.append(time.perf_counter() - t0)
    return float(np.median(times))


def run_uci_protocol(ds: data.Dataset, arch: str, mode: str, head: str, seed: int = 0,
                     jobs: int = 1, repeats: int = 20, width: int = 20,
                     epochs: int = UCI_DEFAULTS["epochs"], lr: float = UCI_DEFAULTS["lr"],
                     batch: int = UCI_DEFAULTS["batch"],
                     dropout: float = None) -> ExperimentResult:
    """Grid-search the dropout rate (unless `dropout` is given), then run the
    20-split train/test protocol.  Both phases share one pool of workers."""
    tc = training.TrainConfig(lr, epochs, batch, seed)
    largest_phase = repeats * (len(data.GRID_RATES) if dropout is None else 1)
    with data.task_pool(jobs, largest_phase):
        if dropout is None:
            rate = data.grid_search_dropout(
                ds, arch, mode, head, tc, repeats=repeats, jobs=jobs, width=width
            )
        else:
            rate = dropout
        splits = data.make_splits(ds, repeats=repeats, seed=seed)
        tasks = data.split_tasks(ds, splits, data.FINAL, arch, mode, head, width, rate, tc, (2,))
        outcomes = data.run_tasks(data.run_split, tasks, jobs)
    nll = [o[0] for o in outcomes]
    rmse = [o[1] for o in outcomes]

    # Timing on the first split's trained model; --jobs is irrelevant here
    # (single-threaded by construction).
    runtime = _time_test_pass(tasks[0].config, outcomes[0][2], tasks[0].rows()[2])
    return ExperimentResult(
        ds.name, ds.n, ds.q, arch, mode, head, rate, seed, nll, rmse, runtime,
        training.blas_pinned(),
    )


def cmd_uci(manifest_path, dataset: str, arch: str, mode: str, head: str, out_dir,
            **protocol) -> ExperimentResult:
    """`run_uci_protocol` on one manifest dataset, with its keywords; writes
    uci_<tag>.json and uci_<tag>.csv."""
    ds = load_manifest_dataset(load_manifest(manifest_path), dataset)
    result = run_uci_protocol(ds, arch, mode, head, **protocol)
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{dataset}_{arch}_{mode}_{result.head}"
    with open(os.path.join(out_dir, f"uci_{tag}.json"), "w", encoding="utf-8") as fh:
        fh.write(result.to_json())
    _write_csv(
        os.path.join(out_dir, f"uci_{tag}.csv"), RESULT_CSV_HEADER, [result.csv_row()]
    )
    return result


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


def cmd_benchmark(widths=BENCH_WIDTHS, mode: str = FULL, repetitions: int = 50,
                  seed: int = 0, out_path=None):
    """Time matched single-example forward passes; count erf/exp/sqrt calls.

    Returns one row per width: median ns/pass for both architectures, the
    speedup relu/mp_gelu, per-pass transcendental counters, whether BLAS
    was pinned to one thread while timing (see `training.blas_pinned`), and
    the mean minor page faults per timed pass of each architecture (read by
    `getrusage` around each pass, outside its timed interval)."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if not widths:
        raise ValueError("no widths to benchmark")
    rows = []
    pinned = training.blas_pinned()
    rng = np.random.default_rng(seed)
    with training.single_thread_blas():
        for width in widths:
            x = rng.standard_normal(width)
            built = {}
            counts_by_arch = {}
            for arch in (ARCH_MP_GELU, ARCH_RELU):
                config = network.build_model(arch, width, width, 0.05, mode,
                                             HEAD_HETEROSCEDASTIC)
                params = network.init_parameters(config, seed)
                built[arch] = (config, params)
                for _ in range(3):  # warm caches and the allocator
                    network.forward(config, params, x)
                moments.counters.reset()
                network.forward(config, params, x)
                counts_by_arch[arch] = moments.counters.snapshot()
            # interleave timed passes so drift hits both architectures alike
            times = {arch: [] for arch in built}
            faults = dict.fromkeys(built, 0)
            for _ in range(repetitions):
                for arch, (config, params) in built.items():
                    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    t0 = time.perf_counter_ns()
                    network.forward(config, params, x)
                    times[arch].append(time.perf_counter_ns() - t0)
                    faults[arch] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            mp_ns = float(np.median(times[ARCH_MP_GELU]))
            relu_ns = float(np.median(times[ARCH_RELU]))
            mp_counts = counts_by_arch[ARCH_MP_GELU]
            relu_counts = counts_by_arch[ARCH_RELU]
            rows.append(
                {
                    "width": width,
                    "mode": mode,
                    "mp_gelu_ns": mp_ns,
                    "relu_ns": relu_ns,
                    "speedup": relu_ns / mp_ns,
                    "mp_gelu_erf": mp_counts["erf"],
                    "mp_gelu_exp": mp_counts["exp"],
                    "mp_gelu_sqrt": mp_counts["sqrt"],
                    "relu_erf": relu_counts["erf"],
                    "relu_exp": relu_counts["exp"],
                    "relu_sqrt": relu_counts["sqrt"],
                    "blas_pinned": pinned,
                    "mp_gelu_minflt": faults[ARCH_MP_GELU] / repetitions,
                    "relu_minflt": faults[ARCH_RELU] / repetitions,
                }
            )
    if out_path:
        header = list(rows[0].keys())
        _write_csv(out_path, header, [[r[k] for k in header] for r in rows])
    return rows


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _random_case(n, mode, rng):
    """Well-conditioned random input: |μ/σ| ≤ 2.2 keeps gate rates away from
    0/1 (so the MC oracle stays informative) and the first-order rectifier
    cross-covariance within its documented tolerance."""
    sigma = rng.uniform(0.5, 1.5, n)
    mean = rng.uniform(-2.2, 2.2, n) * sigma
    if mode == FULL:
        a = rng.standard_normal((n, n))
        r0 = a @ a.T
        d = np.sqrt(np.diag(r0))
        r0 = r0 / np.outer(d, d)
        r = CASE_CORR * r0 + (1.0 - CASE_CORR) * np.eye(n)
        return moments.MomentVector(mean, r * np.outer(sigma, sigma), FULL)
    return moments.MomentVector(mean, sigma * sigma, DIAG)


LAYER_KINDS = tuple(network._FWD)


ORACLE_UNITS = 4


def layer_oracle(cases: int, samples: int, seed: int, mc_seed):
    """Every layer kind × mode's closed form against the MC oracle on `cases`
    random 4-unit inputs.  Kind k in `mode` draws its inputs from the rng of
    `SeedSequence((seed, int(mode == FULL), k))` (a dense layer's 3×4
    weights and bias after each input), and its case c is sampled with seed
    `mc_seed(k, c)`.  The cases run outer, so the calls of a case that share
    a seed share one draw of its normals (`mc_oracle.draw_normals`).  Every
    mean, variance and full-mode covariance must lie within 4 se; a
    full-mode rectifier off-diagonal may instead lie within 0.15 σ_i σ_j (its
    first-order approximation) and is left out of the worst deviation.
    Returns {(kind, mode): (worst deviation in se, failures as (case, entry,
    deviation))}, full mode first and kinds in `LAYER_KINDS` order."""
    n = ORACLE_UNITS
    runs = [(k, kind, mode, np.random.default_rng((seed, int(mode == FULL), k)))
            for mode in (FULL, DIAG) for k, kind in enumerate(LAYER_KINDS)]
    results = {(kind, mode): (0.0, []) for _, kind, mode, _ in runs}
    for case in range(cases):
        normals = {}
        for k, kind, mode, rng in runs:
            case_seed = mc_seed(k, case)
            if case_seed not in normals:
                normals[case_seed] = mc_oracle.draw_normals(samples, n, case_seed)
            layer = LayerSpec(kind, in_dim=n, out_dim=3, rate=0.13)
            mv = _random_case(n, mode, rng)
            wb = None
            if kind == network.DENSE:
                wb = (rng.standard_normal((3, n)), rng.standard_normal(3))
            out_mean, out_cov, _ = network._FWD[kind](layer, *moments._as_batch(mv), wb, mode)
            out = moments._from_batch(out_mean, out_cov, mode)
            kw = {} if wb is None else {"weights": wb[0], "bias": wb[1]}
            est = mc_oracle.mc_layer_moments(layer, mv, samples, normals[case_seed], **kw)
            worst, failures = results[kind, mode]
            devs = [("mean", np.abs(out.mean - est.mean)
                     / np.maximum(est.standard_error_mean, 1e-12))]
            if mode == FULL:
                ac = np.asarray(out.cov)
                dev_c = np.abs(ac - est.cov) / np.maximum(est.standard_error_cov, 1e-12)
                eye = np.eye(out.dim, dtype=bool)
                if kind == network.RELU:
                    sd = np.sqrt(out.variances)
                    within_scale = np.abs(ac - est.cov) <= 0.15 * np.outer(sd, sd)
                    bad = ~((dev_c <= 4.0) | within_scale) & ~eye
                    if bad.any():
                        failures.append((case, "offdiag", float(dev_c[bad].max())))
                    devs.append(("var", dev_c[eye]))
                else:
                    devs.append(("cov", dev_c))
            else:
                devs.append(("var", np.abs(out.variances - np.diag(est.cov))
                             / np.maximum(np.diagonal(est.standard_error_cov), 1e-12)))
            for entry, dev in devs:
                worst = max(worst, float(dev.max()))
                if dev.max() > 4.0:
                    failures.append((case, entry, float(dev.max())))
            results[kind, mode] = (worst, failures)
    return results


def _check_layer_oracle(samples: int, cases: int, seed: int):
    """Compare every layer op against the MC oracle; yields (name, ok, detail).

    Case c of every kind × mode is sampled with seed `derived_seed(seed, c)`,
    so the 8 calls of a case share one draw of that seed's normals."""
    results = layer_oracle(cases, samples, seed, lambda k, case: data.derived_seed(seed, case))
    for (kind, mode), (worst, failures) in results.items():
        yield f"moment_oracle {kind} {mode}", not failures, f"worst dev {worst:.3f} se"


def objective_oracle(cases: int, samples: int, rng, mc_seed, var_cap=None):
    """The closed-form expected log-likelihood against the MC oracle on
    `cases` random full-mode 2-output heads and labels from `rng`, case c
    sampled with seed `mc_seed(c)`.  With `var_cap`, a head whose Σ22
    exceeds it is rescaled to Σ22 = var_cap, which keeps it PSD.  Returns
    (worst deviation in se, failures as (case, deviation) beyond 4 se)."""
    worst = 0.0
    failures = []
    for case in range(cases):
        mean = rng.uniform(-2.0, 2.0, 2)
        a = rng.standard_normal((2, 2))
        cov = a @ a.T * 0.4 + np.eye(2) * 0.05
        if var_cap is not None and cov[1, 1] > var_cap:
            d = np.diag([1.0, np.sqrt(var_cap / cov[1, 1])])
            cov = d @ cov @ d
        mv = moments.MomentVector(mean, cov, FULL)
        y = rng.uniform(-2.0, 2.0)
        ell = objective.expected_log_likelihood(mv, y)
        est, se = mc_oracle.mc_expected_ll(mv, y, samples, mc_seed(case))
        dev = abs(ell - est) / max(se, 1e-12)
        worst = max(worst, dev)
        if dev > 4.0:
            failures.append((case, dev))
    return worst, failures


def _check_objective_oracle(samples: int, cases: int, seed: int):
    worst, failures = objective_oracle(
        cases, samples, np.random.default_rng(seed), lambda case: data.derived_seed(seed, 7, case)
    )
    yield "objective_oracle eq_ll", not failures, f"worst dev {worst:.3f} se"


FD_STEP = 1e-5
# Rows of one batched pass above a perturbed dense layer, and of one
# objective call over probes' head moments: as many whole probes of a
# batch as fit, and at least one.  It bounds memory: a
# full-mode pass holds a few (width, width, rows) arrays, 0.8 MB each at
# width 20.  256 rows keep each layer of the B=3 sweep in one pass.
FD_CHUNK_ROWS = 256


@contextlib.contextmanager
def _moved(params, li, probe):
    """Dense layer li's parameter `probe` = (array name, index, step) moved
    by its step, in place, and restored on exit."""
    name, idx, step = probe
    w = getattr(params, name)[li]
    orig = w[idx]
    w[idx] = orig + step
    try:
        yield
    finally:
        w[idx] = orig


def _probe_heads(config, params, x, states, li, probes):
    """The head moments (mean, cov) under each of `probes`, a chunk of
    dense layer li's probes.

    Each probe runs layer li alone from its recorded input state: the head
    moments if li is the head, the last layer.  Below it, the chunk's
    outputs go up to the head's input in one pass, stacked along the batch
    axis, with the bits of one pass per probe: those layers work row by
    row, and the gates' batch-wide guards give the same bits on the other
    units either way.  The head runs on each probe's rows: a one-output
    head's product rounds by where a row sits."""
    layer_i, _, mean, cov = states[li]
    layer, mode = config.layers[layer_i], config.covariance_mode
    wb, outs = (params.weights[li], params.biases[li]), []
    for probe in probes:
        with _moved(params, li, probe):
            outs.append(network._FWD[network.DENSE](layer, mean, cov, wb, mode)[:2])
    head_i, head_d = states[-1][:2]
    if li == head_d:
        return outs
    mean, cov = network._run_layers(config, params, x, stop=head_i, resume=(
        layer_i + 1, li + 1, *map(moments._stack_rows, zip(*outs))))
    batch = x.shape[0]
    return [network._run_layers(config, params, x, resume=(
                head_i, head_d, moments._rows(mean, rows), moments._rows(cov, rows)))
            for rows in (slice(k, k + batch) for k in range(0, len(probes) * batch, batch))]


def _chunk_losses(config, heads, y, li, probes):
    """The losses of a chunk of probes from their head moments, by one
    objective call over the chunk's rows.  When that call finds a
    non-finite value, the probes are scored one at a time and the first
    failing one's error names its layer, parameter and step."""
    mean, cov = map(moments._stack_rows, zip(*heads))
    try:
        return training._head_loss(config, mean, cov, y, len(heads))[0].tolist()
    except FloatingPointError:
        for (head_mean, head_cov), (name, idx, step) in zip(heads, probes):
            try:
                training._head_loss(config, head_mean, head_cov, y)
            except FloatingPointError as exc:
                where = f"dense layer {li}, {name}[{', '.join(map(str, idx))}] moved by {step:+g}"
                raise training.with_context(exc, where) from exc
        raise


def _probe_losses(config, params, x, y, states, li):
    """The probes of dense layer li, each weight then each bias moved by
    +FD_STEP and then by -FD_STEP, as (array name, index, step), with the
    loss under each: the probes' head moments (`_probe_heads`) are scored
    FD_CHUNK_ROWS rows at a time (`_chunk_losses`).  A one-row batch's
    chunks are single probes: a one-row pass takes one 2-D GEMM per dense
    product (see `moments`), which rounds otherwise than the batched
    products over several probes' rows."""
    probes = [(name, idx, step) for name in ("weights", "biases")
              for idx in np.ndindex(getattr(params, name)[li].shape)
              for step in (FD_STEP, -FD_STEP)]
    per_chunk = max(1, FD_CHUNK_ROWS // len(x)) if len(x) > 1 else 1
    losses = []
    for start in range(0, len(probes), per_chunk):
        chunk = probes[start:start + per_chunk]
        heads = _probe_heads(config, params, x, states, li, chunk)
        losses += _chunk_losses(config, heads, y, li, chunk)
    return probes, losses


def fd_check(config, params, x, y):
    """Analytic gradients of one batch against central differences (step
    FD_STEP).  A coordinate violates when its relative error is 1e-4 or
    more or, where |gradient| < 1e-3, its absolute error is 1e-7 or more.
    The probes need only the loss, and start from the states one untaped
    pass records before each dense layer (see `network._run_layers`): the
    layers below a perturbed layer cannot change.  Returns (coordinates,
    worst relative error, violations as (array, layer, index, analytic,
    fd)).  At `mpbnn check`'s width 6 they are bit for bit those of one
    whole `training.loss` pass per probe.  At criterion 2's width 20 a
    dense product can round a row differently beside other rows, and a
    central difference may move by up to about 1e-9 absolute (worst seen
    3.6e-10, in 5 of 4732 coordinates)."""
    _, grads = training.loss_and_gradients(config, params, x, y)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    states = []
    network._run_layers(config, params, x, states=states)
    fds = {}
    for li in range(len(states)):
        probes, losses = _probe_losses(config, params, x, y, states, li)
        for (name, idx, _), lp, lm in zip(probes[::2], losses[::2], losses[1::2]):
            fds[name, li, idx] = (lp - lm) / (2.0 * FD_STEP)
    coordinates, worst, violations = 0, 0.0, []
    for name in ("weights", "biases"):
        for li, g in enumerate(getattr(grads, name)):
            for idx in np.ndindex(g.shape):
                an, fd = g[idx], fds[name, li, idx]
                coordinates += 1
                if abs(an) < 1e-3:
                    ok = abs(an - fd) < 1e-7
                else:
                    rel = abs(an - fd) / abs(an)
                    worst = max(worst, rel)
                    ok = rel < 1e-4
                if not ok:
                    violations.append((name, li, idx, an, fd))
    return coordinates, worst, violations


def gradient_fd(seed: int, input_dim: int, width: int, dropout: float, batch: int):
    """`fd_check` on every architecture × mode × head, each model of the given
    shape initialized from `seed` and given one batch from an rng seeded with
    `seed`.  Yields (arch, mode, head, coordinates, worst, violations)."""
    rng = np.random.default_rng(seed)
    for arch in (ARCH_MP_GELU, ARCH_RELU):
        for mode in (FULL, DIAG):
            for head in (HEAD_HETEROSCEDASTIC, HEAD_HOMOSCEDASTIC):
                config = network.build_model(arch, input_dim, width, dropout, mode, head)
                params = network.init_parameters(config, seed)
                x = rng.standard_normal((batch, input_dim))
                y = rng.standard_normal(batch)
                yield (arch, mode, head, *fd_check(config, params, x, y))


def _check_gradients(seed: int):
    # Dropout 0.2 keeps head variances well away from the floor, where the
    # objective's curvature would put the FD oracle inside its own noise.
    for arch, mode, head, _, worst, violations in gradient_fd(seed, 4, 6, 0.2, 3):
        yield f"gradient_fd {arch} {mode} {head}", not violations, f"worst rel {worst:.2e}"


def run_self_checks(level: str = "quick", seed: int = 0):
    """All self-check properties as (name, ok, detail) tuples.

    Each MC-oracle check fails beyond 4 standard errors, so a correct build
    fails one by chance now and then: at level quick, 18 of seeds 0-299
    (6 %) fail, and of seeds 0-21 seeds 8, 9, 13 and 21 do.  The bound is
    kept as it is on purpose; changing it is a decision for a maintainer,
    not a fix for a failing seed."""
    if level == "quick":
        samples, cases, obj_cases = 10**4, 3, 12
    elif level == "full":
        samples, cases, obj_cases = 10**6, 8, 40
    else:
        raise ValueError(f"unknown check level {level!r}")
    results = []
    results.extend(_check_layer_oracle(samples, cases, seed))
    results.extend(_check_objective_oracle(samples, obj_cases, seed))
    results.extend(_check_gradients(seed))
    return results


def cmd_check(level: str = "quick", seed: int = 0) -> int:
    results = run_self_checks(level, seed)
    failures = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed (level={level})")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_list(text: str) -> tuple:
    """A comma-separated list of ints, such as `--widths 20,64`."""
    return tuple(int(w) for w in text.split(","))


def _read_json_object(path, what: str) -> dict:
    """The JSON object in the user file `path`, a command's `what`.  A file
    that is not JSON, not UTF-8 or not an object is a ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} must be a JSON object")
    return doc


def _config_flags(args) -> list:
    """`--key=value` for every entry of the `--config` file that names a
    flag of `args`' subcommand left out on the command line, so that its
    parser converts and checks the value; a list value is joined with
    commas.  Entries for other keys, and null entries, are ignored."""
    cfg = _read_json_object(args.config, "config")
    unset = {key for key, value in vars(args).items() if value is None}
    return [
        f"--{key}=" + (",".join(map(str, value)) if isinstance(value, list) else str(value))
        for key, value in cfg.items() if key in unset and value is not None
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpbnn",
        description="Moment-propagation BNN experiments (deterministic, CPU).",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    toy = sub.add_parser("toy", help="toy-data experiment (Figure-1 CSVs)")
    toy.add_argument("--out", required=True)
    toy.add_argument("--seed", type=int)
    toy.add_argument("--epochs", type=int)
    toy.add_argument("--lr", type=float)
    toy.add_argument("--batch", type=int)
    toy.add_argument("--dropout", type=float)

    uci = sub.add_parser("uci", help="20-split benchmark protocol on one dataset")
    uci.add_argument("--manifest", required=True)
    uci.add_argument("--dataset", required=True)
    uci.add_argument("--arch", choices=[ARCH_MP_GELU, ARCH_RELU], required=True)
    uci.add_argument("--cov", choices=[FULL, DIAG])
    uci.add_argument("--head", choices=["2", "1"])
    uci.add_argument("--out", required=True)
    uci.add_argument("--seed", type=int)
    uci.add_argument("--jobs", type=int)
    uci.add_argument("--repeats", type=int)
    uci.add_argument("--epochs", type=int)
    uci.add_argument("--lr", type=float)
    uci.add_argument("--batch", type=int)
    uci.add_argument("--dropout", type=float, help="skip grid search, use this rate")

    bench = sub.add_parser("benchmark", help="forward-pass timing + op counters")
    bench.add_argument("--widths", type=_int_list, help="comma-separated, default 20,64,256,1024")
    bench.add_argument("--cov", choices=[FULL, DIAG])
    bench.add_argument("--reps", type=int)
    bench.add_argument("--seed", type=int)
    bench.add_argument("--out", help="CSV output path (default: print)")

    check = sub.add_parser("check", help="MC-oracle + gradient self-check")
    check.add_argument("--level", choices=["quick", "full"])
    check.add_argument("--seed", type=int)
    return parser


def main(argv=None) -> int:
    """Precedence for every option: its flag, then its `--config` entry, then
    the default of the command's signature (or, for `uci`, `--cov full`,
    `--head 2` and `--jobs` all CPUs)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(argv + _config_flags(args))
        command = args.command
        opts = {key: value for key, value in vars(args).items()
                if value is not None and key not in ("command", "config")}
        if command in ("toy", "uci") and not training.blas_pinned():
            print("warning: BLAS is not pinned to one thread (threadpoolctl is not installed, "
                  "no OpenBLAS was found to pin, and OPENBLAS_NUM_THREADS / OMP_NUM_THREADS "
                  "is not 1); run times may vary with the thread count", file=sys.stderr)
        if command == "toy":
            for path in cmd_toy(opts.pop("out"), **opts):
                print(path)
            return 0
        if command == "uci":
            result = cmd_uci(
                opts.pop("manifest"), opts.pop("dataset"), opts.pop("arch"),
                opts.pop("cov", FULL), HEAD_BY_FLAG[opts.pop("head", "2")], opts.pop("out"),
                **{"jobs": os.cpu_count() or 1, **opts},
            )
            print(
                f"{result.dataset} {result.arch} {result.covariance_mode} "
                f"head={result.head} rate={result.dropout_rate}: "
                f"NLL {result.nll_mean:.3f} ± {result.nll_se:.3f}, "
                f"RMSE {result.rmse_mean:.3f} ± {result.rmse_se:.3f}, "
                f"runtime {result.runtime_s:.4f}s"
            )
            return 0
        if command == "benchmark":
            names = {"cov": "mode", "reps": "repetitions", "out": "out_path"}
            rows = cmd_benchmark(**{names.get(key, key): value for key, value in opts.items()})
            header = list(rows[0].keys())
            print(",".join(header))
            for row in rows:
                print(",".join(str(row[k]) for k in header))
            return 0
        if command == "check":
            return cmd_check(**opts)
    except (ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
