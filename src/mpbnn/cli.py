"""Command-line experiment runner, microbenchmark, and self-check.

Subcommands:

  toy        train both architectures on the heteroscedastic toy problem
             and dump prediction-band CSVs over [-1, 1]
  uci        run the 20-split benchmark protocol (grid-searched dropout,
             standardized metrics, timed test pass) on one dataset
  benchmark  time single-example forward passes of matched architectures
             and report transcendental call counters
  check      print the PASS/FAIL lines of `checks.run_self_checks`

All outputs are UTF-8 CSV (comma, '.' decimal, LF) or JSON, deterministic
given --seed except wall-clock timing fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import checks, data, moments, network, objective, training
from .moments import DIAG, FULL
from .network import ARCH_MP_GELU, ARCH_RELU, HEAD_HETEROSCEDASTIC, HEAD_HOMOSCEDASTIC

HEAD_BY_FLAG = {"2": HEAD_HETEROSCEDASTIC, "1": HEAD_HOMOSCEDASTIC}

TOY_DEFAULTS = {"lr": 0.1, "epochs": 1000, "batch": 100, "dropout": 0.001}
UCI_DEFAULTS = {"lr": 0.001, "epochs": 500, "batch": 256}
TOY_TRAIN_ROWS = 100
TOY_GRID_POINTS = 200
TEST_PASS_REPETITIONS = 5  # timed passes of `_time_test_pass`, after one warmup
BENCH_WIDTHS = (20, 64, 256, 1024)


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


# `perfbench/` calls, traces (`cli._check_gradients.s`) and monkeypatches
# the gradient sweep by this name; ROADMAP item 1 removes it.
_check_gradients = checks.check_gradients


def cmd_check(level: str = "quick", seed: int = 0) -> int:
    """Print `checks.run_self_checks` as PASS/FAIL lines; 0 when all pass."""
    results = checks.run_self_checks(level, seed)
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
    `--head 2` and `--jobs` the CPUs the process may run on)."""
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
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            result = cmd_uci(
                opts.pop("manifest"), opts.pop("dataset"), opts.pop("arch"),
                opts.pop("cov", FULL), HEAD_BY_FLAG[opts.pop("head", "2")], opts.pop("out"),
                **{"jobs": cpus, **opts},
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
