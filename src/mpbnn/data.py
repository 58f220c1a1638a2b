"""Datasets: toy synthesis, CSV ingestion, splits, and the dropout grid search.

The benchmark protocol: `TEST_FRAC` (10%) of the rows form the test set, the
rest the training set, repeated 20 times.  The dropout grid search holds out
`VAL_FRAC` (20%) of each training set; the rate of `GRID_RATES` with the
lowest mean validation NLL over the splits wins (ties to the smaller rate).
Both phases train and score through one runner, `run_split`.  It fits the
feature and label statistics on the rows it trains on (the train portion in
the grid search, train+val in the final phase), and the held-out rows reuse
them.  Metrics are reported in standardized label space.

A protocol run maps its tasks over one process pool, `task_pool`, sized to
its larger phase and never to more workers than that phase has tasks; the
pool closes, its workers joined, before the run times its test pass.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import network, training

GRID_RATES = (0.005, 0.01, 0.05, 0.1)
TEST_FRAC = 0.1  # of all rows
VAL_FRAC = 0.2  # of the rows left after the test set

# Columns with (population) std below this are treated as constant.
_STD_EPS = 1e-12


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    name: str

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if features.ndim != 2 or labels.ndim != 1 or features.shape[0] != labels.shape[0]:
            raise ValueError(
                f"features {features.shape} and labels {labels.shape} do not align"
            )
        if not (np.all(np.isfinite(features)) and np.all(np.isfinite(labels))):
            raise ValueError("non-finite entries in dataset")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def q(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Standardizer:
    """Per-column feature statistics plus label statistics, from one portion."""

    feature_mean: np.ndarray
    feature_std: np.ndarray
    label_mean: float
    label_std: float

    @classmethod
    def fit(cls, features: np.ndarray, labels: np.ndarray) -> "Standardizer":
        fm = features.mean(axis=0)
        fs = features.std(axis=0)
        fs = np.where(fs < _STD_EPS, 1.0, fs)
        lm = float(labels.mean())
        ls = float(labels.std())
        if ls < _STD_EPS:
            ls = 1.0
        return cls(fm, fs, lm, ls)

    def transform_features(self, features: np.ndarray) -> np.ndarray:
        return (features - self.feature_mean) / self.feature_std

    def transform_labels(self, labels: np.ndarray) -> np.ndarray:
        return (labels - self.label_mean) / self.label_std


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint train/val/test index sets.

    A split holds no statistics: `run_split` fits them on the rows it
    trains on, the train portion in the grid search and train+val in the
    final phase.
    """

    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        all_idx = np.concatenate([self.train_idx, self.val_idx, self.test_idx])
        if len(np.unique(all_idx)) != all_idx.size:
            raise ValueError("split index sets overlap")

    @property
    def train_val_idx(self) -> np.ndarray:
        return np.concatenate([self.train_idx, self.val_idx])


def toy_true_fn(x):
    """Noise-free toy regression target sin(2x)·cos(7x)."""
    return np.sin(2.0 * x) * np.cos(7.0 * x)


def toy_noise_std(x):
    """Input-dependent noise std |sin x| of the toy generator."""
    return np.abs(np.sin(x))


def toy_generate(n: int = 100, seed: int = 0) -> Dataset:
    """Heteroscedastic toy set: y = sin(2x)cos(7x) + N(0, sin²x), x ~ U(-0.5, 0.5)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5, 0.5, size=n)
    y = toy_true_fn(x) + rng.standard_normal(n) * toy_noise_std(x)
    return Dataset(x[:, None], y, "toy")


def load_csv(path, label_col: int = -1, drop_cols=()) -> Dataset:
    """Numeric CSV with optional auto-detected header; one column is the label.

    The label column defaults to the last; `drop_cols` names columns (by
    original index) to exclude from the features.  A column index lies in
    [-ncols, ncols), negative ones counting from the end.  Ragged rows,
    non-numeric cells, empty files and indices out of range are hard errors
    citing the 1-based row/column or the index.
    """
    rows = []
    # utf-8-sig drops a byte-order mark, which would make row 1 read as a header.
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for line_no, cells in enumerate(csv.reader(fh), start=1):
            if not cells:
                continue
            rows.append((line_no, [c.strip() for c in cells]))
    if not rows:
        raise ValueError(f"{path}: empty file")

    def _is_numeric(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    first_no, first = rows[0]
    if not all(_is_numeric(c) for c in first):
        rows = rows[1:]
        if not rows:
            raise ValueError(f"{path}: header only, no data rows")
    ncols = len(rows[0][1])
    data = np.empty((len(rows), ncols))
    for i, (line_no, cells) in enumerate(rows):
        if len(cells) != ncols:
            raise ValueError(
                f"{path}: row {line_no} has {len(cells)} cells, expected {ncols}"
            )
        for j, cell in enumerate(cells):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {cell!r} at row {line_no}, column {j + 1}"
                ) from None

    def _column(index):
        if not -ncols <= index < ncols:
            raise ValueError(f"{path}: column index {index} out of range for {ncols} columns")
        return index % ncols

    label_col = _column(label_col)
    labels = data[:, label_col]
    drop = {_column(int(c)) for c in drop_cols} | {label_col}
    keep = [j for j in range(ncols) if j not in drop]
    if not keep:
        raise ValueError(f"{path}: no feature columns left")
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return Dataset(data[:, keep], labels, name)


def make_splits(ds: Dataset, repeats: int = 20, seed: int = 0) -> list:
    """Independent random splits of the rows into train, val and test."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    n = ds.n
    n_test = int(round(n * TEST_FRAC))
    n_rest = n - n_test
    n_val = int(round(n_rest * VAL_FRAC))
    n_train = n_rest - n_val
    if min(n_test, n_val, n_train) < 1:
        raise ValueError(
            f"degenerate split sizes for N={n}: train {n_train}, val {n_val}, test {n_test}"
        )
    splits = []
    for r in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence((seed, r)))
        perm = rng.permutation(n)
        test_idx = np.sort(perm[:n_test])
        val_idx = np.sort(perm[n_test : n_test + n_val])
        train_idx = np.sort(perm[n_test + n_val :])
        splits.append(DatasetSplit(train_idx, val_idx, test_idx))
    return splits


def derived_seed(base: int, *tags) -> int:
    """Deterministic child seed for one (phase, rate, split) work unit."""
    return int(np.random.SeedSequence((base, *tags)).generate_state(1)[0])


GRID_SEARCH = "grid-search"
FINAL = "final"


class SplitTask(NamedTuple):
    """One training of the protocol, the unit of work of `run_split`.

    The grid-search phase trains on the split's train portion and scores
    its validation rows; the final phase trains on train+val and scores
    the test rows.
    """

    ds: Dataset
    phase: str  # GRID_SEARCH or FINAL
    split_i: int
    split: DatasetSplit
    arch: str
    rate: float
    config: network.ModelConfig
    train_config: training.TrainConfig

    def rows(self):
        """(x_train, y_train, x_eval, y_eval), scaled by the training rows' statistics."""
        s = self.split
        train_idx, eval_idx = ((s.train_idx, s.val_idx) if self.phase == GRID_SEARCH
                               else (s.train_val_idx, s.test_idx))
        features, labels = self.ds.features, self.ds.labels
        std = Standardizer.fit(features[train_idx], labels[train_idx])
        return (std.transform_features(features[train_idx]),
                std.transform_labels(labels[train_idx]),
                std.transform_features(features[eval_idx]),
                std.transform_labels(labels[eval_idx]))


def split_tasks(ds, splits, phase, arch, mode, head, width, rate, train_config,
                seed_tags) -> list:
    """One `SplitTask` per split at one dropout rate.

    Split i trains with seed `derived_seed(train_config.seed, *seed_tags, i)`."""
    config = network.build_model(arch, ds.q, width, rate, mode, head)
    return [
        SplitTask(ds, phase, si, split, arch, rate, config, dataclasses.replace(
            train_config, seed=derived_seed(train_config.seed, *seed_tags, si)))
        for si, split in enumerate(splits)
    ]


def run_split(task: SplitTask):
    """Train one task's model and score it: (nll, rmse, trained ParameterSet)."""
    x_tr, y_tr, x_ev, y_ev = task.rows()
    try:
        params, _ = training.train(task.config, task.train_config, x_tr, y_tr)
    except training.DIVERGENCE_ERRORS as exc:
        where = (f"dataset {task.ds.name!r}, {task.arch} {task.config.covariance_mode}, "
                 f"dropout rate {task.rate}, {task.phase} split {task.split_i}")
        raise training.with_context(exc, where) from exc
    res = training.evaluate_model(task.config, params, x_ev, y_ev)
    return res["nll"], res["rmse"], params


# The pool of the open `task_pool`, if any.
_POOL = contextvars.ContextVar("task_pool", default=None)


@contextlib.contextmanager
def task_pool(jobs: int, tasks: int):
    """Hold one process pool of min(jobs, tasks) workers open for the
    `run_tasks` calls inside; on exit it closes and joins its workers.
    Fewer than 2 workers, or a pool already open, adds none."""
    workers = min(jobs, tasks)
    if workers <= 1 or _POOL.get() is not None:
        yield
        return
    # Look the OpenBLAS libraries up here, once, so that forked workers
    # inherit the lookup instead of each repeating it (about 1 ms).
    training._openblas_threads()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        token = _POOL.set(pool)
        try:
            yield
        finally:
            _POOL.reset(token)


def run_tasks(worker, tasks, jobs: int = 1):
    """Map tasks in order, serially or over a process pool: the open
    `task_pool`'s, else one of min(jobs, len(tasks)) workers for this call.
    `cli.run_uci_protocol` holds one pool, sized to its larger phase, over
    the grid search and the final splits, and closes it before it times
    the test pass."""
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with task_pool(jobs, len(tasks)):
        return list(_POOL.get().map(worker, tasks))


def grid_search_dropout(
    ds: Dataset,
    arch: str,
    mode: str,
    head: str,
    train_config: training.TrainConfig,
    repeats: int = 20,
    jobs: int = 1,
    width: int = 20,
) -> float:
    """Mean-validation-NLL argmin over `GRID_RATES`.

    Each rate is scored by training on the train portion of every split and
    averaging the held-out NLL over the splits.  The splits and every
    training's seed derive from `train_config.seed`.
    """
    splits = make_splits(ds, repeats=repeats, seed=train_config.seed)
    tasks = [
        task
        for ri, rate in enumerate(GRID_RATES)
        for task in split_tasks(ds, splits, GRID_SEARCH, arch, mode, head, width, rate,
                                train_config, (1, ri))
    ]
    scores = run_tasks(run_split, tasks, jobs)
    k = len(splits)
    mean_nll = [np.mean([nll for nll, _, _ in scores[ri * k : (ri + 1) * k]])
                for ri in range(len(GRID_RATES))]
    return min(zip(mean_nll, GRID_RATES))[1]
