"""Datasets: toy synthesis, CSV ingestion, splits, and the dropout grid search.

The benchmark protocol: 10% of the rows form the test set, the rest the
training set, repeated 20 times.  For the dropout grid search, 20% of each
training set is held out for validation; the rate with the lowest mean
validation NLL across the 20 splits wins (ties to the smaller rate).
Features and labels are standardized with statistics of the data actually
trained on; test/validation sets reuse those statistics.  Metrics are
reported in standardized label space.
"""

from __future__ import annotations

import csv
import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import network, training

GRID_RATES = (0.005, 0.01, 0.05, 0.1)

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

    def destandardize_labels(self, labels: np.ndarray) -> np.ndarray:
        return labels * self.label_std + self.label_mean


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint train/val/test index sets with train-portion statistics.

    `standardizer` is fitted on train+val (the full training data of the
    final protocol); the grid-search phase fits its own on the train
    portion it actually optimizes.
    """

    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    standardizer: Standardizer

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
    original index) to exclude from the features.  Ragged rows, non-numeric
    cells, and empty files are hard errors citing the 1-based row/column.
    """
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
    label_col = label_col % ncols
    labels = data[:, label_col]
    drop = set(int(c) % ncols for c in drop_cols) | {label_col}
    keep = [j for j in range(ncols) if j not in drop]
    if not keep:
        raise ValueError(f"{path}: no feature columns left")
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return Dataset(data[:, keep], labels, name)


def make_splits(
    ds: Dataset,
    repeats: int = 20,
    test_frac: float = 0.1,
    val_frac: float = 0.2,
    seed: int = 0,
) -> list:
    """Independent random splits; statistics from each split's training data."""
    n = ds.n
    n_test = int(round(n * test_frac))
    n_rest = n - n_test
    n_val = int(round(n_rest * val_frac))
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
        both = np.concatenate([train_idx, val_idx])
        std = Standardizer.fit(ds.features[both], ds.labels[both])
        splits.append(DatasetSplit(train_idx, val_idx, test_idx, std))
    return splits


def derived_seed(base: int, *tags) -> int:
    """Deterministic child seed for one (phase, rate, split) work unit."""
    return int(np.random.SeedSequence((base, *tags)).generate_state(1)[0])


def _grid_point(args):
    """Train on the train portion at one rate, return validation NLL."""
    (features, labels, train_idx, val_idx, arch, mode, head, width, rate, tc_fields,
     run_seed) = args
    std = Standardizer.fit(features[train_idx], labels[train_idx])
    x_tr = std.transform_features(features[train_idx])
    y_tr = std.transform_labels(labels[train_idx])
    x_val = std.transform_features(features[val_idx])
    y_val = std.transform_labels(labels[val_idx])
    config = network.build_model(arch, x_tr.shape[1], width, rate, mode, head)
    tc = training.TrainConfig(**{**tc_fields, "seed": run_seed})
    params, _ = training.train(config, tc, x_tr, y_tr)
    return training.evaluate_model(config, params, x_val, y_val)["nll"]


def run_tasks(worker, tasks, jobs: int = 1):
    """Map tasks in order, serially or over a process pool."""
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


def grid_search_dropout(
    ds: Dataset,
    arch: str,
    mode: str,
    head: str,
    train_config: training.TrainConfig,
    rates=GRID_RATES,
    repeats: int = 20,
    seed=None,
    jobs: int = 1,
    width: int = 20,
) -> float:
    """Mean-validation-NLL argmin over the dropout search space.

    Each rate is scored by training on 80% of every split's training data
    and averaging the held-out NLL over the splits.  A single-rate search
    space short-circuits without training.
    """
    rates = tuple(rates)
    if not rates:
        raise ValueError("empty search space")
    if len(rates) == 1:
        return rates[0]
    base_seed = train_config.seed if seed is None else seed
    splits = make_splits(ds, repeats=repeats, seed=base_seed)
    tc_fields = dataclasses.asdict(train_config)
    tasks = []
    for ri, rate in enumerate(rates):
        for si, split in enumerate(splits):
            tasks.append(
                (
                    ds.features,
                    ds.labels,
                    split.train_idx,
                    split.val_idx,
                    arch,
                    mode,
                    head,
                    width,
                    rate,
                    tc_fields,
                    derived_seed(base_seed, 1, ri, si),
                )
            )
    scores = run_tasks(_grid_point, tasks, jobs)
    best_rate = None
    best_nll = np.inf
    k = len(splits)
    for ri, rate in enumerate(sorted(rates)):
        src = rates.index(rate)
        mean_nll = float(np.mean(scores[src * k : (src + 1) * k]))
        if mean_nll < best_nll:
            best_nll = mean_nll
            best_rate = rate
    return best_rate
