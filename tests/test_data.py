"""Data handling: toy generator, CSV ingestion, splits, standardization, grid search."""

import os
import subprocess
import sys

import numpy as np
import pytest

from mpbnn import data
from mpbnn import network as net
from mpbnn import training as tr
from mpbnn.moments import DIAG


class TestToyGenerate:
    def test_generator_zero_point(self):
        assert data.toy_true_fn(0.0) == 0.0
        assert data.toy_noise_std(0.0) == 0.0

    def test_inputs_stay_in_sampling_interval(self):
        ds = data.toy_generate(100, seed=0)
        assert ds.features.shape == (100, 1)
        assert np.all(ds.features >= -0.5) and np.all(ds.features <= 0.5)

    def test_deterministic_per_seed(self):
        a = data.toy_generate(50, seed=3)
        b = data.toy_generate(50, seed=3)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_sample_mean_at_fixed_input(self):
        """Mean of y at x = 0.3 is sin(0.6)cos(2.1) = -0.2850575..., by direct MC."""
        x = 0.3
        true_mean = np.sin(0.6) * np.cos(2.1)
        assert true_mean == pytest.approx(-0.2850575, abs=1e-6)
        rng = np.random.default_rng(12)
        n = 10**5
        draws = data.toy_true_fn(x) + rng.standard_normal(n) * data.toy_noise_std(x)
        se = data.toy_noise_std(x) / np.sqrt(n)
        assert abs(draws.mean() - true_mean) <= 3 * se

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            data.toy_generate(0)


class TestLoadCsv:
    def write(self, tmp_path, text, name="d.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_plain_numeric_file(self, tmp_path):
        ds = data.load_csv(self.write(tmp_path, "1,2,3\n4,5,6\n7,8,9\n"))
        assert ds.n == 3 and ds.q == 2
        np.testing.assert_array_equal(ds.labels, [3.0, 6.0, 9.0])

    def test_header_auto_detected(self, tmp_path):
        ds = data.load_csv(self.write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n"))
        assert ds.n == 2 and ds.q == 2

    @pytest.mark.parametrize("text, labels", [("1,2,3\n4,5,6\n7,8,9\n", [3.0, 6.0, 9.0]),
                                              ("a,b,y\n1,2,3\n4,5,6\n", [3.0, 6.0])])
    def test_byte_order_mark_is_not_a_header(self, tmp_path, text, labels):
        """A UTF-8 byte-order mark must not make the first data row read as
        a header; a real header behind one is still detected."""
        ds = data.load_csv(self.write(tmp_path, "\ufeff" + text))
        assert ds.q == 2
        np.testing.assert_array_equal(ds.labels, labels)

    def test_non_numeric_cell_cites_row(self, tmp_path):
        path = self.write(tmp_path, "1,2,3\n4,abc,6\n")
        with pytest.raises(ValueError, match="row 2"):
            data.load_csv(path)

    def test_ragged_row_cites_row(self, tmp_path):
        path = self.write(tmp_path, "1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="row 2"):
            data.load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            data.load_csv(self.write(tmp_path, ""))

    def test_label_column_selection_and_drops(self, tmp_path):
        ds = data.load_csv(
            self.write(tmp_path, "1,2,3,4\n5,6,7,8\n"), label_col=1, drop_cols=(3,)
        )
        np.testing.assert_array_equal(ds.labels, [2.0, 6.0])
        np.testing.assert_array_equal(ds.features, [[1.0, 3.0], [5.0, 7.0]])

    def test_negative_indices_count_from_the_end(self, tmp_path):
        ds = data.load_csv(
            self.write(tmp_path, "1,2,3,4\n5,6,7,8\n"), label_col=-4, drop_cols=(-1,)
        )
        np.testing.assert_array_equal(ds.labels, [1.0, 5.0])
        np.testing.assert_array_equal(ds.features, [[2.0, 3.0], [6.0, 7.0]])

    @pytest.mark.parametrize("label_col, drop_cols, index", [
        (3, (), 3),      # wrapped, it would be column 0
        (-4, (), -4),    # wrapped, column 2
        (-1, (5,), 5),   # wrapped, it would drop column 2
        (0, (1, -7), -7),
    ])
    def test_out_of_range_column_is_an_error(self, tmp_path, label_col, drop_cols, index):
        path = self.write(tmp_path, "1,2,3\n4,5,6\n")
        with pytest.raises(ValueError) as exc:
            data.load_csv(path, label_col=label_col, drop_cols=drop_cols)
        assert str(exc.value) == f"{path}: column index {index} out of range for 3 columns"


class TestMakeSplits:
    def test_partition_sizes_at_n_100(self):
        ds = data.toy_generate(100, seed=0)
        splits = data.make_splits(ds, repeats=20, seed=1)
        assert len(splits) == 20
        s = splits[0]
        assert len(s.test_idx) == 10
        assert len(s.val_idx) == 18
        assert len(s.train_idx) == 72
        assert len(s.train_val_idx) == 90

    def test_same_seed_identical_splits(self):
        ds = data.toy_generate(60, seed=0)
        a = data.make_splits(ds, repeats=3, seed=5)
        b = data.make_splits(ds, repeats=3, seed=5)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.test_idx, sb.test_idx)
            np.testing.assert_array_equal(sa.train_idx, sb.train_idx)

    def test_partitions_are_disjoint_and_cover_nothing_twice(self):
        ds = data.toy_generate(100, seed=0)
        for s in data.make_splits(ds, repeats=5, seed=2):
            merged = np.concatenate([s.train_idx, s.val_idx, s.test_idx])
            assert len(np.unique(merged)) == len(merged)
            assert not np.intersect1d(s.test_idx, s.train_val_idx).size

    def test_degenerate_sizes_rejected(self):
        ds = data.toy_generate(3, seed=0)
        with pytest.raises(ValueError):
            data.make_splits(ds, repeats=1, seed=0)

    def test_no_repeats_rejected(self):
        ds = data.toy_generate(50, seed=0)
        with pytest.raises(ValueError, match="repeats must be >= 1, got 0"):
            data.make_splits(ds, repeats=0, seed=0)

    def test_reproducible_across_process_restarts(self):
        """The same seed yields the same first split in a fresh interpreter."""
        code = (
            "from mpbnn import data; import numpy as np;"
            "ds = data.toy_generate(50, seed=9);"
            "s = data.make_splits(ds, repeats=2, seed=4)[0];"
            "print(','.join(map(str, s.test_idx)))"
        )
        # The child imports the package this process imported.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(data.__file__)))
        outs = {
            subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert len(outs) == 1
        ds = data.toy_generate(50, seed=9)
        here = ",".join(map(str, data.make_splits(ds, repeats=2, seed=4)[0].test_idx))
        assert outs == {here}


class TestStandardizer:
    def test_train_columns_standardize_to_unit_moments(self):
        rng = np.random.default_rng(0)
        feats = rng.uniform(-3, 9, size=(200, 4)) * np.array([1.0, 10.0, 0.1, 5.0])
        labels = rng.uniform(0, 100, 200)
        std = data.Standardizer.fit(feats, labels)
        z = std.transform_features(feats)
        assert np.all(np.abs(z.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-10)

    def test_constant_column_gets_unit_scale(self):
        feats = np.column_stack([np.full(50, 7.0), np.arange(50.0)])
        std = data.Standardizer.fit(feats, np.arange(50.0))
        assert std.feature_std[0] == 1.0
        z = std.transform_features(feats)
        assert np.all(z[:, 0] == 0.0)


class TestGridSearch:
    def tiny_tc(self, epochs=3):
        return tr.TrainConfig(0.05, epochs, 64, 0)

    def test_search_runs_rates_times_splits_trainings(self, monkeypatch):
        counter = {"n": 0}
        real_train = data.training.train

        def counting_train(*args, **kwargs):
            counter["n"] += 1
            return real_train(*args, **kwargs)

        monkeypatch.setattr(data.training, "train", counting_train)
        ds = data.toy_generate(50, seed=0)
        data.grid_search_dropout(
            ds, net.ARCH_MP_GELU, DIAG, net.HEAD_HETEROSCEDASTIC, self.tiny_tc(),
            repeats=3,
        )
        assert counter["n"] == 4 * 3

    def test_low_noise_dataset_prefers_small_rates(self):
        """Strong dropout destroys a clean linear signal, so the search
        lands on one of the two smallest rates."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((160, 2))
        y = x @ np.array([2.0, -1.0]) + 0.3 * rng.standard_normal(160)
        ds = data.Dataset(x, y, "clean")
        rate = data.grid_search_dropout(
            ds, net.ARCH_MP_GELU, DIAG, net.HEAD_HETEROSCEDASTIC,
            tr.TrainConfig(0.01, 300, 160, 0), repeats=3, width=10,
        )
        assert rate in (0.005, 0.01)

    def test_tie_breaks_toward_smaller_rate(self, monkeypatch):
        monkeypatch.setattr(data, "run_split", lambda task: (1.0, 1.0, None))
        ds = data.toy_generate(50, seed=0)
        rate = data.grid_search_dropout(
            ds, net.ARCH_MP_GELU, DIAG, net.HEAD_HETEROSCEDASTIC, self.tiny_tc(),
            repeats=2,
        )
        assert rate == 0.005

