"""CLI subcommands: outputs, schemas, determinism, self-check wiring."""

import json
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from mpbnn import checks, cli, data, training
from mpbnn import moments as m
from mpbnn import mc_oracle
from mpbnn import network as net


def synth_dataset(n=90, q=2, seed=5, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, q))
    y = x @ np.arange(1.0, q + 1.0) + noise * rng.standard_normal(n)
    return data.Dataset(x, y, "synth")


def write_synth_dataset(tmp_path, n=90, q=2, seed=5, noise=0.3):
    ds = synth_dataset(n, q, seed, noise)
    x, y = ds.features, ds.labels
    csv_path = tmp_path / "synth.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        header = ",".join(f"f{i}" for i in range(q))
        fh.write(f"{header},target\n")
        for i in range(n):
            cells = [repr(float(v)) for v in x[i]] + [repr(float(y[i]))]
            fh.write(",".join(cells) + "\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"synth": {"path": "synth.csv", "n": n, "q": q}}))
    return manifest


class TestProtocolDefaults:
    def test_toy_hyperparameters(self):
        assert cli.TOY_DEFAULTS == {"lr": 0.1, "epochs": 1000, "batch": 100,
                                    "dropout": 0.001}

    def test_benchmark_protocol_hyperparameters(self):
        assert cli.UCI_DEFAULTS == {"lr": 0.001, "epochs": 500, "batch": 256}
        assert data.GRID_RATES == (0.005, 0.01, 0.05, 0.1)


class TestToyCommand:
    def test_outputs_and_grid_span(self, tmp_path):
        written = cli.cmd_toy(tmp_path, seed=0, epochs=20)
        names = {os.path.basename(p) for p in written}
        assert names == {"toy_train.csv", "toy_mp_gelu.csv", "toy_relu.csv"}
        lines = (tmp_path / "toy_mp_gelu.csv").read_text().splitlines()
        assert lines[0].split(",")[:3] == ["x", "pred_mean", "pred_std"]
        xs = [float(l.split(",")[0]) for l in lines[1:]]
        assert len(xs) == 200
        assert xs[0] == -1.0 and xs[-1] == 1.0

    def test_same_seed_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.cmd_toy(a, seed=3, epochs=20)
        cli.cmd_toy(b, seed=3, epochs=20)
        for name in ("toy_train.csv", "toy_mp_gelu.csv", "toy_relu.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestUciCommand:
    def test_end_to_end_on_synthetic_manifest(self, tmp_path):
        manifest = write_synth_dataset(tmp_path)
        result = cli.cmd_uci(
            manifest, "synth", "mp_gelu", m.FULL, "heteroscedastic2",
            tmp_path / "out", seed=0, jobs=2, repeats=3, epochs=15, dropout=0.01,
        )
        assert result.dropout_rate == 0.01
        assert len(result.nll) == 3 and len(result.rmse) == 3
        assert result.runtime_s > 0
        tag = "synth_mp_gelu_full_heteroscedastic2"
        doc = json.loads((tmp_path / "out" / f"uci_{tag}.json").read_text())
        assert doc["dataset"] == "synth" and doc["n"] == 90 and doc["q"] == 2
        assert doc["blas_pinned"] is training.blas_pinned()
        csv_lines = (tmp_path / "out" / f"uci_{tag}.csv").read_text().splitlines()
        assert csv_lines[0] == "dataset,n,q,nll_mean,nll_se,rmse_mean,rmse_se,runtime_s"
        assert len(csv_lines) == 2

    @pytest.mark.parametrize("dropout, poisoned_call, where", [
        # 65 grid-search training rows: batches at 0, 32 and 64, so 6 gate
        # adjoints per epoch; call 9 is epoch 1, batch start 32, layer 4.
        (None, 9, "dataset 'synth', mp_gelu diag, dropout rate 0.005, grid-search split 0"),
        # 81 final training rows, 2 epochs per split: call 21 is split 1's.
        (0.01, 21, "dataset 'synth', mp_gelu diag, dropout rate 0.01, final split 1"),
    ])
    def test_diverging_split_names_its_context(self, monkeypatch, dropout, poisoned_call,
                                               where):
        rng = np.random.default_rng(2)
        ds = data.Dataset(rng.standard_normal((90, 2)), rng.standard_normal(90), "synth")
        calls = []
        orig = training._mp_gelu_bwd

        def poisoned(ctx, g_mean, g_cov, mode):
            calls.append(None)
            g_mean_in, g_cov_in = orig(ctx, g_mean, g_cov, mode)
            if len(calls) == poisoned_call:
                g_mean_in = np.full_like(g_mean_in, np.nan)
            return g_mean_in, g_cov_in

        monkeypatch.setattr(training, "_mp_gelu_bwd", poisoned)
        message = f"non-finite gradient in layer 4 (mp_gelu); epoch 1, batch start 32; {where}"
        with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
            cli.run_uci_protocol(ds, "mp_gelu", m.DIAG, "heteroscedastic2", jobs=1,
                                 repeats=2, epochs=2, batch=32, dropout=dropout)
        assert len(calls) == poisoned_call

    def test_shape_mismatch_is_hard_error(self, tmp_path):
        manifest = write_synth_dataset(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["synth"]["n"] = 91
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="manifest declares"):
            cli.cmd_uci(
                manifest, "synth", "mp_gelu", m.FULL, "heteroscedastic2",
                tmp_path / "out", repeats=2, epochs=2, dropout=0.01,
            )

    def test_unknown_dataset_rejected(self, tmp_path):
        manifest = write_synth_dataset(tmp_path)
        with pytest.raises(ValueError, match="not in manifest"):
            cli.cmd_uci(
                manifest, "nope", "relu", m.DIAG, "heteroscedastic2",
                tmp_path / "out", repeats=2, epochs=2, dropout=0.01,
            )

    @pytest.mark.parametrize("drop, dataset, message", [
        # An entry that was not asked for still needs a path.
        ("path", "synth", "dataset 'other' has no 'path'"),
        ("n", "other", "dataset 'other' has no 'n'"),
        ("q", "synth", "dataset 'other' has no 'q'"),
    ])
    def test_manifest_entry_missing_key_is_an_error(self, tmp_path, capsys, drop, dataset,
                                                    message):
        manifest = write_synth_dataset(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["other"] = dict(doc["synth"])
        del doc["other"][drop]
        manifest.write_text(json.dumps(doc))
        code = cli.main(["uci", "--manifest", str(manifest), "--dataset", dataset,
                         "--arch", "relu", "--out", str(tmp_path / "out")])
        assert code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: ") and message in last

    @pytest.mark.parametrize("text, message", [
        ("{synth: 1", "Expecting property name"),
        ('[{"path": "synth.csv", "n": 90, "q": 2}]', "manifest must be a JSON object"),
        ('{"synth": "synth.csv 90 2"}', "dataset 'synth' must be a JSON object"),
        ('{"synth": {"path": "synth.csv", "n": 90, "q": 2, "label_col": "last"}}',
         "dataset 'synth' has label_col 'last', not integer column indices"),
        ('{"synth": {"path": "synth.csv", "n": 90, "q": 2, "drop_cols": [0, "x"]}}',
         "dataset 'synth' has drop_cols [0, 'x'], not integer column indices"),
    ])
    def test_malformed_manifest_is_an_error(self, tmp_path, capsys, text, message):
        manifest = write_synth_dataset(tmp_path)
        manifest.write_text(text)
        code = cli.main(["uci", "--manifest", str(manifest), "--dataset", "synth",
                         "--arch", "relu", "--out", str(tmp_path / "out")])
        assert code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"error: {manifest}: ") and message in last

    @pytest.mark.parametrize("key, value, message", [
        ("path", 5, "dataset 'synth' has path 5, not a string"),
        ("n", "90", "dataset 'synth' has n '90', not a positive integer"),
        ("q", True, "dataset 'synth' has q True, not a positive integer"),
        ("n", 0, "dataset 'synth' has n 0, not a positive integer"),
    ])
    def test_manifest_entry_bad_value_is_an_error(self, tmp_path, capsys, key, value, message):
        manifest = write_synth_dataset(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["synth"][key] = value
        manifest.write_text(json.dumps(doc))
        code = cli.main(["uci", "--manifest", str(manifest), "--dataset", "synth",
                         "--arch", "relu", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert last.startswith(f"error: {manifest}: ") and message in last

    def test_out_of_range_column_is_an_error(self, tmp_path, capsys):
        manifest = write_synth_dataset(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["synth"]["label_col"] = 3
        manifest.write_text(json.dumps(doc))
        code = cli.main(["uci", "--manifest", str(manifest), "--dataset", "synth",
                         "--arch", "relu", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"error: {tmp_path / 'synth.csv'}: column index 3 out of range for 3 columns")

    def test_pool_matches_serial(self):
        """The process pool trains and scores every split exactly as the
        serial loop does, in the grid search and the final phase."""
        ds = synth_dataset()
        serial, pooled = (
            cli.run_uci_protocol(ds, "mp_gelu", m.DIAG, "heteroscedastic2", seed=4, jobs=jobs,
                                 repeats=3, epochs=3, batch=32)
            for jobs in (1, 2)
        )
        assert serial.dropout_rate == 0.05
        assert (pooled.dropout_rate, pooled.nll, pooled.rmse) == (
            serial.dropout_rate, serial.nll, serial.rmse)

    def test_protocol_outputs_pinned(self):
        """Grid search plus final splits on a fixed dataset and seed: a change
        to the splits, the standardization or the per-split seeds moves them."""
        ds = synth_dataset()
        got = {
            (arch, mode): (res.dropout_rate, res.nll, res.rmse)
            for arch, mode in (("mp_gelu", m.DIAG), ("relu", m.FULL))
            for res in [cli.run_uci_protocol(ds, arch, mode, "heteroscedastic2", seed=2,
                                             repeats=2, epochs=10, batch=32)]
        }
        assert got == {
            ("mp_gelu", m.DIAG): (0.01, [1.325623819640479, 1.6832024659931328],
                                  [0.9258582659115929, 1.2147139019933753]),
            ("relu", m.FULL): (0.01, [1.3246132136423672, 1.6781884499973434],
                               [0.9248019999101105, 1.2129679700247058]),
        }

    def test_grid_search_engaged_when_rate_unset(self, tmp_path, monkeypatch):
        manifest = write_synth_dataset(tmp_path)
        seen = {}

        def fake_search(ds, arch, mode, head, tc, **kw):
            seen["rates"] = data.GRID_RATES
            return 0.005

        monkeypatch.setattr(cli.data, "grid_search_dropout", fake_search)
        result = cli.cmd_uci(
            manifest, "synth", "relu", m.DIAG, "heteroscedastic2",
            tmp_path / "out", repeats=2, epochs=2, dropout=None,
        )
        assert seen["rates"] == (0.005, 0.01, 0.05, 0.1)
        assert result.dropout_rate == 0.005


class TestTaskPool:
    """`run_uci_protocol` maps both phases over one pool, never of more
    workers than a phase has tasks, and leaves no worker behind."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker counts of the pools `data` starts, in order."""
        started = []

        class Recorder(ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(data, "ProcessPoolExecutor", Recorder)
        return started

    @pytest.mark.parametrize("jobs, dropout, workers", [
        (2, None, [2]),     # one pool for the grid search and the final phase
        (3, None, [3]),     # 8 grid-search tasks
        (3, 0.01, [2]),     # 2 final tasks
        (1, None, []),
    ])
    def test_one_pool_capped_at_the_larger_phase(self, pools, jobs, dropout, workers):
        cli.run_uci_protocol(synth_dataset(), "relu", m.DIAG, "heteroscedastic2", jobs=jobs,
                             repeats=2, epochs=2, batch=32, dropout=dropout)
        assert pools == workers
        assert multiprocessing.active_children() == []

    def test_run_tasks_alone_caps_its_workers(self, pools):
        assert data.run_tasks(abs, [-1, -2], jobs=5) == [1, 2]
        assert data.run_tasks(abs, [-3], jobs=5) == [3]
        assert pools == [2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("dropout, where", [
        (None, "dropout rate 0.005, grid-search split 0"),
        (0.01, "dropout rate 0.01, final split 0"),
    ])
    def test_diverging_pooled_split_names_its_context(self, monkeypatch, pools, dropout,
                                                      where):
        orig = training._mp_gelu_bwd

        def poisoned(ctx, g_mean, g_cov, mode):
            g_mean_in, g_cov_in = orig(ctx, g_mean, g_cov, mode)
            return np.full_like(g_mean_in, np.nan), g_cov_in

        monkeypatch.setattr(training, "_mp_gelu_bwd", poisoned)  # before the pool forks
        message = ("non-finite gradient in layer 4 (mp_gelu); epoch 0, batch start 0; "
                   f"dataset 'synth', mp_gelu diag, {where}")
        with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
            cli.run_uci_protocol(synth_dataset(), "mp_gelu", m.DIAG, "heteroscedastic2",
                                 jobs=2, repeats=2, epochs=2, batch=32, dropout=dropout)
        assert pools == [2]
        assert multiprocessing.active_children() == []

    def test_no_repeats_is_an_error(self, tmp_path, capsys):
        manifest = write_synth_dataset(tmp_path)
        code = cli.main(["uci", "--manifest", str(manifest), "--dataset", "synth",
                         "--arch", "relu", "--out", str(tmp_path / "out"), "--repeats", "0"])
        assert code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == "error: repeats must be >= 1, got 0"


class TestBenchmarkCommand:
    def test_counters_and_pipeline_depth(self, tmp_path):
        rows = cli.cmd_benchmark(widths=(16,), mode=m.DIAG, repetitions=30,
                                 out_path=tmp_path / "bench.csv")
        row = rows[0]
        # two gated layers of width 16: n erf each, no exp anywhere
        assert row["mp_gelu_erf"] == 2 * 16
        assert row["mp_gelu_exp"] == 0
        # each rectifier layer burns >= 2n transcendental calls
        assert row["relu_erf"] + row["relu_exp"] + row["relu_sqrt"] >= 2 * (2 * 16)
        assert row["relu_exp"] == 2 * 16
        header = (tmp_path / "bench.csv").read_text().splitlines()[0]
        assert header.startswith("width,mode,mp_gelu_ns,relu_ns,speedup")

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_no_repetitions_is_an_error(self, capsys, reps):
        code = cli.main(["benchmark", "--widths", "8", "--reps", reps])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: repetitions must be >= 1, got {reps}")

    def test_no_widths_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="^no widths to benchmark$"):
            cli.cmd_benchmark(widths=(), out_path=tmp_path / "bench.csv")
        assert not (tmp_path / "bench.csv").exists()

    def test_gated_pipeline_has_fewer_layers(self):
        from mpbnn import network as net

        gated = net.build_mp_gelu_model(20, 20)
        rect = net.build_relu_model(20, 20)
        assert len(gated.layers) < len(rect.layers)

    def test_speedup_positive_at_width_20_full(self):
        rows = cli.cmd_benchmark(widths=(20,), mode=m.FULL, repetitions=60)
        assert rows[0]["speedup"] > 1.0


class TestCheckCommand:
    def test_fresh_checkout_passes_quick_level(self, capsys):
        assert cli.cmd_check("quick") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_injected_variance_error_detected(self, monkeypatch, capsys):
        orig = m._mp_gelu_fwd

        def corrupted(mean, cov, mode):
            out_mean, out_cov, ctx = orig(mean, cov, mode)
            if mode == m.DIAG:
                out_cov = out_cov * 1.5
            else:
                out_cov = out_cov.copy()  # batch-last (n, n, B)
                np.einsum("ii...->...i", out_cov)[...] *= 1.5
            return out_mean, out_cov, ctx

        monkeypatch.setattr(m, "_mp_gelu_fwd", corrupted)
        assert cli.cmd_check("quick") != 0
        assert "FAIL" in capsys.readouterr().out

    def test_level_controls_sample_count(self, monkeypatch):
        recorded = []
        real = mc_oracle.mc_layer_moments

        def recording(layer, mv, samples, seed, **kw):
            recorded.append(samples)
            return real(layer, mv, samples, seed, **kw)

        monkeypatch.setattr(mc_oracle, "mc_layer_moments", recording)
        monkeypatch.setattr(checks, "check_gradients", lambda seed: [])
        checks.run_self_checks("quick", 0)
        assert set(recorded) == {10**4}

    @pytest.mark.parametrize("seeds, draws_per_case", [
        ("check", 1),  # `mpbnn check`: one seed per case
        ("criterion 1", 4),  # one seed per kind and case, shared by both modes
    ])
    def test_layer_oracle_shares_normals_within_a_case(self, monkeypatch, seeds, draws_per_case):
        """The calls of a case that share a seed share one draw of its
        normals, with the results of unshared int-seeded calls."""
        if seeds == "check":
            mc_seed = lambda k, case: data.derived_seed(5, case)  # noqa: E731
        else:
            mc_seed = lambda k, case: data.derived_seed(99, k, case)  # noqa: E731
        drawn = []
        real = mc_oracle.draw_normals

        def counting(samples, n, seed):
            drawn.append(seed)
            return real(samples, n, seed)

        monkeypatch.setattr(mc_oracle, "draw_normals", counting)
        shared = checks.layer_oracle(3, 2000, 5, mc_seed)
        assert len(drawn) == 3 * draws_per_case
        # Handing each call its int seed draws the normals once per call.
        monkeypatch.setattr(mc_oracle, "draw_normals", lambda samples, n, seed: seed)
        assert shared == checks.layer_oracle(3, 2000, 5, mc_seed)
        assert list(shared) == [(kind, mode) for mode in (m.FULL, m.DIAG)
                                for kind in net._FWD]

    def test_check_runs_the_shared_layer_oracle(self, monkeypatch, capsys):
        """`mpbnn check` reaches `checks.layer_oracle`, the checker criterion 1
        runs, with each case's seed derived from the check's seed alone."""
        calls = []
        real = checks.layer_oracle

        def recording(cases, samples, seed, mc_seed):
            calls.append((cases, samples, seed, [mc_seed(k, 1) for k in range(4)]))
            return real(cases, samples, seed, mc_seed)

        monkeypatch.setattr(checks, "layer_oracle", recording)
        monkeypatch.setattr(checks, "objective_oracle", lambda *args: (0.0, []))
        monkeypatch.setattr(checks, "check_gradients", lambda seed: [])
        assert cli.cmd_check("quick", 3) == 0
        assert calls == [(3, 10**4, 3, [data.derived_seed(3, 1)] * 4)]
        assert "9/9 checks passed" in capsys.readouterr().out

    @staticmethod
    def check_lines(monkeypatch, capsys, seed, section):
        """The lines of one oracle section that `mpbnn check --level quick
        --seed <seed>` prints."""
        monkeypatch.setattr(checks, "check_gradients", lambda seed: [])
        cli.cmd_check("quick", seed)
        return [l for l in capsys.readouterr().out.splitlines() if f" {section} " in l]

    def test_layer_oracle_lines_pinned(self, monkeypatch, capsys):
        """Quick-level oracle lines of four seeds, with the known 4-se false
        alarms of seeds 9, 13 and 21 (see `run_self_checks`): a change to a
        bound, a seed derivation or a layer rule moves them."""

        def lines(seed):
            return self.check_lines(monkeypatch, capsys, seed, "moment_oracle")

        assert lines(0) == [
            "PASS moment_oracle dense full: worst dev 1.798 se",
            "PASS moment_oracle dropout full: worst dev 1.767 se",
            "PASS moment_oracle mp_gelu full: worst dev 2.789 se",
            "PASS moment_oracle relu full: worst dev 2.358 se",
            "PASS moment_oracle dense diag: worst dev 3.042 se",
            "PASS moment_oracle dropout diag: worst dev 2.501 se",
            "PASS moment_oracle mp_gelu diag: worst dev 1.633 se",
            "PASS moment_oracle relu diag: worst dev 2.257 se",
        ]
        for seed, fail in ((13, "mp_gelu full: worst dev 4.208 se"),
                           (21, "relu full: worst dev 4.020 se"),
                           (9, "relu diag: worst dev 4.079 se")):
            got = lines(seed)
            assert len(got) == 8
            assert [l for l in got if l.startswith("FAIL")] == [f"FAIL moment_oracle {fail}"]

    def test_objective_lines_pinned(self, monkeypatch, capsys):
        """Quick-level objective lines of seed 0 and of seed 8, whose known
        4-se false alarm (see `run_self_checks`) is the objective's: a
        change to the bound, the seed derivation or the objective moves
        them."""
        assert self.check_lines(monkeypatch, capsys, 0, "objective_oracle") == [
            "PASS objective_oracle eq_ll: worst dev 1.302 se"]
        assert self.check_lines(monkeypatch, capsys, 8, "objective_oracle") == [
            "FAIL objective_oracle eq_ll: worst dev 4.263 se"]

    def test_gradient_lines_pinned(self):
        """Seed 0's finite-difference lines: a change to the probe loss, the
        analytic gradients or the tolerances moves them."""
        got = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
               for name, ok, detail in checks.check_gradients(0)]
        assert got == [
            "PASS gradient_fd mp_gelu full heteroscedastic2: worst rel 1.82e-08",
            "PASS gradient_fd mp_gelu full homoscedastic1: worst rel 1.16e-07",
            "PASS gradient_fd mp_gelu diag heteroscedastic2: worst rel 7.68e-09",
            "PASS gradient_fd mp_gelu diag homoscedastic1: worst rel 1.19e-08",
            "PASS gradient_fd relu full heteroscedastic2: worst rel 1.74e-08",
            "PASS gradient_fd relu full homoscedastic1: worst rel 1.12e-07",
            "PASS gradient_fd relu diag heteroscedastic2: worst rel 1.13e-08",
            "PASS gradient_fd relu diag homoscedastic1: worst rel 9.66e-09",
        ]

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            checks.run_self_checks("bogus")


class TestMainWiring:
    def test_toy_via_main(self, tmp_path):
        code = cli.main(["toy", "--out", str(tmp_path), "--seed", "1", "--epochs", "5"])
        assert code == 0
        assert (tmp_path / "toy_relu.csv").exists()

    def test_check_via_main(self, capsys):
        assert cli.main(["check", "--level", "quick", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 18
        assert all(line.startswith("PASS ") for line in lines[:17])
        assert lines[17] == "17/17 checks passed (level=quick)"

    def test_uci_via_main(self, tmp_path, capsys):
        manifest = write_synth_dataset(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["uci", "--manifest", str(manifest), "--dataset", "synth",
                         "--arch", "mp_gelu", "--out", str(out), "--repeats", "2",
                         "--epochs", "2", "--dropout", "0.01", "--jobs", "1"])
        assert code == 0
        line, = capsys.readouterr().out.splitlines()
        assert line.startswith("synth mp_gelu full head=heteroscedastic2 rate=0.01: NLL ")
        tag = "synth_mp_gelu_full_heteroscedastic2"
        assert sorted(p.name for p in out.iterdir()) == [f"uci_{tag}.csv", f"uci_{tag}.json"]

    def test_uci_jobs_default_to_the_usable_cpus(self, tmp_path, monkeypatch):
        """Without `--jobs`, `uci` runs one worker per CPU of the process's
        affinity mask, not per CPU of the machine."""
        received = []

        def recording(*args, **protocol):
            received.append(protocol["jobs"])
            return cli.ExperimentResult("synth", 90, 2, "relu", m.FULL, "heteroscedastic2",
                                        0.01, 0, [1.0], [1.0], 1.0, True)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(cli, "cmd_uci", recording)
        assert cli.main(["uci", "--manifest", "manifest.json", "--dataset", "synth",
                         "--arch", "relu", "--out", str(tmp_path)]) == 0
        assert received == [1]

    def test_config_file_supplies_defaults_cli_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "epochs": 5}))
        out1 = tmp_path / "o1"
        code = cli.main(["--config", str(cfg), "toy", "--out", str(out1)])
        assert code == 0
        out2 = tmp_path / "o2"
        code = cli.main(
            ["--config", str(cfg), "toy", "--out", str(out2), "--seed", "7"]
        )
        assert code == 0
        assert (out1 / "toy_relu.csv").read_bytes() == (out2 / "toy_relu.csv").read_bytes()

    def test_config_entries_parse_as_flags(self, tmp_path):
        """A config value is converted by its flag's parser: "5" is the int 5.
        A key that names no flag of the subcommand, or a null, is ignored."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": "5", "seed": 1, "level": "bogus", "lr": None}))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["--config", str(cfg), "toy", "--out", str(out1)]) == 0
        assert cli.main(["toy", "--out", str(out2), "--seed", "1", "--epochs", "5"]) == 0
        for name in ("toy_train.csv", "toy_mp_gelu.csv", "toy_relu.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("widths, expected", [([8, 12], ["8", "12"]), (20, ["20"])])
    def test_benchmark_widths_from_config(self, tmp_path, capsys, widths, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"widths": widths, "cov": "diag", "reps": 2}))
        assert cli.main(["--config", str(cfg), "benchmark"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("width,mode,")
        assert [line.split(",")[:2] for line in lines[1:]] == [[w, "diag"] for w in expected]

    @pytest.mark.parametrize("text, message", [
        (None, "No such file"),
        ("{epochs: 5", "Expecting property name"),
        ("[1, 2]", "config must be a JSON object"),
    ])
    def test_unusable_config_file_is_an_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        code = cli.main(["--config", str(cfg), "toy", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert str(cfg) in err

    @pytest.mark.parametrize("argv, entry, message", [
        (["toy", "--out", "unused"], {"epochs": "five"},
         "argument --epochs: invalid int value: 'five'"),
        (["toy", "--out", "unused"], {"lr": "fast"}, "argument --lr: invalid float value: 'fast'"),
        (["benchmark"], {"widths": [8, "x"]}, "argument --widths: invalid"),
        (["check"], {"level": "bogus"}, "argument --level: invalid choice: 'bogus'"),
    ])
    def test_config_value_rejected_as_its_flag_would_be(self, tmp_path, capsys, argv, entry,
                                                        message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(cfg), *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_unpinned_blas_warns_once(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(training, "threadpool_limits", None)
        monkeypatch.setattr(training, "_openblas_threads", lambda: ())
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert cli.main(["toy", "--out", str(tmp_path), "--epochs", "1"]) == 0
        assert capsys.readouterr().err.count("warning: BLAS is not pinned") == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert cli.main(["toy", "--out", str(tmp_path), "--epochs", "1"]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_error_exit_code(self, tmp_path):
        code = cli.main(
            ["uci", "--manifest", str(tmp_path / "missing.json"), "--dataset", "x",
             "--arch", "relu", "--out", str(tmp_path)]
        )
        assert code == 2
