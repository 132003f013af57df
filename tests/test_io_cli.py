import csv
import json

import numpy as np
import pytest

from hereditas.cli import main, split_sizes
from hereditas.errors import InvalidDimensionError
from hereditas.io import atomic_write_text, read_table
from hereditas.simulate import build_truth, preset
from hereditas.terms import canonical_terms


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture()
def dataset_csv(tmp_path):
    """A small Setting-1-style dataset with a y column."""
    rng = np.random.default_rng(99)
    truth = build_truth(preset("setting1"))
    n = 260
    x = rng.standard_normal((n, 10))
    y = truth.signal(x) + rng.normal(0, 8.0, n)
    path = tmp_path / "data.csv"
    write_csv(path, [f"x{j}" for j in range(10)] + ["y"],
              np.column_stack([x, y]).tolist())
    return path


class TestSplitSizes:
    def test_reference_split(self):
        assert split_sizes(449, (3, 1, 1)) == (269, 90, 90)

    def test_exact_multiples(self):
        assert split_sizes(500, (3, 1, 1)) == (300, 100, 100)

    def test_sums_to_n(self):
        for n in range(10, 200, 7):
            parts = split_sizes(n, (3, 1, 1))
            assert sum(parts) == n


class TestReadTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2], [3, 4.5]])
        t = read_table(path)
        assert t.columns == ("a", "b")
        np.testing.assert_array_equal(t.data, [[1.0, 2.0], [3.0, 4.5]])

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2], ["oops", 4]])
        with pytest.raises(InvalidDimensionError) as err:
            read_table(path)
        assert "row 3" in str(err.value) and "'a'" in str(err.value)

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "a"], [[1, 2]])
        with pytest.raises(InvalidDimensionError):
            read_table(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "t.csv"
        with open(path, "w") as fh:
            fh.write("a,b\n1,2\n3\n")
        with pytest.raises(InvalidDimensionError):
            read_table(path)


class TestAtomicWrite:
    def test_no_tmp_left_behind(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestSimulateCommand:
    def test_smoke_and_determinism_across_threads(self, tmp_path):
        args = ["simulate", "--preset", "setting1", "--seed", "7", "--replicates", "2",
                "--methods", "lasso", "--schemes", "hierarchical"]
        rc1 = main(args + ["--threads", "1", "--out-dir", str(tmp_path / "a")])
        rc2 = main(args + ["--threads", "3", "--out-dir", str(tmp_path / "b")])
        assert rc1 == 0 and rc2 == 0
        ja = (tmp_path / "a" / "setting1.report.json").read_bytes()
        jb = (tmp_path / "b" / "setting1.report.json").read_bytes()
        assert ja == jb
        doc = json.loads(ja)
        cell = doc["cells"][0]
        assert cell["aggregates"]["msh"]["mean"] == 1.0
        assert (tmp_path / "a" / "setting1.report.tsv").exists()
        assert (tmp_path / "a" / "setting1.manifest.json").exists()

    def test_unknown_preset_exit_2(self, capsys):
        rc = main(["simulate", "--preset", "bogus"])
        assert rc == 2
        assert "setting1" in capsys.readouterr().err

    def test_config_file(self, tmp_path):
        cfg = preset("setting1").to_json_dict()
        cfg.update(replicates=1, n_train=80, n_valid=80, n_test=100, name="mini")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path),
                   "--methods", "lasso"])
        assert rc == 0
        assert (tmp_path / "mini.report.json").exists()

    def test_bad_method_exit_2(self, capsys):
        rc = main(["simulate", "--preset", "setting1", "--methods", "ridge"])
        assert rc == 2

    def test_median_iqr_preset_runs(self, tmp_path):
        rc = main(["simulate", "--preset", "R3", "--replicates", "2",
                   "--methods", "lasso", "--schemes", "hierarchical",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "R3.report.json").read_text())
        assert doc["config"]["estimator"] == "median-iqr"
        assert doc["config"]["x_distribution"] == "lognormal-0-1"
        assert doc["cells"][0]["aggregates"]["msh"]["mean"] == 1.0
        assert doc["snr"]["method"] == "monte-carlo"


class TestFitCommand:
    def test_hierarchical_verdict_satisfied(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "fit"
        rc = main(["fit", str(dataset_csv), "--method", "lasso",
                   "--scheme", "hierarchical", "--seed", "5", "--out-dir", str(out)])
        assert rc == 0
        assert "heredity\tsatisfied" in capsys.readouterr().out
        summary = json.loads((out / "data.lasso.hierarchical.fit.json").read_text())
        assert summary["heredity"] == "satisfied"
        assert summary["split_sizes"] == {"train": 156, "valid": 52, "test": 52}
        coef_rows = list(csv.reader(open(out / "data.lasso.hierarchical.coefficients.csv")))
        assert coef_rows[0] == ["term", "value", "scale"]
        assert coef_rows[1][0] == "(Intercept)"
        assert len(coef_rows) == 2 + 65  # intercept + full second-order set

    def test_regular_scheme_reports_verdict(self, dataset_csv, tmp_path):
        out = tmp_path / "fit"
        rc = main(["fit", str(dataset_csv), "--method", "lasso", "--scheme", "regular",
                   "--seed", "5", "--out-dir", str(out), "--format", "json"])
        assert rc == 0
        summary = json.loads((out / "data.lasso.regular.fit.json").read_text())
        assert summary["heredity"] in ("satisfied", "violated")
        if summary["heredity"] == "violated":
            assert summary["violators"]

    def test_stepwise_auto_null_start_when_wide(self, tmp_path):
        rng = np.random.default_rng(1)
        n, p = 40, 8  # expanded width 52 > n: full start infeasible
        x = rng.standard_normal((n, p))
        y = x[:, 0] + rng.standard_normal(n)
        path = tmp_path / "wide.csv"
        write_csv(path, [f"g{j}" for j in range(p)] + ["y"],
                  np.column_stack([x, y]).tolist())
        rc = main(["fit", str(path), "--method", "stepwise", "--seed", "3",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "wide.stepwise.hierarchical.fit.json").read_text())
        assert summary["tuning"]["start"] == "null"

    def test_stepwise_start_from_options_file_unless_flag_given(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((300, 4))  # 14 expanded columns
        y = x.sum(axis=1) + x[:, 0] * x[:, 1] + rng.standard_normal(300)
        path = tmp_path / "four.csv"
        write_csv(path, ["a", "b", "c", "d", "y"], np.column_stack([x, y]).tolist())
        opts = tmp_path / "stepwise.json"
        opts.write_text(json.dumps({"start": "null", "max_selected": 3}))
        args = ["fit", str(path), "--method", "stepwise", "--stepwise-options", str(opts),
                "--out-dir", str(tmp_path)]
        assert main(args) == 0
        summary = json.loads((tmp_path / "four.stepwise.hierarchical.fit.json").read_text())
        assert summary["tuning"]["start"] == "null"
        capsys.readouterr()
        assert main(args + ["--start", "full"]) == 2
        assert "exceeds max_selected=3" in capsys.readouterr().err

    # On the regular-scheme splits other than (0, 3), the Cholesky factor of
    # the singular Gram has a tiny positive pivot; the rank guard must catch it.
    @pytest.mark.parametrize("scheme,data_seed,fit_seed", [
        pytest.param("hierarchical", 0, 3, id="hierarchical"),
        pytest.param("regular", 0, 3, id="regular"),
        pytest.param("regular", 0, 1, id="regular-data0-seed1"),
        pytest.param("regular", 5, 1, id="regular-data5-seed1"),
        pytest.param("regular", 5, 3, id="regular-data5-seed3"),
    ])
    def test_stepwise_duplicate_column_exit_2(self, tmp_path, capsys, scheme, data_seed,
                                              fit_seed):
        rng = np.random.default_rng(data_seed)
        x = rng.standard_normal((150, 2))
        y = x[:, 0] + x[:, 0] * x[:, 1] + rng.standard_normal(150)
        path = tmp_path / "dup.csv"
        write_csv(path, ["a", "b", "a_copy", "y"], np.column_stack([x, x[:, 0], y]).tolist())
        rc = main(["fit", str(path), "--method", "stepwise", "--scheme", scheme,
                   "--seed", str(fit_seed), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "rank deficient" in capsys.readouterr().err

    def test_manifest_hash_depends_on_scheme(self, dataset_csv, tmp_path):
        hashes = set()
        for scheme in ("hierarchical", "regular"):
            rc = main(["fit", str(dataset_csv), "--scheme", scheme, "--seed", "5",
                       "--out-dir", str(tmp_path)])
            assert rc == 0
            manifest = tmp_path / f"data.lasso.{scheme}.manifest.json"
            hashes.add(json.loads(manifest.read_text())["config_hash"])
        assert len(hashes) == 2

    def test_missing_response_exit_2(self, dataset_csv, tmp_path, capsys):
        rc = main(["fit", str(dataset_csv), "--response", "zz", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_non_numeric_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        write_csv(path, ["a", "y"], [[1, 2], ["x", 3]])
        rc = main(["fit", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "column 'a'" in capsys.readouterr().err


class TestStandardizeCommand:
    def test_three_columns_become_nine(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "m.csv"
        write_csv(path, ["a", "b", "c"], (rng.standard_normal((30, 3)) + 0.5).tolist())
        rc = main(["standardize", str(path), "--scheme", "hierarchical",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        out = read_table(tmp_path / "m.hierarchical.standardized.csv")
        assert list(out.columns) == canonical_terms(3).labels()
        for j in range(3):  # standardized mains
            assert abs(out.data[:, j].mean()) < 1e-12
            assert abs(out.data[:, j].std(ddof=1) - 1) < 1e-12
        params = json.loads((tmp_path / "m.hierarchical.params.json").read_text())
        assert params["estimator"] == "mean-sd"
        assert len(params["centers"]) == 3

    def test_regular_every_column_standardized(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "m.csv"
        write_csv(path, ["a", "b", "c"], (rng.standard_normal((40, 3)) + 1.0).tolist())
        rc = main(["standardize", str(path), "--scheme", "regular",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        out = read_table(tmp_path / "m.regular.standardized.csv")
        assert out.data.shape[1] == 9
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_degenerate_column_exit_2(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        write_csv(path, ["a", "b"], [[1, 1], [2, 1], [3, 1]])
        rc = main(["standardize", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "X2" in capsys.readouterr().err


class TestReportCommand:
    def test_renders_saved_json(self, tmp_path, capsys):
        rc = main(["simulate", "--preset", "setting1", "--replicates", "2",
                   "--methods", "lasso", "--schemes", "hierarchical,regular",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["report", str(tmp_path / "setting1.report.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("metric\tstat\t")
        assert "lasso/hierarchical" in out and "msh" in out
        assert out == (tmp_path / "setting1.report.tsv").read_text()

    def test_settings_as_columns_for_multiple_reports(self, tmp_path, capsys):
        for name in ("setting1", "setting4"):
            cfg = preset(name).to_json_dict()
            cfg.update(replicates=2, n_train=100, n_valid=100, n_test=200)
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            rc = main(["simulate", "--config", str(cfg_path), "--methods", "lasso",
                       "--schemes", "hierarchical", "--out-dir", str(tmp_path)])
            assert rc == 0
        capsys.readouterr()
        rc = main(["report", str(tmp_path / "setting1.report.json"),
                   str(tmp_path / "setting4.report.json")])
        assert rc == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "setting1:lasso/hierarchical" in header
        assert "setting4:lasso/hierarchical" in header


class TestSelectorOptionFiles:
    def test_lasso_options_json_respected(self, dataset_csv, tmp_path):
        opts = tmp_path / "lasso.json"
        opts.write_text(json.dumps({"n_lambda": 10}))
        out = tmp_path / "fit"
        rc = main(["fit", str(dataset_csv), "--method", "lasso", "--seed", "5",
                   "--lasso-options", str(opts), "--out-dir", str(out)])
        assert rc == 0
        summary = json.loads((out / "data.lasso.hierarchical.fit.json").read_text())
        assert len(summary["tuning"]["path"]["lambdas"]) == 10

    def test_max_iter_zero_exit_2(self, dataset_csv, tmp_path, capsys):
        opts = tmp_path / "lasso.json"
        opts.write_text(json.dumps({"max_iter": 0}))
        rc = main(["fit", str(dataset_csv), "--method", "lasso", "--lasso-options", str(opts),
                   "--out-dir", str(tmp_path / "fit")])
        assert rc == 2
        assert "max_iter must be at least 1" in capsys.readouterr().err

    def test_unknown_option_field_exit_2(self, dataset_csv, tmp_path, capsys):
        opts = tmp_path / "lasso.json"
        opts.write_text(json.dumps({"bogus": 1}))
        rc = main(["fit", str(dataset_csv), "--lasso-options", str(opts),
                   "--out-dir", str(tmp_path)])
        assert rc != 0


SIM_ONE = ["simulate", "--preset", "setting1", "--seed", "7", "--replicates", "1"]


class TestManifestHash:
    @pytest.mark.parametrize("command,variant", [
        (SIM_ONE + ["--methods", "lasso", "--schemes", "hierarchical"],
         ["--lasso-options", "n_lambda_5.json"]),
        (SIM_ONE, ["--methods", "lasso"]),
        (["standardize", "data.csv"], ["--estimator", "median-iqr"]),
    ], ids=["simulate-lasso-options", "simulate-methods", "standardize-estimator"])
    def test_hash_covers_every_input(self, dataset_csv, tmp_path, monkeypatch, command,
                                     variant):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "n_lambda_5.json").write_text(json.dumps({"n_lambda": 5}))
        hashes = []
        for out, extra in (("base", []), ("variant", variant)):
            assert main(command + extra + ["--out-dir", out]) == 0
            (manifest,) = (tmp_path / out).glob("*.manifest.json")
            hashes.append(json.loads(manifest.read_text())["config_hash"])
        assert hashes[0] != hashes[1]

    @pytest.mark.parametrize("command", [
        ["fit", "d.csv", "--method", "stepwise", "--scheme", "regular", "--response", "y"],
        ["standardize", "d.csv", "--response", "y"],
    ], ids=["fit", "standardize"])
    def test_hash_covers_data_bytes(self, tmp_path, monkeypatch, command):
        # Two different datasets written in turn to the same path.
        monkeypatch.chdir(tmp_path)
        hashes = []
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((60, 2))
            write_csv(tmp_path / "d.csv", ["a", "b", "y"],
                      np.column_stack([x, x[:, 0] + rng.standard_normal(60)]).tolist())
            out = f"out{seed}"
            assert main(command + ["--out-dir", out]) == 0
            (manifest,) = (tmp_path / out).glob("*.manifest.json")
            hashes.append(json.loads(manifest.read_text())["config_hash"])
        assert hashes[0] != hashes[1]


class TestStandardizeRoundTrip:
    def test_back_transform_reproduces_standardized_fit(self, tmp_path):
        # The written matrix + params must carry everything needed to move a
        # model fitted on the standardized file back to the raw scale.
        rng = np.random.default_rng(12)
        x = rng.standard_normal((60, 3)) + 0.4
        y = x[:, 0] + x[:, 0] * x[:, 1] + rng.standard_normal(60)
        data_path = tmp_path / "m.csv"
        write_csv(data_path, ["a", "b", "c"], x.tolist())
        rc = main(["standardize", str(data_path), "--scheme", "hierarchical",
                   "--out-dir", str(tmp_path)])
        assert rc == 0

        from hereditas.selectors import lasso_fit
        from hereditas.standardize import HIER_STD, LocationScale, back_transform_hierarchical
        from hereditas.terms import expand

        z = read_table(tmp_path / "m.hierarchical.standardized.csv")
        params = LocationScale.from_json_dict(
            json.loads((tmp_path / "m.hierarchical.params.json").read_text())
        )
        terms = canonical_terms(3)
        assert list(z.columns) == terms.labels()
        fit = lasso_fit(z.data, y, 0.02, terms=terms, scale_tag=HIER_STD)
        raw = back_transform_hierarchical(fit.coefs, params, terms)
        pred_std = fit.coefs.predict(z.data)
        pred_raw = raw.predict(expand(x, terms))
        np.testing.assert_allclose(pred_raw, pred_std, rtol=1e-10,
                                   atol=1e-10 * np.max(np.abs(pred_std)))
