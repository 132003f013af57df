import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hereditas
from hereditas import cli
from hereditas.cli import main, split_sizes
from hereditas.errors import InconsistentParamsError, InvalidDimensionError
from hereditas.io import _is_number, atomic_write_text, from_json_fields, read_table, to_json
from hereditas.selectors import LassoOptions, StepwiseOptions
from hereditas.simulate import CampaignReport, SettingConfig, build_truth, preset
from hereditas.terms import canonical_terms, expand


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark
FOUR_MAINS = os.path.join(os.path.dirname(__file__), "data", "four_mains.csv")


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _four_mains_csv(tmp_path):
    """300 rows of four Gaussian mains (14 expanded columns) and a y column."""
    rng = np.random.default_rng(6)
    x = rng.standard_normal((300, 4))
    y = x.sum(axis=1) + x[:, 0] * x[:, 1] + rng.standard_normal(300)
    path = tmp_path / "four.csv"
    write_csv(path, ["a", "b", "c", "d", "y"], np.column_stack([x, y]).tolist())
    return path


@pytest.fixture()
def dataset_csv(tmp_path):
    """A small Setting-1-style dataset with a y column."""
    rng = np.random.default_rng(99)
    truth = build_truth(preset("setting1"))
    n = 260
    x = rng.standard_normal((n, 10))
    y = expand(x, truth.terms) @ truth.coefficient_array() + rng.normal(0, 8.0, n)
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
        header, data, sha256 = read_table(path)
        assert header == ["a", "b"]
        np.testing.assert_array_equal(data, [[1.0, 2.0], [3.0, 4.5]])
        assert sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2], ["oops", 4]])
        with pytest.raises(InvalidDimensionError) as err:
            read_table(path)
        assert "row 3, column 'a': non-numeric cell 'oops'" in str(err.value)

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "a"], [[1, 2]])
        with pytest.raises(InvalidDimensionError):
            read_table(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "t.csv"
        with open(path, "w") as fh:
            fh.write("a,b\n1,2\n\n3\n")
        with pytest.raises(InvalidDimensionError, match="row 4 has 1 cells, expected 2"):
            read_table(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_cell_named(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2], [3, 4], [5, cell]])
        with pytest.raises(InvalidDimensionError, match="row 4, column 'b': non-finite value"):
            read_table(path)

    def test_hash_is_a_cell_not_a_comment(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3,#\n")
        with pytest.raises(InvalidDimensionError, match="row 3, column 'b': non-numeric cell '#'"):
            read_table(path)

    def test_quoted_number_is_read(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('a,b\n1,"2.5"\n')
        np.testing.assert_array_equal(read_table(path)[1], [[1.0, 2.5]])

    def test_whitespace_only_line_is_a_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n   \n3,4\n")
        with pytest.raises(InvalidDimensionError, match="row 3 has 1 cells, expected 2"):
            read_table(path)

    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662"])
    def test_cell_that_only_float_reads_is_named(self, tmp_path, cell):
        # Python's float() reads underscores and non-ASCII digits; numpy does not.
        path = tmp_path / "t.csv"
        path.write_text(f"a,y\n{cell},2\n", encoding="utf-8")
        with pytest.raises(InvalidDimensionError,
                           match=f"row 2, column 'a': non-numeric cell '{cell}'"):
            read_table(path)

    def test_separator_whitespace_is_stripped_as_numpy_strips_it(self, tmp_path):
        # numpy reads "1\x1c" as 1 (str.isspace counts \x1c-\x1f), so the
        # file's fault is the inf in row 3, not that cell.
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n1\x1c,2\n3,inf\n")
        with pytest.raises(InvalidDimensionError, match="row 3, column 'b': non-finite value"):
            read_table(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(InvalidDimensionError, match="empty file"):
            read_table(path)

    def test_header_only_file_has_no_data_rows_and_no_warning(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDimensionError, match="no data rows"):
                read_table(path)

    def test_leading_bom_is_skipped_and_hashed(self, tmp_path):
        # A spreadsheet's "CSV UTF-8" export starts with a byte-order mark.
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(b"y,a\n1,2\n3,5\n")
        bom.write_bytes(BOM + plain.read_bytes())
        header, values, sha256 = read_table(plain)
        bom_header, bom_values, bom_sha256 = read_table(bom)
        assert bom_header == header == ["y", "a"]
        np.testing.assert_array_equal(bom_values, values)
        assert sha256 == hashlib.sha256(plain.read_bytes()).hexdigest() != bom_sha256


def _numpy_reads(cell: str) -> bool:
    """Whether numpy's parser, as read_table calls it, reads the one-cell body."""
    try:
        np.loadtxt([cell + "\n"], delimiter=",", comments=None, ndmin=2, quotechar='"')
    except ValueError:
        return False
    return True


# Digits, the characters of signs, decimals, exponents and underscores, the
# letters of inf, nan and infinity, whitespace that numpy strips (float()
# rejects \x1c-\x1f, and str.splitlines breaks lines at several), and one
# non-ASCII digit.
CELL_ALPHABET = "0123456789+-.eE_" + "infaty" + "\t \x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003" + "\u0661"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cell=st.text(CELL_ALPHABET, min_size=1, max_size=10))
def test_is_number_agrees_with_numpy(cell):
    # The error path names a cell non-numeric exactly when numpy rejects it.
    assert _is_number(cell) == _numpy_reads(cell)


@dataclass(frozen=True)
class _Inner:
    label: str
    weight: float


@dataclass(frozen=True)
class _Outer:
    values: np.ndarray
    pair: tuple
    inner: _Inner
    missing: object
    by_name: dict


class TestToJson:
    def test_dataclass_encodes_as_its_fields(self):
        obj = _Outer(np.array([1.5, -2.0]), (1, "a"), _Inner("x", 0.5), None,
                     {"k": _Inner("y", 1.0), "t": (2, 3)})
        assert to_json(obj) == {
            "values": [1.5, -2.0],
            "pair": [1, "a"],
            "inner": {"label": "x", "weight": 0.5},
            "missing": None,
            "by_name": {"k": {"label": "y", "weight": 1.0}, "t": [2, 3]},
        }
        assert json.loads(json.dumps(to_json(obj))) == to_json(obj)

    def test_own_method_wins_over_the_fields(self):
        @dataclass(frozen=True)
        class Own:
            x: int

            def to_json_dict(self):
                return {"y": self.x + 1}

        assert to_json((Own(1), {"o": Own(2)})) == [{"y": 2}, {"o": {"y": 3}}]


class TestAtomicWrite:
    def test_failed_write_leaves_no_file(self, tmp_path):
        # A lone surrogate cannot be encoded, so the write fails midway.
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(tmp_path / "out.txt", "ok\ud800")
        assert os.listdir(tmp_path) == []

    def test_no_tmp_left_behind(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        target = tmp_path / "out.txt"
        old = os.umask(umask)
        try:
            atomic_write_text(target, "hello\n")
        finally:
            os.umask(old)
        assert target.stat().st_mode & 0o777 == mode


def test_cli_import_loads_numpy_only():
    # numpy is the one runtime dependency: past numpy and the standard
    # library, importing the CLI loads no top-level package but hereditas.
    code = ("import sys, numpy\n"
            "def tops(): return {m for m, mod in list(sys.modules.items())\n"
            "                    if '.' not in m and hasattr(mod, '__path__')}\n"
            "before = tops()\n"
            "from hereditas.cli import main\n"
            "print(sorted(tops() - before - set(sys.stdlib_module_names)))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hereditas.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "['hereditas']"


def test_cli_import_leaves_the_pool_unloaded_and_freezes_the_heap():
    # A single-process run never loads the process pool, and the objects the
    # import made are frozen, so the collection at exit skips them.
    code = ("import gc, sys\n"
            "from hereditas.cli import main\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)),"
            " gc.get_freeze_count() > 0)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hereditas.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[] True"


def test_one_worker_simulate_loads_no_masked_arrays_or_pool(tmp_path):
    # A one-worker campaign imports what its draws need and nothing for its
    # medians, its median-IQR standardization (R3) or a pool.  Modules are
    # compared before and after the command, because numpy 1.x imports
    # numpy.ma with numpy itself.
    code = ("import contextlib, io, sys\n"
            "from hereditas.cli import main\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             for p in ('numpy.ma', 'multiprocessing', 'concurrent.futures')\n"
            "             if m == p or m.startswith(p + '.')))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hereditas.__file__))}
    for name in ("setting1", "R3"):
        out = subprocess.run([sys.executable, "-c", code, "simulate", "--preset", name,
                              "--replicates", "1", "--threads", "1", "--out-dir", str(tmp_path)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]", name
        assert (tmp_path / f"{name}.report.json").exists()


ENTRY = "import sys; from hereditas.cli import main; sys.exit(main(sys.argv[1:]))"
# With UTF-8 mode off, Python's default text encoding, the file-system encoding
# and the decoding of the command line are the locale's: ASCII under LC_ALL=C.
ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}


def _entry(cwd, argv, env=None):
    """hereditas argv, run in a fresh interpreter in cwd with env added to os.environ."""
    pythonpath = os.path.dirname(os.path.dirname(hereditas.__file__))
    return subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=cwd, capture_output=True,
                          env={**os.environ, "PYTHONPATH": pythonpath, **(env or {})},
                          timeout=120)


@pytest.mark.parametrize("method,scheme", [("lasso", "regular"), ("stepwise", "hierarchical")])
def test_fit_in_a_fresh_interpreter_matches_golden_file(tmp_path, method, scheme):
    # The path a user's command takes, exit included: main returns, then the
    # interpreter exits with the import's objects frozen.
    data = os.path.join(os.path.dirname(__file__), "data")
    with open(os.path.join(data, "four_mains.fit.json")) as fh:
        golden = json.load(fh)[f"{method}/{scheme}"]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hereditas.__file__))}
    done = subprocess.run([sys.executable, "-c", ENTRY, "fit",
                           os.path.join(data, "four_mains.csv"), "--method", method,
                           "--scheme", scheme, "--seed", "5", "--out-dir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == golden["stdout"]
    stem = f"four_mains.{method}.{scheme}"
    fit = json.loads((tmp_path / f"{stem}.fit.json").read_text())
    assert fit["method"] == method and fit["scheme"] == scheme
    with open(tmp_path / f"{stem}.coefficients.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["term", "value", "scale"] and len(rows) > 1
    assert all(np.isfinite(float(value)) for _, value, _ in rows[1:])
    manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
    assert shlex.split(manifest["command"])[:2] == ["hereditas", "fit"]


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

    @pytest.mark.parametrize("fmt,suffix", [("tsv", "report.tsv"), ("json", "report.json")])
    def test_stdout_is_the_report_and_json_keeps_the_snr_line_off_it(self, tmp_path, capsys,
                                                                     fmt, suffix):
        assert main(SIM_ONE + ["--methods", "lasso", "--schemes", "hierarchical",
                               "--format", fmt, "--out-dir", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        snr_line = "snr[analytic] = 0.1875 tabulated 0.19\n"
        report = (tmp_path / f"setting1.{suffix}").read_text()
        assert (out, err) == ((snr_line + report, "") if fmt == "tsv" else (report, snr_line))

    def test_report_is_encoded_once(self, tmp_path, monkeypatch):
        # report.json and the TSV come from one encoding of the report.
        calls = []
        encode = CampaignReport.to_json_dict
        monkeypatch.setattr(CampaignReport, "to_json_dict",
                            lambda report: (calls.append(report), encode(report))[1])
        assert main(SIM_ONE + ["--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_unknown_preset_exit_2(self, capsys):
        rc = main(["simulate", "--preset", "bogus"])
        assert rc == 2
        assert "setting1" in capsys.readouterr().err

    def test_config_file(self, tmp_path):
        cfg = to_json(preset("setting1"))
        cfg.update(replicates=1, n_train=80, n_valid=80, n_test=100, name="mini")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path),
                   "--methods", "lasso"])
        assert rc == 0
        assert (tmp_path / "mini.report.json").exists()

    @pytest.mark.parametrize("name", ["sub/x", "../escaped", "", ".", ".."])
    def test_name_that_is_not_a_file_stem_exit_2(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.setattr(cli, "run_campaign", lambda *a, **k: pytest.fail("campaign ran"))
        (tmp_path / "in").mkdir()
        cfg_path = tmp_path / "in" / "cfg.json"
        cfg_path.write_text(json.dumps({"name": name, "replicates": 1}))
        rc = main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"name must be a file stem, got {name!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]
        assert [p.name for p in (tmp_path / "in").iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("field,value,message", [
        ("sigma", 1e-300, "sigma 1e-300 gives a non-finite exact SNR"),
        ("sigma", 1e-160, "sigma 1e-160 gives a non-finite exact SNR"),
        ("sigma", float("nan"), "sigma must be finite, got nan"),
        ("sigma", float("inf"), "sigma must be finite, got inf"),
        ("coef_main", float("nan"), "coef_main must be finite, got nan"),
        ("coef_quad", float("-inf"), "coef_quad must be finite, got -inf"),
        ("printed_snr", float("nan"), "printed_snr must be finite, got nan"),
    ])
    def test_non_finite_noise_or_coefficient_exit_2(self, tmp_path, capsys, monkeypatch,
                                                     field, value, message):
        monkeypatch.setattr(cli, "run_campaign", lambda *a, **k: pytest.fail("campaign ran"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"p": 3, "replicates": 1, field: value}))
        rc = main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc,message", [
        ({"p": 0}, "p must be at least 1"),
        ({"extra_active_mains": -1}, "active counts must be nonnegative"),
        ({"n_active_quads": 4}, "more active quadratics than parent mains"),
        ({"sigma": 0}, "sigma must be positive"),
        ({"n_valid": 0}, "n_valid must be at least 1"),
        ({"replicates": 0}, "replicates must be at least 1"),
        ({"master_seed": -1}, "master_seed must be nonnegative"),
        ({"x_distribution": "cauchy"}, "unknown distribution 'cauchy'"),
        ({"estimator": "mode"}, "unknown estimator 'mode'"),
    ])
    def test_config_out_of_range_exit_2(self, tmp_path, capsys, doc, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        rc = main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc,field,active", [
        ({"coef_main": 0}, "coef_main", 3),
        ({"coef_main": 0.0, "n_active_mains": 0, "n_active_inters": 0, "n_active_quads": 0,
          "extra_active_mains": 1}, "coef_main", 1),
        ({"coef_inter": 0}, "coef_inter", 3),
        ({"coef_quad": -0.0, "n_active_quads": 2}, "coef_quad", 2),
    ])
    def test_zero_coefficient_of_an_active_term_exit_2(self, tmp_path, capsys, monkeypatch,
                                                       doc, field, active):
        # Named before the campaign starts, not by a worker's first replicate.
        monkeypatch.setattr(cli, "run_campaign", lambda *a, **k: pytest.fail("campaign ran"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**doc, "replicates": 2}))
        rc = main(["simulate", "--config", str(cfg_path), "--threads", "2",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {field} is 0, but {active} active terms take that coefficient\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field,value", [
        ("sigma", 1e154), ("sigma", 1e200), ("coef_main", 1e200), ("coef_quad", 1e160),
        ("coef_inter", -1e200),
    ])
    def test_huge_noise_or_coefficient_exit_2(self, tmp_path, capsys, monkeypatch,
                                              field, value):
        monkeypatch.setattr(cli, "run_campaign", lambda *a, **k: pytest.fail("campaign ran"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"p": 3, "replicates": 1, field: value}))
        rc = main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"{field} {value!r} is too large" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["sigma", "coef_main"])
    def test_large_noise_or_coefficient_still_runs(self, tmp_path, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"p": 3, "replicates": 1, field: 1e150}))
        assert main(["simulate", "--config", str(cfg_path), "--methods", "lasso",
                     "--schemes", "hierarchical", "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("flag,seed", [([], 5), (["--seed", "3"], 3)])
    def test_config_master_seed_unless_seed_given(self, tmp_path, monkeypatch, flag, seed):
        seeds = []
        run = cli.run_campaign
        monkeypatch.setattr(cli, "run_campaign",
                            lambda cfg, **k: (seeds.append(cfg.master_seed), run(cfg, **k))[1])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"p": 2, "n_active_mains": 2, "n_active_inters": 1,
                                        "n_active_quads": 1, "n_train": 40, "n_valid": 40,
                                        "n_test": 50, "replicates": 1, "master_seed": 5}))
        assert main(["simulate", "--config", str(cfg_path), "--methods", "stepwise",
                     "--schemes", "regular", "--out-dir", str(tmp_path), *flag]) == 0
        assert seeds == [seed]
        report = json.loads((tmp_path / "custom.report.json").read_text())
        manifest = json.loads((tmp_path / "custom.manifest.json").read_text())
        assert report["config"]["master_seed"] == manifest["master_seed"] == seed

    def test_out_dir_under_a_file_exit_2_before_the_campaign(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setattr(cli, "run_campaign", lambda *a, **k: pytest.fail("campaign ran"))
        (tmp_path / "file").write_text("")
        rc = main(SIM_ONE + ["--out-dir", str(tmp_path / "file" / "out")])
        assert rc == 2
        assert "Not a directory" in capsys.readouterr().err

    def test_name_the_locale_cannot_encode_exit_2_creating_nothing(self, tmp_path):
        # The output paths are checked before the campaign runs and the directory is made.
        (tmp_path / "cfg.json").write_text(
            json.dumps({"name": "réel", "replicates": 1}, ensure_ascii=False), encoding="utf-8")
        done = _entry(tmp_path, ["simulate", "--config", "cfg.json", "--out-dir", "out"],
                      ASCII_LOCALE)
        assert done.returncode == 2, done.stderr
        # The message names the path; ASCII stderr escapes the character it cannot show.
        assert os.path.join("out", "r\\xe9el.report.json").encode() in done.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_bad_method_exit_2(self, capsys):
        rc = main(["simulate", "--preset", "setting1", "--methods", "ridge"])
        assert rc == 2

    @pytest.mark.parametrize("flag,value,message", [
        ("--schemes", "", "--schemes must name distinct schemes among hierarchical,regular, "
                          "got ''"),
        ("--methods", " , ", "--methods must name distinct methods among lasso,stepwise, "
                             "got ' , '"),
        ("--methods", "lasso,lasso", "got 'lasso,lasso'"),
        ("--schemes", "regular,hierarchical,regular", "got 'regular,hierarchical,regular'"),
    ])
    def test_cell_list_naming_nothing_or_a_value_twice_exit_2(self, tmp_path, capsys, flag,
                                                              value, message):
        rc = main(["simulate", "--preset", "setting1", "--replicates", "1", flag, value,
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_report_matches_golden_file(self, tmp_path):
        # Written by an earlier commit; a refactor must reproduce it byte for byte.
        golden = os.path.join(os.path.dirname(__file__), "data", "setting1_seed7_r3.report.tsv")
        assert main(["simulate", "--preset", "setting1", "--seed", "7", "--replicates", "3",
                     "--out-dir", str(tmp_path)]) == 0
        with open(golden, "rb") as fh:
            assert (tmp_path / "setting1.report.tsv").read_bytes() == fh.read()

    def test_stepwise_on_a_wide_setting(self, tmp_path):
        # p = 20 expands to 230 columns for 200 training rows: stepwise starts null.
        cfg_path = tmp_path / "wide.json"
        cfg_path.write_text(json.dumps({"p": 20, "replicates": 1}))
        assert main(["simulate", "--config", str(cfg_path), "--methods", "stepwise",
                     "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "custom.report.json").read_text())
        assert [c["method"] for c in doc["cells"]] == ["stepwise", "stepwise"]

    def test_threads_below_one_exit_2(self, tmp_path, capsys):
        rc = main(["simulate", "--preset", "setting1", "--replicates", "1", "--threads", "0",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "--threads must be at least 1" in capsys.readouterr().err

    def test_median_iqr_preset_runs(self, tmp_path):
        rc = main(["simulate", "--preset", "R3", "--replicates", "2",
                   "--methods", "lasso", "--schemes", "hierarchical",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "R3.report.json").read_text())
        assert doc["config"]["estimator"] == "median-iqr"
        assert doc["config"]["x_distribution"] == "lognormal-0-1"
        assert doc["cells"][0]["aggregates"]["msh"]["mean"] == 1.0
        assert doc["snr"]["method"] == "analytic"
        assert doc["snr"]["flagged"]


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

    def test_stepwise_start_from_options_file(self, tmp_path, capsys):
        path = _four_mains_csv(tmp_path)
        opts = tmp_path / "stepwise.json"
        opts.write_text(json.dumps({"start": "null", "max_selected": 3}))
        args = ["fit", str(path), "--method", "stepwise", "--stepwise-options", str(opts),
                "--out-dir", str(tmp_path)]
        assert main(args) == 0
        summary = json.loads((tmp_path / "four.stepwise.hierarchical.fit.json").read_text())
        assert summary["tuning"]["start"] == "null"
        capsys.readouterr()
        opts.write_text(json.dumps({"start": "full", "max_selected": 3}))
        assert main(args) == 2
        assert "full-model start with 14 columns exceeds max_selected=3" in capsys.readouterr().err
        # The options file is the one place a start is chosen.
        with pytest.raises(SystemExit) as exc:
            main(args + ["--start", "null"])
        assert exc.value.code == 2

    def test_max_selected_alone_starts_null(self, tmp_path):
        # Fourteen columns do not fit within the cap, so the full start is
        # infeasible and both commands start null.
        opts = tmp_path / "stepwise.json"
        opts.write_text(json.dumps({"max_selected": 3}))
        rc = main(["fit", str(_four_mains_csv(tmp_path)), "--method", "stepwise",
                   "--stepwise-options", str(opts), "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "four.stepwise.hierarchical.fit.json").read_text())
        assert summary["tuning"]["start"] == "null"
        assert summary["n_selected"] >= 1
        assert main(SIM_ONE + ["--methods", "stepwise", "--stepwise-options", str(opts),
                               "--out-dir", str(tmp_path / "sim")]) == 0

    @pytest.mark.parametrize("scheme", ["hierarchical", "regular"])
    def test_stepwise_binary_mains_start_null(self, tmp_path, scheme):
        # X^2 == X for a 0/1 main, so the full model is singular.
        rng = np.random.default_rng(11)
        x = np.column_stack([rng.integers(0, 2, (300, 2)), rng.standard_normal((300, 2))])
        y = x[:, 0] + x[:, 2] + x[:, 0] * x[:, 2] + rng.standard_normal(300)
        path = tmp_path / "binary.csv"
        write_csv(path, ["a", "b", "c", "d", "y"], np.column_stack([x, y]).tolist())
        rc = main(["fit", str(path), "--method", "stepwise", "--scheme", scheme,
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / f"binary.stepwise.{scheme}.fit.json").read_text())
        assert summary["tuning"]["start"] == "null"
        if scheme == "hierarchical":
            assert summary["heredity"] == "satisfied"

    def test_four_cells_match_golden_file(self, tmp_path, capsys):
        # Written by an earlier commit; a refactor must reproduce it exactly.
        data = os.path.join(os.path.dirname(__file__), "data")
        with open(os.path.join(data, "four_mains.fit.json")) as fh:
            golden = json.load(fh)
        got = {}
        for method in ("lasso", "stepwise"):
            for scheme in ("hierarchical", "regular"):
                assert main(["fit", os.path.join(data, "four_mains.csv"), "--method", method,
                             "--scheme", scheme, "--seed", "5", "--out-dir", str(tmp_path)]) == 0
                cell = got[f"{method}/{scheme}"] = {"stdout": capsys.readouterr().out}
                if method == "stepwise":
                    fit = json.loads((tmp_path / f"four_mains.{method}.{scheme}.fit.json")
                                     .read_text())
                    cell.update(start=fit["tuning"]["start"], steps=fit["tuning"]["steps"])
        assert got == golden

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

    @pytest.mark.parametrize("method", ["lasso", "stepwise"])
    def test_overflowing_response_exit_2(self, tmp_path, capsys, method):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((60, 3))
        path = tmp_path / "huge.csv"
        write_csv(path, ["a", "b", "c", "y"], np.column_stack([x, 1e200 * x[:, 0]]).tolist())
        rc = main(["fit", str(path), "--method", method, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("c,y_scale,codes", [
        pytest.param(1e150, 1.0, {0}, id="1e+150"),
        pytest.param(1e160, 1.0, {2}, id="1e+160"),
        pytest.param(1e-152, 1e5, {0, 2}, id="1e-152"),
    ])
    def test_overflowing_design_fits_or_names_the_overflow(self, tmp_path, capsys, c, y_scale,
                                                           codes):
        # At 1e150 the second-order columns (~1e300) and their spreads are
        # representable though their squares are not; at 1e160 the raw-scale
        # model's products overflow.  At 1e-152 the back-transforms divide by
        # scales near 1e-152 (or products of them), so a raw-scale coefficient
        # may overflow, and the regular scheme's ~1e-304 products keep their
        # nonzero spreads.  A RuntimeWarning fails the suite.
        rng = np.random.default_rng(0)
        y = y_scale * rng.standard_normal(60)
        x = rng.standard_normal((60, 2)) * c
        path = tmp_path / "big.csv"
        write_csv(path, ["X1", "X2", "y"], np.column_stack([x, y]).tolist())
        for method in ("lasso", "stepwise"):
            for scheme in ("hierarchical", "regular"):
                for estimator in ("mean-sd", "median-iqr"):
                    out = tmp_path / f"{method}-{scheme}-{estimator}"
                    rc = main(["fit", str(path), "--method", method, "--scheme", scheme,
                               "--estimator", estimator, "--out-dir", str(out)])
                    err = capsys.readouterr().err
                    assert "Warning" not in err
                    assert rc in codes, err
                    if rc == 0:
                        (summary,) = out.glob("*.fit.json")
                        assert np.isfinite(json.loads(summary.read_text())["test_mse"])
                        (coefs,) = out.glob("*.coefficients.csv")
                        with open(coefs) as fh:
                            values = [float(row[1]) for row in list(csv.reader(fh))[1:]]
                        assert np.all(np.isfinite(values))
                    else:
                        assert err.startswith("error: ")
                        assert "overflows" in err

    @pytest.mark.parametrize("split,message", [
        ("3:1", "--split must look like 3:1:1, got '3:1'"),
        ("3:1:1:1", "--split must look like 3:1:1, got '3:1:1:1'"),
        ("3:1:x", "--split must be integers, got '3:1:x'"),
        ("3:0:1", "--split ratios must be positive"),
        ("3:1:-1", "--split ratios must be positive"),
    ])
    def test_bad_split_exit_2(self, dataset_csv, tmp_path, capsys, split, message):
        rc = main(["fit", str(dataset_csv), "--split", split, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_negative_seed_exit_2_before_the_data_is_read(self, tmp_path, capsys):
        rc = main(["fit", str(tmp_path / "missing.csv"), "--seed", "-1",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "error: --seed must be nonnegative, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_threads_flag_rejected(self, dataset_csv, tmp_path):
        # --threads runs simulate's replicate workers; fit has none to run.
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(dataset_csv), "--threads", "2", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_manifest_hash_depends_on_scheme(self, dataset_csv, tmp_path):
        hashes = set()
        for scheme in ("hierarchical", "regular"):
            rc = main(["fit", str(dataset_csv), "--scheme", scheme, "--seed", "5",
                       "--out-dir", str(tmp_path)])
            assert rc == 0
            manifest = tmp_path / f"data.lasso.{scheme}.manifest.json"
            hashes.add(json.loads(manifest.read_text())["config_hash"])
        assert len(hashes) == 2

    @pytest.mark.parametrize("command,stem", [
        (["fit", "data.csv", "--method", "stepwise"], "data.stepwise.regular"),
        (["standardize", "data.csv", "--response", "y"], "data.regular"),
    ], ids=["fit", "standardize"])
    def test_regular_scheme_records_mean_sd_for_either_estimator(
            self, dataset_csv, tmp_path, monkeypatch, command, stem):
        # Regular standardization is mean/SD whatever --estimator says, so both
        # values write the same documents and the same config hash.
        monkeypatch.chdir(tmp_path)
        recorded, hashes = set(), set()
        for estimator in ("mean-sd", "median-iqr"):
            out = tmp_path / estimator
            assert main(command + ["--scheme", "regular", "--estimator", estimator,
                                   "--out-dir", str(out)]) == 0
            if command[0] == "fit":
                summary = json.loads((out / f"{stem}.fit.json").read_text())
                recorded |= {summary["estimator"], summary["standardization"]["estimator"]}
            else:
                recorded.add(json.loads((out / f"{stem}.params.json").read_text())["estimator"])
            hashes.add(json.loads((out / f"{stem}.manifest.json").read_text())["config_hash"])
        assert recorded == {"mean-sd"} and len(hashes) == 1

    @pytest.mark.parametrize("command,seam", [
        (["fit", "data.csv", "--method", "stepwise"], "fit_pipeline"),
        (["standardize", "data.csv", "--response", "y"], "standardize_train"),
    ], ids=["fit", "standardize"])
    def test_manifest_hashes_the_bytes_it_parsed(self, dataset_csv, tmp_path, monkeypatch,
                                                 command, seam):
        # The file is rewritten after it was parsed; the manifest still names
        # the data the run used.
        monkeypatch.chdir(tmp_path)
        parsed = dataset_csv.read_bytes()
        assert main(command + ["--out-dir", "undisturbed"]) == 0
        original = getattr(cli, seam)

        def overwrite_then_run(*args):
            write_csv(dataset_csv, ["x0", "y"], [[1, 2], [3, 4]])
            return original(*args)

        monkeypatch.setattr(cli, seam, overwrite_then_run)
        assert main(command + ["--out-dir", "overwritten"]) == 0
        assert dataset_csv.read_bytes() != parsed
        hashes = [json.loads(next((tmp_path / out).glob("*.manifest.json")).read_text())
                  ["config_hash"] for out in ("undisturbed", "overwritten")]
        assert hashes[0] == hashes[1]

    def test_inconsistent_params_exit_1(self, dataset_csv, tmp_path, monkeypatch, capsys):
        # Parameters that do not match their terms are a bug, not a usage error.
        def mismatch(*args):
            raise InconsistentParamsError("params do not cover the coefficient vector's terms")

        monkeypatch.setattr(cli, "standardize_train", mismatch)
        assert main(["standardize", str(dataset_csv), "--out-dir", str(tmp_path)]) == 1
        assert "error: params do not cover" in capsys.readouterr().err

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
        header, z, _ = read_table(tmp_path / "m.hierarchical.standardized.csv")
        assert header == canonical_terms(3).labels()
        for j in range(3):  # standardized mains
            assert abs(z[:, j].mean()) < 1e-12
            assert abs(z[:, j].std(ddof=1) - 1) < 1e-12
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
        _, z, _ = read_table(tmp_path / "m.regular.standardized.csv")
        assert z.shape[1] == 9
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0, ddof=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("scheme", ["hierarchical", "regular"])
    @pytest.mark.parametrize("estimator", ["mean-sd", "median-iqr"])
    def test_outputs_match_golden_file(self, tmp_path, scheme, estimator):
        # Written by an earlier commit; the standardized CSV is pinned by its
        # header (every label, in canonical order) and the hash of its bytes.
        data = os.path.join(os.path.dirname(__file__), "data")
        with open(os.path.join(data, "four_mains.standardize.json")) as fh:
            golden = json.load(fh)[f"{scheme}/{estimator}"]
        assert main(["standardize", os.path.join(data, "four_mains.csv"), "--response", "y",
                     "--scheme", scheme, "--estimator", estimator,
                     "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / f"four_mains.{scheme}.params.json").read_text() == golden["params.json"]
        matrix = (tmp_path / f"four_mains.{scheme}.standardized.csv").read_bytes()
        assert matrix.split(b"\n", 1)[0].decode() == golden["standardized.csv"]["header"]
        assert hashlib.sha256(matrix).hexdigest() == golden["standardized.csv"]["sha256"]

    def test_seed_flag_rejected(self, tmp_path):
        # standardize draws nothing, so it takes no seed; its manifest records none.
        path = tmp_path / "m.csv"
        write_csv(path, ["a", "b"], [[1, 2], [2, 0], [4, 1]])
        with pytest.raises(SystemExit) as exc:
            main(["standardize", str(path), "--seed", "1", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert main(["standardize", str(path), "--out-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "m.hierarchical.manifest.json").read_text())
        assert manifest["master_seed"] is None

    def test_degenerate_column_exit_2(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        write_csv(path, ["a", "b"], [[1, 1], [2, 1], [3, 1]])
        rc = main(["standardize", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "X2" in capsys.readouterr().err

    def test_constant_column_of_any_value_exit_2(self, tmp_path, capsys):
        # 150 copies of 0.1 have a mean that rounds off 0.1, so np.std gives
        # about 1e-17, not 0; the column still has zero spread.
        rng = np.random.default_rng(1)
        x1, x2 = rng.standard_normal(150), rng.standard_normal(150)
        y = x1 + x2 + x1 * x2 + rng.standard_normal(150)
        path = tmp_path / "const.csv"
        write_csv(path, ["X1", "X2", "X3", "y"],
                  np.column_stack([x1, x2, np.full(150, 0.1), y]).tolist())
        commands = [["fit", str(path), "--method", method, "--scheme", scheme]
                    for method in ("lasso", "stepwise") for scheme in ("hierarchical", "regular")]
        commands += [["standardize", str(path), "--response", "y", "--scheme", scheme]
                     for scheme in ("hierarchical", "regular")]
        for argv in commands:
            assert main(argv + ["--out-dir", str(tmp_path)]) == 2, argv
            assert "column X3 has zero spread" in capsys.readouterr().err, argv


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

    def test_ignores_the_environment(self, tmp_path, monkeypatch, capsys):
        # No environment variable sets a default: a stray one changes nothing.
        rc = main(["simulate", "--preset", "setting1", "--replicates", "1", "--methods", "lasso",
                   "--schemes", "hierarchical", "--out-dir", str(tmp_path)])
        assert rc == 0
        monkeypatch.setenv("HEREDITAS_THREADS", "abc")
        capsys.readouterr()
        assert main(["report", str(tmp_path / "setting1.report.json")]) == 0
        assert capsys.readouterr().out.startswith("metric\tstat\t")

    def test_settings_as_columns_for_multiple_reports(self, tmp_path, capsys):
        for name in ("setting1", "setting4"):
            cfg = to_json(preset(name))
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

    def test_json_format_prints_the_document_or_a_list(self, tmp_path, capsys):
        rc = main(["simulate", "--preset", "setting1", "--replicates", "1", "--methods", "lasso",
                   "--schemes", "hierarchical", "--out-dir", str(tmp_path)])
        assert rc == 0
        first = tmp_path / "setting1.report.json"
        doc = json.loads(first.read_text())
        doc["config"]["name"] = "other"
        second = tmp_path / "other.report.json"
        second.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", str(first), "--format", "json"]) == 0
        assert capsys.readouterr().out == first.read_text()
        assert main(["report", str(first), str(second), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == [json.loads(first.read_text()), doc]


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

    @pytest.mark.parametrize("flag,doc,message", [
        ("--lasso-options", {"n_lambda": 0}, "n_lambda must be at least 1"),
        ("--lasso-options", {"lambda_min_ratio": 1.0}, "lambda_min_ratio must lie in (0, 1)"),
        ("--lasso-options", {"lambda_min_ratio": 0.0}, "lambda_min_ratio must lie in (0, 1)"),
        ("--stepwise-options", {"start": "middle"}, "start must be 'auto', 'full' or 'null'"),
        ("--stepwise-options", {"max_selected": 0}, "max_selected must be at least 1"),
    ])
    def test_option_out_of_range_exit_2(self, dataset_csv, tmp_path, capsys, flag, doc,
                                        message):
        opts = tmp_path / "options.json"
        opts.write_text(json.dumps(doc))
        rc = main(["fit", str(dataset_csv), flag, str(opts), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_direction_is_an_unknown_stepwise_option(self, dataset_csv, tmp_path, capsys):
        opts = tmp_path / "stepwise.json"
        opts.write_text(json.dumps({"direction": "both"}))
        rc = main(["fit", str(dataset_csv), "--method", "stepwise",
                   "--stepwise-options", str(opts), "--out-dir", str(tmp_path / "fit")])
        assert rc == 2
        assert "unknown stepwise options: ['direction']" in capsys.readouterr().err

    def test_tol_is_an_unknown_lasso_option(self, dataset_csv, tmp_path, capsys):
        opts = tmp_path / "lasso.json"
        opts.write_text(json.dumps({"tol": 1e-8}))
        rc = main(["fit", str(dataset_csv), "--lasso-options", str(opts),
                   "--out-dir", str(tmp_path / "fit")])
        assert rc == 2
        assert "unknown lasso options: ['tol']" in capsys.readouterr().err

    def test_stepwise_cap_warns_that_the_fit_did_not_converge(self, tmp_path, capsys):
        opts = tmp_path / "stepwise.json"
        opts.write_text(json.dumps({"max_selected": 1}))
        data = os.path.join(os.path.dirname(__file__), "data", "four_mains.csv")
        rc = main(["fit", data, "--method", "stepwise", "--stepwise-options", str(opts),
                   "--seed", "5", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: the fit did not converge: max_selected hid an improving stepwise addition\n")

    def test_lasso_sweep_cap_warns_that_the_fit_did_not_converge(self, tmp_path, capsys):
        # Correlated mains need more than one kernel pass at the chosen lambda.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((60, 1)) + 0.3 * rng.standard_normal((60, 4))
        y = x.sum(axis=1) + x[:, 0] * x[:, 1] + rng.standard_normal(60)
        path = tmp_path / "correlated.csv"
        write_csv(path, ["a", "b", "c", "d", "y"], np.column_stack([x, y]).tolist())
        args = ["fit", str(path), "--method", "lasso", "--seed", "5", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        assert capsys.readouterr().err == ""
        opts = tmp_path / "lasso.json"
        opts.write_text(json.dumps({"max_iter": 1}))
        assert main(args + ["--lasso-options", str(opts)]) == 0
        assert capsys.readouterr().err == (
            "warning: the fit did not converge: the lasso at the chosen lambda (index 99) "
            "reached max_iter=1 passes\n")

    def test_unknown_option_field_exit_2(self, dataset_csv, tmp_path, capsys):
        opts = tmp_path / "lasso.json"
        opts.write_text(json.dumps({"bogus": 1}))
        rc = main(["fit", str(dataset_csv), "--lasso-options", str(opts),
                   "--out-dir", str(tmp_path)])
        assert rc != 0


SIM_ONE = ["simulate", "--preset", "setting1", "--seed", "7", "--replicates", "1"]


class TestMalformedJson:
    """A JSON document of the wrong shape, or with a value of the wrong type,
    exits 2 with a message; it neither raises nor runs."""

    @pytest.mark.parametrize("doc", [{}, [1, 2], {"config": {"name": "x"}},
                                     {"config": {}, "cells": []}, {"config": "x", "cells": []},
                                     {"config": {"name": None}, "cells": []},
                                     {"config": {"name": 5}, "cells": []}])
    def test_report_without_name_or_cells(self, tmp_path, capsys, doc):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 2
        assert "not a campaign report" in capsys.readouterr().err

    @pytest.mark.parametrize("cells,message", [
        ([{}], "a cell is not an object with a string method and scheme"),
        ([1], "a cell is not an object with a string method and scheme"),
        ([{"method": "lasso", "scheme": 2, "aggregates": {}}], "a string method and scheme"),
        ([{"method": "lasso", "scheme": "regular"}], "and an aggregates object"),
        ([{"method": "lasso", "scheme": "regular", "aggregates": {"msh": 3}}],
         "expected a JSON object of aggregate fields, got int"),
        ([{"method": "lasso", "scheme": "regular", "aggregates": {"msh": {"mean": 1.0}}}],
         "missing aggregate fields: ['median', 'se', 'n']"),
        ([{"method": "lasso", "scheme": "regular",
           "aggregates": {"msh": {"mean": "1", "median": 1.0, "se": 0.0, "n": 2}}}],
         "aggregate field 'mean' must be float, got '1'"),
    ])
    def test_report_with_malformed_cell(self, tmp_path, capsys, cells, message):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"config": {"name": "x"}, "cells": cells}))
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err

    @pytest.mark.parametrize("doc,message", [
        ([], "expected a JSON object of config fields, got list"),
        ({"p": "ten"}, "config field 'p' must be int, got 'ten'"),
        ({"p": 10.0}, "config field 'p' must be int, got 10.0"),
        ({"replicates": True}, "config field 'replicates' must be int, got True"),
        ({"reduced_truth": 1}, "config field 'reduced_truth' must be bool, got 1"),
        ({"name": None}, "config field 'name' must be str, got None"),
    ])
    def test_simulate_config(self, tmp_path, capsys, doc, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--config", str(path), "--replicates", "1",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag,doc,message", [
        ("--lasso-options", {"n_lambda": "5"}, "lasso option 'n_lambda' must be int, got '5'"),
        ("--lasso-options", {"n_lambda": 5.5}, "lasso option 'n_lambda' must be int, got 5.5"),
        ("--lasso-options", {"internal_standardize": 0}, "must be bool, got 0"),
        ("--lasso-options", [], "expected a JSON object of lasso options, got list"),
        ("--stepwise-options", {"max_selected": 2.5}, "must be int | None, got 2.5"),
        ("--stepwise-options", {"start": 1}, "stepwise option 'start' must be str, got 1"),
    ])
    def test_option_file(self, tmp_path, capsys, flag, doc, message):
        path = tmp_path / "o.json"
        path.write_text(json.dumps(doc))
        assert main(SIM_ONE + [flag, str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,data", [
        (["simulate", "--config", "BAD"], b'{"name": "a",}'),
        (SIM_ONE + ["--lasso-options", "BAD"], b'{"n_lambda": 5'),
        (["report", "GOOD", "BAD"], b'{"config": {"name": "x"}, "cells": [}'),
        (["simulate", "--config", "BAD"], b'{"name": "r\xe9el"}'),
    ], ids=["config", "option-file", "second-report", "config-invalid-utf8"])
    def test_unparsable_file_exit_2_naming_it(self, tmp_path, monkeypatch, capsys, argv,
                                              data):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "good.json").write_text(json.dumps({"config": {"name": "x"}, "cells": []}))
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        files = {"GOOD": str(tmp_path / "good.json"), "BAD": str(bad)}
        assert main([files.get(arg, arg) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "good.json"]

    def test_int_fills_a_float_field_and_null_an_optional_one(self):
        cfg = from_json_fields(SettingConfig, {"sigma": 8, "printed_snr": None}, "config field")
        assert cfg.sigma == 8 and cfg.printed_snr is None
        opts = from_json_fields(LassoOptions, {"lambda_min_ratio": None, "n_lambda": 5}, "option")
        assert opts.n_lambda == 5 and opts.lambda_min_ratio is None
        opts = from_json_fields(StepwiseOptions, {"max_selected": None}, "option")
        assert opts.max_selected is None


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

    # Recorded before the selector table replaced the per-method option
    # parameters; a renamed manifest key or a reordered document changes them.
    @pytest.mark.parametrize("command,expected", [
        (SIM_ONE + ["--lasso-options", "lasso.json", "--stepwise-options", "stepwise.json"],
         "9f663018691954d1ccecbb004cec80baeaa84ecdcc157bc92db704d3b7b62743"),
        (["fit", os.path.join(os.path.dirname(__file__), "data", "four_mains.csv"),
          "--method", "stepwise", "--stepwise-options", "stepwise.json"],
         "d0c12acde2779835b6867433837d6d462ffbfedb76857812559924cd9114456f"),
    ], ids=["simulate", "fit"])
    def test_hash_is_pinned(self, tmp_path, monkeypatch, command, expected):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "lasso.json").write_text(json.dumps({"n_lambda": 20, "max_iter": 500}))
        (tmp_path / "stepwise.json").write_text(json.dumps({"max_selected": 5}))
        assert main(command + ["--out-dir", "out"]) == 0
        (manifest,) = (tmp_path / "out").glob("*.manifest.json")
        assert json.loads(manifest.read_text())["config_hash"] == expected


class TestManifestCommand:
    @pytest.mark.parametrize("command", [
        SIM_ONE + ["--methods", "stepwise", "--schemes", "regular"],
        ["fit", "data.csv", "--method", "stepwise", "--seed", "2"],
    ], ids=["simulate", "fit"])
    def test_records_the_command_main_parsed(self, dataset_csv, tmp_path, monkeypatch,
                                             command):
        # Not the host's argv: here that is pytest's.
        monkeypatch.chdir(tmp_path)
        argv = command + ["--out-dir", "out dir"]
        assert main(argv) == 0
        (manifest,) = (tmp_path / "out dir").glob("*.manifest.json")
        recorded = json.loads(manifest.read_text())["command"]
        assert recorded == shlex.join(["hereditas", *argv])
        assert shlex.split(recorded) == ["hereditas", *argv]


def _bom_twins(tmp_path, name: str, data: bytes):
    """data written to plain/name as it is and to bom/name after a BOM."""
    paths = []
    for sub, prefix in (("plain", b""), ("bom", BOM)):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / name)
        paths[-1].write_bytes(prefix + data)
    return paths


def _outputs(out_dir):
    """({name: bytes} of the files in out_dir but the manifests, their config_hash)."""
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    hashes = {name: json.loads(files.pop(name))["config_hash"]
              for name in list(files) if name.endswith(".manifest.json")}
    return files, hashes


class TestInputEncoding:
    """Every input file is read as UTF-8, a leading BOM skipped, whatever the locale."""

    def test_csv_with_a_bom_and_the_response_first(self, tmp_path, capsys):
        with open(FOUR_MAINS, newline="") as fh:
            rows = [row[-1:] + row[:-1] for row in csv.reader(fh)]
        assert rows[0][0] == "y"
        data = "".join(",".join(row) + "\n" for row in rows).encode()
        runs = []
        for path in _bom_twins(tmp_path, "d.csv", data):
            out = path.parent / "out"
            for method in ("lasso", "stepwise"):
                for scheme in ("hierarchical", "regular"):
                    assert main(["fit", str(path), "--method", method, "--scheme", scheme,
                                 "--seed", "5", "--out-dir", str(out)]) == 0
            assert main(["standardize", str(path), "--response", "y", "--out-dir", str(out)]) == 0
            runs.append((_outputs(out), capsys.readouterr().out.replace(str(out), "OUT")))
        ((files, hashes), stdout), ((bom_files, bom_hashes), bom_stdout) = runs
        assert len(files) == 10 and bom_files == files and bom_stdout == stdout
        assert hashes.keys() == bom_hashes.keys()
        assert all(bom_hashes[name] != hashes[name] for name in hashes)

    @pytest.mark.parametrize("argv,doc", [
        (["fit", "data.csv", "--method", "lasso", "--lasso-options", "DOC"], {"n_lambda": 20}),
        (["simulate", "--config", "DOC", "--methods", "lasso", "--schemes", "hierarchical"],
         {"replicates": 1, "master_seed": 7}),
        (["report", "DOC"], None),
    ], ids=["lasso-options", "config", "report"])
    def test_json_with_a_bom_reads_as_its_twin(self, dataset_csv, tmp_path, monkeypatch, capsys,
                                               argv, doc):
        monkeypatch.chdir(tmp_path)
        if doc is None:  # a saved campaign report
            assert main(SIM_ONE + ["--methods", "lasso", "--schemes", "hierarchical",
                                   "--out-dir", "saved"]) == 0
            data = (tmp_path / "saved" / "setting1.report.json").read_bytes()
        else:
            data = json.dumps(doc).encode()
        capsys.readouterr()
        runs = []
        for path in _bom_twins(tmp_path, "doc.json", data):
            out = path.parent / "out"
            command = [str(path) if arg == "DOC" else arg for arg in argv]
            assert main(command + ([] if argv[0] == "report" else ["--out-dir", str(out)])) == 0
            runs.append((_outputs(out) if out.exists() else None, capsys.readouterr().out))
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("at,message", [
        (8, "error: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte\n"),
        (9000, "error: 'utf-8' codec can't decode byte 0xff in position"),
    ], ids=["early", "past-8KiB"])
    @pytest.mark.parametrize("command", ["fit", "standardize"])
    def test_invalid_utf8_exits_2_naming_the_byte(self, tmp_path, capsys, command, at,
                                                    message):
        text = "a,b,y\n" + "".join(f"{i},{i + 1},{i % 7}\n" for i in range(1500))
        path = tmp_path / "t.csv"
        path.write_bytes(text[:at].encode() + b"\xff" + text[at + 1:].encode())
        assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "out").exists()

    def test_locale_does_not_change_what_fit_reads(self, tmp_path):
        # The ASCII locale decodes a non-ASCII --response from other characters
        # than io decodes the header's; it still names the same column.
        with open(FOUR_MAINS, "rb") as fh:
            header, body = fh.read().split(b"\n", 1)
        header = header.replace(b"a", "température".encode())
        (tmp_path / "d.csv").write_bytes(header + b"\n" + body)
        commands = (["fit", "../d.csv", "--seed", "5"],
                    ["fit", "../d.csv", "--seed", "5", "--response", "température"],
                    ["standardize", "../d.csv", "--response", "température"])
        runs = {}
        for name, env in (("default", {}), ("ascii", ASCII_LOCALE)):
            (tmp_path / name).mkdir()
            for i, command in enumerate(commands):
                done = _entry(tmp_path / name, [*command, "--out-dir", str(i)], env)
                assert done.returncode == 0, done.stderr
                runs.setdefault(name, []).append((_outputs(tmp_path / name / str(i)),
                                                   done.stdout))
        assert runs["ascii"] == runs["default"]


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

        header, z, _ = read_table(tmp_path / "m.hierarchical.standardized.csv")
        params = from_json_fields(
            LocationScale, json.loads((tmp_path / "m.hierarchical.params.json").read_text()),
            "location-scale field")
        terms = canonical_terms(3)
        assert header == terms.labels()
        fit = lasso_fit(z, y, 0.02, terms=terms, scale_tag=HIER_STD)
        raw = back_transform_hierarchical(fit.coefs, params, terms)
        pred_std = fit.coefs.predict(z)
        pred_raw = raw.predict(expand(x, terms))
        np.testing.assert_allclose(pred_raw, pred_std, rtol=1e-10,
                                   atol=1e-10 * np.max(np.abs(pred_std)))
