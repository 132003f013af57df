"""Degenerate designs through the CLI: every command exits 0 or 2.

Hypothesis draws small CSVs from a design grammar (Gaussian, duplicate,
near-copy, 0/1, constant, zero and +-a columns at magnitudes from 1e-200 to
1e150, with a noise, constant, exact-fit or 1e10-noise response) and runs
``fit`` in every method-by-scheme cell and ``standardize`` in both schemes,
in process.  A RuntimeWarning is an error in this suite, so a silent
overflow fails the example; any other exception is a traceback the CLI let
through.  On exit 0 the hierarchical scheme must keep strong heredity and
report finite numbers, and a lasso whose chosen fit converged must meet
its KKT conditions within 1e-6 (or the solver's rounding floor, when that
is larger).
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hereditas import simulate
from hereditas.cli import main
from hereditas.selectors import _prepare, _solver_inputs, lasso_kkt_residual
from hereditas.simulate import HIERARCHICAL, LASSO, METHODS, SCHEMES
from hereditas.standardize import ESTIMATORS

COLUMNS = ("gaussian", "duplicate", "near-copy", "binary", "constant", "zero", "plus-minus")
RESPONSES = ("noise", "constant", "exact", "huge-noise")


def _column(kind: str, n: int, rng) -> np.ndarray:
    """One unit-scale column of a kind that needs no earlier column."""
    if kind == "binary":
        return rng.integers(0, 2, n).astype(float)
    if kind == "constant":
        return np.ones(n)
    if kind == "zero":
        return np.zeros(n)
    if kind == "plus-minus":  # +1, -1, ... and a 0 when n is odd: center exactly 0
        col = np.resize([1.0, -1.0], n)
        col[n - n % 2:] = 0.0
        return col
    return rng.standard_normal(n)


@st.composite
def datasets(draw):
    """(mains, response) drawn from the grammar."""
    n = draw(st.integers(4, 40))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.empty((n, p))
    for j in range(p):
        kind = draw(st.sampled_from(COLUMNS))
        if j and kind in ("duplicate", "near-copy"):
            source = x[:, draw(st.integers(0, j - 1))]
            noise = 1e-9 * rng.standard_normal(n) if kind == "near-copy" else 0.0
            x[:, j] = source * (1.0 + noise)
        else:
            x[:, j] = _column(kind, n, rng) * 10.0 ** draw(st.integers(-200, 150))
    response = draw(st.sampled_from(RESPONSES))
    if response == "constant":
        y = np.full(n, 3.0)
    elif response == "exact":
        y = 1.0 + x.sum(axis=1)
    else:
        y = (1e10 if response == "huge-noise" else 1.0) * rng.standard_normal(n)
    return x, y


def _tiny_design(seed: int):
    """Mains of ~1e-152 with a 1e5-scale response: the hierarchical
    back-transform's raw-scale interaction coefficients overflow."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((60, 3)) * 1e-152
    return x, 1e5 * rng.standard_normal(60)


def _run(argv):
    """The command's exit code, and (training pair, TunedLasso) for each lasso it tuned."""
    tuned = []
    tune_lasso = simulate.tune_lasso

    def record(train, *args):
        result = tune_lasso(train, *args)
        tuned.append((train, result))
        return result

    with mock.patch.object(simulate, "tune_lasso", side_effect=record), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv), tuned


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=datasets(), seed=st.integers(0, 2), estimator=st.sampled_from(ESTIMATORS))
@example(data=_tiny_design(0), seed=1, estimator=ESTIMATORS[0])  # stepwise overflowed
@example(data=_tiny_design(1), seed=1, estimator=ESTIMATORS[0])  # lasso overflowed
def test_cli_exits_0_or_2_and_keeps_heredity(data, seed, estimator):
    x, y = data
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"X{j + 1}" for j in range(x.shape[1])] + ["y"])
            writer.writerows(np.column_stack([x, y]).tolist())
        for scheme in SCHEMES:
            for method in METHODS:
                out = os.path.join(tmp, f"{method}-{scheme}")
                rc, tuned = _run(["fit", path, "--method", method, "--scheme", scheme,
                                  "--estimator", estimator, "--seed", str(seed),
                                  "--out-dir", out])
                assert rc in (0, 2)
                if rc == 0 and method == LASSO:
                    (((z, y_tr), lasso),) = tuned
                    if lasso.fit.converged:
                        slack = _solver_inputs(_prepare(z, y_tr, True))[1]
                        kkt = lasso_kkt_residual(z, y_tr, lasso.fit, lasso.best_lambda)
                        assert max(kkt) <= max(1e-6, slack)
                if rc == 0 and scheme == HIERARCHICAL:
                    stem = os.path.join(out, f"data.{method}.{scheme}")
                    with open(stem + ".fit.json") as fh:
                        summary = json.load(fh)
                    assert summary["heredity"] == "satisfied"
                    assert math.isfinite(summary["test_mse"])
                    with open(stem + ".coefficients.csv") as fh:
                        values = [float(row[1]) for row in list(csv.reader(fh))[1:]]
                    assert all(math.isfinite(v) for v in values)
            rc, _ = _run(["standardize", path, "--scheme", scheme, "--estimator", estimator,
                          "--response", "y", "--out-dir", os.path.join(tmp, f"std-{scheme}")])
            assert rc in (0, 2)
