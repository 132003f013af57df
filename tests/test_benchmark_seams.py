"""The names the benchmark's tracer patches still exist and still run.

``perfbench/tracer.py`` wraps package functions by module and attribute
name and checks their results.  Loading it by path and tracing two small
``simulate`` campaigns (normal mains, and lognormal mains under the
median-IQR estimator) and the four ``fit`` cells makes a rename or a
changed signature fail here, not first in a benchmark run.
"""

import csv
import importlib.util
from pathlib import Path

import numpy as np

from hereditas.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_runs_without_a_failed_check(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((200, 3))
    y = x.sum(axis=1) + x[:, 0] * x[:, 1] + x[:, 2] ** 2 + rng.standard_normal(200)
    path = tmp_path / "three.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["X1", "X2", "X3", "y"])
        writer.writerows(np.column_stack([x, y]).tolist())
    commands = [["simulate", "--preset", name, "--replicates", "1"] for name in ("setting1", "R3")]
    commands += [["fit", str(path), "--method", method, "--scheme", scheme]
                 for method in ("lasso", "stepwise") for scheme in ("hierarchical", "regular")]

    tracing = _load_tracer()
    tracer = tracing.Tracer(str(tmp_path / "spool"))
    tracer.install()
    try:
        for argv in commands:
            assert tracer.command(main, argv + ["--out-dir", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()

    traced = tracer.collect()
    assert traced["failures"] == []
    spanned = {span[2] for span in traced["spans"]}
    expected = {name for _module, _attr, name, _layer in tracing.TARGETS} | {tracing.APPLY[0]}
    assert expected <= spanned, sorted(expected - spanned)
