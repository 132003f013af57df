"""Workloads: the CLI commands each one runs, its generated inputs, and the
checks on the outputs those commands write.

A command's ``argv`` is what follows ``hereditas`` on a command line.  All
paths are relative to the checkout root, so output files (and the byte
counts the tracer takes of them) are identical across runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

CELLS = 4  # lasso/stepwise x hierarchical/regular
FIT_ROWS = 1500
FIT_MAINS = 15
FIT_SIGMA = 3.0
UNIT_SEEDS = 1000  # campaign unit u of seed s runs master seed s * UNIT_SEEDS + u


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str | None = None  # campaign preset; None for the fit workload
    threads: int = 1
    seconds_per_replicate: float = 3.0  # sizes a traced campaign to the run length

    def min_replicates(self) -> int:
        return 2 if self.threads > 1 else 1  # the pool needs two replicates to start


# Why each workload exists is in README.md and BENCHMARK.json.  The
# two-worker and R3 campaigns are left out of BENCHMARK.json (see README.md)
# but run by name.
WORKLOADS = {w.name: w for w in (
    Workload("campaign-setting1", preset="setting1"),
    Workload("campaign-setting1-par2", preset="setting1", threads=2, seconds_per_replicate=2.0),
    Workload("fit-wide"),
    Workload("campaign-lognormal", preset="R3", seconds_per_replicate=20.0),
)}


@dataclass
class Command:
    argv: list[str]
    fits: int
    label: str  # stable name of the command within its workload
    kind: str  # the label without its unit: commands of one kind do the same work
    outputs: list[str] = field(default_factory=list)
    hierarchical: bool = False


def traced_replicates(workload: Workload, seconds: float) -> int:
    """Size of a traced campaign: three passes, each a third of the run."""
    return max(workload.min_replicates(), round(seconds / 3 / workload.seconds_per_replicate))


def write_fit_csv(path: str, seed: int, unit: int = 0, rows: int = FIT_ROWS,
                  mains: int = FIT_MAINS) -> None:
    """A second-order dataset drawn from ``(seed, unit)``: four active mains,
    three interactions and two quadratics on standard-normal mains."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, unit]))
    x = rng.standard_normal((rows, mains))
    signal = (x[:, :4].sum(axis=1) + x[:, 0] * x[:, 1] + x[:, 0] * x[:, 2]
              + x[:, 1] * x[:, 3] + x[:, 0] ** 2 + x[:, 2] ** 2)
    y = signal + rng.normal(0.0, FIT_SIGMA, rows)
    header = ",".join([f"X{j + 1}" for j in range(mains)] + ["y"])
    body = np.column_stack([x, y])
    np.savetxt(path, body, delimiter=",", header=header, comments="", fmt="%.17g")


def plan(workload: Workload, seed: int, seconds: float, out_dir: str, traced: bool,
         unit: int = 0):
    """The commands of one unit of work, and the input-size record.

    Untraced, a campaign unit is one ``simulate`` command of the fewest
    replicates the workload allows, with master seed ``seed * 1000 + u`` for
    unit ``u``; traced, it is one command of master seed ``seed`` sized to
    the run.  A fit unit is the four ``fit`` commands on one CSV; unit ``u``
    draws its CSV from ``(seed, u)``.  Many short units per run let a
    median drop the host's short stalls and average over datasets.
    """
    if workload.preset is not None:
        if traced:
            reps, master = traced_replicates(workload, seconds), seed
        else:
            reps, master = workload.min_replicates(), seed * UNIT_SEEDS + unit
        argv = ["simulate", "--preset", workload.preset, "--replicates", str(reps),
                "--seed", str(master), "--threads", str(workload.threads), "--out-dir", out_dir]
        report = os.path.join(out_dir, f"{workload.preset}.report.json")
        kind = f"simulate x{reps}"
        commands = [Command(argv, reps * CELLS, f"{kind} #{unit}", kind, [report])]
        return commands, {"replicates": reps, "cells": CELLS}
    csv_path = os.path.join(out_dir, "wide.csv")
    os.makedirs(out_dir, exist_ok=True)
    write_fit_csv(csv_path, seed, unit)
    commands = []
    for method in ("lasso", "stepwise"):
        for scheme in ("hierarchical", "regular"):
            stem = os.path.join(out_dir, f"wide.{method}.{scheme}")
            argv = ["fit", csv_path, "--method", method, "--scheme", scheme,
                    "--seed", str(seed), "--out-dir", out_dir]
            kind = f"fit {method} {scheme}"
            commands.append(Command(argv, 1, f"{kind} #{unit}", kind,
                                    [f"{stem}.fit.json", f"{stem}.coefficients.csv"],
                                    hierarchical=scheme == "hierarchical"))
    size = {"rows": FIT_ROWS, "mains": FIT_MAINS,
            "expanded_columns": FIT_MAINS * (FIT_MAINS + 3) // 2, "replicates": 1,
            "cells": CELLS}
    return commands, size


def check_outputs(command: Command) -> tuple[int, dict]:
    """Failed fits among the command's outputs, and facts read from them.

    Hierarchical campaign cells must keep MSH = 1.0 on every replicate, and a
    hierarchical fit must report heredity satisfied.  A missing or unreadable
    output fails every fit of its command.
    """
    try:
        with open(command.outputs[0]) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return command.fits, {}
    if command.argv[0] == "simulate":
        cfg = doc["config"]
        failed = 0
        reps = cfg["replicates"]
        for cell in doc["cells"]:
            rows = cell["per_replicate"]
            failed += max(reps - len(rows), 0)
            if cell["scheme"] == "hierarchical":
                failed += sum(1 for r in rows if r["msh"] != 1.0)
        p = cfg["p"]
        facts = {"rows_per_replicate": cfg["n_train"] + cfg["n_valid"] + cfg["n_test"],
                 "train_rows": cfg["n_train"], "mains": p,
                 "expanded_columns": p * (p + 3) // 2}
        return min(failed, command.fits), facts
    failed = int(command.hierarchical and doc.get("heredity") != "satisfied")
    return failed, {"train_rows": doc["split_sizes"]["train"]}


def output_digest(command: Command) -> str:
    """sha256 over the command's deterministic outputs (manifests excluded)."""
    h = hashlib.sha256()
    for path in command.outputs:
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()
