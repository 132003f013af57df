#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at minimal size.

    python3 perfbench/smoke.py [workload ...]

For each workload (default: all of them, listed in BENCHMARK.json or not)
it runs ``run.py`` once with ``--trace 0`` and twice with ``--trace 1``
and asserts that:

- every run exits 0 and its last line reports ``correct`` with no failed fit;
- every metric BENCHMARK.json names is emitted with its unit;
- the traced run emits a nonzero busy time or call count for every layer
  that runs on the workload;
- the second traced run finds no drift in the exact counts of the first.

It also asserts that ``run.py`` exits nonzero without a result in a
directory that holds only BENCHMARK.json and the benchmark's files.
Scratch files go under ``.bench_build/perfbench/smoke``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

SECONDS = "1"
# Per-layer metrics that must be nonzero wherever their layer runs.
EVERYWHERE = (
    "standardize.busy_s", "standardize.calls", "standardize.back_transform.busy_s",
    "terms.expand.busy_s", "selectors.lasso.busy_s", "selectors.lasso.self_s",
    "selectors.lasso.paths", "selectors.lasso.path_ms_p50", "selectors.lasso.path_ms_p90",
    "kernels.cd.calls", "kernels.cd.sweeps", "kernels.cd.busy_s", "kernels.cd.us_per_sweep",
    "kernels.cd.flops_computed", "selectors.stepwise.busy_s", "selectors.stepwise.runs",
    "selectors.stepwise.moves", "selectors.stepwise.candidates",
    "selectors.stepwise.us_per_candidate", "selectors.stepwise.accept_ratio",
    "io.write.busy_s", "io.bytes_written", "cli.self_s", "trace.overhead_ratio",
)
CAMPAIGN_ONLY = (
    "simulate.generate.busy_s", "simulate.generate.calls", "simulate.pool.efficiency",
    "metrics.score.busy_s", "metrics.snr.busy_s", "report.render.busy_s",
)
FIT_ONLY = ("io.read.busy_s",)


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=900)


def result_of(proc: subprocess.CompletedProcess, what: str) -> tuple[dict, dict]:
    assert proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return json.loads(lines[-1]), record


def check_workload(root: Path, spec: dict, name: str) -> None:
    line, _ = result_of(run(root, "--workload", name, "--seed", "0", "--seconds", SECONDS,
                            "--trace", "0"), f"{name} trace 0")
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected, line["metrics"]
    assert all(v["value"] > 0 for v in line["metrics"].values()), line["metrics"]

    must = EVERYWHERE + (CAMPAIGN_ONLY if workloads.WORKLOADS[name].preset else FIT_ONLY)
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for attempt in (1, 2):
        line, record = result_of(run(root, "--workload", name, "--seed", "0", "--seconds",
                                     SECONDS, "--trace", "1"), f"{name} trace 1 #{attempt}")
        assert line["correct"] and line["failed"] == 0, (line, record["determinism"])
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected, line["metrics"]
        zero = [m for m in must if not record["all_metrics"][m]["value"] > 0]
        assert not zero, f"{name}: layers that ran report zero: {zero}"
    assert not record["determinism"]["drift"], record["determinism"]
    print(f"ok  {name}", flush=True)


def check_bare_directory(root: Path) -> None:
    bare = root / ".bench_build" / "perfbench" / "smoke" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(root / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", "fit-wide", "--seed", "0", "--seconds", SECONDS, "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0, "run.py succeeded without the program"
    assert '"correct"' not in proc.stdout, proc.stdout
    print("ok  bare directory exits", proc.returncode, flush=True)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check_bare_directory(root)
    for name in argv or list(workloads.WORKLOADS):
        check_workload(root, spec, name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
