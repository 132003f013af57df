#!/usr/bin/env python3
"""Benchmark harness for hereditas: end-to-end runs of the CLI and traced
per-layer runs, one workload per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign-setting1 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1

``--trace 0`` starts a fresh interpreter for every ``hereditas`` command
(the CLI from this checkout's ``src/``) and reports the end-to-end metrics
named in BENCHMARK.json.  ``--trace 1`` runs the same commands in-process
through ``hereditas.cli.main`` in three passes, the middle one with every
module boundary wrapped by ``tracer.Tracer``, and reports the per-layer
metrics.  Each mode checks the outputs it produced; a failed check counts
in ``failed``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give each metric's sample count and the run's record (input
size, environment).  Scratch files go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread per process, set before numpy loads: the timed work is the
# program's own, and the two pool workers of a campaign do not oversubscribe
# a two-core machine.  On a 2-vCPU Intel Xeon VM it also made identical
# commands steadier (wall-time CV 6.8% against 9.4% with OpenBLAS's default
# threads, eight runs each).
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# The kernel BENCHMARK.json was baselined with; runs on another are flagged.
BASELINE_KERNEL = "python"
# The CLI entry point, plus the moment it is ready to parse arguments: a
# CLOCK_MONOTONIC reading, comparable across processes on one machine.
CLI = ("import os, sys, time; from hereditas.cli import main; "
       "open(os.environ['PERFBENCH_READY'], 'w').write(repr(time.monotonic())); "
       "sys.exit(main(sys.argv[1:]))")
ENV_PROBE = ("import json, numpy, scipy, hereditas; print(json.dumps({'kernel': hereditas.KERNEL, "
             "'numpy': numpy.__version__, 'scipy': scipy.__version__, "
             "'hereditas_file': hereditas.__file__}))")


class BenchError(Exception):
    """The benchmark cannot run here (wrong directory, missing program)."""


def percentiles(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    high = None
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            high = {"p": p, "value": statistics.quantiles(values, n=100)[p - 1]}
            break
    return {"median": statistics.median(values), "n": n, "high": high}


def tree_fingerprint(root: Path) -> str:
    """sha256 of the program and benchmark sources: "the same code"."""
    h = hashlib.sha256()
    for base, pattern in (("src", "*"), ("perfbench", "*.py")):
        for path in sorted((root / base).rglob(pattern)):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_state(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    return {"commit": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


class Bench:
    def __init__(self, root: Path):
        if not (root / "src" / "hereditas" / "__init__.py").is_file():
            raise BenchError(f"no src/hereditas under {root}: run from a hereditas checkout")
        with open(root / "BENCHMARK.json") as fh:
            self.spec = json.load(fh)
        self.root = root
        self.work = root / ".bench_build" / "perfbench"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.fingerprint = tree_fingerprint(root)
        self.environment = self._environment()

    def _environment(self) -> dict:
        # Importing in a child also compiles the bytecode once before any timing.
        out = subprocess.run([sys.executable, "-c", ENV_PROBE], cwd=self.root, env=self.env,
                             capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise BenchError(f"cannot import hereditas from {self.root / 'src'}:\n{out.stderr}")
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        if not Path(probe.pop("hereditas_file")).resolve().is_relative_to(self.root / "src"):
            raise BenchError("hereditas was imported from outside this checkout")
        env = {**probe, "python": platform.python_version(), "nproc": os.cpu_count(),
               "cpu": cpu_model(), "blas_threads": BLAS_THREADS,
               "tree_sha256": self.fingerprint, **git_state(self.root)}
        env["kernel_flag"] = (None if probe["kernel"] == BASELINE_KERNEL else
                              f"kernel {probe['kernel']!r} differs from the baseline "
                              f"{BASELINE_KERNEL!r}: do not compare with the baseline")
        return env

    # -- one process per command (--trace 0) ---------------------------------
    def _spawn(self, args: list[str], run_dir: Path) -> dict:
        """Wall, set-up (start to ready) and post-set-up seconds, exit code and
        peak RSS (MB, largest process in the tree) of one fresh interpreter."""
        ready = run_dir / "ready"
        ready.unlink(missing_ok=True)
        with open(run_dir / "stderr.log", "ab") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root,
                                    env={**self.env, "PERFBENCH_READY": str(ready)},
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        work = t1 - float(ready.read_text()) if ready.exists() else t1 - t0
        return {"wall": t1 - t0, "setup": t1 - t0 - work, "work": work, "rc": proc.returncode,
                "cpu": usage.ru_utime + usage.ru_stime, "rss": usage.ru_maxrss / 1024.0}

    def end_to_end(self, workload, seed: int, seconds: float, run_dir: Path) -> dict:
        out_dir = str(run_dir.relative_to(self.root))
        # Warm-up, untimed: the first command of unit 0, which runs again timed.
        warm, _ = workloads.plan(workload, seed, seconds, out_dir, traced=False)
        self._spawn(["-c", CLI, *warm[0].argv], run_dir)
        # Every command's own start-up is a set-up sample, so they span the run.
        setup = []
        units, digests = [], {}
        by_kind: dict[str, dict[str, list[float]]] = {}
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            commands, size = workloads.plan(workload, seed, seconds, out_dir, traced=False,
                                            unit=len(units))
            wall = work = rss = 0.0
            for cmd in commands:
                proc = self._spawn(["-c", CLI, *cmd.argv], run_dir)
                setup.append(proc["setup"])
                wall, work = wall + proc["wall"], work + proc["work"]
                rss = max(rss, proc["rss"])
                kind = by_kind.setdefault(cmd.kind, {"wall": [], "work": [], "cpu": []})
                for key in kind:
                    kind[key].append(proc[key])
                attempted += cmd.fits
                bad, facts = (workloads.check_outputs(cmd) if proc["rc"] == 0
                              else (cmd.fits, {}))
                failed += bad
                size.update(facts)
                digests.setdefault(cmd.label, set()).add(workloads.output_digest(cmd))
            fits = sum(c.fits for c in commands)
            units.append({"wall": wall, "rss": rss, "fits_per_s": fits / work})
            if time.perf_counter() - start + wall > seconds:
                break
        # Identical commands must write identical outputs within the run.
        mismatched = [label for label, d in digests.items() if len(d) > 1]
        samples = {"setup_s": setup, "wall_s": [u["wall"] for u in units],
                   "fits_per_s": [u["fits_per_s"] for u in units],
                   "peak_rss_mb": [u["rss"] for u in units]}
        units_of = {"setup_s": "s", "wall_s": "s", "fits_per_s": "1/s", "peak_rss_mb": "MB"}
        metrics = {name: (statistics.median(v), units_of[name]) for name, v in samples.items()}
        # A unit's time is the sum over its commands of each command kind's
        # median, so a stall in one command does not move the whole unit.
        unit_wall = sum(statistics.median(k["wall"]) for k in by_kind.values())
        unit_work = sum(statistics.median(k["work"]) for k in by_kind.values())
        metrics["wall_s"] = (unit_wall, "s")
        metrics["fits_per_s"] = (fits / unit_work, "1/s")
        return {"metrics": metrics, "samples": {k: percentiles(v) for k, v in samples.items()},
                "attempted": attempted, "failed": failed, "size": size, "units": len(units),
                "commands": by_kind,
                "mismatched": mismatched,
                "determinism": {"outputs": {k: sorted(v)[0] for k, v in digests.items()}}}

    # -- in-process, plain then traced (--trace 1) ----------------------------
    def traced(self, workload, seed: int, seconds: float, run_dir: Path) -> dict:
        sys.path.insert(0, str(self.root / "src"))
        import hereditas.cli as cli

        rel = run_dir.relative_to(self.root)
        tracer = tracing.Tracer(str(run_dir / "spool"))
        walls, outputs = {}, {}
        attempted = failed = 0
        # The traced pass sits between two plain ones, so drift in the
        # machine's speed cancels out of the overhead ratio.
        for mode in ("plain", "traced", "plain-again"):
            commands, size = workloads.plan(workload, seed, seconds, str(rel / mode), traced=True)
            if mode == "traced":
                tracer.install()
            start = time.perf_counter()
            try:
                for cmd in commands:
                    rc = _call(cli.main, cmd.argv, tracer if mode == "traced" else None)
                    attempted += cmd.fits
                    bad, facts = workloads.check_outputs(cmd) if rc == 0 else (cmd.fits, {})
                    failed += bad
                    size.update(facts)
            finally:
                walls[mode] = time.perf_counter() - start
                tracer.uninstall()
            outputs[mode] = {c.label: workloads.output_digest(c) for c in commands}
        data = tracer.collect()
        failed += len(data["failures"])
        # Tracing must not change what the program writes.
        mismatched = sorted({k for o in outputs.values() for k, v in o.items()
                             if outputs["plain"].get(k) != v})
        overhead = walls["traced"] / ((walls["plain"] + walls["plain-again"]) / 2)
        layers = tracing.layer_metrics(data, tracer.campaign_workers, overhead)
        counts = {k: int(data["counts"][k]) for k in tracing.EXACT_COUNTS}
        return {"metrics": layers, "attempted": attempted, "failed": failed, "size": size,
                "check_failures": sorted(set(data["failures"])), "mismatched": mismatched,
                "determinism": {"outputs": outputs["plain"], "counts": counts}}

    # -- one run --------------------------------------------------------------
    def run(self, name: str, seed: int, seconds: float, trace: bool) -> dict:
        workload = workloads.WORKLOADS[name]
        run_dir = self.work / "run" / name
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        mode = self.traced if trace else self.end_to_end
        result = mode(workload, seed, seconds, run_dir)
        shutil.rmtree(run_dir, ignore_errors=True)

        key = f"{name}|seed={seed}|seconds={seconds:g}|trace={int(trace)}"
        drift = self._determinism(key, result["determinism"])
        if drift or result["mismatched"]:
            result["failed"] = result["attempted"]  # nothing in a nondeterministic run counts
        expected = self.spec["per_layer" if trace else "end_to_end"]
        metrics = {}
        for m in expected:
            value, unit = result["metrics"][m["name"]]
            if unit != m["unit"]:
                raise BenchError(f"{m['name']}: measured in {unit}, BENCHMARK.json says {m['unit']}")
            metrics[m["name"]] = {"value": value, "unit": unit}
        failed = min(result["failed"], result["attempted"])
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "input": result["size"], "environment": self.environment,
            "failed_ratio": {"value": failed / result["attempted"], "failed": failed,
                             "base": f"{result['attempted']} attempted fits"},
            "determinism": {"key": key, "drift": drift, "within_run_mismatch": result["mismatched"],
                            **result["determinism"]},
            "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }
        for extra in ("samples", "units", "commands", "check_failures"):
            if extra in result:
                record[extra] = result[extra]
        results = self.work / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}.seed{seed}.trace{int(trace)}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n")
        return {"record": record, "line": {"correct": failed == 0,
                                           "attempted": result["attempted"],
                                           "failed": failed, "metrics": metrics}}

    def _determinism(self, key: str, observed: dict) -> list[str]:
        """Names of outputs or exact counts that differ from an earlier run of
        the same code, workload, seed and length; records first sightings."""
        path = self.work / "determinism.json"
        state = json.loads(path.read_text()) if path.exists() else {}
        known = state.setdefault(self.fingerprint, {}).setdefault(key, {})
        drift = []
        for kind, values in observed.items():
            seen = known.setdefault(kind, {})
            for k, v in values.items():
                if seen.setdefault(k, v) != v:
                    drift.append(f"{kind}:{k}")
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return drift


def _call(main, argv, tracer) -> int:
    """Run the CLI in this process; stdout is discarded, a crash is exit code 1."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            return main(argv) if tracer is None else tracer.command(main, argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            traceback.print_exc()
            return 1


def show(result: dict) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    record = result["record"]
    samples = record.get("samples", {})
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"input={json.dumps(record['input'], sort_keys=True)}")
    for name, m in record["all_metrics"].items():
        s = samples.get(name)
        extra = ""
        if s:
            high = f", p{s['high']['p']}={s['high']['value']:.6g}" if s["high"] else \
                ", no percentile with >= 10 samples beyond it"
            extra = f"  (from n={s['n']} samples{high})"
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{extra}")
    fr = record["failed_ratio"]
    print(f"{'failed_ratio':40s} {fr['value']:.6g} ({fr['failed']} of {fr['base']})")
    if record["environment"]["kernel_flag"]:
        print("FLAG: " + record["environment"]["kernel_flag"])
    print("record " + json.dumps(record, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    try:
        bench = Bench(root)
        names = ([w["name"] for w in bench.spec["workloads"]] if args.workload == "all"
                 else [args.workload])
        unknown = [n for n in names if n not in workloads.WORKLOADS]
        if unknown:
            raise BenchError(f"unknown workload {unknown[0]!r}; known: {sorted(workloads.WORKLOADS)}")
        lines = {}
        for name in names:
            result = bench.run(name, args.seed, args.seconds, bool(args.trace))
            show(result)
            lines[name] = result["line"]
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
