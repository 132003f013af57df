"""In-process span tracer for the hereditas modules, used by ``run.py --trace 1``.

The tracer wraps the functions each module exposes to its callers and
records one span per call (id, parent span, name, start, end, process)
plus counters taken from the arguments and results at the same boundary.
It rebinds every reference to a wrapped function inside the ``hereditas``
package, so ``from .x import f`` copies are traced too, and ``uninstall``
restores them.  Spans stay in memory.  Worker processes forked by a
campaign's process pool append theirs to a spool file after each top-level
call, because a pool worker exits without running exit handlers;
``collect`` merges everything when the run ends.

The hooks also run the traced-run output checks: the KKT residual of every
chosen lasso fit and the prediction identity of every back-transform.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

import numpy as np

KKT_TOL = 1e-6
BACK_TRANSFORM_TOL = 1e-10

COMMAND = "cli.main"
# (module, attribute, span name, layer).  Nested spans of one layer count
# once in that layer's busy time.
TARGETS = (
    ("hereditas.simulate", "run_campaign", "simulate.campaign", "campaign"),
    ("hereditas.simulate", "campaign_snr", "simulate.campaign_snr", "campaign"),
    ("hereditas.simulate", "generate_replicate", "simulate.generate", "generate"),
    ("hereditas.simulate", "run_pipeline", "simulate.pipeline", "pipeline"),
    ("hereditas.standardize", "fit_location_scale", "standardize.fit", "standardize"),
    ("hereditas.standardize", "standardize_hierarchical", "standardize.hierarchical",
     "standardize"),
    ("hereditas.standardize", "standardize_regular", "standardize.regular", "standardize"),
    ("hereditas.standardize", "back_transform_hierarchical", "back_transform.hierarchical",
     "back_transform"),
    ("hereditas.standardize", "back_transform_regular", "back_transform.regular",
     "back_transform"),
    ("hereditas.terms", "expand", "terms.expand", "terms"),
    ("hereditas.selectors", "tune_lasso", "selectors.lasso", "lasso"),
    ("hereditas.kernels", "cd_solve", "kernels.cd", "kernels"),
    ("hereditas.selectors", "stepwise_aic", "selectors.stepwise", "stepwise"),
    ("hereditas.metrics", "score_selection", "metrics.score", "metrics"),
    ("hereditas.metrics", "snr", "metrics.snr", "metrics"),
    ("hereditas.io", "read_table", "io.read", "io.read"),
    ("hereditas.io", "atomic_write_text", "io.write", "io.write"),
    ("hereditas.io", "write_coefficients_csv", "io.write_coefficients", "io.write"),
    ("hereditas.report", "campaign_tsv", "report.campaign_tsv", "report"),
    ("hereditas.report", "snr_summary", "report.snr_summary", "report"),
)
# RegularParams.apply is a method, patched on its class.
APPLY = ("regular.apply", "standardize")
LAYER = {name: layer for _m, _a, name, layer in TARGETS} | {APPLY[0]: APPLY[1], COMMAND: "cli"}


class Tracer:
    """Spans and counters of one traced run; forked workers spool to ``spool_dir``."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        os.makedirs(spool_dir, exist_ok=True)
        self.owner = os.getpid()
        self.pid = self.owner
        self._next = 0
        self._clear()
        self.stack: list[int] = []
        self.originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._designs: dict[int, tuple[object, object]] = {}

    def _clear(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id or -1, name, t0, t1, pid)
        self.counts: Counter = Counter()
        self.failures: list[str] = []
        self.path_ms: list[float] = []
        self.campaign_workers: list[int] = []

    def span(self, name: str, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:  # first call in a forked worker
                tracer.pid = os.getpid()
                tracer.stack = []
                tracer._clear()
            sid = tracer._next
            tracer._next += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, tracer.pid))
            if hook is not None:
                hook(tracer, args, kwargs, result, t1 - t0)
            if not tracer.stack and tracer.pid != tracer.owner:
                tracer._spool()
            return result

        return functools.wraps(fn)(traced)

    def _spool(self) -> None:
        path = os.path.join(self.spool_dir, f"worker-{self.pid}.jsonl")
        part = {"spans": self.spans, "counts": self.counts, "failures": self.failures,
                "path_ms": self.path_ms}
        with open(path, "a") as fh:
            fh.write(json.dumps(part) + "\n")
        self._clear()

    def install(self) -> None:
        import hereditas.standardize as std

        hooks = {
            "simulate.campaign": _campaign_hook,
            "kernels.cd": _cd_hook,
            "selectors.lasso": _lasso_hook,
            "selectors.stepwise": _stepwise_hook,
            "standardize.hierarchical": _remember_design,
            "standardize.regular": _remember_design,
            "back_transform.hierarchical": _back_transform_hook,
            "back_transform.regular": _back_transform_hook,
            "io.write": _write_hook,
        }
        package = [m for n, m in sys.modules.items()
                   if n == "hereditas" or n.startswith("hereditas.")]
        for module_name, attr, name, _layer in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            self.originals[name] = original
            wrapper = self.span(name, original, hooks.get(name))
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        apply = std.RegularParams.apply
        self.originals[APPLY[0]] = apply
        self._patched.append((std.RegularParams, "apply", apply))
        std.RegularParams.apply = self.span(APPLY[0], apply)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
        self._designs.clear()

    def command(self, fn, *args):
        """Run one CLI command under a top-level span."""
        return self.span(COMMAND, fn)(*args)

    def collect(self) -> dict:
        """Spans, counters and check failures of this process and its workers."""
        data = {"spans": list(self.spans), "counts": Counter(self.counts),
                "failures": list(self.failures), "path_ms": list(self.path_ms)}
        for fname in sorted(os.listdir(self.spool_dir)):
            with open(os.path.join(self.spool_dir, fname)) as fh:
                for line in fh:
                    part = json.loads(line)
                    data["spans"] += [tuple(s) for s in part["spans"]]
                    data["counts"].update(part["counts"])
                    data["failures"] += part["failures"]
                    data["path_ms"] += part["path_ms"]
        return data


# -- hooks: counters and output checks at the layer boundaries -------------
def _campaign_hook(tracer, args, kwargs, _report, _dt):
    # Mirrors run_campaign: a pool runs only with threads > 1 and > 1 replicate.
    cfg = args[0]
    threads = kwargs.get("threads", args[2] if len(args) > 2 else 1)
    pooled = threads > 1 and cfg.replicates > 1
    tracer.campaign_workers.append(min(threads, cfg.replicates) if pooled else 1)


def _cd_hook(tracer, args, _kwargs, result, _dt):
    xt, col_nrm2 = args[0], args[3]
    sweeps, converged = int(result[0]), bool(result[1])
    live = int(np.count_nonzero(np.asarray(col_nrm2) > 0.0))
    tracer.counts["kernels.cd.calls"] += 1
    tracer.counts["kernels.cd.sweeps"] += sweeps
    tracer.counts["kernels.cd.nonconverged"] += int(not converged)
    # One coordinate update is a dot product and an axpy over n rows.
    tracer.counts["kernels.cd.flops_computed"] += sweeps * live * 4 * int(xt.shape[1])


def _lasso_hook(tracer, args, kwargs, tuned, dt):
    from hereditas.selectors import lasso_kkt_residual

    tracer.counts["selectors.lasso.paths"] += 1
    tracer.path_ms.append(dt * 1e3)
    x_tr, y_tr = args[0] if args else kwargs["train"]
    opts = args[2] if len(args) > 2 else kwargs.get("opts")
    residual = max(lasso_kkt_residual(x_tr, y_tr, tuned.fit, tuned.best_lambda, opts))
    if residual > KKT_TOL:
        tracer.failures.append(f"lasso KKT residual {residual:.3g} > {KKT_TOL:g}")


def _stepwise_hook(tracer, args, _kwargs, fit, _dt):
    m = np.shape(args[0])[1]
    tracer.counts["selectors.stepwise.runs"] += 1
    tracer.counts["selectors.stepwise.moves"] += fit.iterations
    # Every step, the final non-improving one included, scores all m add/drop moves.
    tracer.counts["selectors.stepwise.candidates"] += (fit.iterations + 1) * m
    tracer.counts["selectors.stepwise.cap_hits"] += int(not fit.converged)


def _remember_design(tracer, args, _kwargs, result, _dt):
    # Key the raw design by the parameters object the back-transform receives.
    params = result[1] if isinstance(result, tuple) else args[1]
    tracer._designs[id(params)] = (params, args[0])


def _back_transform_hook(tracer, args, _kwargs, raw_coefs, _dt):
    from hereditas.standardize import standardize_mains

    std_coefs, params = args[0], args[1]
    kept = tracer._designs.get(id(params))
    if kept is None or kept[0] is not params:
        tracer.failures.append("back-transform of parameters from no traced standardization")
        return
    design = kept[1]
    expand = tracer.originals["terms.expand"]
    if std_coefs.scale_tag == "hier-std":
        z = expand(standardize_mains(design, params), std_coefs.terms)
    else:
        z = tracer.originals[APPLY[0]](params, design)
    pred_std = std_coefs.predict(z)
    pred_raw = raw_coefs.predict(expand(design, raw_coefs.terms))
    scale = max(float(np.max(np.abs(pred_std))), 1.0)
    if float(np.max(np.abs(pred_raw - pred_std))) > BACK_TRANSFORM_TOL * scale:
        tracer.failures.append(f"back-transform changed predictions beyond {BACK_TRANSFORM_TOL:g}")


def _write_hook(tracer, args, kwargs, _result, _dt):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.counts["io.bytes_written"] += len(text.encode())


# -- per-layer metrics -------------------------------------------------------
def _ancestors(span, by_id):
    parent, pid = span[1], span[5]
    while parent != -1:
        span = by_id[(pid, parent)]
        yield span
        parent = span[1]


def _busy(spans, by_id, layer: str, below: str | None = None) -> float:
    """Summed duration of the layer's outermost spans, optionally only those
    below a span of layer ``below``."""
    total = 0.0
    for s in spans:
        if LAYER[s[2]] != layer:
            continue
        up = [LAYER[a[2]] for a in _ancestors(s, by_id)]
        if layer not in up and (below is None or below in up):
            total += s[4] - s[3]
    return total


def _pool_efficiency(spans, workers: list[int]) -> float:
    """Summed replicate busy time / (workers x campaign wall less its SNR)."""
    campaigns = [s for s in spans if s[2] == "simulate.campaign"]
    capacity = 0.0
    for (sid, _p, _n, t0, t1, pid), w in zip(campaigns, workers):
        snr = sum(s[4] - s[3] for s in spans
                  if s[5] == pid and s[1] == sid and s[2] == "simulate.campaign_snr")
        capacity += w * (t1 - t0 - snr)
    owner = {s[5] for s in spans if s[2] == COMMAND}
    in_campaign = {(s[5], s[0]) for s in campaigns}
    busy = sum(s[4] - s[3] for s in spans
               if s[2] in ("simulate.generate", "simulate.pipeline")
               and ((s[5] not in owner and s[1] == -1) or (s[5], s[1]) in in_campaign))
    return busy / capacity if capacity > 0 else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(data: dict, workers: list[int], overhead_ratio: float) -> dict:
    """Per-layer metric name -> (value, unit) from a collected trace."""
    spans, counts, path_ms = data["spans"], data["counts"], data["path_ms"]
    by_id = {(s[5], s[0]): s for s in spans}
    busy = {layer: _busy(spans, by_id, layer) for layer in set(LAYER.values())}

    def total(name):
        return sum(s[4] - s[3] for s in spans if s[2] == name)

    def calls(layer):
        return sum(1 for s in spans if LAYER[s[2]] == layer)

    commands = {(s[5], s[0]) for s in spans if s[2] == COMMAND}
    command_children = sum(s[4] - s[3] for s in spans if (s[5], s[1]) in commands)
    sweeps = counts["kernels.cd.sweeps"]
    moves = counts["selectors.stepwise.moves"]
    candidates = counts["selectors.stepwise.candidates"]
    return {
        "simulate.generate.busy_s": (busy["generate"], "s"),
        "simulate.generate.calls": (calls("generate"), "count"),
        "simulate.pool.efficiency": (_pool_efficiency(spans, workers), "ratio"),
        "standardize.busy_s": (busy["standardize"], "s"),
        "standardize.calls": (calls("standardize"), "count"),
        "standardize.back_transform.busy_s": (busy["back_transform"], "s"),
        "terms.expand.busy_s": (busy["terms"], "s"),
        "selectors.lasso.busy_s": (busy["lasso"], "s"),
        "selectors.lasso.self_s": (busy["lasso"] - _busy(spans, by_id, "kernels", "lasso"), "s"),
        "selectors.lasso.paths": (counts["selectors.lasso.paths"], "count"),
        "selectors.lasso.path_ms_p50": (float(np.quantile(path_ms, 0.5)) if path_ms else 0.0, "ms"),
        "selectors.lasso.path_ms_p90": (float(np.quantile(path_ms, 0.9)) if path_ms else 0.0, "ms"),
        "kernels.cd.calls": (counts["kernels.cd.calls"], "count"),
        "kernels.cd.sweeps": (sweeps, "count"),
        "kernels.cd.busy_s": (busy["kernels"], "s"),
        "kernels.cd.us_per_sweep": (_ratio(busy["kernels"] * 1e6, sweeps), "us"),
        "kernels.cd.nonconverged": (counts["kernels.cd.nonconverged"], "count"),
        "kernels.cd.flops_computed": (counts["kernels.cd.flops_computed"], "flop"),
        "selectors.stepwise.busy_s": (busy["stepwise"], "s"),
        "selectors.stepwise.runs": (counts["selectors.stepwise.runs"], "count"),
        "selectors.stepwise.moves": (moves, "count"),
        "selectors.stepwise.candidates": (candidates, "count"),
        "selectors.stepwise.us_per_candidate": (_ratio(busy["stepwise"] * 1e6, candidates), "us"),
        "selectors.stepwise.accept_ratio": (_ratio(moves, candidates), "ratio"),
        "selectors.stepwise.cap_hits": (counts["selectors.stepwise.cap_hits"], "count"),
        "metrics.score.busy_s": (total("metrics.score"), "s"),
        "metrics.snr.busy_s": (total("metrics.snr"), "s"),
        "io.read.busy_s": (busy["io.read"], "s"),
        "io.write.busy_s": (busy["io.write"], "s"),
        "io.bytes_written": (counts["io.bytes_written"], "bytes"),
        "report.render.busy_s": (busy["report"], "s"),
        "cli.self_s": (busy["cli"] - command_children, "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }


# Counts that repeat exactly for the same code, workload, seed and run length.
EXACT_COUNTS = (
    "kernels.cd.calls",
    "kernels.cd.sweeps",
    "kernels.cd.nonconverged",
    "selectors.lasso.paths",
    "selectors.stepwise.runs",
    "selectors.stepwise.moves",
    "selectors.stepwise.candidates",
    "io.bytes_written",
)
