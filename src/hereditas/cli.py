"""Command-line front end: simulate | fit | standardize | report.

Exit codes: 0 success, 1 runtime failure, 2 usage/config/data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (
    DegenerateColumnError,
    HereditasError,
    InfeasibleStartError,
    InvalidConfigError,
    InvalidDimensionError,
    SingularDesignError,
    UnsupportedDistributionError,
)
from .io import (
    RunManifest,
    atomic_write_text,
    config_hash,
    dump_json,
    file_sha256,
    read_table,
    write_coefficients_csv,
    write_matrix_csv,
)
from .report import campaign_tsv, multi_report_tsv, snr_summary
from .selectors import FULL_START, NULL_START, LassoOptions, StepwiseOptions
from .simulate import (
    DEFAULT_CELLS,
    HIERARCHICAL,
    LASSO,
    METHODS,
    PRESETS,
    SCHEMES,
    STEPWISE,
    SettingConfig,
    fit_pipeline,
    preset,
    run_campaign,
    standardize_train,
)
from .standardize import MEAN_SD, MEDIAN_IQR, check_heredity
from .terms import canonical_terms, expand

_USAGE_ERRORS = (
    InvalidConfigError,
    InvalidDimensionError,
    DegenerateColumnError,
    UnsupportedDistributionError,
    InfeasibleStartError,
    SingularDesignError,
)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _add_selector_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lasso-options", default=None, metavar="JSON",
                   help="path to a JSON file of lasso solver options")
    p.add_argument("--stepwise-options", default=None, metavar="JSON",
                   help="path to a JSON file of stepwise options")


def _read_json(path):
    """The parsed JSON file at path; None when no path is given."""
    if not path:
        return None
    with open(path) as fh:
        return json.load(fh)


def _load_selector_options(args):
    """The parsed option files and the JSON documents they hold (None when not given)."""
    lasso = _read_json(args.lasso_options)
    stepwise = _read_json(args.stepwise_options)
    return (None if lasso is None else LassoOptions.from_json_dict(lasso),
            None if stepwise is None else StepwiseOptions.from_json_dict(stepwise),
            {"lasso_options": lasso, "stepwise_options": stepwise})


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument(
        "--threads",
        type=int,
        default=int(os.environ.get("HEREDITAS_THREADS", "1")),
        help="replicate worker threads (default: HEREDITAS_THREADS or 1)",
    )
    p.add_argument("--out-dir", default=".", help="directory for output files")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv",
                   help="stdout rendering of the result summary")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hereditas",
        description="Strong-heredity variable selection via hierarchical standardization.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a seeded simulation campaign")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help=f"one of: {', '.join(sorted(PRESETS))}")
    src.add_argument("--config", help="path to a SettingConfig JSON file")
    sim.add_argument("--replicates", type=int, default=None, help="override replicate count")
    sim.add_argument("--methods", default=",".join(METHODS),
                     help="comma list among lasso,stepwise")
    sim.add_argument("--schemes", default=",".join(SCHEMES),
                     help="comma list among hierarchical,regular")
    _add_selector_options(sim)
    _add_common(sim)

    fit = sub.add_parser("fit", help="fit a selector to a CSV dataset")
    fit.add_argument("data", help="CSV file with a header row")
    fit.add_argument("--response", default="y", help="response column name")
    fit.add_argument("--method", choices=METHODS, default=LASSO)
    fit.add_argument("--scheme", choices=SCHEMES, default=HIERARCHICAL)
    fit.add_argument("--estimator", choices=(MEAN_SD, MEDIAN_IQR), default=MEAN_SD)
    fit.add_argument("--split", default="3:1:1", help="train:valid:test ratio")
    fit.add_argument("--start", choices=("auto", FULL_START, NULL_START), default="auto",
                     help="stepwise starting model (auto: full when feasible)")
    _add_selector_options(fit)
    _add_common(fit)

    std = sub.add_parser("standardize", help="write the standardized expanded design")
    std.add_argument("data", help="CSV file with a header row")
    std.add_argument("--scheme", choices=SCHEMES, default=HIERARCHICAL)
    std.add_argument("--estimator", choices=(MEAN_SD, MEDIAN_IQR), default=MEAN_SD)
    std.add_argument("--response", default=None,
                     help="drop this column before treating the rest as main effects")
    _add_common(std)

    rep = sub.add_parser("report", help="render saved campaign JSON reports")
    rep.add_argument("report_json", nargs="+",
                     help="one or more *.report.json files (several give a "
                          "settings-as-columns table)")
    rep.add_argument("--format", choices=("tsv", "json"), default="tsv")
    return parser


def _write_manifest(out_dir: str, command: str, cfg_dict: dict, seed: int,
                    started: str, outputs: list[str], stem: str) -> str:
    manifest = RunManifest(
        command=command,
        config_hash=config_hash(cfg_dict),
        master_seed=seed,
        tool_version=__version__,
        started=started,
        finished=_now(),
        outputs=tuple(outputs),
    )
    path = os.path.join(out_dir, f"{stem}.manifest.json")
    atomic_write_text(path, dump_json(manifest.to_json_dict()))
    return path


def _parse_cells(methods: str, schemes: str):
    ms = [m.strip() for m in methods.split(",") if m.strip()]
    ss = [s.strip() for s in schemes.split(",") if s.strip()]
    for m in ms:
        if m not in METHODS:
            raise InvalidConfigError(f"unknown method {m!r}")
    for s in ss:
        if s not in SCHEMES:
            raise InvalidConfigError(f"unknown scheme {s!r}")
    cells = tuple((m, s) for m in ms for s in ss)
    return cells if cells else DEFAULT_CELLS


def cmd_simulate(args) -> int:
    started = _now()
    if args.preset is not None:
        cfg = preset(args.preset)
    else:
        cfg = SettingConfig.from_json_dict(_read_json(args.config))
    overrides = {"master_seed": args.seed}
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    cfg = SettingConfig.from_json_dict({**cfg.to_json_dict(), **overrides})
    cells = _parse_cells(args.methods, args.schemes)
    lasso_opts, stepwise_opts, option_docs = _load_selector_options(args)

    report = run_campaign(cfg, cells=cells, threads=args.threads,
                          lasso_opts=lasso_opts, stepwise_opts=stepwise_opts)

    os.makedirs(args.out_dir, exist_ok=True)
    stem = cfg.name
    json_path = os.path.join(args.out_dir, f"{stem}.report.json")
    tsv_path = os.path.join(args.out_dir, f"{stem}.report.tsv")
    atomic_write_text(json_path, dump_json(report.to_json_dict()))
    atomic_write_text(tsv_path, campaign_tsv(report))
    run_config = {"config": cfg.to_json_dict(), "cells": cells, **option_docs}
    _write_manifest(args.out_dir, " ".join(sys.argv), run_config, cfg.master_seed,
                    started, [json_path, tsv_path], stem)

    print(snr_summary(report))
    if args.format == "tsv":
        sys.stdout.write(campaign_tsv(report))
    else:
        sys.stdout.write(dump_json(report.to_json_dict()))
    return 0


def split_sizes(n: int, ratios: tuple[int, int, int]) -> tuple[int, int, int]:
    """Allocate train first (floor of its share); valid/test split the rest,
    floor to valid.  3:1:1 on 449 rows gives 269/90/90."""
    a, b, c = ratios
    total = a + b + c
    n_train = n * a // total
    remaining = n - n_train
    n_valid = remaining * b // (b + c)
    return n_train, n_valid, remaining - n_valid


def _parse_split(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidConfigError(f"--split must look like 3:1:1, got {text!r}")
    try:
        a, b, c = (int(p) for p in parts)
    except ValueError:
        raise InvalidConfigError(f"--split must be integers, got {text!r}") from None
    if min(a, b, c) < 1:
        raise InvalidConfigError("--split ratios must be positive")
    return a, b, c


def _split_response(table, name: str):
    """(the table without the response column, the response column)."""
    if name not in table.columns:
        raise InvalidConfigError(f"response column {name!r} not in {list(table.columns)}")
    return table.drop(name), table.column(name)


def cmd_fit(args) -> int:
    started = _now()
    mains, y_all = _split_response(read_table(args.data), args.response)
    x_all = mains.data
    n = x_all.shape[0]
    ratios = _parse_split(args.split)
    n_tr, n_va, n_te = split_sizes(n, ratios)
    if min(n_tr, n_va, n_te) < 2:
        raise InvalidConfigError(f"n={n} is too small for a {args.split} split")

    rng = np.random.default_rng(args.seed)
    order = rng.permutation(n)
    idx_tr = order[:n_tr]
    idx_va = order[n_tr:n_tr + n_va]
    idx_te = order[n_tr + n_va:]

    terms = canonical_terms(x_all.shape[1])
    x_tr, y_tr = x_all[idx_tr], y_all[idx_tr]
    x_va, y_va = x_all[idx_va], y_all[idx_va]
    x_te, y_te = x_all[idx_te], y_all[idx_te]

    lasso_opts, stepwise_opts, option_docs = _load_selector_options(args)
    start = None
    if args.method == STEPWISE:
        # An explicit --start wins, then the options file, then the auto rule.
        if args.start != "auto":
            start = args.start
        elif "start" in (option_docs["stepwise_options"] or {}):
            start = stepwise_opts.start
        else:
            start = FULL_START if n_tr > len(terms) + 1 else NULL_START
        stepwise_opts = replace(stepwise_opts or StepwiseOptions(), start=start)

    fitted = fit_pipeline((x_tr, y_tr), (x_va, y_va), terms, args.method, args.scheme,
                          args.estimator, lasso_opts, stepwise_opts)
    raw, fit, tuned = fitted.raw_coefs, fitted.fit, fitted.tuned
    if tuned is not None:
        tuning = {"lambda": tuned.best_lambda, "path": tuned.to_json_dict()}
    else:
        tuning = {"aic": fit.tuning, "steps": fit.iterations, "start": start}
    test_design = expand(x_te, terms)

    ok, violators = check_heredity(raw)
    resid = raw.predict(test_design) - y_te
    test_mse = float(resid @ resid) / len(y_te)

    os.makedirs(args.out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.data))[0] + f".{args.method}.{args.scheme}"
    coef_path = os.path.join(args.out_dir, f"{stem}.coefficients.csv")
    write_coefficients_csv(coef_path, raw)
    summary = {
        "method": args.method,
        "scheme": args.scheme,
        "estimator": args.estimator,
        "heredity": "satisfied" if ok else "violated",
        "violators": [t.label() for t in violators],
        "test_mse": test_mse,
        "n_selected": len(raw.selected()),
        "split_sizes": {"train": n_tr, "valid": n_va, "test": n_te},
        "tuning": tuning,
        "standardization": fitted.params.to_json_dict(),
    }
    json_path = os.path.join(args.out_dir, f"{stem}.fit.json")
    atomic_write_text(json_path, dump_json(summary))
    run_config = {
        "data": file_sha256(args.data), "split": args.split, "response": args.response,
        "method": args.method, "scheme": args.scheme, "estimator": args.estimator,
        "start": start, **option_docs,
    }
    _write_manifest(args.out_dir, " ".join(sys.argv), run_config,
                    args.seed, started, [coef_path, json_path], stem)

    if args.format == "json":
        sys.stdout.write(dump_json(summary))
    else:
        print(f"heredity\t{summary['heredity']}")
        if violators:
            print("violators\t" + ",".join(summary["violators"]))
        print(f"test_mse\t{test_mse:.4f}")
        print(f"n_selected\t{summary['n_selected']}")
    return 0


def cmd_standardize(args) -> int:
    started = _now()
    table = read_table(args.data)
    if args.response is not None:
        table, _ = _split_response(table, args.response)
    terms = canonical_terms(table.data.shape[1])
    z, params, _, _ = standardize_train(table.data, terms, args.scheme, args.estimator)

    os.makedirs(args.out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.data))[0] + f".{args.scheme}"
    matrix_path = os.path.join(args.out_dir, f"{stem}.standardized.csv")
    params_path = os.path.join(args.out_dir, f"{stem}.params.json")
    write_matrix_csv(matrix_path, terms.labels(), z)
    atomic_write_text(params_path, dump_json(params.to_json_dict()))
    _write_manifest(args.out_dir, " ".join(sys.argv),
                    {"data": file_sha256(args.data), "scheme": args.scheme,
                     "estimator": args.estimator,
                     "response": args.response}, args.seed, started,
                    [matrix_path, params_path], stem)
    print(f"wrote {matrix_path} and {params_path}")
    return 0


def cmd_report(args) -> int:
    docs = [_read_json(path) for path in args.report_json]
    if args.format == "json":
        sys.stdout.write(dump_json(docs if len(docs) > 1 else docs[0]))
    else:
        sys.stdout.write(multi_report_tsv(docs))
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "standardize": cmd_standardize,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HereditasError as exc:  # remaining package errors are runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # bad option files, malformed JSON, missing paths
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
