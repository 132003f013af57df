"""Command-line front end: simulate | fit | standardize | report.

Exit codes: 0 success, 1 when standardization parameters do not match
their terms (a bug), 2 for any other usage, config or data error.
"""

from __future__ import annotations

import argparse
import gc
import os
import shlex
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import InconsistentParamsError, InvalidConfigError
from .io import (
    atomic_write_text,
    config_hash,
    dump_json,
    from_json_fields,
    read_json,
    read_table,
    to_json,
    write_coefficients_csv,
    write_matrix_csv,
)
from .metrics import AggregateStat, mse
from .report import campaign_tsv, multi_report_tsv, snr_summary
from .simulate import (
    METHODS,
    PRESETS,
    SCHEMES,
    SELECTORS,
    SettingConfig,
    fit_pipeline,
    preset,
    run_campaign,
    standardize_train,
)
from .standardize import ESTIMATORS, MEAN_SD, check_heredity
from .terms import canonical_terms, expand


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _add_run_options(p: argparse.ArgumentParser) -> None:
    """The options of the commands that select models: simulate and fit."""
    for method in METHODS:
        p.add_argument(f"--{method}-options", default=None, metavar="JSON",
                       help=f"path to a JSON file of {method} options")
    _add_out_dir(p)
    _add_format(p)


def _load_selector_options(args):
    """The options of each method whose --<method>-options file is given, and
    the manifest's {"<method>_options": the file's JSON document, or None}."""
    docs = {f"{m}_options": read_json(getattr(args, f"{m}_options")) for m in SELECTORS}
    options = {m: from_json_fields(cls, docs[f"{m}_options"], f"{m} option")
               for m, (cls, _) in SELECTORS.items() if docs[f"{m}_options"] is not None}
    return options, docs


def _add_out_dir(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", default=".", help="directory for output files")


def _add_format(p: argparse.ArgumentParser) -> None:
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
                     help=f"comma list among {','.join(METHODS)}")
    sim.add_argument("--schemes", default=",".join(SCHEMES),
                     help=f"comma list among {','.join(SCHEMES)}")
    sim.add_argument("--threads", type=int, default=1, help="replicate worker processes")
    sim.add_argument("--seed", type=int, default=None,
                     help="master RNG seed (default: the setting's master_seed)")
    _add_run_options(sim)

    fit = sub.add_parser("fit", help="fit a selector to a CSV dataset")
    fit.add_argument("data", help="CSV file with a header row")
    fit.add_argument("--response", default="y", help="response column name")
    fit.add_argument("--method", choices=METHODS, default=METHODS[0])
    fit.add_argument("--scheme", choices=SCHEMES, default=SCHEMES[0])
    fit.add_argument("--estimator", choices=ESTIMATORS, default=MEAN_SD)
    fit.add_argument("--split", default="3:1:1", help="train:valid:test ratio")
    fit.add_argument("--seed", type=int, default=0, help="master RNG seed")
    _add_run_options(fit)

    std = sub.add_parser("standardize", help="write the standardized expanded design")
    std.add_argument("data", help="CSV file with a header row")
    std.add_argument("--scheme", choices=SCHEMES, default=SCHEMES[0])
    std.add_argument("--estimator", choices=ESTIMATORS, default=MEAN_SD)
    std.add_argument("--response", default=None,
                     help="drop this column before treating the rest as main effects")
    _add_out_dir(std)

    rep = sub.add_parser("report", help="render saved campaign JSON reports")
    rep.add_argument("report_json", nargs="+",
                     help="one or more *.report.json files (several give a "
                          "settings-as-columns table)")
    _add_format(rep)
    return parser


def _write_manifest(out_dir: str, command: str, cfg_dict: dict, seed: int | None,
                    started: str, outputs: list[str], stem: str) -> str:
    """Write the run's manifest: enough provenance to byte-reproduce it.
    Timestamps live here, not in the reports, so reports stay byte-stable;
    ``seed`` is None for standardize, which draws nothing."""
    manifest = {
        "command": command,
        "config_hash": config_hash(cfg_dict),
        "master_seed": seed,
        "tool_version": __version__,
        "started": started,
        "finished": _now(),
        "outputs": outputs,
    }
    path = os.path.join(out_dir, f"{stem}.manifest.json")
    atomic_write_text(path, dump_json(manifest))
    return path


def _parse_list(text: str, valid: tuple[str, ...], what: str) -> list[str]:
    """The distinct values a comma list names, each one of valid."""
    values = [v.strip() for v in text.split(",") if v.strip()]
    for v in values:
        if v not in valid:
            raise InvalidConfigError(f"unknown {what} {v!r}")
    if not values or len(set(values)) < len(values):
        raise InvalidConfigError(f"--{what}s must name distinct {what}s among "
                                 f"{','.join(valid)}, got {text!r}")
    return values


def cmd_simulate(args) -> int:
    started = _now()
    if args.threads < 1:
        raise InvalidConfigError("--threads must be at least 1")
    if args.preset is not None:
        cfg = preset(args.preset)
    else:
        cfg = from_json_fields(SettingConfig, read_json(args.config), "config field")
    seed = cfg.master_seed if args.seed is None else args.seed
    replicates = cfg.replicates if args.replicates is None else args.replicates
    cfg = replace(cfg, master_seed=seed, replicates=replicates)
    cells = tuple((m, s) for m in _parse_list(args.methods, METHODS, "method")
                  for s in _parse_list(args.schemes, SCHEMES, "scheme"))
    options, option_docs = _load_selector_options(args)

    report = run_campaign(cfg, cells=cells, threads=args.threads, options=options)

    os.makedirs(args.out_dir, exist_ok=True)
    stem = cfg.name
    json_path = os.path.join(args.out_dir, f"{stem}.report.json")
    tsv_path = os.path.join(args.out_dir, f"{stem}.report.tsv")
    doc, tsv = dump_json(to_json(report)), campaign_tsv(report)
    atomic_write_text(json_path, doc)
    atomic_write_text(tsv_path, tsv)
    run_config = {"config": to_json(cfg), "cells": cells, **option_docs}
    _write_manifest(args.out_dir, args.command_line, run_config, cfg.master_seed,
                    started, [json_path, tsv_path], stem)

    print(snr_summary(report))
    sys.stdout.write(tsv if args.format == "tsv" else doc)
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


def _split_response(header: list[str], data: np.ndarray, name: str):
    """(the values without the response column, the response column)."""
    if name not in header:
        raise InvalidConfigError(f"response column {name!r} not in {header}")
    j = header.index(name)
    return np.delete(data, j, axis=1), data[:, j]


def cmd_fit(args) -> int:
    started = _now()
    header, data, data_sha256 = read_table(args.data)
    x_all, y_all = _split_response(header, data, args.response)
    n = x_all.shape[0]
    n_tr, n_va, n_te = split_sizes(n, _parse_split(args.split))
    if min(n_tr, n_va, n_te) < 2:
        raise InvalidConfigError(f"n={n} is too small for a {args.split} split")

    order = np.random.default_rng(args.seed).permutation(n)
    train, valid, (x_te, y_te) = ((x_all[idx], y_all[idx])
                                  for idx in np.split(order, [n_tr, n_tr + n_va]))
    terms = canonical_terms(x_all.shape[1])

    options, option_docs = _load_selector_options(args)
    fitted = fit_pipeline(train, valid, terms, args.method, args.scheme, args.estimator,
                          options)
    raw = fitted.raw_coefs
    ok, violators = check_heredity(raw)
    test_mse = mse(raw.predict(expand(x_te, terms)), y_te)

    os.makedirs(args.out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.data))[0] + f".{args.method}.{args.scheme}"
    coef_path = os.path.join(args.out_dir, f"{stem}.coefficients.csv")
    write_coefficients_csv(coef_path, raw)
    standardization = to_json(fitted.params)  # records the estimator its scheme used
    summary = {
        "method": args.method,
        "scheme": args.scheme,
        "estimator": standardization["estimator"],
        "heredity": "satisfied" if ok else "violated",
        "violators": [t.label() for t in violators],
        "test_mse": test_mse,
        "n_selected": len(raw.selected()),
        "split_sizes": {"train": n_tr, "valid": n_va, "test": n_te},
        "tuning": fitted.tuning,
        "standardization": standardization,
    }
    json_path = os.path.join(args.out_dir, f"{stem}.fit.json")
    atomic_write_text(json_path, dump_json(summary))
    run_config = {
        "data": data_sha256, "split": args.split, "response": args.response,
        "method": args.method, "scheme": args.scheme, "estimator": summary["estimator"],
        **option_docs,
    }
    _write_manifest(args.out_dir, args.command_line, run_config,
                    args.seed, started, [coef_path, json_path], stem)

    if fitted.warning is not None:
        print(f"warning: {fitted.warning}", file=sys.stderr)
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
    header, x, data_sha256 = read_table(args.data)
    if args.response is not None:
        x, _ = _split_response(header, x, args.response)
    terms = canonical_terms(x.shape[1])
    z, params, *_ = standardize_train(x, terms, args.scheme, args.estimator)

    os.makedirs(args.out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.data))[0] + f".{args.scheme}"
    matrix_path = os.path.join(args.out_dir, f"{stem}.standardized.csv")
    params_path = os.path.join(args.out_dir, f"{stem}.params.json")
    write_matrix_csv(matrix_path, terms.labels(), z)
    params_doc = to_json(params)  # records the estimator its scheme used
    atomic_write_text(params_path, dump_json(params_doc))
    _write_manifest(args.out_dir, args.command_line,
                    {"data": data_sha256, "scheme": args.scheme,
                     "estimator": params_doc["estimator"],
                     "response": args.response}, None, started,
                    [matrix_path, params_path], stem)
    print(f"wrote {matrix_path} and {params_path}")
    return 0


def _read_report(path) -> dict:
    """The campaign report at path, checked for the fields the table reads."""
    doc = read_json(path)
    if not (isinstance(doc, dict) and isinstance(doc.get("config"), dict)
            and isinstance(doc["config"].get("name"), str)
            and isinstance(doc.get("cells"), list)):
        raise InvalidConfigError(
            f"{path}: not a campaign report (no string config.name or no cells)")
    try:
        for cell in doc["cells"]:
            if not (isinstance(cell, dict) and isinstance(cell.get("method"), str) and
                    isinstance(cell.get("scheme"), str) and isinstance(cell.get("aggregates"), dict)):
                raise InvalidConfigError("a cell is not an object with a string method and "
                                         "scheme and an aggregates object")
            for agg in cell["aggregates"].values():
                if agg is not None:
                    from_json_fields(AggregateStat, agg, "aggregate field")
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"{path}: {exc}") from None
    return doc


def cmd_report(args) -> int:
    docs = [_read_report(path) for path in args.report_json]
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.command_line = shlex.join(["hereditas", *argv])  # what the manifest records
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # package errors, malformed JSON, missing paths
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InconsistentParamsError) else 2


# What importing this module built (numpy's and the package's modules and
# their objects) lives until exit.  Freezing it moves those objects out of the
# collector's reach, so the interpreter's collection at exit no longer walks
# them: that walk was most of a short command's time from its work's end to exit.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
