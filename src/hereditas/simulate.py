"""Seeded simulation campaigns over method-by-standardization pipelines.

Data are generated from the second-order model with independent mains;
one master seed spawns an independent stream per replicate (SeedSequence
entropy [master_seed, replicate]), so replicates can run concurrently and
every method cell consumes the identical datasets.  The training and
validation splits are expanded (``terms.expand``) for fitting; the 10,000-row
test split keeps only its mains, and both its signal and each cell's test
predictions come from ``terms.expand_dot``.

Methods plug in through one table, ``SELECTORS`` (method name -> options
dataclass and select step), schemes through ``SCHEMES`` (name -> standardize
step); pipelines and campaigns take one ``options`` mapping from method name
to options object.  ``DEFAULT_CELLS`` is the paper's four cells.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfigError
from .io import to_json
from .metrics import (
    LOGNORMAL01,
    STANDARD_NORMAL,
    TERM_CLASSES,
    AggregateStat,
    ReplicateMetrics,
    SnrEstimate,
    TruthSpec,
    _distribution,
    aggregate,
    draw_mains,
    mse,
    score_selection,
    signal_moments,
    snr,
)
from .selectors import (
    FitResult,
    LassoOptions,
    StepwiseOptions,
    stepwise_aic,
    tune_lasso,
)
from .standardize import (
    ESTIMATORS,
    HIER_STD,
    MEAN_SD,
    MEDIAN_IQR,
    REGULAR_STD,
    CoefficientVector,
    LocationScale,
    RegularParams,
    back_transform_hierarchical,
    back_transform_regular,
    fit_location_scale,
    standardize_hierarchical,
    standardize_regular,
)
from .terms import TermSet, canonical_terms, expand, expand_dot, inter, main, quad

LASSO = "lasso"
STEPWISE = "stepwise"


def _lasso(z_tr, y_tr, valid, apply_params, terms, tag, opts):
    x_va, y_va = valid
    tuned = tune_lasso((z_tr, y_tr), (apply_params(x_va), y_va), opts, terms, tag)
    why = (f"the lasso at the chosen lambda (index {tuned.best_index}) reached "
           f"max_iter={(opts or LassoOptions()).max_iter} passes")
    return tuned.fit, {"lambda": tuned.best_lambda, "path": to_json(tuned)}, why


def _stepwise(z_tr, y_tr, _valid, _apply_params, terms, tag, opts):
    fit = stepwise_aic(z_tr, y_tr, opts, terms, tag)
    tuning = {"aic": fit.tuning, "steps": fit.iterations, "start": fit.start}
    return fit, tuning, "max_selected hid an improving stepwise addition"


# Method name -> (options dataclass, select step).  A step maps the standardized training
# split, the raw validation split, the training standardization, terms, scale tag and options
# (None: defaults) to (fit, its fit.json "tuning" object, its reason should the fit not
# converge), looking its selector up at call time (patchable).
SELECTORS = {LASSO: (LassoOptions, _lasso), STEPWISE: (StepwiseOptions, _stepwise)}

HIERARCHICAL = "hierarchical"
REGULAR = "regular"


def _hierarchical(raw, terms, estimator):
    ls = fit_location_scale(raw, estimator)
    return (standardize_hierarchical(raw, ls, terms), ls, HIER_STD,
            lambda other: standardize_hierarchical(other, ls, terms),
            lambda coefs: back_transform_hierarchical(coefs, ls, terms))


def _regular(raw, terms, _estimator):
    z, params = standardize_regular(raw, terms)
    return (z, params, REGULAR_STD, params.apply,
            lambda coefs: back_transform_regular(coefs, params, terms))


# Scheme name -> standardize step, fitting on the training mains: (mains, terms, estimator,
# which the regular scheme ignores: it is always mean/SD per expanded column) -> (standardized
# design, parameters, the scale tag of coefficients fitted on it, a function standardizing
# another raw design with those parameters, the back-transform of such coefficients).
SCHEMES = {HIERARCHICAL: _hierarchical, REGULAR: _regular}

# The paper's four cells in report-column order: the default campaign, and the CLI's defaults.
DEFAULT_CELLS = tuple((m, s) for m in (LASSO, STEPWISE) for s in (HIERARCHICAL, REGULAR))

# The factor of the float range a setting leaves between its expected sum of
# squared responses over its largest split and overflow: room for draws above
# their mean, and for the sums built on them (y'y, the RSS, the test MSE).
HEADROOM = 1e3


@dataclass(frozen=True)
class SettingConfig:
    """Full generative description of one simulation setting."""

    name: str = "custom"
    p: int = 10
    n_active_mains: int = 3
    n_active_inters: int = 3
    n_active_quads: int = 3
    extra_active_mains: int = 0  # active mains with no active children
    coef_main: float = 1.0
    coef_inter: float = 1.0
    coef_quad: float = 1.0
    sigma: float = 8.0
    x_distribution: str = STANDARD_NORMAL
    estimator: str = MEAN_SD
    n_train: int = 200
    n_valid: int = 200
    n_test: int = 10_000
    replicates: int = 50
    master_seed: int = 0
    reduced_truth: bool = False  # keep only 2 parent mains active (heredity-violating truth)
    printed_snr: float | None = None  # tabulated value to cross-check, when one exists

    def __post_init__(self):
        # The name is the stem of the campaign's output files.
        if self.name in ("", ".", "..") or any(
                sep and sep in self.name for sep in ("/", os.sep, os.altsep)):
            raise InvalidConfigError(f"name must be a file stem, got {self.name!r}")
        if self.p < 1:
            raise InvalidConfigError("p must be at least 1")
        counts = (self.n_active_mains, self.n_active_inters, self.n_active_quads,
                  self.extra_active_mains)
        if any(c < 0 for c in counts):
            raise InvalidConfigError("active counts must be nonnegative")
        if self.n_active_mains + self.extra_active_mains > self.p:
            raise InvalidConfigError("more active mains than main effects")
        max_pairs = self.n_active_mains * (self.n_active_mains - 1) // 2
        if self.n_active_inters > max_pairs:
            raise InvalidConfigError(
                f"{self.n_active_inters} interactions do not fit among "
                f"{self.n_active_mains} parent mains (max {max_pairs})"
            )
        if self.n_active_quads > self.n_active_mains:
            raise InvalidConfigError("more active quadratics than parent mains")
        for name in ("coef_main", "coef_inter", "coef_quad", "sigma", "printed_snr"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidConfigError(f"{name} must be finite, got {value!r}")
        for name, active in (("coef_main", self.n_active_mains + self.extra_active_mains),
                             ("coef_inter", self.n_active_inters),
                             ("coef_quad", self.n_active_quads)):
            if active and getattr(self, name) == 0:
                raise InvalidConfigError(
                    f"{name} is 0, but {active} active terms take that coefficient")
        if self.sigma <= 0:
            raise InvalidConfigError("sigma must be positive")
        for n_name in ("n_train", "n_valid", "n_test"):
            if getattr(self, n_name) < 1:
                raise InvalidConfigError(f"{n_name} must be at least 1")
        if self.replicates < 1:
            raise InvalidConfigError("replicates must be at least 1")
        if self.master_seed < 0:
            raise InvalidConfigError("master_seed must be nonnegative")
        moments = _distribution(self.x_distribution)[1]
        if self.estimator not in ESTIMATORS:
            raise InvalidConfigError(f"unknown estimator {self.estimator!r}")
        # metrics.snr divides by sigma**2, which for a tiny sigma is 0 or too
        # small for a finite SNR (and cannot underflow for sigma >= 1).
        if self.sigma < 1.0 and not (self.sigma**2 > 0.0 and math.isfinite(
                snr(build_truth(self), self.x_distribution).value)):
            raise InvalidConfigError(f"sigma {self.sigma!r} gives a non-finite exact SNR")
        # n * E[y^2] = n * (sigma^2 + E[signal^2]) must stay HEADROOM below the
        # float range.  sigma * sigma, as sigma**2 raises OverflowError.
        n = max(self.n_train, self.n_valid, self.n_test)
        noise = self.sigma * self.sigma
        if not math.isfinite(HEADROOM * n * noise):
            raise InvalidConfigError(f"sigma {self.sigma!r} is too large: {n} squared "
                                     f"responses come within a factor {HEADROOM:g} of overflow")
        # Over k active terms of coefficients at most c in size, E[signal^2] <=
        # (k c)^2 E[X^4].  The exact moments take about a millisecond and every
        # preset is built at import, so they are computed only past that bound.
        kc = (self.n_active_mains + self.extra_active_mains + self.n_active_inters
              + self.n_active_quads) * max(abs(self.coef_main), abs(self.coef_inter),
                                           abs(self.coef_quad))
        if not math.isfinite(HEADROOM * n * (noise + kc * kc * moments[4])):
            truth = build_truth(self)
            mean, var = signal_moments(truth, self.x_distribution)
            if not math.isfinite(HEADROOM * n * (noise + mean * mean + var)):
                kind = max(truth.active_coefs.items(), key=lambda tv: abs(tv[1]))[0].kind
                field = f"coef_{kind}"
                raise InvalidConfigError(
                    f"{field} {getattr(self, field)!r} is too large: {n} squared "
                    f"responses come within a factor {HEADROOM:g} of overflow")


def _table1(name, a, coef2, sig, printed):
    inters = a * (a - 1) // 2
    return SettingConfig(
        name=name, n_active_mains=a, n_active_inters=inters, n_active_quads=a,
        coef_main=1.0, coef_inter=coef2, coef_quad=coef2, sigma=sig, printed_snr=printed,
    )


PRESETS: dict[str, SettingConfig] = {
    "setting1": _table1("setting1", 3, 1.0, 8.0, 0.19),
    "setting2": _table1("setting2", 3, 2.0, 16.0, 0.15),
    "setting3": _table1("setting3", 3, 3.0, 15.0, 0.37),
    "setting4": _table1("setting4", 4, 1.0, 8.0, 0.28),
    "setting5": _table1("setting5", 4, 2.0, 16.0, 0.23),
    "setting6": _table1("setting6", 4, 3.0, 15.0, 0.58),
    "setting7": _table1("setting7", 5, 1.0, 8.0, 0.39),
    "setting8": _table1("setting8", 5, 2.0, 16.0, 0.33),
    "setting9": _table1("setting9", 5, 3.0, 15.0, 0.83),
    # Robustness checks on the main-effect transform.
    "R1": replace(_table1("R1", 3, 1.0, 8.0, 364.018), x_distribution=LOGNORMAL01),
    "R2": replace(_table1("R2", 3, 1.0, 8.0, 0.188), estimator=MEDIAN_IQR),
    "R3": replace(_table1("R3", 3, 1.0, 8.0, 364.018), x_distribution=LOGNORMAL01,
                  estimator=MEDIAN_IQR),
    # Additional robustness checks: larger main coefficients, extra parent-free mains.
    "R4": SettingConfig(name="R4", n_active_mains=3, n_active_inters=3, n_active_quads=3,
                        coef_main=3.0, coef_inter=1.0, coef_quad=1.0, sigma=8.0,
                        printed_snr=0.564),
    "R5": SettingConfig(name="R5", n_active_mains=4, n_active_inters=6, n_active_quads=4,
                        coef_main=5.0, coef_inter=3.0, coef_quad=1.0, sigma=8.0,
                        printed_snr=2.541),
    "R6": SettingConfig(name="R6", n_active_mains=5, n_active_inters=10, n_active_quads=5,
                        coef_main=5.0, coef_inter=3.0, coef_quad=3.0, sigma=8.0,
                        printed_snr=4.8),
    "R7": SettingConfig(name="R7", n_active_mains=3, n_active_inters=3, n_active_quads=3,
                        extra_active_mains=1, coef_main=1.0, coef_inter=1.0, coef_quad=1.0,
                        sigma=8.0, printed_snr=0.204),
    "R8": SettingConfig(name="R8", n_active_mains=4, n_active_inters=6, n_active_quads=4,
                        extra_active_mains=2, coef_main=1.0, coef_inter=3.0, coef_quad=3.0,
                        sigma=15.0, printed_snr=0.587),
    "R9": SettingConfig(name="R9", n_active_mains=5, n_active_inters=10, n_active_quads=5,
                        extra_active_mains=3, coef_main=5.0, coef_inter=3.0, coef_quad=3.0,
                        sigma=8.0, printed_snr=5.979),
}


def preset(name: str) -> SettingConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise InvalidConfigError(
            f"unknown preset {name!r}; valid presets: {', '.join(sorted(PRESETS))}"
        ) from None


def build_truth(cfg: SettingConfig) -> TruthSpec:
    """Active terms per the setting: lowest-index mains carry the signal.

    Interactions are the first lexicographic pairs among the parent mains,
    quadratics belong to the first parent mains, and extra actives are
    appended mains without active children.  The reduced variant zeroes all
    but the first two parent mains, leaving the children active.
    """
    terms = canonical_terms(cfg.p)
    coefs = {}
    parent_mains = list(range(cfg.n_active_mains))
    kept_mains = parent_mains[:2] if cfg.reduced_truth else parent_mains
    for j in kept_mains:
        coefs[main(j)] = cfg.coef_main
    for e in range(cfg.extra_active_mains):
        coefs[main(cfg.n_active_mains + e)] = cfg.coef_main
    pairs = [(j, k) for j in parent_mains for k in parent_mains if j < k]
    for j, k in pairs[: cfg.n_active_inters]:
        coefs[inter(j, k)] = cfg.coef_inter
    for j in parent_mains[: cfg.n_active_quads]:
        coefs[quad(j)] = cfg.coef_quad
    return TruthSpec(terms, coefs, cfg.sigma)


class Split(NamedTuple):
    design: np.ndarray  # the raw mains
    y: np.ndarray


@dataclass(frozen=True)
class ReplicateData:
    train: Split
    valid: Split
    test: Split  # scored from its mains alone: never expanded
    truth: TruthSpec


def generate_replicate(cfg: SettingConfig, rep_index: int) -> ReplicateData:
    """Deterministic function of (master_seed, rep_index); splits drawn in order.

    The fitted splits take their signal from the expanded design, the test
    split from its mains (``expand_dot``), so no n_test-by-m array is built.
    """
    truth = build_truth(cfg)
    coefs = truth.coefficient_array()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, rep_index]))
    splits = []
    for n, fitted in ((cfg.n_train, True), (cfg.n_valid, True), (cfg.n_test, False)):
        x = draw_mains(rng, n, cfg.p, cfg.x_distribution)
        signal = expand(x, truth.terms) @ coefs if fitted else expand_dot(x, truth.terms, coefs)
        splits.append(Split(x, signal + rng.normal(0.0, cfg.sigma, size=n)))
    return ReplicateData(*splits, truth)


def standardize_train(raw, terms: TermSet, scheme: str, estimator: str = MEAN_SD) -> tuple:
    if scheme not in SCHEMES:
        raise InvalidConfigError(f"unknown scheme {scheme!r}")
    return SCHEMES[scheme](raw, terms, estimator)


class FittedPipeline(NamedTuple):
    """What one standardize -> select -> back-transform run produced."""

    params: LocationScale | RegularParams
    fit: FitResult  # on the standardized scale
    tuning: dict  # the method's fit.json "tuning" object
    warning: str | None  # why the fit did not converge; None when it did
    raw_coefs: CoefficientVector


def _select_step(method: str, options: dict):
    """The method's select step and options (None: defaults), checked against the table."""
    for name in (method, *options):  # a misspelt options key fails, not runs defaults
        if name not in SELECTORS:
            raise InvalidConfigError(f"unknown method {name!r}")
        if not isinstance(options.get(name), (SELECTORS[name][0], type(None))):
            raise InvalidConfigError(f"{name} options must be {SELECTORS[name][0].__name__}")
    return SELECTORS[method][1], options.get(method)


def fit_pipeline(train, valid, terms: TermSet, method: str, scheme: str,
                 estimator: str = MEAN_SD, options: dict | None = None) -> FittedPipeline:
    """Standardize -> select -> back-transform on (raw design, y) pairs.

    Parameters are fitted on the training split; only a method that tunes on
    the validation split (the lasso) reads it.  ``options`` maps a method
    name to its options; a method it does not name runs its defaults.
    """
    select, opts = _select_step(method, options or {})
    x_tr, y_tr = train
    z_tr, params, tag, apply_params, back = standardize_train(x_tr, terms, scheme, estimator)
    fit, tuning, why = select(z_tr, y_tr, valid, apply_params, terms, tag, opts)
    warning = None if fit.converged else f"the fit did not converge: {why}"
    return FittedPipeline(params, fit, tuning, warning, back(fit.coefs))


def run_pipeline(data: ReplicateData, method: str, scheme: str,
                 estimator: str = MEAN_SD, options: dict | None = None) -> ReplicateMetrics:
    """fit_pipeline on a replicate's train/valid splits, scored on its test split's mains."""
    raw = fit_pipeline(data.train, data.valid, data.truth.terms, method, scheme, estimator,
                       options).raw_coefs
    test_mse = mse(raw.intercept + expand_dot(data.test.design, raw.terms, raw.values),
                   data.test.y)
    return score_selection(raw.selected(), data.truth, test_mse)


@dataclass(frozen=True)
class CellReport:
    method: str
    scheme: str
    per_replicate: tuple[ReplicateMetrics, ...]
    aggregates: dict[str, AggregateStat | None]


# The aggregated metrics in the report table's row order: a ReplicateMetrics
# field, or "<field>_<term class>" for an entry of its "<field>_by_class".
REPORT_METRICS = ("msh", "sensitivity", "specificity", "mse") + tuple(
    f"{base}_{kind}" for base in ("sensitivity", "specificity") for kind in TERM_CLASSES
)


def _metric(row: ReplicateMetrics, name: str) -> float | None:
    base, _, kind = name.partition("_")
    return getattr(row, f"{base}_by_class")[kind] if kind else getattr(row, name)


def _aggregate_cell(method: str, scheme: str, rows: list[ReplicateMetrics]) -> CellReport:
    aggs = {name: aggregate(_metric(r, name) for r in rows) for name in REPORT_METRICS}
    return CellReport(method, scheme, tuple(rows), aggs)


@dataclass(frozen=True)
class CampaignReport:
    config: SettingConfig
    cells: tuple[CellReport, ...]
    snr: SnrEstimate
    snr_flagged: bool  # exact/tabulated disagreement beyond 0.01

    def cell(self, method: str, scheme: str) -> CellReport:
        for c in self.cells:
            if (c.method, c.scheme) == (method, scheme):
                return c
        raise KeyError((method, scheme))

    def to_json_dict(self) -> dict:
        """The fields, with the tabulated SNR and the flag inside the "snr" object."""
        return {
            "config": to_json(self.config),
            "snr": {**to_json(self.snr), "printed": self.config.printed_snr,
                    "flagged": self.snr_flagged},
            "cells": to_json(self.cells),
        }


def campaign_snr(cfg: SettingConfig) -> tuple[SnrEstimate, bool]:
    est = snr(build_truth(cfg), cfg.x_distribution)
    flagged = cfg.printed_snr is not None and abs(est.value - cfg.printed_snr) > 0.01
    return est, flagged


def _replicate_worker(task) -> list[ReplicateMetrics]:
    cfg, cells, options, rep = task
    data = generate_replicate(cfg, rep)
    return [run_pipeline(data, method, scheme, cfg.estimator, options)
            for method, scheme in cells]


def run_campaign(cfg: SettingConfig, cells=DEFAULT_CELLS, threads: int = 1,
                 options: dict | None = None) -> CampaignReport:
    """Run every method-by-scheme cell on identical replicate data and aggregate.

    Replicates are independent work units, farmed out to worker processes
    when threads > 1; results are folded in replicate order, so the report
    is bit-identical regardless of worker count.  ``options`` as in fit_pipeline.
    """
    cells = tuple(cells)
    tasks = [(cfg, cells, options, rep) for rep in range(cfg.replicates)]
    if threads > 1 and cfg.replicates > 1:
        # Imported here: a single-process run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, cfg.replicates)) as pool:
            per_rep = list(pool.map(_replicate_worker, tasks))
    else:
        per_rep = [_replicate_worker(t) for t in tasks]

    reports = tuple(_aggregate_cell(method, scheme, [rows[i] for rows in per_rep])
                    for i, (method, scheme) in enumerate(cells))
    est, flagged = campaign_snr(cfg)
    return CampaignReport(cfg, reports, est, flagged)
