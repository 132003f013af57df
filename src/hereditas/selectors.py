"""Variable selectors operated on (standardized) design matrices.

Two selectors cover the four method-by-standardization variants used in
the experiments: a coordinate-descent lasso with a geometric lambda path
and validation-set tuning, and a bidirectional stepwise search under AIC.

Lasso objective: (1/2n)||y - eta*1 - X b||^2 + lam*||b||_1 with the
intercept unpenalized.  By default columns are centered and scaled to
unit variance *inside* the solver (the convention of mainstream lasso
packages) and returned coefficients are rescaled to the input scale;
zeros are exact either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from . import kernels
from .errors import InfeasibleStartError, InvalidDimensionError, SingularDesignError
from .standardize import RAW, CoefficientVector
from .terms import TermSet, main

# Internal slack for the KKT convergence certificate; one order tighter
# than the 1e-6 the contract tests assert.
KKT_SLACK = 1e-7

FULL_START = "full"
NULL_START = "null"


@dataclass(frozen=True)
class LassoOptions:
    n_lambda: int = 100
    lambda_min_ratio: float | None = None  # 1e-4 when n > #columns, else 1e-2
    tol: float = 1e-7
    max_iter: int = 100_000
    internal_standardize: bool = True

    def __post_init__(self):
        if self.n_lambda < 1:
            raise ValueError("n_lambda must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.lambda_min_ratio is not None and not (0 < self.lambda_min_ratio < 1):
            raise ValueError("lambda_min_ratio must lie in (0, 1)")

    def resolve_min_ratio(self, n: int, n_columns: int) -> float:
        if self.lambda_min_ratio is not None:
            return self.lambda_min_ratio
        return 1e-4 if n > n_columns else 1e-2

    @classmethod
    def from_json_dict(cls, d: dict) -> "LassoOptions":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown lasso options: {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class StepwiseOptions:
    start: str = FULL_START
    direction: str = "both"
    max_selected: int | None = None  # defaults to n - 1 at fit time

    def __post_init__(self):
        if self.start not in (FULL_START, NULL_START):
            raise ValueError(f"start must be {FULL_START!r} or {NULL_START!r}")
        if self.direction != "both":
            raise ValueError("only bidirectional search is supported")
        if self.max_selected is not None and self.max_selected < 1:
            raise ValueError("max_selected must be at least 1")

    @classmethod
    def from_json_dict(cls, d: dict) -> "StepwiseOptions":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown stepwise options: {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class FitResult:
    """A selector outcome: coefficients on the scale of the X it was handed."""

    coefs: CoefficientVector
    tuning: float  # chosen lambda (lasso) or final AIC (stepwise)
    iterations: int  # CD sweeps or accepted stepwise moves
    converged: bool
    aic_path: tuple[float, ...] = field(default=())  # stepwise audit trail


def _default_terms(m: int) -> TermSet:
    return TermSet(m, tuple(main(j) for j in range(m)))


@dataclass
class _Prepped:
    XT: np.ndarray  # (m, n) centered/scaled columns as contiguous rows
    col_nrm2: np.ndarray
    x_mean: np.ndarray
    x_scale: np.ndarray  # internal scales (ones when standardization is off)
    y_mean: float
    yc: np.ndarray


def _prepare(X, y, internal_standardize: bool) -> _Prepped:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.ndim != 2:
        raise InvalidDimensionError(f"X must be 2-d, got shape {X.shape}")
    n, m = X.shape
    if y.shape[0] != n:
        raise InvalidDimensionError(f"y has {y.shape[0]} rows, X has {n}")
    if n < 2:
        raise InvalidDimensionError("need at least 2 rows")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise InvalidDimensionError("inputs contain non-finite entries")
    x_mean = X.mean(axis=0)
    XT = np.ascontiguousarray((X - x_mean).T)
    if internal_standardize:
        scale = np.sqrt(np.mean(XT * XT, axis=1))
        x_scale = np.where(scale > 0.0, scale, 1.0)
        XT /= x_scale[:, None]
    else:
        x_scale = np.ones(m)
    # Recomputed after scaling so the CD curvature matches the data exactly;
    # zero entries mark constant columns, which stay inert.
    col_nrm2 = np.mean(XT * XT, axis=1)
    y_mean = float(y.mean())
    return _Prepped(XT, col_nrm2, x_mean, x_scale, y_mean, y - y_mean)


def _lambda_max(prep: _Prepped) -> float:
    if prep.XT.shape[0] == 0:
        return 0.0
    # Nudged up so the all-zero guarantee survives last-ulp differences
    # between this dot product and the kernel's own summation order.
    return float(np.max(np.abs(prep.XT @ prep.yc)) / prep.XT.shape[1]) * (1.0 + 1e-12)


def _finish(prep, b, lam, sweeps, converged, terms, scale_tag) -> FitResult:
    slopes = b / prep.x_scale  # exact zeros stay exact
    intercept = prep.y_mean - float(slopes @ prep.x_mean)
    if terms is None:
        terms = _default_terms(len(slopes))
    coefs = CoefficientVector(terms, intercept, slopes, scale_tag)
    return FitResult(coefs, tuning=lam, iterations=sweeps, converged=converged)


def lasso_fit(X, y, lam, opts: LassoOptions | None = None, terms: TermSet | None = None,
              scale_tag: str = RAW) -> FitResult:
    """Solve one lasso problem from a cold start."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    opts = opts or LassoOptions()
    prep = _prepare(X, y, opts.internal_standardize)
    b = np.zeros(prep.XT.shape[0])
    r = prep.yc.copy()
    sweeps, converged = kernels.cd_solve(
        prep.XT, r, b, prep.col_nrm2, float(lam), opts.tol, KKT_SLACK, opts.max_iter
    )
    return _finish(prep, b, float(lam), sweeps, converged, terms, scale_tag)


def lambda_path(X, y, opts: LassoOptions | None = None) -> np.ndarray:
    """Descending geometric grid from the all-zero threshold lambda_max."""
    opts = opts or LassoOptions()
    return _lambda_grid(_prepare(X, y, opts.internal_standardize), opts)


def _lambda_grid(prep: _Prepped, opts: LassoOptions) -> np.ndarray:
    lam_max = _lambda_max(prep)
    if opts.n_lambda == 1 or lam_max == 0.0:
        return np.full(opts.n_lambda, lam_max)
    ratio = opts.resolve_min_ratio(len(prep.yc), prep.XT.shape[0])
    expo = np.arange(opts.n_lambda) / (opts.n_lambda - 1)
    return lam_max * ratio**expo


def fit_lasso_path(X, y, opts: LassoOptions | None = None, terms: TermSet | None = None,
                   scale_tag: str = RAW, lambdas=None) -> tuple[np.ndarray, list[FitResult]]:
    """Fit the whole path with warm starts chained from one lambda to the next."""
    opts = opts or LassoOptions()
    prep = _prepare(X, y, opts.internal_standardize)
    if lambdas is None:
        lambdas = _lambda_grid(prep, opts)
    lambdas = np.asarray(lambdas, dtype=np.float64)
    b = np.zeros(prep.XT.shape[0])
    r = prep.yc.copy()
    fits = []
    for lam in lambdas:
        sweeps, converged = kernels.cd_solve(
            prep.XT, r, b, prep.col_nrm2, float(lam), opts.tol, KKT_SLACK, opts.max_iter
        )
        fits.append(_finish(prep, b.copy(), float(lam), sweeps, converged, terms, scale_tag))
    return lambdas, fits


@dataclass(frozen=True)
class TunedLasso:
    """A whole-path search: per-lambda validation MSE plus the winning fit."""

    lambdas: np.ndarray
    valid_mse: np.ndarray
    best_index: int
    fit: FitResult

    @property
    def best_lambda(self) -> float:
        return float(self.lambdas[self.best_index])

    def to_json_dict(self) -> dict:
        return {
            "lambdas": self.lambdas.tolist(),
            "valid_mse": self.valid_mse.tolist(),
            "best_index": self.best_index,
            "best_lambda": self.best_lambda,
        }


def tune_lasso(train, valid, opts: LassoOptions | None = None, terms: TermSet | None = None,
               scale_tag: str = RAW) -> TunedLasso:
    """Fit the path on the training pair, pick the lambda minimizing validation MSE.

    Ties break toward larger lambda (the sparser model).
    """
    x_tr, y_tr = train
    x_va, y_va = valid
    x_va = np.asarray(x_va, dtype=np.float64)
    y_va = np.asarray(y_va, dtype=np.float64).ravel()
    lambdas, fits = fit_lasso_path(x_tr, y_tr, opts, terms, scale_tag)
    mses = np.empty(len(fits))
    best = 0
    for i, fit in enumerate(fits):
        resid = fit.coefs.predict(x_va) - y_va
        mses[i] = float(resid @ resid) / len(y_va)
        if mses[i] < mses[best]:
            best = i
    return TunedLasso(lambdas, mses, best, fits[best])


def lasso_kkt_residual(X, y, fit: FitResult, lam: float,
                       opts: LassoOptions | None = None) -> tuple[float, float]:
    """Max KKT violations (active, inactive) on the internally standardized scale."""
    opts = opts or LassoOptions()
    prep = _prepare(X, y, opts.internal_standardize)
    b = fit.coefs.values * prep.x_scale
    r = prep.yc - prep.XT.T @ b
    g = prep.XT @ r / len(prep.yc)
    live = prep.col_nrm2 > 0.0
    active = live & (b != 0.0)
    inactive = live & (b == 0.0)
    active_viol = float(np.max(np.abs(g[active] - lam * np.sign(b[active])), initial=0.0))
    inactive_viol = float(np.max(np.abs(g[inactive]) - lam, initial=0.0))
    return active_viol, max(inactive_viol, 0.0)


def lasso_objective(X, y, fit: FitResult, lam: float,
                    opts: LassoOptions | None = None) -> float:
    """(1/2n)RSS + lam*l1 evaluated on the internally standardized scale."""
    opts = opts or LassoOptions()
    prep = _prepare(X, y, opts.internal_standardize)
    b = fit.coefs.values * prep.x_scale
    r = prep.yc - prep.XT.T @ b
    n = len(prep.yc)
    return float(r @ r) / (2 * n) + lam * float(np.sum(np.abs(b)))


def ols_fit(X, y) -> tuple[float, np.ndarray, float]:
    """Least squares with an intercept; raises on rank-deficient designs."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise InvalidDimensionError("X must be 2-d with one row per response entry")
    n, m = X.shape
    if n < m + 1:
        raise SingularDesignError(f"need at least {m + 1} rows for {m} columns, got {n}")
    z = np.column_stack([np.ones(n), X])
    beta, _, rank, _ = np.linalg.lstsq(z, y, rcond=None)
    if rank < m + 1:
        raise SingularDesignError(f"design rank {rank} < {m + 1}")
    resid = y - z @ beta
    return float(beta[0]), beta[1:], float(resid @ resid)


class _GramSearch:
    """OLS over column subsets via the (intercept-augmented) Gram matrix.

    RSS for a candidate model is yty - c' G^-1 c on the selected block, so
    each stepwise move costs one small Cholesky solve instead of a refit
    against the full data.
    """

    def __init__(self, X, y):
        n = X.shape[0]
        z = np.column_stack([np.ones(n), X])
        self.gram = z.T @ z
        self.zty = z.T @ y
        self.yty = float(y @ y)
        self.n = n
        tss = float(np.sum((y - y.mean()) ** 2))
        # Floor keeps log(RSS) finite on exact fits and makes AIC comparisons
        # between equally perfect models fall back to the 2k penalty.
        self.rss_floor = max(1e-12 * tss, 1e-300)

    def solve(self, cols: tuple[int, ...]):
        idx = np.empty(len(cols) + 1, dtype=np.intp)
        idx[0] = 0
        idx[1:] = np.asarray(cols, dtype=np.intp) + 1
        g = self.gram[np.ix_(idx, idx)]
        try:
            factor = cho_factor(g, lower=True, check_finite=False)
        except LinAlgError:
            return None, math.inf
        beta = cho_solve(factor, self.zty[idx], check_finite=False)
        rss = max(self.yty - float(self.zty[idx] @ beta), 0.0)
        return beta, rss

    def aic(self, cols: tuple[int, ...]) -> float:
        _, rss = self.solve(cols)
        if not math.isfinite(rss):
            return math.inf
        k = len(cols) + 1
        return self.n * math.log(max(rss, self.rss_floor) / self.n) + 2 * k


def stepwise_aic(X, y, opts: StepwiseOptions | None = None, terms: TermSet | None = None,
                 scale_tag: str = RAW) -> FitResult:
    """Greedy bidirectional search minimizing AIC = n*ln(RSS/n) + 2k.

    Every single-term addition and deletion is evaluated at each step and
    the best strictly-improving move is taken; ties break toward the first
    move in canonical column order, deletions before additions.
    """
    opts = opts or StepwiseOptions()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise InvalidDimensionError("X must be 2-d with one row per response entry")
    n, m = X.shape
    max_selected = opts.max_selected if opts.max_selected is not None else max(n - 1, 1)
    if opts.start == FULL_START:
        if n <= m + 1:
            raise InfeasibleStartError(
                f"full-model start needs n > {m + 1} rows, got n={n}"
            )
        if m > max_selected:
            raise InfeasibleStartError(
                f"full-model start with {m} columns exceeds max_selected={max_selected}"
            )
        current: tuple[int, ...] = tuple(range(m))
    else:
        current = ()

    search = _GramSearch(X, y)
    cur_aic = search.aic(current)
    aic_path = [cur_aic]
    moves = 0
    while True:
        candidates: list[tuple[int, ...]] = []
        in_model = set(current)
        for j in current:
            candidates.append(tuple(k for k in current if k != j))
        if len(current) < max_selected:
            candidates.extend(
                tuple(sorted(in_model | {j})) for j in range(m) if j not in in_model
            )
        best_aic = math.inf
        best_cols: tuple[int, ...] | None = None
        for cols in candidates:
            a = search.aic(cols)
            if a < best_aic:
                best_aic = a
                best_cols = cols
        if best_cols is None or best_aic >= cur_aic:
            break
        current = best_cols
        cur_aic = best_aic
        aic_path.append(cur_aic)
        moves += 1

    # The cap can hide an improving addition; the converged flag certifies
    # a genuine one-move local optimum.
    converged = True
    if len(current) == max_selected and max_selected < m:
        in_model = set(current)
        for j in range(m):
            if j not in in_model and search.aic(tuple(sorted(in_model | {j}))) < cur_aic:
                converged = False
                break

    beta, rss = search.solve(current)
    if beta is None:
        raise SingularDesignError("final stepwise model is rank deficient")
    slopes = np.zeros(m)
    slopes[list(current)] = beta[1:]
    intercept = float(beta[0])
    if terms is None:
        terms = _default_terms(m)
    coefs = CoefficientVector(terms, intercept, slopes, scale_tag)
    return FitResult(coefs, tuning=cur_aic, iterations=moves, converged=converged,
                     aic_path=tuple(aic_path))
