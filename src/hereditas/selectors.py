"""Variable selectors operated on (standardized) design matrices.

Two selectors cover the four method-by-standardization variants used in
the experiments: a lasso with a geometric lambda path and validation-set
tuning, and a bidirectional stepwise search under AIC.

Lasso objective: (1/2n)||y - eta*1 - X b||^2 + lam*||b||_1 with the
intercept unpenalized.  By default columns are centered and scaled to
unit variance *inside* the solver (the convention of mainstream lasso
packages) and returned coefficients are rescaled to the input scale;
zeros are exact either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import InfeasibleStartError, InvalidDimensionError, SingularDesignError
from .kernels import RANK_TOL, ROUNDING_ULPS
from .metrics import mse
from .standardize import RAW, CoefficientVector, _zero_spread
from .terms import TermSet, main

# Internal slack for the KKT convergence certificate; one order tighter
# than the 1e-6 the contract tests assert.
KKT_SLACK = 1e-7

# Stepwise screen (see _Search): a move whose model may have a pivot
# ratio at or below SCREEN_TOL is scored exactly; SCREEN_SLACK multiplies the
# first-order rounding bound eps * k * (sum |b_i| ||z_i||)^2 of an RSS;
# AIC_ULP covers last-ulp differences between np.log and math.log.
SCREEN_TOL = 1e4 * RANK_TOL
SCREEN_SLACK = 1e3
AIC_ULP = 1e-12

AUTO_START = "auto"
FULL_START = "full"
NULL_START = "null"


@dataclass(frozen=True)
class LassoOptions:
    n_lambda: int = 100
    lambda_min_ratio: float | None = None  # 1e-4 when n > #columns, else 1e-2
    max_iter: int = 100_000
    internal_standardize: bool = True

    def __post_init__(self):
        if self.n_lambda < 1:
            raise ValueError("n_lambda must be at least 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.lambda_min_ratio is not None and not (0 < self.lambda_min_ratio < 1):
            raise ValueError("lambda_min_ratio must lie in (0, 1)")

    def resolve_min_ratio(self, n: int, n_columns: int) -> float:
        if self.lambda_min_ratio is not None:
            return self.lambda_min_ratio
        return 1e-4 if n > n_columns else 1e-2


@dataclass(frozen=True)
class StepwiseOptions:
    start: str = AUTO_START  # see stepwise_aic
    max_selected: int | None = None  # defaults to n - 1 at fit time

    def __post_init__(self):
        if self.start not in (AUTO_START, FULL_START, NULL_START):
            raise ValueError(f"start must be {AUTO_START!r}, {FULL_START!r} or {NULL_START!r}")
        if self.max_selected is not None and self.max_selected < 1:
            raise ValueError("max_selected must be at least 1")


@dataclass(frozen=True)
class FitResult:
    """A selector outcome: coefficients on the scale of the X it was handed."""

    coefs: CoefficientVector
    tuning: float  # chosen lambda (lasso) or final AIC (stepwise)
    iterations: int  # lasso kernel passes (exact steps) or stepwise moves
    converged: bool
    aic_path: tuple[float, ...] = field(default=())  # stepwise audit trail
    start: str | None = None  # the stepwise starting model, "full" or "null"
    internal_standardize: bool = True  # lasso: whether its solver scaled the columns


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
    c: np.ndarray  # X'yc/n, the kernel's gradient at b = 0
    internal_standardize: bool


def _as_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X and y as float arrays, checked: X 2-d with one row per entry of y,
    and every entry finite."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise InvalidDimensionError(
            f"X must be 2-d with one row per response entry, got shapes {X.shape} and {y.shape}"
        )
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise InvalidDimensionError("inputs contain non-finite entries")
    return X, y


def _prepare(X, y, internal_standardize: bool) -> _Prepped:
    X, y = _as_xy(X, y)
    n, m = X.shape
    if n < 2:
        raise InvalidDimensionError("need at least 2 rows")
    x_mean = X.mean(axis=0)
    XT = np.ascontiguousarray((X - x_mean).T)
    XT[_zero_spread(X)] = 0.0  # centered to exact zeros
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
    yc = y - y_mean
    return _Prepped(XT, col_nrm2, x_mean, x_scale, y_mean, yc, XT @ yc / n, internal_standardize)


def _solver_inputs(prep: _Prepped) -> tuple[np.ndarray, float]:
    """The kernel's Gram X'X/n and its KKT slack, floored at the rounding of its gradients.

    Raises InvalidDimensionError when y'y or the Gram overflows: no lasso
    fit or validation MSE is then computable.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        yty = float(prep.yc @ prep.yc)
        gram = prep.XT @ prep.XT.T / prep.XT.shape[1]
    if not (math.isfinite(yty) and np.all(np.isfinite(gram))):
        raise InvalidDimensionError("response or design too large: y'y or X'X overflows")
    # |x_j'(yc - X b)/n| is at most the column's rms times the residual's,
    # and the residual starts as yc.
    scale = float(np.max(np.abs(prep.yc)) * np.sqrt(np.max(prep.col_nrm2, initial=0.0)))
    return gram, max(KKT_SLACK, ROUNDING_ULPS * np.finfo(float).eps * scale)


def _finish(prep, b, lam, passes, converged, terms, scale_tag) -> FitResult:
    slopes = b / prep.x_scale  # exact zeros stay exact
    intercept = prep.y_mean - float(slopes @ prep.x_mean)
    coefs = CoefficientVector(terms, intercept, slopes, scale_tag)
    return FitResult(coefs, tuning=lam, iterations=passes, converged=converged,
                     internal_standardize=prep.internal_standardize)


def lasso_fit(X, y, lam, opts: LassoOptions | None = None, terms: TermSet | None = None,
              scale_tag: str = RAW) -> FitResult:
    """Solve one lasso problem from a cold start."""
    return fit_lasso_path(X, y, opts, terms, scale_tag, lambdas=[lam])[1][0]


def lambda_path(X, y, opts: LassoOptions | None = None) -> np.ndarray:
    """Descending geometric grid from the all-zero threshold lambda_max."""
    opts = opts or LassoOptions()
    return _lambda_grid(_prepare(X, y, opts.internal_standardize), opts)


def _lambda_grid(prep: _Prepped, opts: LassoOptions) -> np.ndarray:
    # lambda_max is nudged up so the all-zero guarantee holds with room to
    # spare; the kernel's gradient at b = 0 is c itself.
    lam_max = float(np.max(np.abs(prep.c), initial=0.0)) * (1.0 + 1e-12)
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
    if not (np.all(np.isfinite(lambdas)) and np.all(lambdas >= 0.0)):
        raise ValueError("every lambda must be finite and nonnegative")
    gram, kkt_tol = _solver_inputs(prep)
    b = np.zeros(prep.XT.shape[0])
    if terms is None:
        terms = _default_terms(len(b))
    face = kernels.Face(gram)
    fits = []
    for lam in lambdas:
        passes, converged = kernels.cd_solve(
            prep.XT, prep.c, b, prep.col_nrm2, float(lam), kkt_tol, opts.max_iter, face
        )
        fits.append(_finish(prep, b, float(lam), passes, converged, terms, scale_tag))
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
    lambdas, fits = fit_lasso_path(x_tr, y_tr, opts, terms, scale_tag)
    mses = np.array([mse(fit.coefs.predict(x_va), y_va) for fit in fits])
    best = int(np.argmin(mses))  # the first minimum
    return TunedLasso(lambdas, mses, best, fits[best])


def lasso_kkt_residual(X, y, fit: FitResult, lam: float,
                       opts: LassoOptions | None = None) -> tuple[float, float]:
    """Max KKT violations (active, inactive) on the solver's scale: columns
    standardized internally as ``opts`` says, else as the fit was made."""
    prep = _prepare(X, y, fit.internal_standardize if opts is None else opts.internal_standardize)
    b = fit.coefs.values * prep.x_scale
    r = prep.yc - prep.XT.T @ b
    return kernels.kkt_violations(prep.XT @ r / len(prep.yc), b, prep.col_nrm2 > 0.0, lam)


def ols_fit(X, y) -> tuple[float, np.ndarray, float]:
    """Least squares with an intercept; raises on rank-deficient designs."""
    X, y = _as_xy(X, y)
    n, m = X.shape
    if n < m + 1:
        raise SingularDesignError(f"need at least {m + 1} rows for {m} columns, got {n}")
    z = np.column_stack([np.ones(n), X])
    beta, _, rank, _ = np.linalg.lstsq(z, y, rcond=None)
    if rank < m + 1:
        raise SingularDesignError(f"design rank {rank} < {m + 1}")
    resid = y - z @ beta
    return float(beta[0]), beta[1:], float(resid @ resid)


class _Search:
    """The stepwise search: OLS over column subsets of z = [1, X], scored
    exactly and screened by bounds.

    Exact score: the bordered Gram [[z'z, z'y], [y'z, c]].  The Cholesky
    factor of a model's bordered block ends in the row w = L^-1 z_A'y, so its
    RSS is y'y - w'w: one small factorization per exact AIC.  The corner
    c = 2 y'y + 1 exceeds w'w = y'y - RSS, so the last pivot stays positive.

    Screen: ``S`` is the bordered Gram (its corner enters no bound) swept
    (Goodnight 1979) on the intercept and the current columns A, marked in
    ``swept``.  Its swept block holds -G_AA^-1, its border b = G_AA^-1 c_A,
    and each unswept column j carries s_j = G_jj - G_jA G_AA^-1 G_Aj on the
    diagonal and c_j - G_jA b on the border.  Deleting j in A raises the RSS
    by b_j^2 / (G_AA^-1)_jj; adding j outside A lowers it by
    (c_j - G_jA b)^2 / s_j.  ``S`` is built in one block, the result of
    sweeping the intercept and the columns of A: with K those rows and R the
    others, S_KK = -G_KK^-1, S_KR = G_KK^-1 G_KR and
    S_RR = G_RR - G_RK G_KK^-1 G_KR.  An accepted move applies one rank-one
    sweep to its column.  ``S`` is None while the model is near-singular and
    after an exact score leaves its bounds; the next step builds it again.
    """

    def __init__(self, X, y):
        self.n, self.m = X.shape
        z = np.column_stack([np.ones(self.n), X])
        self.bordered = np.empty((self.m + 2, self.m + 2))
        with np.errstate(over="ignore", invalid="ignore"):
            self.bordered[:-1, :-1] = z.T @ z
            self.bordered[:-1, -1] = self.bordered[-1, :-1] = z.T @ y
            self.yty = float(y @ y)
            tss = float(np.sum((y - y.mean()) ** 2))
        if not (math.isfinite(self.yty) and np.all(np.isfinite(self.bordered[:-1]))):
            raise InvalidDimensionError("response or design too large: y'y, z'y or z'z overflows")
        self.bordered[-1, -1] = 2.0 * self.yty + 1.0
        # Floor keeps log(RSS) finite on exact fits and makes AIC comparisons
        # between equally perfect models fall back to the 2k penalty.
        self.rss_floor = max(1e-12 * tss, 1e-300)
        self.diag = self.bordered.diagonal()[:-1]
        self.sd = np.sqrt(self.diag)
        self.S = self.swept = self.worst = None

    def solve(self, cols: tuple[int, ...]):
        """(RSS, smallest pivot ratio L_kk^2 / G_kk, bordered factor) of one
        model.  The rank test: a ratio (over the model's columns, the corner
        left out) at or below RANK_TOL, or a failed factorization (ratio 0.0),
        marks the model rank deficient, with infinite RSS and no factor."""
        idx = np.array((-1, *cols, self.m), dtype=np.intp) + 1
        g = self.bordered[idx][:, idx]
        try:
            factor = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            return math.inf, 0.0, None
        pivots = factor.diagonal()[:-1]
        ratio = float((pivots * pivots / g.diagonal()[:-1]).min())
        if ratio <= RANK_TOL:
            return math.inf, ratio, None
        w = factor[-1, :-1]
        return max(self.yty - float(w @ w), 0.0), ratio, factor

    def coefficients(self, cols: tuple[int, ...]):
        """One model's least-squares coefficients, intercept first, or None
        when it is rank deficient."""
        factor = self.solve(cols)[2]
        return None if factor is None else np.linalg.solve(factor[:-1, :-1].T, factor[-1, :-1])

    def criterion(self, rss, n_params, log):
        """AIC = n ln(max(RSS, rss_floor)/n) + 2k of k parameters, the intercept included:
        ``log`` is math.log for one exact score, np.log for the screen's arrays of bounds."""
        return self.n * log(np.maximum(rss, self.rss_floor) / self.n) + 2 * n_params

    def aic_of(self, rss: float, n_cols: int) -> float:
        return self.criterion(rss, n_cols + 1, math.log) if math.isfinite(rss) else math.inf

    def aic(self, cols: tuple[int, ...]) -> float:
        return self.aic_of(self.solve(cols)[0], len(cols))

    def _screen(self, cols: tuple[int, ...], ratio: float) -> None:
        """Build S swept on the intercept and ``cols``, of smallest pivot ratio ``ratio``."""
        G = self.bordered
        k = np.array((-1, *cols), dtype=np.intp) + 1
        inv = np.linalg.inv(G[np.ix_(k, k)])
        cross = inv @ G[k]
        self.S = G - G[:, k] @ cross
        self.S[k] = cross
        self.S[:, k] = cross.T
        self.S[np.ix_(k, k)] = -inv
        self.swept = np.zeros(self.m + 1, dtype=bool)
        self.swept[k] = True
        # Rounding from a poorly conditioned sweep stays in S after the model
        # improves, so the bounds use the worst pivot ratio swept through.
        self.worst = ratio

    def move(self, j: int, ratio: float) -> None:
        """Follow an accepted move of column j to a model of smallest pivot
        ratio ``ratio``: one sweep of S, or no S if that model is near-singular."""
        if self.S is None or ratio <= SCREEN_TOL:
            self.S = None
            return
        self._sweep(j + 1)
        self.worst = min(self.worst, ratio)

    def _sweep(self, k: int) -> None:
        """Sweep row and column k of S in or out."""
        S = self.S
        d = S[k, k]
        col = S[:, k].copy()
        v = col / math.sqrt(abs(d))
        if d > 0.0:
            S -= np.multiply.outer(v, v)
        else:
            S += np.multiply.outer(v, v)
        # Sweeping in and sweeping back out differ only in the sign of the
        # pivot column.
        col *= (-1.0 if self.swept[k] else 1.0) / d
        S[:, k] = col
        S[k, :] = col
        S[k, k] = -1.0 / d
        self.swept[k] = not self.swept[k]

    def shortlist(self, rss: float, ratio: float, cur_aic: float, additions: bool = True):
        """The moves, in canonical order, whose exact AIC may be the step's
        minimum and beat ``cur_aic``: (column, (lower, upper)), with None
        for a move whose bounds cannot be trusted.  ``rss`` and ``ratio`` are
        the current model's exact RSS and smallest pivot ratio."""
        S = self.S
        inside = self.swept[1:]
        piv = S.diagonal()[1:-1]
        border = S[1:-1, -1]
        in_sd = self.sd * self.swept
        base = float(np.abs(S[:-1, -1]) @ in_sd)
        # Summed |coefficient| x ||column|| of each neighbouring model bounds
        # the rounding of its exact Cholesky RSS (and of the screen's).
        spread = np.abs(S[1:-1, :-1]) @ in_sd + self.sd[1:] * ~inside
        n_params = int(self.swept.sum()) + np.where(inside, -1, 1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = border / np.abs(piv)
            new_rss = rss + np.where(inside, step, -step) * border
            new_ratio = np.where(inside, ratio, ratio * piv / self.diag[1:])
            err = (SCREEN_SLACK * np.finfo(float).eps * n_params
                   * ((base + np.abs(step) * spread) ** 2 + self.yty)
                   / np.minimum(new_ratio, self.worst))
            lo = self.criterion(new_rss - err, n_params, np.log)
            hi = self.criterion(new_rss + err, n_params, np.log)
            # Room for last-ulp differences between np.log and math.log.
            lo -= AIC_ULP * (np.abs(lo) + 1.0)
            hi += AIC_ULP * (np.abs(hi) + 1.0)
            unsure = ~(np.isfinite(lo) & np.isfinite(hi) & (new_ratio > SCREEN_TOL))
        movable = inside | additions
        top = hi[movable & ~unsure].min(initial=math.inf)
        keep = movable & (unsure | ((lo <= top) & (lo < cur_aic)))
        order = sorted(np.flatnonzero(keep).tolist(), key=lambda j: not inside[j])
        return [(j, None if unsure[j] else (lo[j], hi[j])) for j in order]

    def _best(self, current: tuple[int, ...], moves: list[int]):
        """Exact AIC of each move (a column in the model is deleted, any other
        added), in the given order.  Returns the per-move AICs and the first
        strict minimum as (aic, column, columns, solution), or None when no move
        has a finite AIC."""
        scores, best = [], None
        for j in moves:
            cols = (tuple(k for k in current if k != j) if j in current
                    else tuple(sorted(current + (j,))))
            sol = self.solve(cols)
            a = self.aic_of(sol[0], len(cols))
            scores.append(a)
            if a < (best[0] if best else math.inf):
                best = (a, j, cols, sol)
        return scores, best

    def step(self, current: tuple[int, ...], rss: float, ratio: float, cur_aic: float,
             additions: bool = True):
        """The best allowed move from ``current``, as ``_best`` gives it.  On a
        well-conditioned model only the moves that the screen (built if there
        is no S) shortlists are scored exactly; otherwise, or when an exact
        score leaves its bounds, every allowed move is, and S is dropped."""
        if self.S is None and ratio > SCREEN_TOL:
            self._screen(current, ratio)
        if self.S is not None:
            short = self.shortlist(rss, ratio, cur_aic, additions=additions)
            scores, best = self._best(current, [j for j, _ in short])
            if all(b is None or b[0] <= a <= b[1] for (_, b), a in zip(short, scores)):
                return best
            self.S = None
        # Every allowed move in canonical order: deletions, then additions.
        moves = list(current) + [j for j in range(self.m) if additions and j not in current]
        return self._best(current, moves)[1]


def stepwise_aic(X, y, opts: StepwiseOptions | None = None, terms: TermSet | None = None,
                 scale_tag: str = RAW) -> FitResult:
    """Greedy bidirectional search minimizing AIC = n*ln(RSS/n) + 2k.

    Every single-term addition and deletion is considered at each step and
    the best strictly-improving move is taken; ties break toward the first
    move in canonical column order, deletions before additions.

    Each step bounds the AIC of all moves at once from the swept Gram of the
    current model (``_Search``, updated by one sweep per accepted move).
    Only moves whose lower bound reaches the smallest upper bound, and that
    could beat the current AIC, get the exact Cholesky AIC, in canonical
    order; so do moves whose bound is not finite or whose pivot ratio is
    near ``RANK_TOL``.  The accepted move, the AIC path and the coefficients
    are therefore those of scoring every move exactly.  A step whose current
    model is itself near-singular, or whose exact scores leave their bounds,
    scores every move exactly.

    ``opts.start`` "auto" starts null when n <= m + 1, m > max_selected, or
    the full model fails the rank test while its main effects pass it (a
    square is affine in a two-valued main), and full otherwise; an explicit
    "full" outside the first two bounds raises InfeasibleStartError.
    """
    opts = opts or StepwiseOptions()
    X, y = _as_xy(X, y)
    n, m = X.shape
    terms = _default_terms(m) if terms is None else terms
    max_selected = opts.max_selected if opts.max_selected is not None else max(n - 1, 1)
    feasible = n > m + 1 and m <= max_selected
    if opts.start == FULL_START and not feasible:
        raise InfeasibleStartError(
            f"full-model start needs n > {m + 1} rows, got n={n}" if n <= m + 1 else
            f"full-model start with {m} columns exceeds max_selected={max_selected}")
    full = opts.start == FULL_START or (opts.start == AUTO_START and feasible)

    search = _Search(X, y)
    current: tuple[int, ...] = tuple(range(m)) if full else ()
    rss, ratio, _ = search.solve(current)
    mains = tuple(j for j, t in enumerate(terms.terms) if not t.is_second_order)
    if opts.start == AUTO_START and full and ratio <= RANK_TOL < search.solve(mains)[1]:
        full, current = False, ()
        rss, ratio, _ = search.solve(current)
    cur_aic = search.aic_of(rss, len(current))
    aic_path = [cur_aic]
    while True:
        best = search.step(current, rss, ratio, cur_aic, additions=len(current) < max_selected)
        if best is None or best[0] >= cur_aic:
            break
        cur_aic, j, current, (rss, ratio, _) = best
        aic_path.append(cur_aic)
        search.move(j, ratio)

    # The cap can hide an improving addition.  The loop has just found no
    # improving deletion, so one step over every move certifies a local optimum.
    converged = True
    if len(current) == max_selected < m:
        best = search.step(current, rss, ratio, cur_aic)
        converged = best is None or best[0] >= cur_aic

    beta = search.coefficients(current)
    if beta is None:
        raise SingularDesignError("final stepwise model is rank deficient")
    slopes = np.zeros(m)
    slopes[list(current)] = beta[1:]
    coefs = CoefficientVector(terms, float(beta[0]), slopes, scale_tag)
    return FitResult(coefs, tuning=cur_aic, iterations=len(aic_path) - 1, converged=converged,
                     aic_path=tuple(aic_path), start=FULL_START if full else NULL_START)
