import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hereditas.errors import InfeasibleStartError, InvalidDimensionError, SingularDesignError
from hereditas.selectors import (
    AUTO_START,
    FULL_START,
    NULL_START,
    FitResult,
    StepwiseOptions,
    _GramSearch,
    _SweepScreen,
    ols_fit,
    stepwise_aic,
)
from hereditas.standardize import RAW, CoefficientVector
from hereditas.terms import TermSet, canonical_terms, expand, main


def oracle_aic(x, y, cols):
    """Independent AIC via a plain lstsq refit (no Gram shortcuts)."""
    n = len(y)
    if cols:
        _, _, rss = ols_fit(x[:, list(cols)], y)
    else:
        rss = float(np.sum((y - y.mean()) ** 2))
    return n * math.log(rss / n) + 2 * (len(cols) + 1)


def neighbor_sets(cols, m):
    s = set(cols)
    for j in cols:
        yield tuple(k for k in cols if k != j)
    for j in range(m):
        if j not in s:
            yield tuple(sorted(s | {j}))


class TestOlsFit:
    def test_exact_fit(self):
        x = np.arange(1.0, 7.0).reshape(-1, 1)
        icept, coefs, rss = ols_fit(x, 2.0 * x[:, 0])
        assert coefs[0] == pytest.approx(2.0, abs=1e-12)
        assert icept == pytest.approx(0.0, abs=1e-12)
        assert rss == pytest.approx(0.0, abs=1e-20)

    def test_constant_response(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 3))
        y = np.full(20, 3.5)
        icept, coefs, rss = ols_fit(x, y)
        assert icept == pytest.approx(3.5, abs=1e-10)
        np.testing.assert_allclose(coefs, 0.0, atol=1e-10)
        assert rss == pytest.approx(float(np.sum((y - y.mean()) ** 2)), abs=1e-16)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        icept, coefs, rss = ols_fit(x, y)
        z = np.column_stack([np.ones(30), x])
        beta = np.linalg.solve(z.T @ z, z.T @ y)
        np.testing.assert_allclose(np.r_[icept, coefs], beta, atol=1e-8)
        assert rss == pytest.approx(float(np.sum((y - z @ beta) ** 2)), rel=1e-8)

    def test_rank_deficient_raises(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 2))
        x = np.column_stack([x, x[:, 0] + x[:, 1]])
        with pytest.raises(SingularDesignError):
            ols_fit(x, rng.standard_normal(20))

    def test_too_few_rows(self):
        with pytest.raises(SingularDesignError):
            ols_fit(np.ones((3, 3)), np.ones(3))


class TestStepwise:
    @pytest.mark.parametrize("start", [FULL_START, NULL_START])
    def test_overflowing_response_rejected(self, start):
        # y'y overflows, so every AIC would be inf and no move could win.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 3))
        with pytest.raises(InvalidDimensionError, match="overflows"):
            stepwise_aic(x, 1e200 * x[:, 0], StepwiseOptions(start=start))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["design", "response"])
    def test_non_finite_input_rejected(self, bad, where):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 3))
        y = x[:, 0] + rng.standard_normal(30)
        (x if where == "design" else y)[4] = bad
        for fit in (stepwise_aic, ols_fit):
            with pytest.raises(InvalidDimensionError, match="non-finite"):
                fit(x, y)

    def test_overflowing_design_rejected(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 3))
        x[:, 2] *= 1e200
        with pytest.raises(InvalidDimensionError, match="overflows"):
            stepwise_aic(x, x[:, 0], StepwiseOptions(start=NULL_START))

    def test_perfect_predictor_selected_alone(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((30, 3))
        y = x[:, 0].copy()
        fit = stepwise_aic(x, y, StepwiseOptions(start=NULL_START))
        selected = np.flatnonzero(fit.coefs.values)
        assert selected.tolist() == [0]
        assert fit.coefs.values[0] == pytest.approx(1.0, abs=1e-8)

    def test_pure_noise_null_start_stays_local_optimal(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            x = rng.standard_normal((40, 5))
            y = rng.standard_normal(40)
            fit = stepwise_aic(x, y, StepwiseOptions(start=NULL_START))
            cols = tuple(np.flatnonzero(fit.coefs.values))
            for nb in neighbor_sets(cols, 5):
                assert oracle_aic(x, y, nb) >= fit.tuning - 1e-9

    def test_pure_noise_often_returns_null(self):
        # Chance correlations legitimately beat the 2k penalty on some seeds;
        # the frozen outcome: 6 of these 20 pure-noise draws keep the null.
        nulls = 0
        for seed in range(100, 120):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((40, 5))
            y = rng.standard_normal(40)
            fit = stepwise_aic(x, y, StepwiseOptions(start=NULL_START))
            if not fit.coefs.values.any():
                assert fit.iterations == 0
                nulls += 1
        assert nulls == 6

    @pytest.mark.parametrize("start", [FULL_START, NULL_START])
    def test_local_optimum_by_exhaustive_neighbors(self, start):
        rng = np.random.default_rng(4)
        for trial in range(10):
            m = int(rng.integers(3, 7))
            x = rng.standard_normal((40, m))
            beta = np.where(rng.random(m) < 0.5, 0.0, rng.standard_normal(m))
            y = x @ beta + rng.standard_normal(40)
            fit = stepwise_aic(x, y, StepwiseOptions(start=start))
            cols = tuple(np.flatnonzero(fit.coefs.values))
            assert fit.tuning == pytest.approx(oracle_aic(x, y, cols), rel=1e-10)
            for nb in neighbor_sets(cols, m):
                assert oracle_aic(x, y, nb) >= fit.tuning - 1e-9

    def test_aic_strictly_decreasing(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((50, 6))
        y = x[:, 0] - 2 * x[:, 3] + rng.standard_normal(50)
        fit = stepwise_aic(x, y, StepwiseOptions(start=FULL_START))
        assert len(fit.aic_path) == fit.iterations + 1
        for a, b in zip(fit.aic_path, fit.aic_path[1:]):
            assert b < a

    def test_full_start_needs_enough_rows(self):
        with pytest.raises(InfeasibleStartError):
            stepwise_aic(np.ones((5, 5)), np.ones(5), StepwiseOptions(start=FULL_START))

    def test_max_selected_cap(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((60, 6))
        y = x @ np.array([3.0, -3.0, 2.0, 2.0, 1.0, -1.0]) + 0.1 * rng.standard_normal(60)
        fit = stepwise_aic(x, y, StepwiseOptions(start=NULL_START, max_selected=2))
        assert np.count_nonzero(fit.coefs.values) <= 2
        assert not fit.converged  # additions beyond the cap would still help

    def test_selected_model_is_best_of_size_on_clean_signal(self):
        # With well-separated signal both directions land on the truth.
        rng = np.random.default_rng(7)
        x = rng.standard_normal((80, 5))
        y = 2 * x[:, 1] - 3 * x[:, 4] + 0.05 * rng.standard_normal(80)
        for start in (FULL_START, NULL_START):
            fit = stepwise_aic(x, y, StepwiseOptions(start=start))
            assert set(np.flatnonzero(fit.coefs.values)) == {1, 4}

    def test_exhaustive_best_subset_agreement_when_greedy_path_exists(self):
        # Sanity on a tiny instance: the greedy optimum is a global optimum
        # here (verified by full enumeration inside the test).
        rng = np.random.default_rng(8)
        x = rng.standard_normal((40, 4))
        y = x[:, 2] * 1.5 + rng.standard_normal(40) * 0.2
        fit = stepwise_aic(x, y, StepwiseOptions(start=NULL_START))
        best = min(
            (oracle_aic(x, y, c) for r in range(5) for c in combinations(range(4), r)),
        )
        assert fit.tuning == pytest.approx(best, rel=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((50, 6))
        y = rng.standard_normal(50)
        a = stepwise_aic(x, y)
        b = stepwise_aic(x, y)
        assert a.tuning == b.tuning
        np.testing.assert_array_equal(a.coefs.values, b.coefs.values)


def reference_stepwise(X, y, opts=None):
    """The exhaustive search: every move scored by the exact Cholesky AIC."""
    opts = opts or StepwiseOptions()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, m = X.shape
    max_selected = opts.max_selected if opts.max_selected is not None else max(n - 1, 1)
    if opts.start == FULL_START:
        if n <= m + 1 or m > max_selected:
            raise InfeasibleStartError("full-model start is infeasible")
        current = tuple(range(m))
    else:
        current = ()
    search = _GramSearch(X, y)
    cur_aic = search.aic(current)
    aic_path = [cur_aic]
    while True:
        candidates = [tuple(k for k in current if k != j) for j in current]
        if len(current) < max_selected:
            candidates += [tuple(sorted(current + (j,))) for j in range(m) if j not in current]
        best_aic, best_cols = math.inf, None
        for cols in candidates:
            a = search.aic(cols)
            if a < best_aic:
                best_aic, best_cols = a, cols
        if best_cols is None or best_aic >= cur_aic:
            break
        current, cur_aic = best_cols, best_aic
        aic_path.append(cur_aic)
    converged = not (len(current) == max_selected < m and any(
        search.aic(tuple(sorted(current + (j,)))) < cur_aic
        for j in range(m) if j not in current))
    beta = search.coefficients(current)
    if beta is None:
        raise SingularDesignError("final stepwise model is rank deficient")
    slopes = np.zeros(m)
    slopes[list(current)] = beta[1:]
    terms = TermSet(m, tuple(main(j) for j in range(m)))
    return FitResult(CoefficientVector(terms, float(beta[0]), slopes, RAW), tuning=cur_aic,
                     iterations=len(aic_path) - 1, converged=converged,
                     aic_path=tuple(aic_path))


def hard_design(kind, start, seed, m):
    """A design on which a screened score could disagree with the exact one."""
    rng = np.random.default_rng(seed)
    n = m + 2 if kind == "tight" else int(rng.integers(m + 3, 4 * m + 12))
    if kind == "binary":
        mains = rng.integers(0, 2, (n, m)).astype(float)
        X = np.column_stack([mains, mains**2])  # X^2 == X: every square duplicates its main
    elif kind == "correlated":  # one common factor: pivot ratios down to ~1e-7
        X = rng.standard_normal((n, 1)) + 10.0 ** -rng.uniform(1, 3.5) * rng.standard_normal((n, m))
        X *= 10.0 ** rng.uniform(-2, 2, m)
    else:
        X = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-2, 2, m)
    a, b = rng.choice(m, 2, replace=False)
    if kind == "duplicate":
        X[:, b] = X[:, a]
    elif kind == "collinear":
        rel = 10.0 ** -rng.uniform(6, 9)
        X[:, b] = X[:, a] + rel * np.std(X[:, a]) * rng.standard_normal(n)
    scale = np.where(np.std(X, axis=0) > 0, np.std(X, axis=0), 1.0)
    beta = np.where(rng.random(X.shape[1]) < 0.5, 0.0, rng.standard_normal(X.shape[1]) / scale)
    y = X @ beta + 10.0 ** rng.uniform(-1, 2) * rng.standard_normal()
    if kind != "exact":  # an exact fit drives every RSS to the floor
        y += 10.0 ** rng.uniform(-3, 0.5) * rng.standard_normal(n)
    max_selected = int(rng.integers(1, X.shape[1])) if kind == "capped" else None
    return X, y, StepwiseOptions(start=start, max_selected=max_selected)


def outcome(fit, X, y, opts):
    try:
        r = fit(X, y, opts)
    except (InfeasibleStartError, SingularDesignError) as exc:
        return type(exc)
    return (r.aic_path, r.tuning, r.coefs.intercept, r.coefs.values.tobytes(),
            r.iterations, r.converged)


class TestScreenedSearch:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["duplicate", "collinear", "binary", "exact", "tight", "capped",
                            "correlated"]),
           st.sampled_from([FULL_START, NULL_START]),
           st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_matches_exhaustive_exact_search(self, kind, start, seed, m):
        X, y, opts = hard_design(kind, start, seed, m)
        assert outcome(stepwise_aic, X, y, opts) == outcome(reference_stepwise, X, y, opts)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_exhaustive_search_on_wide_designs(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((120, 30)) @ (np.eye(30) + 0.3 * rng.standard_normal((30, 30)))
        y = x[:, :6].sum(axis=1) + 2.0 * rng.standard_normal(120)
        for start in (FULL_START, NULL_START):
            opts = StepwiseOptions(start=start)
            assert outcome(stepwise_aic, x, y, opts) == outcome(reference_stepwise, x, y, opts)

    @pytest.mark.parametrize("start", [FULL_START, NULL_START])
    def test_bounds_hold_after_poorly_conditioned_steps(self, monkeypatch, start):
        # Rounding left in the swept matrix by a near-singular model must stay
        # covered after the search moves on to a well-conditioned one.
        outside = []
        shortlist = _SweepScreen.shortlist

        def checked(self, rss, ratio, cur_aic, **kw):
            moves = shortlist(self, rss, ratio, cur_aic, **kw)
            current = tuple(np.flatnonzero(self.swept[1:]).tolist())
            for j, bounds in moves:
                cols = tuple(sorted(set(current) ^ {j}))
                if bounds is not None and not bounds[0] <= self.search.aic(cols) <= bounds[1]:
                    outside.append((j, cols))
            return moves

        monkeypatch.setattr(_SweepScreen, "shortlist", checked)
        for seed in range(160, 180):
            X, y, opts = hard_design("correlated", start, seed, 2 + seed % 7)
            stepwise_aic(X, y, opts)
        assert outside == []

    def test_equal_additions_take_the_first_column(self):
        # Orthogonal +-1 columns with equal x'y score bit-identical AICs.
        h = np.array([[1, 1, 1, 1, 1, 1, 1, 1], [1, -1, 1, -1, 1, -1, 1, -1],
                      [1, 1, -1, -1, 1, 1, -1, -1], [1, -1, -1, 1, 1, -1, -1, 1]], float).T
        x = h[:, 1:]
        y = 3.0 * x[:, 0] + 3.0 * x[:, 1] + 0.5 * x[:, 2]
        search = _GramSearch(x, y)
        assert search.aic((0,)) == search.aic((1,)) < search.aic((2,))
        fit = stepwise_aic(x, y, StepwiseOptions(start=NULL_START, max_selected=1))
        assert np.flatnonzero(fit.coefs.values).tolist() == [0]
        assert not fit.converged

    def test_deletion_wins_an_exact_tie_with_an_addition(self, monkeypatch):
        # x0 is redundant once x1 and x2 are in; the weight of x3 in y and a
        # last-ulp nudge of y[0] are bisected until, from the model {0, 1, 2},
        # deleting x0 and adding x3 score the same AIC to the last bit.
        rng = np.random.default_rng(0)
        x1, x2, x3, e0, e = rng.standard_normal((5, 40))
        x = np.column_stack([(x1 + x2) / math.sqrt(2) + 0.3 * e0, x1, x2, x3])

        def response(c, d=0.0):
            y = x1 + x2 + c * x3 + 0.5 * e
            y[0] += d
            return y

        def gap(c, d=0.0):
            search = _GramSearch(x, response(c, d))
            return search.aic((1, 2)) - search.aic((0, 1, 2, 3))

        c = _bisect(gap, 0.2, 0.3)
        d = _bisect(lambda d: gap(c, d) * math.copysign(1.0, -gap(c, -1e-12)), -1e-12, 1e-12)
        y = response(c, d)
        assert gap(c, d) == 0.0
        opts = StepwiseOptions(start=NULL_START)
        taken = []
        move = _SweepScreen.move
        monkeypatch.setattr(_SweepScreen, "move",
                            lambda self, j, ratio: (taken.append(j), move(self, j, ratio)))
        fit = stepwise_aic(x, y, opts)
        search = _GramSearch(x, y)
        step = fit.aic_path.index(search.aic((1, 2)))
        assert fit.aic_path[step - 1] == search.aic((0, 1, 2))
        assert len(taken) == fit.iterations
        assert taken[step - 1] == 0  # the deletion of x0, not the addition of x3
        assert outcome(stepwise_aic, x, y, opts) == outcome(reference_stepwise, x, y, opts)


class TestAutoStart:
    @pytest.mark.parametrize("kind,start", [
        ("gaussian", FULL_START),
        ("wide", NULL_START),  # n <= m + 1
        ("capped", NULL_START),  # m > max_selected
        ("binary", NULL_START),  # X^2 == X makes the full model singular
        ("duplicate", FULL_START),  # singular mains: the full start ends rank deficient
    ])
    def test_resolves_to_and_fits_as_the_explicit_start(self, kind, start):
        rng = np.random.default_rng(21)
        n = 10 if kind == "wide" else 120
        x = rng.standard_normal((n, 3))
        if kind == "binary":
            x[:, :2] = rng.integers(0, 2, (n, 2))
        elif kind == "duplicate":
            x[:, 2] = x[:, 0]
        terms = canonical_terms(3)
        X = expand(x, terms)
        y = x[:, 0] + x[:, 0] * x[:, 1] + rng.standard_normal(n)
        cap = 4 if kind == "capped" else None

        def run(start):
            return outcome(lambda X, y, opts: stepwise_aic(X, y, opts, terms), X, y,
                           StepwiseOptions(start=start, max_selected=cap))

        assert run(AUTO_START) == run(start)
        if kind != "duplicate":
            assert stepwise_aic(X, y, StepwiseOptions(max_selected=cap), terms).start == start


def _bisect(f, lo, hi):
    """The point of [lo, hi] where f turns non-negative, or an exact zero of f."""
    while True:
        mid = (lo + hi) / 2
        v = f(mid)
        if v == 0.0 or mid in (lo, hi):
            return mid
        lo, hi = (mid, hi) if v < 0 else (lo, mid)
