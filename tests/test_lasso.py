import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hereditas import kernels, selectors
from hereditas.errors import InvalidDimensionError
from hereditas.selectors import (
    KKT_SLACK,
    LassoOptions,
    _default_terms,
    _finish,
    _lambda_grid,
    _prepare,
    _solver_inputs,
    fit_lasso_path,
    lambda_path,
    lasso_fit,
    lasso_kkt_residual,
    ols_fit,
    tune_lasso,
)
from hereditas.simulate import standardize_train
from hereditas.standardize import RAW
from hereditas.terms import canonical_terms


def lasso_objective(X, y, fit, lam, opts=None) -> float:
    """(1/2n)RSS + lam*l1 evaluated on the internally standardized scale."""
    prep = _prepare(X, y, (opts or LassoOptions()).internal_standardize)
    b = fit.coefs.values * prep.x_scale
    r = prep.yc - prep.XT.T @ b
    return float(r @ r) / (2 * len(prep.yc)) + lam * float(np.sum(np.abs(b)))


def random_problem(rng, n=40, m=6, snr=3.0):
    x = rng.standard_normal((n, m)) + rng.uniform(-1, 1, m)
    beta = rng.standard_normal(m)
    y = x @ beta + rng.standard_normal(n) * np.linalg.norm(x @ beta) / (snr * np.sqrt(n))
    return x, y


def orthonormal_problem(rng, n=64, m=5):
    """Columns with exact zero mean and X'X/n = I, so the lasso solution has
    the closed form soft(x_j'y/n, lam) coordinatewise."""
    a = rng.standard_normal((n, m))
    a -= a.mean(axis=0)
    q, _ = np.linalg.qr(a)  # columns stay in the centered subspace
    x = q * np.sqrt(n)
    y = rng.standard_normal(n) * 2.0 + x @ rng.standard_normal(m)
    return x, y


class TestLassoFit:
    def test_lambda_zero_matches_ols(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            x, y = random_problem(rng)
            fit = lasso_fit(x, y, 0.0)
            icept, coefs, _ = ols_fit(x, y)
            np.testing.assert_allclose(fit.coefs.values, coefs, atol=1e-6)
            assert fit.coefs.intercept == pytest.approx(icept, abs=1e-6)
            # Every violator joins at once, so one step solves a full-rank OLS.
            assert fit.converged and fit.iterations == 1

    def test_lambda_max_gives_exact_zeros(self):
        rng = np.random.default_rng(11)
        x, y = random_problem(rng)
        lam_max = lambda_path(x, y, LassoOptions(n_lambda=1))[0]
        for lam in (lam_max, lam_max * 1.5):
            fit = lasso_fit(x, y, lam)
            assert np.all(fit.coefs.values == 0.0)

    def test_orthonormal_closed_form(self):
        rng = np.random.default_rng(12)
        x, y = orthonormal_problem(rng)
        yc = y - y.mean()
        target = x.T @ yc / x.shape[0]
        for lam in (0.05, 0.2, 0.8):
            fit = lasso_fit(x, y, lam)
            expect = np.sign(target) * np.maximum(np.abs(target) - lam, 0.0)
            np.testing.assert_allclose(fit.coefs.values, expect, atol=1e-8)

    def test_kkt_conditions_hold(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            x, y = random_problem(rng)
            for lam in (0.0, 0.01, 0.1):
                fit = lasso_fit(x, y, lam)
                assert fit.converged
                act, inact = lasso_kkt_residual(x, y, fit, lam)
                assert act <= 1e-6 and inact <= 1e-6

    def test_objective_nonincreasing_over_sweeps(self):
        rng = np.random.default_rng(14)
        x, y = random_problem(rng, n=30, m=8)
        lam = 0.05
        objs = []
        for k in range(1, 9):
            opts = LassoOptions(max_iter=k)
            objs.append(lasso_objective(x, y, lasso_fit(x, y, lam, opts), lam, opts))
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-12

    def test_non_convergence_flagged_not_raised(self):
        rng = np.random.default_rng(15)
        x, y = random_problem(rng)
        fit = lasso_fit(x, y, 1e-6, LassoOptions(max_iter=1))
        assert not fit.converged
        assert fit.iterations == 1

    def test_max_iter_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            LassoOptions(max_iter=0)

    @pytest.mark.parametrize("value", [4.0, 0.1])
    def test_constant_column_stays_inert(self, value):
        # The mean of 30 copies of 0.1 rounds off 0.1: centering alone leaves
        # the column about 1e-17, not 0.
        rng = np.random.default_rng(16)
        x = rng.standard_normal((30, 3))
        x[:, 1] = value
        y = x[:, 0] + rng.standard_normal(30) * 0.1
        assert _prepare(x, y, True).col_nrm2[1] == 0.0
        fit = lasso_fit(x, y, 0.01)
        assert fit.converged and fit.coefs.values[1] == 0.0

    def test_internal_standardize_off(self):
        rng = np.random.default_rng(17)
        x, y = random_problem(rng)
        fit = lasso_fit(x, y, 0.0, LassoOptions(internal_standardize=False))
        _, coefs, _ = ols_fit(x, y)
        np.testing.assert_allclose(fit.coefs.values, coefs, atol=1e-6)

    def test_rows_of_x_and_y_must_match(self):
        for x in (np.ones((3, 2)), np.ones(4)):
            with pytest.raises(InvalidDimensionError, match="one row per response entry"):
                ols_fit(x, np.ones(4))

    def test_one_row_rejected(self):
        with pytest.raises(InvalidDimensionError, match="need at least 2 rows"):
            lasso_fit(np.ones((1, 2)), np.ones(1), 0.1)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            lasso_fit(np.ones((3, 1)), np.ones(3), -0.1)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        x, y = random_problem(np.random.default_rng(18))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            lasso_fit(x, y, lam)

    @pytest.mark.parametrize("lambdas", [[-0.1], [0.5, -1e-300], [0.1, float("nan")]])
    def test_path_rejects_a_bad_lambda(self, lambdas):
        x, y = random_problem(np.random.default_rng(19))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fit_lasso_path(x, y, lambdas=lambdas)


class TestLambdaPath:
    def test_single_point_is_lambda_max(self):
        rng = np.random.default_rng(20)
        x, y = random_problem(rng)
        path = lambda_path(x, y, LassoOptions(n_lambda=1))
        assert path.shape == (1,)
        fit = lasso_fit(x, y, path[0])
        assert np.all(fit.coefs.values == 0.0)

    def test_explicit_min_ratio_ends_the_grid(self):
        x, y = random_problem(np.random.default_rng(22))
        path = lambda_path(x, y, LassoOptions(n_lambda=10, lambda_min_ratio=0.05))
        assert path[-1] / path[0] == pytest.approx(0.05, rel=1e-12)

    def test_first_path_solution_all_zero(self):
        rng = np.random.default_rng(21)
        x, y = random_problem(rng)
        _, fits = fit_lasso_path(x, y)
        assert np.all(fits[0].coefs.values == 0.0)

    def test_geometric_spacing(self):
        rng = np.random.default_rng(22)
        x, y = random_problem(rng, n=50, m=4)
        opts = LassoOptions(n_lambda=37)
        path = lambda_path(x, y, opts)
        assert len(path) == 37
        ratios = path[1:] / path[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        expected_ratio = opts.resolve_min_ratio(50, 4) ** (1 / 36)
        assert ratios[0] == pytest.approx(expected_ratio, rel=1e-12)

    def test_min_ratio_depends_on_shape(self):
        opts = LassoOptions()
        assert opts.resolve_min_ratio(200, 65) == 1e-4
        assert opts.resolve_min_ratio(50, 65) == 1e-2

    def test_warm_matches_cold(self):
        rng = np.random.default_rng(23)
        x, y = random_problem(rng)
        lams, fits = fit_lasso_path(x, y, LassoOptions(n_lambda=25))
        for lam, fit in zip(lams[::6], fits[::6]):
            cold = lasso_fit(x, y, lam)
            np.testing.assert_allclose(fit.coefs.values, cold.coefs.values, atol=1e-5)


class TestTuneLasso:
    def test_in_sample_tuning_beats_null(self):
        rng = np.random.default_rng(30)
        x, y = random_problem(rng, snr=10.0)
        tuned = tune_lasso((x, y), (x, y))
        assert tuned.valid_mse[tuned.best_index] <= tuned.valid_mse[0]

    def test_pure_noise_never_beats_null_by_luck(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((50, 6))
        y = rng.standard_normal(50)
        xv = rng.standard_normal((50, 6))
        yv = rng.standard_normal(50)
        tuned = tune_lasso((x, y), (xv, yv))
        assert tuned.valid_mse[tuned.best_index] <= tuned.valid_mse[0]

    def test_ties_break_to_larger_lambda(self):
        # Validation response orthogonal to every prediction makes all MSE
        # values equal only in contrived cases; instead check the rule on the
        # recorded curve directly.
        rng = np.random.default_rng(32)
        x, y = random_problem(rng)
        tuned = tune_lasso((x, y), random_problem(rng))
        first_min = int(np.flatnonzero(tuned.valid_mse == tuned.valid_mse.min())[0])
        assert tuned.best_index == first_min

    def test_deterministic(self):
        rng = np.random.default_rng(33)
        x, y = random_problem(rng)
        xv, yv = random_problem(rng)
        a = tune_lasso((x, y), (xv, yv))
        b = tune_lasso((x, y), (xv, yv))
        assert a.best_lambda == b.best_lambda
        np.testing.assert_array_equal(a.fit.coefs.values, b.fit.coefs.values)


class TestLargeMagnitudes:
    @pytest.mark.parametrize("duplicate", [False, True], ids=["distinct", "duplicate"])
    def test_converges_at_any_response_scale(self, duplicate):
        # Rounding in b and in X'r/n grows with the response; the thresholds
        # must grow with it or the certificate is never met.  With a
        # duplicated column the exact step holds one copy fixed.
        rng = np.random.default_rng(40)
        x = rng.standard_normal((30, 3))
        if duplicate:
            x = np.column_stack([x, x[:, 0]])
        y = x[:, 0] + 0.5 * rng.standard_normal(30)
        unit = lasso_fit(x, y, 0.01, LassoOptions(max_iter=2000))
        assert unit.converged
        for c in (1e10, 1e12):
            fit = lasso_fit(x, c * y, 0.01 * c, LassoOptions(max_iter=2000))
            assert fit.converged
            np.testing.assert_allclose(x @ fit.coefs.values / c, x @ unit.coefs.values,
                                       rtol=1e-6, atol=1e-6 * np.abs(x @ unit.coefs.values).max())
            if not duplicate:
                np.testing.assert_allclose(fit.coefs.values / c, unit.coefs.values, rtol=1e-6)

    def test_overflowing_response_rejected_fast(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((30, 3))
        y = 1e200 * x[:, 0]
        start = time.perf_counter()
        with pytest.raises(InvalidDimensionError, match="overflows"):
            tune_lasso((x, y), (x, y))
        with pytest.raises(InvalidDimensionError, match="overflows"):
            lasso_fit(x, y, 1.0)
        assert time.perf_counter() - start < 5.0


def reference_cd(XT, r, b, col_nrm2, lam, tol, kkt_tol, max_sweeps):
    """Plain cyclic coordinate descent: the kernel before exact active-set steps."""
    m, n = XT.shape
    inv_n = 1.0 / n
    sweeps = 0
    converged = False
    for _ in range(max_sweeps):
        sweeps += 1
        largest_change = 0.0
        for j in range(m):
            vj = col_nrm2[j]
            if vj <= 0.0:
                continue
            g = np.dot(XT[j], r) * inv_n
            z = g + vj * b[j]
            b_new = (z - lam if z > lam else z + lam if z < -lam else 0.0) / vj
            d = b_new - b[j]
            if d != 0.0:
                r -= d * XT[j]
                b[j] = b_new
            if abs(d) > largest_change:
                largest_change = abs(d)
        if largest_change <= tol and _reference_kkt_ok(XT, r, b, col_nrm2, lam, kkt_tol, inv_n):
            converged = True
            break
    return sweeps, converged


def _reference_kkt_ok(XT, r, b, col_nrm2, lam, kkt_tol, inv_n):
    for j in range(XT.shape[0]):
        if col_nrm2[j] <= 0.0:
            continue
        g = np.dot(XT[j], r) * inv_n
        if b[j] != 0.0:
            if abs(g - lam * np.sign(b[j])) > kkt_tol:
                return False
        elif abs(g) > lam + kkt_tol:
            return False
    return True


def reference_path(X, y, lambdas, opts):
    """fit_lasso_path with the plain coordinate-descent kernel."""
    prep = _prepare(X, y, opts.internal_standardize)
    b = np.zeros(prep.XT.shape[0])
    r = prep.yc.copy()
    terms = _default_terms(len(b))
    tol = 1e-7  # plain descent's coefficient-change threshold
    fits = []
    for lam in lambdas:
        sweeps, converged = reference_cd(prep.XT, r, b, prep.col_nrm2, float(lam), tol,
                                         KKT_SLACK, opts.max_iter)
        fits.append(_finish(prep, b.copy(), float(lam), sweeps, converged, terms, RAW))
    return fits


def lasso_design(kind, seed):
    """A design on which an active-set solve could go wrong; full_rank says
    whether its lasso coefficients, and so its supports, are unique."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 9))
    n = int(rng.integers(2, m + 1)) if kind == "wide" else int(rng.integers(m + 5, 4 * m + 20))
    X = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-1, 1, m)
    a, b = rng.choice(m, 2, replace=False)
    if kind == "duplicate":
        X[:, b] = X[:, a]
    elif kind == "near_copy":
        rel = 10.0 ** -rng.uniform(6, 9)
        X[:, b] = X[:, a] + rel * np.std(X[:, a]) * rng.standard_normal(n)
    elif kind == "binary":
        mains = rng.integers(0, 2, (n, m)).astype(float)
        X = np.column_stack([mains, mains**2])  # X^2 == X: every square duplicates its main
    elif kind == "constant":
        X[:, a] = 3.0
    beta = np.where(rng.random(X.shape[1]) < 0.4, 0.0, rng.standard_normal(X.shape[1]))
    y = X @ beta + 10.0 ** rng.uniform(-2, 0.5) * rng.standard_normal(n) + rng.standard_normal()
    full_rank = kind in ("gaussian", "constant", "above_max")
    return X, y, full_rank


def gaussian_path_problem():
    """A 200x65 Gaussian design with ten true columns."""
    rng = np.random.default_rng(50)
    X = rng.standard_normal((200, 65))
    return X, X[:, :10] @ rng.standard_normal(10) + 2.0 * rng.standard_normal(200)


def near_copy_path_problem():
    """X2 = X1 (1 + 1e-9 noise) at a 1e10 response scale, hierarchically
    standardized with their products: the working set holds two columns."""
    rng = np.random.default_rng(0)
    x1 = rng.standard_normal(34)
    x = np.column_stack([x1, x1 * (1.0 + 1e-9 * rng.standard_normal(34))])
    y = 1e10 * rng.standard_normal(34)
    train = np.random.default_rng(0).permutation(34)[:20]
    z, *_ = standardize_train(x[train], canonical_terms(2), "hierarchical", "median-iqr")
    return z, y[train]


class TestExactStepMatchesPlainDescent:
    """Differential oracle: the kernel against plain coordinate descent."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(["gaussian", "duplicate", "near_copy", "binary", "constant", "wide",
                            "above_max"]),
           st.integers(0, 2**32 - 1))
    @example("gaussian", 81382160)  # a column certified at zero 5.2e-8 past its kink
    def test_whole_paths_match(self, kind, seed):
        X, y, full_rank = lasso_design(kind, seed)
        # Plain descent can zigzag along a near-copy pair until max_iter.
        opts = LassoOptions(n_lambda=30, max_iter=2000)
        prep = _prepare(X, y, True)
        grid = _lambda_grid(prep, opts)
        lambdas = grid[0] * np.array([4.0, 1.5, 1.0]) if kind == "above_max" else np.append(grid, 0.0)
        _, fits = fit_lasso_path(X, y, opts, lambdas=lambdas)
        ref = reference_path(X, y, lambdas, opts)
        for lam, fit, old in zip(lambdas, fits, ref):
            assert fit.converged or not old.converged
            kkt = max(lasso_kkt_residual(X, y, fit, lam))
            assert kkt <= 1e-6
            obj, obj_ref = lasso_objective(X, y, fit, lam), lasso_objective(X, y, old, lam)
            diff = (fit.coefs.values - old.coefs.values) * prep.x_scale
            # By convexity, a point within kkt of the KKT conditions is worse
            # than any other point by at most kkt * ||b - b'||_1.  Along a
            # near-copy pair, where the objective is almost flat, plain descent
            # certifies anywhere within that, so that is the room a tie needs.
            room = 1e-10 * max(1.0, obj_ref) + kkt * np.abs(diff).sum()
            assert obj <= obj_ref + room
            # The objective is strongly convex in the fit X b, so fitted values
            # are unique at the optimum: (1/2n)||X(b - b')||^2 <= obj' - obj + room.
            gap = diff @ prep.XT
            assert gap @ gap / (2 * len(y)) <= obj_ref - obj + room
            if full_rank:
                assert fit.converged and old.converged
                assert obj <= obj_ref + 1e-10 * max(1.0, obj_ref)
                pred, pred_ref = fit.coefs.predict(X), old.coefs.predict(X)
                assert np.max(np.abs(pred - pred_ref)) <= 1e-5 * max(1.0, np.max(np.abs(pred_ref)))
                if lam > 0.0:
                    # A column within KKT_SLACK of its kink may be certified
                    # at zero or just off it, so only the others must agree.
                    b = fit.coefs.values * prep.x_scale
                    g = prep.XT @ (prep.yc - b @ prep.XT) / len(y)
                    clear = np.abs(np.abs(g) - lam) > KKT_SLACK
                    np.testing.assert_array_equal((fit.coefs.values != 0.0)[clear],
                                                  (old.coefs.values != 0.0)[clear])
        if kind == "above_max":
            assert all(np.all(f.coefs.values == 0.0) for f in fits)

    @pytest.mark.parametrize("problem", [gaussian_path_problem, near_copy_path_problem],
                             ids=["gaussian", "near_copy"])
    def test_every_pass_is_one_exact_step(self, monkeypatch, problem):
        steps = []
        step = kernels._exact_step
        monkeypatch.setattr(kernels, "_exact_step", lambda *a: (steps.append(1), step(*a))[1])
        _, fits = fit_lasso_path(*problem(), LassoOptions(max_iter=2000))
        assert all(f.converged for f in fits)
        assert len(steps) == sum(f.iterations for f in fits)


class TestHeldColumns:
    def test_near_copy_pair_converges_at_a_large_response_scale(self):
        # The step moves along the held line with the largest KKT residual;
        # plain descent creeps along it by the rounding of 1e10-scale
        # coefficients until the cap.
        z, y = near_copy_path_problem()
        lambdas, fits = fit_lasso_path(z, y, LassoOptions(max_iter=2000))
        slack = _solver_inputs(_prepare(z, y, True))[1]
        for lam, fit in zip(lambdas, fits):
            assert fit.converged
            assert max(lasso_kkt_residual(z, y, fit, lam)) <= max(1e-6, slack)

    def test_near_copy_pair_at_lambda_zero_stays_finite(self):
        # Unscaled, the pair's held line has curvature 3e-14, and from b near
        # 3e6 on its slope is the rounding of c - G b: each move along it
        # roughly doubled b until it overflowed to [nan, -inf].
        X, y, _ = lasso_design("near_copy", 6015)
        opts = LassoOptions(n_lambda=30, max_iter=2000, internal_standardize=False)
        lambdas = np.append(_lambda_grid(_prepare(X, y, False), opts), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, fits = fit_lasso_path(X, y, opts, lambdas=lambdas)
        for lam, fit in zip(lambdas, fits):
            assert np.all(np.isfinite(fit.coefs.values))
            assert fit.converged or lam == 0.0  # lambda = 0 is pinned by the test below
            assert max(lasso_kkt_residual(X, y, fit, lam, opts)) <= 1e-6

    def test_near_copy_pair_at_lambda_zero_converges(self):
        # At b near +-3.37e6 the gradient c - G b carries about 2e-7 of
        # rounding, so a certificate that ignores it ran to max_iter.
        X, y, _ = lasso_design("near_copy", 6015)
        opts = LassoOptions(internal_standardize=False)
        fit = lasso_fit(X, y, 0.0, opts)
        assert fit.converged and fit.iterations <= 5
        assert max(lasso_kkt_residual(X, y, fit, 0.0, opts)) <= 1e-6

    def test_kkt_residual_checks_the_problem_the_fit_solved(self):
        # Without opts the check reads the fit's own scaling; it used to check
        # the internally standardized problem and read 3.7e-4 here.
        X, y, _ = lasso_design("near_copy", 6015)
        fit = lasso_fit(X, y, 4.2e-4, LassoOptions(internal_standardize=False))
        assert fit.converged
        assert max(lasso_kkt_residual(X, y, fit, 4.2e-4)) <= 1e-6
        assert not fit.internal_standardize


class TestKernelSeam:
    def test_path_calls_kernel_positionally_once_per_lambda(self, monkeypatch):
        # perfbench's tracer wraps kernels.cd_solve and reads XT from args[0],
        # col_nrm2 from args[3] and (sweeps, converged) from the result.
        calls = []
        solve = kernels.cd_solve

        def counting(*args, **kwargs):
            result = solve(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        monkeypatch.setattr(kernels, "cd_solve", counting)
        rng = np.random.default_rng(60)
        x, y = random_problem(rng, n=40, m=6)
        lambdas, fits = fit_lasso_path(x, y, LassoOptions(n_lambda=12))
        assert len(calls) == len(lambdas) == 12
        for (args, kwargs, result), fit in zip(calls, fits):
            assert kwargs == {}
            xt, col_nrm2 = args[0], args[3]
            assert xt.shape == (6, 40)
            np.testing.assert_allclose(col_nrm2, np.mean(xt * xt, axis=1), rtol=1e-12)
            sweeps, converged = result
            assert isinstance(sweeps, int) and isinstance(converged, bool)
            assert (sweeps, converged) == (fit.iterations, fit.converged)


class TestFaceUpdates:
    """On gaussian_path_problem's path, the working set changes one column
    at a time."""

    def test_a_one_column_change_factors_nothing(self, monkeypatch):
        factored, changes = [], []
        factor, fit = kernels.Face.factor, kernels.Face.fit
        monkeypatch.setattr(kernels.Face, "factor",
                            lambda face, active: (factored.append(1), factor(face, active))[1])

        def counted(face, signs):
            before, calls = set(face.free) | set(face.held), len(factored)
            fit(face, signs)
            changes.append((len(before ^ set(np.flatnonzero(signs))), len(factored) - calls))

        monkeypatch.setattr(kernels.Face, "fit", counted)
        X, y = gaussian_path_problem()
        _, fits = fit_lasso_path(X, y, LassoOptions())
        assert all(f.converged for f in fits)
        one_column = [calls for changed, calls in changes if changed == 1]
        assert len(one_column) > 50
        assert not any(one_column)

    def test_updated_inverses_match_their_blocks(self, monkeypatch):
        errors = []
        fit = kernels.Face.fit

        def checked(face, signs):
            fit(face, signs)
            if not face.fresh:
                exact = np.linalg.inv(face.gram[np.ix_(face.free, face.free)])
                errors.append(np.max(np.abs(face.inv - exact)) / np.max(np.abs(exact)))

        monkeypatch.setattr(kernels.Face, "fit", checked)
        X, y = gaussian_path_problem()
        fit_lasso_path(X, y, LassoOptions())
        assert len(errors) > 50
        assert max(errors) <= 1e-9


class TestDefaultTerms:
    def test_path_builds_one_default_term_set(self, monkeypatch):
        calls = []
        build = selectors._default_terms
        monkeypatch.setattr(selectors, "_default_terms",
                            lambda m: (calls.append(m), build(m))[1])
        rng = np.random.default_rng(61)
        x, y = random_problem(rng, n=40, m=6)
        _, fits = fit_lasso_path(x, y, LassoOptions(n_lambda=12))
        assert calls == [6]
        assert len({id(f.coefs.terms) for f in fits}) == 1


class TestFaceFactor:
    def test_holds_the_dependent_columns_of_a_rank_deficient_block(self):
        rng = np.random.default_rng(62)
        a, b, c = rng.standard_normal((3, 50))
        X = np.column_stack([a, b, a, a + b, c])
        face = kernels.Face(X.T @ X / 50)
        face.factor(np.arange(5))
        assert face.free.tolist() == [0, 1, 4] and face.held.tolist() == [2, 3]
        exact = np.linalg.inv(face.gram[np.ix_(face.free, face.free)])
        np.testing.assert_allclose(face.inv, exact, rtol=1e-10, atol=1e-12)
        # Each held column is a combination of the kept ones.
        kept, held = X[:, face.free], X[:, face.held]
        coef = np.linalg.lstsq(kept, held, rcond=None)[0]
        np.testing.assert_allclose(kept @ coef, held, atol=1e-10)

    def test_a_full_rank_block_holds_nothing(self):
        x = np.random.default_rng(63).standard_normal((40, 6))
        face = kernels.Face(x.T @ x)
        face.factor(np.arange(6))
        assert face.free.tolist() == list(range(6)) and face.held.size == 0
        np.testing.assert_allclose(face.inv, np.linalg.inv(face.gram), rtol=1e-10, atol=1e-12)

    def test_a_change_frees_a_held_column(self):
        x = np.random.default_rng(64).standard_normal((30, 3))
        X = np.column_stack([x, x[:, 0]])
        face = kernels.Face(X.T @ X / 30)
        face.fit(np.array([1.0, 0.0, 0.0, 1.0]))
        assert face.free.tolist() == [0] and face.held.tolist() == [3]
        face.fit(np.array([0.0, 0.0, 0.0, 1.0]))
        assert face.free.tolist() == [3] and face.held.size == 0
        np.testing.assert_allclose(face.inv, [[1.0 / face.gram[3, 3]]], rtol=1e-15)


class TestDriftRebuild:
    def test_a_drifted_inverse_is_built_again(self, monkeypatch):
        # A wide design found by fuzzing: a face solved on an updated inverse
        # still leaves an active violation, so cd_solve factors it afresh.
        rebuilt = []
        factor = kernels.Face.factor

        def counted(face, active):
            if sys._getframe(1).f_code is kernels.cd_solve.__code__:
                rebuilt.append(len(active))
            factor(face, active)

        monkeypatch.setattr(kernels.Face, "factor", counted)
        X, y, _ = lasso_design("wide", 4487)
        opts = LassoOptions(n_lambda=30, max_iter=2000)
        lambdas = np.append(_lambda_grid(_prepare(X, y, True), opts), 0.0)
        _, fits = fit_lasso_path(X, y, opts, lambdas=lambdas)
        assert rebuilt
        for lam, fit in zip(lambdas, fits):
            assert fit.converged
            assert max(lasso_kkt_residual(X, y, fit, lam)) <= 1e-6


class TestKernelGuards:
    """Crafted states that reach each guard of ``_exact_step`` and ``_move``."""

    def test_a_joining_column_that_moves_against_its_sign_leaves_the_face(self):
        XT = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
        b, signs = np.zeros(2), np.array([1.0, 0.0])
        # The face's step for column 0 is g_0 - lam = -0.5: against its sign.
        out = kernels._exact_step(XT, np.array([0.5, 0.0]), b, signs, 1.0, 1e-9,
                                  kernels.Face(XT @ XT.T / 4))
        assert out == (False, False)
        np.testing.assert_array_equal(signs, [0.0, 0.0])
        np.testing.assert_array_equal(b, [0.0, 0.0])

    def test_a_held_column_whose_line_slopes_against_its_sign_leaves_the_face(self):
        # Column 1 duplicates column 0, so it is held; b_0 is already solved
        # (g_0 = lam), and the held line's slope 2 lam opposes sign -1.
        x = np.array([1.0, -1.0, 1.0, -1.0])
        XT, lam = np.array([x, x]), 0.1
        face = kernels.Face(XT @ XT.T / 4)
        b, signs = np.array([0.5, 0.0]), np.array([1.0, -1.0])
        g = np.full(2, lam + 0.5) - face.gram @ b
        assert kernels._exact_step(XT, g, b, signs, lam, 1e-9, face) == (False, False)
        assert face.held.tolist() == [1]
        np.testing.assert_array_equal(signs, [1.0, 0.0])
        np.testing.assert_array_equal(b, [0.5, 0.0])

    @pytest.mark.parametrize("lam", [0.1, 0.0])
    def test_an_unbounded_move_is_not_taken(self, lam):
        # A flat line (no curvature) that zeroes no coefficient has no finite step.
        b = np.array([1.0, 0.0])
        assert kernels._move(b, np.array([1.0, 1.0]), np.inf, lam) is False
        np.testing.assert_array_equal(b, [1.0, 0.0])


class TestFaceMask:
    """On exact duplicates and n < m, where columns are held, the mask is
    the working set after every change, and an unchanged working set
    changes nothing."""

    def test_mask_is_free_and_held(self, monkeypatch):
        seen = {"held": 0, "unchanged": 0}
        factor, fit = kernels.Face.factor, kernels.Face.fit

        def check(face):
            mask = np.zeros(len(face.gram), dtype=bool)
            mask[face.free] = mask[face.held] = True
            np.testing.assert_array_equal(face.mask, mask)
            seen["held"] += face.held.size > 0

        def checked_factor(face, active):
            factor(face, active)
            check(face)

        def checked_fit(face, signs):
            before = (face.inv, face.free, face.held, face.fresh)
            unchanged = np.array_equal(face.mask, signs != 0.0)
            fit(face, signs)
            check(face)
            np.testing.assert_array_equal(face.mask, signs != 0.0)
            if unchanged:
                seen["unchanged"] += 1
                assert all(a is b for a, b in zip(before[:3], (face.inv, face.free, face.held)))
                assert face.fresh == before[3]

        monkeypatch.setattr(kernels.Face, "factor", checked_factor)
        monkeypatch.setattr(kernels.Face, "fit", checked_fit)
        opts = LassoOptions(n_lambda=30, max_iter=2000)
        for kind in ("duplicate", "wide"):
            for seed in range(12):
                X, y, _ = lasso_design(kind, seed)
                lambdas = np.append(_lambda_grid(_prepare(X, y, True), opts), 0.0)
                fit_lasso_path(X, y, opts, lambdas=lambdas)
        assert seen["held"] > 0 and seen["unchanged"] > 0
