import json

import numpy as np
import pytest

from hereditas.errors import (
    DegenerateColumnError,
    InconsistentParamsError,
    InvalidConfigError,
    InvalidDimensionError,
)
from hereditas.io import from_json_fields, to_json
from hereditas.standardize import (
    HIER_STD,
    MEAN_SD,
    MEDIAN_IQR,
    RAW,
    REGULAR_STD,
    CoefficientVector,
    LocationScale,
    RegularParams,
    back_transform_hierarchical,
    back_transform_regular,
    check_heredity,
    fit_location_scale,
    standardize_hierarchical,
    standardize_mains,
    standardize_regular,
)
from hereditas.terms import TermSet, canonical_terms, expand, inter, main, quad

TS3 = canonical_terms(3)


def make_hier_coefs(terms, entries, intercept=0.0):
    vals = np.zeros(len(terms))
    for t, v in entries.items():
        vals[terms.index[t]] = v
    return CoefficientVector(terms, intercept, vals, HIER_STD)


class TestFitLocationScale:
    def test_consecutive_integers(self):
        ls = fit_location_scale(np.array([[1.0], [2.0], [3.0]]))
        assert ls.centers[0] == pytest.approx(2.0)
        assert ls.scales[0] == pytest.approx(1.0)
        assert ls.delta_applied[0] == 0.0

    def test_constant_column_degenerate(self):
        with pytest.raises(DegenerateColumnError) as err:
            fit_location_scale(np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]]))
        assert "X1" in str(err.value)

    def test_zero_iqr_degenerate(self):
        col = np.array([[0.0], [5.0], [5.0], [5.0], [9.0]])
        with pytest.raises(DegenerateColumnError):
            fit_location_scale(col, MEDIAN_IQR)

    def test_median_iqr_values(self):
        col = np.array([[1.0], [2.0], [3.0], [10.0]])
        ls = fit_location_scale(col, MEDIAN_IQR)
        assert ls.centers[0] == pytest.approx(2.5)
        q1, q3 = np.quantile(col[:, 0], [0.25, 0.75])
        assert ls.scales[0] == pytest.approx(q3 - q1)

    def test_delta_shift_on_zero_mean(self):
        col = np.array([[-1.0], [0.0], [1.0]])  # mean exactly 0, sd 1
        ls = fit_location_scale(col)
        assert ls.delta_applied[0] == pytest.approx(1e-3)
        assert ls.effective_centers[0] == pytest.approx(-1e-3)
        # guard: the center actually used is nonzero
        assert abs(ls.effective_centers[0]) > 0

    def test_json_round_trip(self):
        rng = np.random.default_rng(3)
        ls = fit_location_scale(rng.standard_normal((30, 4)) + 1.0)
        back = from_json_fields(LocationScale, json.loads(json.dumps(to_json(ls))),
                                "location-scale field")
        np.testing.assert_array_equal(back.centers, ls.centers)
        np.testing.assert_array_equal(back.scales, ls.scales)

    @pytest.mark.parametrize("doc,message", [
        ({}, "missing location-scale fields: ['estimator', 'centers', 'scales', "
             "'delta_applied']"),
        # The params.json of the regular scheme covers every expanded column.
        (to_json(standardize_regular(np.arange(12.0).reshape(4, 3) ** 1.5, TS3)[1]),
         "unknown location-scale fields: ['labels']"),
        ({"estimator": "mean-sd", "centers": [0.0, "1"], "scales": [1.0, 1.0],
          "delta_applied": [0.0, 0.0]}, "location-scale field 'centers' must be np.ndarray"),
        ({"estimator": "mean-sd", "centers": 0.0, "scales": [1.0], "delta_applied": [0.0]},
         "location-scale field 'centers' must be np.ndarray, got 0.0"),
    ], ids=["empty", "regular-params", "string-entry", "number-not-list"])
    def test_json_load_rejects_other_documents(self, doc, message):
        with pytest.raises(InvalidConfigError) as exc:
            from_json_fields(LocationScale, doc, "location-scale field")
        assert message in str(exc.value)


class TestParamsChecks:
    """Both params types freeze their arrays and check them in one order:
    lengths, then the estimator, then the scales; an input with two faults
    raises the first."""

    LENGTHS = "centers/scales/delta_applied length mismatch"
    SCALES = "scales must be strictly positive and finite"

    @pytest.mark.parametrize("fields,error,message", [
        ({"centers": [0.0, 1.0]}, InconsistentParamsError, LENGTHS),
        ({"delta_applied": [[0.0, 0.0, 0.0]]}, InconsistentParamsError, LENGTHS),
        ({"estimator": "mode"}, ValueError, "unknown estimator 'mode'"),
        ({"scales": [1.0, 0.0, 1.0]}, ValueError, SCALES),
        ({"scales": [1.0, -2.0, 1.0]}, ValueError, SCALES),
        ({"scales": [1.0, np.inf, 1.0]}, ValueError, SCALES),
        ({"scales": [1.0, np.nan, 1.0]}, ValueError, SCALES),
        ({"centers": [0.0], "estimator": "mode"}, InconsistentParamsError, LENGTHS),
        ({"scales": [0.0], "estimator": "mode"}, InconsistentParamsError, LENGTHS),
        ({"scales": [0.0] * 3, "estimator": "mode"}, ValueError, "unknown estimator 'mode'"),
    ])
    def test_location_scale_rejects(self, fields, error, message):
        kw = {"estimator": MEAN_SD, "centers": [0.5] * 3, "scales": [1.0] * 3,
              "delta_applied": [0.0] * 3}
        with pytest.raises(ValueError) as exc:
            LocationScale(**{**kw, **fields})
        assert type(exc.value) is error and str(exc.value) == message

    @pytest.mark.parametrize("centers,scales,error,message", [
        ([0.0] * 2, [1.0] * 3, InconsistentParamsError, "params length does not match the term set"),
        ([0.0] * 3, [1.0] * 4, InconsistentParamsError, "params length does not match the term set"),
        ([0.0] * 3, [1.0, 0.0, 1.0], ValueError, SCALES),
        ([0.0] * 3, [1.0, np.nan, 1.0], ValueError, SCALES),
        ([0.0] * 2, [0.0] * 3, InconsistentParamsError, "params length does not match the term set"),
    ])
    def test_regular_params_rejects(self, centers, scales, error, message):
        terms = TermSet(3, (main(0), main(1), main(2)))
        with pytest.raises(ValueError) as exc:
            RegularParams(terms, centers, scales)
        assert type(exc.value) is error and str(exc.value) == message

    def test_arrays_are_read_only_floats(self):
        ls = LocationScale(MEDIAN_IQR, [1, 2], [3, 4], [0, 0])
        params = RegularParams(TermSet(1, (main(0),)), 2, 5)
        for v in (ls.centers, ls.scales, ls.delta_applied, params.centers, params.scales):
            assert v.dtype == np.float64 and v.ndim == 1 and not v.flags.writeable


class TestStandardizeHierarchical:
    def test_main_columns_mean0_sd1(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 3)) + 0.7
        ls = fit_location_scale(x)
        z = standardize_hierarchical(x, ls, TS3)
        for j in range(3):
            assert z[:, j].mean() == pytest.approx(0.0, abs=1e-12)
            assert z[:, j].std(ddof=1) == pytest.approx(1.0, abs=1e-12)

    def test_median_iqr_main_columns(self):
        rng = np.random.default_rng(1)
        x = rng.lognormal(0, 1, size=(41, 3))
        ls = fit_location_scale(x, MEDIAN_IQR)
        z = standardize_mains(x, ls)
        for j in range(3):
            assert np.median(z[:, j]) == pytest.approx(0.0, abs=1e-12)
            q1, q3 = np.quantile(z[:, j], [0.25, 0.75])
            assert q3 - q1 == pytest.approx(1.0, abs=1e-12)

    def test_unit_deviation_row(self):
        ls = LocationScale(MEAN_SD, centers=[2.0, -1.0], scales=[0.5, 3.0],
                           delta_applied=[0.0, 0.0])
        row = np.array([[2.0 + 0.5, -1.0 - 3.0]])
        z = standardize_hierarchical(row, ls, canonical_terms(2))
        np.testing.assert_allclose(z[0], [1.0, -1.0, -1.0, 1.0, 1.0])

    def test_second_order_is_product_of_standardized_mains(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((50, 3)) * 2.0 + 0.3
        ls = fit_location_scale(x)
        z = standardize_hierarchical(x, ls, TS3)
        m = standardize_mains(x, ls)
        for t in TS3.terms:
            col = z[:, TS3.index[t]]
            if t.kind == "inter":
                np.testing.assert_array_equal(col, m[:, t.indices[0]] * m[:, t.indices[1]])
            elif t.kind == "quad":
                np.testing.assert_array_equal(col, m[:, t.indices[0]] ** 2)


class TestStandardizeRegular:
    def test_every_column_mean0_sd1(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((60, 3)) + 1.5
        z, _ = standardize_regular(x, TS3)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_quad_column_has_own_center(self):
        # p=1, column (-1, 0, 1): the quad column (1, 0, 1) is centered at 2/3
        # and scaled by its own SD, unlike the hierarchical square.
        x = np.array([[-1.0], [0.0], [1.0]])
        ts = canonical_terms(1)
        z, params = standardize_regular(x, ts)
        qcol = ts.index[quad(0)]
        assert params.centers[qcol] == pytest.approx(2.0 / 3.0)
        assert params.scales[qcol] == pytest.approx(np.std([1.0, 0.0, 1.0], ddof=1))
        ls = fit_location_scale(x)
        zh = standardize_hierarchical(x, ls, ts)
        assert not np.allclose(z[:, qcol], zh[:, qcol])

    def test_differs_from_hierarchical_when_means_nonzero(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((50, 3)) + 0.8
        zr, _ = standardize_regular(x, TS3)
        ls = fit_location_scale(x)
        zh = standardize_hierarchical(x, ls, TS3)
        j = TS3.index[inter(0, 1)]
        assert np.max(np.abs(zr[:, j] - zh[:, j])) > 1e-3

    def test_degenerate_expanded_column(self):
        # second main is +/-1 so its square is constant
        x = np.array([[0.5, 1.0], [1.5, -1.0], [2.5, 1.0], [3.0, -1.0]])
        with pytest.raises(DegenerateColumnError) as err:
            standardize_regular(x, canonical_terms(2))
        assert "X2^2" in str(err.value)


class TestBackTransformHierarchical:
    def test_worked_example_golden_values(self):
        # Printed train moments and selected standardized coefficients for the
        # X1 block; expected raw values frozen from the same source.
        ls = LocationScale(
            MEAN_SD,
            centers=[0.03898826, -0.02594940, -0.01980965],
            scales=[1.0283163, 0.9127104, 0.9451362],
            delta_applied=[0.0, 0.0, 0.0],
        )
        cv = make_hier_coefs(TS3, {inter(0, 1): 0.9058, inter(0, 2): 0.0804, quad(0): 0.3822})
        raw = back_transform_hierarchical(cv, ls, TS3)
        assert round(raw.value(inter(0, 1)), 4) == 0.9651
        assert round(raw.value(inter(0, 2)), 4) in (0.0827, 0.0828)
        assert round(raw.value(quad(0)), 4) == 0.3614
        assert round(raw.value(main(0)), 4) == -0.0015

    def test_identity_when_centered_unit(self):
        ls = LocationScale(MEAN_SD, centers=[0.0, 0.0, 0.0], scales=[1.0, 1.0, 1.0],
                           delta_applied=[0.0, 0.0, 0.0])
        rng = np.random.default_rng(11)
        vals = rng.standard_normal(len(TS3))
        cv = CoefficientVector(TS3, 0.7, vals, HIER_STD)
        raw = back_transform_hierarchical(cv, ls, TS3)
        np.testing.assert_allclose(raw.values, vals)
        assert raw.intercept == pytest.approx(0.7)

    def test_single_main_hand_expansion(self):
        # ((x - 1)/2)^2 = x^2/4 - x/2 + 1/4
        ts = canonical_terms(1)
        ls = LocationScale(MEAN_SD, centers=[1.0], scales=[2.0], delta_applied=[0.0])
        cv = make_hier_coefs(ts, {quad(0): 1.0})
        raw = back_transform_hierarchical(cv, ls, ts)
        assert raw.value(quad(0)) == pytest.approx(0.25)
        assert raw.value(main(0)) == pytest.approx(-0.5)
        assert raw.intercept == pytest.approx(0.25)

    def test_missing_scale_is_error(self):
        ls = LocationScale(MEAN_SD, centers=[0.5], scales=[1.0], delta_applied=[0.0])
        cv = make_hier_coefs(TS3, {inter(0, 2): 1.0})
        with pytest.raises(InconsistentParamsError):
            back_transform_hierarchical(cv, ls, TS3)

    def test_wrong_tag_rejected(self):
        ls = LocationScale(MEAN_SD, centers=[0.5] * 3, scales=[1.0] * 3,
                           delta_applied=[0.0] * 3)
        cv = CoefficientVector(TS3, 0.0, np.zeros(len(TS3)), RAW)
        with pytest.raises(InconsistentParamsError):
            back_transform_hierarchical(cv, ls, TS3)

    def test_subset_terms_grow_parent_slots(self):
        sub = TermSet(3, (inter(0, 1),))
        cv = make_hier_coefs(sub, {inter(0, 1): 2.0})
        ls = LocationScale(MEAN_SD, centers=[0.5, -0.4, 0.1], scales=[1.0, 2.0, 1.0],
                           delta_applied=[0.0] * 3)
        raw = back_transform_hierarchical(cv, ls)
        assert raw.value(main(0)) == pytest.approx(-(-0.4) * 2.0 / 2.0)
        assert raw.value(main(1)) == pytest.approx(-0.5 * 2.0 / 2.0)
        ok, violators = check_heredity(raw)
        assert ok and not violators


class TestRejectedInputs:
    """Each raise of the coefficient vector, the estimators, the transforms
    and the back-transforms, reached from the input that trips it."""

    LS3 = LocationScale(MEAN_SD, [0.5] * 3, [1.0] * 3, [0.0] * 3)

    def test_coefficient_vector_checks(self):
        with pytest.raises(InvalidDimensionError, match="expected 9 coefficients"):
            CoefficientVector(TS3, 0.0, np.zeros(8), RAW)
        with pytest.raises(ValueError, match="unknown scale tag 'log'"):
            CoefficientVector(TS3, 0.0, np.zeros(9), "log")
        with pytest.raises(InvalidDimensionError, match="design has 3 columns, expected 9"):
            CoefficientVector(TS3, 0.0, np.zeros(9), RAW).predict(np.ones((2, 3)))

    def test_unknown_estimator(self):
        with pytest.raises(ValueError, match="unknown estimator 'mode'"):
            fit_location_scale(np.ones((4, 2)), "mode")

    def test_transforms_check_p(self):
        with pytest.raises(InconsistentParamsError, match="design has 2 mains"):
            standardize_mains(np.ones((4, 2)), self.LS3)
        with pytest.raises(InconsistentParamsError, match="term set expects p=2"):
            standardize_hierarchical(np.ones((4, 3)), self.LS3, canonical_terms(2))

    def test_hierarchical_back_transform_checks_the_term_set(self):
        cv = make_hier_coefs(TS3, {main(0): 1.0})
        with pytest.raises(InconsistentParamsError, match="does not match the given term set"):
            back_transform_hierarchical(cv, self.LS3, TermSet(3, (main(0),)))

    def test_regular_back_transform_checks(self):
        params = RegularParams(TS3, np.zeros(9), np.ones(9))
        with pytest.raises(InconsistentParamsError, match="expected coefficients tagged"):
            back_transform_regular(CoefficientVector(TS3, 0.0, np.zeros(9), RAW), params)
        cv = CoefficientVector(canonical_terms(2), 0.0, np.zeros(5), REGULAR_STD)
        with pytest.raises(InconsistentParamsError, match="params do not cover"):
            back_transform_regular(cv, params)


class TestBackTransformRegular:
    def test_unit_scales_identity_on_slopes(self):
        params_terms = TS3
        from hereditas.standardize import RegularParams

        params = RegularParams(params_terms, np.zeros(len(TS3)), np.ones(len(TS3)))
        vals = np.arange(len(TS3), dtype=float)
        cv = CoefficientVector(TS3, 1.0, vals, REGULAR_STD)
        raw = back_transform_regular(cv, params)
        np.testing.assert_allclose(raw.values, vals)

    def test_direct_division(self):
        from hereditas.standardize import RegularParams

        scales = np.ones(len(TS3))
        scales[TS3.index[main(0)]] = 4.0
        params = RegularParams(TS3, np.zeros(len(TS3)), scales)
        cv = make_hier_coefs(TS3, {})
        cv = CoefficientVector(TS3, 0.0, np.zeros(len(TS3)), REGULAR_STD)
        vals = np.zeros(len(TS3))
        vals[TS3.index[main(0)]] = 2.0
        cv = CoefficientVector(TS3, 0.0, vals, REGULAR_STD)
        raw = back_transform_regular(cv, params)
        assert raw.value(main(0)) == pytest.approx(0.5)

    def test_prediction_equivalence(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((40, 3)) * 1.3 + 0.4
        z, params = standardize_regular(x, TS3)
        cv = CoefficientVector(TS3, rng.standard_normal(),
                               rng.standard_normal(len(TS3)), REGULAR_STD)
        raw = back_transform_regular(cv, params)
        x_new = rng.standard_normal((20, 3)) + 0.2
        pred_std = cv.predict(params.apply(x_new))
        pred_raw = raw.predict(expand(x_new, TS3))
        np.testing.assert_allclose(pred_raw, pred_std, rtol=1e-10, atol=1e-10)


class TestHierarchicalProperties:
    def test_prediction_equivalence_random(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            p = int(rng.integers(1, 5))
            ts = canonical_terms(p)
            x = rng.standard_normal((30, p)) * rng.uniform(0.5, 2) + rng.uniform(-1, 1)
            ls = fit_location_scale(x)
            cv = CoefficientVector(ts, rng.standard_normal(),
                                   rng.standard_normal(len(ts)), HIER_STD)
            raw = back_transform_hierarchical(cv, ls, ts)
            x_new = rng.standard_normal((15, p))
            pred_std = cv.predict(standardize_hierarchical(x_new, ls, ts))
            pred_raw = raw.predict(expand(x_new, ts))
            scale = np.max(np.abs(pred_std)) + 1.0
            np.testing.assert_allclose(pred_raw, pred_std, rtol=1e-10, atol=1e-10 * scale)

    def test_heredity_guarantee_mass_draws(self):
        # Any nonzero second-order coefficient must force its parents nonzero
        # once the effective centers are continuous-distributed (nonzero).
        rng = np.random.default_rng(1234)
        p = 4
        ts = canonical_terms(p)
        second = [t for t in ts.terms if t.is_second_order]
        for _ in range(10_000):
            ls = LocationScale(
                MEAN_SD,
                centers=rng.uniform(0.05, 2.0, p) * rng.choice([-1.0, 1.0], p),
                scales=rng.uniform(0.5, 2.0, p),
                delta_applied=np.zeros(p),
            )
            k = int(rng.integers(1, 4))
            chosen = rng.choice(len(second), size=k, replace=False)
            vals = np.zeros(len(ts))
            for c in chosen:
                vals[ts.index[second[c]]] = rng.standard_normal() or 0.5
            # mains occasionally get their own standardized coefficients
            for j in range(p):
                if rng.random() < 0.3:
                    vals[j] = rng.standard_normal()
            cv = CoefficientVector(ts, 0.0, vals, HIER_STD)
            raw = back_transform_hierarchical(cv, ls, ts)
            ok, violators = check_heredity(raw)
            assert ok, f"violators {violators} with ls {ls}"

    def test_delta_shift_preserves_predictions(self):
        # Exact-zero-mean column: the shift keeps the whole pipeline consistent.
        x = np.array([[-1.0, 0.3], [0.0, 1.1], [1.0, 2.2], [0.0, 0.8]])
        assert x[:, 0].mean() == 0.0
        ts = canonical_terms(2)
        ls = fit_location_scale(x)
        assert ls.delta_applied[0] > 0
        rng = np.random.default_rng(8)
        cv = CoefficientVector(ts, 0.3, rng.standard_normal(len(ts)), HIER_STD)
        raw = back_transform_hierarchical(cv, ls, ts)
        pred_std = cv.predict(standardize_hierarchical(x, ls, ts))
        pred_raw = raw.predict(expand(x, ts))
        np.testing.assert_allclose(pred_raw, pred_std, rtol=1e-10)

    def test_collapses_to_regular_rule_without_second_order(self):
        # With all second-order standardized coefficients zero, the raw main
        # slope is just alpha/s, the same rule the regular transform applies.
        rng = np.random.default_rng(44)
        x = rng.standard_normal((50, 3)) + 0.6
        ls = fit_location_scale(x)
        vals = np.zeros(len(TS3))
        vals[:3] = rng.standard_normal(3)
        cv = CoefficientVector(TS3, 0.0, vals, HIER_STD)
        raw = back_transform_hierarchical(cv, ls, TS3)
        np.testing.assert_allclose(raw.values[:3], vals[:3] / ls.scales)
        assert np.all(raw.values[3:] == 0.0)


class TestCheckHeredity:
    def vector(self, entries):
        vals = np.zeros(len(TS3))
        for t, v in entries.items():
            vals[TS3.index[t]] = v
        return CoefficientVector(TS3, 0.0, vals, RAW)

    def test_parents_present(self):
        ok, v = check_heredity(self.vector({inter(0, 1): 1.0, main(0): 1.0, main(1): 0.5}))
        assert ok and v == []

    def test_missing_parent(self):
        ok, v = check_heredity(self.vector({inter(0, 1): 1.0, main(0): 1.0}))
        assert not ok and v == [inter(0, 1)]

    def test_lasso_table_pattern_violates(self):
        # Selected: X1X2, X1X3, X1^2 active while X1 is zero.
        ok, v = check_heredity(
            self.vector({inter(0, 1): 0.9058, inter(0, 2): 0.0804, quad(0): 0.3822,
                         main(2): 1.0233})
        )
        assert not ok
        assert inter(0, 1) in v and quad(0) in v
