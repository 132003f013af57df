"""The origin and units of the mains: what each scheme's fit depends on.

Hierarchical standardization maps each main to (x_j - c_j)/s_j, and both
estimators' centers and scales follow a shift x_j + a_j and a positive
scale b_j x_j.  So the standardized design, and with it the selection, is the
same up to rounding, and the back-transform re-expresses one model on the
new mains: raw-scale predictions agree (Peixoto's well-formulated models).
Regular standardization centers every expanded column on its own, so its
selection depends on where each main's zero lies; only its invariance to
units is a property, and that is all these tests assert of it.

The exception is the zero-center guard: a center within ZERO_CENTER_TOL of
zero is moved by DEFAULT_DELTA times its scale, so a shift into that band
changes the standardized main by about 1e-3.  The property test keeps every
center outside the band; the band has its own test.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hereditas.simulate import HIERARCHICAL, REGULAR, SELECTORS, fit_pipeline
from hereditas.standardize import ESTIMATORS, MEAN_SD, fit_location_scale, standardize_hierarchical
from hereditas.terms import canonical_terms, expand, expand_dot

TRAIN, VALID, TEST = slice(0, 80), slice(80, 120), slice(120, 320)


def _problem(seed: int, p: int, lognormal: bool):
    """320 rows of p mains and a response from a random second-order truth."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((TEST.stop, p))
    if lognormal:
        x = np.exp(x)
    terms = canonical_terms(p)
    beta = np.where(rng.random(len(terms)) < 0.5, 0.0, rng.standard_normal(len(terms)))
    return x, expand(x, terms) @ beta + rng.standard_normal(TEST.stop), terms


def _fit(x, y, terms, method, scheme, estimator):
    """The pipeline's fit and its raw-scale predictions on the test rows."""
    fitted = fit_pipeline((x[TRAIN], y[TRAIN]), (x[VALID], y[VALID]), terms, method, scheme,
                          estimator)
    raw = fitted.raw_coefs
    return fitted, raw.intercept + expand_dot(x[TEST], raw.terms, raw.values)


def _assert_same_fit(before, after):
    (fit0, pred0), (fit1, pred1) = before, after
    assert fit1.fit.coefs.selected() == fit0.fit.coefs.selected()
    assert np.max(np.abs(pred1 - pred0)) <= 1e-10 * np.max(np.abs(pred0))


def _draws(p):
    return st.lists(st.floats(-5.0, 5.0), min_size=p, max_size=p).map(np.array)


@st.composite
def transformed_problems(draw):
    """A problem, and a shift and positive scale per main, in units of the main."""
    p = draw(st.integers(2, 4))
    x, y, terms = _problem(draw(st.integers(0, 2**32 - 1)), p, draw(st.booleans()))
    shift, log_scale = draw(_draws(p)), draw(_draws(p)) * 0.6
    return x, y, terms, shift, np.exp(log_scale)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(problem=transformed_problems())
def test_hierarchical_fit_ignores_origin_and_units_and_regular_ignores_units(problem):
    x, y, terms, shift, scale = problem
    moved, rescaled = (x + shift) * scale, x * scale
    for estimator in ESTIMATORS:
        for xs in (x, moved):
            assume(not fit_location_scale(xs[TRAIN], estimator).delta_applied.any())
    for method in SELECTORS:
        for estimator in ESTIMATORS:
            _assert_same_fit(_fit(x, y, terms, method, HIERARCHICAL, estimator),
                             _fit(moved, y, terms, method, HIERARCHICAL, estimator))
        _assert_same_fit(_fit(x, y, terms, method, REGULAR, MEAN_SD),
                         _fit(rescaled, y, terms, method, REGULAR, MEAN_SD))


def test_a_center_shifted_into_the_zero_band_keeps_predictions_equivalent():
    # The shift puts main 1's center in the band, so the guard moves it and
    # the support may change; the back-transform still preserves predictions.
    x, y, terms = _problem(3, 3, False)
    for estimator in ESTIMATORS:
        moved = x.copy()
        moved[:, 0] -= fit_location_scale(x[TRAIN], estimator).centers[0]
        for method in SELECTORS:
            fitted, pred = _fit(moved, y, terms, method, HIERARCHICAL, estimator)
            assert fitted.params.delta_applied[0] != 0.0
            z_test = standardize_hierarchical(moved[TEST], fitted.params, terms)
            std_pred = fitted.fit.coefs.predict(z_test)
            assert np.max(np.abs(pred - std_pred)) <= 1e-10 * np.max(np.abs(std_pred))
