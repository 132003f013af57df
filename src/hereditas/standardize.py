"""Regular and hierarchical standardization with their coefficient back-transforms.

Hierarchical standardization scales only the main effects and *generates*
second-order columns as products of the scaled mains.  Back-transforming
the fitted coefficients to the raw scale then mixes every second-order
coefficient into its parent main-effect coefficients, which forces the
selected model to satisfy strong heredity whenever the effective centers
are nonzero.  Regular standardization centers and scales every expanded
column independently, so its back-transform leaves selections uncoupled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, InconsistentParamsError, InvalidDimensionError
from .metrics import median_quartiles
from .terms import TermId, TermSet, _main_values, expand, heredity_parents, main

MEAN_SD = "mean-sd"
MEDIAN_IQR = "median-iqr"
ESTIMATORS = (MEAN_SD, MEDIAN_IQR)

RAW = "raw"
REGULAR_STD = "regular-std"
HIER_STD = "hier-std"
SCALE_TAGS = (RAW, REGULAR_STD, HIER_STD)

# |sample center| below this triggers the small-shift guard so the
# back-transform can force parent mains to nonzero coefficients.
ZERO_CENTER_TOL = 1e-12

# Default shift, as a fraction of the column scale (keeps it dimensionless).
DEFAULT_DELTA = 1e-3

# Largest center or scale whose square, and so every raw-scale product of
# two mains' centers and scales in the back-transform, is finite.
SQRT_MAX = math.sqrt(np.finfo(float).max)

# Below this sample SD the squared deviations come within 1/eps of the
# smallest normal float, so underflow may have cost them digits or zeroed them.
SD_FLOOR = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)


def _freeze_params(params, names, consistent, mismatch: str, estimator: str = MEAN_SD) -> None:
    """Store the named fields of a frozen params dataclass as read-only float arrays, then
    check, in order: ``consistent(*arrays)`` (else ``mismatch``), the estimator, the scales."""
    for name in names:
        v = np.atleast_1d(np.array(getattr(params, name), dtype=np.float64))
        v.flags.writeable = False
        object.__setattr__(params, name, v)
    if not consistent(*(getattr(params, name) for name in names)):
        raise InconsistentParamsError(mismatch)
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    if np.any(params.scales <= 0) or not np.all(np.isfinite(params.scales)):
        raise ValueError("scales must be strictly positive and finite")


@dataclass(frozen=True)
class LocationScale:
    """Per-main-effect location/scale estimates plus any recorded shifts.

    ``centers`` holds the raw sample estimates.  When a center falls within
    ZERO_CENTER_TOL of zero, ``delta_applied`` records the shift and the
    *effective* center used by the transform and the back-transform becomes
    ``center - delta`` (equivalently: the column is treated as shifted by
    +delta before standardizing, with the center estimate left as fitted).
    Because the transform and the back-transform share the effective center,
    back-transformed models always live on the original, unshifted variables.
    """

    estimator: str
    centers: np.ndarray
    scales: np.ndarray
    delta_applied: np.ndarray

    def __post_init__(self):
        _freeze_params(self, ("centers", "scales", "delta_applied"),
                       lambda c, s, d: c.shape == s.shape == d.shape,
                       "centers/scales/delta_applied length mismatch", self.estimator)

    @property
    def p(self) -> int:
        return self.centers.shape[0]

    @property
    def effective_centers(self) -> np.ndarray:
        return self.centers - self.delta_applied


@dataclass(frozen=True)
class RegularParams:
    """Per-column centers/scales for every expanded column (mains included)."""

    terms: TermSet
    centers: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        _freeze_params(self, ("centers", "scales"),
                       lambda c, s: len(c) == len(s) == len(self.terms),
                       "params length does not match the term set")

    def apply(self, raw) -> np.ndarray:
        """Expand a raw design and standardize it with these (train-fitted) params."""
        return (expand(raw, self.terms) - self.centers) / self.scales

    def to_json_dict(self) -> dict:
        return {
            "estimator": MEAN_SD,
            "labels": self.terms.labels(),
            "centers": self.centers.tolist(),
            "scales": self.scales.tolist(),
            "delta_applied": [0.0] * len(self.terms),
        }


@dataclass(frozen=True)
class CoefficientVector:
    """Intercept plus one coefficient per term, tagged with the scale it lives on."""

    terms: TermSet
    intercept: float
    values: np.ndarray
    scale_tag: str

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, copy=True)
        if v.shape != (len(self.terms),):
            raise InvalidDimensionError(
                f"expected {len(self.terms)} coefficients, got shape {v.shape}"
            )
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if self.scale_tag not in SCALE_TAGS:
            raise ValueError(f"unknown scale tag {self.scale_tag!r}")

    def value(self, t: TermId) -> float:
        return float(self.values[self.terms.index[t]])

    def nonzero_terms(self) -> tuple[TermId, ...]:
        """Terms with exactly nonzero coefficients (no epsilon: the lasso
        produces exact zeros and stepwise produces structural zeros)."""
        return tuple(t for t, v in zip(self.terms.terms, self.values) if v != 0.0)

    def selected(self) -> frozenset[TermId]:
        return frozenset(self.nonzero_terms())

    def predict(self, design: np.ndarray) -> np.ndarray:
        """Evaluate on a design matrix already on this vector's scale."""
        design = np.asarray(design, dtype=np.float64)
        if design.shape[1] != len(self.terms):
            raise InvalidDimensionError(
                f"design has {design.shape[1]} columns, expected {len(self.terms)}"
            )
        return self.intercept + design @ self.values


def _zero_spread(x: np.ndarray) -> np.ndarray:
    """Which columns of x hold equal values, and so have zero spread, though their mean may
    round off them (150 copies of 0.1, a balanced 0/1 main's standardized square)."""
    return np.ptp(x, axis=0) == 0.0


def _sample_sd(x: np.ndarray) -> np.ndarray:
    """np.std(x, axis=0, ddof=1), taken again on x / max|x| wherever squaring
    the deviations overflowed or underflowed: spreads of 1e300 and of 1e-300
    are representable.  A column of ``_zero_spread`` has spread 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        sd = np.std(x, axis=0, ddof=1)
        redo = ~np.isfinite(sd) | (sd < SD_FLOOR)
        if np.any(redo):
            peak = np.max(np.abs(x), axis=0)
            redo &= peak > 0.0
            rescaled = peak * np.std(x / np.where(redo, peak, 1.0), axis=0, ddof=1)
            sd = np.where(redo, rescaled, sd)
        return np.where(_zero_spread(x), 0.0, sd)


def _column_location_scale(col: np.ndarray, estimator: str) -> tuple[float, float]:
    if estimator == MEAN_SD:
        center = float(np.mean(col))
        scale = float(_sample_sd(col)) if col.size > 1 else 0.0
    else:
        center, q1, q3 = median_quartiles(col)
        scale = q3 - q1
    return center, scale


def fit_location_scale(raw, estimator: str = MEAN_SD) -> LocationScale:
    """Estimate per-main-effect centers and scales on the training mains.

    A column whose center is numerically zero records a shift of
    DEFAULT_DELTA times its scale.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    x = _main_values(raw)
    p = x.shape[1]
    centers = np.empty(p)
    scales = np.empty(p)
    shifts = np.zeros(p)
    for j in range(p):
        center, scale = _column_location_scale(x[:, j], estimator)
        if scale <= 0.0 or not np.isfinite(scale):
            raise DegenerateColumnError(main(j).label())
        if max(abs(center), scale) > SQRT_MAX:
            raise InvalidDimensionError(f"column {main(j).label()} too large: its square overflows")
        centers[j] = center
        scales[j] = scale
        if abs(center) < ZERO_CENTER_TOL:
            shifts[j] = DEFAULT_DELTA * scale
    return LocationScale(estimator, centers, scales, shifts)


def standardize_mains(raw, ls: LocationScale) -> np.ndarray:
    """(X_j - c_j)/s_j per column, using the effective (possibly shifted) centers."""
    x = _main_values(raw)
    if x.shape[1] != ls.p:
        raise InconsistentParamsError(
            f"design has {x.shape[1]} mains but the location-scale covers {ls.p}"
        )
    return (x - ls.effective_centers) / ls.scales


def standardize_hierarchical(raw, ls: LocationScale, terms: TermSet) -> np.ndarray:
    """Scale the mains, then generate second-order columns from the scaled mains.

    Quadratic and interaction columns are exact products of the standardized
    main columns; they are not re-centered.
    """
    if terms.p != ls.p:
        raise InconsistentParamsError(
            f"term set expects p={terms.p} but the location-scale covers {ls.p}"
        )
    return expand(standardize_mains(raw, ls), terms)


def standardize_regular(raw, terms: TermSet) -> tuple[np.ndarray, RegularParams]:
    """Expand first, then center/scale every column independently to mean 0, SD 1."""
    e = expand(raw, terms)
    centers = e.mean(axis=0)
    scales = _sample_sd(e) if e.shape[0] > 1 else np.zeros(len(terms))
    bad = np.flatnonzero((scales <= 0.0) | ~np.isfinite(scales))
    if bad.size:
        raise DegenerateColumnError(terms.terms[bad[0]].label())
    params = RegularParams(terms, centers, scales)
    return (e - centers) / scales, params


def back_transform_hierarchical(
    std_coefs: CoefficientVector, ls: LocationScale, terms: TermSet | None = None
) -> CoefficientVector:
    """Map coefficients fitted on hierarchically standardized columns to the raw scale.

    A term T with coefficient v is the product of (X_j - c_j)/s_j over its
    mains; expanded, it puts v * prod_{T - U}(-c_j) / prod_T s_j on every
    sub-monomial U of T, counted with multiplicity (U = () is the intercept),
    so predictions are preserved exactly; powers use ``**``, which fixes their
    rounding.  The output term set is the heredity closure of the input
    (parent mains gain slots when absent).
    """
    if std_coefs.scale_tag != HIER_STD:
        raise InconsistentParamsError(
            f"expected coefficients tagged {HIER_STD!r}, got {std_coefs.scale_tag!r}"
        )
    in_terms = std_coefs.terms if terms is None else terms
    if terms is not None and terms is not std_coefs.terms and terms != std_coefs.terms:
        raise InconsistentParamsError("coefficient vector does not match the given term set")
    if ls.p < in_terms.p:
        raise InconsistentParamsError(
            f"location-scale covers {ls.p} mains but terms reference up to {in_terms.p}"
        )
    c = ls.effective_centers
    s = ls.scales

    out_terms = in_terms.heredity_closure()
    # One slot per raw-scale term, and a last one for the empty monomial: the intercept.
    slot = {t.indices: k for k, t in enumerate(out_terms.terms)} | {(): len(out_terms)}
    out = [0.0] * len(out_terms) + [std_coefs.intercept]
    with np.errstate(all="ignore"):
        for t, v in zip(in_terms.terms, std_coefs.values):
            # Binomially, over T's powers: (U, v * prod (-c_j)^(n - k), prod C(n, k)).
            pieces = [((), v, 1)]
            for j, n in t.monomial.powers:
                pieces = [(u + (j,) * k, a * (-c[j]) ** (n - k), count * math.comb(n, k))
                          for u, a, count in pieces for k in range(n + 1)]
            scale = math.prod(s[j] ** n for j, n in t.monomial.powers)
            for u, a, count in pieces:
                out[slot[u]] += count * a / scale
    return _raw_coefficients(out_terms, float(out[-1]), np.array(out[:-1]))


def back_transform_regular(
    std_coefs: CoefficientVector, params: RegularParams, terms: TermSet | None = None
) -> CoefficientVector:
    """Undo per-column standardization: divide each slope by its column scale.

    The intercept is recovered so predictions are preserved.
    """
    if std_coefs.scale_tag != REGULAR_STD:
        raise InconsistentParamsError(
            f"expected coefficients tagged {REGULAR_STD!r}, got {std_coefs.scale_tag!r}"
        )
    in_terms = std_coefs.terms if terms is None else terms
    if params.terms != in_terms:
        raise InconsistentParamsError("params do not cover the coefficient vector's terms")
    with np.errstate(all="ignore"):
        slopes = std_coefs.values / params.scales
        intercept = std_coefs.intercept - float(
            np.dot(std_coefs.values, params.centers / params.scales))
    return _raw_coefficients(in_terms, intercept, slopes)


def _raw_coefficients(terms: TermSet, intercept: float, values: np.ndarray) -> CoefficientVector:
    """The raw-scale vector of a back-transform.  Raises InvalidDimensionError
    naming the first term, else the intercept, whose coefficient overflowed:
    tiny scales make huge raw-scale coefficients."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size or not math.isfinite(intercept):
        name = terms.terms[bad[0]].label() if bad.size else "the intercept"
        raise InvalidDimensionError(f"raw-scale coefficient of {name} overflows")
    return CoefficientVector(terms, intercept, values, RAW)


def check_heredity(coefs: CoefficientVector) -> tuple[bool, list[TermId]]:
    """True iff every nonzero second-order term has all parent mains nonzero.

    Returns the verdict and the list of violating second-order terms.
    Expects raw-scale coefficients: that is the scale on which the paper-style
    selection is read off.
    """
    nonzero = coefs.nonzero_terms()
    _, mains = heredity_parents(nonzero)
    violators = [t for t in nonzero if not t.parents() <= mains]
    return (not violators), violators
