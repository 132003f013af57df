"""Evaluation quantities for selected models against a known truth.

MSH (maintenance of strong heredity) is the fraction of parent main
effects required by the *selected* second-order terms that are themselves
selected; sensitivity/specificity count correctly classified important/
unimportant terms.  Metrics with an empty denominator are reported as
absent (None), never as zero.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidConfigError, InvalidDimensionError, UnsupportedDistributionError
from .terms import INTER, MAIN, QUAD, TermId, TermSet, heredity_parents

STANDARD_NORMAL = "standard-normal"
LOGNORMAL01 = "lognormal-0-1"

# Distribution name -> (sampler of an array of i.i.d. mains, given a Generator
# and the array's shape; raw moments E[X^k], k = 0..4, of one main).
_MAIN_DISTRIBUTIONS = {
    STANDARD_NORMAL: (lambda rng, shape: rng.standard_normal(shape), (1.0, 0.0, 1.0, 0.0, 3.0)),
    LOGNORMAL01: (lambda rng, shape: rng.lognormal(0.0, 1.0, size=shape),
                  tuple(math.exp(k * k / 2) for k in range(5))),
}


def _distribution(name: str):
    """The (sampler, moments) of a supported distribution of the mains."""
    try:
        return _MAIN_DISTRIBUTIONS[name]
    except KeyError:
        raise UnsupportedDistributionError(f"unknown distribution {name!r}") from None


TERM_CLASSES = (MAIN, INTER, QUAD)


@dataclass(frozen=True)
class TruthSpec:
    """The generative truth: ambient terms, active coefficients, noise SD.  Built
    from them once: the ``active`` terms, and each term class's (active,
    inactive) terms in ``classes``."""

    terms: TermSet
    active_coefs: Mapping[TermId, float]
    sigma: float
    active: frozenset[TermId] = field(init=False, repr=False, compare=False)
    classes: dict[str, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "active_coefs", dict(self.active_coefs))
        if self.sigma <= 0:
            raise InvalidConfigError(f"sigma must be positive, got {self.sigma}")
        for t, v in self.active_coefs.items():
            if t not in self.terms:
                raise InvalidConfigError(f"active term {t.label()} outside the ambient set")
            if v == 0.0:
                raise InvalidConfigError(f"active term {t.label()} has a zero coefficient")
        object.__setattr__(self, "active", frozenset(self.active_coefs))
        classes = {kind: ([], []) for kind in TERM_CLASSES}
        for t in self.terms:
            classes[t.kind][t not in self.active].append(t)
        object.__setattr__(self, "classes", {kind: (frozenset(a), frozenset(i))
                                             for kind, (a, i) in classes.items()})

    def coefficient_array(self) -> np.ndarray:
        out = np.zeros(len(self.terms))
        for t, v in self.active_coefs.items():
            out[self.terms.index[t]] = v
        return out


def msh_counts(selected: Iterable[TermId]) -> tuple[int, int]:
    """(parents selected, parents required) for the selected second-order terms.

    The denominator is what the *selected* model demands, not what the truth
    does; the raw counts are exposed so other ratios can be recomputed.
    """
    required, mains = heredity_parents(selected)
    return len(required & mains), len(required)


def msh(selected: Iterable[TermId]) -> float:
    """Fraction of parents required by selected second-order terms that are selected.

    1.0 when no second-order term is selected: an empty constraint is satisfied.
    """
    present, required = msh_counts(selected)
    if required == 0:
        return 1.0
    return present / required


def _ratio(num: int, den: int) -> float | None:
    return None if den == 0 else num / den


def _rates(selected: Iterable[TermId], truth: TruthSpec) -> dict[str | None, tuple]:
    """(sensitivity, specificity) per term class, and over every class under
    the key None, from four counts per class: selected active, active,
    unselected inactive and inactive terms."""
    selected = frozenset(selected)
    counts = {kind: (len(selected & active), len(active),
                     len(inactive) - len(selected & inactive), len(inactive))
              for kind, (active, inactive) in truth.classes.items()}
    counts[None] = tuple(map(sum, zip(*counts.values())))
    return {key: (_ratio(hit, n_active), _ratio(rejected, n_inactive))
            for key, (hit, n_active, rejected, n_inactive) in counts.items()}


def sensitivity(selected: Iterable[TermId], truth: TruthSpec) -> float | None:
    return _rates(selected, truth)[None][0]


def specificity(selected: Iterable[TermId], truth: TruthSpec) -> float | None:
    return _rates(selected, truth)[None][1]


def mse(predictions, y) -> float:
    predictions = np.asarray(predictions, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if predictions.shape != y.shape or y.size == 0:
        raise InvalidDimensionError(
            f"length mismatch: {predictions.shape} predictions vs {y.shape} responses"
        )
    resid = predictions - y
    return float(resid @ resid) / y.size


@dataclass(frozen=True)
class SnrEstimate:
    value: float
    se: float | None  # always None: the value is exact
    method: str  # always "analytic"


def draw_mains(rng, n: int, p: int, distribution: str) -> np.ndarray:
    return _distribution(distribution)[0](rng, (n, p))


def signal_moments(truth: TruthSpec, distribution: str = STANDARD_NORMAL) -> tuple[float, float]:
    """Mean and variance of the signal for i.i.d. main effects, exact.

    Every term is a product of at most two independent mains, so
    Var(signal) = sum_t sum_u v_t v_u (E[tu] - E[t]E[u]) needs only the raw
    moments E[X^k], k <= 4, of one main.
    """
    moments = _distribution(distribution)[1]

    def mean(powers: Counter) -> float:
        return math.prod(moments[k] for k in powers.values())

    terms = [(Counter(t.indices), v) for t, v in truth.active_coefs.items()]
    var = 0.0
    for pt, vt in terms:
        for pu, vu in terms:
            var += vt * vu * (mean(pt + pu) - mean(pt) * mean(pu))
    return sum(vt * mean(pt) for pt, vt in terms), var


def snr(truth: TruthSpec, distribution: str = STANDARD_NORMAL) -> SnrEstimate:
    """Signal-to-noise ratio Var(signal)/sigma^2, exact (``signal_moments``)."""
    return SnrEstimate(signal_moments(truth, distribution)[1] / truth.sigma**2, None, "analytic")


@dataclass(frozen=True)
class AggregateStat:
    """Mean, median, and standard error (SD/sqrt(R)) over replicates."""

    mean: float
    median: float
    se: float
    n: int


def median_quartiles(x: np.ndarray) -> tuple[float, float, float]:
    """np.median(x) and np.quantile(x, [0.25, 0.75]) (type-7 linear
    interpolation) of a nonempty 1-d array, from one sorted copy: numpy's
    first median or quantile imports numpy.ma.  Bit for bit, except that a
    zero quartile may carry the other sign when x holds both zeros (numpy's
    partition order decides it); their difference does not.  A NaN in x
    makes all three NaN."""
    s, n, h = np.sort(x), x.size, x.size // 2
    if np.isnan(s[-1]):
        return (float(s[-1]),) * 3
    # np.median is the mean of the middle one or two values, a sum from +0.0.
    median = 0.0 + s[h] if n % 2 else (0.0 + s[h - 1] + s[h]) / 2

    def quantile(q):  # numpy's lerp runs from the nearer end; one value is itself
        v = (n - 1) * q
        i = int(v)
        if i + 1 == n:
            return float(s[i])
        t, a, b = v - i, s[i], s[i + 1]
        return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)

    return float(median), quantile(0.25), quantile(0.75)


def aggregate(values: Iterable[float | None]) -> AggregateStat | None:
    """Aggregate per-replicate values, skipping absent entries."""
    xs = np.asarray([v for v in values if v is not None], dtype=np.float64)
    if xs.size == 0:
        return None
    se = float(xs.std(ddof=1) / math.sqrt(xs.size)) if xs.size > 1 else 0.0
    return AggregateStat(float(xs.mean()), median_quartiles(xs)[0], se, int(xs.size))


@dataclass(frozen=True)
class ReplicateMetrics:
    """One replicate's scores for one method-by-scheme cell."""

    msh: float
    sensitivity: float | None
    specificity: float | None
    sensitivity_by_class: dict[str, float | None]
    specificity_by_class: dict[str, float | None]
    mse: float
    n_selected: int


def score_selection(selected: frozenset[TermId], truth: TruthSpec,
                    test_mse: float) -> ReplicateMetrics:
    rates = _rates(selected, truth)
    sens, spec = rates.pop(None)
    return ReplicateMetrics(
        msh=msh(selected),
        sensitivity=sens,
        specificity=spec,
        sensitivity_by_class={kind: r[0] for kind, r in rates.items()},
        specificity_by_class={kind: r[1] for kind, r in rates.items()},
        mse=test_mse,
        n_selected=len(selected),
    )
