import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hereditas.errors import InvalidConfigError, InvalidDimensionError, UnsupportedDistributionError
from hereditas.metrics import (
    LOGNORMAL01,
    TruthSpec,
    aggregate,
    median_quartiles,
    mse,
    msh,
    msh_counts,
    score_selection,
    sensitivity,
    snr,
    specificity,
)
from hereditas.simulate import PRESETS, build_truth, preset
from hereditas.terms import canonical_terms, expand, inter, main, quad

TS10 = canonical_terms(10)


def truth_setting1():
    return build_truth(preset("setting1"))


class TestMsh:
    def test_one_of_two_parents(self):
        assert msh({inter(0, 1), main(0)}) == pytest.approx(0.5)
        assert msh_counts({inter(0, 1), main(0)}) == (1, 2)

    def test_all_parents_present(self):
        sel = {main(0), main(1), main(2), inter(0, 1), inter(0, 2), quad(0)}
        assert msh(sel) == 1.0

    def test_vacuous_is_one(self):
        assert msh({main(2)}) == 1.0
        assert msh(set()) == 1.0

    def test_worked_example_selection_scores_one(self):
        # The back-transformed selection: every parent of every selected
        # second-order term is itself selected.
        sel = {main(j) for j in range(10) if j != 7}
        sel |= {inter(0, 1), inter(0, 2), inter(1, 2), inter(1, 9), inter(2, 3),
                inter(2, 5), inter(2, 6), inter(2, 8), inter(3, 4), quad(0), quad(4)}
        assert msh(sel) == 1.0


class TestSensitivitySpecificity:
    def test_two_of_three(self):
        truth = TruthSpec(canonical_terms(2),
                          {main(0): 1.0, main(1): 1.0, inter(0, 1): 1.0}, 1.0)
        sel = {main(0), inter(0, 1)}
        assert sensitivity(sel, truth) == pytest.approx(2 / 3)

    def test_perfect_recovery(self):
        truth = truth_setting1()
        assert sensitivity(truth.active, truth) == 1.0
        assert specificity(truth.active, truth) == 1.0

    def test_select_everything(self):
        truth = truth_setting1()
        everything = frozenset(TS10.terms)
        assert len(truth.active) == 9
        assert sensitivity(everything, truth) == 1.0
        assert specificity(everything, truth) == 0.0

    def test_by_class_decomposition(self):
        rng = np.random.default_rng(0)
        truth = truth_setting1()
        sel = frozenset(t for t in TS10.terms if rng.random() < 0.4)
        scores = score_selection(sel, truth, 0.0)
        sens_c, spec_c = scores.sensitivity_by_class, scores.specificity_by_class
        num_sens = sum(len({t for t in sel if t.kind == k} & truth.active)
                       for k in ("main", "inter", "quad"))
        assert num_sens == len(sel & truth.active)
        # per-class denominators add up to the overall ones
        assert sum(
            round(sens_c[k] * len({t for t in truth.active if t.kind == k}))
            for k in sens_c
        ) == len(sel & truth.active)
        inactive = frozenset(TS10.terms) - truth.active
        assert sum(
            round(spec_c[k] * len({t for t in inactive if t.kind == k}))
            for k in spec_c
        ) == len(inactive - sel)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(1)
        perm = rng.permutation(10)

        def relabel(t):
            if t.kind == "main":
                return main(int(perm[t.indices[0]]))
            if t.kind == "quad":
                return quad(int(perm[t.indices[0]]))
            return inter(int(perm[t.indices[0]]), int(perm[t.indices[1]]))

        truth = truth_setting1()
        sel = frozenset(t for t in TS10.terms if rng.random() < 0.3)
        truth2 = TruthSpec(TS10, {relabel(t): v for t, v in truth.active_coefs.items()},
                           truth.sigma)
        sel2 = frozenset(relabel(t) for t in sel)
        assert sensitivity(sel, truth) == sensitivity(sel2, truth2)
        assert specificity(sel, truth) == specificity(sel2, truth2)

    def test_empty_denominators_absent(self):
        truth = TruthSpec(canonical_terms(2), {main(0): 1.0, main(1): 2.0}, 1.0)
        scores = score_selection(frozenset({main(0)}), truth, 0.0)
        sens_c = scores.sensitivity_by_class
        assert sens_c["inter"] is None and sens_c["quad"] is None
        # all mains active -> main-specificity undefined
        spec_c = scores.specificity_by_class
        assert spec_c["main"] is None


class TestMse:
    def test_exact_predictions(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_residuals(self):
        assert mse([1.0, -1.0], [0.0, 0.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            mse([1.0], [1.0, 2.0])


class TestSnr:
    def test_setting_values(self):
        assert snr(truth_setting1()).value == pytest.approx(12 / 64)
        assert snr(build_truth(preset("setting7"))).value == pytest.approx(25 / 64)
        assert snr(build_truth(preset("setting2"))).value == pytest.approx(39 / 256)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_matches_gauss_hermite_quadrature(self, name):
        # The signal is a degree-4 polynomial in the mains the truth uses:
        # 3 Hermite nodes per standard-normal main integrate it exactly, and
        # 30 nodes on Z integrate X = e^Z to rounding for lognormal mains.
        cfg = preset(name)
        truth = build_truth(cfg)
        used = sorted({j for t in truth.active for j in t.parents()})
        lognormal = cfg.x_distribution == LOGNORMAL01
        z, w = np.polynomial.hermite_e.hermegauss(30 if lognormal else 3)
        w = w / np.sqrt(2 * np.pi)
        grid = np.meshgrid(*[z] * len(used), indexing="ij")
        weight = np.prod(np.meshgrid(*[w] * len(used), indexing="ij"), axis=0).ravel()
        x = np.zeros((weight.size, truth.terms.p))
        x[:, used] = np.column_stack([g.ravel() for g in grid])
        if lognormal:
            x[:, used] = np.exp(x[:, used])
        signal = expand(x, truth.terms) @ truth.coefficient_array()
        mean = weight @ signal
        var = weight @ (signal - mean) ** 2
        assert snr(truth, cfg.x_distribution).value == pytest.approx(
            var / truth.sigma**2, rel=1e-12, abs=0.0)

    def test_unsupported_distribution(self):
        with pytest.raises(UnsupportedDistributionError):
            snr(truth_setting1(), "cauchy")


class TestAggregate:
    def test_two_point_hand_arithmetic(self):
        agg = aggregate([0.2, 0.6])
        assert agg.mean == pytest.approx(0.4)
        assert agg.median == pytest.approx(0.4)
        sd = np.std([0.2, 0.6], ddof=1)
        assert agg.se == pytest.approx(sd / np.sqrt(2))
        assert agg.n == 2

    def test_skips_absent(self):
        agg = aggregate([0.5, None, 1.0, None])
        assert agg.n == 2
        assert agg.mean == pytest.approx(0.75)

    def test_all_absent(self):
        assert aggregate([None, None]) is None

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 10, 31, 50, 199, 200, 201, 269])
    def test_median_is_numpys_bit_for_bit(self, size):
        # The quartiles too: standardize's median-IQR estimator reads them.
        rng = np.random.default_rng(size)
        for _ in range(20):
            x = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3)
            agg = aggregate([None, *x.tolist(), None])
            assert np.float64(agg.median).tobytes() == np.median(x).tobytes()
            assert agg.mean == float(x.mean()) and agg.n == size
            _, q1, q3 = median_quartiles(x)
            assert np.array([q1, q3]).tobytes() == np.quantile(x, [0.25, 0.75]).tobytes()

    @pytest.mark.parametrize("values", [[np.nan], [1.0, np.nan], [3.0, np.nan, 1.0]])
    def test_a_nan_gives_a_nan_median(self, values):
        assert np.isnan(aggregate(values).median)


class TestTruthSpec:
    def test_rejects_zero_coefficient(self):
        with pytest.raises(InvalidConfigError):
            TruthSpec(canonical_terms(2), {main(0): 0.0}, 1.0)

    def test_rejects_foreign_term(self):
        with pytest.raises(InvalidConfigError):
            TruthSpec(canonical_terms(2), {main(5): 1.0}, 1.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(InvalidConfigError):
            TruthSpec(canonical_terms(2), {main(0): 1.0}, 0.0)


@st.composite
def truths_and_selections(draw):
    """(truth, selection) over the full term set of 1 to 6 mains: any support,
    so a term class may hold no active or no inactive term, and any selection."""
    terms = canonical_terms(draw(st.integers(1, 6)))
    pick = st.frozensets(st.sampled_from(terms.terms))
    return TruthSpec(terms, {t: 1.0 for t in draw(pick)}, 1.0), draw(pick)


def _oracle_rates(selected, truth, kinds):
    """(sensitivity, specificity) by brute force over the truth's terms of the given kinds."""
    pool = [t for t in truth.terms.terms if t.kind in kinds]
    active = [t for t in pool if t in truth.active_coefs]
    inactive = [t for t in pool if t not in truth.active_coefs]
    return (sum(t in selected for t in active) / len(active) if active else None,
            sum(t not in selected for t in inactive) / len(inactive) if inactive else None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=truths_and_selections())
def test_scores_match_a_set_oracle(case):
    truth, selected = case
    scores = score_selection(selected, truth, 2.5)
    required = {j for t in selected if len(t.indices) == 2 for j in t.indices}
    present = required & {t.indices[0] for t in selected if len(t.indices) == 1}
    assert scores.msh == (len(present) / len(required) if required else 1.0)
    overall = _oracle_rates(selected, truth, ("main", "inter", "quad"))
    assert (scores.sensitivity, scores.specificity) == overall
    assert (sensitivity(selected, truth), specificity(selected, truth)) == overall
    for kind in ("main", "inter", "quad"):
        assert (scores.sensitivity_by_class[kind],
                scores.specificity_by_class[kind]) == _oracle_rates(selected, truth, (kind,))
    assert list(scores.sensitivity_by_class) == list(scores.specificity_by_class) == [
        "main", "inter", "quad"]
    assert scores.mse == 2.5 and scores.n_selected == len(selected)
