import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hereditas.errors import InvalidDimensionError
from hereditas.terms import (
    TermId,
    TermSet,
    canonical_terms,
    expand,
    expand_dot,
    inter,
    main,
    quad,
)


def naive_expand(x, terms):
    """Entrywise recomputation oracle: no vectorization, no shared code path."""
    n = x.shape[0]
    out = np.empty((n, len(terms)))
    for c, t in enumerate(terms.terms):
        for i in range(n):
            if t.kind == "main":
                out[i, c] = x[i, t.indices[0]]
            elif t.kind == "quad":
                out[i, c] = x[i, t.indices[0]] ** 2
            else:
                out[i, c] = x[i, t.indices[0]] * x[i, t.indices[1]]
    return out


class TestCanonicalTerms:
    def test_p1(self):
        ts = canonical_terms(1)
        assert ts.terms == (main(0), quad(0))

    def test_p10_block_sizes(self):
        ts = canonical_terms(10)
        assert len(ts) == 65
        kinds = [t.kind for t in ts.terms]
        assert kinds[:10] == ["main"] * 10
        assert kinds[10:55] == ["inter"] * 45
        assert kinds[55:] == ["quad"] * 10

    def test_p3_exact_order(self):
        ts = canonical_terms(3)
        assert ts.terms == (
            main(0), main(1), main(2),
            inter(0, 1), inter(0, 2), inter(1, 2),
            quad(0), quad(1), quad(2),
        )

    def test_p0_rejected(self):
        with pytest.raises(InvalidDimensionError):
            canonical_terms(0)

    @given(st.integers(min_value=1, max_value=25))
    def test_count_formula(self, p):
        assert len(canonical_terms(p)) == 2 * p + p * (p - 1) // 2

    @given(st.integers(min_value=1, max_value=12))
    def test_parents_precede_children(self, p):
        ts = canonical_terms(p)
        pos = {t: i for i, t in enumerate(ts.terms)}
        for t in ts.terms:
            if t.is_second_order:
                assert all(pos[main(j)] < pos[t] for j in t.parents())


class TestParents:
    def test_main_is_own_parent(self):
        assert main(4).parents() == {4}

    def test_quad(self):
        assert quad(2).parents() == {2}

    def test_inter(self):
        assert inter(1, 3).parents() == {1, 3}


class TestTermId:
    def test_inter_normalizes_order(self):
        assert inter(3, 1) == inter(1, 3)

    def test_inter_rejects_equal(self):
        with pytest.raises(ValueError):
            inter(2, 2)

    def test_labels(self):
        assert main(2).label() == "X3"
        assert inter(0, 1).label() == "X1:X2"
        assert quad(2).label() == "X3^2"

    def test_a_term_is_its_sorted_index_tuple(self):
        assert (main(2).indices, inter(3, 1).indices, quad(2).indices) == ((2,), (1, 3), (2, 2))
        assert TermId((1, 3)) == inter(1, 3)
        assert [t.kind for t in (main(0), inter(0, 1), quad(0))] == ["main", "inter", "quad"]
        for bad in [(), (-1,), (1, 0), (0, 1, 2)]:
            with pytest.raises(ValueError):
                TermId(bad)

    def test_repr_is_the_label(self):
        assert repr(inter(0, 2)) == "TermId('X1:X3')"

    def test_powers_count_multiplicity(self):
        assert main(2).monomial.powers == ((2, 1),)
        assert inter(0, 3).monomial.powers == ((0, 1), (3, 1))
        assert quad(2).monomial.powers == ((2, 2),)


class TestTermSet:
    def test_rejects_disorder(self):
        with pytest.raises(ValueError):
            TermSet(3, (quad(0), main(0)))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TermSet(3, (main(0), main(0)))

    def test_needs_a_main(self):
        with pytest.raises(InvalidDimensionError, match="p=0"):
            TermSet(0, ())

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TermSet(2, (main(0), quad(3)))

    def test_heredity_closure_adds_parents(self):
        ts = TermSet(3, (inter(0, 2), quad(1)))
        closed = ts.heredity_closure()
        assert closed.terms == (main(0), main(1), main(2), inter(0, 2), quad(1))

    def test_heredity_closure_noop_when_complete(self):
        ts = canonical_terms(4)
        assert ts.heredity_closure() is ts


class TestExpand:
    def test_row_products(self):
        ts = canonical_terms(2)
        out = expand(np.array([[2.0, 3.0]]), ts)
        assert out.tolist() == [[2.0, 3.0, 6.0, 4.0, 9.0]]

    def test_zero_factor(self):
        ts = canonical_terms(2)
        out = expand(np.array([[0.0, 5.0]]), ts)
        assert out.tolist() == [[0.0, 5.0, 0.0, 0.0, 25.0]]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((4, 3))
        ts = canonical_terms(3)
        np.testing.assert_array_equal(expand(x, ts), naive_expand(x, ts))

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 4))
        ts = canonical_terms(4)
        a, b = expand(x, ts), expand(x, ts)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            expand(np.ones((3, 2)), canonical_terms(3))

    def test_design_must_be_2d(self):
        with pytest.raises(InvalidDimensionError, match="expected a 2-d design"):
            expand(np.ones(3), canonical_terms(1))


class TestExpandDot:
    """expand_dot against expand(x, terms) @ v: the same sums in another order."""

    def test_row_products(self):
        # 2*1 + 3*2 + 6*3 + 4*4 + 9*5, every partial sum exact.
        out = expand_dot(np.array([[2.0, 3.0]]), canonical_terms(2), [1.0, 2.0, 3.0, 4.0, 5.0])
        assert out.tolist() == [87.0]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 50), st.sampled_from(["normal", "lognormal"]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_expand(self, p, n, distribution, subset, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p))
        if distribution == "lognormal":
            x = np.exp(x)
        terms = canonical_terms(p)
        if subset:  # a subset in canonical order, as a selected model is
            keep = rng.random(len(terms)) < 0.5
            terms = TermSet(p, tuple(t for t, k in zip(terms.terms, keep) if k))
        v = np.where(rng.random(len(terms)) < 0.4, 0.0, rng.standard_normal(len(terms)))
        design = expand(x, terms)
        out = expand_dot(x, terms, v)
        assert out.shape == (n,)
        assert np.all(np.abs(out - design @ v) <= 1e-12 * (np.abs(design) @ np.abs(v)))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            expand_dot(np.ones((3, 2)), canonical_terms(3), np.zeros(9))
        with pytest.raises(InvalidDimensionError, match="expected 9 coefficients"):
            expand_dot(np.ones((3, 3)), canonical_terms(3), np.zeros(8))
