"""Symbolic second-order model terms and design-matrix expansion.

A term is a monomial in the main effects: the sorted tuple of the main
indices it multiplies, with multiplicity.  (j,) is the main effect X_j,
(j, k) with j < k the interaction X_j*X_k, and (j, j) the quadratic X_j^2.
Indices are zero-based internally; labels ("X3", "X1:X2", "X3^2") are
one-based.

Canonical column order is: all mains, then all interactions in
lexicographic (j, k) order, then all quadratics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidDimensionError

MAIN = "main"
INTER = "inter"
QUAD = "quad"

MAX_DEGREE = 2  # the highest degree of a term: the model is second order


class Monomial(NamedTuple):
    """What a term reads off its indices T, checked and built once per tuple."""

    kind: str
    sort_key: tuple  # degree, then distinct indices before repeated ones, then T
    label: str
    powers: tuple[tuple[int, int], ...]  # (main index, exponent) pairs in index order


@lru_cache(maxsize=None)  # one entry per distinct index tuple
def _monomial(ix: tuple[int, ...]) -> Monomial:
    if not (1 <= len(ix) <= MAX_DEGREE and ix[0] >= 0 and list(ix) == sorted(ix)):
        raise ValueError(f"a term needs 1 to {MAX_DEGREE} sorted nonnegative indices, got {ix}")
    powers = tuple(Counter(ix).items())
    repeats = len(ix) - len(powers)
    label = ":".join(f"X{j + 1}" + (f"^{n}" if n > 1 else "") for j, n in powers)
    return Monomial(MAIN if len(ix) == 1 else QUAD if repeats else INTER,
                    (len(ix), repeats, ix), label, powers)


@dataclass(frozen=True)
class TermId:
    """Identity of one model term: the sorted main indices it multiplies.  ``kind``
    (MAIN, INTER or QUAD) is read off them, and stored for the class rates."""

    indices: tuple[int, ...]
    kind: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", _monomial(self.indices).kind)  # checks the indices

    @property
    def is_second_order(self) -> bool:
        return len(self.indices) > 1

    @property
    def monomial(self) -> Monomial:
        return _monomial(self.indices)

    def parents(self) -> frozenset[int]:
        """Main-effect indices this term is built from (a main is its own parent)."""
        return frozenset(self.indices)

    def sort_key(self) -> tuple:
        return _monomial(self.indices).sort_key

    def label(self) -> str:
        return _monomial(self.indices).label

    def __repr__(self) -> str:
        return f"TermId({self.label()!r})"


def main(j: int) -> TermId:
    return TermId((j,))


def quad(j: int) -> TermId:
    return TermId((j, j))


def inter(j: int, k: int) -> TermId:
    if j == k:
        raise ValueError(f"interaction needs two distinct indices, got ({j}, {k})")
    return TermId((j, k) if j < k else (k, j))


@dataclass(frozen=True)
class TermSet:
    """An ordered collection of terms over ``p`` ambient main effects.

    May be a strict subset of the full second-order set, but the
    canonical order is always enforced.
    """

    p: int
    terms: tuple[TermId, ...]

    def __post_init__(self):
        if self.p < 1:
            raise InvalidDimensionError(f"need at least one main effect, got p={self.p}")
        object.__setattr__(self, "terms", tuple(self.terms))
        keys = [t.sort_key() for t in self.terms]
        if any(b <= a for a, b in zip(keys, keys[1:])):
            raise ValueError("terms must be unique and in canonical order")
        for t in self.terms:
            if t.indices[-1] >= self.p:
                raise ValueError(f"term {t.label()} out of range for p={self.p}")

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __contains__(self, t: TermId) -> bool:
        return t in self.index

    @cached_property
    def index(self) -> dict[TermId, int]:
        return {t: i for i, t in enumerate(self.terms)}

    def labels(self) -> list[str]:
        return [t.label() for t in self.terms]

    def heredity_closure(self) -> "TermSet":
        """This set plus every parent main effect of its second-order terms."""
        required, mains = heredity_parents(self.terms)
        missing = required - mains
        if not missing:
            return self
        merged = sorted(set(self.terms) | {main(j) for j in missing}, key=TermId.sort_key)
        return TermSet(self.p, tuple(merged))


def heredity_parents(terms) -> tuple[set[int], set[int]]:
    """(required, mains) for any iterable of terms: the main indices its
    second-order terms are built from, and the main indices it holds.
    Strong heredity holds when required <= mains."""
    terms = set(terms)
    required = set().union(*(t.parents() for t in terms if t.is_second_order))
    return required, {t.indices[0] for t in terms if not t.is_second_order}


def canonical_terms(p: int) -> TermSet:
    """The full second-order term set for ``p`` mains: 2p + p(p-1)/2 terms."""
    if p < 1:
        raise InvalidDimensionError(f"need at least one main effect, got p={p}")
    terms = [main(j) for j in range(p)]
    terms += [inter(j, k) for j in range(p) for k in range(j + 1, p)]
    terms += [quad(j) for j in range(p)]
    return TermSet(p, tuple(terms))


def _main_values(raw) -> np.ndarray:
    v = np.asarray(raw, dtype=np.float64)
    if v.ndim != 2:
        raise InvalidDimensionError(f"expected a 2-d design, got shape {v.shape}")
    return v


def _mains_of(raw, terms: TermSet) -> np.ndarray:
    x = _main_values(raw)
    if x.shape[1] != terms.p:
        raise InvalidDimensionError(
            f"design has {x.shape[1]} mains but the term set expects p={terms.p}"
        )
    return x


def expand(raw, terms: TermSet) -> np.ndarray:
    """Build the n-by-|terms| design: each column the product of its term's mains.

    Accepts an (n, p) array of raw mains.  Raises InvalidDimensionError when a
    product overflows.
    """
    x = _mains_of(raw, terms)
    out = np.empty((x.shape[0], len(terms)), dtype=np.float64)
    try:
        with np.errstate(over="raise"):
            for col, t in enumerate(terms.terms):
                product = x[:, t.indices[0]]
                for j in t.indices[1:]:
                    product = product * x[:, j]
                out[:, col] = product
    except FloatingPointError:
        raise InvalidDimensionError(f"column {t.label()} overflows") from None
    return out


def expand_dot(raw, terms: TermSet, values) -> np.ndarray:
    """``expand(raw, terms) @ values`` without building the n-by-|terms| design.

    A second-order model on the mains x is ``x @ a + rowsum((x @ B) * x)``: ``a``
    holds the main coefficients and the upper-triangular p-by-p ``B`` the
    second-order ones, each at its term's index tuple.  The sums run in
    another order than expand's product, so the result may differ from it in
    its last digits.
    """
    x = _mains_of(raw, terms)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(terms),):
        raise InvalidDimensionError(
            f"expected {len(terms)} coefficients, got shape {values.shape}"
        )
    a, B = np.zeros(terms.p), np.zeros((terms.p, terms.p))
    for t, v in zip(terms.terms, values):
        (a, B)[len(t.indices) - 1][t.indices] = v
    return x @ a + np.einsum("ij,ij->i", x @ B, x)
