"""Symbolic second-order model terms and design-matrix expansion.

A term is a main effect X_j, a quadratic X_j^2, or a two-factor
interaction X_j*X_k with j < k.  Indices are zero-based internally;
labels ("X3", "X1:X2", "X3^2") are one-based.

Canonical column order is: all mains, then all interactions in
lexicographic (j, k) order, then all quadratics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError

MAIN = "main"
INTER = "inter"
QUAD = "quad"

_KIND_RANK = {MAIN: 0, INTER: 1, QUAD: 2}

@dataclass(frozen=True)
class TermId:
    """Identity of one model term.

    ``i`` is the (smaller) main-effect index; ``j`` is the second index
    and is only meaningful for interactions (-1 otherwise).
    """

    kind: str
    i: int
    j: int = -1

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown term kind {self.kind!r}")
        if self.kind == INTER:
            if not (0 <= self.i < self.j):
                raise ValueError(
                    f"interaction indices must satisfy 0 <= i < j, got ({self.i}, {self.j})"
                )
        else:
            if self.i < 0:
                raise ValueError(f"negative main-effect index {self.i}")
            if self.j != -1:
                raise ValueError(f"{self.kind} term takes a single index")

    @property
    def is_second_order(self) -> bool:
        return self.kind != MAIN

    def parents(self) -> frozenset[int]:
        """Main-effect indices this term is built from (a main is its own parent)."""
        if self.kind == INTER:
            return frozenset((self.i, self.j))
        return frozenset((self.i,))

    def max_index(self) -> int:
        return self.j if self.kind == INTER else self.i

    def sort_key(self) -> tuple[int, int, int]:
        return (_KIND_RANK[self.kind], self.i, self.j)

    def label(self) -> str:
        if self.kind == MAIN:
            return f"X{self.i + 1}"
        if self.kind == QUAD:
            return f"X{self.i + 1}^2"
        return f"X{self.i + 1}:X{self.j + 1}"

    def __repr__(self) -> str:
        return f"TermId({self.label()!r})"


def main(j: int) -> TermId:
    return TermId(MAIN, j)


def quad(j: int) -> TermId:
    return TermId(QUAD, j)


def inter(j: int, k: int) -> TermId:
    if j == k:
        raise ValueError(f"interaction needs two distinct indices, got ({j}, {k})")
    lo, hi = (j, k) if j < k else (k, j)
    return TermId(INTER, lo, hi)


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
            if t.max_index() >= self.p:
                raise ValueError(f"term {t.label()} out of range for p={self.p}")

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __contains__(self, t: TermId) -> bool:
        return t in self.index

    @property
    def index(self) -> dict[TermId, int]:
        cached = self.__dict__.get("_index")
        if cached is None:
            cached = {t: i for i, t in enumerate(self.terms)}
            self.__dict__["_index"] = cached
        return cached

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
    return required, {t.i for t in terms if t.kind == MAIN}


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
    """Build the n-by-|terms| design: X_j, X_j*X_k, X_j^2 columns in term order.

    Accepts an (n, p) array of raw mains.  Raises InvalidDimensionError when a
    product overflows.
    """
    x = _mains_of(raw, terms)
    out = np.empty((x.shape[0], len(terms)), dtype=np.float64)
    try:
        with np.errstate(over="raise"):
            for col, t in enumerate(terms.terms):
                if t.kind == MAIN:
                    out[:, col] = x[:, t.i]
                elif t.kind == QUAD:
                    out[:, col] = x[:, t.i] * x[:, t.i]
                else:
                    out[:, col] = x[:, t.i] * x[:, t.j]
    except FloatingPointError:
        raise InvalidDimensionError(f"column {t.label()} overflows") from None
    return out


def expand_dot(raw, terms: TermSet, values) -> np.ndarray:
    """``expand(raw, terms) @ values`` without building the n-by-|terms| design.

    A second-order model on the mains x is ``x @ a + rowsum((x @ B) * x)``: ``a``
    holds the main coefficients and the upper-triangular p-by-p ``B`` the
    interaction (B[j, k]) and quadratic (B[j, j]) ones.  The sums run in
    another order than expand's product, so the result may differ from it in
    its last digits.
    """
    x = _mains_of(raw, terms)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(terms),):
        raise InvalidDimensionError(
            f"expected {len(terms)} coefficients, got shape {values.shape}"
        )
    a = np.zeros(terms.p)
    B = np.zeros((terms.p, terms.p))
    for t, v in zip(terms.terms, values):
        if t.kind == MAIN:
            a[t.i] = v
        else:
            B[t.i, t.i if t.kind == QUAD else t.j] = v
    return x @ a + np.einsum("ij,ij->i", x @ B, x)
