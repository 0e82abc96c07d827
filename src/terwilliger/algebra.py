"""Elements of the Terwilliger algebra in its structured basis.

The algebra is spanned by elements indexed by triples (g, h, i) of masks
with g^i <= h <= (g^i) | (g & i & large), where large is the spec's
large_mask.  Products of two basis elements are again scalar multiples of
basis elements, so arbitrary products reduce to exact bookkeeping over
triple-indexed coefficient maps.  A second basis, the raw products (dual
idempotent times adjacency times dual idempotent), is kept for
cross-checks against the dense matrix oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm
from typing import Iterable, Mapping, Optional

import numpy as np

from .scheme import (
    GroundField,
    Mask,
    Scalar,
    SchemeSpec,
    _bracket,
    _in_window,
    all_masks,
    is_basis_triple,
    mask_product,
    parse_mask,
    render_mask,
    submasks,
    valency,
)

Triple = tuple[Mask, Mask, Mask]


def check_triple(spec: SchemeSpec, t: Triple) -> Triple:
    g, h, i = t
    if not is_basis_triple(spec, g, h, i):
        lo = g ^ i
        hi = lo | (g & i & spec.large_mask)
        raise ValueError(
            f"({render_mask(g, spec.n)},{render_mask(h, spec.n)},{render_mask(i, spec.n)})"
            " does not index a basis element: the middle mask must contain"
            f" {render_mask(lo, spec.n)} and be contained in {render_mask(hi, spec.n)}"
        )
    return t


def basis_triples(spec: SchemeSpec) -> list[Triple]:
    """All basis triples in canonical order; the count is 4^n1 * 5^n2."""
    return triples_with_middles(spec, all_masks(spec))


def triples_with_middles(spec: SchemeSpec, middles: list[Mask]) -> list[Triple]:
    """The basis triples whose middle mask is in middles, a canonically ordered list.

    Given g and h, the right mask i is g ^ h plus any part of g & h & large,
    so walking g, h and that part in canonical order lists the triples in
    canonical order.  The submasks of g & h & large are read from a table of
    the 2^n masks.
    """
    subs = _submask_table(spec)
    return [(g, h, (g ^ h) | sub) for g in all_masks(spec) for h in middles for sub in subs[g & h]]


def _submask_table(spec: SchemeSpec) -> list[list[Mask]]:
    """The submasks of c & large in canonical order, for each of the 2^n masks c."""
    return [submasks(c & spec.large_mask) for c in range(1 << spec.n)]


_NO_TRIPLES = np.zeros(0, dtype=np.int64)
_NO_TRIPLES.flags.writeable = False


def triple_columns(spec: SchemeSpec, middles: list[Mask]) -> tuple[np.ndarray, ...]:
    """The masks g, h, i of triples_with_middles as three int64 arrays, in the same order.

    The i-parts are read from the same submask table, laid out flat with one
    offset per c.  Without middles the columns are empty and shared.
    """
    if not middles:
        return _NO_TRIPLES, _NO_TRIPLES, _NO_TRIPLES
    subs = _submask_table(spec)
    sizes = np.array([len(row) for row in subs], dtype=np.int64)
    flat = np.array([sub for row in subs for sub in row], dtype=np.int64)
    g = np.repeat(np.array(all_masks(spec), dtype=np.int64), len(middles))
    h = np.tile(np.array(middles, dtype=np.int64), 1 << spec.n)
    counts = sizes[g & h]
    # Output k of a pair whose output starts at `start` is flat[k - start + where row g & h starts].
    shift = np.repeat((np.cumsum(sizes) - sizes)[g & h] - (np.cumsum(counts) - counts), counts)
    g, h = np.repeat(g, counts), np.repeat(h, counts)
    return g, h, (g ^ h) | flat[np.arange(len(g)) + shift]


def dimension(spec: SchemeSpec) -> int:
    """Dimension of the algebra: a size-2 coordinate contributes 4 basis triples, a larger one 5."""
    return 4**spec.n1 * 5**spec.n2


def triple_json(spec: SchemeSpec, t: Triple) -> list[str]:
    return [render_mask(m, spec.n) for m in t]


def render_triple(spec: SchemeSpec, t: Triple) -> str:
    return "(" + ",".join(triple_json(spec, t)) + ")"


def mul_triples(spec: SchemeSpec, t1: Triple, t2: Triple) -> Optional[tuple[Scalar, Triple]]:
    """Product of two basis elements: at most one term.

    The product vanishes unless the right index of t1 equals the left index
    of t2, and otherwise equals k(h & i & k) times the basis element at
    (g, bracket(g, h, i, k, l), l) where t1 = (g, h, i) and t2 = (i, k, l).
    The scalar is the image of an integer valency, so it can also vanish in
    positive characteristic.
    """
    check_triple(spec, t1)
    check_triple(spec, t2)
    return _mul_triples(spec, t1, t2)


def _mul_triples(spec: SchemeSpec, t1: Triple, t2: Triple) -> Optional[tuple[Scalar, Triple]]:
    """mul_triples on valid basis triples t1 and t2, unchecked."""
    if t1[2] != t2[0]:
        return None
    m, t = _product(spec.large_mask, t1, t2)
    coeff = spec.field.of(valency(spec, m))
    if spec.field.is_zero(coeff):
        return None
    return coeff, t


def _product(large: Mask, t1: Triple, t2: Triple) -> tuple[Mask, Triple]:
    """The law of mul_triples on valid triples t1 = (g, h, i) and t2 = (i, k, l), unchecked.

    Returns the mask h & i & k, whose valency is the coefficient, and the
    product's triple; large is the spec's large_mask.
    """
    g, h, i = t1
    _, k, l = t2
    return h & i & k, (g, _bracket(large, g, h, i, k, l), l)


@lru_cache(maxsize=8)
def _valency_column(spec: SchemeSpec) -> np.ndarray:
    """The field image of the valency of each of the 2^n masks, as a read-only int64 column.

    In characteristic 0 it is the integer itself; a valency is below the point count.
    """
    p = spec.characteristic
    column = np.array(
        [valency(spec, m) % p if p else valency(spec, m) for m in range(1 << spec.n)], dtype=np.int64
    )
    column.flags.writeable = False
    return column


def _mul_columns(
    spec: SchemeSpec, t1: tuple[np.ndarray, ...], t2: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """_mul_triples over columns of valid triples t1 = (g, h, i) and t2 = (j, k, l), unchecked.

    The six columns are int64 arrays that broadcast together, one pair per
    position; t1 and t2 may each be the rows of a 3 x m array.  Returns each
    pair's coefficient as an int64 array, read from _valency_column, and the
    product's three triple columns.  The coefficient is 0 where i != j or the
    valency image vanishes, and there the triple columns mean nothing.
    _product uses only & and _bracket, so it states the law for columns too.
    """
    m, t = _product(spec.large_mask, t1, t2)
    return np.where(t1[2] == t2[0], _valency_column(spec)[m], 0), t


def _mask_columns(
    spec: SchemeSpec, m: tuple[np.ndarray], a: tuple[np.ndarray]
) -> tuple[np.ndarray, tuple[np.ndarray]]:
    """The law of corner_mul and center_mul over one-column tuples of masks m and a, unchecked.

    Returns each pair's coefficient, the valency image of m & a read from
    _valency_column (0 where it vanishes), and the product's column m | a.
    """
    (m,), (a,) = m, a
    return _valency_column(spec)[m & a], (m | a,)


def _integral(items: Iterable[tuple[Triple, Fraction]]) -> tuple[list[tuple[Triple, int]], int]:
    """Characteristic-0 (triple, coefficient) pairs over the integers, and their denominator.

    Each Fraction is scaled by the lcm d of the denominators, so the pairs
    stand for the element times d.  Residues at prime characteristic are
    ints, which come back unchanged with d = 1.
    """
    d = lcm(*(c.denominator for _, c in items))
    if d == 1:
        return [(t, c.numerator) for t, c in items], 1
    return [(t, c.numerator * (d // c.denominator)) for t, c in items], d


def _accumulate(field: GroundField, acc: dict[Triple, Scalar], t: Triple, c: Scalar) -> None:
    """Add a canonical c to the coefficient of t in acc, dropping the entry when the sum vanishes."""
    old = acc.get(t)
    total = c if old is None else field.add(old, c)
    if field.is_zero(total):
        acc.pop(t, None)
    else:
        acc[t] = total


class Element:
    """An algebra element: a canonical map from basis triples to nonzero scalars.

    Every coefficient passed in is canonicalized by the ground field, which
    refuses floats and any other inexact or foreign value.
    """

    def __init__(self, spec: SchemeSpec, terms: Optional[Mapping[Triple, Scalar]] = None) -> None:
        self.spec = spec
        self.terms: dict[Triple, Scalar] = {}
        if terms:
            for t, c in terms.items():
                check_triple(spec, t)
                c = spec.field.of(c)
                if not spec.field.is_zero(c):
                    self.terms[t] = c

    @classmethod
    def _with_terms(cls, spec: SchemeSpec, terms: dict[Triple, Scalar]) -> Element:
        """An element that takes over terms already canonical and nonzero, unchecked."""
        out = object.__new__(cls)
        out.spec = spec
        out.terms = terms
        return out

    @classmethod
    def zero(cls, spec: SchemeSpec) -> Element:
        return cls(spec)

    @classmethod
    def basis(cls, spec: SchemeSpec, t: Triple, coeff: Optional[Scalar] = None) -> Element:
        if coeff is None:
            coeff = spec.field.one()
        return cls(spec, {t: coeff})

    @classmethod
    def identity(cls, spec: SchemeSpec) -> Element:
        one = spec.field.one()
        return cls(spec, {(g, 0, g): one for g in range(1 << spec.n)})

    def coeff(self, t: Triple) -> Scalar:
        return self.terms.get(t, self.spec.field.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_spec(self, other: Element) -> None:
        if other.spec != self.spec:
            raise ValueError("elements belong to different schemes")

    def add(self, other: Element) -> Element:
        self._require_same_spec(other)
        field = self.spec.field
        terms = dict(self.terms)
        for t, c in other.terms.items():
            _accumulate(field, terms, t, c)
        return Element._with_terms(self.spec, terms)

    def neg(self) -> Element:
        field = self.spec.field
        return Element._with_terms(self.spec, {t: field.neg(c) for t, c in self.terms.items()})

    def sub(self, other: Element) -> Element:
        return self.add(other.neg())

    def scale(self, c: Scalar) -> Element:
        field = self.spec.field
        c = field.of(c)
        if field.is_zero(c):
            return Element(self.spec)
        return Element._with_terms(self.spec, {t: field.mul(c, v) for t, v in self.terms.items()})

    def mul(self, other: Element) -> Element:
        """The product, summed over pairs of terms by the law of mul_triples.

        A pair (g, h, i), (j, k, l) contributes only when i = j, so the terms
        of other are grouped by their left mask once, as (k, l, c) tuples,
        and each term of self visits only the group at its right mask.  The
        law is evaluated inline, with what does not depend on k and l taken
        once per left term: since l distributes over the last two terms of
        _bracket(large, g, h, i, k, l), the middle mask equals
        (g ^ l) | (l & (gl | ((h | k) & gil))) with gl = g & large & ~i and
        gil = g & i & large.  Coefficients multiply as integers: in
        characteristic 0 each operand is scaled by the lcm of its
        denominators first, and one Fraction is made per distinct output
        numerator; in characteristic p each output term is reduced once.
        Terms that sum to zero are dropped.  The valency of each coefficient
        mask is taken once per call.  Unless no pair matches, every operand
        term is validated once per call, so a non-basis triple written into
        terms raises ValueError.
        """
        spec = self.spec
        if other.spec is not spec:
            self._require_same_spec(other)
        lefts = {t2[0] for t2 in other.terms}
        left = [(t1, c1) for t1, c1 in self.terms.items() if t1[2] in lefts]
        if not left:
            return Element._with_terms(spec, {})
        full, large = spec.full_mask, spec.large_mask
        for t in chain(self.terms, other.terms):
            g, h, i = t
            if (g | h | i) & ~full or not _in_window(large, g, h, i):
                check_triple(spec, t)  # raises, naming the window
        p = spec.characteristic
        right = other.terms.items()
        dx = dy = 1
        if not p:
            left, dx = _integral(left)
            right, dy = _integral(right)
        by_left: dict[Mask, list[tuple[Mask, Mask, int]]] = {}
        for (j, k, l), c2 in right:
            by_left.setdefault(j, []).append((k, l, c2))
        valencies: dict[Mask, int] = {}
        acc: dict[Triple, int] = {}
        get, known = acc.get, valencies.get
        for (g, h, i), c1 in left:
            hi, gl, gil = h & i, g & large & ~i, g & i & large
            for k, l, c2 in by_left[i]:
                m = hi & k
                v = known(m)
                if v is None:
                    v = valencies[m] = valency(spec, m) % p if p else valency(spec, m)
                if v:
                    t = (g, (g ^ l) | (l & (gl | ((h | k) & gil))), l)
                    acc[t] = get(t, 0) + c1 * c2 * v
        terms: dict[Triple, Scalar] = {}
        if p:
            for t, c in acc.items():
                c %= p
                if c:
                    terms[t] = c
        else:
            d = dx * dy
            fractions: dict[int, Fraction] = {}
            for t, c in acc.items():
                if c:
                    q = fractions.get(c)
                    if q is None:
                        q = fractions[c] = Fraction(c, d)
                    terms[t] = q
        return Element._with_terms(spec, terms)

    def transpose(self) -> Element:
        return Element._with_terms(self.spec, {(i, h, g): c for (g, h, i), c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __repr__(self) -> str:
        if self.is_zero():
            return "Element(zero)"
        body = " + ".join(f"{t['coeff']}*({','.join(t['triple'])})" for t in self.to_json())
        return f"Element({body})"

    def to_json(self) -> list[dict[str, object]]:
        """The terms in canonical order, each triple rendered once and sorted by its rendering."""
        spec, render = self.spec, self.spec.field.render
        rendered = sorted((triple_json(spec, t), c) for t, c in self.terms.items())
        return [{"triple": words, "coeff": render(c)} for words, c in rendered]

    @classmethod
    def from_json(cls, spec: SchemeSpec, data: Iterable[Mapping[str, object]]) -> Element:
        field = spec.field
        out = cls(spec)
        for item in data:
            raw = item["triple"]
            if not isinstance(raw, (list, tuple)) or len(raw) != 3:
                raise ValueError(f"expected a three-part triple, got {raw!r}")
            t = tuple(parse_mask(str(part), spec.n) for part in raw)
            check_triple(spec, t)
            _accumulate(field, out.terms, t, field.parse(str(item["coeff"])))
        return out


def _interval(t: Triple) -> list[Mask]:
    """Masks j with (g ^ i) <= j <= h, for a valid basis triple (g, h, i)."""
    g, h, i = t
    lo = g ^ i
    return [lo | sub for sub in submasks(h & ~lo)]


def to_raw(x: Element) -> dict[Triple, Scalar]:
    """Rewrite over the raw basis: each structured term expands with unit coefficients.

    The raw basis element at (g, h, i) is the product of the dual idempotent
    at g, the adjacency matrix at h and the dual idempotent at i; the result
    maps those triples to nonzero scalars.
    """
    field = x.spec.field
    raw: dict[Triple, Scalar] = {}
    for (g, h, i), c in x.terms.items():
        for j in _interval((g, h, i)):
            _accumulate(field, raw, (g, j, i), c)
    return raw


def from_raw(spec: SchemeSpec, raw: Mapping[Triple, Scalar]) -> Element:
    """Rewrite over the structured basis by inclusion-exclusion on the middle mask.

    Each raw term at (g, h, i) becomes the signed sum over j in the interval
    (g ^ i) <= j <= h of (-1)^(number of coordinates of h not in j) times the
    structured element at (g, j, i).  The sign is validated by the roundtrip
    property in the tests and against the matrix oracle.
    """
    field = spec.field
    acc: dict[Triple, Scalar] = {}
    for (g, h, i), c in raw.items():
        check_triple(spec, (g, h, i))
        c = field.of(c)
        for j in _interval((g, h, i)):
            dropped = bin(h & ~j).count("1")
            _accumulate(field, acc, (g, j, i), c if dropped % 2 == 0 else field.neg(c))
    return Element._with_terms(spec, acc)


def corner_basis(spec: SchemeSpec, g: Mask) -> list[Mask]:
    """Middle masks of the commutative corner at g: all subsets of g & large, in canonical order."""
    return submasks(spec.check_mask(g) & spec.large_mask)


def corner_mul(spec: SchemeSpec, g: Mask, h: Mask, i: Mask) -> Optional[tuple[Scalar, Mask]]:
    """Corner product: (k(h & i), h | i), or None when the valency image vanishes."""
    spec.check_mask(g)
    top = mask_product(spec, g, g)
    for m in (h, i):
        if spec.check_mask(m) & ~top:
            raise ValueError(
                f"mask {render_mask(m, spec.n)} is not a middle index of the corner at"
                f" {render_mask(g, spec.n)}"
            )
    coeff = spec.field.of(valency(spec, h & i))
    if spec.field.is_zero(coeff):
        return None
    return coeff, h | i
