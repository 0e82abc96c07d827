"""Elements of the Terwilliger algebra in its structured basis.

The algebra is spanned by elements indexed by triples (g, h, i) of masks
with g^i <= h <= (g^i) | circ(g&i).  Products of two basis elements are
again scalar multiples of basis elements, so arbitrary products reduce to
exact bookkeeping over triple-indexed coefficient maps.  A second basis,
the raw products (dual idempotent times adjacency times dual idempotent),
is kept for cross-checks against the dense matrix oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional

from .scheme import (
    Mask,
    Scalar,
    SchemeSpec,
    bracket,
    is_basis_triple,
    mask_key,
    mask_product,
    parse_mask,
    render_mask,
    valency,
)

Triple = tuple[Mask, Mask, Mask]


def triple_key(spec: SchemeSpec, t: Triple) -> tuple[tuple[int, ...], ...]:
    """Canonical sort key: lexicographic on the three rendered bit-words."""
    n = spec.n
    return (mask_key(t[0], n), mask_key(t[1], n), mask_key(t[2], n))


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
    triples = []
    for g in range(1 << spec.n):
        for i in range(1 << spec.n):
            lo = g ^ i
            extra = g & i & spec.large_mask
            sub = extra
            while True:
                triples.append((g, lo | sub, i))
                if sub == 0:
                    break
                sub = (sub - 1) & extra
    triples.sort(key=lambda t: triple_key(spec, t))
    return triples


def render_triple(spec: SchemeSpec, t: Triple) -> str:
    n = spec.n
    return f"({render_mask(t[0], n)},{render_mask(t[1], n)},{render_mask(t[2], n)})"


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
    g, h, i = t1
    j, k, l = t2
    if i != j:
        return None
    coeff = spec.field.of(valency(spec, h & i & k))
    if spec.field.is_zero(coeff):
        return None
    return coeff, (g, bracket(spec, g, h, i, k, l), l)


class Element:
    """An algebra element: a canonical map from basis triples to nonzero scalars."""

    def __init__(self, spec: SchemeSpec, terms: Optional[Mapping[Triple, Scalar]] = None) -> None:
        self.spec = spec
        self.terms: dict[Triple, Scalar] = {}
        if terms:
            for t, c in terms.items():
                check_triple(spec, t)
                if not spec.field.is_zero(c):
                    self.terms[t] = c

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

    def sorted_terms(self) -> list[tuple[Triple, Scalar]]:
        return sorted(self.terms.items(), key=lambda item: triple_key(self.spec, item[0]))

    def _require_same_spec(self, other: Element) -> None:
        if other.spec != self.spec:
            raise ValueError("elements belong to different schemes")

    def add(self, other: Element) -> Element:
        self._require_same_spec(other)
        field = self.spec.field
        terms = dict(self.terms)
        for t, c in other.terms.items():
            acc = field.add(terms.get(t, field.zero()), c)
            if field.is_zero(acc):
                terms.pop(t, None)
            else:
                terms[t] = acc
        out = Element(self.spec)
        out.terms = terms
        return out

    def neg(self) -> Element:
        field = self.spec.field
        out = Element(self.spec)
        out.terms = {t: field.neg(c) for t, c in self.terms.items()}
        return out

    def sub(self, other: Element) -> Element:
        return self.add(other.neg())

    def scale(self, c: Scalar) -> Element:
        field = self.spec.field
        out = Element(self.spec)
        if not field.is_zero(c):
            out.terms = {t: field.mul(c, v) for t, v in self.terms.items()}
        return out

    def mul(self, other: Element) -> Element:
        self._require_same_spec(other)
        field = self.spec.field
        acc: dict[Triple, Scalar] = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                if t1[2] != t2[0]:
                    continue
                hit = mul_triples(self.spec, t1, t2)
                if hit is None:
                    continue
                coeff, t = hit
                total = field.add(acc.get(t, field.zero()), field.mul(field.mul(c1, c2), coeff))
                if field.is_zero(total):
                    acc.pop(t, None)
                else:
                    acc[t] = total
        out = Element(self.spec)
        out.terms = acc
        return out

    def transpose(self) -> Element:
        out = Element(self.spec)
        out.terms = {(i, h, g): c for (g, h, i), c in self.terms.items()}
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __repr__(self) -> str:
        if self.is_zero():
            return "Element(zero)"
        body = " + ".join(
            f"{self.spec.field.render(c)}*{render_triple(self.spec, t)}"
            for t, c in self.sorted_terms()
        )
        return f"Element({body})"

    def to_json(self) -> list[dict[str, object]]:
        n = self.spec.n
        field = self.spec.field
        return [
            {
                "triple": [render_mask(t[0], n), render_mask(t[1], n), render_mask(t[2], n)],
                "coeff": field.render(c),
            }
            for t, c in self.sorted_terms()
        ]

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
            c = field.parse(str(item["coeff"]))
            if field.is_zero(c):
                continue
            acc = field.add(out.terms.get(t, field.zero()), c)
            if field.is_zero(acc):
                out.terms.pop(t, None)
            else:
                out.terms[t] = acc
        return out


class RawElement:
    """An element written over the raw products (dual idempotent, adjacency, dual idempotent)."""

    def __init__(self, spec: SchemeSpec, terms: Optional[Mapping[Triple, Scalar]] = None) -> None:
        self.spec = spec
        self.terms: dict[Triple, Scalar] = {}
        if terms:
            for t, c in terms.items():
                check_triple(spec, t)
                if not spec.field.is_zero(c):
                    self.terms[t] = c

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Triple, Scalar]]:
        return sorted(self.terms.items(), key=lambda item: triple_key(self.spec, item[0]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RawElement):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __repr__(self) -> str:
        if self.is_zero():
            return "RawElement(zero)"
        body = " + ".join(
            f"{self.spec.field.render(c)}*{render_triple(self.spec, t)}"
            for t, c in self.sorted_terms()
        )
        return f"RawElement({body})"


def _interval(spec: SchemeSpec, t: Triple) -> Iterator[Mask]:
    """Masks j with (g ^ i) <= j <= h, for a valid basis triple (g, h, i)."""
    g, h, i = t
    lo = g ^ i
    extra = h & ~lo
    sub = extra
    while True:
        yield lo | sub
        if sub == 0:
            break
        sub = (sub - 1) & extra


def to_raw(x: Element) -> RawElement:
    """Rewrite over the raw basis: each structured term expands with unit coefficients."""
    spec = x.spec
    field = spec.field
    acc: dict[Triple, Scalar] = {}
    for (g, h, i), c in x.terms.items():
        for j in _interval(spec, (g, h, i)):
            t = (g, j, i)
            total = field.add(acc.get(t, field.zero()), c)
            if field.is_zero(total):
                acc.pop(t, None)
            else:
                acc[t] = total
    out = RawElement(spec)
    out.terms = acc
    return out


def from_raw(x: RawElement) -> Element:
    """Rewrite over the structured basis by inclusion-exclusion on the middle mask.

    Each raw term at (g, h, i) becomes the signed sum over j in the interval
    (g ^ i) <= j <= h of (-1)^(number of coordinates of h not in j) times the
    structured element at (g, j, i).  The sign is validated by the roundtrip
    property in the tests and against the matrix oracle.
    """
    spec = x.spec
    field = spec.field
    minus_one = field.neg(field.one())
    acc: dict[Triple, Scalar] = {}
    for (g, h, i), c in x.terms.items():
        for j in _interval(spec, (g, h, i)):
            dropped = bin(h & ~j).count("1")
            sign = field.one() if dropped % 2 == 0 else minus_one
            t = (g, j, i)
            total = field.add(acc.get(t, field.zero()), field.mul(sign, c))
            if field.is_zero(total):
                acc.pop(t, None)
            else:
                acc[t] = total
    out = Element(spec)
    out.terms = acc
    return out


def corner_basis(spec: SchemeSpec, g: Mask) -> list[Mask]:
    """Middle masks of the commutative corner at g: all subsets of circ(g), in canonical order."""
    spec.check_mask(g)
    extra = g & spec.large_mask
    middles = []
    sub = extra
    while True:
        middles.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & extra
    middles.sort(key=lambda m: mask_key(m, spec.n))
    return middles


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
