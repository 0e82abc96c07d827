"""Elements of the Terwilliger algebra in its structured basis.

The algebra is spanned by elements indexed by triples (g, h, i) of masks
with g^i <= h <= (g^i) | (g & i & large), where large is the spec's
large_mask.  Products of two basis elements are again scalar multiples of
basis elements, so arbitrary products reduce to exact bookkeeping over
triple-indexed coefficient maps.  A second basis, the raw products (dual
idempotent times adjacency times dual idempotent), is kept for
cross-checks against the dense matrix oracle.

The law is stated once over int64 triple columns, _mul_columns, and one
kernel, _chained_ranges, finds the term pairs that chain in products of
linear combinations held as columns, without enumerating all pairs: each
left term reads its range from the right side's _Index, its terms bucketed
by (combination, left mask) once, so no product sorts its operands.
Element.mul runs on it when its operands have KERNEL_PAIRS term pairs or
more (2^14, the crossover measured against its per-pair loop) and the
spec has at most KERNEL_FACTORS (12) factors with valencies in int64, and
so do verify's products of the semisimple representatives.  There each
element caches its terms as columns and integer numerators (_Form), and
a product hands its own over, so a chain of products never rebuilds
them; an element also caches its _Index on first use as a right operand.
Both column products keep char-0 numerators in int64 under one
rule, _sum_bound below 2^63.  One constant, _CHUNK_ENTRIES, sizes the
chunks of every batched sweep, here, in the oracle and in verify (_chunks).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm, prod
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

import numpy as np

from .scheme import (
    GroundField,
    Mask,
    Scalar,
    SchemeSpec,
    _bracket,
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
    if not (type(g) is type(h) is type(i) is int):  # a float, bool or numpy mask is refused
        raise ValueError(f"{t!r} is not a triple of int masks")
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
    """The submasks of c & large in canonical order, for each of the 2^n masks c.

    A row depends only on c & large, so each distinct row is built once and
    shared by every c that reads it; callers only read the rows.
    """
    large = spec.large_mask
    parts = submasks(large)
    rows = dict(zip(parts, map(submasks, parts)))
    return [rows[c & large] for c in range(1 << spec.n)]


_NO_TRIPLES = np.zeros(0, dtype=np.int64)
_NO_TRIPLES.flags.writeable = False
_ONE_ZERO = np.zeros(1, dtype=np.int64)  # combination 0 of one, as both sides of an Element product
_ONE_ZERO.flags.writeable = False


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
    The table doubles once per factor: the masks that hold factor a are those
    without it, times size - 1.
    """
    valencies = [1]
    for size in spec.sizes:
        valencies += [v * (size - 1) for v in valencies]
    p = spec.characteristic
    column = np.array([v % p for v in valencies] if p else valencies, dtype=np.int64)
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


def _columns(triples: list[Triple]) -> np.ndarray:
    """The masks g, h, i of triples as the rows of a 3 x len(triples) int64 array."""
    return np.fromiter(chain.from_iterable(triples), np.int64, 3 * len(triples)).reshape(-1, 3).T


def _key(spec: SchemeSpec, columns) -> np.ndarray:
    """Each triple of the columns g, h, i as one integer below 8^n."""
    g, h, i = columns
    return (g << 2 * spec.n) | (h << spec.n) | i


def _spread(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each position k repeated counts[k] times, and the offsets 0 to counts[k] - 1 beside it."""
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)


class _Index(NamedTuple):
    """The terms of linear combinations bucketed by (combination, left mask): the right side of a product.

    order lists the term positions stably sorted by combination c and left
    mask m, and the terms of bucket b = c << n | m are order[offsets[b] :
    offsets[b + 1]], so offsets holds C * 2^n + 1 entries for C combinations.
    """

    order: np.ndarray
    offsets: np.ndarray


def _bucket_index(spec: SchemeSpec, columns: np.ndarray, size: np.ndarray) -> _Index:
    """The _Index of the combinations whose terms a 3 x T int64 array holds one after another.

    size[c] is the number of terms of combination c.
    """
    buckets = len(size) << spec.n
    keys = np.repeat(np.arange(len(size)), size) << spec.n | columns[0]
    offsets = np.zeros(buckets + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=buckets), out=offsets[1:])
    return _Index(np.argsort(keys, kind="stable"), offsets)


def _chained_ranges(
    spec: SchemeSpec, columns: np.ndarray, size: np.ndarray, left: np.ndarray, right: np.ndarray, index: _Index
) -> tuple[np.ndarray, ...]:
    """Where the terms chaining with each left term lie, in each product combo[left[j]] * combo[right[j]].

    columns is a 3 x T int64 array of triples holding the terms of every left
    combination one after another, size[c] of them for combination c, and
    index is the _Index of the right combinations (_bucket_index), built once
    by the caller.  Each term of a left combination reads the bucket of the
    right combination's terms whose left mask equals its right mask with two
    gathers from index.offsets, so nothing is sorted and only pairs with
    i = j are ever listed, never all |x| * |y| of them.  Returns, per left
    term, its j (rows) and its position s into columns, then the start lo and
    count of the left term's chaining terms within index.order.
    """
    start = np.cumsum(size) - size
    rows, k = _spread(size[left])
    s = start[left][rows] + k
    bucket = right[rows] << spec.n | columns[2, s]
    lo = index.offsets[bucket]
    return rows, s, lo, index.offsets[bucket + 1] - lo


def _chained_pairs(
    spec: SchemeSpec, columns: np.ndarray, size: np.ndarray, left: np.ndarray, right: np.ndarray, index: _Index
) -> tuple[np.ndarray, ...]:
    """The term pairs that chain in each product combo[left[j]] * combo[right[j]], all at once.

    The ranges of _chained_ranges, listed.  Returns, per chaining pair, its j
    (rows) and its two term positions s and t into columns and into the
    right combinations' terms; _mul_columns on their triples evaluates them.
    """
    rows, s, lo, count = _chained_ranges(spec, columns, size, left, right, index)
    at, k = _spread(count)
    return rows[at], s[at], index.order[lo[at] + k]


def _sum_by_key(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of a nonempty int64 array in increasing order, and the sum of values at each.

    Sums are exact in values' dtype: a sort and np.add.reduceat, never a float.
    """
    order = np.argsort(keys)
    keys, values = keys[order], values[order]
    first = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    return keys[first], np.add.reduceat(values, first)


def _numerator_dtype(p: int, bound: int):
    """int64 where integer numerators stay exact in it, object (Python ints) otherwise.

    Residues below p = 2^31 stay exact when reduced after each product; at
    characteristic 0, bound bounds every sum taken.
    """
    return np.int64 if 0 < p < 1 << 31 or (not p and bound < 1 << 63) else object


_RATIO = attrgetter("numerator", "denominator")


def _integral(values: Iterable[Scalar]) -> tuple[list[int], int]:
    """Characteristic-0 coefficients as integer numerators over their least common denominator d.

    Each Fraction is scaled by d, so the numerators stand for the element
    times d.  Residues at prime characteristic are ints, which come back
    unchanged with d = 1.
    """
    ratios = list(map(_RATIO, values))
    if not ratios:
        return [], 1
    nums, dens = zip(*ratios)
    d = lcm(*set(dens))
    return (list(nums), 1) if d == 1 else ([a * (d // b) for a, b in ratios], d)


# Element.mul goes through _chained_ranges when |x| * |y| reaches this many
# term pairs, and through its per-pair loop below it, where the kernel's
# fixed numpy cost loses: on operands at characteristics 0 and 3 the kernel
# took 0.65 to 1.25 times the loop's time at 4,096 pairs, 0.67 to 1.04 at
# 8,192 (0.95 to 1.67 on fresh operands, which build their form and index)
# and 0.36 to 0.77 at 16,384 (the sweep is in CHANGES.md).
KERNEL_PAIRS = 1 << 14

# The kernel path reads valencies from _valency_column, one int64 for each of
# the 2^n masks, so it serves specs of at most KERNEL_FACTORS factors (a table
# of at most 4,096 entries, built in well under a millisecond) whose valency
# images all fit in int64; larger specs stay on the loop at every size.
KERNEL_FACTORS = 12

# The most array entries, or term pairs, one chunk of a batched sweep holds: here
# (a chaining pair is about a dozen int64 entries), in the oracle and in verify.
_CHUNK_ENTRIES = 1 << 16


def _chunks(total: int, entries: int) -> Iterator[range]:
    """Consecutive ranges covering positions 0 to total - 1, each short enough that `entries`
    array entries per position, read as 1 below 1, add up to at most _CHUNK_ENTRIES (one
    position at least)."""
    step = max(1, _CHUNK_ENTRIES // max(entries, 1))
    return (range(lo, min(lo + step, total)) for lo in range(0, total, step))


def _top_valency(spec: SchemeSpec) -> int:
    """The largest valency, that of the full mask: the product of size - 1."""
    return prod(size - 1 for size in spec.sizes)


def _on_columns(spec: SchemeSpec) -> bool:
    """Whether Element.mul's kernel path serves spec: at most KERNEL_FACTORS factors, valencies in int64.

    The largest valency is _top_valency; a residue mod p is below p.
    """
    top = _top_valency(spec)
    p = spec.characteristic
    return spec.n <= KERNEL_FACTORS and min(top, p - 1 if p else top) < 1 << 63


def _sum_bound(spec: SchemeSpec, norms: int) -> int:
    """A bound on every partial sum of a column product's numerators at characteristic 0.

    norms is L1(x) * L1(y), the product of the L1 norms of the two sides'
    integer numerators: any sum of products a * b * valency over term pairs
    of x and y is at most the largest valency (_top_valency) times norms in
    absolute value.
    """
    return _top_valency(spec) * norms


class _Form(NamedTuple):
    """An element's terms in the form the column kernel reads.

    columns holds the triples as the rows of a 3 x m int64 array, in terms
    order, which is key order (_key) for a kernel product's output; nums
    their integer numerators over d, the lcm of the denominators (residues
    and d = 1 at prime characteristic), as an int64 array or, where they may
    not fit in int64, an object array of Python ints; l1 is the sum of their
    absolute values.
    """

    columns: np.ndarray
    nums: np.ndarray
    d: int
    l1: int


def _mul_by_columns(x: Element, y: Element) -> Element:
    """Element.mul on x and y over int64 columns, through _chained_ranges.

    The operands' cached forms (Element._column_form) give the triple columns
    and integer numerators, and y's cached _Index of its terms by left mask
    (Element._right_index) gives each term of x its chaining range; x is y
    when an element multiplies itself.  Numerators are integers as in the
    loop: residues at characteristic p, in int64 below p = 2^31; at
    characteristic 0 each operand times the lcm of its denominators, in int64
    while _sum_bound of the two L1 norms stays below 2^63, Python ints
    otherwise.  The left terms are taken in chunks of about _CHUNK_ENTRIES
    chaining pairs, counted before any pair is listed, so memory follows the
    chunk and the distinct outputs, not every chaining pair; each chunk's sums
    per product triple come from one sort and np.add.reduceat, merged with the
    sums so far.  The sums in key order are the product's form: at
    characteristic 0 they are divided by G = gcd(d, every sum), so that d / G
    is the lcm of the output's denominators, and one Fraction is made per
    distinct value.
    """
    spec = x.spec
    p, n, full = spec.characteristic, spec.n, spec.full_mask
    fx, fy, index = x._column_form(), y._column_form(), y._right_index()
    d = fx.d * fy.d
    dtype = _numerator_dtype(p, _sum_bound(spec, fx.l1 * fy.l1))
    xn, yn = fx.nums.astype(dtype, copy=False), fy.nums.astype(dtype, copy=False)
    _, s, lo, count = _chained_ranges(spec, fx.columns, np.array([len(xn)]), _ONE_ZERO, _ONE_ZERO, index)
    ends = np.cumsum(count)
    # a chunk takes the left terms whose pairs end within the next _CHUNK_ENTRIES
    stops = np.searchsorted(ends, np.arange(_CHUNK_ENTRIES, ends[-1] + _CHUNK_ENTRIES, _CHUNK_ENTRIES), side="right")
    keys, sums = _NO_TRIPLES, xn[:0]
    for a, b in zip(chain([0], stops), stops):
        at, k = _spread(count[a:b])
        if not at.size:
            continue
        u, t = s[a:b][at], index.order[lo[a:b][at] + k]
        factor, product = _mul_columns(spec, fx.columns[:, u], fy.columns[:, t])
        values = xn[u] * yn[t] % p * factor % p if p else xn[u] * yn[t] * factor
        keys, sums = _sum_by_key(np.concatenate([keys, _key(spec, product)]), np.concatenate([sums, values]))
        if p:
            sums %= p
    keep = sums != 0
    keys, sums = keys[keep], sums[keep]
    columns = np.stack([keys >> 2 * n, keys >> n & full, keys & full])
    if p:
        coeffs = sums.tolist()
    else:
        g = gcd(d, int(np.gcd.reduce(sums)))
        # with no sum left g is d, which need not fit the sums' dtype
        sums, d = sums // g if sums.size else sums, d // g
        distinct, inverse = np.unique(sums, return_inverse=True)
        coeffs = np.array([Fraction(c, d) for c in distinct.tolist()], dtype=object)[inverse].tolist()
    out = Element._with_terms(spec, dict(zip(zip(*columns.tolist()), coeffs)))
    out._form = _Form(columns, sums, d, int(np.abs(sums).sum()))
    return out


def _fraction_terms(d: int, items: Iterable[tuple[Triple, int]]) -> dict[Triple, Fraction]:
    """The terms of (triple, integer numerator) pairs over the denominator d, zeros dropped.

    One Fraction is made per distinct numerator.
    """
    terms: dict[Triple, Fraction] = {}
    made: dict[int, Fraction] = {}
    for t, c in items:
        if c:
            q = made.get(c)
            if q is None:
                q = made[c] = Fraction(c, d)
            terms[t] = q
    return terms


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

    The constructor refuses a triple that is not a basis triple and
    canonicalizes every coefficient through the ground field, which refuses
    floats and any other inexact or foreign value.  The terms are read-only
    (a types.MappingProxyType, one per element, behind a property without a
    setter), so they stay canonical for the element's life and no operation
    checks them again.  For the same reason the element's _Form, the column
    form the kernel product reads, is cached on the element and never goes
    stale.
    """

    # The _Form of the terms, built by _column_form on first use or handed
    # over by the kernel product that made the element.
    _form: Optional[_Form] = None
    # The _Index of the terms as one combination, 2^n + 1 offsets and an
    # order, built by _right_index on first use as a kernel product's right operand.
    _index: Optional[_Index] = None

    def __init__(self, spec: SchemeSpec, terms: Optional[Mapping[Triple, Scalar]] = None) -> None:
        field = spec.field
        canonical: dict[Triple, Scalar] = {}
        if terms:
            for t, c in terms.items():
                check_triple(spec, t)
                c = field.of(c)
                if not field.is_zero(c):
                    canonical[t] = c
        self.spec = spec
        self._terms = MappingProxyType(canonical)

    @classmethod
    def _with_terms(cls, spec: SchemeSpec, terms: dict[Triple, Scalar]) -> Element:
        """An element that takes over terms already canonical and nonzero, unchecked.

        The caller hands terms over: it keeps no other reference to the dict.
        """
        out = object.__new__(cls)
        out.spec = spec
        out._terms = MappingProxyType(terms)
        return out

    @property
    def terms(self) -> Mapping[Triple, Scalar]:
        """The nonzero coefficient of each basis triple, canonical and read-only."""
        return self._terms

    def _column_form(self) -> _Form:
        """The terms as a _Form, built from _columns and _integral once and cached."""
        if self._form is None:
            nums, d = _integral(self._terms.values())
            l1 = sum(map(abs, nums))
            dtype = np.int64 if l1 < 1 << 63 else object
            self._form = _Form(_columns(list(self._terms)), np.array(nums, dtype=dtype), d, l1)
        return self._form

    def _right_index(self) -> _Index:
        """The terms of the _Form as one combination's _Index, built once and cached."""
        if self._index is None:
            columns = self._column_form().columns
            self._index = _bucket_index(self.spec, columns, np.array([columns.shape[1]]))
        return self._index

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

        A pair (g, h, i), (j, k, l) contributes only when i = j.  When
        |self| * |other| reaches KERNEL_PAIRS, on specs of at most
        KERNEL_FACTORS factors whose valencies fit in int64, the pairs that
        chain are found over int64 columns by _chained_ranges, the kernel
        verify's product judge _agreement shares, from other's cached _Index
        of its terms by left mask, and evaluated by _mul_columns a chunk of
        left terms at a time (_mul_by_columns), on the operands' cached
        forms; the product comes back with its own form, and builds its
        index only if it is ever a right operand.  Otherwise a
        per-pair loop runs, which below KERNEL_PAIRS wins on numpy's fixed
        cost: the terms of other are grouped by their left mask once, as
        (k, l, c) tuples, and each term of self visits only the group at its
        right mask.  The loop evaluates the law inline, with what does not
        depend on k and l taken once per left term: since l distributes over
        the last two terms of _bracket(large, g, h, i, k, l), the middle mask
        equals (g ^ l) | (l & (gl | ((h | k) & gil))) with
        gl = g & large & ~i and gil = g & i & large.  On both paths
        coefficients multiply as integers: in characteristic 0 each operand
        is scaled by the lcm of its denominators first (in int64 on the
        kernel path while _sum_bound of their L1 norms is below 2^63), and
        one Fraction is made per distinct output numerator; in
        characteristic p each output sum is reduced mod p.  Terms that sum
        to zero are dropped.  Neither path checks the operand terms: they
        are read-only and were made canonical when each element was built.
        """
        spec = self.spec
        if other.spec is not spec:
            self._require_same_spec(other)
        x, y = self._terms, other._terms
        if len(x) * len(y) >= KERNEL_PAIRS and _on_columns(spec):
            return _mul_by_columns(self, other)
        lefts = {t2[0] for t2 in y}
        left = [(t1, c1) for t1, c1 in x.items() if t1[2] in lefts]
        if not left:
            return Element._with_terms(spec, {})
        large = spec.large_mask
        p = spec.characteristic
        right = y.items()
        dx = dy = 1
        if not p:
            triples, coeffs = zip(*left)
            nums, dx = _integral(coeffs)
            left = zip(triples, nums)
            nums, dy = _integral(y.values())
            right = zip(y, nums)
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
        if not p:
            return Element._with_terms(spec, _fraction_terms(dx * dy, acc.items()))
        terms: dict[Triple, Scalar] = {}
        for t, c in acc.items():
            c %= p
            if c:
                terms[t] = c
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
        terms: dict[Triple, Scalar] = {}
        for item in data:
            raw = item["triple"]
            if not isinstance(raw, (list, tuple)) or len(raw) != 3:
                raise ValueError(f"expected a three-part triple, got {raw!r}")
            t = tuple(parse_mask(str(part), spec.n) for part in raw)
            check_triple(spec, t)
            _accumulate(field, terms, t, field.parse(str(item["coeff"])))
        return cls._with_terms(spec, terms)


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
