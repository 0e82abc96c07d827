"""Elements of the Terwilliger algebra in its structured basis.

The algebra is spanned by elements indexed by triples (g, h, i) of masks
with g^i <= h <= (g^i) | (g & i & large), where large is the spec's
large_mask.  Products of two basis elements are again scalar multiples of
basis elements, so arbitrary products reduce to exact bookkeeping over
triple-indexed coefficient maps.  A second basis, the raw products (dual
idempotent times adjacency times dual idempotent), is kept for
cross-checks against the dense matrix oracle.

The law is stated once over int64 triple columns, _mul_columns, and the
part of it that depends only on the left triple once more, _left_law,
which Element.mul's per-pair loop and its column kernel, _mul_by_columns,
both read.  Products of linear combinations held as columns find the term
pairs that chain without enumerating all pairs: each left term reads its
range from the right side's _Index, its terms bucketed by (combination,
left mask) once, so no product sorts its operands.  Element.mul runs its
kernel when its operands' expected chaining pairs |x| * |y| / 2^n reach
KERNEL_PAIRS (2^8, the crossover measured against its per-pair loop) and
the spec has at most KERNEL_FACTORS (12) factors with valencies in int64;
verify's products of the semisimple representatives list their pairs with
_chained_pairs.  Each element caches its terms' integer numerators over
their common denominator once (_integers), and both paths read them: the
kernel within the element's columns (_Form), the loop beside the right
operand's terms grouped by left mask (_right_groups).  A product hands its
own form over, the kernel its _Form and the loop, at characteristic 0, its
integers, so a chain of products never converts back from Fractions; an
element builds its _Index or its groups on first use as a right operand.
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


def _left_law(large: Mask, g, h, i) -> tuple:
    """The parts of _product's law that depend only on the left triple (g, h, i), on masks or int64 columns.

    Returns hi, a and b such that every right triple (i, k, l) gives the
    valency mask hi & k and the middle mask (g ^ l) | (l & (a | (k & b))):
    l distributes over the last two terms of _bracket(large, g, h, i, k, l),
    and the part of h | k inside b = g & i & large splits into h & b, taken
    into a, and k & b.  Element.mul's loop and _mul_by_columns both finish
    the law so, per pair.
    """
    b = g & i & large
    return h & i, (g & large & ~i) | (h & b), b


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


def _chained_pairs(
    spec: SchemeSpec, columns: np.ndarray, size: np.ndarray, left: np.ndarray, right: np.ndarray, index: _Index
) -> tuple[np.ndarray, ...]:
    """The term pairs that chain in each product combo[left[j]] * combo[right[j]], all at once.

    columns is a 3 x T int64 array of triples holding the terms of every left
    combination one after another, size[c] of them for combination c, and
    index is the _Index of the right combinations (_bucket_index), built once
    by the caller.  Each term of a left combination reads the bucket of the
    right combination's terms whose left mask equals its right mask with two
    gathers from index.offsets, so nothing is sorted and only pairs with
    i = j are ever listed, never all |x| * |y| of them.  Returns, per chaining
    pair, its j (rows) and its two term positions s and t into columns and
    into the right combinations' terms; _mul_columns on their triples
    evaluates them.
    """
    start = np.cumsum(size) - size
    rows, k = _spread(size[left])
    s = start[left][rows] + k
    bucket = right[rows] << spec.n | columns[2, s]
    lo = index.offsets[bucket]
    at, k = _spread(index.offsets[bucket + 1] - lo)
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


# Element.mul goes through _mul_by_columns when |x| * |y| / 2^n, the expected
# number of term pairs that chain, reaches this many, and through its per-pair
# loop below it, where the kernel's fixed numpy cost loses.  On the six
# perfbench product specs, at characteristic 0 and a prime, the kernel took
# 0.84 to 1.82 times the loop's time at 2^7 expected pairs, 0.67 to 1.48 at
# 2^8 and 0.59 to 0.98 at 2^9 on operands with cached forms, and 1.18 to 2.44,
# 0.92 to 1.94 and 0.81 to 1.31 on fresh ones, which build their forms and
# index or groups (the sweep is in CHANGES.md).  At 2^8 it wins at (3,)^6,
# ties at (2,3,3,4) and (2,3,3)/0, and loses at (2,3,3)/2, where every
# valency with a size-3 factor vanishes mod 2 and the loop skips those pairs.
KERNEL_PAIRS = 1 << 8

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
    """Element.mul on x and y over int64 columns, on the term pairs that chain only.

    The operands' cached forms (Element._column_form) give the triple columns
    and integer numerators, and y's cached _Index of its terms by left mask
    (Element._right_index) gives each term of x its chaining range, the slice
    of index.order between the two offsets at the term's right mask; x is y
    when an element multiplies itself.  y's k, l and numerators are put in
    index order once, so a pair reads them at one position, and _left_law
    gives the part of the law that depends on the left term once per term.
    Numerators are integers as in the loop: residues at characteristic p, in
    int64 below p = 2^31; at characteristic 0 each operand times the lcm of
    its denominators, in int64 while _sum_bound of the two L1 norms stays
    below 2^63, Python ints otherwise.  The left terms are taken in chunks of
    about _CHUNK_ENTRIES chaining pairs, counted before any pair is listed,
    so memory follows the chunk and the distinct outputs, not every chaining
    pair; each chunk's sums per product key (g << 2n | middle << n | l, built
    directly) come from one sort and np.add.reduceat, merged with the sums so
    far.  The sums in key order are the product's form: at characteristic 0
    they are divided by G = gcd(d, every sum), so that d / G is the lcm of the
    output's denominators, and one Fraction is made per distinct value and
    spread to the terms by list indexing.
    """
    spec = x.spec
    p, n, full = spec.characteristic, spec.n, spec.full_mask
    fx, fy, index = x._column_form(), y._column_form(), y._right_index()
    d = fx.d * fy.d
    dtype = _numerator_dtype(p, _sum_bound(spec, fx.l1 * fy.l1))
    xn = fx.nums.astype(dtype, copy=False)
    k, l = fy.columns[1:, index.order]
    yn = fy.nums.astype(dtype, copy=False)[index.order]
    g, h, i = fx.columns
    hi, a, b = _left_law(spec.large_mask, g, h, i)
    lo = index.offsets[i]
    count = index.offsets[i + 1] - lo
    valencies = _valency_column(spec)
    ends = np.cumsum(count)
    # left term u's pairs are listed at positions ends[u] - count[u] to ends[u] - 1,
    # and the one at position q reads position q + shift[u] of k, l and yn
    shift = lo - ends + count
    # a chunk takes the left terms whose pairs end within the next _CHUNK_ENTRIES
    stops = np.searchsorted(ends, np.arange(_CHUNK_ENTRIES, ends[-1] + _CHUNK_ENTRIES, _CHUNK_ENTRIES), side="right")
    keys, sums = _NO_TRIPLES, xn[:0]
    for first, stop in zip(chain([0], stops), stops):
        u = np.repeat(np.arange(first, stop), count[first:stop])
        if not u.size:
            continue
        t = np.arange(ends[stop - 1] - len(u), ends[stop - 1]) + shift[u]
        kt, lt, gu = k[t], l[t], g[u]
        key = gu << 2 * n | ((gu ^ lt) | (lt & (a[u] | (kt & b[u])))) << n | lt
        factor = valencies[hi[u] & kt]
        values = xn[u] * yn[t] % p * factor % p if p else xn[u] * yn[t] * factor
        if keys.size:  # merge with the sums so far
            key, values = np.concatenate([keys, key]), np.concatenate([sums, values])
        keys, sums = _sum_by_key(key, values)
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
        made = [Fraction(c, d) for c in distinct.tolist()]
        coeffs = [made[k] for k in inverse.tolist()]
    out = Element._with_terms(spec, dict(zip(zip(*columns.tolist()), coeffs)))
    out._form = _Form(columns, sums, d, int(np.abs(sums).sum()))
    return out


def _fraction_terms(d: int, sums: Mapping[Triple, int]) -> tuple[dict[Triple, Fraction], tuple[list[int], int]]:
    """The terms of integer sums over the denominator d, zeros dropped, and their integer form.

    The sums are divided by G = gcd(d, every sum), so that d / G is the lcm
    of the terms' denominators; the integer form is their numerators over
    d / G in terms order, and d / G.  One Fraction is made per distinct
    numerator.
    """
    g = gcd(d, *sums.values())
    d //= g
    terms: dict[Triple, Fraction] = {}
    nums: list[int] = []
    made: dict[int, Fraction] = {}
    for t, c in sums.items():
        if c:
            c //= g
            q = made.get(c)
            if q is None:
                q = made[c] = Fraction(c, d)
            terms[t] = q
            nums.append(c)
    return terms, (nums, d)


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
    checks them again.  For the same reason the forms the products read, the
    integer numerators, the _Form of the kernel and each right operand's
    index or groups, are cached on the element and never go stale.
    """

    # The _Form of the terms, built by _column_form on first use or handed
    # over by the kernel product that made the element.
    _form: Optional[_Form] = None
    # The _Index of the terms as one combination, 2^n + 1 offsets and an
    # order, built by _right_index on first use as a kernel product's right operand.
    _index: Optional[_Index] = None
    # The terms' integer numerators in terms order and their denominator d,
    # built by _integers on first use or, at characteristic 0, handed over by
    # the loop product that made the element.
    _ints: Optional[tuple[list[int], int]] = None
    # The terms grouped by left mask as (k, l, numerator) tuples, built by
    # _right_groups on first use as a loop product's right operand.
    _groups: Optional[dict[Mask, list[tuple[Mask, Mask, int]]]] = None

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

    def _integers(self) -> tuple[list[int], int]:
        """The terms' integer numerators over d in terms order, and d, built once and cached.

        Residues at prime characteristic are the numerators, with d = 1;
        characteristic-0 coefficients go through _integral, unless the
        element already holds its _Form.
        """
        if self._ints is None:
            form = self._form
            if form is not None:
                self._ints = form.nums.tolist(), form.d
            elif self.spec.characteristic:
                self._ints = list(self._terms.values()), 1
            else:
                self._ints = _integral(self._terms.values())
        return self._ints

    def _column_form(self) -> _Form:
        """The terms as a _Form, built once from _columns and _integers and cached."""
        if self._form is None:
            nums, d = self._integers()
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

    def _right_groups(self) -> dict[Mask, list[tuple[Mask, Mask, int]]]:
        """The terms (j, k, l) as (k, l, numerator) tuples grouped by j, built once from _integers and cached."""
        if self._groups is None:
            groups = self._groups = {}
            for (j, k, l), c in zip(self._terms, self._integers()[0]):
                groups.setdefault(j, []).append((k, l, c))
        return self._groups

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

        A pair (g, h, i), (j, k, l) contributes only when i = j.  When the
        expected number of such pairs, |self| * |other| / 2^n, reaches
        KERNEL_PAIRS, on specs of at most KERNEL_FACTORS factors whose
        valencies fit in int64, the pairs that chain are read over int64
        columns from other's cached _Index of its terms by left mask, a chunk
        of left terms at a time (_mul_by_columns), on the operands' cached
        forms; the product comes back with its own form, and builds its index
        only if it is ever a right operand.  Otherwise a per-pair loop runs,
        which below KERNEL_PAIRS wins on numpy's fixed cost: each term of
        self visits only the group of other's terms at its right mask, read
        from other's cached groups (_right_groups, built on first use as a
        right operand), as (k, l, numerator) tuples.  Both paths take the
        part of the law that does not depend on k and l once per left term,
        from _left_law, and finish it per pair: the valency mask is hi & k
        and the middle mask (g ^ l) | (l & (a | (k & b))).  On both paths
        coefficients multiply as integers, each operand's read from its
        cached _integers: in characteristic 0 the numerators of the operand
        times the lcm of its denominators (in int64 on the kernel path while
        _sum_bound of their L1 norms is below 2^63), with one Fraction made
        per distinct output numerator, and the sums divided by their gcd with
        the denominator are handed over to the product, as the kernel hands
        over its form; in characteristic p the residues, each output sum
        reduced mod p.  Terms that sum to zero are dropped.  Neither path
        checks the operand terms: they are read-only and were made canonical
        when each element was built.
        """
        spec = self.spec
        if other.spec is not spec:
            self._require_same_spec(other)
        x = self._terms
        if len(x) * len(other._terms) >> spec.n >= KERNEL_PAIRS and _on_columns(spec):
            return _mul_by_columns(self, other)
        nums, dx = self._integers()
        groups, dy = other._right_groups(), other._integers()[1]
        large = spec.large_mask
        p = spec.characteristic
        valencies: dict[Mask, int] = {}
        acc: dict[Triple, int] = {}
        get, known, group_at = acc.get, valencies.get, groups.get
        for (g, h, i), c1 in zip(x, nums):
            group = group_at(i)
            if group is None:
                continue
            hi, a, b = _left_law(large, g, h, i)
            for k, l, c2 in group:
                m = hi & k
                v = known(m)
                if v is None:
                    v = valencies[m] = valency(spec, m) % p if p else valency(spec, m)
                if v:
                    t = (g, (g ^ l) | (l & (a | (k & b))), l)
                    acc[t] = get(t, 0) + c1 * c2 * v
        if not p:
            terms, ints = _fraction_terms(dx * dy, acc)
            out = Element._with_terms(spec, terms)
            out._ints = ints
            return out
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
