"""Dense matrix realization of the scheme, used as independent ground truth.

Everything here is brute force on purpose.  One table, the relation mask
of every pair of points, is built from the definition of the relations.
Adjacency matrices, dual idempotents and the basis elements E*_g A_h E*_i
are read off it as 0/1 masks, the basis elements as one uint8 stack per
request (realize_stack); products of realized elements are honest matrix
products, stacks multiplying pairwise, and ranks come from exact
elimination.  Batched sweeps hold at most algebra._CHUNK_ENTRIES matrix
entries of a stack at a time, in the ranges of algebra._chunks.

At characteristic 0 a realized matrix is an object array of Python ints
and Fractions, but no arithmetic runs on Fractions: products clear each
operand's denominators and multiply integer numerators (in int64 when a
bound proves that exact).  At prime characteristic matrices are int64 (or
Python ints for very large primes) reduced mod p.  Every field shares one
fraction-free elimination (_pivot_rows), which cross-multiplies rows as in
Bareiss' integer-preserving elimination: over Python ints at characteristic
0, in int64 mod p below 2^31.  It takes rows a block of at most
_CHUNK_ENTRIES entries at a time (_blocks), clears each block once, and
reduces each row only by the pivot at its leading column, until the row
vanishes or leads at a new column.  A pivot is kept as the positions and
values of its nonzero entries only, so the pivots of a realized basis
family, whose supports barely overlap, take far less memory than its
stack.  Triple intersection counts are read off the rows of the table.
The symbolic engine is validated against this module, so the two must not
share formulas beyond the definition of the relations themselves.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .algebra import Element, Triple, _chunks, _integral, basis_triples, check_triple
from .scheme import Mask, Scalar, SchemeSpec

Point = tuple[int, ...]

DEFAULT_ORACLE_CAP = 200

# int64 products hold exactly while cap * p^2 stays below 2^63.
_INT64_CHAR_LIMIT = 1 << 20


def points(spec: SchemeSpec) -> list[Point]:
    """All points of the product set, in mixed-radix order (coordinate 1 most significant)."""
    return list(itertools.product(*(range(s) for s in spec.sizes)))


def check_point(spec: SchemeSpec, x: Point) -> Point:
    # a float, bool or numpy coordinate is refused, as check_triple refuses such a mask
    if len(x) != spec.n or any(type(xa) is not int or not 0 <= xa < size for xa, size in zip(x, spec.sizes)):
        raise ValueError(f"{x!r} is not a point of the scheme with sizes {spec.sizes}")
    return x


def default_base_point(spec: SchemeSpec) -> Point:
    return (0,) * spec.n


def relation(spec: SchemeSpec, x: Point, y: Point) -> Mask:
    """The relation joining two points: bit a-1 is set iff they differ in coordinate a."""
    check_point(spec, x)
    check_point(spec, y)
    m = 0
    for a in range(spec.n):
        if x[a] != y[a]:
            m |= 1 << a
    return m


def _check_cap(spec: SchemeSpec, cap: int) -> int:
    size = spec.num_points
    if size > cap:
        raise ValueError(f"point set has {size} elements, above the oracle cap {cap}")
    return size


def relation_matrix(spec: SchemeSpec, cap: int = DEFAULT_ORACLE_CAP) -> np.ndarray:
    """The relation mask of every pair of points, rows and columns in points() order.

    Entry (x, y) equals relation(spec, x, y), computed for all pairs at once,
    one coordinate at a time.  The table is built once per sizes and shared,
    so it is read-only.
    """
    _check_cap(spec, cap)
    return _relation_table(spec.sizes)


@functools.lru_cache(maxsize=16)
def _relation_table(sizes: tuple[int, ...]) -> np.ndarray:
    size = math.prod(sizes)
    table = np.zeros((size, size), dtype=np.int64)
    for a, col in enumerate(np.indices(sizes).reshape(len(sizes), size)):
        table |= (col[:, None] != col[None, :]).astype(np.int64) << a
    table.setflags(write=False)
    return table


def _point_index(spec: SchemeSpec, x: Point) -> int:
    """The position of a point in points() order."""
    k = 0
    for xa, size in zip(check_point(spec, x), spec.sizes):
        k = k * size + xa
    return k


def _as_matrix(spec: SchemeSpec, nums: np.ndarray, d: int = 1) -> np.ndarray:
    """nums / d in the oracle's matrix type: int64 for small primes, else Python ints (and Fractions)."""
    if nums.dtype != object:
        nums = nums.astype(np.int64)
    return nums if 0 < spec.characteristic < _INT64_CHAR_LIMIT else _over(nums, d)


def _reduce(spec: SchemeSpec, m: np.ndarray) -> np.ndarray:
    """m mod p, over Python ints when p does not fit in int64; m itself at characteristic 0."""
    p = spec.characteristic
    if p >= 1 << 63:
        m = m.astype(object)
    return m % p if p else m


def _integer_form(m: np.ndarray) -> tuple[np.ndarray, int, int]:
    """(nums, d, top) with m == nums / d, d the lcm of the entries' denominators, top >= max |nums|.

    nums is int64 when every numerator fits, else an object array of Python
    ints.  A numpy integer array is its own numerator.  The usual 0/1 object
    matrix is read through bytearray in one C pass; it stops at the first
    Fraction (no __index__) or entry outside [0, 256), where astype(np.int64)
    would truncate a Fraction silently.
    """
    if m.dtype != object:
        nums = m.astype(np.int64, copy=False)
        return nums, 1, max(int(nums.max(initial=0)), -int(nums.min(initial=0)))
    flat = m.ravel().tolist()
    try:
        return np.frombuffer(bytearray(flat), dtype=np.uint8).astype(np.int64).reshape(m.shape), 1, 255
    except (TypeError, ValueError):
        pass
    nums, d = _integral(flat)
    top = max(max(nums), -min(nums))
    return np.array(nums, dtype=np.int64 if top < 1 << 63 else object).reshape(m.shape), d, top


def _over(nums: np.ndarray, d: int) -> np.ndarray:
    """The object array nums / d: a Python int where d divides the entry, a Fraction elsewhere."""
    if d == 1:
        return nums.astype(object)
    out = np.empty(nums.size, dtype=object)
    out[:] = [v // d if v % d == 0 else Fraction(v, d) for v in nums.ravel().tolist()]
    return out.reshape(nums.shape)


def mat_mul(spec: SchemeSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product over the ground field.

    Stacks of matrices multiply pairwise, broadcast as numpy's matmul does.
    Each operand is cleared of its denominators (there are none at prime
    characteristic), the integer numerators are multiplied, and the product
    is reduced mod p or divided by d_a * d_b once.  The numerators are
    multiplied in int64 when max|A| * max|B| * k < 2^63, which proves every
    partial sum exact, and as Python ints otherwise.  The product is an
    object array when an operand is one, as the oracle's matrices are at
    characteristic 0 and at large primes; numpy integer operands, such as
    the 0/1 stacks of realize_stack, give an int64 product wherever it fits.
    """
    na, da, top_a = _integer_form(a)
    nb, db, top_b = _integer_form(b)
    if na.dtype != object and nb.dtype != object and top_a * top_b * na.shape[-1] < 1 << 63:
        prod = na @ nb
    else:
        prod = na.astype(object) @ nb.astype(object)
    prod = _reduce(spec, prod)
    return _over(prod, da * db) if a.dtype == object or b.dtype == object else prod


def mat_eq(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.all(a == b))


def is_zero_matrix(m: np.ndarray) -> bool:
    return bool(np.all(m == 0))


def adjacency_matrix(spec: SchemeSpec, g: Mask, cap: int = DEFAULT_ORACLE_CAP) -> np.ndarray:
    spec.check_mask(g)
    return _as_matrix(spec, relation_matrix(spec, cap) == g)


def dual_idempotent(
    spec: SchemeSpec, x: Point, g: Mask, cap: int = DEFAULT_ORACLE_CAP
) -> np.ndarray:
    spec.check_mask(g)
    return _as_matrix(spec, np.diag(relation_matrix(spec, cap)[_point_index(spec, x)] == g))


def identity_matrix(spec: SchemeSpec, cap: int = DEFAULT_ORACLE_CAP) -> np.ndarray:
    return _as_matrix(spec, np.eye(_check_cap(spec, cap), dtype=bool))


def realize_stack(
    spec: SchemeSpec,
    triples: Sequence[Triple],
    base_point: Optional[Point] = None,
    cap: int = DEFAULT_ORACLE_CAP,
    raw: bool = False,
) -> np.ndarray:
    """The 0/1 matrices of basis triples, as a read-only uint8 array of shape (len(triples), N, N).

    Entry (k, y, z) is 1 iff the base point x relates to y by g and to z by
    i, and lo <= relation(y, z) <= h, for triples[k] = (g, h, i).  For the
    structured basis lo = g ^ i: the matrix is the sum of the raw products
    E*_g A_j E*_i over g ^ i <= j <= h, whose supports are disjoint because
    each pair of points has one relation.  For the raw basis (raw=True)
    lo = h: the raw product E*_g A_h E*_i, whose diagonal 0/1 factors keep
    whole rows and columns of A_h.
    """
    table = relation_matrix(spec, cap)
    x = default_base_point(spec) if base_point is None else base_point
    row = table[_point_index(spec, x)]
    masks = np.array([check_triple(spec, t) for t in triples], dtype=np.int64).reshape(-1, 3)
    g, h, i = masks.T[..., None]
    lo = h if raw else g ^ i
    rel = np.arange(1 << spec.n)
    inside = (rel & lo == lo) & (rel & ~h == 0)  # inside[k, m]: lo_k <= m <= h_k
    stack = np.take(inside, table, axis=1)  # C order, unlike inside[:, table]
    stack &= (row == g)[:, :, None]
    stack &= (row == i)[:, None, :]
    stack = stack.view(np.uint8)
    stack.setflags(write=False)
    return stack


def realize_raw_triple(
    spec: SchemeSpec,
    t: Triple,
    base_point: Optional[Point] = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """The raw product E*_g A_h E*_i: realize_stack with raw=True for one triple."""
    return _as_matrix(spec, realize_stack(spec, [t], base_point, cap, raw=True)[0])


def realize_triple(
    spec: SchemeSpec,
    t: Triple,
    base_point: Optional[Point] = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """The sum of the raw products E*_g A_j E*_i over g ^ i <= j <= h: realize_stack for one triple."""
    return _as_matrix(spec, realize_stack(spec, [t], base_point, cap)[0])


def _realize_combinations(
    spec: SchemeSpec,
    combos: Sequence[Mapping[Triple, Scalar]],
    base_point: Optional[Point],
    cap: int,
    raw: bool = False,
) -> tuple[np.ndarray, int]:
    """(nums, d) with nums[k] / d the realized linear combination combos[k] of basis triples.

    d is the lcm of the coefficients' denominators (1 at prime
    characteristic).  nums holds the integer numerators, reduced mod p at
    prime characteristic: int64 while the sum of all |numerators| fits,
    else Python ints.  The terms are realized and added into their
    rows a chunk of algebra._CHUNK_ENTRIES entries at a time (_chunks).
    """
    rows, triples, coeffs = [], [], []
    for k, combo in enumerate(combos):
        for t, c in combo.items():
            rows.append(k)
            triples.append(t)
            coeffs.append(spec.field.of(c))
    weights, d = _integral(coeffs)
    dtype = np.int64 if sum(map(abs, weights)) < 1 << 63 else object
    size = _check_cap(spec, cap)
    cells = size**2
    nums = np.zeros(len(combos) * cells, dtype=dtype)
    for r in _chunks(len(triples), cells):
        stack = realize_stack(spec, triples[r.start : r.stop], base_point, cap, raw)
        scaled = np.array(weights[r.start : r.stop], dtype=dtype)[:, None, None] * stack
        # flat positions, which numpy's unbuffered add handles fastest
        at = np.array(rows[r.start : r.stop])[:, None] * cells + np.arange(cells)
        np.add.at(nums, at.ravel(), scaled.ravel())
    return _reduce(spec, nums.reshape(len(combos), size, size)), d


def realize(
    spec: SchemeSpec,
    e: Element,
    base_point: Optional[Point] = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    return _as_matrix(spec, *_realize_combinations(spec, [e.terms], base_point, cap))[0]


def realize_raw(
    spec: SchemeSpec,
    raw: Mapping[Triple, Scalar],
    base_point: Optional[Point] = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Realize a map from raw-basis triples to scalars, as returned by algebra.to_raw."""
    return _as_matrix(spec, *_realize_combinations(spec, [raw], base_point, cap, raw=True))[0]


def _blocks(stack: np.ndarray) -> Iterator[np.ndarray]:
    """The matrices of a stack flattened to rows, in blocks of at most algebra._CHUNK_ENTRIES entries.

    A block holds at least one row, so a row longer than _CHUNK_ENTRIES is a
    block of its own (_chunks).  An empty stack gives no blocks.
    """
    width = math.prod(stack.shape[1:])
    rows = stack.reshape(len(stack), width)
    return (rows[r.start : r.stop] for r in _chunks(len(rows), width))


def _pivot_rows(spec: SchemeSpec, blocks: Iterable[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(at, values) pivot rows spanning the rows of the blocks: each the positions and values
    of its nonzero entries, at[0] its leading column.

    Each block is a 2-D array of rows, such as _blocks cuts from a stack;
    it is cleared of denominators and reduced, and its zero rows are dropped.
    Exact elimination by leading column: while a pivot leads at row v's first
    nonzero column col, v becomes v * values[0] - pivot * v[col], reduced,
    the pivot subtracted at its positions only.  Every pivot is zero before
    its column, so each step moves v's leading column right; a row that ends
    nonzero leads at a column no pivot holds and becomes the pivot there.  A
    row meets only the pivots it leads into, in row order, so the pivots do
    not depend on the blocking.  A row is cast to the elimination's type when
    it meets a pivot: int64 below p = 2^31, where an update stays below
    2p^2 < 2^63 (values[0] is a unit, so no inverse is needed), and Python
    ints otherwise.  At characteristic 0 a new pivot's values are divided by
    their gcd.
    """
    p = spec.characteristic
    dtype = np.int64 if 0 < p < 1 << 31 else object
    pivots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for block in blocks:
        rows = _reduce(spec, _integer_form(block)[0])
        for v in rows[np.any(rows != 0, axis=1)]:  # a zero row spans nothing
            nonzero = np.flatnonzero(v)
            while nonzero.size and (col := int(nonzero[0])) in pivots:
                at, values = pivots[col]
                scaled = v.astype(dtype, copy=False) * values[0]
                scaled[at] -= values * int(v[col])
                v = _reduce(spec, scaled)
                nonzero = np.flatnonzero(v)
            if nonzero.size:
                values = v[nonzero].astype(dtype)
                pivots[col] = nonzero, (values if p else values // math.gcd(*values.tolist()))
    return list(pivots.values())


def span_rank(spec: SchemeSpec, mats: Sequence[np.ndarray] | np.ndarray) -> int:
    """Rank of a family of matrices flattened to vectors: the number of pivot rows.

    The family is a stack, or a sequence of arrays of one shape; _pivot_rows
    reduces its rows by leading column, a block of _blocks at a time.
    """
    return len(_pivot_rows(spec, _blocks(np.asarray(mats))))


def _triple_counts(
    spec: SchemeSpec, at: Sequence[np.ndarray], masks: Sequence[np.ndarray], cap: int = DEFAULT_ORACLE_CAP
) -> np.ndarray:
    """Triple intersection counts at table positions, unchecked: for each k, the points
    related to the points at positions at[0][k], at[1][k] and at[2][k] by masks[0][k],
    masks[1][k] and masks[2][k], read off the rows of the relation table."""
    table = relation_matrix(spec, cap)
    rows = [table[w] == m[:, None] for w, m in zip(at, masks)]
    return np.count_nonzero(rows[0] & rows[1] & rows[2], axis=1)


def triple_intersection_count(
    spec: SchemeSpec,
    x: Point,
    y: Point,
    z: Point,
    g: Mask,
    h: Mask,
    i: Mask,
    cap: int = DEFAULT_ORACLE_CAP,
) -> int:
    """Count points related to x by g, to y by h, and to z by i: _triple_counts for one row, checked."""
    at = [np.array([_point_index(spec, w)]) for w in (x, y, z)]
    return int(_triple_counts(spec, at, [np.array([spec.check_mask(m)]) for m in (g, h, i)], cap)[0])


def annihilator_dim(
    spec: SchemeSpec,
    left_ideal: Sequence[Element],
    base_point: Optional[Point] = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> int:
    """Dimension of the right annihilator of a left ideal inside the realized algebra.

    The candidate space is the realized span of all basis triples.  Let P be
    pivot rows spanning the rows of the J generators stacked into one J*N x N
    matrix (realized over a common denominator, which spans the same rows).
    Then G v = 0 for every generator G iff P v = 0, since each row of either
    is a combination of rows of the other.  So the returned value is the
    nullity of v -> P v, whose images hold rank(P) * N <= N^2 entries each.
    The rows of P are scattered into one dense rank(P) x N array first.
    """
    triples = basis_triples(spec)
    basis = realize_stack(spec, triples, base_point, cap)
    gens, _ = _realize_combinations(spec, [e.terms for e in left_ideal], base_point, cap)
    rows = _pivot_rows(spec, _blocks(gens.reshape(-1, basis.shape[-1])))
    if not rows:
        return len(triples)
    pivots = np.zeros((len(rows), basis.shape[-1]), dtype=rows[0][1].dtype)
    for k, (at, values) in enumerate(rows):
        pivots[k, at] = values
    chunks = (mat_mul(spec, pivots, basis[r.start : r.stop]) for r in _chunks(len(triples), basis[0].size))
    return len(triples) - len(_pivot_rows(spec, (c.reshape(len(c), -1) for c in chunks)))
