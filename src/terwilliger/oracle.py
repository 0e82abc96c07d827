"""Dense matrix realization of the scheme, used as independent ground truth.

Everything here is brute force on purpose.  One table, the relation mask
of every pair of points, is built from the definition of the relations.
Adjacency matrices, dual idempotents and the basis elements E*_g A_h E*_i
are read off it as 0/1 masks; products of realized elements are honest
matrix products, and ranks come from exact Gaussian elimination.
The symbolic engine is validated against this module, so the two must not
share formulas beyond the definition of the relations themselves.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .algebra import Element, Triple, basis_triples, check_triple
from .scheme import Mask, Scalar, SchemeSpec

Point = tuple[int, ...]

DEFAULT_ORACLE_CAP = 200

# int64 products hold exactly while cap * p^2 stays below 2^63.
_INT64_CHAR_LIMIT = 1 << 20


def points(spec: SchemeSpec) -> list[Point]:
    """All points of the product set, in mixed-radix order (coordinate 1 most significant)."""
    return list(itertools.product(*(range(s) for s in spec.sizes)))


def check_point(spec: SchemeSpec, x: Point) -> Point:
    if len(x) != spec.n or any(not 0 <= x[a] < spec.sizes[a] for a in range(spec.n)):
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
    one coordinate at a time.
    """
    size = _check_cap(spec, cap)
    table = np.zeros((size, size), dtype=np.int64)
    for a, col in enumerate(np.indices(spec.sizes).reshape(spec.n, size)):
        table |= (col[:, None] != col[None, :]).astype(np.int64) << a
    return table


def _point_index(spec: SchemeSpec, x: Point) -> int:
    """The position of a point in points() order."""
    return int(np.ravel_multi_index(check_point(spec, x), spec.sizes))


def _as_matrix(spec: SchemeSpec, entries: np.ndarray) -> np.ndarray:
    """A 0/1 array in the oracle's matrix type: int64 for small primes, else Python ints."""
    m = entries.astype(np.int64)
    return m if 0 < spec.characteristic < _INT64_CHAR_LIMIT else m.astype(object)


def _reduce(spec: SchemeSpec, m: np.ndarray) -> np.ndarray:
    return m % spec.characteristic if spec.characteristic else m


def mat_mul(spec: SchemeSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _reduce(spec, a @ b)


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


def _interval_matrix(
    spec: SchemeSpec, t: Triple, lo: Mask, base_point: Optional[Point], cap: int
) -> np.ndarray:
    """Entry (y, z) is 1 iff x relates to y by g, to z by i, and lo <= relation(y, z) <= h."""
    g, h, i = check_triple(spec, t)
    table = relation_matrix(spec, cap)
    x = default_base_point(spec) if base_point is None else base_point
    row = table[_point_index(spec, x)]
    inside = (table & lo == lo) & (table & ~h == 0)
    return _as_matrix(spec, (row == g)[:, None] & inside & (row == i)[None, :])


def realize_raw_triple(
    spec: SchemeSpec,
    t: Triple,
    base_point: Optional[Point] = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """The raw product E*_g A_h E*_i: the diagonal 0/1 factors keep whole rows and columns of A_h."""
    return _interval_matrix(spec, t, t[1], base_point, cap)


def realize_triple(
    spec: SchemeSpec,
    t: Triple,
    base_point: Optional[Point] = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """The sum of the raw products E*_g A_j E*_i over g ^ i <= j <= h.

    Each pair of points has one relation, so the summands have disjoint supports.
    """
    g, _, i = t
    return _interval_matrix(spec, t, g ^ i, base_point, cap)


def _scale(spec: SchemeSpec, c: Scalar, m: np.ndarray) -> np.ndarray:
    c = spec.field.of(c)
    if spec.characteristic:
        return (m * c) % spec.characteristic
    # integral coefficients stay Python ints, so products of realized elements avoid Fraction
    return m * (c.numerator if c.denominator == 1 else c)


def _combine(
    spec: SchemeSpec,
    terms: Mapping[Triple, Scalar],
    realize_one: Callable[..., np.ndarray],
    base_point: Optional[Point],
    cap: int,
) -> np.ndarray:
    """The linear combination of the matrices realize_one gives for each triple."""
    size = _check_cap(spec, cap)
    acc = _as_matrix(spec, np.zeros((size, size), dtype=bool))
    for t, c in terms.items():
        acc = _reduce(spec, acc + _scale(spec, c, realize_one(spec, t, base_point, cap)))
    return acc


def realize(
    spec: SchemeSpec,
    e: Element,
    base_point: Optional[Point] = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    return _combine(spec, e.terms, realize_triple, base_point, cap)


def realize_raw(
    spec: SchemeSpec,
    raw: Mapping[Triple, Scalar],
    base_point: Optional[Point] = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Realize a map from raw-basis triples to scalars, as returned by algebra.to_raw."""
    return _combine(spec, raw, realize_raw_triple, base_point, cap)


def _rank_of_rows(spec: SchemeSpec, rows: list[np.ndarray]) -> int:
    """Exact row rank via Gaussian elimination over the ground field."""
    field = spec.field
    p = spec.characteristic
    pivots: list[tuple[int, np.ndarray]] = []
    for row in rows:
        v = np.asarray(row).astype(object)
        if p:
            v = v % p
        for col, pivot_row in pivots:
            c = v[col]
            if c != 0:
                v = v - pivot_row * c
                if p:
                    v = v % p
        nonzero = np.nonzero(v)[0]
        if nonzero.size == 0:
            continue
        col = int(nonzero[0])
        inv = field.inv(int(v[col]) if p else v[col])
        v = v * inv
        if p:
            v = v % p
        pivots.append((col, v))
    return len(pivots)


def span_rank(spec: SchemeSpec, mats: Sequence[np.ndarray]) -> int:
    """Rank of a family of matrices flattened to vectors, by exact elimination."""
    rows = [np.asarray(m).reshape(-1) for m in mats]
    return _rank_of_rows(spec, rows)


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
    """Count points related to x by g, to y by h, and to z by i, by brute force."""
    for m in (g, h, i):
        spec.check_mask(m)
    table = relation_matrix(spec, cap)
    hits = [table[_point_index(spec, w)] == m for w, m in ((x, g), (y, h), (z, i))]
    return int(np.count_nonzero(np.all(hits, axis=0)))


def annihilator_dim(
    spec: SchemeSpec,
    left_ideal: Sequence[Element],
    base_point: Optional[Point] = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> int:
    """Dimension of the right annihilator of a left ideal inside the realized algebra.

    The candidate space is the realized span of all basis triples; the
    returned value is the nullity of v -> (G v for every generator G), via
    the rank of the stacked image vectors.
    """
    triples = basis_triples(spec)
    basis_mats = [realize_triple(spec, t, base_point, cap) for t in triples]
    gens = [realize(spec, e, base_point, cap) for e in left_ideal]
    if not gens:
        return len(triples)
    rows = []
    for v in basis_mats:
        parts = [mat_mul(spec, gen, v).reshape(-1) for gen in gens]
        rows.append(np.concatenate([part.astype(object) for part in parts]))
    return len(triples) - _rank_of_rows(spec, rows)
