"""Named verification checks pitting the symbolic engine against the dense oracle.

Each check returns a result record with a pass flag, the number of exact
identities confirmed, and a short detail string.  Checks stop at the first
failing identity and name it, so a red run points at one concrete broken
equation.  Sweeps whose exhaustive cost would exceed the gate fall back to
seeded random sampling and say so in the detail.

Oracle sweeps realize their basis matrices as one stack and multiply
chunks of pairs or sequences as stacks, at most algebra._CHUNK_ENTRIES
entries at a time, in the ranges of algebra._chunks.  A chunk is judged
whole and the first failing identity in sweep order is reported, with the
count a one-at-a-time loop would give.  The engine side of pair sweeps
evaluates the product law over int64 triple columns (algebra._mul_columns).
structure-constants judges all D^2 pairs at every characteristic, a chunk
of left triples in middle order at a time, by one product of E*-blocks.
Products of linear combinations (the central elements of center-structure,
the semisimple representatives of quotient-matrix-units and
corner-structure) go through one product judge, _agreement, over integer
numerators; it finds each product's chaining term pairs with
algebra._chained_pairs, which reads each left term's range from one index
of the combinations' terms by left mask (algebra._bucket_index) built with
the judge, as Element.mul's kernel reads its right operand's.
quotient-matrix-units sweeps its pairs once, a chunk at a time, judging the
matrix-unit law over triple columns (quotient._quotient_law) and the lift
of each product through _agreement.
corner-structure realizes every corner's representatives as one stack and
multiplies their pairs as stacks.  Ranks (dimension-rank,
frobenius-falsification, base-point-independence) reduce each row of a
realized stack only by the pivot at its leading column (oracle._pivot_rows),
casting a block of rows at a time.  intersection-numbers makes its
triple-regularity draws one at a time, as each bounds the next, and then
picks every drawn triple and compares all triple counts as arrays.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import algebra, oracle
from .algebra import (
    Element,
    Triple,
    _bucket_index,
    _chained_pairs,
    _chunks,
    _columns,
    _integral,
    _key,
    _mask_columns,
    _mul_columns,
    _numerator_dtype,
    _spread,
    _sum_bound,
    _sum_by_key,
    basis_triples,
    corner_basis,
    corner_mul,
    dimension,
    from_raw,
    render_triple,
    to_raw,
)
from .center import (
    center_mul,
    center_nilpotent_index,
    center_rad_basis,
    central_element,
    central_indices,
    is_central,
)
from .oracle import DEFAULT_ORACLE_CAP, Point, points
from .quotient import (
    _quotient_law,
    _signature,
    frobenius_left_ideal,
    frobenius_witness,
    quotient_triples,
    semisimple_rep,
    verdicts,
    wedderburn_blocks,
)
from .radical import (
    corner_nilpotent_index,
    corner_rad_basis,
    nilpotent_index,
    qualifying_coordinates,
    rad_dim,
    radical_triples,
    witness_chain,
)
from .scheme import (
    GroundField,
    Scalar,
    SchemeSpec,
    intersection_number,
    p_divides_valency,
    render_mask,
    subset_of,
    valency,
)

EXHAUSTIVE_GATE = 10**6
SAMPLE_COUNT = 2000
ORACLE_SAMPLE = 200
DEFAULT_SEED = 1729
# run_all refuses a spec whose realized basis, one byte per matrix entry, would
# outgrow this; under the default cap the largest is (2,2,2,2,2,2,3) at about 755 MB.
STACK_BYTES_BOUND = 1 << 30
# run_all refuses a spec above this many points whatever the cap.  One dense int64
# oracle product is N^3 multiply-adds, about 0.18 s at 500 points and 1.8 s at 1000
# on a 2-CPU host, and every run makes dozens of them per base point.
ORACLE_POINT_BOUND = 500


@dataclass
class CheckResult:
    name: str
    passed: bool
    count: int
    seconds: float
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "count": self.count,
            "seconds": round(self.seconds, 3),
            "detail": self.detail,
        }


def pick_base_points(spec: SchemeSpec, how_many: int) -> list[Point]:
    """Deterministic spread of base points: first, last, and evenly spaced between."""
    if how_many < 1:
        raise ValueError("at least one base point is required")
    pts = points(spec)
    how_many = min(how_many, len(pts))
    if how_many == 1:
        return [pts[0]]
    idx = sorted({k * (len(pts) - 1) // (how_many - 1) for k in range(how_many)})
    return [pts[k] for k in idx]


def _sample(size: int, length: int, rng: random.Random) -> np.ndarray:
    """SAMPLE_COUNT seeded sequences of `length` positions below size, as an int64 array.

    They are the positions SAMPLE_COUNT * length calls of rng.choice on a size-element
    population draw, row by row, and rng is left as those calls leave it.  Each call is
    Random._randbelow(size): the top size.bit_length() bits of the next 32-bit word,
    drawn again while they are size or more.  The words come from getrandbits blocks,
    and rng is then rewound and advanced by the words used.
    """
    if not 0 < size < 1 << 32:
        raise ValueError(f"cannot draw positions below {size}: a draw reads one 32-bit word")
    need, shift = SAMPLE_COUNT * length, 32 - size.bit_length()
    state, values = rng.getstate(), np.zeros(0, dtype=np.uint32)
    while (kept := np.flatnonzero(values < size)).size < need:
        words = 2 * (need - kept.size) + 1024  # more than half of all words are kept
        block = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        values = np.concatenate([values, np.frombuffer(block, dtype="<u4") >> shift])
    rng.setstate(state)
    rng.getrandbits(32 * (int(kept[need - 1]) + 1))
    return values[kept[:need]].astype(np.int64).reshape(SAMPLE_COUNT, length)


def _sweep(
    pop: tuple[np.ndarray, ...], length: int, rng: random.Random, step: Callable
) -> tuple[int, Optional[tuple[int, ...]], Optional[np.ndarray]]:
    """Sweep the length-`length` sequences over pop for the first with a nonzero product.

    pop holds the factors as int64 columns, and step(acc, nxt) gives the coefficient
    column of the products acc times nxt, 0 where one vanishes, and their columns.  Up
    to EXHAUSTIVE_GATE sequences the sweep takes all of them in lexicographic order,
    above it _sample's.  It advances a level at a time, each live prefix held as its
    rank (lexicographic, or its sample row) and its product's columns: one step extends
    every live prefix by every position, or by its sample row's next one, and rows whose
    product vanished are dropped, which settles every sequence extending them.  Returns
    the count settled before the first nonzero sequence (the rank of the first live
    full-length row), that sequence as positions in pop or None, and the sample or None.
    """
    size = len(pop[0])
    sample = _sample(size, length, rng) if size**length > EXHAUSTIVE_GATE else None
    if sample is None:
        rank, acc = np.arange(size), pop
    else:
        rank, acc = np.arange(SAMPLE_COUNT), tuple(col[sample[:, 0]] for col in pop)
    for k in range(1, length):
        if not rank.size:
            break
        if sample is None:
            prefix, at = np.divmod(np.arange(len(rank) * size), size)
            rank, acc = rank[prefix] * size + at, tuple(col[prefix] for col in acc)
        else:
            at = sample[rank, k]
        coeffs, product = step(acc, tuple(col[at] for col in pop))
        live = coeffs != 0
        rank, acc = rank[live], tuple(col[live] for col in product)
    if not rank.size:
        return size**length if sample is None else SAMPLE_COUNT, None, sample
    first = int(rank[0])
    found = np.unravel_index(first, (size,) * length) if sample is None else sample[first]
    return first, tuple(int(a) for a in found), sample


Outcome = tuple[bool, int, str]
CheckFn = Callable[[SchemeSpec, list[Point], random.Random, int], Outcome]


def _int_column(values: Sequence[int]) -> np.ndarray:
    """Integers as an int64 column, or as an object column of Python ints where one does not fit."""
    return np.array(values, dtype=np.int64 if max(map(abs, values), default=0) < 1 << 63 else object)


def _agreement(
    spec: SchemeSpec, combos: Sequence[Mapping[Triple, Scalar]], modulo_radical: bool = False
) -> Callable[[np.ndarray, np.ndarray, np.ndarray, int | np.ndarray], np.ndarray]:
    """The product judge on combos: a function of (left, right, expect, scale) giving whether
    combos[left[j]] * combos[right[j]] equals scale[j] * combos[expect[j]], for each j.

    The combos' columns and numerators are built once, so a sweep may judge its
    pairs a chunk at a time.  expect[j] = -1 stands for zero.  scale is a field
    element given as one int for every pair, or a column of them, one per pair:
    int64 from _int_column, or Python ints where a residue does not fit.  With
    modulo_radical the two sides may differ by a radical element, as in_radical
    states it: every term of the difference has a middle of vanishing valency.
    The combos' terms become triple columns with integer numerators over one
    common denominator d (1 at prime characteristic), so the sides are compared
    times d^2: each pair's term pairs that chain, found by _chained_pairs, are
    multiplied by _mul_columns, its expected terms times scale * d are
    subtracted, and each sum per (pair, product triple) must vanish, mod p at
    prime characteristic.  Numerators are int64 below p = 2^31, reduced after
    each product, and at characteristic 0 while a bound on every sum stays below
    2^63; Python ints otherwise (_numerator_dtype).  A chunk of pairs has at most
    algebra._CHUNK_ENTRIES term pairs, chaining or not; their ranges are read from
    one _Index of the combos' terms by left mask (_bucket_index), built once too.
    """
    p, n = spec.characteristic, spec.n
    nums, d = _integral(c for combo in combos for c in combo.values())
    size = np.array([len(combo) for combo in combos], dtype=np.int64)
    terms = int(size.max(initial=0))
    top = max(map(abs, nums), default=0)
    start = np.cumsum(size) - size
    l1 = _int_column([sum(map(abs, nums[a : a + k])) for a, k in zip(start.tolist(), size.tolist())])
    nums = _int_column(nums)
    columns = _columns([t for combo in combos for t in combo])
    index = _bucket_index(spec, columns, size)
    stays = np.array([p_divides_valency(spec, m) for m in range(1 << n)]) if modulo_radical else None

    def agree(left: np.ndarray, right: np.ndarray, expect: np.ndarray, scale: int | np.ndarray) -> np.ndarray:
        column = not isinstance(scale, int)  # else one int, which numpy arithmetic broadcasts
        scale = np.asarray(scale) if column else scale
        # a pair's product of L1 norms is at most the largest left norm times the largest right one
        norms = int(l1[left].max(initial=0)) * int(l1[right].max(initial=0))
        high = int(np.abs(scale).max(initial=0)) if column else abs(scale)
        # at characteristic 0 a value held is a numerator, a scale, or a sum of
        # at most a product's _sum_bound plus |scale d c|
        dtype = _numerator_dtype(p, max(top, high, _sum_bound(spec, norms) + high * d * top))
        held = nums.astype(dtype, copy=False)
        scale = scale.astype(dtype, copy=False) if column else scale
        ok = np.ones(len(left), dtype=bool)
        for chunk in _chunks(len(left), terms * (terms + 1)):
            lo = chunk.start
            l, r, e = left[lo : chunk.stop], right[lo : chunk.stop], expect[lo : chunk.stop]
            rows, s, t = _chained_pairs(spec, columns, size, l, r, index)
            factor, product = _mul_columns(spec, columns[:, s], columns[:, t])
            lhs = held[s] * held[t] % p * factor % p if p else held[s] * held[t] * factor
            at, k = _spread(np.where(e < 0, 0, size[e]))
            u = start[e][at] + k
            c = scale[lo + at] if column else scale
            rhs = c * held[u] % p if p else c * d * held[u]
            keys = np.concatenate([rows << 3 * n | _key(spec, product), at << 3 * n | _key(spec, columns[:, u])])
            if not keys.size:
                continue
            keys, sums = _sum_by_key(keys, np.concatenate([lhs, -rhs]))
            off = (sums % p if p else sums) != 0
            if stays is not None:
                off &= ~stays[keys >> n & spec.full_mask]
            ok[lo + (keys[off] >> 3 * n)] = False
        return ok

    return agree


def _first_failure(ok: np.ndarray) -> Optional[int]:
    """The position of the first False in a flat array of identity verdicts, or None."""
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else None


def _integer(field: GroundField, c: object) -> Optional[int]:
    """c as an int when it is a field element of integer value, else None."""
    try:
        c = field.of(c)
    except ValueError:
        return None
    return int(c) if field.characteristic or c.denominator == 1 else None


def _equal_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether a[k] == b[k] for each matrix k of two stacks."""
    return (a == b).reshape(len(a), -1).all(axis=1)


def _check_oracle_sanity(spec, base_points, rng, cap) -> Outcome:
    size = spec.num_points
    ident = oracle.identity_matrix(spec, cap)
    count = 0
    if not oracle.mat_eq(oracle.adjacency_matrix(spec, 0, cap), ident):
        return False, count, "adjacency at the empty mask is not the identity"
    count += 1
    ones_total = 0
    for g in range(1 << spec.n):
        a = oracle.adjacency_matrix(spec, g, cap)
        k = valency(spec, g)
        if np.any(np.count_nonzero(a, axis=1) != k):
            return False, count, f"row sums of adjacency {render_mask(g, spec.n)} differ from {k}"
        count += 1
        ones_total += k
    if ones_total != size:
        return False, count, "adjacency valencies do not add up to the point count"
    count += 1
    width = 1 << spec.n
    for x in base_points:
        duals = np.stack([oracle.dual_idempotent(spec, x, g, cap) for g in range(width)])
        for chunk in _chunks(width**2, size**2):
            g, h = np.divmod(np.arange(chunk.start, chunk.stop), width)
            prods = oracle.mat_mul(spec, duals[g], duals[h])
            bad = _first_failure(_equal_each(prods, duals[g] * (g == h)[:, None, None]))
            if bad is not None:
                g, h = divmod(chunk[bad], width)
                return False, count + bad, (
                    f"dual idempotents at {render_mask(g, spec.n)} and"
                    f" {render_mask(h, spec.n)} break orthogonality at base point {x}"
                )
            count += len(chunk)
        if not oracle.mat_eq(oracle._reduce(spec, duals.sum(axis=0)), ident):
            return False, count, f"dual idempotents at base point {x} do not sum to the identity"
        count += 1
    return True, count, ""


def _check_dimension_rank(spec, base_points, rng, cap) -> Outcome:
    triples = basis_triples(spec)
    expected = dimension(spec)
    if len(triples) != expected:
        return False, 0, f"enumerated {len(triples)} basis triples, formula gives {expected}"
    x = base_points[0]
    rank = oracle.span_rank(spec, oracle.realize_stack(spec, triples, x, cap, raw=True))
    if rank != expected:
        return False, 1, f"oracle span rank {rank} differs from dimension {expected}"
    return True, 2, f"dim {expected}"


def _check_structure_constants(spec, base_points, rng, cap) -> Outcome:
    triples = basis_triples(spec)
    size = len(triples)
    g, _, i = columns = _columns(triples)
    # position[key] of each basis triple, -1 elsewhere: 8^n entries (n <= 7 under run_all)
    position = np.full(8**spec.n, -1)
    position[_key(spec, columns)] = np.arange(size)
    x = base_points[0]
    stack = oracle.realize_stack(spec, triples, x, cap)
    # realize_stack builds the matrix of (g, h, i) as E*_g (...) E*_i, zero outside rows
    # P_g and columns P_i, P_m the points x relates to by m.  So a pair whose middles
    # differ (i != j) has a zero product, and the engine must give it coefficient 0.  A
    # pair through middle i is the product of its (P_g, P_i) and (P_i, P_l) blocks, which
    # must equal c times the target's (P_g, P_l) block, and the target must be a basis
    # triple with outer masks (g, l).  The blocks are read off the relation table's row
    # at x, so the oracle shares no formula with the engine.
    row = oracle.relation_matrix(spec, cap)[oracle._point_index(spec, x)]
    counts = np.bincount(row, minlength=1 << spec.n)
    reach = np.bincount(np.repeat(g, counts[i]), minlength=1 << spec.n)  # block columns at left mask m
    # A chunk of left triples in middle order meets all D right triples in the engine, and
    # its row blocks on the points of its middles meet the column blocks of the right
    # triples with those left masks in one oracle product; the costliest triple sizes it.
    by_middle, first = np.argsort(i, kind="stable"), size**2
    for chunk in _chunks(size, size + int((counts[g] * (counts[i] + reach[i])).max())):
        left = by_middle[chunk.start : chunk.stop]
        coeffs, product = _mul_columns(spec, columns[:, left, None], columns[:, None, :])
        target = position[_key(spec, product)]
        outer = (product[0] == g[left, None]) & (product[2] == i)
        ok = (coeffs == 0) | ((i[left, None] == g) & (target >= 0) & outer)
        m0, m1 = i[left[0]], i[left[-1]]
        right = np.flatnonzero((m0 <= g) & (g <= m1))
        # the left triple and point of each row of the row blocks, the right triple and
        # point of each column of the column blocks, and the points of the middles
        a, y = np.nonzero(g[left, None] == row)
        b, z = np.nonzero(i[right, None] == row)
        b, y, inner = right[b], y[:, None], np.flatnonzero((m0 <= row) & (row <= m1))
        lhs = oracle.mat_mul(spec, stack[left[a, None], y, inner], stack[b, inner[:, None], z])
        # c times the target's block, read at flat positions, which numpy takes fastest
        pair = a[:, None] * size + b  # a target of -1 has already failed its pair
        rhs = coeffs.take(pair) * stack.reshape(-1).take(target.take(pair) * len(row) ** 2 + y * len(row) + z)
        r, c = np.divmod(np.flatnonzero(lhs != rhs), len(z))
        ok[a[r], b[c]] = False
        a, b = np.nonzero(~ok)
        first = min(first, int((left[a] * size + b).min(initial=first)))
    if first == size**2:
        return True, first, "exhaustive"
    t1, t2 = render_triple(spec, triples[first // size]), render_triple(spec, triples[first % size])
    return False, first, f"product {t1} * {t2} disagrees with the matrix oracle"


def _check_raw_roundtrip(spec, base_points, rng, cap) -> Outcome:
    x = base_points[0]
    count = 0
    triples = basis_triples(spec)
    for r in _chunks(len(triples), spec.num_points**2):
        chunk = triples[r.start : r.stop]
        elements = [Element.basis(spec, t) for t in chunk]
        raws = [to_raw(e) for e in elements]
        ok = np.empty((len(chunk), 2), dtype=bool)  # per triple: roundtrip, then realization
        ok[:, 0] = [from_raw(spec, raw) == e for raw, e in zip(raws, elements)]
        nums, d = oracle._realize_combinations(spec, raws, x, cap, raw=True)
        stack = oracle.realize_stack(spec, chunk, x, cap)
        ok[:, 1] = _equal_each(nums, stack if d == 1 else stack.astype(object) * d)
        bad = _first_failure(ok.ravel())
        if bad is not None:
            t = render_triple(spec, chunk[bad // 2])
            if bad % 2 == 0:
                return False, count + bad, f"roundtrip through the raw basis broke at {t}"
            return False, count + bad, f"raw expansion of {t} realizes differently"
        count += ok.size
    return True, count, ""


def _check_transpose(spec, base_points, rng, cap) -> Outcome:
    x = base_points[0]
    triples = basis_triples(spec)
    # The transpose of a basis element must be one term with coefficient 1, whose
    # basis matrix is the transposed one.
    one = spec.field.one()
    flips = [Element.basis(spec, t).transpose().terms for t in triples]
    single = np.array([len(terms) == 1 and one in terms.values() for terms in flips])
    flips = [next(iter(terms)) if ok else t for terms, ok, t in zip(flips, single, triples)]
    count = 0
    for r in _chunks(len(triples), 2 * spec.num_points**2):
        stack = oracle.realize_stack(spec, triples[r.start : r.stop] + flips[r.start : r.stop], x, cap)
        flipped = _equal_each(stack[len(r) :], stack[: len(r)].transpose(0, 2, 1))
        bad = _first_failure(single[r.start : r.stop] & flipped)
        if bad is not None:
            t = render_triple(spec, triples[r.start + bad])
            return False, count + bad, f"transpose of {t} realizes wrong"
        count += len(r)
    mode = "exhaustive"
    if len(triples) ** 2 > 4000:
        left, right = _sample(len(triples), 2, rng).T
        mode = f"pairs sampled {SAMPLE_COUNT}"
    else:
        left, right = np.divmod(np.arange(len(triples) ** 2), len(triples))
    # (t1 t2)^T = t2^T t1^T, where (g, h, i)^T = (i, h, g): flipping a column array transposes.
    columns = _columns(triples)
    c1, product = _mul_columns(spec, columns[:, left], columns[:, right])
    c2, flipped = _mul_columns(spec, columns[::-1, right], columns[::-1, left])
    same = np.all(np.array(product[::-1]) == np.array(flipped), axis=0)
    bad = _first_failure((c1 == c2) & ((c1 == 0) | same))
    if bad is not None:
        t1, t2 = triples[left[bad]], triples[right[bad]]
        return False, count + bad, (
            f"anti-automorphism fails on {render_triple(spec, t1)}, {render_triple(spec, t2)}"
        )
    return True, count + len(left), mode


def _check_intersection_numbers(spec, base_points, rng, cap) -> Outcome:
    table = oracle.relation_matrix(spec, cap)
    size, width = len(table), 1 << spec.n
    count = 0
    for i in range(width):
        y = int(np.argmax(table[0] == i))
        # brute[g, h] counts the points z with (x, z) in g and (z, y) in h, for x the first point.
        brute = np.bincount(table[0] * width + table[:, y], minlength=width * width)
        brute = brute.reshape(width, width)
        for g in range(width):
            for h in range(width):
                if brute[g, h] != intersection_number(spec, g, h, i):
                    return False, count, (
                        f"intersection number at ({render_mask(g, spec.n)},"
                        f" {render_mask(h, spec.n)}, {render_mask(i, spec.n)}) is wrong"
                    )
                count += 1
    # The draws are made one at a time, as the bound of each draw's rng.randrange is
    # that draw's count of triples (x2, y2, z2) related like (x1, y1, z1); which
    # triple each draw hits, and the triple counts, are then read off for all at once.
    draws, per_x2 = [], []
    for _ in range(20):
        x1, y1, z1 = (rng.randrange(size) for _ in range(3))
        rel = table[x1, y1], table[x1, z1], table[y1, z1]
        xy, xz, yz = (table == r for r in rel)
        # the triples per x2, counted without listing them
        per_x2.append(((xy.astype(np.int64) @ yz) * xz).sum(axis=1))
        k = rng.randrange(int(per_x2[-1].sum()))
        draws.append((x1, y1, z1, *rel, k, *(rng.randrange(width) for _ in range(3))))
    x1, y1, z1, rxy, rxz, ryz, k, g, h, i = np.array(draws, dtype=np.int64).T
    # Listed in lexicographic order, triple k lies in the slice of x2, then at row y2 of it.
    x2, k = _pick(np.array(per_x2), k)
    rows = table[x2]
    hits = (rows == rxy[:, None])[:, :, None] & (rows == rxz[:, None])[:, None, :] & (table == ryz[:, None, None])
    y2, k = _pick(hits.sum(axis=2), k)
    z2, _ = _pick(hits[np.arange(len(k)), y2], k)
    at = [np.concatenate(ws) for ws in ((x1, x2), (y1, y2), (z1, z2))]
    counts = oracle._triple_counts(spec, at, [np.tile(m, 2) for m in (g, h, i)], cap)
    bad = _first_failure(counts[: len(k)] == counts[len(k) :])
    if bad is not None:
        return False, count + bad, "triple intersection count is not triply regular"
    return True, count + len(k), ""


def _pick(counts: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of counts, the position holding the k-th unit counted left to right
    from 0, and k less the units before that position."""
    ends = np.cumsum(counts, axis=1)
    at = np.count_nonzero(ends <= k[:, None], axis=1)
    rows = np.arange(len(k))
    return at, k - ends[rows, at] + counts[rows, at]


def _check_center_commutation(spec, base_points, rng, cap) -> Outcome:
    width = 1 << spec.n
    indices = central_indices(spec)
    # Commutation compares products over the same denominators, so numerators suffice.
    adjacency = np.stack([oracle.adjacency_matrix(spec, h, cap) for h in range(width)])
    adjacency = oracle._integer_form(adjacency)[0]
    count = 0
    for x in base_points:
        duals = np.stack([oracle.dual_idempotent(spec, x, h, cap) for h in range(width)])
        duals = oracle._integer_form(duals)[0]
        centrals, _ = oracle._realize_combinations(
            spec, [central_element(spec, g).terms for g in indices], x, cap
        )
        for chunk in _chunks(len(indices) * width, spec.num_points**2):
            c, h = np.divmod(np.arange(chunk.start, chunk.stop), width)
            ok = np.empty((len(chunk), 2), dtype=bool)  # per pair: adjacency, then dual idempotent
            for col, others in enumerate((adjacency[h], duals[h])):
                left = oracle.mat_mul(spec, centrals[c], others)
                ok[:, col] = _equal_each(left, oracle.mat_mul(spec, others, centrals[c]))
            bad = _first_failure(ok.ravel())
            if bad is not None:
                c, h = divmod(chunk[bad // 2], width)
                g, h = render_mask(indices[c], spec.n), render_mask(h, spec.n)
                other = f"adjacency {h} at" if bad % 2 == 0 else f"the dual idempotent at {h},"
                return False, count + bad, f"center element {g} does not commute with {other} base point {x}"
            count += ok.size
    return True, count, ""


def _check_center_structure(spec, base_points, rng, cap) -> Outcome:
    field = spec.field
    indices = central_indices(spec)
    if len(indices) != 2**spec.n2:
        return False, 0, f"{len(indices)} central indices, formula gives {2 ** spec.n2}"
    count = 1
    full = spec.full_mask
    position = {g: k for k, g in enumerate(indices)}
    elements = [central_element(spec, g) for g in indices]
    # Per pair: its closed form (scalar, union) as an expected combination and int
    # scale, and whether the product and full-corner identities hold.  A union that
    # is no central index, or a scalar that is no integer field element, fails the
    # product identity.
    expect, scale, named, corner = [], [], [], []
    for g, h in itertools.product(indices, indices):
        scalar, union = center_mul(spec, g, h)
        c = _integer(field, scalar)
        named.append(union in position and c is not None)
        expect.append(position[union] if named[-1] else -1)
        scale.append(c if named[-1] else 0)
        corner.append((corner_mul(spec, full, g, h) or (field.zero(), union)) == (scalar, union))
    left, right = np.divmod(np.arange(len(indices) ** 2), len(indices))
    terms = [e.terms for e in elements]
    expect, scale = np.array(expect, dtype=np.int64), _int_column(scale)
    products = _agreement(spec, terms)(left, right, expect, scale) & named
    bad = _first_failure(np.stack([products, corner], axis=-1).ravel())
    if bad is not None:
        g, h = render_mask(indices[left[bad // 2]], spec.n), render_mask(indices[right[bad // 2]], spec.n)
        if bad % 2 == 0:
            return False, count + bad, f"center product at ({g}, {h}) disagrees with its closed form"
        return False, count + bad, f"center product and full-corner product disagree at ({g}, {h})"
    count += 2 * len(left)
    for g, element in zip(indices, elements):
        if not is_central(spec, element):
            return False, count, f"center basis element {render_mask(g, spec.n)} fails is_central"
        count += 1
    # A product of two basis elements is one term, so the triple law decides commutation.
    # Every triple t meets the triples u a block at a time, in order, and only the t that
    # commute with every u so far meet the next block, which holds at most
    # algebra._CHUNK_ENTRIES pairs (one u at least), as the one-at-a-time loop stopped at
    # a t's first u that does not commute.  Where a block is the whole square, the
    # products u * t are the transpose of t * u.
    triples, one = basis_triples(spec), field.one()
    columns = _columns(triples)
    live, lo = np.arange(len(triples)), 0
    while live.size and lo < len(triples):
        hi = min(len(triples), lo + max(1, algebra._CHUNK_ENTRIES // live.size))
        ts, us = columns[:, live, None], columns[:, None, lo:hi]
        tu, a = _mul_columns(spec, ts, us)
        whole = live.size == hi - lo == len(triples)
        ut, b = (tu.T, [x.T for x in a]) if whole else _mul_columns(spec, us, ts)
        same = (a[0] == b[0]) & (a[1] == b[1]) & (a[2] == b[2])
        live, lo = live[np.all((tu == ut) & ((tu == 0) | same), axis=1)], hi
    commutes = np.zeros(len(triples), dtype=bool)
    commutes[live] = True
    for t, central in zip(triples, commutes.tolist()):
        if is_central(spec, Element._with_terms(spec, {t: one})) != central:
            return False, count, (
                f"is_central({render_triple(spec, t)}) disagrees with commutation"
            )
        count += 1
    rad = center_rad_basis(spec)
    index = center_nilpotent_index(spec)
    qual = qualifying_coordinates(spec)
    if len(qual) + 1 != index:
        return False, count, "center nilpotent index formula broke"
    count += 1
    if not qual:
        return True, count, ""
    m = 0  # from the center identity at 0, the chain must stay nonzero at every step
    for a in qual:
        scalar, m = center_mul(spec, m, 1 << a)
        if field.is_zero(scalar):
            return False, count, "product of the qualifying center chain vanished early"
    count += 1
    step = functools.partial(_mask_columns, spec)
    settled, nonzero, sample = _sweep((np.array(rad, dtype=np.int64),), index, rng, step)
    count += settled
    if nonzero is not None:
        return False, count, "a length-index product of center radical elements is nonzero"
    mode = "" if sample is None else f"sampled {SAMPLE_COUNT} of {len(rad) ** index} sequences"
    return True, count, mode


def _check_radical_nilpotency(spec, base_points, rng, cap) -> Outcome:
    rad = radical_triples(spec)
    if len(rad) != rad_dim(spec):
        return False, 0, "radical basis filter is inconsistent"
    count = 1
    triples = basis_triples(spec)
    basis, radical = _columns(triples), _columns(rad)
    stays = np.array([p_divides_valency(spec, m) for m in range(1 << spec.n)])
    # The sweep holds (t, r) and then (r, t) for each basis triple t, for each
    # radical triple r: a block of radical rows is one (rows, D, 2) array of pairs.
    t = basis[:, None]
    for block in _chunks(len(rad), 2 * len(triples)):
        r = radical[:, block.start : block.stop, None]
        products = (_mul_columns(spec, t, r), _mul_columns(spec, r, t))
        holds = [(c == 0) | stays[middle] for c, (_, middle, _) in products]
        bad = _first_failure(np.stack(holds, axis=-1).ravel())
        if bad is not None:
            r, q = divmod(bad, 2 * len(triples))
            t1, t2 = (triples[q // 2], rad[block.start + r])[:: -1 if q % 2 else 1]
            return False, count + 2 * len(triples) * block.start + bad, (
                f"ideal closure fails: {render_triple(spec, t1)} *"
                f" {render_triple(spec, t2)} leaves the radical"
            )
    count += 2 * len(rad) * len(triples)
    index = nilpotent_index(spec)
    if not rad:
        return True, count, "radical is zero"
    # A product of basis elements is one nonzero term or zero, so the sweep runs on triples.
    settled, nonzero, sample = _sweep(tuple(radical), index, rng, functools.partial(_mul_columns, spec))
    count += settled
    total = len(rad) ** index
    if sample is None:
        mode = f"exhaustive {total} sequences"
        checked = np.transpose(np.unravel_index(np.arange(min(total, ORACLE_SAMPLE)), (len(rad),) * index))
    else:
        mode = f"sampled {SAMPLE_COUNT} of {total} sequences"
        checked = sample[:ORACLE_SAMPLE]
    if nonzero is not None:
        names = " * ".join(render_triple(spec, rad[k]) for k in nonzero)
        return False, count, f"nonzero product of {index} radical elements: {names}"
    used, seqs = np.unique(checked, return_inverse=True)
    stack = oracle.realize_stack(spec, [rad[k] for k in used], base_points[0], cap)
    seqs = seqs.reshape(checked.shape)
    for r in _chunks(len(checked), spec.num_points**2):
        nonzero = _nonzero_products(spec, stack, seqs[r.start : r.stop])
        if nonzero.size:
            return False, count + int(nonzero[0]), "oracle found a nonzero radical product the engine missed"
        count += len(r)
    return True, count, mode


def _nonzero_products(spec: SchemeSpec, stack: np.ndarray, seqs: np.ndarray) -> np.ndarray:
    """The rows of seqs whose product of stack matrices, left to right, is nonzero.

    All sequences are multiplied one factor at a time as one stack; a sequence
    leaves the stack as soon as its prefix product is zero.
    """
    live, acc = np.arange(len(seqs)), stack[seqs[:, 0]]
    for k in range(1, seqs.shape[1] + 1):
        keep = (acc != 0).reshape(len(acc), -1).any(axis=1)
        live, acc = live[keep], acc[keep]
        if k == seqs.shape[1] or not live.size:
            return live
        acc = oracle.mat_mul(spec, acc, stack[seqs[live, k]])


def _check_radical_witness(spec, base_points, rng, cap) -> Outcome:
    if not radical_triples(spec):
        try:
            witness_chain(spec)
        except ValueError:
            return True, 1, "radical is zero; witness correctly refused"
        return False, 0, "witness_chain should refuse a zero radical"
    chain = witness_chain(spec)
    m = len(qualifying_coordinates(spec))
    if len(chain) != 2 * m:
        return False, 0, f"witness chain has {len(chain)} entries, wanted {2 * m}"
    count = 1
    for t in chain:
        if not p_divides_valency(spec, t[1]):
            return False, count, f"witness entry {render_triple(spec, t)} is not radical"
        count += 1
    prod = functools.reduce(Element.mul, [Element.basis(spec, t) for t in chain])
    if prod.is_zero():
        return False, count, "witness chain product vanished symbolically"
    count += 1
    for x in base_points:
        if oracle.is_zero_matrix(oracle.realize(spec, prod, x, cap)):
            return False, count, f"witness chain product realizes to zero at base point {x}"
        count += 1
    return True, count, ""


def _check_quotient_matrix_units(spec, base_points, rng, cap) -> Outcome:
    n = spec.n
    dts = quotient_triples(spec)
    sig = [_signature(spec.large_mask, t) for t in dts]
    members: dict[int, list[int]] = {}  # the positions in dts of each signature's triples
    for k, s in enumerate(sig):
        members.setdefault(s, []).append(k)
    slots: dict[tuple[int, int, int], int] = {}  # (signature, g, i) -> position in dts
    count = 0
    for b in wedderburn_blocks(spec):
        for k in members.get(b.signature, []):
            key = (b.signature, dts[k][0], dts[k][2])
            if key in slots:
                return False, count, (
                    f"two triples share the block slot {render_mask(key[1], n)},"
                    f" {render_mask(key[2], n)} in signature {render_mask(b.signature, n)}"
                )
            slots[key] = k
        for g in b.rows:
            for i in b.rows:
                if (b.signature, g, i) not in slots:
                    return False, count, (
                        f"missing block slot ({render_mask(g, n)}, {render_mask(i, n)})"
                        f" in signature {render_mask(b.signature, n)}"
                    )
                count += 1
    # held[s << 2n | g << n | i] is the position in dts of slot (s, g, i), -2 where no
    # block holds the slot: 8^n entries, as structure-constants' position table.
    held = np.full(8**n, -2)
    held[[s << 2 * n | g << n | i for s, g, i in slots]] = list(slots.values())
    sigs, columns = np.array(sig, dtype=np.int64), _columns(dts)
    agree = _agreement(spec, [semisimple_rep(spec, t).terms for t in dts], modulo_radical=True)
    # Each chunk's pairs are judged by the law, then, up to the first lift failure, by the
    # lift; that failure is reported once every law identity holds.  A chunk's pairs take
    # about 16 int64 entries each.
    lift = None
    for chunk in _chunks(len(dts) ** 2, 16):
        left, right = np.divmod(np.arange(chunk.start, chunk.stop), len(dts))
        a, b = columns[:, left], columns[:, right]
        # the position in dts of the product the block structure gives each pair: -1 for
        # zero, -2 for a slot no block holds
        expect = held[sigs[left] << 2 * n | a[0] << n | b[2]]
        expect = np.where((sigs[left] == sigs[right]) & (a[2] == b[0]), expect, -1)
        live, product = _quotient_law(spec.large_mask, a, b)
        same = np.all(np.array(product) == columns[:, expect], axis=0)
        bad = _first_failure(np.where(expect == -1, ~live, live & same & (expect >= 0)))
        if bad is not None:
            t1, t2 = dts[left[bad]], dts[right[bad]]
            return False, count + chunk.start + bad, (
                f"matrix unit law fails at {render_triple(spec, t1)} * {render_triple(spec, t2)}"
            )
        if lift is None and (bad := _first_failure(agree(left, right, expect, 1))) is not None:
            t1, t2 = dts[left[bad]], dts[right[bad]]
            lift = count + len(dts) ** 2 + chunk.start + bad, (
                f"lifted product at {render_triple(spec, t1)} * {render_triple(spec, t2)}"
                " differs from the representative beyond the radical"
            )
    return (False, *lift) if lift else (True, count + 2 * len(dts) ** 2, "")


def _check_block_bookkeeping(spec, base_points, rng, cap) -> Outcome:
    blocks = wedderburn_blocks(spec)
    dim_t = dimension(spec)
    dim_d = len(quotient_triples(spec))
    rad = len(radical_triples(spec))
    count = 0
    if sum(b.size**2 for b in blocks) != dim_d:
        return False, count, "block sizes do not square-sum to the quotient dimension"
    count += 1
    if dim_d != dim_t - rad:
        return False, count, "quotient dimension is not dim T minus radical dimension"
    count += 1
    v = verdicts(spec)
    fine = rad == 0
    if v != {"semisimple": fine, "frobenius": fine, "symmetric": fine}:
        return False, count, "verdicts disagree with the radical dimension"
    count += 1
    return True, count, ""


def _check_frobenius_falsification(spec, base_points, rng, cap) -> Outcome:
    witness = frobenius_witness(spec)
    if not radical_triples(spec):
        if witness is not None:
            return False, 0, "semisimple algebra produced a falsification witness"
        return True, 1, "semisimple; no witness expected"
    if witness is None:
        return False, 0, "non-semisimple algebra produced no witness"
    gens = frobenius_left_ideal(spec)
    count = 1
    x = base_points[0]
    rank = oracle.span_rank(spec, oracle._realize_combinations(spec, [e.terms for e in gens], x, cap)[0])
    if rank != witness["left_ideal_dim"]:
        return False, count, f"left ideal rank {rank} differs from {witness['left_ideal_dim']}"
    count += 1
    ann = oracle.annihilator_dim(spec, gens, x, cap)
    if ann != witness["annihilator_dim"]:
        return False, count, f"oracle annihilator dim {ann} differs from {witness['annihilator_dim']}"
    count += 1
    dim_t = dimension(spec)
    if witness["total"] != rank + ann or witness["total"] >= dim_t:
        return False, count, "witness total fails to fall short of the algebra dimension"
    count += 1
    return True, count, f"{rank} + {ann} < {dim_t}"


def _check_corner_structure(spec, base_points, rng, cap) -> Outcome:
    field, n = spec.field, spec.n
    step = functools.partial(_mask_columns, spec)
    loops = [t for t in basis_triples(spec) if t[0] == t[2]]
    # Corner by corner the bookkeeping and the radical sweep run at once, up to the first
    # failure, and each product identity is gathered with its position in loop order, the
    # count a one-at-a-time loop reaches it at.  The products are then judged as stacks,
    # and of the failures found the one with the least position is reported.
    count, sampled, failure = 0, 0, None
    squares = []  # (g, h, i, corner_mul's answer, position) of the full-product identities
    reps = []  # the terms of every corner's representatives, corner by corner
    pairs = []  # (rep a, rep b, position, g, a, b); the matrix identity follows the symbolic one
    actions = []  # (g, h, rep i, scale, position, i)
    for g in range(1 << n):
        at = render_mask(g, n)
        middles = corner_basis(spec, g)
        if sorted(middles) != sorted(h for f, h, _ in loops if f == g):
            failure = count, f"corner basis at {at} disagrees with enumeration"
            break
        count += 1
        rad = corner_rad_basis(spec, g)
        surviving = [a for a in middles if not p_divides_valency(spec, a)]
        if len(middles) != len(rad) + len(surviving):
            failure = count, f"corner dimension split fails at {at}"
            break
        count += 1
        index = corner_nilpotent_index(spec, g)
        if index != 1 + sum(1 for a in rad if bin(a).count("1") == 1):
            failure = count, f"corner nilpotent index formula fails at {at}"
            break
        count += 1
        for h, i in itertools.product(middles, middles):
            hit = corner_mul(spec, g, h, i)
            if hit != corner_mul(spec, g, i, h):
                failure = count, f"corner product is not commutative at {at}"
                break
            squares.append((g, h, i, hit, count + 1))
            count += 2
        if failure is not None:
            break
        if rad:
            settled, nonzero, sample = _sweep((np.array(rad, dtype=np.int64),), index, rng, step)
            count += settled
            if nonzero is not None:
                failure = count, f"corner radical at {at} is not nilpotent at its index"
                break
            sampled += sample is not None
        first = len(reps)
        reps += [semisimple_rep(spec, (g, a, g)).terms for a in surviving]
        for (ka, a), (kb, b) in itertools.product(enumerate(surviving, first), repeat=2):
            pairs.append((ka, kb, count, g, a, b))
            count += 2
        for h, (ki, i) in itertools.product(surviving, enumerate(surviving, first)):
            scale = int(field.of(valency(spec, h))) if subset_of(spec, h, i) else 0
            actions.append((g, h, ki, scale, count, i))
            count += 1
    found = [] if failure is None else [failure]
    if squares:
        g, h, i, hits, where = zip(*squares)
        g, h, i = (np.array(col, dtype=np.int64) for col in (g, h, i))
        # a product of two basis elements is one term: its coefficient and triple
        coeffs, product = _mul_columns(spec, (g, h, g), (g, i, g))
        want = np.array([0 if hit is None else field.of(hit[0]) for hit in hits], dtype=object)
        middle = np.array([-1 if hit is None else hit[1] for hit in hits], dtype=np.int64)
        same = np.all(np.array(product) == np.array([g, middle, g]), axis=0)
        bad = _first_failure((coeffs == want) & ((coeffs == 0) | same))
        if bad is not None:
            at = render_mask(g[bad], n)
            found.append((where[bad], f"corner product disagrees with full product at {at}"))
    if pairs:
        ka, kb = (np.array([pair[k] for pair in pairs], dtype=np.int64) for k in (0, 1))
        ki = np.array([action[2] for action in actions], dtype=np.int64)
        scale = [action[3] for action in actions]
        units = np.arange(len(reps), len(reps) + len(actions))  # the basis elements (g, h, g) acting
        one = field.one()
        combos = reps + [{(g, h, g): one} for g, h, *_ in actions]
        ok = _agreement(spec, combos)(
            np.concatenate([ka, units, ki]),
            np.concatenate([kb, ki, units]),
            np.concatenate([np.where(ka == kb, ka, -1), ki, ki]),
            _int_column([1] * len(pairs) + scale + scale),
        )
        # N_a N_b = delta_ab d N_a for the realized numerators N over their denominator d
        nums, d = oracle._realize_combinations(spec, reps, base_points[0], cap)
        matrices = np.empty(len(pairs), dtype=bool)
        for chunk in _chunks(len(pairs), spec.num_points**2):
            a, b = ka[chunk.start : chunk.stop], kb[chunk.start : chunk.stop]
            prods = oracle.mat_mul(spec, nums[a], nums[b])
            matrices[chunk.start : chunk.stop] = _equal_each(prods, nums[a] * (d * (a == b))[:, None, None])
        bad = _first_failure(np.stack([ok[: len(pairs)], matrices], axis=-1).ravel())
        if bad is not None:
            _, _, where, g, a, b = pairs[bad // 2]
            if bad % 2 == 0:
                found.append((where, (
                    f"corner representatives at {render_mask(g, n)} are not orthogonal"
                    f" idempotents ({render_mask(a, n)}, {render_mask(b, n)})"
                )))
            else:
                found.append((where + 1, f"corner idempotent matrices disagree at {render_mask(g, n)}"))
        acting = ok[len(pairs) :]
        bad = _first_failure(acting[: len(actions)] & acting[len(actions) :])
        if bad is not None:
            g, h, _, _, where, i = actions[bad]
            found.append((where, (
                f"corner action of {render_mask(h, n)} on the representative at"
                f" {render_mask(i, n)} is wrong at {render_mask(g, n)}"
            )))
    if found:
        return (False, *min(found))
    mode = f"radical sequences sampled at {sampled} of {1 << n} corners" if sampled else ""
    return True, count, mode


def _check_base_point_independence(spec, base_points, rng, cap) -> Outcome:
    dims, rad_dims = [], []
    for x in base_points:
        dims.append(oracle.span_rank(spec, oracle.realize_stack(spec, basis_triples(spec), x, cap, raw=True)))
        rad_dims.append(oracle.span_rank(spec, oracle.realize_stack(spec, radical_triples(spec), x, cap)))
    count = 0
    if len(set(dims)) != 1:
        return False, count, f"algebra span ranks differ across base points: {dims}"
    count += 1
    if len(set(rad_dims)) != 1:
        return False, count, f"radical span ranks differ across base points: {rad_dims}"
    count += 1
    if rad_dims[0] != len(radical_triples(spec)):
        return False, count, "realized radical rank differs from the symbolic dimension"
    count += 1
    return True, count, f"dim {dims[0]}, radical {rad_dims[0]}, {len(base_points)} base points"


ALL_CHECKS: list[tuple[str, CheckFn]] = [
    ("oracle-sanity", _check_oracle_sanity),
    ("dimension-rank", _check_dimension_rank),
    ("intersection-numbers", _check_intersection_numbers),
    ("raw-basis-roundtrip", _check_raw_roundtrip),
    ("structure-constants", _check_structure_constants),
    ("transpose", _check_transpose),
    ("center-structure", _check_center_structure),
    ("center-commutation", _check_center_commutation),
    ("radical-nilpotency", _check_radical_nilpotency),
    ("radical-witness", _check_radical_witness),
    ("quotient-matrix-units", _check_quotient_matrix_units),
    ("block-bookkeeping", _check_block_bookkeeping),
    ("frobenius-falsification", _check_frobenius_falsification),
    ("corner-structure", _check_corner_structure),
    ("base-point-independence", _check_base_point_independence),
]


def run_all(
    spec: SchemeSpec,
    base_points: int = 2,
    seed: int = DEFAULT_SEED,
    cap: int = DEFAULT_ORACLE_CAP,
) -> list[CheckResult]:
    """Run every check against one spec; raises only for invalid inputs, never on failures.

    A spec above the oracle cap, whose realized basis stack would exceed
    STACK_BYTES_BOUND, or above ORACLE_POINT_BOUND points is refused with
    ValueError before anything is realized.
    """
    if base_points < 2:
        raise ValueError("at least two base points are required")
    if spec.num_points > cap:
        raise ValueError(
            f"point set has {spec.num_points} elements, above the oracle cap {cap}"
        )
    stack_bytes = dimension(spec) * spec.num_points**2
    if stack_bytes > STACK_BYTES_BOUND:
        raise ValueError(
            f"the realized basis would take about {stack_bytes} bytes ({dimension(spec)} matrices"
            f" of {spec.num_points}^2 entries), above the bound of {STACK_BYTES_BOUND} bytes"
        )
    if spec.num_points > ORACLE_POINT_BOUND:
        raise ValueError(
            f"one dense oracle product at {spec.num_points} points takes {spec.num_points}^3 ="
            f" {spec.num_points**3} multiply-adds, above the bound of {ORACLE_POINT_BOUND}^3 ="
            f" {ORACLE_POINT_BOUND**3} ({ORACLE_POINT_BOUND} points)"
        )
    pts = pick_base_points(spec, base_points)
    results = []
    for name, fn in ALL_CHECKS:
        rng = random.Random(f"{seed}:{name}")
        started = time.perf_counter()
        passed, count, detail = fn(spec, pts, rng, cap)
        results.append(CheckResult(name, passed, count, time.perf_counter() - started, detail))
    return results
