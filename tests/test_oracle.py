"""The dense matrix oracle: raw scheme matrices and faithfulness of realize."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terwilliger import oracle
from terwilliger.algebra import Element, basis_triples, to_raw
from terwilliger.center import central_element, central_indices
from terwilliger.oracle import (
    adjacency_matrix,
    annihilator_dim,
    default_base_point,
    dual_idempotent,
    identity_matrix,
    is_zero_matrix,
    mat_eq,
    mat_mul,
    points,
    realize,
    realize_raw,
    realize_raw_triple,
    realize_triple,
    relation,
    relation_matrix,
    span_rank,
    triple_intersection_count,
)
from terwilliger.quotient import frobenius_left_ideal
from terwilliger.scheme import SchemeSpec, all_masks, submasks, valency
from terwilliger.verify import run_all

S23 = SchemeSpec(sizes=(2, 3))
S23_P2 = SchemeSpec(sizes=(2, 3), characteristic=2)
S23_P3 = SchemeSpec(sizes=(2, 3), characteristic=3)


def test_points_enumeration():
    got = points(S23)
    assert len(got) == 6
    assert got[0] == (0, 0)
    assert got[-1] == (1, 2)
    assert default_base_point(S23) == (0, 0)


def test_relation_is_the_disagreement_mask():
    assert relation(S23, (0, 0), (0, 0)) == 0
    assert relation(S23, (0, 0), (1, 0)) == 0b01
    assert relation(S23, (0, 0), (0, 2)) == 0b10
    assert relation(S23, (1, 2), (0, 1)) == 0b11


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 4), min_size=1, max_size=3))
def test_relation_matrix_is_the_pointwise_relation(sizes):
    spec = SchemeSpec(sizes=tuple(sizes))
    pts = points(spec)
    table = relation_matrix(spec)
    assert table.shape == (len(pts), len(pts))
    for row, x in enumerate(pts):
        for col, y in enumerate(pts):
            assert table[row, col] == relation(spec, x, y)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_triple_intersection_count_is_a_pointwise_count(data):
    spec = data.draw(st.sampled_from([S23, SchemeSpec(sizes=(2, 2, 3))]))
    pts = points(spec)
    x, y, z = (data.draw(st.sampled_from(pts)) for _ in range(3))
    g, h, i = (data.draw(st.sampled_from(all_masks(spec))) for _ in range(3))
    brute = sum(
        1
        for w in pts
        if relation(spec, x, w) == g and relation(spec, y, w) == h and relation(spec, z, w) == i
    )
    assert triple_intersection_count(spec, x, y, z, g, h, i) == brute


@pytest.mark.parametrize("characteristic", [0, 2, 1048583])
def test_oracle_matrices_are_int64_for_small_primes_and_python_ints_otherwise(characteristic):
    spec = SchemeSpec(sizes=(2, 3), characteristic=characteristic)
    mats = [
        adjacency_matrix(spec, 0b10),
        dual_idempotent(spec, (1, 2), 0b11),
        identity_matrix(spec),
        realize(spec, Element.zero(spec)),
    ]
    for m in mats:
        if characteristic == 2:
            assert m.dtype == np.int64
        else:
            assert m.dtype == object
            assert {type(v) for v in m.flat} == {int}
    assert mat_eq(mats[2], np.eye(6, dtype=np.int64))


@pytest.mark.parametrize("characteristic", [0, 5])
def test_realize_raw_refuses_inexact_coefficients(characteristic):
    spec = SchemeSpec(sizes=(2, 3), characteristic=characteristic)
    with pytest.raises(ValueError):
        realize_raw(spec, {(1, 1, 0): 0.5})


@pytest.mark.parametrize("bad", [0.5, 1.5, 1.0, True, np.int64(1)])
def test_oracle_refuses_masks_and_coordinates_that_are_not_ints(bad):
    with pytest.raises(ValueError, match="not a point"):
        relation(S23_P2, (0, bad), (0, 0))
    with pytest.raises(ValueError, match="not a point"):
        triple_intersection_count(S23_P2, (0, 0), (1, 1), (bad, 2), 0, 0, 0)
    with pytest.raises(ValueError, match="is not an int"):
        triple_intersection_count(S23_P2, (0, 0), (1, 1), (0, 2), bad, 0, 0)
    with pytest.raises(ValueError, match="is not an int"):
        adjacency_matrix(S23_P2, bad)
    with pytest.raises(ValueError, match="is not an int"):
        dual_idempotent(S23_P2, (0, 0), bad)


def test_adjacency_matrices_partition_all_pairs():
    total = sum(adjacency_matrix(S23, g) for g in all_masks(S23))
    assert np.all(np.asarray(total) == 1)
    assert mat_eq(adjacency_matrix(S23, 0), identity_matrix(S23))
    for g in all_masks(S23):
        a = adjacency_matrix(S23, g)
        assert mat_eq(a, a.T)
        assert set(np.asarray(a).sum(axis=1).tolist()) == {valency(S23, g)}


def test_dual_idempotents_partition_the_identity():
    x = (1, 2)
    total = sum(dual_idempotent(S23, x, g) for g in all_masks(S23))
    assert mat_eq(total, identity_matrix(S23))
    for g in all_masks(S23):
        e = dual_idempotent(S23, x, g)
        assert mat_eq(mat_mul(S23, e, e), e)
        for h in all_masks(S23):
            if h != g:
                assert is_zero_matrix(mat_mul(S23, e, dual_idempotent(S23, x, h)))


def test_realize_identity_and_zero():
    assert mat_eq(realize(S23_P3, Element.identity(S23_P3)), identity_matrix(S23_P3))
    assert is_zero_matrix(realize(S23_P3, Element.zero(S23_P3)))


def test_realize_matches_raw_realization():
    for spec in (S23, S23_P2):
        for triple in basis_triples(spec)[::3]:
            x = Element.basis(spec, triple, spec.field.of(3))
            assert mat_eq(realize(spec, x), realize_raw(spec, to_raw(x)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_realize_is_multiplicative(data):
    spec = data.draw(st.sampled_from([S23, S23_P2, S23_P3]))
    triples = st.sampled_from(basis_triples(spec))
    coeffs = st.integers(-4, 4)

    def draw_elt():
        x = Element.zero(spec)
        for trip, c in data.draw(st.lists(st.tuples(triples, coeffs), max_size=3)):
            x = x.add(Element.basis(spec, trip, spec.field.of(c)))
        return x

    x, y = draw_elt(), draw_elt()
    lhs = realize(spec, x.mul(y))
    rhs = mat_mul(spec, realize(spec, x), realize(spec, y))
    assert mat_eq(lhs, rhs)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_realize_respects_transpose(data):
    spec = S23_P3
    triple = data.draw(st.sampled_from(basis_triples(spec)))
    x = Element.basis(spec, triple)
    assert mat_eq(realize(spec, x.transpose()), realize(spec, x).T)


def test_span_rank_of_the_full_basis_is_the_dimension():
    for spec in (S23, S23_P2, S23_P3):
        mats = [realize(spec, Element.basis(spec, triple)) for triple in basis_triples(spec)]
        assert span_rank(spec, mats) == 20
        assert span_rank(spec, mats + mats) == 20
    assert span_rank(S23, [identity_matrix(S23)]) == 1
    assert span_rank(S23, []) == 0


def test_realize_honors_the_base_point():
    spec = S23_P2
    triple = basis_triples(spec)[5]
    a = realize(spec, Element.basis(spec, triple), base_point=(0, 0))
    b = realize(spec, Element.basis(spec, triple), base_point=(1, 2))
    assert a.shape == b.shape
    assert not mat_eq(a, b)  # this particular triple moves with the base point


def test_oracle_cap_is_enforced():
    big = SchemeSpec(sizes=(7, 7, 7))
    with pytest.raises(ValueError):
        adjacency_matrix(big, 0, cap=200)
    small_cap = SchemeSpec(sizes=(2, 3))
    with pytest.raises(ValueError):
        realize(small_cap, Element.identity(small_cap), cap=4)


def test_annihilator_dimension_golden():
    assert annihilator_dim(S23_P2, frobenius_left_ideal(S23_P2)) == 16
    assert annihilator_dim(S23_P2, [Element.zero(S23_P2)]) == 20
    assert annihilator_dim(S23_P2, [Element.identity(S23_P2)]) == 0


def _raw_product(spec, t, x):
    """E*_g A_h E*_i as an honest product of a diagonal, an adjacency and a diagonal matrix."""
    g, h, i = t
    left = mat_mul(spec, dual_idempotent(spec, x, g), adjacency_matrix(spec, h))
    return mat_mul(spec, left, dual_idempotent(spec, x, i))


@pytest.mark.parametrize(
    "sizes, characteristic",
    [((2, 3), 2), ((2, 3), 0), ((3, 3), 2), ((2, 4), 3), ((2, 2, 3), 5), ((2, 3), 1048583)],
)
def test_realized_triples_are_the_matrix_products_summed_over_the_interval(sizes, characteristic):
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    pts = points(spec)
    for x in (pts[0], pts[len(pts) // 2], pts[-1]):
        for g, h, i in basis_triples(spec):
            raw = realize_raw_triple(spec, (g, h, i), x)
            expected = _raw_product(spec, (g, h, i), x)
            assert raw.dtype == expected.dtype and mat_eq(raw, expected)
            lo = g ^ i
            total = sum(realize_raw_triple(spec, (g, lo | j, i), x) for j in submasks(h & ~lo))
            if characteristic:
                total %= characteristic
            got = realize_triple(spec, (g, h, i), x)
            assert got.dtype == expected.dtype and mat_eq(got, total)


def test_integral_central_elements_realize_with_int_entries_at_characteristic_zero():
    spec = SchemeSpec(sizes=(3, 3), characteristic=0)
    for g in central_indices(spec):
        m = realize(spec, central_element(spec, g))
        assert {type(v) for v in m.flat} == {int}


def test_relation_table_is_read_only():
    table = relation_matrix(S23)
    with pytest.raises(ValueError):
        table[0, 1] = 0


def test_run_all_builds_the_relation_table_once():
    oracle._relation_table.cache_clear()
    run_all(SchemeSpec(sizes=(3, 3), characteristic=2))
    assert oracle._relation_table.cache_info().misses == 1


def _object_matrix(rows):
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            out[r, c] = v
    return out


# Entry kinds for char-0 matrices: 0/1, small signed ints, rationals, and
# integers near 2^31 and 2^62, so that products land on both sides of the
# int64 bound max|A| * max|B| * k < 2^63.
_ENTRIES = [
    st.integers(0, 1),
    st.integers(-5, 5),
    st.fractions(-5, 5, max_denominator=7),
    st.integers(2**31 - 4, 2**31 + 4) | st.integers(-(2**31) - 4, -(2**31) + 4),
    st.integers(2**62 - 4, 2**62 + 4) | st.integers(0, 1),
]


def _matrix(data, n, k):
    entries = data.draw(st.sampled_from(_ENTRIES))
    return _object_matrix(
        [[data.draw(entries) for _ in range(k)] for _ in range(n)]
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_characteristic_zero_product_equals_the_object_product(data):
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a, b = _matrix(data, n, k), _matrix(data, k, m)
    expected = a @ b  # Python int and Fraction arithmetic, entry by entry
    got = mat_mul(S23, a, b)
    assert got.dtype == object and got.shape == expected.shape
    assert all(type(v) in (int, Fraction) for v in got.flat)
    assert got.tolist() == expected.tolist()


def _reference_rank(vectors, p=0):
    """Row rank by Gaussian elimination over Fraction, or over the integers mod p, as a reference."""
    canon = (lambda v: v % p) if p else Fraction
    rows = [[canon(v) for v in vec] for vec in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                if p:
                    factor = rows[r][col] * pow(rows[rank][col], -1, p)
                else:
                    factor = rows[r][col] / rows[rank][col]
                rows[r] = [canon(x - factor * y) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# Characteristic 0 has Fraction rows; 2, 3 and 1048583 int64 rows; 2^61 - 1 and
# 2^64 + 13 Python-int rows, the latter above int64.
RANK_CHARACTERISTICS = [0, 2, 3, 1048583, 2**61 - 1, 2**64 + 13]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_characteristic_zero_span_rank_equals_fraction_elimination(data):
    # Every field shares one elimination, so this covers each prime too.  The family
    # has more rows than base vectors, so some rows are dependent and vanish only after
    # several leading-column steps.
    p = data.draw(st.sampled_from(RANK_CHARACTERISTICS))
    spec = SchemeSpec(sizes=(2, 3), characteristic=p)
    shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6)))
    length = shape[0] * shape[1]
    if p:
        scalars = st.one_of(st.integers(-4, 4), st.integers(0, p - 1))
    else:
        scalars = st.fractions(-4, 4, max_denominator=6)
    base = [[data.draw(scalars) for _ in range(length)] for _ in range(data.draw(st.integers(1, 4)))]
    family = []
    for _ in range(data.draw(st.integers(len(base) + 1, len(base) + 4))):
        coeffs = [data.draw(st.integers(-3, 3)) for _ in base]
        combo = [sum(c * vec[j] for c, vec in zip(coeffs, base)) for j in range(length)]
        family.append([v % p for v in combo] if p else combo)
    mats = [_object_matrix([vec[r * shape[1]:(r + 1) * shape[1]] for r in range(shape[0])]) for vec in family]
    if 0 < p < 1 << 20:
        mats = [m.astype(np.int64) for m in mats]  # the oracle's matrix type there
    rank = _reference_rank(family, p)
    assert span_rank(spec, mats) == rank
    # echelon form: one pivot per leading column, each its nonzero entries in column order
    pivots = oracle._pivot_rows(spec, oracle._blocks(np.stack(mats)))
    cols = [int(at[0]) for at, _ in pivots]
    assert len(set(cols)) == len(cols) == rank
    assert all(len(at) == len(values) and np.all(np.diff(at) > 0) and np.all(values != 0) for at, values in pivots)


@pytest.mark.parametrize("characteristic", [0, 3, 2**61 - 1])
@pytest.mark.parametrize("sizes", [(2, 3), (3, 3)])
def test_annihilator_dim_is_the_nullity_of_the_generators_images(sizes, characteristic):
    # The right annihilator of the left ideal T G the generators G span is theirs, as
    # T holds 1: the nullity of t -> (G_1 t, ..., G_J t) over the realized basis, whose
    # matrices are independent.  The images are ranked by _reference_rank.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    triples = basis_triples(spec)
    basis = [realize_triple(spec, t).astype(object) for t in triples]
    assert _reference_rank([m.ravel().tolist() for m in basis], characteristic) == len(triples)
    rng = random.Random(f"{sizes}:{characteristic}")
    seen = set()
    for _ in range(8):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            e = Element.zero(spec)
            for t in rng.sample(triples, rng.randrange(1, 4)):
                c = rng.randint(-3, 3)
                c = c if characteristic else Fraction(c, rng.randint(1, 2))
                e = e.add(Element.basis(spec, t, spec.field.of(c)))
            gens.append(e)
        realized = [realize(spec, g).astype(object) for g in gens]
        images = [np.concatenate([(g @ m).ravel() for g in realized]).tolist() for m in basis]
        expected = len(triples) - _reference_rank(images, characteristic)
        assert annihilator_dim(spec, gens) == expected
        seen.add(expected)
    assert len(seen) > 1


def test_characteristic_zero_results_are_python_ints_and_fractions():
    spec = SchemeSpec(sizes=(3, 3), characteristic=0)
    integral = realize(spec, central_element(spec, central_indices(spec)[-1]))
    third = Element.basis(spec, basis_triples(spec)[4], Fraction(1, 3))
    rational = realize(spec, third.add(Element.basis(spec, basis_triples(spec)[7], Fraction(2))))
    assert {type(v) for v in integral.flat} == {int}
    assert {type(v) for v in rational.flat} == {int, Fraction}
    for a, b in ((integral, integral), (integral, rational), (rational, integral), (rational, rational)):
        prod = mat_mul(spec, a, b)
        assert prod.dtype == object
        assert {type(v) for v in prod.flat} <= {int, Fraction}
        assert prod.tolist() == (a @ b).tolist()
    assert {type(v) for v in mat_mul(spec, integral, integral).flat} == {int}


@pytest.mark.parametrize("p", [2, 3, 251, 257, 65521, 65537, 1048583, 2**61 - 1])
def test_prime_characteristic_pivots_hold_only_their_nonzero_residues(p):
    # Residues up to p - 1, with dependent rows that take several steps to vanish:
    # each pivot keeps only its nonzero entries, as residues, and the rank is the
    # reference rank.
    spec = SchemeSpec(sizes=(2, 3), characteristic=p)
    rng = random.Random(p)
    base = [[rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(12)] for _ in range(5)]
    family = base + [
        [sum(c * vec[j] for c, vec in zip(coeffs, base)) % p for j in range(12)]
        for coeffs in ([rng.randrange(p) for _ in base] for _ in range(4))
    ]
    stack = np.array(family, dtype=np.int64).reshape(-1, 3, 4)
    pivots = oracle._pivot_rows(spec, oracle._blocks(stack))
    assert all(len(at) == len(values) and all(0 < int(v) < p for v in values) for at, values in pivots)
    assert len(pivots) == span_rank(spec, stack) == _reference_rank(family, p) == 5


@pytest.mark.parametrize("characteristic", [0, 3])
def test_span_rank_of_a_basis_stack_holds_under_half_the_stack(characteristic):
    # The raw basis matrices have disjoint supports, so every row becomes a pivot.
    # Kept as its nonzero entries, the pivots take a few bytes a row; kept dense, they
    # took the stack's size again at a prime and several times it at characteristic 0.
    spec = SchemeSpec(sizes=(2,) * 6, characteristic=characteristic)
    stack = oracle.realize_stack(spec, basis_triples(spec), raw=True)
    assert stack.nbytes == 4096 * 64**2
    tracemalloc.start()
    try:
        rank = span_rank(spec, stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rank == 4096
    assert peak < stack.nbytes // 2
