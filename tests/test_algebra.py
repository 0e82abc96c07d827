"""Basis triples, products, transposition, and the change of basis."""

import random
import re
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terwilliger import algebra, scheme
from terwilliger.algebra import (
    KERNEL_PAIRS,
    Element,
    _mul_columns,
    _mul_triples,
    basis_triples,
    check_triple,
    corner_basis,
    corner_mul,
    from_raw,
    mul_triples,
    render_triple,
    to_raw,
    triple_columns,
    triple_json,
    triples_with_middles,
)
from terwilliger.scheme import (
    SchemeSpec,
    all_masks,
    is_basis_triple,
    parse_mask,
    valency,
)

S23 = SchemeSpec(sizes=(2, 3))
S23_P2 = SchemeSpec(sizes=(2, 3), characteristic=2)
S23_P5 = SchemeSpec(sizes=(2, 3), characteristic=5)
S233_P2 = SchemeSpec(sizes=(2, 3, 3), characteristic=2)


def t(spec, text):
    return tuple(parse_mask(part, spec.n) for part in text.split(","))


def test_basis_enumeration_is_canonical_and_complete():
    triples = basis_triples(S23)
    assert len(triples) == 20
    assert triples == sorted(triples, key=lambda x: triple_json(S23, x))
    assert len(set(triples)) == 20
    for triple in triples:
        check_triple(S23, triple)


@pytest.mark.parametrize("sizes", [(3,), (2, 2), (3, 2, 4), (2, 3, 2, 3)])
def test_basis_enumeration_matches_a_sorted_filter_of_all_triples(sizes):
    spec = SchemeSpec(sizes=sizes)
    masks = range(1 << spec.n)
    every = [t for t in product(masks, masks, masks) if is_basis_triple(spec, *t)]
    assert basis_triples(spec) == sorted(every, key=lambda x: triple_json(spec, x))


def test_check_triple_rejects_and_names_the_window():
    with pytest.raises(ValueError) as err:
        check_triple(S23, t(S23, "11,11,11"))
    assert "00" in str(err.value) and "01" in str(err.value)


def test_render_triple():
    assert render_triple(S23, t(S23, "01,11,11")) == "(01,11,11)"


def test_product_of_triples_golden():
    left = t(S23, "01,11,11")
    right = t(S23, "11,01,11")
    for spec in (S23, SchemeSpec(sizes=(2, 3), characteristic=3), S23_P5):
        got = mul_triples(spec, left, right)
        assert got == (spec.field.of(2), left)


def test_product_vanishes_on_inner_mismatch():
    assert mul_triples(S23, t(S23, "01,01,00"), t(S23, "01,01,00")) is None


def test_product_vanishes_when_coefficient_is_zero():
    triple = t(S23_P2, "01,01,01")
    assert mul_triples(S23_P2, triple, triple) is None
    assert mul_triples(S23, triple, triple) == (2, triple)


def test_identity_element_is_neutral():
    for spec in (S23_P2, S23_P5):
        e = Element.identity(spec)
        for triple in basis_triples(spec):
            x = Element.basis(spec, triple)
            assert e.mul(x) == x
            assert x.mul(e) == x


@settings(max_examples=60)
@given(st.data())
def test_multiplication_is_associative(data):
    spec = data.draw(st.sampled_from([S23_P2, S23_P5, S23]))
    triples = basis_triples(spec)
    a, b, c = (Element.basis(spec, data.draw(st.sampled_from(triples))) for _ in range(3))
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


@settings(max_examples=60)
@given(st.data())
def test_multiplication_distributes_over_sums(data):
    spec = S23_P5
    triples = st.sampled_from(basis_triples(spec))
    coeffs = st.integers(-6, 6)
    draw_elt = lambda: Element(
        spec,
        {
            trip: spec.field.of(c)
            for trip, c in data.draw(
                st.lists(st.tuples(triples, coeffs), min_size=0, max_size=4)
            )
        },
    )
    x, y, z = draw_elt(), draw_elt(), draw_elt()
    assert x.mul(y.add(z)) == x.mul(y).add(x.mul(z))
    assert y.add(z).mul(x) == y.mul(x).add(z.mul(x))


def all_pairs_product(x, y):
    """The definition of the product: every pair of terms through mul_triples."""
    spec, field = x.spec, x.spec.field
    acc = {}
    for t1, c1 in x.terms.items():
        for t2, c2 in y.terms.items():
            hit = mul_triples(spec, t1, t2)
            if hit is not None:
                coeff, triple = hit
                term = field.mul(field.mul(c1, c2), coeff)
                acc[triple] = field.add(acc.get(triple, field.zero()), term)
    return {triple: c for triple, c in acc.items() if not field.is_zero(c)}


PRODUCT_SPECS = [
    SchemeSpec(sizes=sizes, characteristic=p)
    for sizes in ((2, 3), (2, 3, 3), (3, 3))
    for p in (0, 2, 3, 5, 1048583, 2**61 - 1)
]
# Few distinct values, half of them non-integral, so that sums of products cancel.
SMALL_FRACTIONS = [Fraction(a, b) for a in (-3, -2, -1, 1, 2, 3) for b in (1, 2, 3)]


def coefficients(spec):
    if spec.characteristic == 0:
        return st.sampled_from(SMALL_FRACTIONS)
    return st.one_of(st.integers(-3, 3), st.integers(0, spec.characteristic - 1))


def elements(data, spec):
    triples = data.draw(st.lists(st.sampled_from(basis_triples(spec)), max_size=12, unique=True))
    return Element(spec, {trip: data.draw(coefficients(spec)) for trip in triples})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_matches_the_all_pairs_definition(data):
    spec = data.draw(st.sampled_from(PRODUCT_SPECS))
    x, y = elements(data, spec), elements(data, spec)
    got = x.mul(y)
    assert got.terms == all_pairs_product(x, y)
    p = spec.characteristic
    for c in got.terms.values():
        if p:
            assert type(c) is int and 0 < c < p
        else:
            assert type(c) is Fraction and c != 0


@pytest.mark.parametrize("sizes, p", [((2, 3), 0), ((3, 3), 2), ((2, 2, 3), 3)])
def test_basis_products_follow_mul_triples_exhaustively(sizes, p):
    # The law acts bitwise per coordinate, so these specs meet every
    # per-coordinate pattern of a size-2 factor and of a larger one.
    spec = SchemeSpec(sizes=sizes, characteristic=p)
    triples = basis_triples(spec)
    basis = {trip: Element.basis(spec, trip) for trip in triples}
    for t1 in triples:
        for t2 in triples:
            hit = mul_triples(spec, t1, t2)
            expected = Element.zero(spec) if hit is None else Element.basis(spec, hit[1], hit[0])
            assert basis[t1].mul(basis[t2]) == expected, (t1, t2)


@pytest.mark.parametrize("sizes, p", [
    ((2, 3), 2), ((2, 4), 3), ((3, 3), 0), ((2, 2, 2), 3), ((4, 4), 3), ((3, 3, 3), 2),
    ((2, 3), 1048583), ((2, 3), 2**64 + 13),
])
def test_column_law_equals_mul_triples_on_every_pair(sizes, p):
    spec = SchemeSpec(sizes=sizes, characteristic=p)
    triples = basis_triples(spec)
    columns = np.array(triples, dtype=np.int64).T
    left, right = np.divmod(np.arange(len(triples) ** 2), len(triples))
    coeffs, product = _mul_columns(spec, columns[:, left], columns[:, right])
    assert coeffs.dtype == np.int64
    targets = zip(*(col.tolist() for col in product))
    got = [None if c == 0 else (c, t) for c, t in zip(coeffs.tolist(), targets)]
    assert got == [_mul_triples(spec, triples[a], triples[b]) for a, b in zip(left.tolist(), right.tolist())]
    # Columns that broadcast, as a (D, D) grid of pairs, give the same pairs row by row.
    grid, by_pair = _mul_columns(spec, columns[:, :, None], columns[:, None, :])
    assert np.array_equal(grid.ravel(), coeffs)
    nonzero = coeffs != 0
    for col, flat in zip(by_pair, product):
        assert np.array_equal(np.broadcast_to(col, grid.shape).ravel()[nonzero], flat[nonzero])


@pytest.mark.parametrize("p", [0, 3, 2**61 - 1])
@pytest.mark.parametrize("seed", [0, 1])
def test_product_of_large_operands_matches_the_all_pairs_definition(monkeypatch, p, seed):
    # 150 terms each on 16 left masks, with few distinct coefficients, so
    # that left-mask groups are long and output numerators repeat.  150^2
    # term pairs reach KERNEL_PAIRS, so the product runs over columns.
    # Residues of 2^61 - 1 (three of them) are multiplied as Python ints.
    spec = SchemeSpec(sizes=(3, 3, 3, 3), characteristic=p)
    rng = random.Random(seed)
    triples = basis_triples(spec)
    coeff = (lambda: rng.choice(SMALL_FRACTIONS)) if p == 0 else (lambda: rng.randrange(1, p))
    if p > 3:
        coeff = (lambda: p - rng.randrange(1, 4))
    dtypes = []  # the numerator dtype of each product over columns
    numerator_dtype = algebra._numerator_dtype

    def spy(*args):
        dtypes.append(numerator_dtype(*args))
        return dtypes[-1]

    monkeypatch.setattr(algebra, "_numerator_dtype", spy)
    x, y = (Element(spec, {trip: coeff() for trip in rng.sample(triples, 150)}) for _ in range(2))
    assert len(x.terms) * len(y.terms) >= KERNEL_PAIRS
    got = x.mul(y)
    assert got.terms == all_pairs_product(x, y)
    assert dtypes == [np.int64 if p < 1 << 31 else object]
    if p == 0:
        # Numerators scaled by 2^33, so that their products pass 2^63: the Python-int path.
        big = [Element(spec, {t: c * 2**33 for t, c in e.terms.items()}) for e in (x, y)]
        assert big[0].mul(big[1]).terms == all_pairs_product(*big)
        assert dtypes[-1] is object
    values = list(got.terms.values())
    assert len(set(values)) < len(values)
    for c in values:
        if p:
            assert type(c) is int and 0 < c < p
        else:
            assert type(c) is Fraction and c != 0
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


def test_product_drops_terms_that_cancel():
    spec = SchemeSpec(sizes=(3,))
    x = Element.basis(spec, (1, 1, 1))
    # (1,1,1)(1,0,1) = (1,1,1) and (1,1,1)(1,1,1) = 2 (1,1,1)
    y = Element(spec, {(1, 0, 1): 1, (1, 1, 1): Fraction(-1, 2)})
    assert x.mul(y).is_zero()
    z = Element(spec, {(1, 0, 1): Fraction(1, 3), (1, 1, 1): Fraction(1, 4), (0, 0, 0): 5})
    assert x.mul(z).terms == {(1, 1, 1): Fraction(5, 6)}


def assert_form_of_terms(x):
    """x's cached form is the one _columns and _integral build from its terms."""
    nums, d = algebra._integral(x.terms.values())
    form = x._form
    assert form.columns.dtype == np.int64
    assert np.array_equal(form.columns, algebra._columns(list(x.terms)))
    assert (form.nums.tolist(), form.d, form.l1) == (nums, d, sum(map(abs, nums)))


@pytest.mark.parametrize("p", [0, 3])
def test_kernel_product_hands_over_the_form_of_its_terms(monkeypatch, p):
    # x * x sums 2 (1,1,1) over d = 4 at characteristic 0, so the form holds
    # the sums divided by G = 2 over the lcm 2; at characteristic 3 its
    # (1,1,1) sum cancels.  (1,1,1) * y cancels in both fields, and nothing
    # of (0,0,0) * y chains.
    monkeypatch.setattr(algebra, "KERNEL_PAIRS", 1)
    spec = SchemeSpec(sizes=(3,), characteristic=p)
    half = Fraction(1, 2) if p == 0 else 2
    x = Element(spec, {(1, 1, 1): half, (0, 0, 0): 1, (1, 0, 1): 1})
    y = Element(spec, {(1, 0, 1): 1, (1, 1, 1): -half})
    products = [(x, x), (x, y), (Element.basis(spec, (1, 1, 1)), y), (Element.basis(spec, (0, 0, 0)), y)]
    outs = [a.mul(b) for a, b in products]
    for (a, b), out in zip(products, outs):
        assert out.terms == all_pairs_product(a, b)
        assert_form_of_terms(out)
    assert [len(out.terms) for out in outs] == [3 if p == 0 else 2, 2, 0, 0]
    if p == 0:
        assert outs[0].terms[(1, 1, 1)] == Fraction(3, 2) and outs[0]._form.d == 2
        # (1,1,1) * y again over d = 2^80, past int64: nothing is left, and d becomes 1
        tiny = Element(spec, {t: c / 2**40 for t, c in y.terms.items()})
        zero = Element.basis(spec, (1, 1, 1), Fraction(1, 2**40)).mul(tiny)
        assert zero.is_zero()
        assert_form_of_terms(zero)
    # a product of kernel outputs reads their forms and hands over its own
    again = outs[0].mul(outs[1])
    assert again.terms == all_pairs_product(outs[0], outs[1])
    assert_form_of_terms(again)


@pytest.mark.parametrize("over", [False, True])
def test_product_at_the_int64_bound_matches_the_all_pairs_definition(monkeypatch, over):
    # At (3,3)/0 the largest valency is 4, that of the full mask, and the
    # one term pair of x * y chains there, so its sum is the bound
    # 4 * L1(x) * L1(y) itself: 2^63 - 4 in int64, or 2^63, one past int64,
    # on Python ints.
    monkeypatch.setattr(algebra, "KERNEL_PAIRS", 1)
    dtypes = []
    numerator_dtype = algebra._numerator_dtype
    monkeypatch.setattr(algebra, "_numerator_dtype", lambda *args: dtypes.append(numerator_dtype(*args)) or dtypes[-1])
    spec = SchemeSpec(sizes=(3, 3))
    big = 2**61 if over else 2**61 - 1
    x = Element(spec, {(3, 3, 3): Fraction(big, 3)})
    y = Element(spec, {(3, 3, 3): Fraction(-1, 5)})
    assert algebra._sum_bound(spec, x._column_form().l1 * y._column_form().l1) == 4 * big
    got = x.mul(y)
    assert got.terms == all_pairs_product(x, y)
    assert list(got.terms.values()) == [Fraction(-4 * big, 15)]
    assert dtypes == [object if over else np.int64]
    assert_form_of_terms(got)


@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 3), (5, 5, 7), (2, 3, 3, 4), (3,) * 6, (2,) * 12, (2,) * 9 + (7, 8, 9)])
def test_sum_bound_reads_the_largest_valency_of_the_column(sizes):
    spec = SchemeSpec(sizes=sizes)
    top = int(algebra._valency_column(spec).max())
    assert algebra._top_valency(spec) == top
    assert [algebra._sum_bound(spec, norms) for norms in (0, 1, 2**40 + 3)] == [0, top, top * (2**40 + 3)]


@pytest.mark.parametrize("bad", [(0b11, 0b11, 0b11), (0b11, 0b00, 0b01)])
def test_a_non_basis_term_cannot_enter_an_element(bad):
    # Terms are read-only, so the constructor is the only way in, and it names the triple.
    x = Element.basis(S23, (0, 0, 0))
    with pytest.raises(TypeError):
        x.terms[bad] = Fraction(1)
    with pytest.raises(AttributeError):
        x.terms = {(0b100, 0, 0b100): Fraction(1)}
    assert x.terms == {(0, 0, 0): Fraction(1)}
    named = re.escape(render_triple(S23, bad)) + " does not index a basis element"
    with pytest.raises(ValueError, match=named):
        Element(S23, {(0, 0, 0): 1, bad: 1})
    with pytest.raises(ValueError, match="out of range"):
        Element(S23, {(0b100, 0, 0b100): 1})


@pytest.mark.parametrize("bad", [(1.0, 0, 1.0), (True, 0, True), (np.int64(1), 0, np.int64(1))])
def test_a_mask_that_is_not_an_int_is_refused(bad):
    for make in (lambda: Element(S23, {bad: 1}), lambda: mul_triples(S23, bad, bad)):
        with pytest.raises(ValueError, match="not a triple of int masks"):
            make()


@pytest.mark.parametrize(
    "p, bad, canonical",
    [
        (3, 1.5, None), (3, "1", None), (3, Fraction(1, 2), None), (0, 1.5, None), (0, "1", None),
        (3, 3, 0), (3, -1, 2), (3, True, 1), (2**61 - 1, 2**61 - 1, 0), (0, 3, Fraction(3)),
    ],
)
def test_element_canonicalizes_or_refuses_each_coefficient(monkeypatch, p, bad, canonical):
    # Only an int in [0, p) at characteristic p, or a Fraction at characteristic
    # 0, is stored: the constructor reduces ints and names anything else, and
    # the terms cannot be written afterwards.
    spec = SchemeSpec(sizes=(3,), characteristic=p)
    x = Element.basis(spec, (0, 0, 0))
    with pytest.raises(TypeError):
        x.terms[(0, 0, 0)] = bad
    if canonical is None:
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            Element(spec, {(0, 0, 0): bad})
        return
    y = Element(spec, {(0, 0, 0): bad, (1, 1, 1): 1})
    assert y.terms == ({(0, 0, 0): canonical} if canonical else {}) | {(1, 1, 1): spec.field.one()}
    assert [type(c) for c in y.terms.values()] == [int if p else Fraction] * len(y.terms)
    for kernel_pairs in (1, 1 << 62):  # the kernel, then the loop
        monkeypatch.setattr(algebra, "KERNEL_PAIRS", kernel_pairs)
        assert y.mul(y).terms == all_pairs_product(y, y)


def test_every_element_holds_read_only_terms(monkeypatch):
    # One mapping per element, from every constructor and operation; the
    # kernel path of x * x gets that one element as both operands.
    spec = SchemeSpec(sizes=(2, 3), characteristic=5)
    x = Element(spec, {(0b01, 0b01, 0b00): 2, (0b00, 0b00, 0b00): 3, (0b10, 0b10, 0b10): 4})
    y = Element(spec, {(0b10, 0b00, 0b10): 1, (0b00, 0b01, 0b01): 2})
    operands = []
    mul_by_columns = algebra._mul_by_columns

    def spy(a, b):
        operands.append((a, b))
        return mul_by_columns(a, b)

    monkeypatch.setattr(algebra, "_mul_by_columns", spy)
    results = [
        x, x.add(y), x.neg(), x.sub(y), x.scale(3), x.scale(0), x.transpose(),
        Element.from_json(spec, x.to_json()), from_raw(spec, to_raw(x)), Element.identity(spec),
    ]
    for kernel_pairs in (1, 1 << 62):  # the kernel, then the loop
        monkeypatch.setattr(algebra, "KERNEL_PAIRS", kernel_pairs)
        results += [x.mul(x), x.mul(y)]
    assert [(a is x, b is x) for a, b in operands] == [(True, True), (True, False)]
    assert results[-4] == results[-2] and results[-3] == results[-1]
    assert not any(e.is_zero() for e in results[-4:])
    for e in results:
        assert e.terms is e.terms
        with pytest.raises(TypeError):
            e.terms[(0, 0, 0)] = 1
        with pytest.raises(AttributeError):
            e.terms = {}


@pytest.mark.parametrize("p", [0, 2, 5, 2**61 - 1])
@pytest.mark.parametrize("terms", [24, 180])  # 576 term pairs, below KERNEL_PAIRS, and 32,400 above
def test_loop_and_kernel_give_identical_terms(monkeypatch, p, terms):
    spec = SchemeSpec(sizes=(2, 3, 3, 4), characteristic=p)
    rng = random.Random(f"{p}:{terms}")
    triples = basis_triples(spec)
    coeff = (lambda: rng.choice(SMALL_FRACTIONS)) if p == 0 else (lambda: rng.randrange(1, p))
    x, y = (Element(spec, {trip: coeff() for trip in rng.sample(triples, terms)}) for _ in range(2))
    assert (terms**2 >= KERNEL_PAIRS) == (terms == 180)
    results = []
    # the kernel in one chunk, the kernel a left term per chunk, then the loop
    for kernel_pairs, chunk_pairs in ((1, 1 << 62), (1, 1), (1 << 62, 1)):
        monkeypatch.setattr(algebra, "KERNEL_PAIRS", kernel_pairs)
        monkeypatch.setattr(algebra, "_CHUNK_ENTRIES", chunk_pairs)
        results.append([{t: (type(c), c) for t, c in a.mul(b).terms.items()} for a, b in ((x, y), (x, x), (y, x))])
    assert results[0] == results[1] == results[2]
    assert all(results[0])


def spy_on_indexes(monkeypatch):
    """The term count of every _Index built from here on."""
    built = []
    bucket_index = algebra._bucket_index

    def spy(spec, columns, size):
        built.append(columns.shape[1])
        return bucket_index(spec, columns, size)

    monkeypatch.setattr(algebra, "_bucket_index", spy)
    return built


def assert_index_of_terms(x):
    """x's cached _Index lists the positions of x's terms stably bucketed by left mask."""
    order, offsets = x._index
    lefts = x._form.columns[0]
    assert offsets.tolist() == [int((lefts < m).sum()) for m in range((1 << x.spec.n) + 1)]
    assert order.tolist() == sorted(range(len(lefts)), key=lambda s: int(lefts[s]))


@pytest.mark.parametrize("p", [0, 3])
def test_kernel_reads_each_right_operand_index_built_once(monkeypatch, p):
    monkeypatch.setattr(algebra, "KERNEL_PAIRS", 1)
    built = spy_on_indexes(monkeypatch)
    spec = SchemeSpec(sizes=(2, 3, 3), characteristic=p)
    rng = random.Random(p)
    triples = basis_triples(spec)
    coeff = (lambda: rng.choice(SMALL_FRACTIONS)) if p == 0 else (lambda: rng.randrange(1, p))
    # y has no term at a left mask holding coordinate 1, so half its ranges are empty
    y = Element(spec, {trip: coeff() for trip in rng.sample([s for s in triples if not s[0] & 1], 24)})
    lefts = [Element(spec, {trip: coeff() for trip in rng.sample(triples, k)}) for k in (1, 9, 40)]
    for x in lefts:  # one right operand under several left ones
        assert x.mul(y).terms == all_pairs_product(x, y)
    assert built == [24]
    assert_index_of_terms(y)
    assert all(y._index.offsets[m] == y._index.offsets[m + 1] for m in range(8) if m & 1)
    assert y.mul(y).terms == all_pairs_product(y, y)  # x is y reads the same index
    assert built == [24]
    x = lefts[2]  # a left operand three times, now a right one
    assert x._index is None
    assert y.mul(x).terms == all_pairs_product(y, x)
    assert built == [24, 40]
    assert_index_of_terms(x)
    assert x.mul(y)._index is None  # a product that is never a right operand holds none


@pytest.mark.parametrize("p", [0, 5])
def test_kernel_product_of_few_terms_at_kernel_factors(monkeypatch, p):
    # n = 12, so a right operand's index holds 2^12 + 1 offsets for its 3 terms
    monkeypatch.setattr(algebra, "KERNEL_PAIRS", 1)
    spec = SchemeSpec(sizes=(2,) * 10 + (3, 4), characteristic=p)
    assert spec.n == algebra.KERNEL_FACTORS
    large = spec.large_mask
    g, i, l = 0b1100_1010_0111, 0b1011_0001_1101, 0b0110_1111_0010
    x = Element(spec, {(g, g ^ i, i): 2, (g, (g ^ i) | (g & i & large), i): 3, (i, i ^ l, l): 1})
    y = Element(spec, {(i, i ^ l, l): 4, (i, (i ^ l) | (i & l & large), l): 5, (l, 0, l): 7})
    for a, b in ((x, y), (y, x), (x, x), (y, y)):
        got = a.mul(b)
        assert got.terms == all_pairs_product(a, b)
        assert b._index.offsets.shape == ((1 << 12) + 1,)
        assert_index_of_terms(b)
    assert x.mul(y).terms and y.mul(y).terms


def spy_on_columns(monkeypatch):
    """The operand sizes of every product that takes the kernel path from here on."""
    calls = []
    mul_by_columns = algebra._mul_by_columns

    def spy(x, y):
        calls.append((len(x.terms), len(y.terms)))
        return mul_by_columns(x, y)

    monkeypatch.setattr(algebra, "_mul_by_columns", spy)
    return calls


@pytest.mark.parametrize("p", [0, 2**64 - 59])
def test_product_whose_valencies_pass_int64_matches_the_all_pairs_definition(monkeypatch, p):
    # At (2^16,)^4 the full mask's valency (2^16 - 1)^4 passes 2^63, and so
    # does its residue mod the prime 2^64 - 59: no valency column fits int64,
    # so 130-term operands, above KERNEL_PAIRS, are multiplied by the loop.
    spec = SchemeSpec(sizes=(2**16,) * 4, characteristic=p)
    top = valency(spec, spec.full_mask)
    assert (top % p if p else top) >= 1 << 63
    rng = random.Random(p)
    triples = basis_triples(spec)
    coeff = (lambda: rng.choice(SMALL_FRACTIONS)) if p == 0 else (lambda: rng.randrange(1, p))
    x, y = (Element(spec, {trip: coeff() for trip in rng.sample(triples, 130)}) for _ in range(2))
    assert len(x.terms) * len(y.terms) >= KERNEL_PAIRS
    calls = spy_on_columns(monkeypatch)
    for a, b in ((x, y), (x, x), (y, x)):
        assert a.mul(b).terms == all_pairs_product(a, b)
    assert calls == []


def test_product_on_more_than_kernel_factors_takes_the_loop(monkeypatch):
    # 2^13 masks: above KERNEL_FACTORS, so no 2^n valency column is built even
    # for operands above KERNEL_PAIRS.  Right masks 0 and 1 make most pairs chain.
    spec = SchemeSpec(sizes=(2,) * 13)
    assert spec.n > algebra.KERNEL_FACTORS
    rng = random.Random(13)
    masks = [rng.randrange(1 << 13) for _ in range(130)]
    x = Element(spec, {(g, g ^ (g & 1), g & 1): rng.choice(SMALL_FRACTIONS) for g in masks})
    y = Element(spec, {(l & 1, l ^ (l & 1), l): rng.choice(SMALL_FRACTIONS) for l in masks})
    assert len(x.terms) * len(y.terms) >= KERNEL_PAIRS
    calls = spy_on_columns(monkeypatch)
    assert x.mul(y).terms == all_pairs_product(x, y)
    assert calls == []


def test_product_over_columns_holds_a_chunk_of_pairs_at_a_time(monkeypatch):
    # x * x, with x the sum of all 3,125 basis triples at (3,)^5, chains 13^5 =
    # 371,293 term pairs: listed at once they take about a dozen int64 arrays
    # of that length, some 35 MB.  With 2^12 pairs per chunk the product's
    # traced peak stays near a chunk, the operands and the 3,125 outputs.
    spec = SchemeSpec(sizes=(3,) * 5, characteristic=3)
    x = Element(spec, {trip: 1 for trip in basis_triples(spec)})
    calls = spy_on_columns(monkeypatch)
    monkeypatch.setattr(algebra, "_CHUNK_ENTRIES", 1 << 12)
    tracemalloc.start()
    try:
        got = x.mul(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == [(3125, 3125)]
    assert peak < 4 << 20
    monkeypatch.setattr(algebra, "_CHUNK_ENTRIES", 1 << 62)
    assert x.mul(x).terms == got.terms
    monkeypatch.setattr(algebra, "KERNEL_PAIRS", 1 << 62)
    assert x.mul(x).terms == got.terms
    assert len(calls) == 2


def test_chunks_cover_every_position_in_ranges_of_at_most_a_chunk_of_entries(monkeypatch):
    assert list(algebra._chunks(0, 5)) == []
    # positions of no entries, as in a stack of empty matrices, count as one entry each
    assert list(algebra._chunks(3, 0)) == list(algebra._chunks(3, 1)) == [range(0, 3)]
    # a position wider than a chunk is a range of its own
    assert list(algebra._chunks(3, algebra._CHUNK_ENTRIES + 1)) == [range(0, 1), range(1, 2), range(2, 3)]
    monkeypatch.setattr(algebra, "_CHUNK_ENTRIES", 12)
    assert list(algebra._chunks(8, 3)) == [range(0, 4), range(4, 8)]
    assert list(algebra._chunks(9, 3)) == [range(0, 4), range(4, 8), range(8, 9)]
    assert list(algebra._chunks(8, 5)) == [range(0, 2), range(2, 4), range(4, 6), range(6, 8)]


def test_transpose_is_an_antiautomorphism():
    triples = basis_triples(S233_P2)
    for t1 in triples[::7]:
        for t2 in triples[::5]:
            x = Element.basis(S233_P2, t1)
            y = Element.basis(S233_P2, t2)
            assert x.mul(y).transpose() == y.transpose().mul(x.transpose())


def test_transpose_swaps_outer_masks():
    x = Element.basis(S23, t(S23, "01,11,10"), 3)
    assert x.transpose() == Element.basis(S23, t(S23, "10,11,01"), 3)
    assert x.transpose().transpose() == x


def test_element_json_roundtrip_golden():
    x = Element(S23_P5, {t(S23, "01,11,11"): 2, t(S23, "00,00,00"): 4})
    blob = x.to_json()
    assert blob == [
        {"triple": ["00", "00", "00"], "coeff": "4"},
        {"triple": ["01", "11", "11"], "coeff": "2"},
    ]
    assert Element.from_json(S23_P5, blob) == x


def test_element_repr_lists_terms_in_canonical_order():
    x = Element(S23, {t(S23, "11,01,11"): Fraction(-3, 4), t(S23, "01,11,11"): 2, (0, 0, 0): 1})
    assert repr(x) == "Element(1*(00,00,00) + 2*(01,11,11) + -3/4*(11,01,11))"
    y = Element(S23_P5, {t(S23, "11,01,11"): 7, t(S23, "01,11,11"): 2})
    assert repr(y) == "Element(2*(01,11,11) + 2*(11,01,11))"
    assert repr(Element.zero(S23)) == "Element(zero)"


@settings(max_examples=80)
@given(st.data())
def test_element_json_roundtrip(data):
    spec = data.draw(st.sampled_from([S23, S23_P2, S23_P5]))
    terms = data.draw(
        st.lists(
            st.tuples(st.sampled_from(basis_triples(spec)), st.integers(-9, 9)),
            max_size=5,
        )
    )
    x = Element.zero(spec)
    for trip, c in terms:
        x = x.add(Element.basis(spec, trip, spec.field.of(c)))
    assert Element.from_json(spec, x.to_json()) == x


def test_raw_basis_roundtrip_exhaustive():
    for spec in (S23, S23_P2, SchemeSpec(sizes=(2, 3), characteristic=3)):
        for triple in basis_triples(spec):
            x = Element.basis(spec, triple, spec.field.of(3))
            assert from_raw(spec, to_raw(x)) == x


@settings(max_examples=60)
@given(st.data())
def test_raw_basis_roundtrip_on_sums(data):
    spec = data.draw(st.sampled_from([S23_P2, S23_P5]))
    terms = data.draw(
        st.lists(
            st.tuples(st.sampled_from(basis_triples(spec)), st.integers(1, 6)),
            max_size=4,
        )
    )
    x = Element.zero(spec)
    for trip, c in terms:
        x = x.add(Element.basis(spec, trip, spec.field.of(c)))
    assert from_raw(spec, to_raw(x)) == x


def test_corner_basis_lists_loops_at_g():
    masks = corner_basis(S23, 0b11)
    assert masks == [0b00, 0b10]  # renders as 00, 01
    assert corner_basis(S23, 0) == [0]
    got = {a for g in all_masks(S23) for a in corner_basis(S23, g)}
    assert got == {a for a in all_masks(S23) if a & ~(0b11 & S23.large_mask) == 0 or a == 0}


def test_corner_mul_follows_the_union_rule():
    g = 0b11
    for spec in (S23_P2, S23_P5):
        for h in corner_basis(spec, g):
            for i in corner_basis(spec, g):
                got = corner_mul(spec, g, h, i)
                coeff = spec.field.of(valency(spec, h & i))
                if spec.field.is_zero(coeff):
                    assert got is None
                else:
                    assert got == (coeff, h | i)


def test_corner_mul_rejects_foreign_masks():
    with pytest.raises(ValueError):
        corner_mul(S23, 0b01, 0b01, 0)


PRIME_SPECS = [SchemeSpec(sizes=(2, 3), characteristic=p) for p in (2, 3, 5, 7)]


@given(st.sampled_from(PRIME_SPECS), st.integers(-10**6, 10**6))
def test_integer_coefficients_reduce_mod_p(spec, c):
    triple = basis_triples(spec)[7]
    p = spec.characteristic
    x = Element.basis(spec, triple, c)
    assert x == Element.basis(spec, triple, c % p)
    assert x.coeff(triple) == c % p and type(x.coeff(triple)) is int


@given(st.fractions(), st.integers(-50, 50))
def test_fraction_coefficients_only_at_characteristic_zero(q, c):
    triple = basis_triples(S23)[7]
    assert Element.basis(S23, triple, q).coeff(triple) == q
    assert type(Element.basis(S23, triple, c).coeff(triple)) is Fraction
    with pytest.raises(ValueError):
        Element.basis(S23_P5, triple, q)


@given(
    st.sampled_from([S23, *PRIME_SPECS]),
    st.one_of(st.floats(), st.text(max_size=3), st.complex_numbers(), st.decimals()),
)
def test_inexact_or_foreign_coefficients_are_refused(spec, c):
    triple = basis_triples(spec)[7]
    with pytest.raises(ValueError):
        Element.basis(spec, triple, c)
    with pytest.raises(ValueError):
        Element.basis(spec, triple).scale(c)


@given(st.data())
def test_triple_columns_list_triples_with_middles(data):
    spec = data.draw(
        st.builds(
            SchemeSpec,
            sizes=st.lists(st.sampled_from([2, 3, 4, 5, 7]), min_size=1, max_size=5).map(tuple),
            characteristic=st.sampled_from([0, 2, 3, 5]),
        )
    )
    # A canonically ordered list of middles: any sublist of all_masks, empty included.
    keep = data.draw(st.lists(st.booleans(), min_size=1 << spec.n, max_size=1 << spec.n))
    middles = [h for h, kept in zip(all_masks(spec), keep) if kept]
    columns = triple_columns(spec, middles)
    assert all(column.dtype == np.int64 for column in columns)
    assert list(zip(*(column.tolist() for column in columns))) == triples_with_middles(spec, middles)


def test_triple_columns_without_middles_are_empty_int64():
    for column in triple_columns(SchemeSpec(sizes=(2,) * 7), []):
        assert column.dtype == np.int64 and column.shape == (0,)


@pytest.mark.parametrize("sizes", [(2, 2, 3, 3, 4, 5), (3, 3, 3, 3), (2, 2), (2, 3)])
def test_submask_table_builds_each_distinct_row_once(monkeypatch, sizes):
    # A row depends only on c & large: one submasks call per submask of large
    # (after the one listing them), and every c reading it shares the list.
    spec = SchemeSpec(sizes=sizes, characteristic=3)
    large = spec.large_mask
    expected = [scheme.submasks(c & large) for c in range(1 << spec.n)]
    calls = []
    monkeypatch.setattr(algebra, "submasks", lambda m: calls.append(m) or scheme.submasks(m))
    table = algebra._submask_table(spec)
    assert table == expected
    assert calls == [large] + scheme.submasks(large)
    assert all(table[c] is table[c & large] for c in range(1 << spec.n))
