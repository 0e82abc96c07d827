"""The Jacobson radical: membership filter, nilpotency, witness chains."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from terwilliger import algebra, scheme
from terwilliger.algebra import Element, basis_triples
from terwilliger.quotient import quotient_triples
from terwilliger.radical import (
    corner_nilpotent_index,
    corner_rad_basis,
    in_radical,
    nilpotent_index,
    qualifying_coordinates,
    rad_dim,
    radical_columns,
    radical_summary,
    radical_triples,
    witness_chain,
)
from terwilliger.scheme import SchemeSpec, all_masks, p_divides_valency, parse_mask

S23_P2 = SchemeSpec(sizes=(2, 3), characteristic=2)
S23_P5 = SchemeSpec(sizes=(2, 3), characteristic=5)
S33_P2 = SchemeSpec(sizes=(3, 3), characteristic=2)


def t(spec, text):
    return tuple(parse_mask(part, spec.n) for part in text.split(","))


def triples(spec, *texts):
    return [t(spec, x) for x in texts]


def test_qualifying_coordinates():
    assert qualifying_coordinates(S23_P2) == [1]
    assert qualifying_coordinates(S33_P2) == [0, 1]
    assert qualifying_coordinates(S23_P5) == []
    assert qualifying_coordinates(SchemeSpec(sizes=(2, 3))) == []
    assert qualifying_coordinates(SchemeSpec(sizes=(4, 4), characteristic=3)) == [0, 1]


def test_radical_basis_golden():
    got = radical_triples(S23_P2)
    assert got == triples(
        S23_P2,
        "00,01,01",
        "00,11,11",
        "01,01,00",
        "01,01,01",
        "01,11,10",
        "01,11,11",
        "10,01,11",
        "10,11,01",
        "11,01,10",
        "11,01,11",
        "11,11,00",
        "11,11,01",
    )
    assert rad_dim(S23_P2) == 12
    assert rad_dim(S23_P5) == 0
    assert rad_dim(S33_P2) == 21


SPECS = st.builds(
    SchemeSpec,
    sizes=st.lists(st.sampled_from([2, 3, 4, 5, 7]), min_size=1, max_size=4).map(tuple),
    characteristic=st.sampled_from([0, 2, 3, 5]),
)


# The specs of the benchmark's report ladder.
LADDER = [
    SchemeSpec(sizes, char)
    for sizes, char in [
        ((2, 3), 2),
        ((3, 3, 3), 3),
        ((2, 3, 4, 5), 2),
        ((3,) * 5, 2),
        ((2, 2, 3, 3, 4, 5), 3),
        ((2,) * 7, 0),
        ((3,) * 6, 2),
    ]
]


def assert_columns_list_the_radical_triples(spec):
    columns = radical_columns(spec)
    assert all(column.dtype == np.int64 for column in columns)
    got, want = list(zip(*(column.tolist() for column in columns))), radical_triples(spec)
    if got != want:  # name the first difference: a full diff of long lists takes minutes
        at = next(k for k, pair in enumerate(zip(got + [None], want + [()])) if pair[0] != pair[1])
        pytest.fail(f"triple {at} of {len(want)}: {got[at:at + 1]} != {want[at:at + 1]}")


@given(
    st.builds(
        SchemeSpec,
        sizes=st.lists(st.sampled_from([2, 3, 4, 5, 7]), min_size=1, max_size=5).map(tuple),
        characteristic=st.sampled_from([0, 2, 3, 5]),
    )
)
def test_radical_columns_list_the_radical_triples(spec):
    assert_columns_list_the_radical_triples(spec)


@pytest.mark.parametrize("spec", LADDER, ids=lambda spec: f"{spec.sizes}/{spec.characteristic}")
def test_radical_columns_list_the_radical_triples_on_the_report_ladder(spec):
    assert_columns_list_the_radical_triples(spec)


@pytest.mark.parametrize("spec", [S33_P2, *LADDER[2:5]], ids=lambda spec: f"{spec.sizes}/{spec.characteristic}")
def test_radical_columns_follow_the_order_the_submask_table_gives(monkeypatch, spec):
    # The listing and its columns read one producer of the order: reversing every
    # submask list reorders both alike.
    canonical = radical_triples(spec)
    monkeypatch.setattr(algebra, "submasks", lambda m: scheme.submasks(m)[::-1])
    reordered = radical_triples(spec)
    assert reordered != canonical and sorted(reordered) == sorted(canonical)
    assert_columns_list_the_radical_triples(spec)


@example(S23_P2)
@example(S33_P2)
@given(SPECS)
def test_radical_is_exactly_the_divisible_middles(spec):
    # The reference: the basis enumeration filtered by the radical test, in canonical order;
    # the quotient keeps exactly the rest.
    every = basis_triples(spec)
    expected = [t for t in every if p_divides_valency(spec, t[1])]
    assert radical_triples(spec) == expected
    assert rad_dim(spec) == len(expected)
    assert quotient_triples(spec) == [t for t in every if not p_divides_valency(spec, t[1])]


def test_in_radical_on_elements():
    spec = S23_P2
    rad = radical_triples(spec)
    x = Element.basis(spec, rad[0]).add(Element.basis(spec, rad[3]))
    assert in_radical(spec, x)
    assert in_radical(spec, Element.zero(spec))
    assert not in_radical(spec, Element.identity(spec))
    mixed = x.add(Element.basis(spec, t(spec, "00,00,00")))
    assert not in_radical(spec, mixed)


def test_radical_is_a_two_sided_ideal():
    spec = S23_P2
    rad = radical_triples(spec)
    for r in rad:
        for b in basis_triples(spec):
            left = Element.basis(spec, b).mul(Element.basis(spec, r))
            right = Element.basis(spec, r).mul(Element.basis(spec, b))
            assert in_radical(spec, left)
            assert in_radical(spec, right)


def test_nilpotent_index_values():
    assert nilpotent_index(S23_P2) == 3
    assert nilpotent_index(S33_P2) == 5
    assert nilpotent_index(S23_P5) == 1
    assert nilpotent_index(SchemeSpec(sizes=(2, 3))) == 1


def test_nilpotent_index_upper_bound_holds():
    # every product of nilpotent_index radical factors vanishes
    spec = S23_P2
    rad = [Element.basis(spec, r) for r in radical_triples(spec)]
    for a in rad:
        for b in rad:
            for c in rad:
                assert a.mul(b).mul(c).is_zero()


def test_witness_chain_golden():
    chain = witness_chain(S23_P2)
    assert chain == triples(S23_P2, "11,01,10", "10,01,11")
    prod = Element.basis(S23_P2, chain[0]).mul(Element.basis(S23_P2, chain[1]))
    assert prod == Element.basis(S23_P2, t(S23_P2, "11,01,11"))

    chain33 = witness_chain(S33_P2)
    assert chain33 == triples(S33_P2, "11,10,01", "01,10,11", "11,01,10", "10,01,11")
    acc = Element.identity(S33_P2)
    for link in chain33:
        acc = acc.mul(Element.basis(S33_P2, link))
    assert acc == Element.basis(S33_P2, t(S33_P2, "11,11,11"))


def test_witness_chain_length_and_membership():
    for spec in (S23_P2, S33_P2, SchemeSpec(sizes=(2, 2, 3), characteristic=2)):
        chain = witness_chain(spec)
        assert len(chain) == nilpotent_index(spec) - 1
        for link in chain:
            assert in_radical(spec, Element.basis(spec, link))


def test_witness_chain_refuses_semisimple_input():
    with pytest.raises(ValueError):
        witness_chain(S23_P5)


def test_corner_radical():
    # at the full mask of sizes (2,3), the loops are 00 and 01 and only 01 has even valency
    assert corner_rad_basis(S23_P2, 0b11) == [0b10]
    assert corner_rad_basis(S23_P5, 0b11) == []
    assert corner_nilpotent_index(S23_P2, 0b11) == 2
    assert corner_nilpotent_index(S23_P2, 0b01) == 1
    assert corner_nilpotent_index(S33_P2, 0b11) == 3
    for g in all_masks(S23_P5):
        assert corner_nilpotent_index(S23_P5, g) == 1


def test_radical_summary_shape():
    got = radical_summary(S23_P2)
    assert got["dim"] == 12
    assert got["nilpotent_index"] == 3
    assert got["witness"] == [["11", "01", "10"], ["10", "01", "11"]]
    assert len(got["basis"]) == 12
    assert radical_summary(S23_P5)["witness"] == []
