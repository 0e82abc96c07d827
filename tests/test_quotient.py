"""The semisimple quotient: representatives, matrix units, blocks, verdicts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from terwilliger import quotient
from terwilliger.algebra import Element, _columns, basis_triples
from terwilliger.quotient import (
    frobenius_left_ideal,
    frobenius_witness,
    quotient_mul,
    quotient_triples,
    semisimple_rep,
    signature,
    verdicts,
    wedderburn_blocks,
    wedderburn_summary,
)
from terwilliger.radical import in_radical, rad_dim
from terwilliger.scheme import SchemeSpec, parse_mask, render_mask

S23_P2 = SchemeSpec(sizes=(2, 3), characteristic=2)
S23_P5 = SchemeSpec(sizes=(2, 3), characteristic=5)
S23_Q = SchemeSpec(sizes=(2, 3))
S33_P2 = SchemeSpec(sizes=(3, 3), characteristic=2)


def t(spec, text):
    return tuple(parse_mask(part, spec.n) for part in text.split(","))


def triples(spec, *texts):
    return [t(spec, x) for x in texts]


def test_quotient_triples_char5_is_all_of_them():
    assert quotient_triples(S23_P5) == basis_triples(S23_P5)
    assert quotient_triples(S23_Q) == basis_triples(S23_Q)


def test_quotient_triples_char2_golden():
    assert quotient_triples(S23_P2) == triples(
        S23_P2,
        "00,00,00",
        "00,10,10",
        "01,00,01",
        "01,10,11",
        "10,00,10",
        "10,10,00",
        "11,00,11",
        "11,10,01",
    )


def test_quotient_dimension_complements_the_radical():
    for spec in (S23_P2, S23_P5, S33_P2, SchemeSpec(sizes=(2, 2, 3), characteristic=3)):
        assert len(quotient_triples(spec)) + rad_dim(spec) == len(basis_triples(spec))


def test_signature_values():
    # signature keeps the wide coordinates shared by the outer masks but absent from the middle
    assert signature(S23_P2, t(S23_P2, "11,00,11")) == 0b10
    assert signature(S23_P2, t(S23_P2, "11,10,01")) == 0b10
    assert signature(S23_P2, t(S23_P2, "10,10,00")) == 0
    assert signature(S23_P5, t(S23_P5, "01,01,01")) == 0


def test_semisimple_rep_golden_char5():
    d = semisimple_rep(S23_P5, t(S23_P5, "11,00,11"))
    assert d.coeff(t(S23_P5, "11,00,11")) == 1
    # the inverse of the valency 2 mod 5 is 3, negated gives 2
    assert d.coeff(t(S23_P5, "11,01,11")) == 2
    assert len(d.terms) == 2


def test_semisimple_rep_is_the_basis_triple_when_nothing_lies_above():
    spec = S23_P5
    triple = t(spec, "01,01,00")
    assert semisimple_rep(spec, triple) == Element.basis(spec, triple)


def test_quotient_mul_golden():
    got = quotient_mul(S23_P2, t(S23_P2, "01,10,11"), t(S23_P2, "11,10,01"))
    assert got == t(S23_P2, "01,00,01")


def test_quotient_matrix_unit_law():
    for spec in (S23_P2, S23_P5):
        dts = quotient_triples(spec)
        sig = {d: signature(spec, d) for d in dts}
        for t1 in dts:
            for t2 in dts:
                got = quotient_mul(spec, t1, t2)
                if t1[2] == t2[0] and sig[t1] == sig[t2]:
                    assert got is not None
                    assert got[0] == t1[0] and got[2] == t2[2]
                    assert sig[got] == sig[t1]
                else:
                    assert got is None


@pytest.mark.parametrize("sizes, characteristic", [((2, 3), 0), ((3, 3), 2), ((2, 2, 3), 3)])
def test_quotient_law_over_columns_is_the_law_per_pair(sizes, characteristic):
    # Every pair of surviving triples at once, as two column sets, against the one-pair
    # law on ints and against quotient_mul.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    large, dts = spec.large_mask, quotient_triples(spec)
    columns = _columns(dts)
    left, right = np.divmod(np.arange(len(dts) ** 2), len(dts))
    live, product = quotient._quotient_law(large, columns[:, left], columns[:, right])
    assert live.dtype == bool and live.any() and not live.all()
    product = np.array(product).T.tolist()
    for a, b, alive, out in zip(left.tolist(), right.tolist(), live.tolist(), product):
        one_live, one_out = quotient._quotient_law(large, dts[a], dts[b])
        assert one_live == alive
        assert quotient_mul(spec, dts[a], dts[b]) == (tuple(out) if alive else None)
        if alive:
            assert one_out == tuple(out)


def test_quotient_mul_lifts_agree_modulo_radical():
    spec = S23_P2
    dts = quotient_triples(spec)
    for t1 in dts:
        for t2 in dts:
            lifted = semisimple_rep(spec, t1).mul(semisimple_rep(spec, t2))
            q = quotient_mul(spec, t1, t2)
            target = Element.zero(spec) if q is None else semisimple_rep(spec, q)
            assert in_radical(spec, lifted.sub(target))


def test_wedderburn_blocks_golden():
    check_golden_blocks()


def test_wedderburn_blocks_walk_their_rows_without_a_valency_test(monkeypatch):
    def refuse(spec, g):
        raise AssertionError("wedderburn_blocks tested a row's valency instead of listing the rows")

    monkeypatch.setattr(quotient, "p_divides_valency", refuse)
    check_golden_blocks()


def check_golden_blocks():
    blocks5 = wedderburn_blocks(S23_P5)
    assert [(b.signature, b.size) for b in blocks5] == [(0b00, 4), (0b10, 2)]
    assert blocks5[0].rows == (0b00, 0b10, 0b01, 0b11)
    assert blocks5[1].rows == (0b10, 0b11)

    blocks2 = wedderburn_blocks(S23_P2)
    assert [(b.signature, b.size) for b in blocks2] == [(0b00, 2), (0b10, 2)]
    assert blocks2[0].rows == (0b00, 0b01)
    assert blocks2[1].rows == (0b10, 0b11)

    blocks33 = wedderburn_blocks(S33_P2)
    assert [(b.signature, b.size) for b in blocks33] == [
        (0b00, 1),
        (0b10, 1),
        (0b01, 1),
        (0b11, 1),
    ]


def test_block_sizes_account_for_the_quotient_dimension():
    for spec in (S23_P2, S23_P5, S33_P2, SchemeSpec(sizes=(2, 2, 3), characteristic=2)):
        total = sum(b.size**2 for b in wedderburn_blocks(spec))
        assert total == len(quotient_triples(spec))


def test_verdicts():
    assert verdicts(S23_P5) == {"semisimple": True, "frobenius": True, "symmetric": True}
    assert verdicts(S23_Q) == {"semisimple": True, "frobenius": True, "symmetric": True}
    assert verdicts(S23_P2) == {"semisimple": False, "frobenius": False, "symmetric": False}
    assert verdicts(S33_P2) == {"semisimple": False, "frobenius": False, "symmetric": False}


def test_frobenius_witness_golden():
    assert frobenius_witness(S23_P5) is None
    got = frobenius_witness(S23_P2)
    assert got == {"left_ideal_dim": 2, "annihilator_dim": 16, "total": 18}
    got33 = frobenius_witness(S33_P2)
    assert got33 == {"left_ideal_dim": 3, "annihilator_dim": 21, "total": 24}


def test_frobenius_left_ideal_members():
    gens = frobenius_left_ideal(S23_P2)
    assert len(gens) == 2
    for x in gens:
        assert in_radical(S23_P2, x)
        # left multiples of a right-annihilated generator stay in the span
        y = Element.basis(S23_P2, t(S23_P2, "11,01,11")).mul(x)
        assert in_radical(S23_P2, y)


def test_wedderburn_summary_shape():
    got = wedderburn_summary(S23_P2)
    assert got["n_classes"] == 2
    assert got["blocks"] == [
        {"signature": "00", "size": 2, "rows": ["00", "10"]},
        {"signature": "01", "size": 2, "rows": ["01", "11"]},
    ]
    assert got["verdicts"]["semisimple"] is False


def blocks_by_grouping(spec):
    """The blocks as (signature, rows) pairs, by grouping the surviving triples by signature."""
    classes = {}
    for u in quotient_triples(spec):
        classes.setdefault(signature(spec, u), []).append(u)
    blocks = []
    for sig in sorted(classes, key=lambda m: render_mask(m, spec.n)):
        members = classes[sig]
        rows = tuple(u[0] for u in members if u[0] == u[2])
        assert len(members) == len(rows) ** 2
        blocks.append((sig, rows))
    return blocks


@given(
    st.lists(st.sampled_from([2, 3, 4, 5, 7]), min_size=1, max_size=4).map(tuple),
    st.sampled_from([0, 2, 3, 5]),
)
def test_wedderburn_blocks_equal_the_grouping_of_surviving_triples(sizes, p):
    spec = SchemeSpec(sizes, p)
    got = [(b.signature, b.rows) for b in wedderburn_blocks(spec)]
    assert got == blocks_by_grouping(spec)
