"""The center: basis, closed-form products, membership, nilpotency."""

import pytest

from terwilliger.algebra import Element, basis_triples
from terwilliger.center import (
    center_mul,
    center_nilpotent_index,
    center_rad_basis,
    center_summary,
    central_element,
    central_indices,
    check_central,
    is_central,
)
from terwilliger.scheme import SchemeSpec, parse_mask, valency

S23 = SchemeSpec(sizes=(2, 3))
S23_P2 = SchemeSpec(sizes=(2, 3), characteristic=2)
S33_P2 = SchemeSpec(sizes=(3, 3), characteristic=2)


def t(spec, text):
    return tuple(parse_mask(part, spec.n) for part in text.split(","))


def test_central_indices_are_subsets_of_the_large_mask():
    assert central_indices(S23) == [0b00, 0b10]
    spec = SchemeSpec(sizes=(2, 3, 3), characteristic=2)
    assert len(central_indices(spec)) == 4
    for g in central_indices(spec):
        assert g & ~spec.large_mask == 0


def test_check_central_rejects_binary_coordinates():
    with pytest.raises(ValueError):
        check_central(S23, 0b01)


def test_central_element_of_zero_is_the_identity():
    for spec in (S23, S23_P2):
        assert central_element(spec, 0) == Element.identity(spec)


def test_central_element_expansion_golden():
    # the nontrivial central generator on sizes (2,3) has coefficients 2,1,2,1
    for spec in (S23, S23_P2, SchemeSpec(sizes=(2, 3), characteristic=5)):
        c = central_element(spec, 0b10)
        field = spec.field
        assert c.coeff(t(spec, "00,00,00")) == field.of(2)
        assert c.coeff(t(spec, "01,01,01")) == field.of(1)
        assert c.coeff(t(spec, "10,00,10")) == field.of(2)
        assert c.coeff(t(spec, "11,01,11")) == field.of(1)
        expected_terms = 2 if spec.characteristic == 2 else 4
        assert len(c.terms) == expected_terms


def test_center_products_match_the_closed_form():
    for spec in (S23, S23_P2, SchemeSpec(sizes=(3, 3), characteristic=3)):
        for g in central_indices(spec):
            for h in central_indices(spec):
                coeff, union = center_mul(spec, g, h)
                assert union == g | h
                assert coeff == spec.field.of(valency(spec, g & h))
                lhs = central_element(spec, g).mul(central_element(spec, h))
                assert lhs == central_element(spec, union).scale(coeff)


def test_center_squares_golden():
    coeff, union = center_mul(S23, 0b10, 0b10)
    assert (coeff, union) == (2, 0b10)
    coeff2, _ = center_mul(S23_P2, 0b10, 0b10)
    assert S23_P2.field.is_zero(coeff2)


def test_is_central_accepts_the_generators():
    for spec in (S23, S23_P2, S33_P2):
        assert is_central(spec, Element.identity(spec))
        for g in central_indices(spec):
            assert is_central(spec, central_element(spec, g))
            assert is_central(spec, central_element(spec, g).scale(spec.field.of(3)))
        assert is_central(spec, Element.zero(spec))


def test_is_central_rejects_noncentral_basis_elements():
    for spec in (S23, S23_P2):
        central = {tr for g in central_indices(spec) for tr in central_element(spec, g).terms}
        for triple in basis_triples(spec):
            if triple in central:
                continue
            assert not is_central(spec, Element.basis(spec, triple))


def test_center_radical_and_nilpotent_index():
    assert center_rad_basis(S23) == []
    assert center_nilpotent_index(S23) == 1
    assert center_rad_basis(S23_P2) == [0b10]
    assert center_nilpotent_index(S23_P2) == 2
    assert center_nilpotent_index(S33_P2) == 3
    assert center_nilpotent_index(SchemeSpec(sizes=(3, 3))) == 1


def test_center_nilpotent_index_is_sharp():
    # index 3: some product of two radical generators survives, all of three vanish
    spec = S33_P2
    gens = [central_element(spec, g) for g in center_rad_basis(spec)]
    assert center_rad_basis(spec) == [0b10, 0b01, 0b11]  # bitstrings 01, 10, 11
    prod = gens[0].mul(gens[1])
    assert not prod.is_zero()
    for third in gens:
        assert prod.mul(third).is_zero()


def test_center_summary_shape():
    got = center_summary(S23_P2)
    assert got == {"dim": 2, "basis": ["00", "01"], "rad_dim": 1, "nilpotent_index": 2}
