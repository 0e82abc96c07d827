"""Masks, valencies, the ground field, and the combinatorial closed forms."""

import itertools
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from terwilliger import scheme
from terwilliger.scheme import (
    MAX_CHARACTERISTIC,
    GroundField,
    SchemeSpec,
    all_masks,
    bracket,
    intersection_number,
    is_basis_triple,
    layer,
    layer_count,
    mask_product,
    p_divides_valency,
    parse_mask,
    render_mask,
    submasks,
    subset_of,
    valency,
)

S23 = SchemeSpec(sizes=(2, 3))
S23_P2 = SchemeSpec(sizes=(2, 3), characteristic=2)
S234 = SchemeSpec(sizes=(2, 3, 4), characteristic=3)


def test_field_modular_arithmetic():
    f = GroundField(5)
    assert f.of(7) == 2
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.neg(2) == 3
    assert f.inv(3) == 2
    assert f.is_zero(f.of(10))
    assert f.p_divides(10) and not f.p_divides(7)


def test_field_char_zero_is_exact():
    f = GroundField(0)
    assert f.inv(3) == Fraction(1, 3)
    assert f.mul(Fraction(1, 3), 3) == 1
    assert not f.p_divides(12)
    assert f.parse("2/3") == Fraction(2, 3)
    assert f.render(Fraction(2, 3)) == "2/3"
    assert f.render(f.of(4)) == "4"


def test_field_rejects_nonprime_characteristic():
    with pytest.raises(ValueError):
        GroundField(4)
    with pytest.raises(ValueError):
        GroundField(1)


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_field_mod7_matches_integer_arithmetic(a, b):
    f = GroundField(7)
    assert f.add(f.of(a), f.of(b)) == (a + b) % 7
    assert f.mul(f.of(a), f.of(b)) == (a * b) % 7
    assert f.sub(f.of(a), f.of(b)) == (a - b) % 7


def test_spec_validation():
    with pytest.raises(ValueError):
        SchemeSpec(sizes=())
    with pytest.raises(ValueError):
        SchemeSpec(sizes=(2, 1))
    with pytest.raises(ValueError):
        SchemeSpec(sizes=(2,) * 21)
    with pytest.raises(ValueError):
        SchemeSpec(sizes=(2, 3), characteristic=6)
    with pytest.raises(ValueError, match="2.9"):
        SchemeSpec(sizes=(2.9, 3), characteristic=2)
    with pytest.raises(ValueError, match="2.0"):
        SchemeSpec(sizes=(2, 3), characteristic=2.0)
    with pytest.raises(ValueError, match="'3'"):
        SchemeSpec(sizes=(2, "3"))
    numpy_ints = SchemeSpec(sizes=(np.int64(2), np.int32(3)), characteristic=np.int64(3))
    assert numpy_ints == SchemeSpec(sizes=(2, 3), characteristic=3)
    assert type(numpy_ints.characteristic) is int


def test_spec_counts():
    spec = SchemeSpec(sizes=(2, 3, 4, 2), characteristic=3)
    assert spec.n == 4
    assert spec.n1 == 2 and spec.n2 == 2
    assert spec.num_points == 48
    assert spec.full_mask == 0b1111
    # sizes 3 and 4 sit at coordinates 2 and 3, i.e. bits 1 and 2
    assert spec.large_mask == 0b0110


def test_mask_rendering_is_coordinate_one_leftmost():
    # coordinate 1 is bit 0 but prints first
    assert render_mask(0b001, 3) == "100"
    assert render_mask(0b100, 3) == "001"
    assert parse_mask("110", 3) == 0b011
    with pytest.raises(ValueError):
        parse_mask("10", 3)
    with pytest.raises(ValueError):
        parse_mask("1x0", 3)


@pytest.mark.parametrize("text", ["0b1", "1_0", " 10", "+10", "10 "])
def test_parse_mask_refuses_integer_literal_syntax(text):
    # each of these is valid int(text, 2) input of its own length
    with pytest.raises(ValueError, match="bitstring"):
        parse_mask(text, len(text))


@pytest.mark.parametrize("text, n", [("10", 3), ("2", 1), (" ", 1), ("", 1), ("0_1", 3), ("+1", 2), ("\uff11", 1)])
def test_parse_mask_refuses_all_but_n_binary_digits(text, n):
    # a wrong length, a digit that is not binary, a blank, a separator, a sign and a full-width one
    with pytest.raises(ValueError) as err:
        parse_mask(text, n)
    assert str(err.value) == f"expected a length-{n} bitstring, got {text!r}"


def test_canonical_mask_order_is_bitstring_order():
    masks = all_masks(S23)
    rendered = [render_mask(m, 2) for m in masks]
    assert rendered == ["00", "01", "10", "11"]
    assert rendered == sorted(rendered)


@given(st.data(), st.integers(0, 2**10), st.integers(0, 8))
def test_mask_roundtrip(data, wide, n):
    bits = data.draw(st.integers(1, 10))
    m = data.draw(st.integers(0, 2**bits - 1))
    assert parse_mask(render_mask(m, bits), bits) == m
    # the per-bit definition, also for masks of n bits or more
    assert render_mask(wide, n) == "".join("1" if (wide >> a) & 1 else "0" for a in range(n))


@given(st.integers(0, 2**6 - 1))
def test_submasks_order_like_rendered_strings(m):
    got = submasks(m)
    assert got == sorted(got, key=lambda a: render_mask(a, 6))


def test_valency_values():
    # sizes (2,3,4): k multiplies (size-1) over the support
    assert valency(S234, 0) == 1
    assert valency(S234, 0b001) == 1
    assert valency(S234, 0b010) == 2
    assert valency(S234, 0b100) == 3
    assert valency(S234, 0b111) == 6
    assert S234.field.of(valency(S234, 0b111)) == 0  # 6 mod 3
    assert p_divides_valency(S234, 0b111)
    assert not p_divides_valency(S234, 0b001)


def test_valencies_sum_to_point_count():
    for spec in (S23, S234, SchemeSpec(sizes=(5, 5), characteristic=2)):
        assert sum(valency(spec, g) for g in all_masks(spec)) == spec.num_points


def test_circ_drops_binary_coordinates():
    assert 0b111 & S234.large_mask == 0b110
    assert 0b11 & S23.large_mask == 0b10
    assert 0b01 & S23.large_mask == 0


def test_basis_triple_count_formula():
    for sizes, expected in [
        ((2,), 4),
        ((3,), 5),
        ((2, 3), 20),
        ((2, 2), 16),
        ((3, 3), 25),
        ((2, 3, 3), 100),
    ]:
        spec = SchemeSpec(sizes=sizes)
        count = sum(
            1
            for g in all_masks(spec)
            for h in all_masks(spec)
            for i in all_masks(spec)
            if is_basis_triple(spec, g, h, i)
        )
        assert count == 4**spec.n1 * 5**spec.n2 == expected


def test_basis_triple_middles_form_an_interval():
    spec = SchemeSpec(sizes=(2, 3, 3), characteristic=2)
    for g in all_masks(spec):
        for i in all_masks(spec):
            lo = g ^ i
            hi = lo | (g & i & spec.large_mask)
            middles = {h for h in all_masks(spec) if is_basis_triple(spec, g, h, i)}
            assert middles == {h for h in all_masks(spec) if subset_of(spec, lo, h) and subset_of(spec, h, hi)}


def test_bracket_corner_case_is_union():
    spec = SchemeSpec(sizes=(3, 3, 3), characteristic=2)
    for g in all_masks(spec):
        for h in all_masks(spec):
            if not is_basis_triple(spec, g, h, g):
                continue
            for i in all_masks(spec):
                if not is_basis_triple(spec, g, i, g):
                    continue
                assert bracket(spec, g, h, g, i, g) == h | i


def test_mask_product_identities():
    spec = SchemeSpec(sizes=(2, 3, 4), characteristic=5)
    for g in all_masks(spec):
        assert mask_product(spec, g, 0) == g
        assert mask_product(spec, g, g) == g & spec.large_mask
        for h in all_masks(spec):
            assert mask_product(spec, g, h) == mask_product(spec, h, g)


def test_intersection_number_values():
    # args (g, h, i): count z with (x,z) in R_g and (z,y) in R_h, given (x,y) in R_i
    assert intersection_number(S23, 0, 0, 0) == 1
    assert intersection_number(S23, 0b10, 0b10, 0) == 2  # z ranges over xR_g for g of valency 2
    assert intersection_number(S23, 0b10, 0b10, 0b10) == 1  # size 3: the third point
    assert intersection_number(S23, 0b01, 0b01, 0b01) == 0  # size 2: no third point
    assert intersection_number(S23, 0b01, 0b10, 0b11) == 1
    assert intersection_number(S23, 0b10, 0b10, 0b11) == 0


def _intersection_number_by_patterns(spec, g, h, i):
    """The per-coordinate pattern loop: 1 for (0,0,0), (0,1,1), (1,0,1), s-1 for (1,1,0),
    s-2 for (1,1,1), and 0 for any other pattern of the bits of (g, h, i)."""
    count = 1
    for a, size in enumerate(spec.sizes):
        pattern = ((g >> a) & 1, (h >> a) & 1, (i >> a) & 1)
        if pattern in ((0, 0, 0), (0, 1, 1), (1, 0, 1)):
            continue
        if pattern == (1, 1, 0):
            count *= size - 1
        elif pattern == (1, 1, 1):
            count *= size - 2
        else:
            return 0
    return count


@given(
    st.builds(
        SchemeSpec,
        st.lists(st.integers(2, 11), min_size=1, max_size=4).map(tuple),
        st.sampled_from([0, 2, 3]),
    )
)
def test_intersection_number_matches_the_per_coordinate_patterns(spec):
    masks = all_masks(spec)
    for g, h, i in itertools.product(masks, masks, masks):
        assert intersection_number(spec, g, h, i) == _intersection_number_by_patterns(spec, g, h, i)


def test_layer_count_skips_divisible_valencies():
    spec = SchemeSpec(sizes=(3, 3, 4), characteristic=2)
    # coordinate valencies 2, 2, 3; only coordinate 3 survives p=2
    assert layer_count(spec, 0b111, 0) == 1
    assert layer_count(spec, 0b011, 0) == 0
    assert layer_count(SchemeSpec(sizes=(3, 3, 4)), 0b111, 0) == 3


def test_layer_members():
    spec = SchemeSpec(sizes=(3, 3, 4), characteristic=0)
    # canonical order sorts by rendered bitstring, so "010" comes before "100"
    assert layer(spec, 0b011, 0, 1) == [0b010, 0b001]
    assert layer(spec, 0b011, 0, 2) == [0b011]
    assert layer(spec, 0b011, 0b001, 1) == [0b011]


def test_layer_rejects_bad_arguments():
    spec = SchemeSpec(sizes=(3, 3, 4), characteristic=2)
    with pytest.raises(ValueError):
        layer(spec, 0b001, 0b010, 0)  # base not below top
    with pytest.raises(ValueError):
        layer(spec, 0b111, 0b001, 0)  # base valency 2 is divisible by p
    with pytest.raises(ValueError):
        layer(spec, 0b111, 0, 5)  # depth out of range


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))))
def test_submasks_lists_each_submask_once_in_canonical_order(n_and_mask):
    n, m = n_and_mask
    got = submasks(m)
    assert len(got) == len(set(got)) == 2 ** bin(m).count("1")
    assert got == [a for a in all_masks(SchemeSpec(sizes=(2,) * n)) if a & ~m == 0]


def _is_prime_by_trial_division(m):
    return m >= 2 and all(m % d for d in range(2, isqrt(m) + 1))


@given(st.integers(-5, 10**5))
def test_primality_matches_trial_division(m):
    assert scheme._is_prime(m) == _is_prime_by_trial_division(m)


def test_primality_on_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to every prime base up to 23, and up to 37
    assert not scheme._is_prime(3825123056546413051)
    assert not scheme._is_prime(318665857834031151167461)
    assert scheme._is_prime(2**61 - 1)
    assert scheme._is_prime(10**18 + 3)
    assert not scheme._is_prime(10**18 + 1)


def test_primality_is_decided_once_per_spec(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return True

    monkeypatch.setattr(scheme, "_is_prime", counting)
    spec = SchemeSpec(sizes=(2, 3), characteristic=5)
    assert spec.field.characteristic == 5
    assert calls == [5]


def test_field_refuses_characteristics_beyond_the_exact_bound():
    with pytest.raises(ValueError, match="bound"):
        GroundField(MAX_CHARACTERISTIC)
    with pytest.raises(ValueError, match="bound"):
        SchemeSpec(sizes=(2, 3), characteristic=2**89 - 1)


SPECS_UP_TO_5 = st.builds(
    SchemeSpec,
    st.lists(st.integers(2, 11), min_size=1, max_size=5).map(tuple),
    st.sampled_from([0, 2, 3, 5, 7]),
)


@given(SPECS_UP_TO_5)
def test_p_divides_valency_and_layer_count_match_per_coordinate_loops(spec):
    for g in all_masks(spec):
        assert p_divides_valency(spec, g) == spec.p_divides(valency(spec, g))
        for h in all_masks(spec):
            diff = g & ~h
            expected = sum(
                1 for a, size in enumerate(spec.sizes) if (diff >> a) & 1 and not spec.p_divides(size - 1)
            )
            assert layer_count(spec, g, h) == expected
