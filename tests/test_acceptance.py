"""Acceptance suite: twelve end-to-end checks, one printed line each.

Every check is exact; there are no tolerances anywhere.  Expected values
are frozen golden data, verified against the dense matrix oracle where a
second route exists.
"""

from terwilliger.algebra import Element, basis_triples, corner_basis, mul_triples
from terwilliger.center import central_element, central_indices
from terwilliger.oracle import (
    adjacency_matrix,
    annihilator_dim,
    dual_idempotent,
    identity_matrix,
    is_zero_matrix,
    mat_eq,
    mat_mul,
    realize,
    realize_raw_triple,
    span_rank,
)
from terwilliger.quotient import (
    frobenius_left_ideal,
    frobenius_witness,
    quotient_mul,
    quotient_triples,
    semisimple_rep,
    signature,
    wedderburn_blocks,
)
from terwilliger.radical import (
    corner_nilpotent_index,
    corner_rad_basis,
    in_radical,
    nilpotent_index,
    rad_dim,
    radical_triples,
    witness_chain,
)
from terwilliger.scheme import (
    SchemeSpec,
    all_masks,
    layer_count,
    p_divides_valency,
    parse_mask,
)
from terwilliger.verify import pick_base_points


def t(spec, text):
    return tuple(parse_mask(part, spec.n) for part in text.split(","))


def triples(spec, *texts):
    return [t(spec, x) for x in texts]


def emit(capsys, name, failures):
    line = f"PASS {name}" if not failures else f"FAIL {name}: {failures[0]}"
    with capsys.disabled():
        print(line)
    assert not failures, line


def expect(failures, condition, message):
    if not condition:
        failures.append(message)


# the twenty basis triples of the algebra on sizes (2,3), in canonical order
BASIS_23 = (
    "00,00,00 00,01,01 00,10,10 00,11,11 01,00,01 01,01,00 01,01,01 01,10,11"
    " 01,11,10 01,11,11 10,00,10 10,01,11 10,10,00 10,11,01 11,00,11 11,01,10"
    " 11,01,11 11,10,01 11,11,00 11,11,01"
).split()

# the twelve radical basis triples at characteristic 2
RADICAL_23_P2 = (
    "00,01,01 00,11,11 01,01,00 01,01,01 01,11,10 01,11,11 10,01,11 10,11,01"
    " 11,01,10 11,01,11 11,11,00 11,11,01"
).split()

# the eight quotient basis triples at characteristic 2
QUOTIENT_23_P2 = "00,00,00 00,10,10 01,00,01 01,10,11 10,00,10 10,10,00 11,00,11 11,10,01".split()


def test_a01_dimension_formula_and_oracle_rank(capsys):
    bad = []
    for sizes in [(2,), (3,), (2, 3), (2, 2), (3, 3), (2, 3, 3)]:
        for char in (0, 2):
            if char == 2 and sizes == (2, 3, 3):
                continue  # the rational run already covers the largest scheme
            spec = SchemeSpec(sizes=sizes, characteristic=char)
            expected = 4**spec.n1 * 5**spec.n2
            listed = basis_triples(spec)
            expect(
                bad,
                len(listed) == expected,
                f"{sizes} char {char}: enumerated {len(listed)}, formula gives {expected}",
            )
            mats = [realize_raw_triple(spec, triple) for triple in listed]
            rank = span_rank(spec, mats)
            expect(
                bad,
                rank == expected,
                f"{sizes} char {char}: oracle rank {rank}, formula gives {expected}",
            )
    emit(capsys, "A01 dimension formula matches the oracle rank", bad)


def test_a02_basis_list_and_product_golden(capsys):
    bad = []
    spec = SchemeSpec(sizes=(2, 3))
    expect(bad, basis_triples(spec) == triples(spec, *BASIS_23), "basis list differs")
    left, right = t(spec, "01,11,11"), t(spec, "11,01,11")
    for char in (0, 3, 5):
        s = SchemeSpec(sizes=(2, 3), characteristic=char)
        got = mul_triples(s, left, right)
        expect(
            bad,
            got == (s.field.of(2), left),
            f"char {char}: product gave {got}",
        )
    emit(capsys, "A02 basis enumeration and the sample product", bad)


def test_a03_center_golden(capsys):
    bad = []
    for char in (0, 2, 3, 5):
        spec = SchemeSpec(sizes=(2, 3), characteristic=char)
        field = spec.field
        expect(bad, central_element(spec, 0) == Element.identity(spec), f"char {char}: C at 00")
        c = central_element(spec, 0b10)
        wanted = [("00,00,00", 2), ("01,01,01", 1), ("10,00,10", 2), ("11,01,11", 1)]
        for text, value in wanted:
            expect(
                bad,
                c.coeff(t(spec, text)) == field.of(value),
                f"char {char}: coefficient at ({text})",
            )
        square = c.mul(c)
        expect(bad, square == c.scale(field.of(2)), f"char {char}: square of the generator")
        expect(bad, len(central_indices(spec)) == 2, f"char {char}: center dimension")
    emit(capsys, "A03 center basis, coefficients, and squares", bad)


def test_a04_radical_golden_with_oracle_nilpotency(capsys):
    bad = []
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    rad = radical_triples(spec)
    expect(bad, rad == triples(spec, *RADICAL_23_P2), "radical basis list differs")
    expect(bad, rad_dim(spec) == 12, "radical dimension")
    expect(bad, nilpotent_index(spec) == 3, "nilpotent index")

    mats = [realize(spec, Element.basis(spec, r)) for r in rad]
    zero_products = 0
    for a in mats:
        for b in mats:
            ab = mat_mul(spec, a, b)
            for c in mats:
                if is_zero_matrix(mat_mul(spec, ab, c)):
                    zero_products += 1
    expect(bad, zero_products == 1728, f"only {zero_products} of 1728 triple products vanish")

    chain = witness_chain(spec)
    expect(bad, len(chain) == 2, "witness chain length")
    prod = mat_mul(
        spec,
        realize(spec, Element.basis(spec, chain[0])),
        realize(spec, Element.basis(spec, chain[1])),
    )
    expect(bad, not is_zero_matrix(prod), "witness product vanished")
    emit(capsys, "A04 radical basis, 1728 vanishing products, live witness", bad)


def test_a05_quotient_basis_golden(capsys):
    bad = []
    spec5 = SchemeSpec(sizes=(2, 3), characteristic=5)
    expect(bad, quotient_triples(spec5) == basis_triples(spec5), "char 5 quotient basis")
    spec2 = SchemeSpec(sizes=(2, 3), characteristic=2)
    expect(
        bad,
        quotient_triples(spec2) == triples(spec2, *QUOTIENT_23_P2),
        "char 2 quotient basis",
    )
    got = quotient_mul(spec2, t(spec2, "01,10,11"), t(spec2, "11,10,01"))
    expect(bad, got == t(spec2, "01,00,01"), f"sample quotient product gave {got}")
    emit(capsys, "A05 quotient bases and the sample quotient product", bad)


def test_a06_wedderburn_blocks_golden(capsys):
    bad = []
    spec5 = SchemeSpec(sizes=(2, 3), characteristic=5)
    sizes5 = [b.size for b in wedderburn_blocks(spec5)]
    expect(bad, sizes5 == [4, 2], f"char 5 block sizes {sizes5}")
    spec2 = SchemeSpec(sizes=(2, 3), characteristic=2)
    sizes2 = [b.size for b in wedderburn_blocks(spec2)]
    expect(bad, sizes2 == [2, 2], f"char 2 block sizes {sizes2}")
    for spec in (spec5, spec2):
        total = sum(b.size**2 for b in wedderburn_blocks(spec))
        expect(
            bad,
            total == len(basis_triples(spec)) - rad_dim(spec),
            f"char {spec.characteristic}: block bookkeeping",
        )
    emit(capsys, "A06 Wedderburn block sizes and bookkeeping", bad)


def test_a07_structure_constants_match_the_oracle_everywhere(capsys):
    bad = []
    pairs_checked = 0
    cases = [((2, 3), (0, 2, 3, 5)), ((2, 2, 3), (2, 3))]
    for sizes, chars in cases:
        for char in chars:
            spec = SchemeSpec(sizes=sizes, characteristic=char)
            listed = basis_triples(spec)
            mats = {triple: realize(spec, Element.basis(spec, triple)) for triple in listed}
            mismatches = 0
            for t1 in listed:
                for t2 in listed:
                    lhs = realize(spec, Element.basis(spec, t1).mul(Element.basis(spec, t2)))
                    if not mat_eq(lhs, mat_mul(spec, mats[t1], mats[t2])):
                        mismatches += 1
                    pairs_checked += 1
            expect(bad, mismatches == 0, f"{sizes} char {char}: {mismatches} mismatched products")
    expect(bad, pairs_checked == 4 * 400 + 2 * 6400, f"checked {pairs_checked} pairs")
    emit(capsys, "A07 all products realize faithfully (14400 pairs)", bad)


def test_a08_realized_center_commutes(capsys):
    bad = []
    cases = [((2, 3), (0, 2, 3, 5)), ((2, 2, 3), (2, 3))]
    for sizes, chars in cases:
        for char in chars:
            spec = SchemeSpec(sizes=sizes, characteristic=char)
            for base in pick_base_points(spec, 2):
                for g in central_indices(spec):
                    cg = realize(spec, central_element(spec, g), base_point=base)
                    for h in all_masks(spec):
                        a = adjacency_matrix(spec, h)
                        if not mat_eq(mat_mul(spec, cg, a), mat_mul(spec, a, cg)):
                            bad.append(f"{sizes} char {char}: adjacency {h} at base {base}")
                        e = dual_idempotent(spec, base, h)
                        if not mat_eq(mat_mul(spec, cg, e), mat_mul(spec, e, cg)):
                            bad.append(f"{sizes} char {char}: projector {h} at base {base}")
    emit(capsys, "A08 realized center commutes with the generators", bad)


def test_a09_quotient_matrix_units(capsys):
    bad = []
    for char in (2, 5):
        spec = SchemeSpec(sizes=(2, 3), characteristic=char)
        dts = quotient_triples(spec)
        # slot lookup: (signature, row, column) identifies each quotient triple
        slot = {}
        for d in dts:
            slot[(signature(spec, d), d[0], d[2])] = d
        expect(bad, len(slot) == len(dts), f"char {char}: slots are not a bijection")
        for t1 in dts:
            for t2 in dts:
                s1, s2 = signature(spec, t1), signature(spec, t2)
                wanted = None
                if s1 == s2 and t1[2] == t2[0]:
                    wanted = slot[(s1, t1[0], t2[2])]
                got = quotient_mul(spec, t1, t2)
                if got != wanted:
                    bad.append(f"char {char}: {t1} times {t2} gave {got}, wanted {wanted}")
        # the representatives multiply the same way modulo the radical
        for t1 in dts:
            for t2 in dts:
                lifted = semisimple_rep(spec, t1).mul(semisimple_rep(spec, t2))
                q = quotient_mul(spec, t1, t2)
                target = Element.zero(spec) if q is None else semisimple_rep(spec, q)
                if not in_radical(spec, lifted.sub(target)):
                    bad.append(f"char {char}: lift of {t1} times {t2} is off the radical")
    emit(capsys, "A09 matrix unit law and lifted products", bad)


def test_a10_frobenius_falsification(capsys):
    bad = []
    expect(
        bad,
        frobenius_witness(SchemeSpec(sizes=(2, 3), characteristic=5)) is None,
        "char 5 wrongly has a witness",
    )
    for sizes, ideal_dim, ann_dim, total, dim_t in [
        ((2, 3), 2, 16, 18, 20),
        ((3, 3), 3, 21, 24, 25),
    ]:
        spec = SchemeSpec(sizes=sizes, characteristic=2)
        got = frobenius_witness(spec)
        expect(
            bad,
            got == {"left_ideal_dim": ideal_dim, "annihilator_dim": ann_dim, "total": total},
            f"{sizes}: witness {got}",
        )
        gens = frobenius_left_ideal(spec)
        expect(bad, len(gens) == ideal_dim, f"{sizes}: generator count")
        oracle_ann = annihilator_dim(spec, gens)
        expect(bad, oracle_ann == ann_dim, f"{sizes}: oracle annihilator {oracle_ann}")
        expect(bad, total < dim_t, f"{sizes}: {total} does not fall short of {dim_t}")
    emit(capsys, "A10 Frobenius form ruled out by dimension count", bad)


def test_a11_corner_structure(capsys):
    bad = []
    for char in (2, 5):
        spec = SchemeSpec(sizes=(2, 3), characteristic=char)
        for g in all_masks(spec):
            middles = corner_basis(spec, g)
            rad = corner_rad_basis(spec, g)
            surviving = [a for a in middles if not p_divides_valency(spec, a)]
            expect(
                bad,
                len(middles) == 2 ** layer_count(spec, g & spec.large_mask, 0) + len(rad),
                f"char {char} corner {g}: dimension split",
            )
            qualifying = sum(
                1
                for a, size in enumerate(spec.sizes)
                if (g >> a) & 1 and spec.p_divides(size - 1)
            )
            expect(
                bad,
                corner_nilpotent_index(spec, g) == qualifying + 1,
                f"char {char} corner {g}: nilpotent index",
            )
            reps = {a: semisimple_rep(spec, (g, a, g)) for a in surviving}
            for a in surviving:
                for b in surviving:
                    product = reps[a].mul(reps[b])
                    wanted = reps[a] if a == b else Element.zero(spec)
                    if product != wanted:
                        bad.append(f"char {char} corner {g}: symbolic product {a},{b}")
                    lhs = mat_mul(spec, realize(spec, reps[a]), realize(spec, reps[b]))
                    if not mat_eq(lhs, realize(spec, wanted)):
                        bad.append(f"char {char} corner {g}: matrix product {a},{b}")
    emit(capsys, "A11 corner dimensions, indices, orthogonal idempotents", bad)


def test_a12_base_point_independence(capsys):
    bad = []
    for sizes in [(2, 3), (2, 2, 3)]:
        spec = SchemeSpec(sizes=sizes, characteristic=2)
        full_ranks = []
        rad_ranks = []
        for base in pick_base_points(spec, 2):
            listed = basis_triples(spec)
            mats = [
                realize(spec, Element.basis(spec, triple), base_point=base)
                for triple in listed
            ]
            full_ranks.append(span_rank(spec, mats))
            rad_mats = [
                realize(spec, Element.basis(spec, triple), base_point=base)
                for triple in radical_triples(spec)
            ]
            rad_ranks.append(span_rank(spec, rad_mats))
        expect(bad, len(set(full_ranks)) == 1, f"{sizes}: full ranks {full_ranks}")
        expect(bad, len(set(rad_ranks)) == 1, f"{sizes}: radical ranks {rad_ranks}")
        expect(
            bad,
            full_ranks[0] == len(basis_triples(spec)),
            f"{sizes}: oracle rank {full_ranks[0]} misses the symbolic dimension",
        )
        expect(
            bad,
            rad_ranks[0] == rad_dim(spec),
            f"{sizes}: radical rank {rad_ranks[0]} misses the symbolic dimension",
        )
    emit(capsys, "A12 dimensions agree across base points", bad)
