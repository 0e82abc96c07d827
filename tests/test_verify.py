"""The self-check harness: plumbing, determinism, and the small-scheme sweep."""

import functools
import itertools
import random
from dataclasses import fields

import numpy as np
import pytest

from terwilliger import quotient, radical, verify
from terwilliger.algebra import Element, basis_triples, mul_triples, render_triple
from terwilliger.scheme import SchemeSpec
from terwilliger.verify import ALL_CHECKS, CheckResult, pick_base_points, run_all


def test_check_result_json():
    r = CheckResult(name="sample", passed=True, count=3, seconds=0.01234, detail="")
    got = r.to_json()
    assert got["name"] == "sample"
    assert got["passed"] is True
    assert got["count"] == 3
    assert isinstance(got["seconds"], float)


def test_check_result_json_keys_are_the_fields_in_order():
    r = CheckResult(name="sample", passed=False, count=7, seconds=1.23456, detail="why")
    got = r.to_json()
    assert list(got) == [f.name for f in fields(CheckResult)]
    assert got == {"name": "sample", "passed": False, "count": 7, "seconds": 1.235, "detail": "why"}


def test_pick_base_points_spread():
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    got = pick_base_points(spec, 3)
    assert len(got) == len(set(got)) == 3
    assert got[0] == (0, 0)
    assert got[-1] == (1, 2)
    assert pick_base_points(spec, 1) == [(0, 0)]


def test_run_all_passes_and_is_deterministic():
    spec = SchemeSpec(sizes=(2, 2), characteristic=2)
    first = run_all(spec, seed=11)
    second = run_all(spec, seed=11)
    assert [r.name for r in first] == [name for name, _ in ALL_CHECKS]
    assert all(r.passed for r in first)
    assert [(r.name, r.passed, r.count, r.detail) for r in first] == [
        (r.name, r.passed, r.count, r.detail) for r in second
    ]


def test_run_all_rejects_oversized_schemes():
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    with pytest.raises(ValueError):
        run_all(spec, cap=4)


def test_run_all_admits_every_spec_under_the_default_cap_and_refuses_larger_stacks(monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", [])
    # the largest stack under the default cap: 20,480 matrices of 192^2 entries, about 755 MB
    assert run_all(SchemeSpec(sizes=(2,) * 6 + (3,), characteristic=2)) == []
    monkeypatch.setattr(verify, "STACK_BYTES_BOUND", 20 * 6**2 - 1)
    with pytest.raises(ValueError, match="about 720 bytes"):
        run_all(SchemeSpec(sizes=(2, 3), characteristic=2))


def test_run_all_refuses_dense_products_beyond_the_point_bound(monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", [])
    assert run_all(SchemeSpec(sizes=(20, 25), characteristic=2), cap=5000) == []
    with pytest.raises(ValueError, match=r"501\^3 = 125751501 multiply-adds"):
        run_all(SchemeSpec(sizes=(3, 167), characteristic=2), cap=5000)


def run_check(name, spec):
    check = dict(ALL_CHECKS)[name]
    return check(spec, pick_base_points(spec, 2), random.Random(0), verify.DEFAULT_ORACLE_CAP)


def test_radical_dimension_is_checked_against_its_closed_form(monkeypatch):
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    # A radical predicate that is wrong wherever it is used must still be caught.
    monkeypatch.setattr(radical, "p_divides_valency", lambda spec, g: False)
    monkeypatch.setattr(verify, "p_divides_valency", lambda spec, g: False)
    assert run_check("radical-nilpotency", spec) == (
        False, 0, "radical basis filter is inconsistent"
    )


def test_corner_nilpotent_index_is_checked_against_the_corner_radical(monkeypatch):
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    # An index formula that forgets to restrict to the corner's mask.
    monkeypatch.setattr(
        verify,
        "corner_nilpotent_index",
        lambda spec, g: 1 + len(radical.qualifying_coordinates(spec)),
    )
    passed, _, detail = run_check("corner-structure", spec)
    assert not passed
    assert detail == "corner nilpotent index formula fails at 00"


def test_block_bookkeeping_catches_a_dropped_block_row(monkeypatch):
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    blocks = verify.wedderburn_blocks(spec)
    dropped = [quotient.WedderburnBlock(blocks[0].signature, blocks[0].rows[1:]), *blocks[1:]]
    monkeypatch.setattr(verify, "wedderburn_blocks", lambda spec: dropped)
    assert run_check("block-bookkeeping", spec) == (
        False, 0, "block sizes do not square-sum to the quotient dimension"
    )


def test_radical_nilpotency_realizes_each_radical_triple_once(monkeypatch):
    spec = SchemeSpec(sizes=(3, 3), characteristic=2)
    given = []
    realize_stack = verify.oracle.realize_stack
    monkeypatch.setattr(
        verify.oracle, "realize_stack",
        lambda spec, triples, *args: given.extend(triples) or realize_stack(spec, triples, *args),
    )
    passed, count, _ = run_check("radical-nilpotency", spec)
    assert passed and count > verify.ORACLE_SAMPLE
    assert given and len(given) == len(set(given)) <= len(radical.radical_triples(spec))


@pytest.mark.parametrize("seed", [0, 1, 1729])
@pytest.mark.parametrize("size, length", [
    (1, 3), (7, 2), (48, 3), (117, 6), (300, 1),
    (2, 2), (8, 4), (9, 3), (2**16, 2), (2**17 + 3, 1), (2**32 - 1, 1),
])
def test_sample_draws_as_randrange_does(seed, size, length):
    # At size 8 half of all words are rejected.  corner-structure draws again from the
    # same rng at its next sampled corner, so the state afterwards must match too.
    rng = random.Random(seed)
    expected = [[rng.randrange(size) for _ in range(length)] for _ in range(verify.SAMPLE_COUNT)]
    drawn = random.Random(seed)
    got = verify._sample(size, length, drawn)
    assert got.dtype == np.int64 and got.tolist() == expected
    assert drawn.getstate() == rng.getstate()


def test_sample_refuses_a_size_beyond_one_32_bit_word_before_drawing():
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="4294967296"):
        verify._sample(2**32, 2, rng)
    assert rng.getstate() == state


def _break_one_product(break_law, spec, chain):
    """Make the column law wrong on the last pair of the sweep whose masks chain (or do not)."""
    triples = basis_triples(spec)
    pairs = list(itertools.product(triples, triples))
    position = max(k for k, (t1, t2) in enumerate(pairs) if (t1[2] == t2[0]) == chain and
                   (not chain or mul_triples(spec, t1, t2) is not None))
    bad = pairs[position]
    break_law(bad)
    names = " * ".join(render_triple(spec, t) for t in bad)
    return position, f"product {names} disagrees with the matrix oracle"


@pytest.mark.parametrize("chain", [False, True])
def test_structure_constants_catch_one_wrong_product(break_law, chain):
    # With chain False the operands' middles differ, so their realized product
    # is zero; the engine's nonzero answer must still fail.
    spec = SchemeSpec(sizes=(2, 3), characteristic=3)
    position, detail = _break_one_product(break_law, spec, chain)
    assert run_check("structure-constants", spec) == (False, position, detail)


def test_structure_constants_check_every_pair_at_characteristic_0():
    # (3,3,3)/0 has 27 points and dim 125; every pair is checked, none sampled.
    spec = SchemeSpec(sizes=(3, 3, 3), characteristic=0)
    assert run_check("structure-constants", spec) == (True, 15625, "exhaustive")


def test_structure_constants_catch_a_dropped_product(break_law):
    # The law answers zero at the first nonzero product, with a triple there that
    # indexes no basis element; the oracle's product must still be compared with zero.
    spec = SchemeSpec(sizes=(2, 3), characteristic=3)
    triples = basis_triples(spec)
    pairs = list(itertools.product(triples, triples))
    position = next(k for k, pair in enumerate(pairs) if mul_triples(spec, *pair) is not None)
    break_law(pairs[position], lambda spec, hit: (0, (1, 0, 0)))
    names = " * ".join(render_triple(spec, t) for t in pairs[position])
    assert run_check("structure-constants", spec) == (
        False, position, f"product {names} disagrees with the matrix oracle"
    )


def test_ideal_closure_catches_one_wrong_product(break_law):
    # The closure sweep runs the column law; one product that leaves the
    # radical must fail the identity at its place in the sweep and be named.
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    triples = basis_triples(spec)
    sweep = [pair for r in radical.radical_triples(spec) for t in triples for pair in ((t, r), (r, t))]
    position = len(sweep) // 2
    bad = sweep[position]
    break_law(bad, lambda spec, hit: (1, (0, 0, 0)))
    names = " * ".join(render_triple(spec, t) for t in bad)
    assert run_check("radical-nilpotency", spec) == (
        False, 1 + position, f"ideal closure fails: {names} leaves the radical"
    )


def _flat_radical_nilpotency(spec, base_points, rng, cap):
    """The sequence sweep of radical-nilpotency multiplied out one sequence at a time."""
    rad = verify.radical_triples(spec)
    count = 1 + 2 * len(rad) * len(basis_triples(spec))
    index = verify.nilpotent_index(spec)
    total = len(rad) ** index
    if total <= verify.EXHAUSTIVE_GATE:
        seqs = list(itertools.product(rad, repeat=index))
        mode = f"exhaustive {total} sequences"
    else:
        seqs = [tuple(rad[k] for k in row) for row in verify._sample(len(rad), index, rng)]
        mode = f"sampled {verify.SAMPLE_COUNT} of {total} sequences"
    elements = {r: Element.basis(spec, r) for r in rad}
    for seq in seqs:
        e = elements[seq[0]]
        for t in seq[1:]:
            if e.is_zero():
                break
            e = e.mul(elements[t])
        if not e.is_zero():
            names = " * ".join(render_triple(spec, t) for t in seq)
            return False, count, f"nonzero product of {index} radical elements: {names}"
        count += 1
    x = base_points[0]
    for seq in seqs[: verify.ORACLE_SAMPLE]:
        acc = verify.oracle.realize_triple(spec, seq[0], x, cap)
        for t in seq[1:]:
            acc = verify.oracle.mat_mul(spec, acc, verify.oracle.realize_triple(spec, t, x, cap))
        if not verify.oracle.is_zero_matrix(acc):
            return False, count, "oracle found a nonzero radical product the engine missed"
        count += 1
    return True, count, mode


@pytest.mark.parametrize("sizes, short", [
    ((2, 3), 1), ((2, 2, 3), 1), ((3, 3), 1), ((3, 3), 0), ((3, 3, 3), 1),
])
def test_radical_nilpotency_records_match_the_flat_sweep(monkeypatch, sizes, short):
    # short = 1 claims an index one too small, so the sweep must find the
    # first nonzero product and report it as the flat sweep does.
    spec = SchemeSpec(sizes=sizes, characteristic=2)
    index = radical.nilpotent_index(spec) - short
    monkeypatch.setattr(verify, "nilpotent_index", lambda spec: index)
    expected = _flat_radical_nilpotency(
        spec, pick_base_points(spec, 2), random.Random(0), verify.DEFAULT_ORACLE_CAP
    )
    assert run_check("radical-nilpotency", spec) == expected


def test_radical_nilpotency_skips_sequences_with_a_zero_prefix(monkeypatch):
    # Past the ideal closure's 2 * rad * dim T pairs, the sequence sweep multiplies a
    # prefix only while its product is nonzero: 5,376 rows, not 110,592 sequences.
    spec = SchemeSpec(sizes=(2, 2, 3), characteristic=2)
    rows = []
    law = verify._mul_columns
    monkeypatch.setattr(
        verify, "_mul_columns", lambda spec, t1, t2: rows.append(np.broadcast(*t1, *t2).size) or law(spec, t1, t2)
    )
    assert run_check("radical-nilpotency", spec) == (True, 118473, "exhaustive 110592 sequences")
    closure = 2 * len(radical.radical_triples(spec)) * len(basis_triples(spec))
    assert 0 < sum(rows) - closure < 10_000


def test_quotient_matrix_units_multiplies_only_lifts_whose_terms_chain(monkeypatch):
    # At (2,3)/0 the lift sweep has 20 x 20 pairs of representatives, 576 pairs of their
    # terms.  Only the 160 term pairs whose right and left masks meet are given to the
    # column law, from the 104 lifts that have any, and every pair is still counted.
    spec = SchemeSpec(sizes=(2, 3), characteristic=0)
    rows = []
    law = verify._mul_columns
    monkeypatch.setattr(
        verify, "_mul_columns", lambda spec, t1, t2: rows.append(np.broadcast(*t1, *t2).size) or law(spec, t1, t2)
    )
    assert run_check("quotient-matrix-units", spec) == (True, 20 + 400 + 400, "")
    reps = [quotient.semisimple_rep(spec, t) for t in quotient.quotient_triples(spec)]
    chaining = [sum(s[2] == t[0] for s in x.terms for t in y.terms) for x, y in itertools.product(reps, reps)]
    assert sum(rows) == sum(chaining) == 160
    assert sum(map(bool, chaining)) == 104


def _multiplied_out(field, seq, mul):
    """The chain loop center-structure and corner-structure each wrote out: every step's
    scalar is multiplied in, and only a step that returns None ends the walk early."""
    s, m = field.one(), seq[0]
    for a in seq[1:]:
        hit = mul(m, a)
        if hit is None:
            s = field.zero()
            break
        step, m = hit
        s = field.mul(s, step)
    return field.is_zero(s)


def _flat_sweep(pop, length, rng, nonzero):
    """_sweep's reference: each itertools.product sequence, or each _sample one above the
    gate mapped back to pop, is multiplied out in full by nonzero(seq) until the first
    nonzero product.  Returns the count before it, that sequence and _sample's positions."""
    sample = verify._sample(len(pop), length, rng) if len(pop) ** length > verify.EXHAUSTIVE_GATE else None
    seqs = itertools.product(pop, repeat=length) if sample is None else (
        tuple(pop[k] for k in row) for row in sample
    )
    settled = 0
    for seq in seqs:
        if nonzero(seq):
            return settled, seq, sample
        settled += 1
    return settled, None, sample


def _flat_mask_sweep(field, mul):
    """A stand-in for _sweep over mask columns that maps each sequence back to its masks and
    multiplies it out by the loop the two checks each wrote out, one mul(m, a) a step."""
    def sweep(pop, length, rng, step):
        return _flat_sweep(pop[0].tolist(), length, rng, lambda seq: not _multiplied_out(field, seq, mul))

    return sweep


def _idempotent_at(law, u):
    """The column law law(acc, nxt), except that u * u = u with coefficient 1."""
    def step(acc, nxt):
        coeffs, product = law(acc, nxt)
        at = np.logical_and.reduce([col == m for col, m in zip((*acc, *nxt), u + u)])
        return np.where(at, 1, coeffs), tuple(np.where(at, m, col) for col, m in zip(product, u))

    return step


def _planted(kind, where):
    """A population none of whose products of two factors is nonzero, a column step over it
    that also makes u * u = u for u = pop[where], and the full product as a nonzero test
    that multiplies out one factor at a time; so (u, ..., u) is the one sequence with a
    nonzero product."""
    if kind == "element":
        spec = SchemeSpec(sizes=(3, 3), characteristic=2)
        # no right mask is 01, the left mask of every factor: no two factors chain
        pop = [t for t in radical.radical_triples(spec) if t[0] == 1 != t[2]]
        elements = {t: Element.basis(spec, t) for t in pop}
        e = elements[pop[where]]
        mul = lambda x, y: x if x == y == e else x.mul(y)
        nonzero = lambda seq: not functools.reduce(mul, [elements[t] for t in seq]).is_zero()
        return pop, 3, _idempotent_at(functools.partial(verify._mul_columns, spec), pop[where]), nonzero
    # The center's radical masks at (3,3,3)/2 are the corner 111's.  Those that contain
    # 001 meet each other: center_mul gives each pair a zero scalar, corner_mul None.
    spec = SchemeSpec(sizes=(3, 3, 3), characteristic=2)
    if kind == "center_mul":
        real = functools.partial(verify.center_mul, spec)
    else:
        real = functools.partial(verify.corner_mul, spec, spec.full_mask)
    pop = [m for m in verify.center_rad_basis(spec) if m & 1]
    one = spec.field.one()
    mul = lambda m, a: (one, m) if m == a == pop[where] else real(m, a)
    step = _idempotent_at(functools.partial(verify._mask_columns, spec), (pop[where],))
    return pop, 4, step, lambda seq: not _multiplied_out(spec.field, seq, mul)


@pytest.mark.parametrize("kind", ["center_mul", "corner_mul", "element"])
# exhaustive, sampled, and the gate's edge: exhaustive at the sequence count, sampled one above
@pytest.mark.parametrize("gate", [10**6, 10, "total", "total-1"])
@pytest.mark.parametrize("where", [0, 2, 3])  # (u, ..., u) first, in the middle, last
def test_sweep_matches_the_flat_reference(monkeypatch, kind, gate, where):
    pop, length, step, nonzero = _planted(kind, where)
    total = len(pop) ** length
    gate = {"total": total, "total-1": total - 1}.get(gate, gate)
    monkeypatch.setattr(verify, "EXHAUSTIVE_GATE", gate)
    expected = _flat_sweep(pop, length, random.Random(5), nonzero)
    columns = tuple(np.array(pop, dtype=np.int64).reshape(len(pop), -1).T)
    settled, found, sample = verify._sweep(columns, length, random.Random(5), step)
    assert (settled, tuple(pop[k] for k in found)) == expected[:2]
    assert (sample is None) == (expected[2] is None) == (gate >= total)
    assert len(pop) == 4 and found == (where,) * length
    if sample is None:
        # the lexicographic position of (u, ..., u): 0, its middle entry, the last entry
        assert settled == where * (total - 1) // (len(pop) - 1)
    else:
        assert np.array_equal(sample, expected[2]) and settled == sample.tolist().index([where] * length)


@pytest.mark.parametrize("check, name", [
    ("corner-structure", "corner_mul"), ("center-structure", "center_mul"),
])
def test_chain_sweeps_fail_as_the_multiplied_out_loop_does(monkeypatch, check, name):
    # Every mask of (3,3,3)/2 qualifies, so a chain of radical masks vanishes as soon as
    # two factors meet.  The broken law makes (111) * (001) nonzero, deep in the sweep;
    # the reference multiplies each chain out by the closed form, broken at that pair.
    spec = SchemeSpec(sizes=(3, 3, 3), characteristic=2)
    full, one = spec.full_mask, spec.field.one()
    # every corner's radical masks are also the full corner's
    real = functools.partial(getattr(verify, name), spec, *([full] if name == "corner_mul" else []))
    if check == "corner-structure":
        detail = "corner radical at 111 is not nilpotent at its index"
    else:
        detail = "a length-index product of center radical elements is nonzero"
    wrong = lambda m, a: (one, full) if (m, a) == (full, 0b001) else real(m, a)
    law = verify._mask_columns

    def broken(spec, m, a):
        coeffs, (product,) = law(spec, m, a)
        at = (m[0] == full) & (a[0] == 0b001)
        return np.where(at, 1, coeffs), (np.where(at, full, product),)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "_mask_columns", broken)
        got = run_check(check, spec)
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_sweep", _flat_mask_sweep(spec.field, wrong))
        assert got == run_check(check, spec)
    assert got[0] is False and got[2] == detail
    passed, exact, _ = run_check(check, spec)
    assert passed and got[1] < exact


@pytest.mark.parametrize("check, name", [
    ("center-structure", "center_mul"), ("corner-structure", "corner_mul"),
])
def test_chain_sweeps_settle_zero_prefixes_without_multiplying(monkeypatch, check, name):
    # At (3,3,3)/2 two radical masks that meet multiply to zero, so most chains vanish
    # within two factors: the sweeps multiply fewer rows than they have chains.
    spec = SchemeSpec(sizes=(3, 3, 3), characteristic=2)
    if check == "center-structure":
        chains = len(verify.center_rad_basis(spec)) ** verify.center_nilpotent_index(spec)
    else:
        chains = sum(len(radical.corner_rad_basis(spec, g)) ** radical.corner_nilpotent_index(spec, g)
                     for g in range(1 << spec.n))
    rows = []
    law = verify._mask_columns
    monkeypatch.setattr(verify, "_mask_columns", lambda spec, m, a: rows.append(m[0].size) or law(spec, m, a))
    passed, _, _ = run_check(check, spec)
    assert passed and 0 < sum(rows) < chains


def _sampled_above_a_gate_of_10(monkeypatch, check, spec):
    """The check's exhaustive count, then its record and _sample calls with the gate at 10."""
    passed, exhaustive, _ = run_check(check, spec)
    assert passed
    monkeypatch.setattr(verify, "EXHAUSTIVE_GATE", 10)
    calls = []
    sample = verify._sample
    monkeypatch.setattr(verify, "_sample", lambda *args: calls.append(args[:2]) or sample(*args))
    return exhaustive, run_check(check, spec), calls


def test_corner_radical_sweep_samples_above_the_gate(monkeypatch):
    spec = SchemeSpec(sizes=(3, 3), characteristic=2)
    exhaustive, got, calls = _sampled_above_a_gate_of_10(monkeypatch, "corner-structure", spec)
    # Only the corner at 11 has more than 10 radical sequences: 3 radical middles, index 3.
    rad = radical.corner_rad_basis(spec, 0b11)
    assert (len(rad), radical.corner_nilpotent_index(spec, 0b11)) == (3, 3)
    assert got == (
        True, exhaustive - 27 + verify.SAMPLE_COUNT, "radical sequences sampled at 1 of 4 corners"
    )
    assert calls == [(len(rad), 3)]


def test_center_radical_sweep_samples_above_the_gate(monkeypatch):
    spec = SchemeSpec(sizes=(3, 3), characteristic=2)
    exhaustive, got, calls = _sampled_above_a_gate_of_10(monkeypatch, "center-structure", spec)
    # 3 center radical masks at index 3: 27 sequences.
    rad = verify.center_rad_basis(spec)
    assert (len(rad), verify.center_nilpotent_index(spec)) == (3, 3)
    assert got == (
        True, exhaustive - 27 + verify.SAMPLE_COUNT, f"sampled {verify.SAMPLE_COUNT} of 27 sequences"
    )
    assert calls == [(len(rad), 3)]


def _size_multisets(limit, least=2):
    """Every non-decreasing tuple of factor sizes >= least whose product is at most limit."""
    yield ()
    for size in range(least, limit + 1):
        for rest in _size_multisets(limit // size, size):
            yield (size, *rest)


def test_chain_sweeps_stay_exhaustive_below_the_default_oracle_cap():
    # The largest center or corner radical population under the cap is 759,375
    # (15 radical masks, index 5, e.g. at (2,3,3,3,3)/2), below EXHAUSTIVE_GATE, so the
    # gate cannot change a record of a spec that verify accepts by default.  Both radicals
    # are zero unless the characteristic divides some s - 1 < 200.
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    largest = 0
    for sizes in _size_multisets(verify.DEFAULT_ORACLE_CAP):
        for p in primes:
            if sizes and any((size - 1) % p == 0 for size in sizes):
                spec = SchemeSpec(sizes=sizes, characteristic=p)
                largest = max(
                    largest,
                    len(verify.center_rad_basis(spec)) ** verify.center_nilpotent_index(spec),
                    *(len(radical.corner_rad_basis(spec, g)) ** radical.corner_nilpotent_index(spec, g)
                      for g in range(1 << spec.n)),
                )
    assert largest == 759_375 < verify.EXHAUSTIVE_GATE


@pytest.mark.parametrize("sizes", [(2, 3), (3, 3)])
def test_run_all_over_a_prime_beyond_int64_matches_a_small_prime(sizes):
    # 2^64 + 13 does not fit in int64, so every reduction mod p runs on Python ints.
    def records(p):
        return [(r.name, r.passed, r.count, r.detail) for r in run_all(SchemeSpec(sizes=sizes, characteristic=p))]

    assert records(2**64 + 13) == records(1048583)


@pytest.mark.parametrize("characteristic", [2, 0])
def test_center_structure_commutation_agrees_with_element_products(monkeypatch, characteristic):
    # The check compares triple products; flipping is_central at one basis
    # element must fail there and nowhere earlier, so at every basis element
    # the check's commutation verdict is the one Element.mul gives.
    spec = SchemeSpec(sizes=(2, 3), characteristic=characteristic)
    elements = [Element.basis(spec, t) for t in basis_triples(spec)]
    real = verify.is_central
    assert [real(spec, e) for e in elements] == [all(e.mul(u) == u.mul(e) for u in elements) for e in elements]
    counts = []
    for t, target in zip(basis_triples(spec), elements):
        monkeypatch.setattr(verify, "is_central", lambda spec, e: real(spec, e) != (e == target))
        passed, count, detail = run_check("center-structure", spec)
        assert (passed, detail) == (False, f"is_central({render_triple(spec, t)}) disagrees with commutation")
        counts.append(count)
    assert counts == list(range(counts[0], counts[0] + len(elements)))
