"""Batched oracle sweeps: realize_stack, chunking, and parity with one-at-a-time loops.

Each converted check is compared with a reference kept here that realizes and
multiplies one matrix at a time through the public oracle functions.  Engine
functions are looked up through verify's globals, so a monkeypatched closed
form breaks the check and its reference alike, and both must report the same
(passed, count, detail), down to the first failing identity.
"""

import functools
import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from terwilliger import algebra, oracle, quotient, verify
from terwilliger.algebra import Element, basis_triples, render_triple
from terwilliger.oracle import DEFAULT_ORACLE_CAP, mat_eq, mat_mul, points, relation
from terwilliger.radical import in_radical
from terwilliger.scheme import SchemeSpec, render_mask


def law_at(spec, t1, t2):
    """verify's column law on the one pair (t1, t2), looked up at call time: None for a
    zero product, else (coefficient, triple), as mul_triples gives it."""
    coeffs, product = verify._mul_columns(spec, *(np.array([[m] for m in t]) for t in (t1, t2)))
    c = int(coeffs[0])
    return None if c == 0 else (c, tuple(int(col[0]) for col in product))


def is_pair(t1, t2, pair):
    """Whether (t1, t2) is pair: for two int triples, or at each position of two 3-row column sets."""
    return np.all(np.array(t1).T == pair[0], axis=-1) & np.all(np.array(t2).T == pair[1], axis=-1)


def reference(check, spec):
    return check(spec, verify.pick_base_points(spec, 2), random.Random(0), DEFAULT_ORACLE_CAP)


def run_check(name, spec):
    return reference(dict(verify.ALL_CHECKS)[name], spec)


def chunk_of(monkeypatch, entries):
    monkeypatch.setattr(algebra, "_CHUNK_ENTRIES", entries)


# --- realize_stack --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sizes, characteristic",
    [((2, 3), 2), ((2, 3), 0), ((3, 3), 2), ((2, 4), 3), ((2, 2, 3), 5), ((2, 3), 1048583)],
)
@pytest.mark.parametrize("raw", [False, True])
def test_realize_stack_is_the_per_triple_realization(sizes, characteristic, raw):
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    triples = basis_triples(spec)
    pts = points(spec)
    one = oracle.realize_raw_triple if raw else oracle.realize_triple
    for x in (pts[0], pts[-1]):
        stack = oracle.realize_stack(spec, triples, x, raw=raw)
        assert stack.dtype == np.uint8 and stack.shape == (len(triples),) + (len(pts),) * 2
        assert not stack.flags.writeable
        rel = np.array([[relation(spec, y, z) for z in pts] for y in pts])
        row = np.array([relation(spec, x, y) for y in pts])
        for k, (g, h, i) in enumerate(triples):
            lo = h if raw else g ^ i
            inside = (rel & lo == lo) & (rel & ~h == 0)
            assert np.array_equal(stack[k], (row[:, None] == g) & inside & (row[None, :] == i))
            m = one(spec, (g, h, i), x)
            assert m.dtype == (np.int64 if 0 < characteristic < 1 << 20 else object)
            assert mat_eq(m, stack[k])


def test_realize_stack_refuses_an_invalid_triple():
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    with pytest.raises(ValueError):
        oracle.realize_stack(spec, [(0, 0, 0), (1, 0, 0)])
    assert oracle.realize_stack(spec, []).shape == (0, 6, 6)


@pytest.mark.parametrize("characteristic", [0, 3, 2**64 + 13])
@pytest.mark.parametrize("raw", [False, True])
def test_realize_combinations_is_the_same_a_chunk_of_terms_at_a_time(monkeypatch, characteristic, raw):
    spec = SchemeSpec(sizes=(2, 3), characteristic=characteristic)
    rng = random.Random(f"{characteristic}:{raw}")
    triples = basis_triples(spec)
    combos = [random_element(spec, triples, rng, k, big=True).terms for k in (0, 1, 5, 12)]
    whole, d = oracle._realize_combinations(spec, combos, None, DEFAULT_ORACLE_CAP, raw)
    stack, sizes = oracle.realize_stack, []
    monkeypatch.setattr(oracle, "realize_stack", lambda spec, ts, *a: sizes.append(len(ts)) or stack(spec, ts, *a))
    for entries, per_chunk in ((1, 1), (3 * spec.num_points**2, 3)):  # a term, and three terms a chunk
        with monkeypatch.context() as patch:
            chunk_of(patch, entries)
            nums, again = oracle._realize_combinations(spec, combos, None, DEFAULT_ORACLE_CAP, raw)
        assert again == d and nums.tolist() == whole.tolist()
        assert sizes[:-1] == [per_chunk] * (len(sizes) - 1) and sum(sizes) == sum(map(len, combos)) > 3
        sizes.clear()


# --- one-at-a-time references -----------------------------------------------------------------


def ref_oracle_sanity(spec, base_points, rng, cap):
    ident = oracle.identity_matrix(spec, cap)
    width = 1 << spec.n
    count = 1 + width + 1  # the adjacency identities, which the change leaves alone
    for x in base_points:
        acc = None
        for g in range(width):
            e = oracle.dual_idempotent(spec, x, g, cap)
            acc = e if acc is None else acc + e
            for h in range(width):
                prod = mat_mul(spec, e, oracle.dual_idempotent(spec, x, h, cap))
                if not (mat_eq(prod, e) if g == h else oracle.is_zero_matrix(prod)):
                    return False, count, (
                        f"dual idempotents at {render_mask(g, spec.n)} and"
                        f" {render_mask(h, spec.n)} break orthogonality at base point {x}"
                    )
                count += 1
        if not mat_eq(acc % spec.characteristic if spec.characteristic else acc, ident):
            return False, count, f"dual idempotents at base point {x} do not sum to the identity"
        count += 1
    return True, count, ""


def ref_intersection_numbers(spec, base_points, rng, cap):
    """intersection-numbers with one triple-regularity draw at a time, each hit triple
    listed from its x2 slice and each pair of triple counts taken on its own."""
    table = oracle.relation_matrix(spec, cap)
    size, width = len(table), 1 << spec.n
    count = 0
    for i in range(width):
        y = int(np.argmax(table[0] == i))
        brute = np.bincount(table[0] * width + table[:, y], minlength=width * width)
        brute = brute.reshape(width, width)
        for g in range(width):
            for h in range(width):
                if brute[g, h] != verify.intersection_number(spec, g, h, i):
                    return False, count, (
                        f"intersection number at ({render_mask(g, spec.n)},"
                        f" {render_mask(h, spec.n)}, {render_mask(i, spec.n)}) is wrong"
                    )
                count += 1
    pts = points(spec)
    for _ in range(20):
        x1, y1, z1 = (rng.randrange(size) for _ in range(3))
        xy, xz, yz = (table == table[u, v] for u, v in ((x1, y1), (x1, z1), (y1, z1)))
        per_x2 = ((xy.astype(np.int64) @ yz) * xz).sum(axis=1)
        k = rng.randrange(int(per_x2.sum()))
        x2 = int(np.searchsorted(np.cumsum(per_x2), k, side="right"))
        k -= int(per_x2[:x2].sum())
        y2, z2 = np.argwhere(xy[x2][:, None] & xz[x2][None, :] & yz)[k]
        g, h, i = (rng.randrange(width) for _ in range(3))
        if oracle.triple_intersection_count(spec, pts[x1], pts[y1], pts[z1], g, h, i, cap) != \
                oracle.triple_intersection_count(spec, pts[x2], pts[y2], pts[z2], g, h, i, cap):
            return False, count, "triple intersection count is not triply regular"
        count += 1
    return True, count, ""


def ref_structure_constants(spec, base_points, rng, cap):
    triples = basis_triples(spec)
    x = base_points[0]
    mats = {t: oracle.realize_triple(spec, t, x, cap) for t in triples}
    count = 0
    for t1, t2 in itertools.product(triples, triples):
        hit = law_at(spec, t1, t2)
        lhs = mat_mul(spec, mats[t1], mats[t2])
        if hit is None:
            ok = oracle.is_zero_matrix(lhs)
        else:
            # a product that names no basis triple fails
            ok = hit[1] in mats and mat_eq(lhs, oracle.realize(spec, Element.basis(spec, hit[1], hit[0]), x, cap))
        if not ok:
            return False, count, (
                f"product {render_triple(spec, t1)} * {render_triple(spec, t2)}"
                " disagrees with the matrix oracle"
            )
        count += 1
    return True, count, "exhaustive"


def ref_raw_roundtrip(spec, base_points, rng, cap):
    x = base_points[0]
    count = 0
    for t in basis_triples(spec):
        e = Element.basis(spec, t)
        if verify.from_raw(spec, verify.to_raw(e)) != e:
            return False, count, f"roundtrip through the raw basis broke at {render_triple(spec, t)}"
        count += 1
        if not mat_eq(oracle.realize_triple(spec, t, x, cap),
                      oracle.realize_raw(spec, verify.to_raw(e), x, cap)):
            return False, count, f"raw expansion of {render_triple(spec, t)} realizes differently"
        count += 1
    return True, count, ""


def ref_transpose_realizations(spec, base_points, rng, cap):
    """The realization half of transpose; the pair sweep is unchanged and not re-run here."""
    x = base_points[0]
    for count, t in enumerate(basis_triples(spec)):
        e = Element.basis(spec, t)
        if not mat_eq(oracle.realize(spec, e.transpose(), x, cap), oracle.realize(spec, e, x, cap).T):
            return False, count, f"transpose of {render_triple(spec, t)} realizes wrong"
    return None


def ref_transpose_pairs(spec, base_points, rng, cap):
    """The pair sweep of transpose, one pair at a time through the column law; the
    realizations before it pass and are only counted."""
    triples = basis_triples(spec)
    pairs, mode = itertools.product(triples, triples), "exhaustive"
    if len(triples) ** 2 > 4000:
        pairs = [(triples[a], triples[b]) for a, b in verify._sample(len(triples), 2, rng)]
        mode = f"pairs sampled {verify.SAMPLE_COUNT}"
    count = len(triples)
    for t1, t2 in pairs:
        hit = law_at(spec, t1, t2)
        if (hit and (hit[0], hit[1][::-1])) != law_at(spec, t2[::-1], t1[::-1]):
            return False, count, (
                f"anti-automorphism fails on {render_triple(spec, t1)}, {render_triple(spec, t2)}"
            )
        count += 1
    return True, count, mode


def ref_ideal_closure(spec, base_points, rng, cap):
    """The ideal-closure sweep of radical-nilpotency, one pair at a time through the column
    law; it must fail, since the sequence sweep after it is not re-run here."""
    triples = basis_triples(spec)
    count = 1
    for r in verify.radical_triples(spec):
        for t in triples:
            for lhs, rhs in ((t, r), (r, t)):
                hit = law_at(spec, lhs, rhs)
                if hit is not None and not verify.p_divides_valency(spec, hit[1][1]):
                    return False, count, (
                        f"ideal closure fails: {render_triple(spec, lhs)} *"
                        f" {render_triple(spec, rhs)} leaves the radical"
                    )
                count += 1
    raise AssertionError("the ideal closure held")


def ref_center_commutation(spec, base_points, rng, cap):
    width = 1 << spec.n
    adjacency = [oracle.adjacency_matrix(spec, h, cap) for h in range(width)]
    count = 0
    for x in base_points:
        duals = [oracle.dual_idempotent(spec, x, h, cap) for h in range(width)]
        for g in verify.central_indices(spec):
            c = oracle.realize(spec, verify.central_element(spec, g), x, cap)
            for h in range(width):
                a = adjacency[h]
                if not mat_eq(mat_mul(spec, c, a), mat_mul(spec, a, c)):
                    return False, count, (
                        f"center element {render_mask(g, spec.n)} does not commute with"
                        f" adjacency {render_mask(h, spec.n)} at base point {x}"
                    )
                count += 1
                e = duals[h]
                if not mat_eq(mat_mul(spec, c, e), mat_mul(spec, e, c)):
                    return False, count, (
                        f"center element {render_mask(g, spec.n)} does not commute with the"
                        f" dual idempotent at {render_mask(h, spec.n)}, base point {x}"
                    )
                count += 1
    return True, count, ""


def ref_center_structure(spec, base_points, rng, cap):
    """center-structure's product identities with every product multiplied out by
    Element.mul, then is_central on each central element; it must fail, since the rest of
    the check is not re-run here.  A closed form whose union names no central element, or
    whose scalar Element.scale refuses, fails its product identity."""
    field = spec.field
    indices = verify.central_indices(spec)
    full = spec.full_mask
    count = 1
    for g, h in itertools.product(indices, indices):
        at = f"({render_mask(g, spec.n)}, {render_mask(h, spec.n)})"
        scalar, union = verify.center_mul(spec, g, h)
        lhs = verify.central_element(spec, g).mul(verify.central_element(spec, h))
        try:
            rhs = verify.central_element(spec, union).scale(scalar) if union in indices else None
        except ValueError:
            rhs = None
        if lhs != rhs:
            return False, count, f"center product at {at} disagrees with its closed form"
        count += 1
        if (verify.corner_mul(spec, full, g, h) or (field.zero(), union)) != (scalar, union):
            return False, count, f"center product and full-corner product disagree at {at}"
        count += 1
    for g in indices:
        if not verify.is_central(spec, verify.central_element(spec, g)):
            return False, count, f"center basis element {render_mask(g, spec.n)} fails is_central"
        count += 1
    raise AssertionError("the center product law held")


def ref_radical_oracle_tail(spec, base_points, rng, cap):
    """radical-nilpotency with its sequences multiplied out one at a time (exhaustive mode):
    the engine's through the column law, a pair at a time, then the oracle's."""
    rad = verify.radical_triples(spec)
    count = 1 + 2 * len(rad) * len(basis_triples(spec))
    index = verify.nilpotent_index(spec)
    seqs = list(itertools.product(rad, repeat=index))
    for seq in seqs:
        acc = seq[0]
        for t in seq[1:]:
            hit = law_at(spec, acc, t)
            if hit is None:
                break
            acc = hit[1]
        else:
            raise AssertionError("the engine found a nonzero product")
        count += 1
    x = base_points[0]
    for seq in seqs[: verify.ORACLE_SAMPLE]:
        acc = oracle.realize_triple(spec, seq[0], x, cap)
        for t in seq[1:]:
            if oracle.is_zero_matrix(acc):
                break
            acc = mat_mul(spec, acc, oracle.realize_triple(spec, t, x, cap))
        if not oracle.is_zero_matrix(acc):
            return False, count, "oracle found a nonzero radical product the engine missed"
        count += 1
    return True, count, f"exhaustive {len(seqs)} sequences"


def ref_annihilator_dim(spec, left_ideal, x, cap=DEFAULT_ORACLE_CAP):
    triples = basis_triples(spec)
    gens = [oracle.realize(spec, e, x, cap) for e in left_ideal]
    if not gens:
        return len(triples)
    rows = [np.concatenate([mat_mul(spec, g, oracle.realize_triple(spec, t, x, cap)).reshape(-1)
                            for g in gens]) for t in triples]
    return len(triples) - oracle.span_rank(spec, rows)


def ref_quotient_matrix_units(spec, base_points, rng, cap):
    """quotient-matrix-units with every lifted product multiplied out by Element.mul."""
    dts = verify.quotient_triples(spec)
    sig = {t: verify._signature(spec.large_mask, t) for t in dts}
    lookup = {}
    count = 0
    for b in verify.wedderburn_blocks(spec):
        for t in (t for t in dts if sig[t] == b.signature):
            key = (b.signature, t[0], t[2])
            if key in lookup:
                return False, count, (
                    f"two triples share the block slot {render_mask(t[0], spec.n)},"
                    f" {render_mask(t[2], spec.n)} in signature {render_mask(b.signature, spec.n)}"
                )
            lookup[key] = t
        for g in b.rows:
            for i in b.rows:
                if (b.signature, g, i) not in lookup:
                    return False, count, (
                        f"missing block slot ({render_mask(g, spec.n)}, {render_mask(i, spec.n)})"
                        f" in signature {render_mask(b.signature, spec.n)}"
                    )
                count += 1
    products = {}
    for t1, t2 in itertools.product(dts, dts):
        s1, s2 = sig[t1], sig[t2]
        expected = None if s1 != s2 or t1[2] != t2[0] else lookup[(s1, t1[0], t2[2])]
        live, out = verify._quotient_law(spec.large_mask, t1, t2)
        out = out if live else None
        if out != expected:
            return False, count, (
                f"matrix unit law fails at {render_triple(spec, t1)} * {render_triple(spec, t2)}"
            )
        if out is not None:
            products[t1, t2] = out
        count += 1
    reps = {t: verify.semisimple_rep(spec, t) for t in dts}
    for t1, t2 in itertools.product(dts, dts):
        out = products.get((t1, t2)) if t1[2] == t2[0] else None
        diff = reps[t1].mul(reps[t2])
        if out is not None:
            diff = diff.sub(reps[out])
        if not in_radical(spec, diff):
            return False, count, (
                f"lifted product at {render_triple(spec, t1)} * {render_triple(spec, t2)}"
                " differs from the representative beyond the radical"
            )
        count += 1
    return True, count, ""


def ref_corner_structure(spec, base_points, rng, cap):
    """corner-structure one corner, one product and one realized representative at a time."""
    field = spec.field
    x = base_points[0]
    loops = [t for t in basis_triples(spec) if t[0] == t[2]]
    count, sampled = 0, 0
    for g in range(1 << spec.n):
        middles = verify.corner_basis(spec, g)
        if sorted(middles) != sorted(h for f, h, _ in loops if f == g):
            return False, count, f"corner basis at {render_mask(g, spec.n)} disagrees with enumeration"
        count += 1
        rad = verify.corner_rad_basis(spec, g)
        surviving = [a for a in middles if not verify.p_divides_valency(spec, a)]
        if len(middles) != len(rad) + len(surviving):
            return False, count, f"corner dimension split fails at {render_mask(g, spec.n)}"
        count += 1
        expect_index = 1 + sum(1 for a in rad if bin(a).count("1") == 1)
        if verify.corner_nilpotent_index(spec, g) != expect_index:
            return False, count, f"corner nilpotent index formula fails at {render_mask(g, spec.n)}"
        count += 1
        for h, i in itertools.product(middles, middles):
            hit = verify.corner_mul(spec, g, h, i)
            if hit != verify.corner_mul(spec, g, i, h):
                return False, count, f"corner product is not commutative at {render_mask(g, spec.n)}"
            count += 1
            lhs = Element.basis(spec, (g, h, g)).mul(Element.basis(spec, (g, i, g)))
            rhs = Element.zero(spec) if hit is None else Element.basis(spec, (g, hit[1], g), hit[0])
            if lhs != rhs:
                return False, count, f"corner product disagrees with full product at {render_mask(g, spec.n)}"
            count += 1
        if rad:
            step = functools.partial(verify._mask_columns, spec)
            index = verify.corner_nilpotent_index(spec, g)
            settled, nonzero, sample = verify._sweep((np.array(rad, dtype=np.int64),), index, rng, step)
            count += settled
            if nonzero is not None:
                return False, count, f"corner radical at {render_mask(g, spec.n)} is not nilpotent at its index"
            sampled += sample is not None
        reps = {a: verify.semisimple_rep(spec, (g, a, g)) for a in surviving}
        mats = {a: oracle.realize(spec, rep, x, cap) for a, rep in reps.items()}
        for a, b in itertools.product(surviving, surviving):
            if reps[a].mul(reps[b]) != (reps[a] if a == b else Element.zero(spec)):
                return False, count, (
                    f"corner representatives at {render_mask(g, spec.n)} are not orthogonal"
                    f" idempotents ({render_mask(a, spec.n)}, {render_mask(b, spec.n)})"
                )
            count += 1
            mat = mat_mul(spec, mats[a], mats[b])
            if not (mat_eq(mat, mats[a]) if a == b else oracle.is_zero_matrix(mat)):
                return False, count, f"corner idempotent matrices disagree at {render_mask(g, spec.n)}"
            count += 1
        for h in surviving:
            for i in surviving:
                lhs = Element.basis(spec, (g, h, g)).mul(reps[i])
                rhs_scalar = field.of(verify.valency(spec, h)) if verify.subset_of(spec, h, i) else field.zero()
                rhs = reps[i].scale(rhs_scalar)
                if lhs != rhs or lhs != reps[i].mul(Element.basis(spec, (g, h, g))):
                    return False, count, (
                        f"corner action of {render_mask(h, spec.n)} on the representative at"
                        f" {render_mask(i, spec.n)} is wrong at {render_mask(g, spec.n)}"
                    )
                count += 1
    mode = f"radical sequences sampled at {sampled} of {1 << spec.n} corners" if sampled else ""
    return True, count, mode


# --- the product kernel ---------------------------------------------------------------------


def random_element(spec, triples, rng, terms, big=False):
    """An element on `terms` random basis triples: Fractions over small denominators at
    characteristic 0 (one numerator past 2^64 when big), residues below p otherwise."""
    p = spec.characteristic
    coeffs = {}
    for t in rng.sample(triples, terms):
        if p:
            coeffs[t] = rng.randrange(p)
        else:
            coeffs[t] = Fraction(rng.randint(-9, 9) * (2**70 if big else 1), rng.choice([1, 2, 3, 4, 6]))
    return Element(spec, coeffs)


@pytest.mark.parametrize(
    "sizes, characteristic",
    [((2, 3), 0), ((2, 2, 3), 2), ((3, 3), 3), ((2, 3), 1048583), ((2, 5), 2**31 - 1), ((2, 3), 2**64 + 13)],
)
@pytest.mark.parametrize("big", [False, True])
@pytest.mark.parametrize("entries", [1 << 16, 40])
def test_products_agree_is_mul_sub_and_in_radical(monkeypatch, sizes, characteristic, big, entries):
    # Fractions past 2^64 at characteristic 0, and residues of 2^64 + 13, take the
    # Python-int path; the rest run in int64, where two residues of 2^31 - 1 multiply
    # to nearly 2^62 before a valency of 4 scales them.  entries = 40 gives chunks of
    # a pair or two.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    field = spec.field
    chunk_of(monkeypatch, entries)
    rng = random.Random(f"{sizes}:{characteristic}:{big}")
    triples = basis_triples(spec)
    elements = [random_element(spec, triples, rng, rng.choice([0, 1, 2, 5]), big) for _ in range(12)]
    # Products of some pairs, each over a random unit, with and without a radical term:
    # the kernel must tell them apart exactly and agree with them modulo the radical.
    radical = verify.radical_triples(spec)
    pairs = []
    for _ in range(8):
        a, b = rng.randrange(12), rng.randrange(12)
        s = rng.randrange(1, characteristic) if characteristic else rng.randint(1, 5)
        product = elements[a].mul(elements[b]).scale(field.inv(field.of(s)))
        pairs.append((a, b, len(elements), s))
        elements.append(product)
        if radical:
            pairs.append((a, b, len(elements), s))
            elements.append(product.add(Element.basis(spec, rng.choice(radical))))
    pairs += [(rng.randrange(len(elements)), rng.randrange(len(elements)), rng.randrange(-1, len(elements)),
               rng.randrange(characteristic) if characteristic else rng.randint(0, 5)) for _ in range(40)]
    combos = [e.terms for e in elements]
    left, right, expect, scale = (np.array([pair[k] for pair in pairs], dtype=object if k == 3 else np.int64)
                                  for k in range(4))
    lhs = [elements[a].mul(elements[b]) for a, b, _, _ in pairs]
    rhs = [Element.zero(spec) if e < 0 else elements[e].scale(s) for _, _, e, s in pairs]
    exact = verify._agreement(spec, combos)(left, right, expect, scale)
    modulo = verify._agreement(spec, combos, modulo_radical=True)(left, right, expect, scale)
    assert exact.tolist() == [x == y for x, y in zip(lhs, rhs)]
    assert modulo.tolist() == [in_radical(spec, x.sub(y)) for x, y in zip(lhs, rhs)]
    assert exact.any() and not exact.all()
    assert not radical or (modulo & ~exact).any()
    none = np.zeros(0, dtype=np.int64)
    assert verify._agreement(spec, combos)(none, none, none, none).shape == (0,)
    zeros = [{}, {}]
    assert verify._agreement(spec, zeros)(*(np.array([0, 1, 1]),) * 2, np.array([-1, 0, 1]), [1, 1, 0]).all()


@pytest.mark.parametrize("sizes, characteristic", [((2, 3), 0), ((2, 3), 3), ((2, 3), 2**64 + 13)])
@pytest.mark.parametrize("s", [0, 1, 2, 2**62 + 1, 2**64 + 1])
def test_products_agree_takes_one_int_for_every_pair(sizes, characteristic, s):
    # One int scale stands for a column repeating it.  At characteristic 0, 2^62 + 1 and
    # 2^64 + 1 push the sums past int64; at 2^64 + 13 the residues are Python ints.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    field = spec.field
    s = int(field.of(s))
    rng = random.Random(f"{sizes}:{characteristic}:{s}")
    triples = basis_triples(spec)
    elements = [random_element(spec, triples, rng, rng.choice([1, 2, 5])) for _ in range(6)]
    pairs = [(a, b, rng.randrange(-1, 6)) for a in range(6) for b in range(6)]
    if not field.is_zero(field.of(s)):
        for a, b in [(0, 1), (2, 2), (4, 3)]:  # a product over s, so the pair agrees
            pairs.append((a, b, len(elements)))
            elements.append(elements[a].mul(elements[b]).scale(field.inv(field.of(s))))
    left, right, expect = (np.array([pair[k] for pair in pairs], dtype=np.int64) for k in range(3))
    agree = verify._agreement(spec, [e.terms for e in elements])
    got = agree(left, right, expect, s)
    want = [elements[a].mul(elements[b]) == (Element.zero(spec) if e < 0 else elements[e].scale(s)) for a, b, e in pairs]
    assert got.tolist() == want
    assert got.any() and (s == 0 or not got.all())
    assert agree(left, right, expect, verify._int_column([s] * len(pairs))).tolist() == want


@pytest.mark.parametrize("column", [False, True])
def test_products_agree_bounds_its_dtype_by_the_scale(column):
    # (01,01,00) * (10,10,00) does not chain, so the product is zero; it is expected to be
    # 2^62 times a combination with numerator 4, which is 2^64 and wraps to 0 in int64.
    # Every numerator and norm is small, so only the scale can widen the dtype.
    spec = SchemeSpec(sizes=(2, 3), characteristic=0)
    combos = [Element(spec, {t: c}).terms for t, c in (((1, 1, 0), 1), ((2, 2, 0), 1), ((0, 0, 0), 4))]
    agree = verify._agreement(spec, combos)
    pair = (np.array([0]), np.array([1]), np.array([2]))
    for s, want in ((2**62, False), (0, True)):
        assert agree(*pair, verify._int_column([s]) if column else s).tolist() == [want]


# --- failure-path parity ----------------------------------------------------------------------


@pytest.mark.parametrize("last", [False, True])
def test_oracle_sanity_matches_the_one_at_a_time_sweep(monkeypatch, last):
    spec = SchemeSpec(sizes=(2, 3), characteristic=3)
    width, pts = 1 << spec.n, verify.pick_base_points(spec, 2)
    # A constructor wrong at one mask: twice the projector is not idempotent.
    target = (pts[-1], width - 1) if last else (pts[0], 0)
    dual = oracle.dual_idempotent
    monkeypatch.setattr(
        oracle, "dual_idempotent",
        lambda spec, x, g, cap=DEFAULT_ORACLE_CAP: dual(spec, x, g, cap) * (2 if (x, g) == target else 1),
    )
    expected = reference(ref_oracle_sanity, spec)
    # the adjacency identities, then a whole sweep and sum at the first base point when last
    assert not expected[0] and expected[1] == width + 2 + (width**2 + 1 + width**2 - 1 if last else 0)
    assert run_check("oracle-sanity", spec) == expected


@pytest.mark.parametrize("characteristic", [0, 3])
def test_oracle_sanity_names_a_dual_idempotent_off_its_diagonal(monkeypatch, characteristic):
    # The sweep reads each dual idempotent through its diagonal, so an entry off the
    # diagonal must fail on its own, before the products at that base point.
    spec = SchemeSpec(sizes=(2, 3), characteristic=characteristic)
    width, pts = 1 << spec.n, verify.pick_base_points(spec, 2)
    dual = oracle.dual_idempotent

    def off_diagonal(spec, x, g, cap=DEFAULT_ORACLE_CAP):
        m = dual(spec, x, g, cap).copy()
        if (x, g) == (pts[-1], 2):
            m[0, -1] = 1
        return m

    monkeypatch.setattr(oracle, "dual_idempotent", off_diagonal)
    # the adjacency identities and a whole first base point pass
    assert run_check("oracle-sanity", spec) == (
        False, width + 2 + width**2 + 1,
        f"dual idempotent at {render_mask(2, spec.n)} has an entry off its diagonal at base point {pts[-1]}",
    )


@pytest.mark.parametrize("characteristic", [0, 3])
def test_oracle_sanity_names_the_first_pair_of_overlapping_dual_idempotents(monkeypatch, characteristic):
    # E*_1 + E*_2 in place of E*_1 is still idempotent, but meets E*_2: the pairs g != h are
    # judged by the supports of the diagonals, and the first failure is (1, 2), not (2, 1).
    spec = SchemeSpec(sizes=(2, 3), characteristic=characteristic)
    width, pts = 1 << spec.n, verify.pick_base_points(spec, 2)
    dual = oracle.dual_idempotent

    def overlapping(spec, x, g, cap=DEFAULT_ORACLE_CAP):
        m = dual(spec, x, g, cap)
        return m + dual(spec, x, 2, cap) if (x, g) == (pts[-1], 1) else m

    monkeypatch.setattr(oracle, "dual_idempotent", overlapping)
    expected = reference(ref_oracle_sanity, spec)
    assert expected == (
        False, width + 2 + width**2 + 1 + width + 2,
        f"dual idempotents at {render_mask(1, spec.n)} and {render_mask(2, spec.n)}"
        f" break orthogonality at base point {pts[-1]}",
    )
    assert run_check("oracle-sanity", spec) == expected


def structure_faults(spec, fault):
    """The (pair, wrong) arguments of break_law for one named fault of the structure-constants
    sweep, read off the unbroken law."""
    triples = basis_triples(spec)
    pairs = list(itertools.product(triples, repeat=2))
    chaining = [pair for pair in pairs if law_at(spec, *pair) is not None]
    if fault in ("first", "middle", "last"):  # the coefficient is one larger
        return [(chaining[{"first": 0, "middle": len(chaining) // 2, "last": -1}[fault]], None)]
    if fault == "apart":  # middles that differ, with a product on the pair's outer masks
        t1, t2 = next(pair for pair in pairs[len(pairs) // 2 :] if pair[0][2] != pair[1][0])
        outer = next(u for u in triples if (u[0], u[2]) == (t1[0], t2[2]))
        return [((t1, t2), lambda spec, hit: (1, outer))]
    t1, t2 = chaining[len(chaining) // 3]
    assert (1, 0, 0) not in triples
    if fault == "dropped":  # zero, with a target that names no basis triple
        return [((t1, t2), lambda spec, hit: (0, (1, 0, 0)))]
    if fault == "unnamed":  # the coefficient kept and a product that names no basis triple, on the
        # outer masks of the last basis triple where one does, which a target of -1 must not stand for
        g, _, l = triples[-1]
        unnamed = next(((g, h, l) for h in range(1 << spec.n) if (g, h, l) not in triples), (1, 0, 0))
        pair = next(pair for pair in chaining if law_at(spec, *pair)[1] == triples[-1])
        return [(pair, lambda spec, hit: (hit[0], unnamed))]
    # misplaced: a basis triple whose rows (or columns) are not the pair's, on a zero product
    # if one chains
    t1, t2 = next((pair for pair in pairs if pair[0][2] == pair[1][0] and law_at(spec, *pair) is None), (t1, t2))
    if fault == "misplaced rows":
        other = next(u for u in triples if u[0] != t1[0] and u[2] == t2[2])
        return [((t1, t2), lambda spec, hit: (1, other))]
    if fault == "misplaced columns":
        other = next(u for u in triples if u[0] == t1[0] and u[2] != t2[2])
        return [((t1, t2), lambda spec, hit: (1, other))]
    # two chunks: the earlier pair in loop order has the larger middle, so its chunk comes later
    top = max(t[2] for t in triples)
    early = next(pair for pair in chaining if pair[0][2] == top)
    late = next(pair for pair in chaining[chaining.index(early) :] if pair[0][2] < top)
    return [(early, None), (late, None)]


@pytest.mark.parametrize("sizes, characteristic", [((2, 3), 3), ((2, 3), 2), ((3, 3, 3), 0)])
@pytest.mark.parametrize(
    "fault",
    ["first", "middle", "last", "apart", "dropped", "unnamed", "misplaced rows", "misplaced columns", "two chunks"],
)
def test_structure_constants_match_the_one_at_a_time_sweep(monkeypatch, break_law, sizes, characteristic, fault):
    # Chunks of one left triple, the default (every middle in one chunk at (2,3), three
    # chunks that straddle middles at (3,3,3)), and every middle in one chunk.  At
    # (2,3)/2 some chaining pairs have a zero product, where only the target's outer
    # masks tell.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    faults = structure_faults(spec, fault)
    for pair, wrong in faults:
        break_law(pair, wrong)
    expected = reference(ref_structure_constants, spec)
    pairs = list(itertools.product(basis_triples(spec), repeat=2))
    assert expected[:2] == (False, min(pairs.index(pair) for pair, _ in faults))
    for entries in (1, algebra._CHUNK_ENTRIES, 1 << 20):
        with monkeypatch.context() as patch:
            chunk_of(patch, entries)
            assert run_check("structure-constants", spec) == expected


@pytest.mark.parametrize("last", [False, True])
def test_raw_roundtrip_matches_the_one_at_a_time_sweep(monkeypatch, last):
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    triples = basis_triples(spec)
    target = Element.basis(spec, triples[-1] if last else triples[0])
    to_raw, from_raw = verify.to_raw, verify.from_raw
    if last:
        # An expansion with a stray raw term that still maps back: only the realization catches it.
        broken = {**to_raw(target), (0, 0, 0): 1}
        monkeypatch.setattr(verify, "to_raw", lambda e: broken if e == target else to_raw(e))
        monkeypatch.setattr(
            verify, "from_raw", lambda spec, raw: target if raw is broken else from_raw(spec, raw)
        )
    else:
        monkeypatch.setattr(
            verify, "from_raw", lambda spec, raw: from_raw(spec, raw).scale(0) if raw == to_raw(target)
            else from_raw(spec, raw),
        )
    chunk_of(monkeypatch, 3 * spec.num_points**2)
    expected = reference(ref_raw_roundtrip, spec)
    assert not expected[0] and expected[1] == (2 * len(triples) - 1 if last else 0)
    assert run_check("raw-basis-roundtrip", spec) == expected


@pytest.mark.parametrize("last", [False, True])
def test_transpose_realizations_match_the_one_at_a_time_sweep(monkeypatch, last):
    spec = SchemeSpec(sizes=(2, 3), characteristic=3)
    triples = basis_triples(spec)
    target = triples[-1] if last else triples[0]
    transpose = Element.transpose
    monkeypatch.setattr(
        Element, "transpose",
        lambda e: transpose(e).scale(2) if e.terms.keys() == {target} else transpose(e),
    )
    chunk_of(monkeypatch, 3 * spec.num_points**2)
    expected = reference(ref_transpose_realizations, spec)
    assert expected[1] == (len(triples) - 1 if last else 0)
    assert run_check("transpose", spec) == expected


@pytest.mark.parametrize("sizes, characteristic", [((2, 3), 3), ((2, 2, 3), 2)])
@pytest.mark.parametrize("last", [False, True])
@pytest.mark.parametrize("part", ["coefficient", "triple"])
def test_transpose_pairs_match_the_one_at_a_time_sweep(break_law, sizes, characteristic, last, part):
    # (2,2,3)/2 has 80^2 > 4000 pairs, so it samples them.  A pair equal to its own
    # flip (t2^T, t1^T) would be broken on both sides of the identity alike, so the
    # break goes to the first or last pair of the sweep that is not.  A broken
    # triple is the product's transpose, at a pair whose product is not symmetric.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    triples = basis_triples(spec)
    if len(triples) ** 2 > 4000:
        sweep = [(triples[a], triples[b]) for a, b in verify._sample(len(triples), 2, random.Random(0))]
    else:
        sweep = list(itertools.product(triples, triples))
    visible = [(t1, t2) for t1, t2 in sweep if (t2[::-1], t1[::-1]) != (t1, t2)]
    if part == "triple":
        visible = [pair for pair in visible if (hit := law_at(spec, *pair)) and hit[1][0] != hit[1][2]]
    bad = visible[-1 if last else 0]
    break_law(bad, None if part == "coefficient" else lambda spec, hit: (hit[0], hit[1][::-1]))
    expected = reference(ref_transpose_pairs, spec)
    # the identity fails at the broken pair and at its flip, whichever comes first
    first = min(k for k, pair in enumerate(sweep) if pair in (bad, (bad[1][::-1], bad[0][::-1])))
    assert expected[:2] == (False, len(triples) + first)
    assert run_check("transpose", spec) == expected


@pytest.mark.parametrize("where", [0, 0.5, 1])
def test_ideal_closure_matches_the_one_at_a_time_sweep(monkeypatch, break_law, where):
    # Three radical triples a chunk: the closure's 2 * 80 * 48 pairs span sixteen chunks.
    spec = SchemeSpec(sizes=(2, 2, 3), characteristic=2)
    triples, rad = basis_triples(spec), verify.radical_triples(spec)
    sweep = [pair for r in rad for t in triples for pair in ((t, r), (r, t))]
    assert len(sweep) == 2 * 80 * 48
    chunk_of(monkeypatch, 3 * 2 * len(triples))
    bad = sweep[round(where * (len(sweep) - 1))]
    break_law(bad, lambda spec, hit: (1, (0, 0, 0)))
    expected = reference(ref_ideal_closure, spec)
    # the last pair is (r, r) for the last triple, which also comes just before it as (t, r)
    assert expected[:2] == (False, 1 + sweep.index(bad))
    assert run_check("radical-nilpotency", spec) == expected


@pytest.mark.parametrize("characteristic", [2, 0, (1 << 64) + 13])
@pytest.mark.parametrize("fault, half", [((0, 1, 1), "the dual idempotent"), ((0, 0, 0), "adjacency")])
@pytest.mark.parametrize("last", [False, True])
def test_center_commutation_matches_the_one_at_a_time_sweep(monkeypatch, characteristic, fault, half, last):
    # A basis element off the diagonal blocks does not commute with the dual idempotents;
    # one inside a diagonal block commutes with them, but not with every adjacency matrix.
    # At 2^64 + 13 the realized numerators are object arrays.
    spec = SchemeSpec(sizes=(3, 3), characteristic=characteristic)
    indices = verify.central_indices(spec)
    target = indices[-1] if last else indices[0]
    central = verify.central_element
    extra = Element.basis(spec, fault)
    monkeypatch.setattr(
        verify, "central_element",
        lambda spec, g: central(spec, g).add(extra) if g == target else central(spec, g),
    )
    width = 1 << spec.n
    chunk_of(monkeypatch, width * spec.num_points**2)  # one central element a chunk
    expected = reference(ref_center_commutation, spec)
    assert not expected[0] and expected[1] // (2 * width) == (len(indices) - 1 if last else 0)
    assert f"does not commute with {half}" in expected[2]

    def unused(*args):
        raise AssertionError("center-commutation builds no oracle adjacency or dual idempotent")

    monkeypatch.setattr(oracle, "adjacency_matrix", unused)
    monkeypatch.setattr(oracle, "dual_idempotent", unused)
    assert run_check("center-commutation", spec) == expected


@pytest.mark.parametrize("sizes, per_chunk", [((2, 3), 25), ((2, 2, 3), 8)])
def test_radical_oracle_tail_matches_the_one_at_a_time_sweep(monkeypatch, sizes, per_chunk):
    # With the index claimed one too small and the engine's column law told every
    # product vanishes, only the oracle can object.  The first nonzero product is
    # sequence 24 of 144 at (2,3), in the first chunk of 25, and sequence 192 of 200
    # at (2,2,3), in the last chunk of 8.
    spec = SchemeSpec(sizes=sizes, characteristic=2)
    index = verify.nilpotent_index(spec) - 1
    monkeypatch.setattr(verify, "nilpotent_index", lambda spec: index)
    law = verify._mul_columns

    def vanishing(spec, t1, t2):
        coeffs, product = law(spec, t1, t2)
        return 0 * coeffs, product

    monkeypatch.setattr(verify, "_mul_columns", vanishing)
    chunk_of(monkeypatch, per_chunk * spec.num_points**2)
    expected = reference(ref_radical_oracle_tail, spec)
    rad = verify.radical_triples(spec)
    first = 1 + 2 * len(rad) * len(basis_triples(spec)) + len(rad) ** index
    assert not expected[0] and expected[1] - first == (24 if sizes == (2, 3) else 192)
    assert run_check("radical-nilpotency", spec) == expected


SEMISIMPLE_SPECS = [((3, 3), 0), ((3, 4), 2), ((3, 4), 3)]
POSITIONS = [0, 0.5, 1]  # the first, a middle and the last position


def at_position(items, where):
    return items[round(where * (len(items) - 1))]


def break_rep(monkeypatch, spec, target, extra):
    """semisimple_rep, looked up through verify, gains the basis element at extra at target alone."""
    rep = verify.semisimple_rep
    monkeypatch.setattr(
        verify, "semisimple_rep",
        lambda spec, t: rep(spec, t).add(Element.basis(spec, extra)) if t == target else rep(spec, t),
    )


def corner_reps(spec):
    """The triples (g, a, g) of corner-structure's representatives, in loop order."""
    return [(g, a, g) for g in range(1 << spec.n) for a in verify.corner_basis(spec, g)
            if not verify.p_divides_valency(spec, a)]


@pytest.mark.parametrize("sizes, characteristic", SEMISIMPLE_SPECS)
@pytest.mark.parametrize("where", POSITIONS)
@pytest.mark.parametrize("broken", ["semisimple_rep", "_quotient_mul"])
def test_quotient_matrix_units_match_the_one_at_a_time_sweep(monkeypatch, sizes, characteristic, where, broken):
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    dts = verify.quotient_triples(spec)
    if broken == "semisimple_rep":
        target = at_position(dts, where)
        break_rep(monkeypatch, spec, target, target)
    else:
        # a zero product where the law has one, and the left factor where it has none
        bad = at_position(list(itertools.product(dts, dts)), where)
        law = verify._quotient_law

        def broken(large, t1, t2):
            live, out = law(large, t1, t2)
            hit = is_pair(t1, t2, bad)
            if np.ndim(hit) == 0:  # one pair, as the reference asks
                return (not live, t1) if hit else (live, out)
            return live ^ hit, tuple(np.where(hit, a, b) for a, b in zip(t1, out))

        monkeypatch.setattr(verify, "_quotient_law", broken)
    chunk_of(monkeypatch, 3 * spec.num_points**2)  # about a dozen lifted pairs a chunk
    expected = reference(ref_quotient_matrix_units, spec)
    assert not expected[0]
    assert run_check("quotient-matrix-units", spec) == expected


@pytest.mark.parametrize("sizes, characteristic", SEMISIMPLE_SPECS)
def test_quotient_matrix_units_reports_a_late_law_failure_before_an_early_lift(monkeypatch, sizes, characteristic):
    # The one sweep meets the lift failure at the first pair, chunks before the law
    # failure at the last; the record is still the law's, as in a law sweep then a lift sweep.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    dts = verify.quotient_triples(spec)
    break_rep(monkeypatch, spec, dts[0], dts[0])
    last, law = (dts[-1], dts[-1]), verify._quotient_law

    def broken(large, t1, t2):
        live, out = law(large, t1, t2)
        return live ^ is_pair(t1, t2, last), out

    monkeypatch.setattr(verify, "_quotient_law", broken)
    chunk_of(monkeypatch, 3 * spec.num_points**2)
    slots = sum(b.size**2 for b in verify.wedderburn_blocks(spec))
    expected = reference(ref_quotient_matrix_units, spec)
    assert expected[:2] == (False, slots + len(dts) ** 2 - 1)
    assert run_check("quotient-matrix-units", spec) == expected


@pytest.mark.parametrize("sizes, characteristic", SEMISIMPLE_SPECS[1:])
@pytest.mark.parametrize("where", POSITIONS)
def test_quotient_matrix_units_lift_modulo_the_radical(monkeypatch, sizes, characteristic, where):
    # A representative moved by a radical element still lifts its matrix unit, since the
    # radical is an ideal; an exact comparison would refuse it.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    target = at_position(verify.quotient_triples(spec), where)
    assert verify.p_divides_valency(spec, spec.full_mask)
    break_rep(monkeypatch, spec, target, (target[0], spec.full_mask, target[0] ^ spec.full_mask))
    chunk_of(monkeypatch, 3 * spec.num_points**2)
    expected = reference(ref_quotient_matrix_units, spec)
    assert expected[0]
    assert run_check("quotient-matrix-units", spec) == expected


@pytest.mark.parametrize("sizes, characteristic", SEMISIMPLE_SPECS)
@pytest.mark.parametrize("where", POSITIONS)
@pytest.mark.parametrize(
    "broken", ["semisimple_rep", "corner_mul", "corner_mul both orders", "corner_mul middle", "realized"]
)
def test_corner_structure_matches_the_one_at_a_time_sweep(monkeypatch, sizes, characteristic, where, broken):
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    field = spec.field
    if broken == "semisimple_rep":
        # A corner over F_2 holds no other idempotent to break one into, so the
        # representative gains a term outside its corner.
        g = at_position(corner_reps(spec), where)[0]
        break_rep(monkeypatch, spec, at_position(corner_reps(spec), where), (g, spec.full_mask, g ^ spec.full_mask))
    elif broken.startswith("corner_mul"):
        # Broken at one order only, the commutativity identity catches it; at both, only
        # the full product does.  The coefficient gains 1, or the middle loses or gains
        # the lowest coordinate of g & large, at a nonzero product in such a corner.
        law = verify.corner_mul
        squares = [(g, h, i) for g in range(1 << spec.n)
                   for h, i in itertools.product(verify.corner_basis(spec, g), repeat=2)]
        if broken.endswith("middle"):
            squares = [(g, h, i) for g, h, i in squares if g & spec.large_mask and law(spec, g, h, i)]
        g, h, i = at_position(squares, where)
        bad = {(g, h, i)} if broken == "corner_mul" else {(g, h, i), (g, i, h)}

        def corner_mul(spec, g, h, i):
            hit = law(spec, g, h, i)
            if (g, h, i) not in bad:
                return hit
            if broken.endswith("middle"):
                low = g & spec.large_mask & -(g & spec.large_mask)
                return hit[0], hit[1] ^ low
            return (field.one(), h | i) if hit is None else (field.add(hit[0], 1), hit[1])

        monkeypatch.setattr(verify, "corner_mul", corner_mul)
    else:
        # the realized numerators of one representative gain the all-ones matrix
        target = verify.semisimple_rep(spec, at_position(corner_reps(spec), where)).terms
        realize = oracle._realize_combinations

        def realize_combinations(spec, combos, *args):
            nums, d = realize(spec, combos, *args)
            nums = nums.copy()
            for k, combo in enumerate(combos):
                if combo == target:
                    nums[k] = oracle._reduce(spec, nums[k] + 1)
            return nums, d

        monkeypatch.setattr(oracle, "_realize_combinations", realize_combinations)
    chunk_of(monkeypatch, 3 * spec.num_points**2)  # three representative pairs a stacked product
    expected = reference(ref_corner_structure, spec)
    assert not expected[0]
    assert run_check("corner-structure", spec) == expected


@pytest.mark.parametrize("sizes, characteristic", [((2, 3, 3), 0), ((2, 3, 3), 2)])
@pytest.mark.parametrize("where", POSITIONS)
@pytest.mark.parametrize(
    "broken", ["scalar plus one", "scalar a half", "union moved", "union off the center", "corner", "extra term"]
)
def test_center_structure_matches_the_one_at_a_time_sweep(monkeypatch, sizes, characteristic, where, broken):
    # At one pair center_mul's scalar gains 1 or becomes 1/2 (no element of F_2), its
    # union moves to another central index or onto the size-2 coordinate, or the full
    # corner's coefficient gains 1; or one central element gains a term off the center.
    # A moved union is sought among the pairs of nonzero scalar, since a zero product
    # names no union.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    field = spec.field
    indices = verify.central_indices(spec)
    if broken == "extra term":
        target = at_position(indices, where)
        central = verify.central_element
        monkeypatch.setattr(
            verify, "central_element",
            lambda spec, g: central(spec, g).add(Element.basis(spec, (0, 1, 1))) if g == target else central(spec, g),
        )
    else:
        law = verify.center_mul
        pairs = list(itertools.product(indices, indices))
        if broken == "union moved":
            pairs = [(g, h) for g, h in pairs if not field.is_zero(law(spec, g, h)[0])]
        bad = at_position(pairs, where)

        def center_mul(spec, g, h):
            scalar, union = law(spec, g, h)
            if (g, h) != bad or broken == "corner":
                return scalar, union
            if broken.startswith("scalar"):
                return (field.add(scalar, field.one()) if broken.endswith("one") else Fraction(1, 2)), union
            low = spec.large_mask & -spec.large_mask
            return scalar, union ^ low if broken == "union moved" else union | 1

        corner = verify.corner_mul

        def corner_mul(spec, g, h, i):
            hit = corner(spec, g, h, i)
            if (h, i) != bad or broken != "corner":
                return hit
            return (field.one(), h | i) if hit is None else (field.add(hit[0], 1), hit[1])

        monkeypatch.setattr(verify, "center_mul", center_mul)
        monkeypatch.setattr(verify, "corner_mul", corner_mul)
    expected = reference(ref_center_structure, spec)
    assert not expected[0]
    assert run_check("center-structure", spec) == expected


def test_dimension_rank_reads_the_rank_off_the_raw_stack(monkeypatch):
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    triples = basis_triples(spec)
    # A repeated triple keeps the count and loses one dimension of the span.
    monkeypatch.setattr(verify, "basis_triples", lambda spec: triples[:-1] + triples[:1])
    x = verify.pick_base_points(spec, 2)[0]
    rank = oracle.span_rank(spec, [oracle.realize_raw_triple(spec, t, x) for t in triples[:-1]])
    assert run_check("dimension-rank", spec) == (
        False, 1, f"oracle span rank {rank} differs from dimension {len(triples)}"
    )


def test_base_point_independence_reads_ranks_off_the_stacks(monkeypatch):
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    rad = verify.radical_triples(spec)
    monkeypatch.setattr(verify, "radical_triples", lambda spec: rad + rad[:1])
    assert run_check("base-point-independence", spec) == (
        False, 2, "realized radical rank differs from the symbolic dimension"
    )


@pytest.mark.parametrize(
    "sizes, characteristic",
    [
        ((2, 3), 2),
        ((3, 3), 2),
        ((2, 4), 3),
        ((2, 3), 0),
        ((2, 3), 1048583),
        ((2, 2, 3), 2),
        ((3, 3), 0),
        ((2, 3), 2**64 + 13),
    ],
)
def test_annihilator_dim_matches_the_one_at_a_time_images(monkeypatch, sizes, characteristic):
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    # Each chunk holds three basis matrices (the last may hold fewer).
    chunk_of(monkeypatch, 3 * spec.num_points**2)
    x = points(spec)[-1]
    first = [Element.basis(spec, t) for t in basis_triples(spec)[:3]]
    # Fraction coefficients at characteristic 0
    reps = [quotient.semisimple_rep(spec, t) for t in quotient.quotient_triples(spec)[-4:]]
    for gens in (quotient.frobenius_left_ideal(spec), first, reps, [Element.zero(spec)], [Element.identity(spec)]):
        assert oracle.annihilator_dim(spec, gens, x) == ref_annihilator_dim(spec, gens, x)


def test_annihilator_dim_holds_at_most_n_squared_image_entries_per_basis_matrix(monkeypatch):
    # Images of the generators stacked one under another held J * N^2 entries
    # per basis matrix, 7 * N^2 here.
    spec = SchemeSpec(sizes=(3, 3, 3), characteristic=2)
    chunk_of(monkeypatch, 4 * spec.num_points**2)
    product = oracle.mat_mul
    per_matrix, matrices = [], []

    def watching(*args):
        out = product(*args)
        per_matrix.append(out.size // len(out))
        matrices.append(len(out))
        return out

    monkeypatch.setattr(oracle, "mat_mul", watching)
    ann = oracle.annihilator_dim(spec, quotient.frobenius_left_ideal(spec))
    assert ann == verify.frobenius_witness(spec)["annihilator_dim"]
    assert per_matrix and max(per_matrix) <= spec.num_points**2
    assert max(matrices) == 4 and sum(matrices) == len(basis_triples(spec))


def test_frobenius_check_reports_a_wrong_annihilator_dimension(monkeypatch):
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    witness = verify.frobenius_witness(spec)
    monkeypatch.setattr(verify, "frobenius_witness", lambda spec: {**witness, "annihilator_dim": 0})
    ann = ref_annihilator_dim(spec, verify.frobenius_left_ideal(spec), verify.pick_base_points(spec, 2)[0])
    assert run_check("frobenius-falsification", spec) == (
        False, 2, f"oracle annihilator dim {ann} differs from 0"
    )


# --- bounded by chunks, not by pairs ---------------------------------------------------------


def test_run_all_multiplies_a_chunk_at_a_time(monkeypatch):
    # One run_all at (3,3)/2 made 578 oracle products when each pair or
    # sequence was multiplied on its own (oracle-sanity 32, structure-constants
    # 169, center-commutation 128, radical-nilpotency 170, frobenius 75,
    # corner-structure 4).  Every converted sweep fits in one chunk here, so it
    # makes one product per chunk and factor: 16 in all.  center-commutation
    # then applied the dual idempotents by dense products too; it now zeroes
    # rows and columns for them, so 12.
    spec = SchemeSpec(sizes=(3, 3), characteristic=2)
    calls = {}
    current = [None]
    product = oracle.mat_mul

    def counting(*args):
        calls[current[0]] = calls.get(current[0], 0) + 1
        return product(*args)

    monkeypatch.setattr(oracle, "mat_mul", counting)
    for name, check in verify.ALL_CHECKS:
        current[0] = name
        assert check(spec, verify.pick_base_points(spec, 2), random.Random(f"1729:{name}"),
                     DEFAULT_ORACLE_CAP)[0]
    index = verify.nilpotent_index(spec)
    assert calls == {
        "oracle-sanity": 2,  # one per base point
        "structure-constants": 1,
        "center-commutation": 4,  # both orders against the adjacency matrices, per base point
        # each checked sequence vanishes at its first index - 1 factors, so the
        # last factor is never multiplied
        "radical-nilpotency": index - 2,
        "frobenius-falsification": 1,
        "corner-structure": 1,  # every corner's representative pairs as one stack
    }
    assert sum(calls.values()) == 12


@pytest.mark.parametrize("sizes, characteristic", [((2,) * 5, 3), ((3, 4, 5), 2)])
def test_structure_constants_multiply_blocks_not_dense_pairs(monkeypatch, sizes, characteristic):
    # A dense product per chaining pair costs N^3 multiply-adds; the block products of
    # the sweep must cost under 5% of that in all.  At (2,)^5/3 the whole sweep in one
    # product would cost 3%, but would hold 1024 x 1024 entries.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    triples = basis_triples(spec)
    ops, shapes, product = [], [], oracle.mat_mul

    def counting(spec, a, b):
        ops.append(a.size * b.shape[-1])
        shapes.append((a.size // a.shape[-1], b.shape[-1]))
        return product(spec, a, b)

    monkeypatch.setattr(oracle, "mat_mul", counting)
    assert run_check("structure-constants", spec) == (True, len(triples) ** 2, "exhaustive")
    chaining = sum(t1[2] == t2[0] for t1, t2 in itertools.product(triples, repeat=2))
    assert sum(ops) < 0.05 * spec.num_points**3 * chaining
    # and here each product holds at most a chunk of entries (a chunk that straddles
    # middles may hold a few times more)
    assert ops and max(rows * cols for rows, cols in shapes) <= algebra._CHUNK_ENTRIES


# --- the quotient law judged a chunk at a time ------------------------------------


@pytest.mark.parametrize("sizes, characteristic", [((2, 3), 0), ((2, 2, 2), 3)])
def test_quotient_matrix_units_judges_the_law_once_per_chunk(monkeypatch, sizes, characteristic):
    # No product goes through the one-pair law; each chunk of pairs is one column call,
    # the chunks in sweep order.  Chunks of 4 pairs at (2,3)/0 and 64 at (2,2,2)/3.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    chunk_of(monkeypatch, 1 << 6 if characteristic == 0 else 1 << 10)
    one_pair, calls, law = [], [], verify._quotient_law
    mul = quotient._quotient_mul
    monkeypatch.setattr(quotient, "_quotient_mul", lambda *a: one_pair.append(1) or mul(*a))
    monkeypatch.setattr(verify, "_quotient_law", lambda large, t1, t2: calls.append(t1) or law(large, t1, t2))
    results = verify.run_all(spec)
    assert all(r.passed for r in results)
    assert not one_pair
    dts = verify.quotient_triples(spec)
    step = max(1, algebra._CHUNK_ENTRIES // 16)
    assert len(calls) == len(range(0, len(dts) ** 2, step)) > 1
    left = np.concatenate([verify._key(spec, t1) for t1 in calls])
    assert left.tolist() == [verify._key(spec, dts[k // len(dts)]) for k in range(len(dts) ** 2)]


def swap_law_at(monkeypatch, target, off=None):
    """verify's column law answers target * u with u * target, for every u.  With off set,
    each nonzero product it answers so changes there: its coefficient gains 1, or its
    column off (0, 1 or 2) moves off the masks."""
    law = verify._mul_columns

    def swapped(spec, t1, t2):
        (c, product), (rc, reverse) = law(spec, t1, t2), law(spec, t2, t1)
        if off == "coefficient":
            rc = np.where(rc != 0, rc + 1, 0)
        elif off is not None:
            reverse = tuple(np.where(rc != 0, y + (1 << spec.n), y) if k == off else y for k, y in enumerate(reverse))
        at = np.logical_and.reduce([col == m for col, m in zip(t1, target)])
        return np.where(at, rc, c), tuple(np.where(at, y, x) for x, y in zip(product, reverse))

    monkeypatch.setattr(verify, "_mul_columns", swapped)


# (3,3)/2 has one central basis triple, (3,3,3); at the others none is central
COMMUTATION_SPECS = [((2, 3), 0), ((2, 3), 2), ((2, 2, 3), 2), ((3, 3), 2)]


@pytest.mark.parametrize("sizes, characteristic", COMMUTATION_SPECS)
@pytest.mark.parametrize("where", POSITIONS)
@pytest.mark.parametrize("fault", ["is_central", "law"])
@pytest.mark.parametrize("per_block", [3, None])
def test_center_structure_commutation_fails_at_the_broken_triple(
    monkeypatch, sizes, characteristic, where, fault, per_block
):
    # In blocks of at most 3 D pairs, or the whole square at once, either is_central is
    # flipped at one basis triple t, or the column law answers t * u with u * t for every
    # u, so that t alone comes to commute (here every triple fails to commute with at
    # least two others).  Either way the check fails at t, with the count a one-at-a-time
    # loop reaches it at.  t is no central element, whose is_central the check asks first.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    triples = basis_triples(spec)
    centrals = [verify.central_element(spec, g) for g in verify.central_indices(spec)]
    target = at_position([t for t in triples if Element.basis(spec, t) not in centrals], where)
    if fault == "is_central":
        real = verify.is_central
        monkeypatch.setattr(verify, "is_central", lambda spec, e: real(spec, e) != (e == Element.basis(spec, target)))
    else:
        swap_law_at(monkeypatch, target)
    if per_block:
        chunk_of(monkeypatch, per_block * len(triples))
    k = len(centrals)
    detail = f"is_central({render_triple(spec, target)}) disagrees with commutation"
    assert run_check("center-structure", spec) == (False, 1 + 2 * k * k + k + triples.index(target), detail)


@pytest.mark.parametrize("sizes, characteristic", COMMUTATION_SPECS[:3])
@pytest.mark.parametrize("where", POSITIONS)
@pytest.mark.parametrize("off", ["coefficient", 0, 1, 2])
@pytest.mark.parametrize("per_block", [3, None])
def test_center_structure_commutation_compares_whole_products(
    monkeypatch, sizes, characteristic, where, off, per_block
):
    # t * u and u * t now agree for every u but in their coefficient, or in one column
    # of their triple, wherever they are nonzero: t still fails to commute, and the
    # check, which finds no central basis triple here, passes as before.  t is a term of
    # no central element, so the center product law is untouched.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    whole = run_check("center-structure", spec)
    held = {t for g in verify.central_indices(spec) for t in verify.central_element(spec, g).terms}
    swap_law_at(monkeypatch, at_position([t for t in basis_triples(spec) if t not in held], where), off)
    if per_block:
        chunk_of(monkeypatch, per_block * len(basis_triples(spec)))
    assert run_check("center-structure", spec) == whole


@pytest.mark.parametrize("sizes, characteristic", COMMUTATION_SPECS[2:])
@pytest.mark.parametrize("entries", [1, 50, 1 << 16])
def test_center_structure_commutation_holds_a_block_of_pairs(monkeypatch, sizes, characteristic, entries):
    # Every basis triple t meets the triples u in blocks of at most `entries` pairs (one
    # u at least), each multiplied both ways, and only the t that commute so far go on;
    # the whole square is multiplied one way and transposed.  At (3,3)/2 the central
    # basis triple (3,3,3) commutes with every u, so the blocks cover them all.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    whole = run_check("center-structure", spec)
    assert whole[0]
    shapes = []
    law = verify._mul_columns

    def counted(spec, t1, t2):
        shape = np.broadcast(*t1, *t2).shape
        if len(shape) == 2:
            shapes.append(shape)
        return law(spec, t1, t2)

    monkeypatch.setattr(verify, "_mul_columns", counted)
    chunk_of(monkeypatch, entries)
    assert run_check("center-structure", spec) == whole
    d = len(basis_triples(spec))
    if entries >= d * d:
        assert shapes == [(d, d)]
        return
    assert shapes[0][0] == d and shapes[::2] == shapes[1::2]
    assert all(rows * width <= max(entries, rows) for rows, width in shapes)
    assert all(later[0] <= earlier[0] for earlier, later in zip(shapes, shapes[1:]))
    assert entries == 1 or max(width for _, width in shapes) > shapes[0][1]  # blocks widen as t drop out
    covered = sum(width for _, width in shapes[::2])
    assert covered == d if sizes == (3, 3) else covered <= d


@pytest.mark.parametrize("sizes, characteristic", [((3, 3), 0), ((2, 3, 3), 2)])
def test_center_structure_makes_no_element_product(monkeypatch, sizes, characteristic):
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    calls = []
    mul = Element.mul
    monkeypatch.setattr(Element, "mul", lambda x, y: calls.append(1) or mul(x, y))
    assert run_check("center-structure", spec)[0]
    assert not calls


@pytest.mark.parametrize("zeroed", [False, True])
def test_quotient_matrix_units_fails_a_product_no_block_holds(monkeypatch, zeroed):
    # Without its last block, the products of that signature name no slot: the law fails
    # at the first of them, where the block structure gives no product to compare.  It
    # fails there also when the law gives that product as zero (zeroed): a zero product
    # would be right where the pair does not chain, but this pair chains inside a
    # signature whose slot no block holds.
    spec = SchemeSpec(sizes=(3, 3), characteristic=0)
    blocks = verify.wedderburn_blocks(spec)
    monkeypatch.setattr(verify, "wedderburn_blocks", lambda spec: blocks[:-1])
    dts = verify.quotient_triples(spec)
    last = [k for k, t in enumerate(dts) if verify._signature(spec.large_mask, t) == blocks[-1].signature]
    first = min(a * len(dts) + b for a in last for b in last if dts[a][2] == dts[b][0])
    slots = sum(b.size**2 for b in blocks[:-1])
    t1, t2 = dts[first // len(dts)], dts[first % len(dts)]
    if zeroed:
        law = verify._quotient_law

        def zero_at(large, a, b):
            live, product = law(large, a, b)
            return live & ~is_pair(a, b, (t1, t2)), product

        monkeypatch.setattr(verify, "_quotient_law", zero_at)
    detail = f"matrix unit law fails at {render_triple(spec, t1)} * {render_triple(spec, t2)}"
    assert run_check("quotient-matrix-units", spec) == (False, slots + first, detail)


@pytest.mark.parametrize("where", POSITIONS)
def test_quotient_matrix_units_fails_a_product_outside_the_surviving_set(monkeypatch, where):
    # The law's product at one nonzero pair gains a qualifying coordinate in its middle,
    # so it leaves the surviving set: the check fails at that pair, and run_all returns
    # its record, where the one-pair law raises.
    spec = SchemeSpec(sizes=(3, 4), characteristic=3)
    dts = verify.quotient_triples(spec)
    pairs = list(itertools.product(dts, dts))
    bad = at_position([k for k, (t1, t2) in enumerate(pairs) if quotient.quotient_mul(spec, t1, t2)], where)
    t1, t2 = pairs[bad]
    q, law = 1 << verify.qualifying_coordinates(spec)[0], quotient._quotient_law

    def moved(large, a, b):
        live, (g, h, i) = law(large, a, b)
        hit = is_pair(a, b, (t1, t2))
        h = np.where(hit, h | q, h)
        return live, (g, h if np.ndim(hit) else int(h), i)

    monkeypatch.setattr(verify, "_quotient_law", moved)
    monkeypatch.setattr(quotient, "_quotient_law", moved)
    with pytest.raises(RuntimeError, match="left the surviving set"):
        quotient.quotient_mul(spec, t1, t2)
    slots = sum(b.size**2 for b in verify.wedderburn_blocks(spec))
    detail = f"matrix unit law fails at {render_triple(spec, t1)} * {render_triple(spec, t2)}"
    assert reference(ref_quotient_matrix_units, spec) == (False, slots + bad, detail)
    got = {r.name: r for r in verify.run_all(spec)}["quotient-matrix-units"]
    assert (got.passed, got.count, got.detail) == (False, slots + bad, detail)


def test_quotient_matrix_units_holds_a_chunk_of_pairs(monkeypatch):
    # (2,2,2,2)/3 has 256 one-term representatives and 65,536 pairs.  With chunks of 64
    # pairs the check's traced peak stays near its representatives, while arrays and
    # lists of every pair's positions and expected product take megabytes.
    spec = SchemeSpec(sizes=(2, 2, 2, 2), characteristic=3)
    chunk_of(monkeypatch, 1 << 10)
    tracemalloc.start()
    try:
        got = run_check("quotient-matrix-units", spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (True, 256 + 2 * 256**2, "")  # 256 block slots, then the law and the lift per pair
    assert peak < 1 << 20


# --- triple-regularity draws batched -------------------------------------------------------

INTERSECTION_SPECS = [((2, 3), 2), ((3, 3), 0), ((2, 2, 3), 2), ((4, 4), 3), ((3, 4, 5), 2)]


def seeded(check, spec, seed):
    return check(spec, verify.pick_base_points(spec, 2), random.Random(seed), DEFAULT_ORACLE_CAP)


def rows_of(spec, at, masks):
    """The (x, y, z, g, h, i) rows of a triple count at table positions, points as tuples."""
    pts = points(spec)
    points_of = ([pts[k] for k in np.asarray(w).tolist()] for w in at)
    return list(zip(*points_of, *(np.asarray(m).tolist() for m in masks)))


@pytest.mark.parametrize("sizes, characteristic", INTERSECTION_SPECS)
def test_intersection_numbers_match_the_one_at_a_time_draws(monkeypatch, sizes, characteristic):
    # Same record, and the same 20 pairs of triples counted, in the same order.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    one_row, stacked = oracle.triple_intersection_count, oracle._triple_counts
    for seed in (0, 1, "1729:intersection-numbers", 99):
        drawn, counted = [], []
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "triple_intersection_count", lambda spec, *a: drawn.append(a[:6]) or one_row(spec, *a))
            expected = seeded(ref_intersection_numbers, spec, seed)
        assert expected == (True, (1 << spec.n) ** 3 + 20, "")
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_triple_counts", lambda spec, *a: counted.extend(rows_of(spec, *a[:2])) or stacked(spec, *a))
            assert seeded(verify._check_intersection_numbers, spec, seed) == expected
        assert counted[:20] == drawn[0::2] and counted[20:] == drawn[1::2]


@pytest.mark.parametrize("sizes, characteristic", [((2, 3), 2), ((2, 2, 3), 2), ((3, 4, 5), 2)])
@pytest.mark.parametrize("draw", [0, 10, 19])
def test_intersection_numbers_matches_the_one_at_a_time_sweep(monkeypatch, sizes, characteristic, draw):
    # The stacked count gains 1 on the second triple of one draw, found by recording
    # the reference's one-row calls; both sides must fail at that draw.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    seed = 5
    calls = []
    one_row = oracle.triple_intersection_count

    def recording(spec, *args):
        calls.append(tuple(args[:6]))
        return one_row(spec, *args)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "triple_intersection_count", recording)
        assert seeded(ref_intersection_numbers, spec, seed)[0]
    first, target = calls[2 * draw], calls[2 * draw + 1]
    assert first != target  # else the fault would cancel
    counts = oracle._triple_counts

    def faulty(spec, at, masks, cap=DEFAULT_ORACLE_CAP):
        return counts(spec, at, masks, cap) + [row == target for row in rows_of(spec, at, masks)]

    monkeypatch.setattr(oracle, "_triple_counts", faulty)
    expected = seeded(ref_intersection_numbers, spec, seed)
    assert expected == (False, (1 << spec.n) ** 3 + draw, "triple intersection count is not triply regular")
    assert seeded(verify._check_intersection_numbers, spec, seed) == expected


@pytest.mark.parametrize("sizes, characteristic", [((2, 3), 2), ((3, 3), 0), ((2, 2, 3), 5)])
def test_triple_counts_at_positions_are_the_counts_at_points(sizes, characteristic):
    # Half the rows take the relations of three points to a fourth as their masks, so
    # their counts are at least 1; the rest take random masks.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    pts = points(spec)
    rng = random.Random(f"{sizes}:{characteristic}")
    rows = []
    for k in range(40):
        at = [rng.randrange(len(pts)) for _ in range(4)]
        masks = [relation(spec, pts[a], pts[at[3]]) if k % 2 else rng.randrange(1 << spec.n) for a in at[:3]]
        rows.append(at[:3] + masks)
    at, masks = np.array(rows).T[:3], np.array(rows).T[3:]
    counts = oracle._triple_counts(spec, at, masks)
    assert counts.tolist() == [oracle.triple_intersection_count(spec, *row) for row in rows_of(spec, at, masks)]
    assert counts[1::2].all()
    assert oracle._triple_counts(spec, at[:, :0], masks[:, :0]).tolist() == []


def test_triple_intersection_count_is_the_brute_force_count_and_checks_its_arguments():
    spec = SchemeSpec(sizes=(2, 3), characteristic=2)
    pts = points(spec)
    rng = random.Random(3)
    rows = [(*rng.sample(pts, 3), *(rng.randrange(4) for _ in range(3))) for _ in range(30)]
    brute = [sum(relation(spec, x, w) == a and relation(spec, y, w) == b and relation(spec, z, w) == c for w in pts)
             for x, y, z, a, b, c in rows]
    assert [oracle.triple_intersection_count(spec, *row) for row in rows] == brute
    with pytest.raises(ValueError, match="not a point"):
        oracle.triple_intersection_count(spec, (0, 0), (0, 3), (0, 0), 0, 0, 0)
    with pytest.raises(ValueError, match="not a point"):
        oracle.triple_intersection_count(spec, (0, 0, 0), (0, 0), (0, 0), 0, 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        oracle.triple_intersection_count(spec, (0, 0), (1, 1), (0, 2), 0, 4, 0)


# --- elimination a block of rows at a time ---------------------------------------------------


def dependent_family(spec, rng, rank, extra):
    """rank independent elements (triangular over distinct basis triples) and extra
    combinations of them, shuffled, with the zero element among them."""
    def scalar():
        if spec.characteristic:
            return rng.randrange(1, spec.characteristic)
        return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 7), rng.randrange(1, 7))

    triples = rng.sample(basis_triples(spec), rank)
    gens = []
    for k, t in enumerate(triples):
        e = Element.basis(spec, t, scalar())
        for u in triples[k + 1 :]:
            if rng.random() < 0.5:
                e = e.add(Element.basis(spec, u, scalar()))
        gens.append(e)
    family = gens + [Element.zero(spec)]
    for _ in range(extra):
        e = Element.zero(spec)
        for g in rng.sample(gens, rng.randrange(1, rank + 1)):
            e = e.add(g.scale(scalar()))
        family.append(e)
    rng.shuffle(family)
    return family


@pytest.mark.parametrize("characteristic", [0, 3, 2**31 + 11])
@pytest.mark.parametrize("sizes", [(2, 3), (3, 3)])
def test_span_rank_of_a_stack_is_the_rank_of_its_matrices(monkeypatch, sizes, characteristic):
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    rng = random.Random(f"{sizes}:{characteristic}")
    x = points(spec)[-1]
    for rank, extra in ((1, 2), (6, 5), (12, 12)):
        family = dependent_family(spec, rng, rank, extra)
        mats = [oracle.realize(spec, e, x) for e in family]
        stack = np.stack(mats)
        assert stack.dtype == (np.int64 if characteristic == 3 else object)
        assert oracle.span_rank(spec, stack) == oracle.span_rank(spec, mats) == rank
        pivots = oracle._pivot_rows(spec, oracle._blocks(stack))
        for entries in (1, 3 * spec.num_points**2, 5 * spec.num_points**2 + 1):
            # one row a block, three rows, and five rows a block
            with monkeypatch.context() as patch:
                chunk_of(patch, entries)
                assert oracle.span_rank(spec, mats) == rank
                again = oracle._pivot_rows(spec, oracle._blocks(stack))
            assert len(again) == len(pivots)
            assert all(
                a.tolist() == b.tolist() and u.tolist() == v.tolist() for (a, u), (b, v) in zip(again, pivots)
            )
    empty = oracle.realize_stack(spec, [], x)
    assert empty.shape == (0,) + (spec.num_points,) * 2
    assert oracle.span_rank(spec, empty) == oracle.span_rank(spec, []) == 0


def test_verify_takes_an_empty_radical_stack(capsys):
    from terwilliger import cli

    spec = SchemeSpec(sizes=(2, 2), characteristic=0)
    assert verify.radical_triples(spec) == []
    assert run_check("base-point-independence", spec) == (True, 3, "dim 16, radical 0, 2 base points")
    assert cli.main(["verify", "--sizes", "2,2", "--char", "0"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("all checks passed")


@pytest.mark.parametrize("sizes, characteristic", [((3, 3), 2), ((2, 4), 3), ((2, 3), 0)])
def test_elimination_blocks_hold_at_most_a_chunk_of_entries(monkeypatch, sizes, characteristic):
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    names = ["dimension-rank", "frobenius-falsification", "base-point-independence"]
    expected = [run_check(name, spec) for name in names]
    entries = 3 * spec.num_points**2 + 7
    chunk_of(monkeypatch, entries)
    blocks = []
    pivot_rows = oracle._pivot_rows

    def watching(spec, given):
        def each():
            for block in given:
                blocks.append(block.shape)
                yield block
        return pivot_rows(spec, each())

    monkeypatch.setattr(oracle, "_pivot_rows", watching)
    assert [run_check(name, spec) for name in names] == expected
    assert blocks and all(len(shape) == 2 for shape in blocks)
    assert all(rows * width <= entries or rows == 1 for rows, width in blocks)
    assert max(rows for rows, _ in blocks) > 1


def test_frobenius_check_ranks_its_generators_as_one_stack(monkeypatch):
    spec = SchemeSpec(sizes=(3, 3), characteristic=2)
    expected = run_check("frobenius-falsification", spec)
    realized, ranked = [], []
    combinations, span_rank = oracle._realize_combinations, oracle.span_rank
    monkeypatch.setattr(oracle, "realize", lambda *args: pytest.fail("realized one element at a time"))
    monkeypatch.setattr(
        oracle, "_realize_combinations", lambda spec, combos, *a: realized.append(len(combos)) or combinations(spec, combos, *a)
    )
    monkeypatch.setattr(oracle, "span_rank", lambda spec, mats: ranked.append(type(mats)) or span_rank(spec, mats))
    assert run_check("frobenius-falsification", spec) == expected
    gens = len(verify.frobenius_left_ideal(spec))
    assert realized == [gens, gens]  # the rank's stack, then annihilator_dim's
    assert ranked == [np.ndarray]
