"""The canonical builders against their definitions through Element's checks and arithmetic.

central_element, is_central and semisimple_rep build their terms canonical and hand
them to Element unchecked.  Each is compared here with the definition it replaced: the
same terms in the same order, and every coefficient canonical.
"""

import random
from fractions import Fraction

import pytest

from terwilliger.algebra import Element, basis_triples
from terwilliger.center import central_element, central_indices, is_central
from terwilliger.quotient import quotient_triples, semisimple_rep
from terwilliger.scheme import SchemeSpec, layer, layer_count, mask_product, valency

SPECS = [((2, 3, 4), 0), ((2, 3, 4), 2), ((2, 3, 4), 3), ((3, 4, 5), 2), ((3, 4, 5), 3), ((3, 4), 2**31 + 11)]


def canonical(spec, coeffs):
    """Whether every coefficient is a Fraction at characteristic 0, a residue in [0, p) otherwise."""
    p = spec.characteristic
    if not p:
        return all(type(c) is Fraction for c in coeffs)
    return all(type(c) is int and 0 <= c < p for c in coeffs)


def layer_walk_rep(spec, t):
    """semisimple_rep as a walk over scheme.layer, each layer's sign a field product."""
    g, h, i = t
    field = spec.field
    top = mask_product(spec, g, i)
    terms = {}
    sign = field.one()
    for k in range(layer_count(spec, top, h) + 1):
        for m in layer(spec, top, h, k):
            terms[(g, m, i)] = field.mul(sign, field.inv(field.of(valency(spec, i & m))))
        sign = field.neg(sign)
    return Element(spec, terms)


def summed_central_element(spec, g):
    """central_element as a sum over h."""
    field = spec.field
    terms = {}
    for h in range(1 << spec.n):
        c = field.of(valency(spec, g & ~h))
        if not field.is_zero(c):
            terms[(h, g & h, h)] = c
    return Element(spec, terms)


def summed_is_central(spec, x):
    """is_central with its candidate built by Element.add and Element.scale."""
    full = spec.full_mask
    candidate = Element.zero(spec)
    for g in central_indices(spec):
        c = x.coeff((full, g, full))
        if not spec.field.is_zero(c):
            candidate = candidate.add(summed_central_element(spec, g).scale(c))
    return candidate == x


def same_terms(got, want):
    return list(got.terms.items()) == list(want.terms.items())


@pytest.mark.parametrize("sizes, characteristic", SPECS)
def test_semisimple_rep_is_the_layer_walk_term_for_term(sizes, characteristic):
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    for t in quotient_triples(spec):
        rep = semisimple_rep(spec, t)
        assert same_terms(rep, layer_walk_rep(spec, t))
        assert canonical(spec, rep.terms.values())


@pytest.mark.parametrize("sizes, characteristic", SPECS)
def test_central_element_is_the_summed_element_term_for_term(sizes, characteristic):
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    for g in central_indices(spec):
        element = central_element(spec, g)
        assert same_terms(element, summed_central_element(spec, g))
        assert canonical(spec, element.terms.values())


@pytest.mark.parametrize("sizes, characteristic", SPECS)
def test_is_central_agrees_with_the_summed_candidate(sizes, characteristic):
    # Every basis element and every central element, then seeded combinations of
    # central elements, some with a basis term added or one of their terms cancelled.
    spec = SchemeSpec(sizes=sizes, characteristic=characteristic)
    field = spec.field
    rng = random.Random(f"{sizes}:{characteristic}")
    triples = basis_triples(spec)
    centrals = [central_element(spec, g) for g in central_indices(spec)]
    elements = [Element.basis(spec, t) for t in triples] + centrals
    for _ in range(40):
        x = Element.zero(spec)
        for c in rng.sample(centrals, rng.randint(1, len(centrals))):
            x = x.add(c.scale(field.of(rng.randint(1, 6))))
        if rng.random() < 0.5:
            t = rng.choice(triples)
            x = x.add(Element.basis(spec, t)) if rng.random() < 0.5 else x.sub(Element.basis(spec, t, x.coeff(t)))
        elements.append(x)
    verdicts = [is_central(spec, x) for x in elements]
    assert verdicts == [summed_is_central(spec, x) for x in elements]
    assert any(verdicts) and not all(verdicts)
