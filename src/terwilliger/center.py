"""The center of the algebra: basis, products, radical, and nilpotent index.

The center has one basis element per mask supported on the coordinates
whose factor has more than two elements.  Products of two such elements
collapse to a single term again, so the center is handled by closed
formulas; membership of an arbitrary element is decided by an exact solve.
"""

from __future__ import annotations

from .algebra import Element, Triple, _accumulate
from .scheme import Mask, Scalar, SchemeSpec, p_divides_valency, render_mask, submasks, valency


def central_indices(spec: SchemeSpec) -> list[Mask]:
    """All masks supported on large coordinates, in canonical order; one per center basis element."""
    return submasks(spec.large_mask)


def check_central(spec: SchemeSpec, g: Mask) -> Mask:
    if spec.check_mask(g) & ~spec.large_mask:
        raise ValueError(
            f"mask {render_mask(g, spec.n)} touches a size-2 coordinate, so it is not central"
        )
    return g


def central_element(spec: SchemeSpec, g: Mask) -> Element:
    """The center basis element at g: sum over all h of k(g minus h) times the element at (h, g&h, h)."""
    check_central(spec, g)
    return Element._with_terms(spec, _central_terms(spec, g))


def _central_terms(spec: SchemeSpec, g: Mask) -> dict[Triple, Scalar]:
    """The terms of central_element at a central g, canonical and in order of h.

    A coefficient depends only on g minus h, a submask of g, so each of the
    2^|g| distinct values is made once.
    """
    field = spec.field
    coeffs = {s: c for s in submasks(g) if not field.is_zero(c := field.of(valency(spec, s)))}
    return {(h, g & h, h): coeffs[g & ~h] for h in range(1 << spec.n) if g & ~h in coeffs}


def center_mul(spec: SchemeSpec, g: Mask, h: Mask) -> tuple[Scalar, Mask]:
    """Product of two center basis elements: the single term (k(g&h), g|h)."""
    check_central(spec, g)
    check_central(spec, h)
    return spec.field.of(valency(spec, g & h)), g | h


def center_rad_basis(spec: SchemeSpec) -> list[Mask]:
    """Central indices whose valency vanishes in the ground field; empty in characteristic 0."""
    return [g for g in central_indices(spec) if p_divides_valency(spec, g)]


def center_nilpotent_index(spec: SchemeSpec) -> int:
    """Nilpotent index of the center radical: qualifying coordinate count plus one."""
    return spec.qualifying_mask.bit_count() + 1


def is_central(spec: SchemeSpec, x: Element) -> bool:
    """Whether an element lies in the center, by an exact coordinate solve.

    Each center basis element at g has exactly one term whose outer masks
    are both the full mask, namely (full, g, full) with unit coefficient.
    So the only candidate expansion reads its coefficients off those terms,
    and membership is equality with that candidate.
    """
    if x.spec != spec:
        raise ValueError("element belongs to a different scheme")
    field, full = spec.field, spec.full_mask
    candidate: dict[Triple, Scalar] = {}
    for g in central_indices(spec):
        c = x.terms.get((full, g, full))
        if c is not None:
            for t, v in _central_terms(spec, g).items():
                _accumulate(field, candidate, t, field.mul(c, v))
    return candidate == x.terms


def center_summary(spec: SchemeSpec) -> dict:
    """Report fragment: dimension, basis indices, radical dimension, nilpotent index."""
    n = spec.n
    return {
        "dim": len(central_indices(spec)),
        "basis": [render_mask(g, n) for g in central_indices(spec)],
        "rad_dim": len(center_rad_basis(spec)),
        "nilpotent_index": center_nilpotent_index(spec),
    }
