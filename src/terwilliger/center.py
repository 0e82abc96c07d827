"""The center of the algebra: basis, products, radical, and nilpotent index.

The center has one basis element per mask supported on the coordinates
whose factor has more than two elements.  Products of two such elements
collapse to a single term again, so the center is handled by closed
formulas; membership of an arbitrary element is decided by an exact solve.
"""

from __future__ import annotations

from .algebra import Element
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
    field = spec.field
    terms = {}
    for h in range(1 << spec.n):
        c = field.of(valency(spec, g & ~h))
        if not field.is_zero(c):
            terms[(h, g & h, h)] = c
    return Element(spec, terms)


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
    full = spec.full_mask
    candidate = Element.zero(spec)
    for g in central_indices(spec):
        c = x.coeff((full, g, full))
        if not spec.field.is_zero(c):
            candidate = candidate.add(central_element(spec, g).scale(c))
    return candidate == x


def center_summary(spec: SchemeSpec) -> dict:
    """Report fragment: dimension, basis indices, radical dimension, nilpotent index."""
    n = spec.n
    return {
        "dim": len(central_indices(spec)),
        "basis": [render_mask(g, n) for g in central_indices(spec)],
        "rad_dim": len(center_rad_basis(spec)),
        "nilpotent_index": center_nilpotent_index(spec),
    }
