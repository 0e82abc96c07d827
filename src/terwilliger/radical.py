"""The Jacobson radical: basis, membership, nilpotent index, witness chains, corners.

The radical is spanned by exactly the basis triples whose middle mask has
valency divisible by the characteristic, i.e. meets the qualifying mask of
the coordinates whose factor size is 1 modulo the characteristic.  The
basis listing walks only those middles; its length has a closed form, and
membership reads only an element's terms.  The nilpotent index is 2m+1
where m counts the qualifying coordinates, and witness_chain returns an
explicit ordered product certifying that the index is not smaller.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    Triple,
    corner_basis,
    dimension,
    triple_columns,
    triple_json,
    triples_with_middles,
)
from .scheme import Mask, SchemeSpec, all_masks, p_divides_valency


def qualifying_coordinates(spec: SchemeSpec) -> list[int]:
    """Bit positions of the coordinates whose factor size is 1 mod the characteristic."""
    return [a for a in range(spec.n) if (spec.qualifying_mask >> a) & 1]


def radical_triples(spec: SchemeSpec) -> list[Triple]:
    """Basis triples spanning the radical: middle valency divisible by the characteristic.

    The walk of basis_triples with h restricted to the divisible middles, so
    the triples come in canonical order without visiting the others.
    """
    return triples_with_middles(spec, [h for h in all_masks(spec) if p_divides_valency(spec, h)])


def radical_columns(spec: SchemeSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The radical_triples masks g, h, i as three int64 arrays, in the same order."""
    return triple_columns(spec, [h for h in all_masks(spec) if p_divides_valency(spec, h)])


def rad_dim(spec: SchemeSpec) -> int:
    """The radical's dimension, dim T - 2^m * 4^n1 * 5^(n2-m) with m qualifying coordinates.

    Outside the radical the middle mask avoids the qualifying coordinates:
    each of them keeps 2 of its one-coordinate triples, every other one all
    4 (size 2) or 5, and a size-2 coordinate never qualifies.
    """
    m = len(qualifying_coordinates(spec))
    return dimension(spec) - 2**m * 4**spec.n1 * 5 ** (spec.n2 - m)


def in_radical(spec: SchemeSpec, x) -> bool:
    """Whether an element lies in the radical: every term middle must have vanishing valency."""
    if x.spec != spec:
        raise ValueError("element belongs to a different scheme")
    return all(p_divides_valency(spec, t[1]) for t in x.terms)


def nilpotent_index(spec: SchemeSpec) -> int:
    """Smallest L with every product of L radical elements zero; 1 when the radical is zero."""
    return 2 * len(qualifying_coordinates(spec)) + 1


def witness_chain(spec: SchemeSpec) -> list[Triple]:
    """An ordered list of 2m radical basis triples whose product is nonzero.

    For each qualifying coordinate, taken in increasing order, the chain
    holds the pair (full, l, full minus l), (full minus l, l, full) where l
    is the singleton mask of that coordinate.  The product of the whole
    chain collapses to a single nonzero basis element, which certifies the
    nilpotent index lower bound.
    """
    qual = qualifying_coordinates(spec)
    if not qual:
        raise ValueError("the radical is zero, so no witness chain exists")
    full = spec.full_mask
    chain: list[Triple] = []
    for a in qual:
        l = 1 << a
        chain.append((full, l, full & ~l))
        chain.append((full & ~l, l, full))
    return chain


def corner_rad_basis(spec: SchemeSpec, g: Mask) -> list[Mask]:
    """Middle masks spanning the radical of the corner at g."""
    return [a for a in corner_basis(spec, g) if p_divides_valency(spec, a)]


def corner_nilpotent_index(spec: SchemeSpec, g: Mask) -> int:
    """Nilpotent index of the corner radical: qualifying coordinates inside g, plus one."""
    return (spec.check_mask(g) & spec.qualifying_mask).bit_count() + 1


def radical_closed_form(spec: SchemeSpec) -> dict:
    """Report fragment without the basis listing: dimension, nilpotent index, witness chain."""
    witness = witness_chain(spec) if spec.qualifying_mask else []
    return {
        "dim": rad_dim(spec),
        "nilpotent_index": nilpotent_index(spec),
        "witness": [triple_json(spec, t) for t in witness],
    }


def radical_summary(spec: SchemeSpec) -> dict:
    """Report fragment: dimension, nilpotent index, witness chain, basis triples."""
    return {
        **radical_closed_form(spec),
        "basis": [triple_json(spec, t) for t in radical_triples(spec)],
    }
