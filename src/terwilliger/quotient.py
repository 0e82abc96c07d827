"""The semisimple quotient: representative basis, products, and block structure.

Each basis triple whose middle valency survives in the ground field gets a
distinguished representative element whose image in the quotient by the
radical is a scaled matrix unit.  Products of representatives collapse to
a single representative (or vanish) depending only on an equivalence
signature, which partitions the surviving triples into full matrix blocks.
The blocks and the verdicts are read off the large and qualifying masks
of the scheme, without enumerating the basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import (
    Element,
    Triple,
    _product,
    dimension,
    is_basis_triple,
    render_triple,
    triples_with_middles,
)
from .scheme import (
    Mask,
    SchemeSpec,
    mask_product,
    p_divides_valency,
    render_mask,
    submasks,
    valency,
)


def is_quotient_triple(spec: SchemeSpec, t: Triple) -> bool:
    g, h, i = t
    return is_basis_triple(spec, g, h, i) and not p_divides_valency(spec, h)


def check_quotient_triple(spec: SchemeSpec, t: Triple) -> Triple:
    if not is_quotient_triple(spec, t):
        raise ValueError(
            f"{render_triple(spec, t)} does not index a representative"
            " (not a basis triple, or its middle valency vanishes)"
        )
    return t


def quotient_triples(spec: SchemeSpec) -> list[Triple]:
    """Basis triples surviving in the quotient, canonical order; count is dim T minus rad dim.

    The middles of nonvanishing valency are the masks that avoid the
    qualifying mask, i.e. the submasks of its complement, and the walk of
    basis_triples over them gives the triples in canonical order: exactly
    those that radical_triples leaves out.
    """
    return triples_with_middles(spec, submasks(spec.full_mask & ~spec.qualifying_mask))


def signature(spec: SchemeSpec, t: Triple) -> Mask:
    """The block label of a representative: (g & i & large) minus h."""
    check_quotient_triple(spec, t)
    return _signature(spec.large_mask, t)


def _signature(large: Mask, t: Triple) -> Mask:
    """signature of a surviving triple, unchecked; large is the spec's large_mask."""
    g, h, i = t
    return (g & i & large) & ~h


def semisimple_rep(spec: SchemeSpec, t: Triple) -> Element:
    """The distinguished representative of a surviving triple, as a full algebra element.

    An alternating sum over the layers between h and mask_product(g, i):
    layer k contributes (-1)^k times the inverse of k(i & l) times the
    basis element at (g, l, i) for each layer member l.  All inverses
    exist because the layers only hold masks of nonvanishing valency.
    The members of layer k are h | s for the submasks s with k bits of
    mask_product(g, i) minus h and the qualifying mask (scheme.layer), so
    one stable sort of those submasks by bit count walks the layers in
    order, each in canonical order; every term is a basis triple with a
    canonical nonzero coefficient.
    """
    check_quotient_triple(spec, t)
    g, h, i = t
    field = spec.field
    free = mask_product(spec, g, i) & ~h & ~spec.qualifying_mask
    terms = {}
    for s in sorted(submasks(free), key=int.bit_count):
        c = field.inv(valency(spec, i & (h | s)))
        terms[(g, h | s, i)] = field.neg(c) if s.bit_count() & 1 else c
    return Element._with_terms(spec, terms)


def quotient_mul(spec: SchemeSpec, t1: Triple, t2: Triple) -> Optional[Triple]:
    """Product of two representatives in the quotient: one surviving triple or nothing.

    Nonzero exactly when the inner masks agree and the signatures agree;
    the coefficient is then always 1, with result triple
    (t1.g, bracket(t1.g, t1.h, t1.i, t2.h, t2.i), t2.i).
    """
    check_quotient_triple(spec, t1)
    check_quotient_triple(spec, t2)
    return _quotient_mul(spec, t1, t2)


def _quotient_law(large: Mask, t1: Triple, t2: Triple) -> tuple[bool, Triple]:
    """The law of quotient_mul on surviving triples, unchecked: whether the product is
    nonzero, and its triple, which means nothing where it is zero.

    It is nonzero when the inner masks chain and the signatures agree.  Being
    bitwise, it takes two 3-row int64 column sets as well, one pair per position,
    and then the verdict is a bool column.  large is the spec's large_mask.
    """
    live = (t1[2] == t2[0]) & (_signature(large, t1) == _signature(large, t2))
    return live, _product(large, t1, t2)[1]


def _quotient_mul(spec: SchemeSpec, t1: Triple, t2: Triple) -> Optional[Triple]:
    """_quotient_law on one pair, as quotient_mul gives it; a product outside the set raises."""
    live, out = _quotient_law(spec.large_mask, t1, t2)
    if not live:
        return None
    if not is_quotient_triple(spec, out):
        raise RuntimeError(
            f"internal consistency failure: product of {render_triple(spec, t1)} and"
            f" {render_triple(spec, t2)} left the surviving set at {render_triple(spec, out)}"
        )
    return out


@dataclass(frozen=True)
class WedderburnBlock:
    """One full matrix block of the quotient: its signature, row masks, and size."""

    signature: Mask
    rows: tuple[Mask, ...]

    @property
    def size(self) -> int:
        return len(self.rows)


def wedderburn_blocks(spec: SchemeSpec) -> list[WedderburnBlock]:
    """The matrix blocks of the quotient, one per signature, in canonical order.

    Every s inside the large mask is a signature, and the rows of its block
    are the masks g holding the diagonal representative (g, h, g) with
    h = (g & large) minus s: those with s inside g and the valency of h prime to
    the characteristic, i.e. h avoiding the qualifying mask Q.  Since Q lies
    inside the large mask, that holds iff g minus s avoids Q, so the rows are
    s | u for u a submask of the full mask minus s and Q.  OR-ing the fixed
    bits of s into every u keeps the canonical order of the u, so the rows
    come in canonical order.  Row g = s always qualifies, so no block is
    empty.
    """
    rest = spec.full_mask & ~spec.qualifying_mask
    return [
        WedderburnBlock(s, tuple(s | u for u in submasks(rest & ~s)))
        for s in submasks(spec.large_mask)
    ]


def verdicts(spec: SchemeSpec) -> dict[str, bool]:
    """Semisimple, Frobenius, and symmetric are all equivalent for this family."""
    fine = not p_divides_valency(spec, spec.full_mask)
    return {"semisimple": fine, "frobenius": fine, "symmetric": fine}


def frobenius_left_ideal(spec: SchemeSpec) -> list[Element]:
    """Spanning elements of the left ideal used to falsify the Frobenius property."""
    return [Element.basis(spec, (a, a, 0)) for a in range(1 << spec.n) if p_divides_valency(spec, a)]


def frobenius_witness(spec: SchemeSpec) -> Optional[dict[str, int]]:
    """Dimension bookkeeping that falsifies the Frobenius property, or None when semisimple.

    The span of the basis elements at (a, a, 0) with vanishing valency is a
    left ideal of dimension 2^n - 2^(n-i), its right annihilator has
    dimension dim T - 2^n, and the sum falls short of dim T, which a
    Frobenius algebra does not allow.
    """
    i = spec.qualifying_mask.bit_count()
    if not i:
        return None
    n = spec.n
    dim_t = dimension(spec)
    left = 2**n - 2 ** (n - i)
    annihilator = dim_t - 2**n
    return {
        "left_ideal_dim": left,
        "annihilator_dim": annihilator,
        "total": left + annihilator,
    }


def wedderburn_summary(spec: SchemeSpec) -> dict:
    """Report fragment: class count, block table, and the three verdicts."""
    n = spec.n
    blocks = wedderburn_blocks(spec)
    return {
        "n_classes": len(blocks),
        "blocks": [
            {
                "signature": render_mask(b.signature, n),
                "size": b.size,
                "rows": [render_mask(r, n) for r in b.rows],
            }
            for b in blocks
        ],
        "verdicts": verdicts(spec),
    }
