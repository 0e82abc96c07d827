"""Terwilliger algebras of factorial association schemes over prime fields.

The package computes, in exact arithmetic, the Terwilliger algebra of a
direct product of trivial association schemes with respect to any base
point, together with its center, Jacobson radical, semisimple quotient
and Wedderburn decomposition.  Everything is driven by closed-form
structure constants on a distinguished basis indexed by triples of
subsets of the coordinate axes; a dense matrix oracle provides an
independent cross-check.
"""

from . import oracle
from .algebra import Element, basis_triples
from .quotient import wedderburn_summary
from .radical import radical_summary
from .scheme import SchemeSpec, render_mask

__all__ = [
    "Element",
    "SchemeSpec",
    "basis_triples",
    "oracle",
    "radical_summary",
    "render_mask",
    "wedderburn_summary",
]
