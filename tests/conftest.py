"""A fixture that breaks the product law verify evaluates over columns at one pair."""

import numpy as np
import pytest

from terwilliger import verify


@pytest.fixture
def break_law(monkeypatch):
    """break_law(bad, wrong) makes verify's column law give wrong(spec, hit) at the one
    pair bad = (t1, t2), where hit is the law's own answer there, None for a zero product.
    wrong returns an int coefficient and a triple; every other pair is left alone.  By
    default the coefficient is one larger, or 1 at t1 where the product is zero."""

    def install(bad, wrong=None):
        law = verify._mul_columns
        if wrong is None:
            def wrong(spec, hit):
                return (1, bad[0]) if hit is None else (spec.field.add(hit[0], 1), hit[1])

        def broken(spec, t1, t2):
            coeffs, product = law(spec, t1, t2)
            cols = np.broadcast_arrays(coeffs, *t1, *t2, *product)
            coeffs, product = cols[0].copy(), [col.copy() for col in cols[7:]]
            at = np.logical_and.reduce([col == m for col, m in zip(cols[1:7], (*bad[0], *bad[1]))])
            for k in zip(*np.nonzero(at)):
                c = int(coeffs[k])
                coeffs[k], t = wrong(spec, None if c == 0 else (c, tuple(int(col[k]) for col in product)))
                for col, m in zip(product, t):
                    col[k] = m
            return coeffs, tuple(product)

        monkeypatch.setattr(verify, "_mul_columns", broken)

    return install
