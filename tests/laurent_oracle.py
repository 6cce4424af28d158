"""Reference product of Laurent polynomials for the tests.

The schoolbook convolution over the coefficient dicts, which
`LaurentPoly.__mul__` used before it accumulated densely; kept here
unchanged as the independent oracle for the dense product.
"""

from qfrob.cyclotomic import LaurentPoly


def schoolbook_mul(a: LaurentPoly, b) -> LaurentPoly:
    if isinstance(b, int):
        return LaurentPoly({e: c * b for e, c in a.coeffs.items()})
    out: dict[int, int] = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return LaurentPoly(out)
