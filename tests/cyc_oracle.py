"""Reference product in O_p for the tests.

The dict fold that `CycElem.__mul__` runs on every pair of operands
before it learned to scale by an operand c·1: every pair of nonzero
coefficients is multiplied, collected by q-exponent and reduced by
`CycElem.from_exponents`.  Kept here unchanged as the independent oracle
for the unit, scalar and zero fast paths.
"""

from qfrob.cyclotomic import CycElem


def fold_mul(x: CycElem, y) -> CycElem:
    if isinstance(y, int):
        return CycElem(x.p, tuple(a * y for a in x.coeffs))
    exps: dict[int, int] = {}
    for e1, c1 in enumerate(x.coeffs):
        if c1 == 0:
            continue
        for e2, c2 in enumerate(y.coeffs):
            if c2 == 0:
                continue
            e = e1 + e2
            exps[e] = exps.get(e, 0) + c1 * c2
    return CycElem.from_exponents(x.p, exps)
