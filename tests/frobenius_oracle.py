"""Reference Frobenius checks and monomial expansions for the tests.

The exhaustive loops that `qgroup.frobenius_hom_check` and
`qgroup.kernel_check` ran before they learned the weight rule: every
weight-matched pair and triple is multiplied out in full, whatever its
weight, and only then sent through `frobenius`.  Kept here unchanged as
the independent oracle for the pairs and triples that the fast checks
decide without multiplying.

`oracle_monomials` is the Laurent-polynomial normal form of ϑ^b θ^a 1_n
over the monomials θ^i ϑ^j 1_n, which the product oracle once compared
in; it is the slow oracle of the packed divided normal forms
`qgroup._PackedRing.divided`, whose coefficients are its own times
[i]!·[j]!/([a]!·[b]!).
"""

from qfrob.cyclotomic import LaurentPoly, qint
from qfrob.qgroup import (
    CoeffRing,
    UdotElem,
    _canonical,
    canonical_words,
    frobenius,
    udot_mult,
)


def frobenius_hom_check(p: int, amax: int, nmax: int) -> dict:
    ring = CoeffRing("op", p)
    words = canonical_words(amax, amax, -nmax, nmax)
    by_left: dict[int, list] = {}
    for w in words:
        by_left.setdefault(w.left_weight(), []).append(w)
    pairs = 0
    failures = []
    for w1 in words:
        x = UdotElem(ring, {w1: ring.one()})
        fx = frobenius(x)
        for w2 in by_left.get(w1.n, []):
            y = UdotElem(ring, {w2: ring.one()})
            pairs += 1
            lhs = frobenius(udot_mult(x, y))
            rhs = udot_mult(fx, frobenius(y))
            if lhs != rhs:
                failures.append((str(w1), str(w2), str(lhs), str(rhs)))
    return {
        "p": p,
        "amax": amax,
        "nmax": nmax,
        "pairs": pairs,
        "ok": not failures,
        "failures": failures[:3],
    }


def kernel_check(p: int, amax: int, nmax: int) -> dict:
    ring = CoeffRing("op", p)
    words = canonical_words(amax, amax, -nmax, nmax)
    by_n: dict[int, list] = {}
    for w in words:
        by_n.setdefault(w.n, []).append(w)
    triples = 0
    failures = []
    for w2 in words:
        z2 = UdotElem(ring, {w2: ring.one()})
        m = w2.left_weight()
        for kind in ("E", "F"):
            if kind == "E":
                u = UdotElem(ring, {_canonical(1, 0, m): ring.one()})
                top = m + 2
            else:
                u = UdotElem(ring, {_canonical(0, 1, m): ring.one()})
                top = m - 2
            uz = udot_mult(u, z2)
            for w1 in by_n.get(top, []):
                z1 = UdotElem(ring, {w1: ring.one()})
                triples += 1
                img = frobenius(udot_mult(z1, uz))
                if not img.is_zero():
                    failures.append((str(w1), kind, str(w2), str(img)))
    return {
        "p": p,
        "amax": amax,
        "nmax": nmax,
        "triples": triples,
        "ok": not failures,
        "failures": failures[:3],
    }


def oracle_monomials(b: int, a: int, n: int):
    """Normal form of ϑ^b θ^a 1_n as {(i, j): LaurentPoly} over the
    monomial basis θ^i ϑ^j 1_n, via the defining relations alone, one ϑ
    at a time from the left."""
    out: dict[tuple, LaurentPoly] = {(a, 0): LaurentPoly.one()}

    def add(key, poly):
        poly = out[key] + poly if key in out else poly
        if poly.is_zero():
            out.pop(key, None)
        else:
            out[key] = poly

    for _ in range(b):
        prev, out = out, {}
        for (i, j), c in prev.items():
            # multiply by ϑ on the left: ϑ θ^i ϑ^j 1_n; the idempotent to
            # the right of θ^i is 1_{n − 2j}, and by the defining
            # commutator ϑ θ^i 1_m = θ^i ϑ 1_m − Σ_{t<i} [m + 2t]·θ^{i−1} 1_m
            add((i, j + 1), c)
            m = n - 2 * j
            coeff = LaurentPoly.zero()
            for t in range(i):
                coeff = coeff - qint(m + 2 * t)
            if not coeff.is_zero():
                add((i - 1, j), c * coeff)
    return out
