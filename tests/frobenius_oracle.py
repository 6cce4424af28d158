"""Reference homomorphism and kernel checks for the tests.

The exhaustive loops that `qgroup.frobenius_hom_check` and
`qgroup.kernel_check` ran before they learned the weight rule: every
weight-matched pair and triple is multiplied out in full, whatever its
weight, and only then sent through `frobenius`.  Kept here unchanged as
the independent oracle for the pairs and triples that the fast checks
decide without multiplying.
"""

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
                u = UdotElem(ring, {_canonical("EF", 1, 0, m): ring.one()})
                top = m + 2
            else:
                u = UdotElem(ring, {_canonical("EF", 0, 1, m): ring.one()})
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
