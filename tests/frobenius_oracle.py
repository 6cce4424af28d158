"""Reference Frobenius checks and monomial expansions for the tests.

`frobenius_hom_check` and `kernel_check` are the exhaustive loops that
the two checks ran before they learned the weight rule and became one
pass, `qgroup.frobenius_checks`: every weight-matched pair and triple is
multiplied out in full, whatever its weight, and only then sent through
`frobenius`.  Kept here unchanged as the independent oracle for the pairs
and triples that the fast pass decides without multiplying, and for the
products it forms once and reuses.

`_frobenius_of_product(x, y)` is Fr(x·y) formed from only the words that
Fr keeps, through `qgroup._product` at the modulus p, as the two checks
formed it product by product; it is the reference of that modulus.

`oracle_monomials` is the Laurent-polynomial normal form of ϑ^b θ^a 1_n
over the monomials θ^i ϑ^j 1_n, which the product oracle once compared
in; it is the slow oracle of the packed divided normal forms
`qgroup._PackedRing.divided`, whose coefficients are its own times
[i]!·[j]!/([a]!·[b]!).

`ef_basis_product_agrees` is the product oracle before it read FE-shaped
products through ω: both sides of w1·w2 over E^(i)F^(j)1_{n2}, each FE
word of `udot_mult`'s product brought to that basis by its packed normal
form.  It is the slow oracle of `qgroup.oracle_product_agrees`.

`_word_mult` is the product before FE-first words went through ω: the
divided-power product written out once per pair of shapes, with
`_push_canonical` normalizing both shapes.  `four_case_udot_mult` and
`four_case_frobenius_of_product` run it as `qgroup.udot_mult` and
`_frobenius_of_product` did; it is their reference.
"""

from qfrob import qgroup
from qfrob.cyclotomic import LaurentPoly, qint
from qfrob.qgroup import (
    CBWord,
    CoeffRing,
    UdotElem,
    _canonical,
    _commute,
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


def ef_basis_product_agrees(w1, w2, packed_ring=qgroup._PackedRing) -> bool:
    """Whether udot_mult matches the divided expansion of w1·w2, every
    word of the product expanded over the EF divided basis at weight n2;
    a word with a > a1+a2 or b > b1+b2 raises."""

    def product(ring):
        return qgroup.udot_mult(
            UdotElem(ring, {w1: ring.one()}), UdotElem(ring, {w2: ring.one()})
        )

    if w1.n != w2.left_weight():
        return product(packed_ring(qgroup._START_WIDTH)).is_zero()
    A, B = w1.a + w2.a, w1.b + w2.b

    def right(ring):
        out = {}
        for w, coeff in product(ring).terms.items():
            if w.a > A or w.b > B:
                raise ValueError(f"word {w} lies outside a ≤ {A}, b ≤ {B}")
            for key, c in qgroup._packed_expansion(w, ring).items():
                t = qgroup._pmul(coeff, c)
                out[key] = qgroup._padd(out[key], t, ring.K) if key in out else t
        return out

    return qgroup._divided_agree(
        lambda ring: qgroup._divided_product(w1, w2, ring), [right], packed_ring
    )


def _lands_canonical(shape, a, b, n) -> bool:
    """Whether the word is canonical as it stands, the tie n = b − a
    included (it is stored in EF shape)."""
    return n <= b - a if shape == "EF" else n >= b - a


def _push_canonical(ring, shape, a, b, n, coeff, acc, mod=None):
    """Normalize one (possibly non-canonical) word into the accumulator;
    a zero coefficient is dropped before it is multiplied or commuted.

    With a modulus p the caller has made sure that p divides a − b, and
    a as well when the word is canonical; a non-canonical word then
    commutes only at j ≡ a (mod p), to the words whose a and b p divides.
    """
    if not coeff:
        return
    if _lands_canonical(shape, a, b, n):
        w = _canonical(a, b, n)
        acc[w] = acc[w] + coeff if w in acc else coeff
        return
    # EF with n > b−a commutes to FE words, FE with n < b−a to EF words;
    # every word it yields is canonical
    top = a - b + n if shape == "EF" else b - a - n
    start, step = (a % mod, mod) if mod else (0, 1)
    for a2, b2, c in _commute(ring, a, b, top, start, step):
        w2 = _canonical(a2, b2, n)
        cc = coeff * c
        acc[w2] = acc[w2] + cc if w2 in acc else cc


def _word_mult(ring, w1: CBWord, w2: CBWord, acc, scale, mod=None):
    """Accumulate w1·w2 into acc (canonical words → coefficients).

    Each case commutes a middle pair at some j and pushes the w1-shaped
    word (a1 + a2 − j, b1 + b2 − j) at weight n2.  With a modulus p only
    the canonical words whose a and b p divides are accumulated, the
    only words Fr keeps: nothing unless p divides a1 − b1 + a2 − b2, and
    when the pushed words are canonical already, only j ≡ a1 + a2
    (mod p), before any coefficient is multiplied.
    """
    if w1.n != w2.left_weight():
        return
    a1, b1, n1 = w1.a, w1.b, w1.n
    a2, b2, n2 = w2.a, w2.b, w2.n
    start, step = 0, 1
    if mod:
        if (a1 - b1 + a2 - b2) % mod:
            return
        if _lands_canonical(w1.shape, a1 + a2, b1 + b2, n2):
            start, step = (a1 + a2) % mod, mod
    if w1.shape == "EF" and w2.shape == "EF":
        # middle F^{(b1)} E^{(a2)} at weight n2 − 2 b2
        top = b1 - a2 - n2 + 2 * b2
        for ai, bi, c in _commute(ring, a2, b1, top, start, step):
            coeff = (
                scale
                * c
                * ring.binom(a1 + ai, a1)
                * ring.binom(bi + b2, b2)
            )
            _push_canonical(ring, "EF", a1 + ai, bi + b2, n2, coeff, acc, mod)
    elif w1.shape == "EF" and w2.shape == "FE":
        B = b1 + b2
        merge_f = ring.binom(B, b1)
        for ai, bi, c in _commute(ring, a2, B, B - a2 - n2, start, step):
            coeff = scale * merge_f * c * ring.binom(a1 + ai, a1)
            _push_canonical(ring, "EF", a1 + ai, bi, n2, coeff, acc, mod)
    elif w1.shape == "FE" and w2.shape == "EF":
        A = a1 + a2
        merge_e = ring.binom(A, a1)
        for ai, bi, c in _commute(ring, A, b2, A - b2 + n2, start, step):
            coeff = scale * merge_e * c * ring.binom(b1 + bi, b1)
            _push_canonical(ring, "FE", ai, b1 + bi, n2, coeff, acc, mod)
    else:
        # middle E^{(a1)} F^{(b2)} at weight n2 + 2 a2
        top = a1 - b2 + n2 + 2 * a2
        for ai, bi, c in _commute(ring, a1, b2, top, start, step):
            coeff = (
                scale
                * c
                * ring.binom(b1 + bi, b1)
                * ring.binom(ai + a2, a2)
            )
            _push_canonical(ring, "FE", ai + a2, b1 + bi, n2, coeff, acc, mod)


def _product(x, y, mod):
    acc = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            _word_mult(x.ring, w1, w2, acc, c1 * c2, mod)
    return UdotElem(x.ring, acc)


def _frobenius_of_product(x: UdotElem, y: UdotElem) -> UdotElem:
    """Fr(x·y) for O_p elements, built from only the words of x·y whose a
    and b p divides: equal to frobenius(udot_mult(x, y)), since Fr drops
    every other word."""
    return frobenius(qgroup._product(x, y, x.ring.p))


def four_case_udot_mult(x, y):
    return _product(x, y, None)


def four_case_frobenius_of_product(x, y):
    return frobenius(_product(x, y, x.ring.p))
