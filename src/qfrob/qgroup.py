"""The idempotented quantum group for sl2 over Z[v^{±1}], its base changes
to O_p, Lusztig's canonical basis, and the quantum Frobenius map.

Udot is generated by orthogonal idempotents 1_n (n in the weight lattice),
a raiser θ and a lowerer ϑ with θϑ1_n − ϑθ1_n = [n]·1_n, θ1_n = 1_{n+2}θ.
The integral form is spanned by divided powers θ^{(a)}1_n = θ^a 1_n/[a]!.
The canonical basis consists of E^{(a)}F^{(b)}1_n for n ≤ b−a and
F^{(b)}E^{(a)}1_n for n ≥ b−a, the two identified at n = b−a (stored here
in EF shape so equality is syntactic).

Multiplication rewrites words to canonical form using divided-power
merging E^{(a)}E^{(b)} = [a+b, a]·E^{(a+b)} and the commutation

    E^{(A)} F^{(B)} 1_n = Σ_j [A−B+n, j] · F^{(B−j)} E^{(A−j)} 1_n,

[m, j] the Gaussian binomial extended to integer m.  ω (E ↔ F, 1_n ↦
1_{−n}, v fixed; Lusztig §3.1.3) fixes every binomial, so `_word_mult`
reads an FE-first product as an EF-first one mirrored.  The formula is
not an axiom: this module also contains a rational-field oracle that
uses only the defining relations.
`oracle_box_check`, part of verify-frobenius, compares every product of a
box of canonical words with it, and the test suite also compares the
formula itself (`commutation_formula_agrees`).
It compares w1·w2 in the divided basis E^{(i)}F^{(j)}1_n of Udot over
Q(v) (Lusztig, §23), whose elements its EF words are; ω makes an FE
product EF.  The left side brings F^{(b)}E^{(a)}1_n to the basis from
the defining commutator.

The oracle compares coefficients by Kronecker substitution v ↦ 2^K:
each Laurent polynomial f on either side is held as (P, lo, bound) with
P·2^{K·lo} = f(2^K) and bound ≥ ‖f‖₁, products and sums act on these
integers, and nothing is unpacked.  f ↦ f(2^K) is a ring homomorphism, so
unequal values prove unequal polynomials; equal values prove L = R only
when bound(L) + bound(R) < 2^{K−1}, since then every coefficient of L − R
lies below 2^{K−1} in absolute value, where the substitution is
injective.  A comparison that misses the bound is redone at the least
width 32·2^m that fits it (packed normal forms are kept per width), so no
fixed width can alias.  `udot_mult`, the code under test, runs unchanged
over the packed ring, Z[v^{±1}] through v ↦ 2^K with the generic
binomials packed: `_word_mult` uses only sums, products and binomials,
and the substitution is a ring homomorphism, so the run yields exactly
the image of each generic coefficient, with a true ℓ1 bound, and the
comparison reads it as it comes.  A packed coefficient counts as zero
only when P = 0 and bound < 2^{K−1}; one that aliases to 0 stays a word
of value 0, which can only widen the comparison.

The homomorphism and kernel checks multiply only where Fr can see the
result, and Fr keeps a word only when p divides its a, b and n.  Every
word of x·y and of z·u·z' has the weight n of the right factor, so a
pair or triple with p ∤ n is counted and decided as 0 = 0 unmultiplied.
Commutation lowers a and b together and a divided-power merge adds
them, so every word of x·y has a − b = (a1 − b1) + (a2 − b2) (and
z·u·z' that sum ± 1 for u = E, F): a pair or triple with p ∤ (a − b) is
decided the same way.  The products that remain are read only through
Fr, so `frobenius_checks` forms each Fr(w1·w) once, by the same
`_word_mult` with the modulus p: it pushes a canonical word only when p
divides its a and b, and commutes the others only at j ≡ a (mod p).
`udot_mult` always forms the full product.

Coefficient rings are selected by a tag: "generic" keeps Z[v^{±1}]
structure constants, "op" evaluates them in O_p through v ↦ q, and "rho"
through v ↦ q^p (v ↦ 1 for p = 2).  The quantum Frobenius map sends
E^{(a)}F^{(b)}1_n over O_p to E^{(a/p)}F^{(b/p)}1_{n/p} over the rho ring
when p divides a, b and n, and to zero otherwise; its section multiplies
all parameters by p, and `frobenius_section_check` checks that Fr undoes it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

from .cyclotomic import (
    CycElem,
    LaurentPoly,
    is_prime,
    qbinom,
    qbinom_int,
    qfact,
    qint,
    rho,
    to_op,
)
from .pcomplex import INF
from .symfunc import twist_stats

__all__ = [
    "CoeffRing",
    "CBWord",
    "UdotElem",
    "udot_mult",
    "frobenius",
    "frobenius_section",
    "frobenius_section_check",
    "canonical_words",
    "frobenius_checks",
    "oracle_box_check",
    "k0_symbol_check",
    "oracle_product_agrees",
    "commutation_formula_agrees",
]


@dataclass(frozen=True)
class CoeffRing:
    """Structure-constant evaluation: generic Z[v^{±1}], O_p, or rho-O_p."""

    tag: str
    p: int | None = None

    def __post_init__(self):
        if self.tag not in ("generic", "op", "rho"):
            raise ValueError(f"unknown ring tag {self.tag!r}")
        if self.tag != "generic" and (self.p is None or not is_prime(self.p)):
            raise ValueError("op/rho rings need a prime p")

    def of(self, f: LaurentPoly):
        if self.tag == "generic":
            return f
        if self.tag == "op":
            return to_op(f, self.p)
        return rho(f, self.p)

    def one(self):
        return _ring_binom(self.tag, self.p, 0, 0)

    def binom(self, m: int, k: int):
        return _ring_binom(self.tag, self.p, m, k)


@functools.cache
def _ring(tag, p=None) -> CoeffRing:
    """CoeffRing(tag, p), built once per (tag, p); a refused p raises on
    every call, since the cache keeps no exception."""
    return CoeffRing(tag, p)


@functools.cache
def _ring_binom(tag, p, m, k):
    return _ring(tag, p).of(qbinom_int(m, k))


# --------------------------------------------------------------------------
# canonical basis words
# --------------------------------------------------------------------------


class CBWord(NamedTuple):
    """shape "EF" is E^{(a)}F^{(b)}1_n, "FE" is F^{(b)}E^{(a)}1_n."""

    shape: str
    a: int
    b: int
    n: int

    def is_canonical(self):
        if self.shape == "EF":
            return self.n <= self.b - self.a
        return self.n > self.b - self.a

    def left_weight(self):
        return self.n + 2 * (self.a - self.b)

    def __str__(self):
        if self.shape == "EF":
            return f"E({self.a})F({self.b})1[{self.n}]"
        return f"F({self.b})E({self.a})1[{self.n}]"


def _canonical(a, b, n) -> CBWord:
    """Storage form: ties at n = b − a use the EF shape."""
    if n <= b - a:
        return CBWord("EF", a, b, n)
    return CBWord("FE", a, b, n)


def _mirrored(a, b, n) -> CBWord:
    """ω(E^{(a)}F^{(b)}1_n) = F^{(a)}E^{(b)}1_{−n} as a stored word."""
    return _canonical(b, a, -n)


def _omega(w: CBWord) -> CBWord:
    """ω(w): E ↔ F, 1_n ↦ 1_{−n} and v fixed, an algebra automorphism
    (Lusztig, §3.1.3)."""
    return _mirrored(w.a, w.b, w.n)


class UdotElem:
    """Finite combination of canonical basis words with tagged coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: CoeffRing, terms=None):
        self.ring = ring
        clean = {}
        for w, c in (terms or {}).items():
            if not c:
                continue
            if not w.is_canonical():
                raise ValueError(f"non-canonical word {w}")
            clean[w] = c
        self.terms = clean

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, UdotElem):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __add__(self, other):
        if self.ring != other.ring:
            raise ValueError("ring tag mismatch")
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out[w] + c if w in out else c
        return UdotElem(self.ring, out)

    def __sub__(self, other):
        neg = UdotElem(other.ring, {w: c * (-1) for w, c in other.terms.items()})
        return self + neg

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda w: (w.shape, w.a, w.b, w.n))
        return " + ".join(f"({self.terms[w]})*{w}" for w in keys)

    __repr__ = __str__


def _commute(ring, A, B, top, start=0, step=1):
    """(A−j, B−j, [top, j]) for j = start, start + step, … ≤ min(A, B)
    with a nonzero binomial: the terms of E^{(A)}F^{(B)}1_n as F-first
    words when top = A−B+n (a push), and of its ω-mirror F^{(B)}E^{(A)}1_n
    as E-first words when top = B−A−n (the middle pair of a product)."""
    out = []
    for j in range(start, min(A, B) + 1, step):
        c = ring.binom(top, j)
        if c:
            out.append((A - j, B - j, c))
    return out


def _push_canonical(ring, a, b, n, coeff, acc, mod, word):
    """Accumulate coeff·E^{(a)}F^{(b)}1_n, commuted to F-first words when
    n > b − a, each word keyed as word(a, b, n); a zero coefficient is
    dropped before it is multiplied or commuted.

    With a modulus p the caller has made sure that p divides a − b, and
    a as well when the word is canonical; a non-canonical word then
    commutes only at j ≡ a (mod p), to the words whose a and b p divides.
    """
    if not coeff:
        return
    if n <= b - a:
        w = word(a, b, n)
        acc[w] = acc[w] + coeff if w in acc else coeff
        return
    start, step = (a % mod, mod) if mod else (0, 1)
    for a2, b2, c in _commute(ring, a, b, a - b + n, start, step):
        w2 = word(a2, b2, n)
        cc = coeff * c
        acc[w2] = acc[w2] + cc if w2 in acc else cc


def _word_mult(ring, w1: CBWord, w2: CBWord, acc, scale, mod=None):
    """Accumulate w1·w2 into acc (canonical words → coefficients).

    One rule: E^{(a1)}F^{(b1)}·E^{(a2)}F^{(b2)}1_{n2} commutes its middle
    F^{(b1)}E^{(a2)} at each j and pushes E^{(a1+a2−j)}F^{(b1+b2−j)}1_{n2}.
    An FE-first w1 is read through ω, which fixes every binomial: a and b
    swap in both factors, n2 ↦ −n2, and each word is keyed back by
    `_mirrored`.  A w2 stored in the other shape than w1 (a tie is EF,
    whatever ω makes of it) reads as F^{(b2)}E^{(a2)}, and its F^{(b2)}
    merges into F^{(b1)} first: [b1+b2, b1], and b1, b2 = b1+b2, 0.
    With a modulus p only the canonical words whose a and b p divides
    are accumulated, the only words Fr keeps: nothing unless p divides
    a1 − b1 + a2 − b2, and when the pushed words are canonical already,
    only j ≡ a1 + a2 (mod p), before any coefficient is multiplied.
    """
    if w1.n != w2.left_weight():
        return
    a1, b1, a2, b2, n2, word = w1.a, w1.b, w2.a, w2.b, w2.n, _canonical
    if w1.shape == "FE":
        a1, b1, a2, b2, n2, word = b1, a1, b2, a2, -n2, _mirrored
    start, step = 0, 1
    if mod:
        if (a1 - b1 + a2 - b2) % mod:
            return
        if n2 <= b1 + b2 - a1 - a2:
            # ≡ b1 + b2 as well, since p divides a − b
            start, step = (a1 + a2) % mod, mod
    if w2.shape != w1.shape:
        scale = scale * ring.binom(b1 + b2, b1)
        b1, b2 = b1 + b2, 0
    # middle F^{(b1)} E^{(a2)} at weight n2 − 2 b2
    top = b1 - a2 - n2 + 2 * b2
    for ai, bi, c in _commute(ring, a2, b1, top, start, step):
        coeff = scale * c * ring.binom(a1 + ai, a1) * ring.binom(bi + b2, b2)
        _push_canonical(ring, a1 + ai, bi + b2, n2, coeff, acc, mod, word)


def _product(x: UdotElem, y: UdotElem, mod) -> UdotElem:
    """x·y, or with a modulus p only its words whose a and b p divides."""
    if x.ring != y.ring:
        raise ValueError("ring tag mismatch")
    acc: dict[CBWord, object] = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            _word_mult(x.ring, w1, w2, acc, c1 * c2, mod)
    return UdotElem(x.ring, acc)


def udot_mult(x: UdotElem, y: UdotElem) -> UdotElem:
    return _product(x, y, None)


# --------------------------------------------------------------------------
# quantum Frobenius and its section
# --------------------------------------------------------------------------


def frobenius(x: UdotElem) -> UdotElem:
    """Fr: the O_p form to the rho form; a word survives iff p divides its
    divided powers and its weight, with all parameters contracted by p."""
    if x.ring.tag != "op":
        raise ValueError("frobenius expects an O_p element")
    p = x.ring.p
    ring = _ring("rho", p)
    out: dict[CBWord, object] = {}
    for w, c in x.terms.items():
        if w.a % p or w.b % p or w.n % p:
            continue
        w2 = _canonical(w.a // p, w.b // p, w.n // p)
        out[w2] = out[w2] + c if w2 in out else c
    return UdotElem(ring, out)


def frobenius_section(x: UdotElem) -> UdotElem:
    """Canonical-basis-wise section: all parameters dilated by p."""
    if x.ring.tag != "rho":
        raise ValueError("the section expects a rho-form element")
    p = x.ring.p
    ring = _ring("op", p)
    out: dict[CBWord, object] = {}
    for w, c in x.terms.items():
        w2 = _canonical(w.a * p, w.b * p, w.n * p)
        out[w2] = out[w2] + c if w2 in out else c
    return UdotElem(ring, out)


def frobenius_section_check(p: int) -> bool:
    """Whether Fr ∘ section is the identity on every rho-form canonical
    word with a, b ≤ 3 and |n| ≤ 6."""
    ring = _ring("rho", p)
    for w in canonical_words(3, 3, -6, 6):
        e = UdotElem(ring, {w: ring.one()})
        if frobenius(frobenius_section(e)) != e:
            return False
    return True


def canonical_words(amax: int, bmax: int, nmin: int, nmax: int):
    out = []
    for a in range(amax + 1):
        for b in range(bmax + 1):
            for n in range(nmin, nmax + 1):
                out.append(_canonical(a, b, n))
    return out


def frobenius_checks(p: int, amax: int, nmax: int) -> tuple[dict, dict]:
    """(hom, ker) over the canonical words with a, b ≤ amax, |n| ≤ nmax,
    exact in O_p arithmetic: hom decides Fr(x·y) = Fr(x)·Fr(y) for each
    pair, ker Fr(z·u·z') = 0 for each triple, u ∈ {E·1_m, F·1_m}.

    Only weight-matched pairs and triples are counted; the others multiply
    to zero on both sides.  One whose right factor has a weight n, or
    whose words have an a − b ((a1 − b1) + (a2 − b2), ± 1 for u = E, F),
    that p does not divide is decided as 0 = 0 unmultiplied (see the
    module docstring).  The others are read off one row per left word
    w1 = x = z: Fr(w1·w) for each w that such a pair or a word of such a
    u·z' puts right of w1, each formed once, by `_word_mult` at the
    modulus p with unit scale, and contracted by p.  Fr is linear, so
    Fr(z·u·z') = Σ c·Fr(z·w) over the terms c·w of u·z', which is formed
    once per (z', u).  The row is dropped before the next w1, and the
    kernel's failures are reported in (z', u, z) order.
    """
    ring = _ring("op", p)
    one = ring.one()
    words = canonical_words(amax, amax, -nmax, nmax)
    by_left: dict[int, list] = {}
    visible: dict[tuple, list] = {}  # (left weight, (a − b) mod p), p | n
    for w in words:
        by_left.setdefault(w.left_weight(), []).append(w)
        if not w.n % p:
            visible.setdefault((w.left_weight(), (w.a - w.b) % p), []).append(w)
    uzs: dict[tuple, tuple] = {}  # (z', u) -> the terms of u·z', formed once

    def fr_product(w1, w):
        acc: dict[CBWord, object] = {}
        _word_mult(ring, w1, w, acc, one, p)
        return frobenius(UdotElem(ring, acc))

    pairs = triples = 0
    hom_failures, ker_failures = [], []
    for w1 in words:
        pairs += len(by_left.get(w1.n, ()))
        triples += len(by_left.get(w1.n - 2, ())) + len(by_left.get(w1.n + 2, ()))
        d1 = w1.a - w1.b
        row = {w2: fr_product(w1, w2) for w2 in visible.get((w1.n, -d1 % p), ())}
        fx = frobenius(UdotElem(ring, {w1: one}))
        for w2, lhs in row.items():
            # Fr(x)·Fr(y) is 0 when Fr(x) is
            rhs = udot_mult(fx, frobenius(UdotElem(ring, {w2: one}))) if fx.terms else fx
            if lhs != rhs:
                hom_failures.append((str(w1), str(w2), str(lhs), str(rhs)))
        for kind, u, d in (("E", (1, 0), 1), ("F", (0, 1), -1)):
            m = w1.n - 2 * d
            for w2 in visible.get((m, -(d1 + d) % p), ()):
                uz = uzs.get((w2, kind))
                if uz is None:
                    x, y = UdotElem(ring, {_canonical(*u, m): one}), UdotElem(ring, {w2: one})
                    uz = uzs[w2, kind] = tuple(udot_mult(x, y).terms.items())
                img: dict[CBWord, object] = {}
                for w, c in uz:
                    if w not in row:
                        row[w] = fr_product(w1, w)
                    for v, f in row[w].terms.items():
                        img[v] = img[v] + c * f if v in img else c * f
                if any(img.values()):
                    fail = (str(w1), kind, str(w2), str(UdotElem(_ring("rho", p), img)))
                    # canonical_words lists the words in (a, b, n) order
                    key = ((w2.a, w2.b, w2.n), kind, (w1.a, w1.b, w1.n))
                    ker_failures.append((key, fail))
    report = {"p": p, "amax": amax, "nmax": nmax}
    hom = {**report, "pairs": pairs, "ok": not hom_failures, "failures": hom_failures[:3]}
    ker_failures.sort()
    ker = {**report, "triples": triples, "ok": not ker_failures}
    ker["failures"] = [fail for _, fail in ker_failures[:3]]
    return hom, ker


@functools.cache
def oracle_box_check(amax: int, nmax: int) -> tuple[int, bool]:
    """(pairs, ok): whether `oracle_product_agrees` holds for every
    weight-matched pair of canonical words with a, b ≤ amax, |n| ≤ nmax,
    stopping at the first disagreement (pairs then counts the pairs
    decided up to it, a pair and its ω-mirror together).

    ω maps the box onto itself and a strictly EF pair (n2 < B − A) to a
    strictly FE one, whose left side `oracle_product_agrees` forms as
    ω(ω(w1))·ω(ω(w2)) = w1·w2.  So a strictly EF pair compares one left
    side against w1·w2 and against ω(w1)·ω(w2), read mirrored; a strictly
    FE pair is counted and decided through its mirror, and a tie alone.

    The oracle works over Z[v^{±1}] and does not depend on p, so the
    decision is made once per process for each box.  All pairs share one
    packed ring per width, and with it its packed binomials.
    """
    words = canonical_words(amax, amax, -nmax, nmax)
    by_left: dict[int, list] = {}
    for w in words:
        by_left.setdefault(w.left_weight(), []).append(w)
    packed_ring = functools.cache(_PackedRing)
    pairs = 0
    for w1 in words:
        for w2 in by_left.get(w1.n, []):
            gap = w1.b + w2.b - w1.a - w2.a - w2.n  # B − A − n2
            if gap < 0:
                continue
            if gap == 0:
                pairs += 1
                agrees = oracle_product_agrees(w1, w2, packed_ring)
            else:
                pairs += 2
                left = functools.partial(_divided_product, w1, w2)
                rights = [
                    functools.partial(_read_product, w1, w2),
                    functools.partial(_read_product, _omega(w1), _omega(w2)),
                ]
                agrees = _divided_agree(left, rights, packed_ring)
            if not agrees:
                return pairs, False
    return pairs, True


def k0_symbol_check(a: int, b: int, p: int) -> bool:
    """q^{−abp²} times the graded character of H_/(V_{a,b}) equals the
    ordinary binomial C(a+b, a) in O_p.

    The classes live inside the rank-one block module whose generator sits
    in degree −(ap)(bp), so the character is taken in that grading; the
    composite then decategorifies the product-of-symbols identity with
    coefficient q^{−abp²}·C(a+b, a).  (Since q^{2abp²} = 1, this is also
    the statement that the plainly graded character is the integer
    C(a+b, a).)
    """
    sl = twist_stats(b * p, 0, p, INF, cols=a * p).slash()
    shift = a * b * p * p
    char = CycElem.zero(p)
    for d, m in sl.total_dims().items():
        char = char + CycElem.q_power(p, d - shift, m)
    result = char * CycElem.q_power(p, -shift)
    return result == CycElem.from_int(p, comb(a + b, a))


# --------------------------------------------------------------------------
# the rational-field oracle
# --------------------------------------------------------------------------


@functools.cache
def _move_v_past_powers(i: int, n: int):
    """ϑ θ^i 1_n = θ^i ϑ 1_n + c·θ^{i−1} 1_n with c ∈ Z[v^{±1}], from the
    defining commutator only."""
    if i == 0:
        return LaurentPoly.zero()
    # ϑθ^i = (θϑ − [n+2(i−1)])θ^{i−1} applied on 1_n
    c_prev = _move_v_past_powers(i - 1, n)
    return c_prev - qint(n + 2 * (i - 1))


def _divided_chain(a: int, n: int):
    """Yield F^{(s)}E^{(a)}1_n for s = 0, 1, … as {(i, j): coefficient}
    over the divided basis E^{(i)}F^{(j)}1_n, one F at a time by the
    defining commutator: with μ = `_move_v_past_powers`,

        F·E^{(i)}F^{(j)}1_n = [j+1]·E^{(i)}F^{(j+1)}1_n
                              + (μ(i, n − 2j)/[i])·E^{(i−1)}F^{(j)}1_n,

    and F^{(s)} = F·F^{(s−1)}/[s].  Both divisions are exact, since the
    E^{(i)}F^{(j)}1_n span the integral form, and `divexact` raises on one
    that is not, so a wrong μ fails the oracle.  Between steps only the
    last form is held."""
    form = {(a, 0): LaurentPoly.one()}
    for s in itertools.count(1):
        yield form
        step: dict[tuple, LaurentPoly] = {}
        for (i, j), c in form.items():
            terms = [((i, j + 1), c * qint(j + 1))]
            mu = _move_v_past_powers(i, n - 2 * j)
            if mu:
                terms.append(((i - 1, j), c * mu.divexact(qint(i))))
            for key, t in terms:
                step[key] = step[key] + t if key in step else t
        form = {key: c.divexact(qint(s)) for key, c in step.items() if c}


# Packed view: at width K a Laurent polynomial f is the triple
# (P, lo, bound) with P·2^{K·lo} = f(2^K) and bound ≥ ‖f‖₁; see
# `_packed_agree` for why comparisons on it are exact.
_ZERO = (0, 0, 0)
_ONE = (1, 0, 1)
_START_WIDTH = 32


def _pack(f: LaurentPoly, K: int) -> tuple:
    c = f.coeffs
    if not c:
        return _ZERO
    lo = min(c)
    P = sum(x << (K * (e - lo)) for e, x in c.items())
    return P, lo, sum(map(abs, c.values()))


def _pmul(x, y):
    return x[0] * y[0], x[1] + y[1], x[2] * y[2]


def _padd(x, y, K):
    if x[1] > y[1]:
        x, y = y, x
    return x[0] + (y[0] << (K * (y[1] - x[1]))), x[1], x[2] + y[2]


def _packed_zero(x, K) -> bool:
    """Whether the packed x is certainly 0: P = 0 and bound < 2^{K−1}.  A
    nonzero f whose coefficients all lie below 2^{K−1} in absolute value
    has f(2^K) ≠ 0, so P = 0 with a larger bound decides nothing."""
    return not x[0] and x[2] < 1 << (K - 1)


class _Packed(tuple):
    """A packed triple as an element of a `_PackedRing`: `*` is `_pmul`,
    `+` is `_padd` at the ring's width K (the class attribute K of the
    ring's subclass), and the element is false only when it is certainly
    0."""

    __slots__ = ()

    def __mul__(self, other):
        return self.__class__(_pmul(self, other))

    def __add__(self, other):
        return self.__class__(_padd(self, other, self.K))

    def __bool__(self):
        return not _packed_zero(self, self.K)


class _PackedRing:
    """Z[v^{±1}] through v ↦ 2^K, as a coefficient ring for `udot_mult`.

    Its elements are `_Packed` triples of width K, and `binom(m, k)` packs
    the generic `_ring_binom`, once per ring.  f ↦ f(2^K) is a ring
    homomorphism and `_word_mult` uses only sums, products and these
    binomials, so a product over this ring yields exactly the image of
    each generic coefficient, with a true ℓ1 bound.  A generic zero has
    P = 0; it is dropped unless its bound reaches 2^{K−1}, and then it
    stays as a word with value 0, which can only widen a comparison.
    Nothing outside the ring keeps its binomials, so a new ring reads
    `_ring_binom` afresh.  The ring also keeps the oracle's packed normal
    forms (`divided`), so a box builds each once per width.
    """

    def __init__(self, K: int):
        self.K = K
        self.elem = type("_Packed", (_Packed,), {"__slots__": (), "K": K})
        self._binoms: dict[tuple, _Packed] = {}
        self._chains: dict[tuple, tuple] = {}

    def one(self):
        return self.elem(_ONE)

    def binom(self, m: int, k: int):
        c = self._binoms.get((m, k))
        if c is None:
            c = self.elem(_pack(_ring_binom("generic", None, m, k), self.K))
            self._binoms[m, k] = c
        return c

    def divided(self, b: int, a: int, n: int) -> dict:
        """F^{(b)}E^{(a)}1_n packed: step b of `_divided_chain(a, n)`,
        which runs once per ring, as far as it is read."""
        chain = self._chains.get((a, n))
        if chain is None:
            chain = self._chains[a, n] = _divided_chain(a, n), []
        steps, forms = chain
        while len(forms) <= b:
            forms.append({key: _pack(c, self.K) for key, c in next(steps).items()})
        return forms[b]


def _packed_agree(sides) -> bool:
    """Whether L = R for every pair (L, R) that `sides(K)` yields packed
    at width K.

    f ↦ f(2^K) is a ring homomorphism, so unequal packed values prove
    L ≠ R.  Equal values prove L = R only when bound(L) + bound(R) <
    2^{K−1}: every coefficient of L − R is then smaller than 2^{K−1} in
    absolute value, and on such polynomials f ↦ f(2^K) is injective.
    When an equal pair misses that bound, the whole comparison is redone
    at the least width 2^m·K that fits every such pair's bound.
    """
    K = _START_WIDTH
    while True:
        need = 0
        for (P, lo, b), (Q, mo, c) in sides(K):
            if lo > mo:
                P <<= K * (lo - mo)
            else:
                Q <<= K * (mo - lo)
            if P != Q:
                return False
            need = max(need, b + c)
        if need < 1 << (K - 1):
            return True
        while need >= 1 << (K - 1):
            K *= 2


@functools.cache
def _packed_merge(i: int, k: int, K: int) -> tuple:
    """[i+k, i] packed at width K, for E^{(i)}E^{(k)} = [i+k, i]·E^{(i+k)}
    and its F mirror: [i+k]!/([i]!·[k]!), not the binomials of udot_mult."""
    return _pack(qfact(i + k).divexact(qfact(i) * qfact(k)), K)


def _packed_expansion(w: CBWord, ring: _PackedRing) -> dict:
    """A word over the divided basis, packed in ring."""
    if w.shape == "EF":
        return {(w.a, w.b): _ONE}
    return ring.divided(w.b, w.a, w.n)


def _divided_agree(lhs, rhss, packed_ring=_PackedRing) -> bool:
    """Whether lhs(ring) = rhs(ring) for every rhs in rhss, dicts over the
    divided basis E^{(i)}F^{(j)}1_n packed in ring = packed_ring(K); the
    left side is formed once per width."""

    def sides(K):
        ring = packed_ring(K)
        left = lhs(ring)
        for rhs in rhss:
            right = rhs(ring)
            for key in left.keys() | right.keys():
                yield left.get(key, _ZERO), right.get(key, _ZERO)

    return _packed_agree(sides)


def _divided_product(w1: CBWord, w2: CBWord, ring: _PackedRing) -> dict:
    """w1·w2 over the divided basis, packed in ring (weights must match):
    each middle F^{(j1)}E^{(i2)}1_{n2−2j2} takes its normal form, and
    neighbouring divided powers merge."""
    out: dict[tuple, tuple] = {}
    K, n2 = ring.K, w2.n
    for (i1, j1), c1 in _packed_expansion(w1, ring).items():
        for (i2, j2), c2 in _packed_expansion(w2, ring).items():
            c12 = _pmul(c1, c2)
            for (k, l), c in ring.divided(j1, i2, n2 - 2 * j2).items():
                merge = _pmul(_packed_merge(i1, k, K), _packed_merge(l, j2, K))
                t = _pmul(_pmul(c12, c), merge)
                key = (i1 + k, l + j2)
                out[key] = _padd(out[key], t, K) if key in out else t
    return out


def _read_product(w1: CBWord, w2: CBWord, ring) -> dict:
    """udot_mult(w1, w2) over ring, weights matched, as the right side of
    `oracle_product_agrees` reads it over the divided basis."""
    A, B, n2 = w1.a + w2.a, w1.b + w2.b, w2.n
    ef = n2 <= B - A
    prod = udot_mult(UdotElem(ring, {w1: ring.one()}), UdotElem(ring, {w2: ring.one()}))
    out = {}
    for w, c in prod.terms.items():
        if w.n != n2 or w.a - w.b != A - B or w.a > A:
            raise ValueError(f"word {w} off n = {n2}, a − b = {A - B}, a ≤ {A}")
        out[(w.a, w.b) if ef else (w.b, w.a)] = c
    return out


def oracle_product_agrees(w1: CBWord, w2: CBWord, packed_ring=_PackedRing) -> bool:
    """Whether udot_mult over Z[v^{±1}] matches the rational-field
    expansion of w1·w2 (zero when weights mismatch) over the divided basis.

    Every word of w1·w2 has weight n2 and a − b = A − B (A = a1+a2,
    B = b1+b2), hence one shape: EF when n2 ≤ B − A, each word the basis
    element (a, b); FE otherwise, each word read through ω as (b, a) and
    the left side as ω(w1)·ω(w2).  So udot_mult's coefficients are compared
    as they come, and a word off that n2 or a − b, or with a > A, raises.
    udot_mult runs over `packed_ring(K)` (see `_PackedRing`);
    `oracle_box_check` passes a cached constructor, one ring per width."""
    if w1.n != w2.left_weight():
        ring = packed_ring(_START_WIDTH)
        x, y = UdotElem(ring, {w1: ring.one()}), UdotElem(ring, {w2: ring.one()})
        return udot_mult(x, y).is_zero()
    x, y = (w1, w2) if w2.n <= w1.b + w2.b - w1.a - w2.a else (_omega(w1), _omega(w2))
    left = functools.partial(_divided_product, x, y)
    return _divided_agree(left, [functools.partial(_read_product, w1, w2)], packed_ring)


def commutation_formula_agrees(A: int, B: int, n: int) -> bool:
    """Direct oracle validation of the divided-power commutation
    E^{(A)}F^{(B)}1_n = Σ_j [A−B+n, j]·F^{(B−j)}E^{(A−j)}1_n over Q(v),
    read through ω: the normal form of F^{(A)}E^{(B)}1_{−n} against the
    basis elements (B−j, A−j)."""
    terms = [(j, qbinom_int(A - B + n, j)) for j in range(min(A, B) + 1)]
    return _divided_agree(
        lambda ring: ring.divided(A, B, -n),
        [lambda ring: {(B - j, A - j): _pack(c, ring.K) for j, c in terms if c}],
    )
