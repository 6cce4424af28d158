"""Exact arithmetic in Z[v^{±1}] and in the quotient O_p = Z[v^{±1}]/(Psi_p(v^2)).

`LaurentPoly` is a one-variable integer Laurent polynomial stored sparsely
(exponent → nonzero coefficient); its product convolves densely over the
exponent span, which stays small here (a few hundred exponents at most),
and stores back only the nonzero entries.  When one operand is a monomial
c·v^e the product shifts the other by e and scales it by c instead.
Quantum integers [n] = (v^n − v^{−n})/(v − v^{−1}), quantum factorials and
Gaussian binomials live here.  `CycElem` is an element of O_p written on
the Z-basis {1, q, ..., q^(2p−3)}, where q is the image of v; in O_p one
has q^(2p) = 1, and q^(2p−2), q^(2p−1) are rewritten through
1 + q^2 + ... + q^(2(p−1)) = 0.  A product with an integer c·1 (most
structure constants at a root of unity are 0 or 1) scales the other
operand's coefficient vector, which stays canonical, and returns it as it
is when c = 1; only a product of two non-scalar elements folds exponents
and reduces.  An element is true when a coefficient is nonzero.

Base changes:
  * to_op:   v ↦ q                       (Z[v^{±1}] → O_p)
  * rho:     v ↦ q^p, and v ↦ 1 for p=2  (Z[v^{±1}] → O_p)
  * varrho:  O_p → Z[v]/(Psi_2p) or Z[v]/(Psi_p), the two cyclotomic factors
             of Psi_p(v^2) for odd p (q^p ↦ −1 resp. q^p ↦ +1).

Everything is exact; divisions are only performed when the remainder is
provably zero and raise ExactDivisionError otherwise.
"""

from __future__ import annotations

import functools
from math import comb, isqrt

__all__ = [
    "ExactDivisionError",
    "LaurentPoly",
    "CycElem",
    "qint",
    "qfact",
    "qbinom",
    "qbinom_int",
    "to_op",
    "rho",
    "varrho",
    "binom_reduction_check",
    "is_prime",
]


class ExactDivisionError(ArithmeticError):
    """Division of Laurent polynomials left a nonzero remainder."""


class LaurentPoly:
    """Sparse integer Laurent polynomial in one variable v.

    Immutable; no zero coefficients are stored, so equality is dict equality.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        self.coeffs = {e: c for e, c in coeffs.items() if c != 0}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def from_int(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return LaurentPoly.from_int(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LaurentPoly()
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # a monomial c·v^e shifts and scales the other operand; Z has
            # no zero divisors, so every product entry stays nonzero
            ((e, c),) = b.items()
            out = LaurentPoly.__new__(LaurentPoly)
            out.coeffs = {k + e: x * c for k, x in a.items()}
            return out
        # dense convolution over the exponent span, both operands shifted
        # to start at exponent 0; only nonzero entries are stored back
        lo_a, lo_b = min(a), min(b)
        acc = [0] * (max(a) - lo_a + max(b) - lo_b + 1)
        right = [(e - lo_b, c) for e, c in b.items()]
        for e1, c1 in a.items():
            base = e1 - lo_a
            for e2, c2 in right:
                acc[base + e2] += c1 * c2
        lo = lo_a + lo_b
        out = LaurentPoly.__new__(LaurentPoly)  # entries are already nonzero
        out.coeffs = {i + lo: c for i, c in enumerate(acc) if c}
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of a general Laurent polynomial")
        out = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def eval_at_one(self) -> int:
        return sum(self.coeffs.values())

    def shift(self, e: int) -> "LaurentPoly":
        return LaurentPoly({k + e: c for k, c in self.coeffs.items()})

    def min_exp(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ExactDivisionError on nonzero remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        # Shift both so the divisor becomes an honest polynomial with
        # nonzero constant term, then do ordinary long division from the top.
        sa, sb = self.min_exp(), other.min_exp()
        num = {e - sa: c for e, c in self.coeffs.items()}
        den = {e - sb: c for e, c in other.coeffs.items()}
        dden = max(den)
        lead = den[dden]
        quot: dict[int, int] = {}
        while num:
            dnum = max(num)
            if dnum < dden:
                raise ExactDivisionError("nonzero remainder")
            c, r = divmod(num[dnum], lead)
            if r != 0:
                raise ExactDivisionError("leading coefficient does not divide")
            shift = dnum - dden
            quot[shift] = c
            for e, cc in den.items():
                key = e + shift
                val = num.get(key, 0) - c * cc
                if val:
                    num[key] = val
                elif key in num:
                    del num[key]
        return LaurentPoly({e + sa - sb: c for e, c in quot.items()})

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                parts.append(f"{c}")
            else:
                mono = "v" if e == 1 else f"v^{e}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    __repr__ = __str__


def qint(n: int) -> LaurentPoly:
    """Quantum integer [n] = v^{n−1} + v^{n−3} + ... + v^{1−n}; [−n] = −[n]."""
    if n < 0:
        return -qint(-n)
    return LaurentPoly({n - 1 - 2 * i: 1 for i in range(n)})


@functools.cache
def qfact(n: int) -> LaurentPoly:
    """Quantum factorial [n]! = [n][n−1]...[1]."""
    if n < 0:
        raise ValueError("quantum factorial of a negative integer")
    if n == 0:
        return LaurentPoly.one()
    return qfact(n - 1) * qint(n)


@functools.cache
def qbinom(m: int, k: int) -> LaurentPoly:
    """Gaussian binomial for 0 ≤ k ≤ m via the Pascal recursion.

    Computed division-free as [m,k] = v^k [m−1,k] + v^{k−m} [m−1,k−1].
    """
    if not 0 <= k <= m:
        raise ValueError(f"qbinom({m},{k}) needs 0 <= k <= m")
    if k == 0 or k == m:
        return LaurentPoly.one()
    return qbinom(m - 1, k).shift(k) + qbinom(m - 1, k - 1).shift(k - m)


@functools.cache
def qbinom_int(m: int, k: int) -> LaurentPoly:
    """Gaussian binomial [m, k] for arbitrary integer m and k ≥ 0.

    Defined by the product formula [m][m−1]...[m−k+1]/[k]!, which agrees
    with qbinom on 0 ≤ k ≤ m and extends it to negative m.  Since
    [−x] = −[x], for m < 0 the product is (−1)^k [k−m−1]...[−m], so
    [m, k] = (−1)^k [k−m−1, k], taken from qbinom without division.
    """
    if k < 0:
        raise ValueError("lower index must be nonnegative")
    if 0 <= m < k:
        return LaurentPoly.zero()
    if m >= 0:
        return qbinom(m, k)
    b = qbinom(k - m - 1, k)
    return -b if k % 2 else b


@functools.cache
def is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


class CycElem:
    """An element of O_p = Z[v^{±1}]/(Psi_p(v^2)) on the basis {1, ..., q^{2p−3}}.

    Canonical form: exponents are reduced mod 2p (q^{2p} = 1), then q^{2p−2}
    and q^{2p−1} are eliminated through Psi_p(q^2) = 0.  Two elements are
    equal iff their coefficient vectors agree.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        if p < 2:
            raise ValueError("p must be a prime >= 2")
        coeffs = tuple(coeffs)
        if len(coeffs) != 2 * (p - 1):
            raise ValueError("coefficient vector has wrong length")
        self.p = p
        self.coeffs = coeffs

    @classmethod
    def from_exponents(cls, p: int, exps: dict[int, int]) -> "CycElem":
        """Reduce a q-exponent dictionary to canonical form."""
        n = 2 * p
        folded = [0] * n
        for e, c in exps.items():
            folded[e % n] += c
        # q^{2p-2} = -(1 + q^2 + ... + q^{2p-4}),  q^{2p-1} = q * q^{2p-2}
        vec = folded[: n - 2]
        c_even, c_odd = folded[n - 2], folded[n - 1]
        if c_even:
            for i in range(0, n - 2, 2):
                vec[i] -= c_even
        if c_odd:
            for i in range(1, n - 2, 2):
                vec[i] -= c_odd
        return cls(p, vec)

    @classmethod
    def zero(cls, p: int) -> "CycElem":
        return cls(p, (0,) * (2 * (p - 1)))

    @classmethod
    def one(cls, p: int) -> "CycElem":
        return cls.from_int(p, 1)

    @classmethod
    def from_int(cls, p: int, c: int) -> "CycElem":
        vec = [0] * (2 * (p - 1))
        vec[0] = c
        return cls(p, vec)

    @classmethod
    def q_power(cls, p: int, e: int, c: int = 1) -> "CycElem":
        return cls.from_exponents(p, {e: c})

    def is_zero(self) -> bool:
        return not self

    def __bool__(self):
        return any(self.coeffs)

    def as_int(self):
        """The integer c if the element equals c·1, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycElem.from_int(self.p, other)
        if not isinstance(other, CycElem):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __add__(self, other):
        if isinstance(other, int):
            other = CycElem.from_int(self.p, other)
        if other.p != self.p:
            raise ValueError("mixed p")
        return CycElem(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycElem(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycElem.from_int(self.p, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
        if not isinstance(other, CycElem):
            return NotImplemented
        if other.p != self.p:
            raise ValueError("mixed p")
        c = other.as_int()
        if c is not None:
            return self._scaled(c)
        c = self.as_int()
        if c is not None:
            return other._scaled(c)
        exps: dict[int, int] = {}
        for e1, c1 in enumerate(self.coeffs):
            if c1 == 0:
                continue
            for e2, c2 in enumerate(other.coeffs):
                if c2 == 0:
                    continue
                e = e1 + e2
                exps[e] = exps.get(e, 0) + c1 * c2
        return CycElem.from_exponents(self.p, exps)

    __rmul__ = __mul__

    def _scaled(self, c: int) -> "CycElem":
        """c·self; the canonical form is kept, so nothing is reduced."""
        if c == 1:
            return self
        out = CycElem.__new__(CycElem)
        out.p = self.p
        out.coeffs = tuple(a * c for a in self.coeffs)
        return out

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                parts.append(f"{c}")
            else:
                mono = "q" if e == 1 else f"q^{e}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def to_op(f: LaurentPoly, p: int) -> CycElem:
    """Canonical base change v ↦ q, reduced to canonical form in O_p."""
    return CycElem.from_exponents(p, f.coeffs)


def rho(f: LaurentPoly, p: int) -> CycElem:
    """Base change v ↦ q^p for odd p, and v ↦ 1 for p = 2."""
    if p == 2:
        return CycElem.from_int(2, f.eval_at_one())
    return CycElem.from_exponents(p, {p * e: c for e, c in f.coeffs.items()})


def varrho(x: CycElem, target: str):
    """Image of x in Z[v]/(Psi_2p) (target "2p", q^p ↦ −1) or Z[v]/(Psi_p)
    (target "p", odd p only, q^p ↦ +1).

    Returns the coefficient tuple on the power basis {1, v, ..., v^{d−1}}
    of the target ring, d = deg Psi_target.
    """
    p = x.p
    if target == "2p":
        if p == 2:
            modulus = [1, 0, 1]  # Psi_4
        else:
            modulus = [(-1) ** i for i in range(p)]  # Psi_2p = Psi_p(-v)
    elif target == "p":
        if p == 2:
            raise ValueError("Psi_2 does not divide Psi_2(v^2); no such map for p = 2")
        modulus = [1] * p  # Psi_p
    else:
        raise ValueError("target must be '2p' or 'p'")
    deg = len(modulus) - 1
    work = list(x.coeffs) + [0] * deg
    # reduce mod the monic modulus from the top
    for e in range(len(work) - 1, deg - 1, -1):
        c = work[e]
        if c == 0:
            continue
        work[e] = 0
        for i, m in enumerate(modulus[:-1]):
            work[e - deg + i] -= c * m
    return tuple(work[:deg])


def binom_reduction_check(a: int, b: int, p: int) -> bool:
    """Whether [ (a+b)p choose ap ] reduces to q^{p^2·ab}·C(a+b,a) in O_p.

    The exponent p^2·ab is congruent to p·ab mod 2p for odd p and to 0 for
    p = 2, matching the two branches of the rho evaluation (rho(v) = q^{p^2}
    for odd p, rho(v) = 1 for p = 2).  The same element is rho of the
    undilated binomial, which is asserted alongside.
    """
    lhs = to_op(qbinom((a + b) * p, a * p), p)
    rhs = CycElem.q_power(p, p * p * a * b, comb(a + b, a))
    if rhs != rho(qbinom(a + b, a), p):
        raise AssertionError("rho evaluation disagrees with the closed form")
    return lhs == rhs
