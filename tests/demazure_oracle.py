"""Reference thick crossings by the monomial round trip.

The route `qfrob.pdgmod` took before its crossings moved to the
straightening rule (`qfrob.partitions.swap_pushforward`): π_α(x)·π_β(x′) is
expanded into monomials over semistandard tableaux, the block-swap Demazure
composite ∂_w is applied letter by letter along a reduced word, and the
result is read back in Schur coordinates by back substitution through the
unitriangular Kostka matrix.  Kept here unchanged as the independent oracle
for the rule; the tests require the two to agree.

It also holds the monomial layer that `qfrob.pdgmod` used for the nilHecke
relations before they moved to the block rules (`pdgmod.BlockRules` with
blocks (1, ..., 1)): sparse polynomials (`PolElem`), the Demazure operator
on monomials (`demazure`), the window of monomials that `BlockOp`s act on
(`PolWindow`), and the relations check on that window
(`relations_check`), which the tests require to give the verdicts of
`pdgmod.nilhecke_relations_check`.
"""

import functools

from library_extras import partitions_of
from qfrob.pdgmod import BlockOp, nilhecke_least_window

Partition = tuple


# --------------------------------------------------------------------------
# sparse polynomials and Demazure operators
# --------------------------------------------------------------------------


class PolElem:
    """Sparse element of F_p[x_1..x_n]; deg(x_i) = 2."""

    __slots__ = ("n", "p", "terms")

    def __init__(self, n, p, terms=None):
        self.n = n
        self.p = p
        clean = {}
        for exps, c in (terms or {}).items():
            c %= p
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def zero(cls, n, p):
        return cls(n, p)

    @classmethod
    def one(cls, n, p):
        return cls(n, p, {(0,) * n: 1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, PolElem):
            return NotImplemented
        return (self.n, self.p, self.terms) == (other.n, other.p, other.terms)

    def __hash__(self):
        return hash((self.n, self.p, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return PolElem(self.n, self.p, out)

    def __neg__(self):
        return PolElem(self.n, self.p, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return PolElem(self.n, self.p, {e: c * other for e, c in self.terms.items()})
        out: dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return PolElem(self.n, self.p, out)

    __rmul__ = __mul__

    def diff(self):
        """The derivation with ∂(x_i) = x_i²."""
        out: dict[tuple, int] = {}
        for exps, c in self.terms.items():
            for i, a in enumerate(exps):
                if a:
                    key = exps[:i] + (a + 1,) + exps[i + 1 :]
                    out[key] = out.get(key, 0) + c * a
        return PolElem(self.n, self.p, out)

    def degree(self):
        return max((2 * sum(e) for e in self.terms), default=None)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            mono = "*".join(
                f"x{i+1}^{k}" if k > 1 else f"x{i+1}" for i, k in enumerate(e) if k
            )
            bits.append(f"{self.terms[e]}*{mono}" if mono else f"{self.terms[e]}")
        return " + ".join(bits)

    __repr__ = __str__


def monomial(n, p, exps, c=1) -> PolElem:
    return PolElem(n, p, {tuple(exps): c})


def demazure(i: int, f: PolElem) -> PolElem:
    """δ_i(f) = (f − s_i f)/(x_i − x_{i+1}), 1-based i.

    On a monomial x_i^a x_{i+1}^b the quotient is the closed form
    Σ_{j=0}^{a−b−1} x_i^{a−1−j} x_{i+1}^{b+j} for a > b, its negative with
    a, b swapped for a < b, and 0 for a = b; in particular the division is
    always exact.
    """
    if not 1 <= i <= f.n - 1:
        raise ValueError("index out of range")
    ia, ib = i - 1, i
    out: dict[tuple, int] = {}
    for exps, c in f.terms.items():
        a, b = exps[ia], exps[ib]
        if a == b:
            continue
        sign, lo, hi = (1, b, a) if a > b else (-1, a, b)
        for j in range(hi - lo):
            e = list(exps)
            e[ia], e[ib] = hi - 1 - j, lo + j
            if a < b:
                e[ia], e[ib] = lo + j, hi - 1 - j
            key = tuple(e)
            out[key] = out.get(key, 0) + sign * c
    return PolElem(f.n, f.p, out)


# --------------------------------------------------------------------------
# the nilHecke algebra on a window of Pol_n
# --------------------------------------------------------------------------


class PolWindow:
    """Pol_n in degrees ≤ cap, as a space that `BlockOp`s act on.

    `basis` holds every monomial of degree ≤ cap as an exponent tuple,
    ordered by degree; operators act on {exponents: coeff} dicts.
    """

    def __init__(self, n, p, cap):
        self.n = n
        self.p = p
        self.basis = [
            e for m in range(cap // 2 + 1) for e in sorted(self._compositions(m, n))
        ]

    @staticmethod
    def _compositions(m, n):
        if n == 1:
            return [(m,)]
        out = []
        for first in range(m + 1):
            for rest in PolWindow._compositions(m - first, n - 1):
                out.append((first,) + rest)
        return out

    def op(self, shift: int, fmap) -> "BlockOp":
        """The operator of degree `shift` given by a PolElem → PolElem map."""
        n, p = self.n, self.p
        return BlockOp(self, lambda e: fmap(PolElem(n, p, e)).terms, shift)

    def op_diff(self) -> "BlockOp":
        """The polynomial differential ∂(x_i) = x_i²."""
        return self.op(2, PolElem.diff)


def relations_check(n: int, p: int, window: int, delta=demazure):
    """The nilHecke relations on a `PolWindow`, in the order and with the
    messages of `pdgmod.nilhecke_relations_check`; `delta(i, f)` is the
    Demazure operator to check, `demazure` unless a test passes a mutant."""
    if n == 1:
        return True, None
    if window < nilhecke_least_window(n):
        raise ValueError("window too small to be conclusive")
    win = PolWindow(n, p, window)
    x = [
        win.op(2, lambda f, i=i: monomial(n, p, tuple(
            1 if j == i else 0 for j in range(n))) * f)
        for i in range(n)
    ]
    dd = [win.op(-2, lambda f, i=i: delta(i + 1, f)) for i in range(n - 1)]
    ident = win.op(0, lambda f: f)
    for i in range(n - 1):
        if not dd[i].compose(dd[i]).is_zero():
            return False, f"delta_{i+1}^2 != 0"
    for i in range(n - 2):
        lhs = dd[i].compose(dd[i + 1]).compose(dd[i])
        rhs = dd[i + 1].compose(dd[i]).compose(dd[i + 1])
        if not lhs.equals(rhs):
            return False, f"braid relation fails at {i+1}"
    for i in range(n - 1):
        if not (x[i].compose(dd[i]) - dd[i].compose(x[i + 1])).equals(ident):
            return False, f"dot slide (left) fails at {i+1}"
        if not (dd[i].compose(x[i]) - x[i + 1].compose(dd[i])).equals(ident):
            return False, f"dot slide (right) fails at {i+1}"
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            if not dd[i].compose(dd[j]).equals(dd[j].compose(dd[i])):
                return False, f"distant crossings {i+1},{j+1} do not commute"
    return True, None

# Global sign of the Demazure pairing, fixed once by the brute-force
# (a,b) = (1,1) derivation: ∂_w(π_λ(x)·π_{λ̂}(x')) = PAIRING_SIGN·(−1)^{|λ̂|}.
PAIRING_SIGN = 1


# --------------------------------------------------------------------------
# Schur polynomials in monomials, and back
# --------------------------------------------------------------------------


@functools.cache
def schur_monomials(lam: Partition, nvars: int) -> dict:
    """Monomial expansion of the Schur polynomial in nvars variables.

    Returns {exponent tuple: multiplicity} summed over semistandard
    tableaux of shape lam with entries ≤ nvars.
    """
    if len(lam) > nvars:
        return {}
    if not lam:
        return {(0,) * nvars: 1}
    out: dict[tuple, int] = {}
    rows = len(lam)

    def rec(r, c, fill, prev_row):
        if r == rows:
            weight = [0] * nvars
            for row in fill:
                for e in row:
                    weight[e - 1] += 1
            key = tuple(weight)
            out[key] = out.get(key, 0) + 1
            return
        if c == lam[r]:
            rec(r + 1, 0, fill, fill[r])
            return
        lo = 1
        if c > 0:
            lo = fill[r][c - 1]
        if r > 0 and c < len(prev_row):
            lo = max(lo, prev_row[c] + 1)
        for e in range(lo, nvars + 1):
            fill[r].append(e)
            rec(r, c + 1, fill, prev_row)
            fill[r].pop()

    rec(0, 0, [[] for _ in range(rows)], [])
    return out


@functools.cache
def _kostka_system(n: int, nvars: int):
    """Partitions of n with ≤ nvars rows in lex-descending order, plus the
    unitriangular Kostka matrix rows for back substitution."""
    parts = sorted(partitions_of(n, max_rows=nvars), reverse=True)
    index = {lam: i for i, lam in enumerate(parts)}
    rows = []
    for lam in parts:
        expansion = schur_monomials(lam, nvars)
        row = {}
        for exps, c in expansion.items():
            key = tuple(sorted((e for e in exps if e), reverse=True))
            row[key] = c  # same monomial-orbit weight appears once per orbit rep
        rows.append(row)
    return parts, index, rows


def monomial_to_schur_coords(mcoords: dict, nvars: int, modulus=None) -> dict:
    """Convert {partition: coeff} monomial-symmetric coordinates of a
    symmetric polynomial in nvars variables to Schur coordinates.

    Uses that the Kostka matrix is unitriangular for the lex order
    refining dominance, so a back substitution suffices; exact over Z, or
    mod `modulus` when given.
    """
    red = (lambda x: x % modulus) if modulus else (lambda x: x)
    out: dict[Partition, int] = {}
    by_degree: dict[int, dict] = {}
    for lam, c in mcoords.items():
        by_degree.setdefault(sum(lam), {})[lam] = red(c)
    for n, coords in by_degree.items():
        parts, index, rows = _kostka_system(n, nvars)
        residual = dict(coords)
        for i, lam in enumerate(parts):
            c = red(residual.get(lam, 0))
            if c == 0:
                continue
            out[lam] = red(out.get(lam, 0) + c)
            for mu, k in rows[i].items():
                residual[mu] = red(residual.get(mu, 0) - c * k)
        if any(red(v) for v in residual.values()):
            raise ValueError("input was not symmetric in the monomial basis")
    return {lam: c for lam, c in out.items() if c}


# --------------------------------------------------------------------------
# Demazure composites along reduced words
# --------------------------------------------------------------------------


def block_swap_word(a: int, b: int, variant: str = "first"):
    """A reduced word for the permutation moving the first a letters past
    the next b (one-line [b+1..b+a, 1..b]), found by bubble sort.

    variant "first"/"last" picks the first or last descent each step, giving
    two different reduced words for the self-test.
    """
    w = list(range(b + 1, b + a + 1)) + list(range(1, b + 1))
    word = []
    while True:
        descents = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not descents:
            break
        i = descents[0] if variant == "first" else descents[-1]
        w[i], w[i + 1] = w[i + 1], w[i]
        word.append(i + 1)
    return word


def demazure_word(word, f: PolElem) -> PolElem:
    """∂_w along a reduced word, innermost letter first."""
    for i in word:
        f = demazure(i, f)
    return f


# --------------------------------------------------------------------------
# the thick crossing and the pairing by the round trip
# --------------------------------------------------------------------------


@functools.cache
def pair_crossing(alpha, beta, b, p):
    """Action of the block-swap Demazure composite on
    π_α(x-block) · π_β(x'-block), both blocks of size b, in pair-Schur
    coordinates: {(α', β'): coeff}."""
    f = _two_block_schur(alpha, b, beta, b, p)
    g = demazure_word(block_swap_word(b, b), f)
    return _pair_schur_coords(g, b)


def _two_block_schur(alpha, a, beta, b, p) -> PolElem:
    """π_α(x)·π_β(x′) in a + b variables: x the first a, x′ the last b."""
    terms: dict[tuple, int] = {}
    for e1, c1 in schur_monomials(alpha, a).items():
        for e2, c2 in schur_monomials(beta, b).items():
            key = e1 + e2
            terms[key] = terms.get(key, 0) + c1 * c2
    return PolElem(a + b, p, terms)


def _pair_schur_coords(g: PolElem, b: int):
    """Block-Schur coordinates of a polynomial symmetric in two size-b
    blocks; verifies block symmetry along the way."""
    p = g.p
    reps: dict[tuple, int] = {}
    for exps, c in g.terms.items():
        k1 = tuple(sorted(exps[:b], reverse=True))
        k2 = tuple(sorted(exps[b:], reverse=True))
        rep = k1 + k2
        if exps == rep:
            reps[(k1, k2)] = c
    for exps, c in g.terms.items():
        k1 = tuple(sorted(exps[:b], reverse=True))
        k2 = tuple(sorted(exps[b:], reverse=True))
        if reps.get((k1, k2), 0) != c:
            raise AssertionError("image is not block-symmetric")
    # convert each axis from monomial-symmetric to Schur coordinates
    first: dict[tuple, dict] = {}
    for (k1, k2), c in reps.items():
        first.setdefault(k2, {})[tuple(x for x in k1 if x)] = c
    mid: dict[tuple, int] = {}
    for k2, coords in first.items():
        for lam, c in monomial_to_schur_coords(coords, b, modulus=p).items():
            mid[(lam, k2)] = c
    second: dict[tuple, dict] = {}
    for (lam, k2), c in mid.items():
        second.setdefault(lam, {})[tuple(x for x in k2 if x)] = c
    out: dict[tuple, int] = {}
    for lam, coords in second.items():
        for mu, c in monomial_to_schur_coords(coords, b, modulus=p).items():
            out[(lam, mu)] = c
    return out


def pairing_value(a: int, b: int, p: int, lam, mu):
    """∂_w(π_λ(x)·π_μ(x')) for the block swap of sizes (a, b); a scalar
    when |λ| + |μ| = ab, else raises."""
    if sum(lam) + sum(mu) != a * b:
        raise ValueError("pairing needs complementary total size ab")
    m = a + b
    f = _two_block_schur(tuple(lam), a, tuple(mu), b, p)
    g = demazure_word(block_swap_word(a, b), f)
    if g.is_zero():
        return 0
    if set(g.terms) != {(0,) * m}:
        raise AssertionError("pairing did not produce a scalar")
    return g.terms[(0,) * m]
