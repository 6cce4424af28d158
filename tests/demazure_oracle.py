"""Reference thick crossings by the monomial round trip.

The route `qfrob.pdgmod` took before its crossings moved to the
straightening rule (`qfrob.partitions.swap_pushforward`): π_α(x)·π_β(x′) is
expanded into monomials over semistandard tableaux, the block-swap Demazure
composite ∂_w is applied letter by letter along a reduced word, and the
result is read back in Schur coordinates by back substitution through the
unitriangular Kostka matrix.  Kept here unchanged as the independent oracle
for the rule; the tests require the two to agree.
"""

import functools

from qfrob.partitions import partitions_of
from qfrob.pdgmod import PolElem, demazure

Partition = tuple

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
