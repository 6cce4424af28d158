"""Library API that only the tests call: references and conveniences that no
`qfrob` check runs.

* `tensor`, the whole tensor product of two complexes, the reference that
  `pcomplex.tensor_stats` decomposes without forming it;
* `slash_cohomology`, the slash dims of a built complex, and `slash_reps`,
  homogeneous representatives read off its explicit strings;
* `vi_pcomplex` and `staircase_complex`, built complexes whose statistics
  the checks read off bead segments;
* `schur` and `complete`, single Schur polynomials, and `omega`, the
  involution π_λ ↦ (−1)^{|λ|} π_{λᵗ};
* `bar`, the bar involution of Laurent polynomials;
* `udot`, a canonical basis element of Udot given by its shape.
"""

from qfrob import partitions as pt
from qfrob.cyclotomic import LaurentPoly
from qfrob.pcomplex import INF, PComplex, SlashCohomology, _string_classes
from qfrob.pdgmod import end_algebra
from qfrob.qgroup import CoeffRing, UdotElem, _canonical
from qfrob.symfunc import SchurPoly, _content_complex


# ---------- p-complexes ----------


def tensor(a: PComplex, b: PComplex) -> PComplex:
    """Tensor product with ∂(x⊗y) = ∂x⊗y + x⊗∂y (all degrees even)."""
    if a.p != b.p:
        raise ValueError("tensor factors must share p")
    p = a.p
    pairs = [
        (i, j)
        for i in range(a.dim)
        for j in range(b.dim)
    ]
    pairs.sort(key=lambda ij: (a.degrees[ij[0]] + b.degrees[ij[1]], ij))
    pos = {ij: k for k, ij in enumerate(pairs)}
    labels = [(a.labels[i], b.labels[j]) for i, j in pairs]
    degrees = [a.degrees[i] + b.degrees[j] for i, j in pairs]
    diff: dict[int, dict[int, int]] = {}
    for k, (i, j) in enumerate(pairs):
        row: dict[int, int] = {}
        for i2, c in a.diff.get(i, {}).items():
            row[pos[(i2, j)]] = c % p
        for j2, c in b.diff.get(j, {}).items():
            key = pos[(i, j2)]
            row[key] = (row.get(key, 0) + c) % p
        row = {t: c for t, c in row.items() if c}
        if row:
            diff[k] = row
    if a.cap == INF and b.cap == INF:
        cap = INF
    else:
        cap = min(a.cap + min(b.degrees, default=0), b.cap + min(a.degrees, default=0))
    return PComplex(p, labels, degrees, diff, cap=cap)


def slash_cohomology(c: PComplex) -> SlashCohomology:
    """Slash dims from the ranks behind `c.string_stats()`."""
    return c.string_stats().slash()


def slash_reps(c: PComplex) -> dict:
    """reps[k][d]: slot ℓ−1−k of each string of length ℓ < p through
    degree d, in `string_decompose` order, as key-sorted vectors, on the
    valid window of `slash_cohomology(c)`."""
    found = {k: {} for k in range(c.p - 1)}
    for s in c.string_decompose():
        for k, d, slot in _string_classes(
            s.head_degree, s.length, c.p, c.cap - 2 * (c.p - 1)
        ):
            found[k].setdefault(d, []).append(dict(sorted(s.slots[slot].items())))
    return {k: dict(sorted(per.items())) for k, per in found.items()}


def vi_pcomplex(i: int, k: int, p: int) -> PComplex:
    """The finite complex on P(i, kp−i) with contents shifted by i."""
    if not 1 <= i <= p:
        raise ValueError("need 1 <= i <= p")
    cols = k * p - i
    if cols < 0:
        raise ValueError("kp - i must be nonnegative")
    labels = pt.partitions_in_box(i, cols)
    return _content_complex(p, labels, i, INF, max_rows=i)


def staircase_complex(p: int) -> PComplex:
    """The scalar box complex of the twisted module Pol_p·v over Sym_p.

    Pol_p·v is the block module with p blocks of size 1.  Its free basis
    x_2^{c_2}...x_p^{c_p} v, 0 ≤ c_i ≤ i−1, is labelled by the one-row
    partitions (c_i) of the blocks, and block i has twist −(i−1), so the
    differential sends c to c + e_i with coefficient c_i − (i−1).  Each
    factor is a single string of length i and the whole complex is a tensor
    J_1 ⊗ J_2 ⊗ ... ⊗ J_p, contractible because of the J_p factor.  The
    degrees include the generator degree −p(p−1)/2.
    """
    return end_algebra((1,) * p, p).scalar_complex()


# ---------- symmetric polynomials ----------


def is_partition(lam) -> bool:
    return all(isinstance(x, int) and x > 0 for x in lam) and all(
        lam[i] >= lam[i + 1] for i in range(len(lam) - 1)
    )


def schur(p, lam, n=None, c=1) -> SchurPoly:
    if not is_partition(tuple(lam)):
        raise ValueError(f"{lam} is not a partition")
    return SchurPoly(p, {tuple(lam): c}, n)


def complete(r, p, n=None) -> SchurPoly:
    """h_r = π_{(r)}."""
    if r < 0:
        raise ValueError("negative index")
    if r == 0:
        return SchurPoly.one(p, n)
    return SchurPoly(p, {(r,): 1}, n)


def omega(f: SchurPoly) -> SchurPoly:
    out: dict[tuple, int] = {}
    for lam, c in f.terms.items():
        lt = pt.transpose(lam)
        if f.n is not None and len(lt) > f.n:
            continue
        sign = -1 if sum(lam) % 2 else 1
        out[lt] = out.get(lt, 0) + sign * c
    return SchurPoly(f.p, out, f.n)


# ---------- Laurent polynomials and Udot ----------


def bar(f: LaurentPoly) -> LaurentPoly:
    """The bar involution v ↦ v^{−1}."""
    return LaurentPoly({-e: c for e, c in f.coeffs.items()})


def udot(ring: CoeffRing, shape: str, a: int, b: int, n: int, coeff=None) -> UdotElem:
    """A canonical basis element; the shape is normalized at the tie."""
    w = _canonical(a, b, n)
    if w.shape != shape and shape == "FE" and n < b - a:
        raise ValueError("F E word with n < b−a is not a basis element")
    if shape == "EF" and n > b - a:
        raise ValueError("E F word with n > b−a is not a basis element")
    return UdotElem(ring, {w: coeff if coeff is not None else ring.one()})
