"""Library API that only the tests call: references and conveniences that no
`qfrob` check runs.

* `tensor`, the whole tensor product of two complexes, the reference that
  `pcomplex.tensor_stats` decomposes without forming it;
* `slash_cohomology`, the slash dims of a built complex, `hilbert`, their
  totals as a `GradedDims` view that refuses degrees outside the valid
  window, and `slash_reps`, homogeneous representatives read off its
  explicit strings;
* `independent_mod_coboundaries`, one basis extension against the images
  of ∂^{p−1}: the linear-algebra oracle of `symfunc.fills_segments`;
* the content complexes on partition labels (`_content_complex`):
  truncated Sym_n and its twists S_n(a) (`sym_pcomplex`,
  `twist_pcomplex`, on the partitions of `partitions_of`), the box
  complexes V_{a,b} (`vab_pcomplex`) and V_i (`vi_pcomplex`), and
  `staircase_complex`, built complexes whose statistics and coboundaries
  the checks read off bead segments;
* `schur` and `complete`, single Schur polynomials, and `omega`, the
  involution π_λ ↦ (−1)^{|λ|} π_{λᵗ};
* `bar`, the bar involution of Laurent polynomials;
* `udot`, a canonical basis element of Udot given by its shape;
* `SparseSpan`, coordinates over (and membership in) the span of a fixed
  list of vectors on the elimination of `linalg`, its keys numbered by
  row-singleton peeling (`_peel_order`), and `_Coordinates`, one span per
  degree over a basis given degree by degree (`_slot_basis`: string
  slots): the solve behind the coboundary and expansion oracles, where
  `qfrob` reads coordinates off dual strings.
"""

from dataclasses import dataclass

from qfrob import linalg
from qfrob import partitions as pt
from qfrob.cyclotomic import LaurentPoly
from qfrob.partitions import sort_key
from qfrob.pcomplex import INF, PComplex, SlashCohomology, _Powers, _string_classes
from qfrob.pdgmod import end_algebra
from qfrob.qgroup import CoeffRing, UdotElem, _canonical
from qfrob.symfunc import SchurPoly


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


def independent_mod_coboundaries(c: PComplex, d, vecs) -> bool:
    """Whether the vectors of degree d are linearly independent modulo
    Im ∂^{p−1}, the span of the images ∂^{p−1}(e_i) of the basis of
    degree d − 2(p−1)."""
    j = c.p - 1
    im = _Powers(c).images(d - 2 * j, j)
    return len(linalg.sparse_extend_basis(im, vecs, c.p)) == len(vecs)


def slash_cohomology(c: PComplex) -> SlashCohomology:
    """Slash dims from the ranks behind `c.string_stats()`."""
    return c.string_stats().slash()


@dataclass(frozen=True)
class GradedDims:
    """Dimensions per degree, known on [window[0], window[1]] only."""

    dims: dict
    window: tuple

    def __getitem__(self, d):
        if not self.window[0] <= d <= self.window[1]:
            raise KeyError(f"degree {d} outside the known window {self.window}")
        return self.dims.get(d, 0)


def hilbert(sl: SlashCohomology) -> GradedDims:
    return GradedDims(dims=sl.total_dims(), window=sl.valid_window)


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


def _content_complex(p, labels, twist, cap, max_rows):
    """Assemble the box-adding complex on the given partition labels, a
    box of content C carrying coefficient C + twist.

    Boxes leaving the label set other than through the degree cap must
    carry coefficient 0 mod p; a violation means the label set is not
    ∂-stable and is reported as a bug.
    """
    labels = sorted(labels, key=sort_key)
    pos = {lam: i for i, lam in enumerate(labels)}
    diff: dict[int, dict[int, int]] = {}
    for j, lam in enumerate(labels):
        row: dict[int, int] = {}
        for mu, c in pt.add_box(lam, twist, max_rows=max_rows):
            c %= p
            if not c:
                continue
            if mu in pos:
                row[pos[mu]] = c
            elif 2 * sum(mu) <= cap:
                raise AssertionError(
                    f"nonzero coefficient {c} on a box leaving the index set at {mu}"
                )
        if row:
            diff[j] = row
    degrees = [2 * sum(lam) for lam in labels]
    return PComplex(p, labels, degrees, diff, cap=cap)


def sym_pcomplex(n: int, p: int, cap: int) -> PComplex:
    """Sym_n truncated above degree cap, with the content differential: the
    twist S_n(0)."""
    return twist_pcomplex(n, 0, p, cap)


def twist_pcomplex(n: int, a: int, p: int, cap: int) -> PComplex:
    """The rank-one twist S_n(a), truncated above degree cap: contents
    shifted by a.  `symfunc.twist_stats` gives its string statistics
    without building it."""
    labels = [
        lam
        for m in range(0, cap // 2 + 1)
        for lam in partitions_of(m, max_rows=n)
    ]
    return _content_complex(p, labels, a, cap, max_rows=n)


def vab_pcomplex(a: int, b: int, p: int) -> PComplex:
    """The finite box complex on P(bp, ap) with the content differential."""
    labels = pt.partitions_in_box(b * p, a * p)
    return _content_complex(p, labels, 0, INF, max_rows=b * p)


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


# ---------- partitions and symmetric polynomials ----------


def partitions_of(n: int, max_rows=None, max_part=None):
    """Partitions of n, optionally bounded, graded-lex order within size n.

    A prefix is dropped as soon as its remaining rows, each at most its
    last part, cannot hold what is left of n.
    """
    res = []

    def rec(remaining, maxp, prefix):
        if remaining == 0:
            res.append(tuple(prefix))
            return
        if max_rows is not None and remaining > maxp * (max_rows - len(prefix)):
            return
        for part in range(min(remaining, maxp), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    top = n if max_part is None else min(n, max_part)
    rec(n, top, [])
    return sorted(res, key=sort_key)




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


# ---------- coordinates over a fixed list of vectors ----------


def _peel_order(vectors) -> dict:
    """Number the keys of the vectors by row-singleton peeling.

    A key held by exactly one remaining vector is numbered next, and that
    vector is removed.  When no such key is left, the key held by the
    fewest remaining vectors is numbered next and the shortest of those
    vectors removed.  If every step finds a singleton, each vector's
    lowest-numbered key is the key it was removed at, so the vectors are
    already in echelon form and eliminating them makes no fill.
    """
    holders: dict = {}  # key -> indices of the vectors holding it
    for i, v in enumerate(vectors):
        for k in v:
            holders.setdefault(k, []).append(i)
    count = {k: len(ix) for k, ix in holders.items()}
    alive = [True] * len(vectors)
    order: dict = {}
    singles = [k for k, n in count.items() if n == 1]
    while len(order) < len(holders):
        key = None
        while singles:
            k = singles.pop()
            if k not in order and count[k] == 1:
                key = k
                break
        if key is None:  # stalled
            key = min((k for k in holders if k not in order), key=count.__getitem__)
        order[key] = len(order)
        live = [i for i in holders[key] if alive[i]]
        if not live:
            continue
        i = min(live, key=lambda i: len(vectors[i]))
        alive[i] = False
        for k in vectors[i]:
            count[k] -= 1
            if count[k] == 1 and k not in order:
                singles.append(k)
    return order


class SparseSpan:
    """The span of a fixed list of sparse vectors mod p, for coordinates.

    The vectors are eliminated once, each tagged with its index: vector i
    is inserted as its own entries plus 1 at tag key i, tags numbered after
    every real key.  Reducing a vector of the span then clears its real
    keys, and what is left on the tags is minus its coordinates.  Keys are
    numbered by `_peel_order` first; any numbering gives the same span and
    coordinates, and this one eliminates inputs that are triangular up to a
    permutation without fill.
    """

    def __init__(self, vectors, p: int):
        self.p = p
        vectors = [{k: x % p for k, x in v.items() if x % p} for v in vectors]
        self._number = _peel_order(vectors)
        tag0 = len(self._number)
        self._pivots: dict = {}
        number = self._number
        for i, v in enumerate(vectors):
            row = {number[k]: x for k, x in v.items()}
            row[tag0 + i] = 1
            linalg._insert(self._pivots, row, p)
        self._tag0 = tag0
        self.rank = sum(1 for lead in self._pivots if lead < tag0)

    def coords(self, vec: dict):
        """{index: coefficient} with vec = Σ coefficient · vectors[index],
        in increasing index order and without zeros, or None when vec is not
        in the span.  For dependent vectors one solution is returned."""
        p, number, tag0 = self.p, self._number, self._tag0
        row = {}
        for k, x in vec.items():
            x %= p
            if x:
                n = number.get(k)
                if n is None:
                    return None
                row[n] = x
        lead = linalg._reduce(self._pivots, row, p)
        if lead is not None and lead < tag0:
            return None
        return {n - tag0: -row[n] % p for n in sorted(row)}

    def __contains__(self, vec: dict) -> bool:
        return self.coords(vec) is not None


def _slot_basis(strings, d):
    """The string slots in degree d, labelled (string index, slot), for
    `_Coordinates`: they must form a basis of the keys they touch."""
    labels = []
    vectors = []
    for si, s in enumerate(strings):
        for t, vec in enumerate(s.slots):
            if s.head_degree + 2 * t == d:
                labels.append((si, t))
                vectors.append(vec)
    return labels, vectors, len(set().union(*vectors))


class _Coordinates:
    """Coordinates over a basis given degree by degree, one
    `SparseSpan` per degree, built on first use.

    basis_at(d) returns (labels, vectors, dim): the basis vectors of degree
    d as sparse dicts with a label each, and the dimension of the space
    they must be a basis of; `what` names them in errors.
    """

    def __init__(self, p, basis_at, what):
        self.p = p
        self.basis_at = basis_at
        self.what = what
        self._spans: dict = {}

    def __call__(self, d, vec: dict) -> dict:
        """{label: coefficient} of vec, nonzero ones in basis order."""
        hit = self._spans.get(d)
        if hit is None:
            labels, vectors, dim = self.basis_at(d)
            span = SparseSpan(vectors, self.p)
            if len(labels) != dim or span.rank != dim:
                raise AssertionError(
                    f"{self.what} at degree {d}: {len(labels)} vectors of rank "
                    f"{span.rank} are no basis of dimension {dim}"
                )
            hit = self._spans[d] = (labels, span)
        labels, span = hit
        x = span.coords(vec)
        if x is None:
            raise AssertionError(f"{self.what} at degree {d} do not span {vec}")
        return {labels[i]: c for i, c in x.items()}
