"""Symmetric polynomials over F_p in the Schur basis, with the degree-2
differential determined by ∂(x) = x² on power series generators.

On Schur polynomials the differential acts by adding one box with its
content (column minus row) as coefficient:

    ∂(π_λ) = Σ_{μ = λ + box} C(box) · π_μ   (mod p),

which restricts the generator formulas ∂(e_r) = e_1 e_r − (r+1) e_{r+1}
and ∂(h_r) = −h_1 h_r + (r+1) h_{r+1}.  Twisted rank-one modules S_n(a)
use ∂_a(f) = ∂(f) + a·e_1·f.

Finite variable counts are handled by row truncation: partitions with
more than n rows are dropped after every product or differential.  The
degree of π_λ is 2|λ|.

`sym_hilbert` is the Hilbert series of Sym_m with degrees dilated, times
a Laurent polynomial of shifts: the graded dims that the slash checks
expect.  Every content complex is read off bead segments, and no complex
on partition labels is built: `twist_stats` gives the string statistics
of truncated Sym_n and S_n(a), and of the box complexes on P(r, c) with
contents shifted by a twist (V_{a,b} on P(bp, ap), V_i on P(i, kp−i), the
blocks of END's V); `fills_segments` decides coboundaries in the
untwisted complexes, Sym_n and V_{a,b}, which are free summands plus one
line per partition that fills its segments.
"""

from __future__ import annotations

import functools
import itertools
import math

from . import partitions as pt
from .pcomplex import INF, PComplex, StringStats, tensor_stats

__all__ = [
    "SchurPoly",
    "elementary",
    "split_vars",
    "split_blocks",
    "theta0_gen",
    "lima_partitions",
    "sym_hilbert",
    "twist_stats",
    "fills_segments",
]

lima_partitions = pt.lima_partitions


class SchurPoly:
    """Sparse Schur-basis element of Sym_n over F_p (n = None: unbounded)."""

    __slots__ = ("n", "p", "terms")

    def __init__(self, p, terms=None, n=None):
        self.p = p
        self.n = n
        clean = {}
        for lam, c in (terms or {}).items():
            c %= p
            if c and (n is None or len(lam) <= n):
                clean[tuple(lam)] = c
        self.terms = clean

    # ---- constructors ----

    @classmethod
    def zero(cls, p, n=None):
        return cls(p, {}, n)

    @classmethod
    def one(cls, p, n=None):
        return cls(p, {(): 1}, n)

    # ---- structure ----

    def is_zero(self):
        return not self.terms

    def homogeneous_degree(self):
        degs = {2 * sum(lam) for lam in self.terms}
        if len(degs) > 1:
            raise ValueError("inhomogeneous element")
        return degs.pop() if degs else None

    def _check_compatible(self, other):
        if self.p != other.p or self.n != other.n:
            raise ValueError("mixed variable count or characteristic")

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({(): other % self.p} if other % self.p else {})
        if not isinstance(other, SchurPoly):
            return NotImplemented
        return (self.p, self.n, self.terms) == (other.p, other.n, other.terms)

    def __hash__(self):
        return hash((self.p, self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, int):
            other = SchurPoly(self.p, {(): other}, self.n)
        self._check_compatible(other)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, 0) + c
        return SchurPoly(self.p, out, self.n)

    def __neg__(self):
        return SchurPoly(self.p, {l: -c for l, c in self.terms.items()}, self.n)

    def __sub__(self, other):
        if isinstance(other, int):
            other = SchurPoly(self.p, {(): other}, self.n)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return SchurPoly(
                self.p, {l: c * other for l, c in self.terms.items()}, self.n
            )
        self._check_compatible(other)
        out: dict[tuple, int] = {}
        for lam, c1 in self.terms.items():
            for mu, c2 in other.terms.items():
                for nu, k in pt.lr_expand(lam, mu, self.n).items():
                    out[nu] = out.get(nu, 0) + c1 * c2 * k
        return SchurPoly(self.p, out, self.n)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = SchurPoly.one(self.p, self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # ---- the differential ----

    def diff(self):
        return self.twisted_diff(0)

    def twisted_diff(self, a):
        """∂(f) + a·e_1·f: box adding with coefficients content + a."""
        out: dict[tuple, int] = {}
        for lam, c in self.terms.items():
            for mu, coeff in pt.add_box(lam, a, max_rows=self.n):
                out[mu] = out.get(mu, 0) + c * coeff
        return SchurPoly(self.p, out, self.n)

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for lam in sorted(self.terms, key=pt.sort_key):
            c = self.terms[lam]
            parts.append(f"{c}*s[{','.join(map(str, lam))}]")
        return " + ".join(parts)

    __str__ = to_text

    def __repr__(self):
        return f"SchurPoly(p={self.p}, n={self.n}, {self.to_text()})"


def elementary(r, p, n=None) -> SchurPoly:
    """e_r = π_{(1^r)}; zero when r exceeds the variable count."""
    if r < 0:
        raise ValueError("negative index")
    if r == 0:
        return SchurPoly.one(p, n)
    if n is not None and r > n:
        return SchurPoly.zero(p, n)
    return SchurPoly(p, {(1,) * r: 1}, n)


# ---------- variable splitting ----------


def _subpartitions(lam, max_rows=None):
    """Partitions mu ⊆ lam (mu_i ≤ lam_i), optionally with ≤ max_rows rows."""
    return sorted(pt.bounded_partitions(lam[:max_rows]), key=pt.sort_key)


@functools.cache
def _split_blocks_z(lam: tuple, sizes: tuple) -> tuple:
    """Iterated coproduct of π_λ into len(sizes) blocks over Z, with row
    truncation per block; returns ((tuple of partitions, coeff), ...)."""
    if len(sizes) == 1:
        if len(lam) > sizes[0]:
            return ()
        return (((lam,), 1),)
    head = sizes[0]
    rest = sizes[1:]
    out: dict[tuple, int] = {}
    for mu in _subpartitions(lam, max_rows=head):
        for nu, k in pt.lr_restrict(lam, mu).items():
            for tail, k2 in _split_blocks_z(nu, rest):
                key = (mu,) + tail
                out[key] = out.get(key, 0) + k * k2
    return tuple(sorted(out.items()))


def split_blocks(lam, sizes, p) -> dict:
    """Iterated splitting of π_λ into blocks of the given sizes, mod p."""
    out = {}
    for key, k in _split_blocks_z(tuple(lam), tuple(sizes)):
        c = k % p
        if c:
            out[key] = c
    return out


def split_vars(f: SchurPoly, a: int, b: int) -> dict:
    """Image of f ∈ Sym_{a+b} under Sym_{a+b} → Sym_a ⊗ Sym_b.

    Returns {(mu, nu): coeff mod p}: the two-block `split_blocks` of each
    π_λ in f, the Schur coproduct π_λ ↦ Σ c^λ_{μν} π_μ ⊗ π_ν with row
    truncation on both sides.
    """
    if f.n is not None and f.n != a + b:
        raise ValueError("f must live in Sym_{a+b}")
    out: dict[tuple, int] = {}
    for lam, c in f.terms.items():
        for key, k in split_blocks(lam, (a, b), f.p).items():
            val = (out.get(key, 0) + c * k) % f.p
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


# ---------- the degree-dilating map on generators ----------


@functools.cache
def theta0_gen(i: int, p: int, n=None) -> SchurPoly:
    """The image e_{ip}^p of the i-th dilated generator; degree 2ip²."""
    return elementary(i * p, p, n) ** p


# ---------- dilated Hilbert series ----------


def sym_hilbert(m: int, step: int, shifts: dict, lo: int, hi: int) -> dict:
    """Σ_s c_s·t^s · Hilb(Sym_m)(t^step) on degrees [lo, hi], shifts {s: c_s},
    as {degree: dim} without zeros.  Sym_m, on generators of degrees
    step·1, ..., step·m, has as many monomials in degree step·t as t has
    partitions into parts ≤ m."""
    top = max(((hi - s) // step for s in shifts), default=-1)
    parts = [1] + [0] * top
    for j in range(1, m + 1):
        for t in range(j, top + 1):
            parts[t] += parts[t - j]
    out: dict[int, int] = {}
    for s, c in shifts.items():
        for t in range(max(0, -((s - lo) // step)), (hi - s) // step + 1):
            out[s + step * t] = out.get(s + step * t, 0) + c * parts[t]
    return {d: c for d, c in out.items() if c}


# ---------- string statistics of S_n(a) from bead segments ----------


def twist_stats(n: int, a: int, p: int, cap, cols=None) -> StringStats:
    """The string statistics of the rank-one twist S_n(a) truncated above
    degree cap, or with cols of the box complex on P(n, cols), with
    contents shifted by a, read off bead segments: no partition is built.

    Beads.  A partition λ with at most n rows is the set of n bead
    positions β_r = λ_r + n−1−r, r = 0..n−1, and 2|λ| = 2Σβ − n(n−1).
    Adding a box to row r moves bead β_r to the empty position β_r + 1.
    The box has content β_r − (n−1), so the move carries the coefficient
    β_r − c₀ mod p, with c₀ = n−1−a.

    Walls.  A move from β ≡ c₀ (mod p) carries 0, so no bead crosses from
    such a position to the next one.  These walls cut the positions into
    segments: a first segment 0..w with w = c₀ mod p, then full segments
    of p positions each.  In a segment of s positions the move from local
    position j carries j + 1 − s mod p, which is nonzero below the top
    (`_segment_stats`); in a full segment that is j + 1.

    Box.  With at most cols columns the beads lie on the positions
    0..n+cols−1, and the only box leaving P(n, cols) moves the top bead
    from n+cols−1.  Every box complex read so (V_{a,b}, V_i, and the
    blocks of `EndAlgebra`, which checks it) has that box carry 0, that is
    cols + a ≡ 0 (mod p): the top position is a wall, and the line of
    positions ends after its last full segment.  Otherwise AssertionError
    is raised.  A box complex is finite and taken whole, with cap INF.

    Tensor.  The bead counts (m_0, m_1, ...) per segment therefore never
    change under ∂, and ∂ is the sum of commuting moves, one per segment.
    So the complex is the direct sum, over the distributions of the n beads
    (`_bead_distributions`), of the tensor of segment complexes on the
    m_k-subsets of each segment, shifted to degree 2Σ m_k·start_k − n(n−1).
    In characteristic p, (Σ ∂_k)^p = Σ ∂_k^p, so ∂^p = 0 follows from the
    segments.  The statistics of a tensor are `tensor_stats` of its
    factors'; they depend only on the sorted (size, count) pairs of the
    occupied segments, the form of the distribution (`_form_stats`).

    Truncation.  The part above cap is the subcomplex spanned by the basis
    vectors of degree > cap, hence by the slots of degree > cap of any
    graded string basis.  So truncating at cap cuts each string (h, ℓ) to
    min(ℓ, (cap − h)//2 + 1) slots, and drops it when h > cap.

    Bookkeeping.  Σ ℓ·count must equal the number of labels: C(n+cols, n)
    in a box, else the partitions with at most n rows and 2|λ| ≤ cap,
    counted by `sym_hilbert`, not built; a mismatch raises AssertionError.
    """
    if cols is None:
        end, total = INF, sum(sym_hilbert(n, 2, {0: 1}, 0, cap).values())
    elif (cols + a) % p:
        raise AssertionError(f"the top bead position {n + cols - 1} is not a wall")
    else:
        end, total = n + cols, math.comb(n + cols, n)
    counts: dict[tuple, int] = {}
    for form, shift in _bead_distributions(n, (n - 1 - a) % p, p, cap, end):
        for (h, length), m in _form_stats(form, p):
            h += shift
            if h <= cap:
                key = (h, length if cap == INF else min(length, (cap - h) // 2 + 1))
                counts[key] = counts.get(key, 0) + m
    counts = dict(sorted(counts.items()))
    if sum(length * m for (_, length), m in counts.items()) != total:
        raise AssertionError("bead bookkeeping failed")
    return StringStats(counts=counts, cap=cap, p=p)


def _bead_distributions(n, w, p, cap, end):
    """The distributions of n beads over the segments 0..w, then p
    positions at a time up to position end − 1, whose lowest configuration
    has degree ≤ cap, as (form, shift) pairs: form is the sorted (size,
    count) pairs of the occupied segments, and shift is
    2Σ count·start − n(n−1)."""
    top = (cap + n * (n - 1)) / 2  # the largest bead sum Σβ within the cap
    out = []

    def place(start, size, left, base, low, form):
        # base: Σ count·start so far; low: the least bead sum so far
        if not left:
            out.append((tuple(sorted(form)), 2 * base - n * (n - 1)))
        elif start < end and low + left * start + left * (left - 1) // 2 <= top:
            for m in range(min(left, size) + 1):
                place(
                    start + size,
                    p,
                    left - m,
                    base + m * start,
                    low + m * start + m * (m - 1) // 2,
                    form + ((size, m),) if m else form,
                )

    place(0, w + 1, n, 0, 0, ())
    return out


@functools.cache
def _form_stats(form, p):
    """Uncut string counts of the tensor of the segment complexes of a
    bead-distribution form, in degrees twice the local bead sum."""
    stats = StringStats(counts={(0, 1): 1}, cap=INF, p=p)
    for size, m in form:
        stats = tensor_stats(stats, _segment_stats(size, m, p), p)
    return tuple(stats.counts.items())


@functools.cache
def _segment_stats(size, m, p):
    """String statistics of m beads in a segment of size ≤ p positions, a
    move from local position j carrying j + 1 − size mod p, degrees twice
    the local bead sum."""
    labels = list(itertools.combinations(range(size), m))
    pos = {s: i for i, s in enumerate(labels)}
    diff = {
        i: {
            pos[s[:k] + (j + 1,) + s[k + 1 :]]: (j + 1 - size) % p
            for k, j in enumerate(s)
            if j + 1 < size and j + 1 not in s
        }
        for i, s in enumerate(labels)
    }
    return PComplex(p, labels, [2 * sum(s) for s in labels], diff).string_stats()


# ---------- coboundaries of the untwisted content complex ----------


def fills_segments(lam, n: int, p: int) -> bool:
    """Whether the beads of λ (at most n rows) fill or empty each segment of
    the untwisted content complex: then π_λ spans a line of its own, and
    otherwise it lies in a free summand.

    Lines.  Take the untwisted content complex (a = 0) on partitions with
    at most n rows: all of Sym_n, with no cap, or a box P(n, c) with
    c ≡ 0 (mod p), such as V_{a,b} = P(bp, ap).  By `twist_stats` it is the
    direct sum, over the bead distributions, of tensors of segment
    complexes, the first segment 0..w with w = (n−1) mod p and then full
    segments of p positions.
    (1) A full segment holding 0 < m < p beads is Λ^m(J_p): a move from
    local position j carries j + 1, and it keeps the order of the beads, so
    no sign appears.  Since m! is a unit, Λ^m(J_p) is a direct summand of
    J_p^{⊗m}, which is free.  So every distribution with a partly filled
    full segment is free, and so is its tensor with any complex.
    (2) Suppose every full segment is full or empty.  The first segment
    has w + 1 ≡ n (mod p) positions, with w + 1 ≤ p, and it holds
    m₀ ≡ n (mod p) beads.  So it is full or empty as well, and the summand
    is one basis vector π_λ with ∂ = 0, a line J_1.
    (3) Each summand is spanned by a subset of the basis.  Hence projecting
    onto a summand means reading coefficients, and no truncation is needed.
    In a free complex Im ∂^{p−1} = Ker ∂, and a line has Im ∂^{p−1} = 0.
    So a vector lies in Im ∂^{p−1} exactly when it is a cocycle and has
    coefficient 0 on every λ that fills its segments; distinct such λ span
    distinct lines.
    """
    w = (n - 1) % p
    counts: dict[int, int] = {}  # beads per full segment; by (2) the first follows
    for r in range(n):
        beta = (lam[r] if r < len(lam) else 0) + n - 1 - r
        if beta > w:
            seg = (beta - w - 1) // p
            counts[seg] = counts.get(seg, 0) + 1
    return all(m == p for m in counts.values())
