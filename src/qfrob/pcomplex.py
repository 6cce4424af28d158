"""Finite-window graded vector spaces over F_p with a nilpotent degree-2 map.

A p-complex here is a graded F_p-vector space U with a homogeneous operator
∂ of degree +2 satisfying ∂^p = 0.  Core computations:

  * decomposition of ∂ into strings (graded Jordan form of the nilpotent
    operator); strings of length exactly p make up the contractible part,
    the shorter strings carry all slash cohomology: a string of length
    ℓ ≤ p−1 with head degree h contributes one class to H_{/k} at degree
    h + 2(ℓ−1−k) for each k ≤ ℓ−1, represented by its slot ℓ−1−k;
  * slash cohomology  H_{/k}(U) = Ker ∂^{k+1} / (Im ∂^{p−k−1} + Ker ∂^k),
    k = 0..p−2, by that rule: dims from the string multiplicities, which
    ranks of ∂^j give without explicit vectors;
  * the tensor J_{l1} ⊗ ... ⊗ J_{lk} of abstract strings (`j_tensor`), the
    summand that a tensor of complexes restricts to on a tuple of their
    strings, with the Leibniz differential (no signs: all degrees are
    even);
  * string *statistics* and their tensor calculus, which let tensor
    products of large complexes be decomposed exactly without forming the
    product space.  A complex's own statistics come from the ranks of the
    powers of ∂ over the whole complex; the package ranks only small ones
    (bead segments and J_{l1} ⊗ J_{l2}), and `symfunc.twist_stats` sums
    their tensors for the large content complexes.

Truncation: a complex, or its statistics, may be cut above a degree cap,
in which case graded data is only trusted on degrees d with
d + 2(p−1) ≤ cap; nothing is cut from below, so no lower margin is needed.
The package builds only complete complexes: bead segments, abstract
strings, END's V and V^* (`dual`); truncated ones are read off bead
segments.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import linalg

__all__ = [
    "PComplex",
    "SlashCohomology",
    "StringBasis",
    "StringStats",
    "tensor_stats",
    "j_tensor",
    "dual",
]

INF = math.inf


@dataclass
class StringBasis:
    """One ∂-string: slots[i] = ∂^i(head), living in degrees head+2i."""

    head_degree: int
    length: int
    slots: list  # sparse vectors {basis index: coeff}


class PComplex:
    """A p-complex on an ordered homogeneous basis with a sparse ∂."""

    def __init__(self, p, labels, degrees, diff, cap=INF):
        self.p = p
        self.labels = list(labels)
        self.degrees = list(degrees)
        # diff[j] = {i: coeff}: ∂(basis_j) = Σ coeff · basis_i
        self.diff = {j: dict(cols) for j, cols in diff.items() if cols}
        self.cap = cap
        self._by_degree: dict[int, list] = {}
        for idx, d in enumerate(self.degrees):
            self._by_degree.setdefault(d, []).append(idx)

    # ---------- basic structure ----------

    @property
    def dim(self):
        return len(self.labels)

    def support_degrees(self):
        return sorted(self._by_degree)

    def indices_at(self, d):
        return self._by_degree.get(d, [])

    def apply(self, vec: dict) -> dict:
        out: dict[int, int] = {}
        for j, c in vec.items():
            for i, coeff in self.diff.get(j, {}).items():
                val = (out.get(i, 0) + c * coeff) % self.p
                if val:
                    out[i] = val
                elif i in out:
                    del out[i]
        return out

    # ---------- validation ----------

    def validation_error(self):
        """None if homogeneous with windowed ∂^p = 0, else a message naming
        the first violating basis vector."""
        return _Powers(self).validation_error()

    # ---------- string decomposition ----------

    def string_decompose(self):
        """Explicit graded Jordan strings for ∂, longest first per degree.

        Heads of length-ℓ strings at degree d span a complement of
        Ker ∂^{ℓ−1} + ∂(Ker ∂^{ℓ+1}) inside Ker ∂^ℓ; taking ∂-orbits of such
        complements, longest ℓ first, yields a basis of the whole complex.
        """
        powers = _Powers(self)
        powers.validate()
        p = self.p
        strings = []
        for d in self.support_degrees():
            kers = [powers.kernel(d, j) for j in range(p + 1)]  # ∂^p = 0
            for length in range(p, 0, -1):
                img = [self.apply(v) for v in powers.kernel(d - 2, min(length + 1, p))]
                span = kers[length - 1] + img
                for c in linalg.sparse_extend_basis(span, kers[length], p):
                    slots = [dict(sorted(kers[length][c].items()))]
                    for _ in range(length - 1):
                        slots.append(self.apply(slots[-1]))
                    strings.append(StringBasis(d, length, slots))
        total = sum(s.length for s in strings)
        if total != self.dim:
            raise AssertionError("string decomposition does not fill the space")
        return strings

    def string_stats(self) -> "StringStats":
        """Validate the complex and count its strings by (head degree,
        length), from ranks only, in (head, length) order.

        With r_j(d) = rank(∂^j: U_d → U_{d+2j}) and r_0(d) = dim U_d, the
        number of strings with head exactly at d and length exactly ℓ is
        (r_{ℓ−1}(d) − r_ℓ(d−2)) − (r_ℓ(d) − r_{ℓ+1}(d−2)); this avoids
        building explicit vectors.  Once `validate` has passed, r_p and
        r_{p+1} are 0 in every degree: ∂^p vanishes up to cap − 2p and
        lands past the cap above it.  So only ∂^1 … ∂^{p−1} are ranked.
        """
        powers = _Powers(self)
        powers.validate()
        p = self.p
        ranks: dict[int, list] = {}
        for d in self.support_degrees():
            ranks[d] = [len(self.indices_at(d))] + [
                linalg.sparse_rank(powers.images(d, j), p) for j in range(1, p)
            ]
            powers.release(d)

        def r(d, j):
            if d not in ranks:
                return 0
            return ranks[d][j] if j < len(ranks[d]) else 0

        counts: dict[tuple, int] = {}
        for d in self.support_degrees():
            for length in range(1, p + 1):
                m = (r(d, length - 1) - r(d - 2, length)) - (
                    r(d, length) - r(d - 2, length + 1)
                )
                if m:
                    counts[(d, length)] = m
        total = sum(l * m for (h, l), m in counts.items())
        if total != self.dim or any(m < 0 for m in counts.values()):
            raise AssertionError("rank bookkeeping failed")
        return StringStats(counts=counts, cap=self.cap, p=self.p)


class _Powers:
    """Sparse images ∂^j(e_i) of each degree's basis vectors and kernels of
    ∂^j, built with `PComplex.apply` once per degree and reused across the
    powers j within one computation."""

    def __init__(self, c: PComplex):
        self.c = c
        self._images: dict[int, list] = {}
        self._kernels: dict[tuple, list] = {}

    def validation_error(self):
        """`PComplex.validation_error`, with ∂^p(e_i) taken as one more
        `apply` on the images ∂^{p−1}(e_i) that the computations reuse."""
        c = self.c
        for j in sorted(c.diff):
            dj = c.degrees[j]
            for i in c.diff[j]:
                if c.degrees[i] != dj + 2:
                    return (
                        f"differential not homogeneous of degree 2 at basis "
                        f"vector {c.labels[j]!r}"
                    )
        bad = [
            i
            for d in c.support_degrees()
            if d <= c.cap - 2 * c.p
            for i, img in zip(c.indices_at(d), self.images(d, c.p - 1))
            if c.apply(img)
        ]
        if bad:
            return f"∂^{c.p} does not vanish on {c.labels[min(bad)]!r}"
        return None

    def validate(self):
        err = self.validation_error()
        if err:
            raise ValueError(err)

    def images(self, d, j):
        """[∂^j(e_i) for e_i in the basis of degree d], as sparse vectors."""
        powers = self._images.get(d)
        if powers is None:
            powers = self._images[d] = [[{i: 1} for i in self.c.indices_at(d)]]
        while len(powers) <= j:
            powers.append([self.c.apply(v) for v in powers[-1]])
        return powers[j]

    def release(self, d):
        """Forget the images of degree d once no later step needs them."""
        self._images.pop(d, None)

    def kernel(self, d, j):
        """Basis of Ker ∂^j on degree d, in the order `linalg.sparse_nullspace`
        gives for the rows of ∂^j: empty for j = 0, and the whole basis for
        j ≥ p, whatever the truncation left of ∂^p."""
        key = (d, j)
        if key not in self._kernels:
            local = self.c.indices_at(d)
            if j == 0:
                basis = []
            elif j >= self.c.p:
                basis = [{i: 1} for i in local]
            else:
                rows: dict[int, dict] = {}
                for i, img in zip(local, self.images(d, j)):
                    for t, x in img.items():
                        rows.setdefault(t, {})[i] = x
                basis = linalg.sparse_nullspace(rows.values(), local, self.c.p)
            self._kernels[key] = basis
        return self._kernels[key]


@dataclass
class SlashCohomology:
    """Slash cohomology as graded dimensions.

    dims[k][d] covers k = 0..p−2 and degrees in the valid window; degrees
    outside the window are unknown, not zero.  Built by `StringStats.slash`.
    """

    p: int
    dims: dict
    valid_window: tuple

    def total_dims(self) -> dict:
        out: dict[int, int] = {}
        for k in self.dims:
            for d, n in self.dims[k].items():
                out[d] = out.get(d, 0) + n
        return out

    def is_zero(self) -> bool:
        """Whether every H_{/k} vanishes on the valid window; an empty window
        decides nothing and raises ValueError."""
        if self.valid_window[1] < self.valid_window[0]:
            raise ValueError(f"empty valid window {self.valid_window}")
        return all(not v for v in self.dims.values())


# ---------- string statistics ----------


@dataclass
class StringStats:
    """Multiset of (head degree, length) with the trusted degree cap."""

    counts: dict
    cap: float
    p: int

    def min_head(self):
        return min((h for h, _ in self.counts), default=0)

    def slash(self) -> SlashCohomology:
        """H_{/k} on the valid window [lowest head, cap − 2(p−1)], each
        string giving its `_string_classes`."""
        p = self.p
        hi = self.cap - 2 * (p - 1)
        dims = {k: {} for k in range(p - 1)}
        for (h, l), m in self.counts.items():
            for k, d, _ in _string_classes(h, l, p, hi):
                dims[k][d] = dims[k].get(d, 0) + m
        return SlashCohomology(p, dims, (self.min_head(), hi))


@functools.cache
def _string_tensor_table(l1: int, l2: int, p: int):
    """Exact decomposition of J_{l1} ⊗ J_{l2} over F_p[∂]/∂^p: a tuple of
    ((head degree offset, length), multiplicity), heads relative to the sum
    of the two head degrees."""
    return tuple(sorted(j_tensor((l1, l2), p).string_stats().counts.items()))


def j_tensor(lengths, p: int) -> PComplex:
    """The tensor J_{l_1} ⊗ ... ⊗ J_{l_k} of abstract strings, heads in
    degree 0: basis the slot tuples (s_1, ..., s_k), s_i < l_i, and ∂ the
    sum over i of raising s_i by one, each with coefficient 1."""
    labels = list(itertools.product(*(range(l) for l in lengths)))
    pos = {s: k for k, s in enumerate(labels)}
    diff = {}
    for k, s in enumerate(labels):
        row = {
            pos[s[:i] + (t + 1,) + s[i + 1 :]]: 1
            for i, t in enumerate(s)
            if t + 1 < lengths[i]
        }
        if row:
            diff[k] = row
    return PComplex(p, labels, [2 * sum(s) for s in labels], diff, cap=INF)


def dual(c: PComplex) -> PComplex:
    """Linear dual with ∂*(ξ) = −ξ∘∂; only for complete complexes."""
    if c.cap != INF:
        raise ValueError("dual of a truncated complex is not defined here")
    dual_diff: dict[int, dict[int, int]] = {}
    for j, cols in c.diff.items():
        for i, x in cols.items():
            dual_diff.setdefault(i, {})[j] = (-x) % c.p
    return PComplex(
        c.p,
        [("dual", l) for l in c.labels],
        [-d for d in c.degrees],
        dual_diff,
        cap=INF,
    )


def tensor_stats(s1: StringStats, s2: StringStats, p: int) -> StringStats:
    """String statistics of the tensor of two complexes given their own."""
    counts: dict[tuple, int] = {}
    for (h1, l1), m1 in s1.counts.items():
        for (h2, l2), m2 in s2.counts.items():
            for (off, length), mult in _string_tensor_table(l1, l2, p):
                key = (h1 + h2 + off, length)
                counts[key] = counts.get(key, 0) + m1 * m2 * mult
    cap = min(s1.cap + s2.min_head(), s2.cap + s1.min_head())
    return StringStats(counts=counts, cap=cap, p=p)


def _string_classes(head: int, length: int, p: int, hi):
    """The slash classes of one string, as (k, degree, slot) on degrees ≤ hi.

    A string of length ℓ ≤ p−1 with head degree h gives one class in H_{/k}
    at degree h + 2(ℓ−1−k) for each k ≤ ℓ−1, represented by its slot
    ℓ−1−k; length-p strings give nothing.
    """
    if length >= p:
        return
    for k in range(length):
        slot = length - 1 - k
        if head + 2 * slot <= hi:
            yield k, head + 2 * slot, slot

