"""NilHecke operators, Grassmannian block modules and their endomorphism
p-DG algebras over characteristic-p symmetric polynomials.

The module has three layers.

1.  Windowed operators on truncated polynomial rings: multiplication by
    variables and divided-difference (Demazure) operators
    δ_i(f) = (f − s_i f)/(x_i − x_{i+1}), realizing the nilHecke algebra
    NH_n = END_{Sym_n}(Pol_n).  Relations are checked degreewise; since the
    relations are equalities of homogeneous Sym_n-linear operators, windowed
    equality at sufficient width decides them.

2.  Block modules: for block sizes (b_1, ..., b_r), the free module
    Sym_{b_1} ⊗ ... ⊗ Sym_{b_r} · v over Sym_N, N = Σ b_i, with the
    generator twist ∂(v) = −Σ_{i≥2} (b_1+..+b_{i−1}) e_1(block i) · v.
    The free basis {Π_i π_{λ_i}(block i) · v : λ_i ∈ P(b_i, b_1+..+b_{i−1})}
    is ∂-stable with *scalar* structure constants: each basis vector maps to
    single-box neighbours with coefficient (content − prefix size), and
    boxes leaving the index rectangle carry coefficient exactly 0.

3.  Endomorphism algebras END_{Sym_N}(module), whose elements are
    block-local operators (`BlockOp`): rules on block coordinates that are
    composed and compared on the free basis, with differential the
    commutator with the module differential.  Expanded over the free basis,
    END is the tensor product of truncated Sym_N with the finite complex
    V ⊗ V^* (V the free basis with the scalar module differential), which
    keeps slash cohomology and coboundary-membership computations small:
    both are done through exact string decompositions of the tensor
    factors.

Thick crossings are composites of Demazure operators along a fixed reduced
word of the minimal-length block-interchange permutation; dots multiply a
p-block by e_p^p.  Sending nilHecke dots/crossings (with degrees dilated by
p²) to these operators defines the thickening of NH_a into END of the p-block
module, whose relation and slash-cohomology checks live here as well.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import linalg
from . import partitions as pt
from .cyclotomic import LaurentPoly, qbinom
from .pcomplex import (
    INF,
    PComplex,
    slash_dims_from_stats,
    tensor_stats,
    tensor_strings,
    jj_complex,
)
from .symfunc import SchurPoly, _content_complex, split_blocks, sym_pcomplex

__all__ = [
    "PolElem",
    "monomial",
    "demazure",
    "PolWindow",
    "OperatorOnWindow",
    "nh_differential",
    "nilhecke_relations_check",
    "nh_acyclicity_check",
    "staircase_complex",
    "GrassModule",
    "grass_module",
    "grass_rank_ok",
    "EndAlgebra",
    "BlockOp",
    "end_algebra",
    "thick_crossing",
    "theta_plus",
    "pairing_value",
    "thick_nilhecke_check",
    "end_formality_check",
    "nh_graded_dims",
    "block_swap_word",
    "demazure_word",
    "PAIRING_SIGN",
    "THICK_MAX_AP",
]

# Global sign of the Demazure pairing, fixed once by the brute-force
# (a,b) = (1,1) derivation: ∂_w(π_λ(x)·π_{λ̂}(x')) = PAIRING_SIGN·(−1)^{|λ̂|}.
PAIRING_SIGN = 1

# The largest a·p at which thick_nilhecke_check works on END(S_{(p^a)}).
THICK_MAX_AP = 6


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
# windowed operators on Pol_n
# --------------------------------------------------------------------------


class PolWindow:
    """Monomial bases of Pol_n in each degree ≤ cap."""

    def __init__(self, n, p, cap):
        self.n = n
        self.p = p
        self.cap = cap
        self.basis = {}
        self.index = {}
        for m in range(cap // 2 + 1):
            monos = sorted(self._compositions(m, n))
            self.basis[2 * m] = monos
            self.index[2 * m] = {e: i for i, e in enumerate(monos)}

    @staticmethod
    def _compositions(m, n):
        if n == 1:
            return [(m,)]
        out = []
        for first in range(m + 1):
            for rest in PolWindow._compositions(m - first, n - 1):
                out.append((first,) + rest)
        return out

    def degrees(self):
        return sorted(self.basis)

    def to_vec(self, f: PolElem, d):
        v = np.zeros(len(self.basis[d]), dtype=np.int64)
        for e, c in f.terms.items():
            if 2 * sum(e) != d:
                raise ValueError("inhomogeneous element")
            v[self.index[d][e]] = c
        return v

    def elem(self, d, i) -> PolElem:
        return monomial(self.n, self.p, self.basis[d][i])


class OperatorOnWindow:
    """Degreewise matrices of a homogeneous operator on a PolWindow."""

    def __init__(self, window: PolWindow, shift: int, mats: dict):
        self.window = window
        self.shift = shift
        self.mats = mats  # source degree -> matrix

    @classmethod
    def from_map(cls, window: PolWindow, shift: int, fmap):
        mats = {}
        for d in window.degrees():
            if d + shift not in window.basis or d + shift < 0:
                continue
            src = window.basis[d]
            tgt_index = window.index[d + shift]
            m = np.zeros((len(window.basis[d + shift]), len(src)), dtype=np.int64)
            for c, exps in enumerate(src):
                img = fmap(monomial(window.n, window.p, exps))
                for e, coeff in img.terms.items():
                    m[tgt_index[e], c] = coeff
            mats[d] = m % window.p
        return cls(window, shift, mats)

    def compose(self, other: "OperatorOnWindow") -> "OperatorOnWindow":
        """self ∘ other."""
        p = self.window.p
        mats = {}
        for d, m in other.mats.items():
            upper = self.mats.get(d + other.shift)
            if upper is not None:
                mats[d] = (upper @ m) % p
        return OperatorOnWindow(self.window, self.shift + other.shift, mats)

    def __add__(self, other):
        if self.shift != other.shift:
            raise ValueError("shift mismatch")
        p = self.window.p
        mats = {}
        for d in set(self.mats) & set(other.mats):
            mats[d] = (self.mats[d] + other.mats[d]) % p
        return OperatorOnWindow(self.window, self.shift, mats)

    def __sub__(self, other):
        if self.shift != other.shift:
            raise ValueError("shift mismatch")
        p = self.window.p
        mats = {}
        for d in set(self.mats) & set(other.mats):
            mats[d] = (self.mats[d] - other.mats[d]) % p
        return OperatorOnWindow(self.window, self.shift, mats)

    def scale(self, c: int):
        p = self.window.p
        return OperatorOnWindow(
            self.window, self.shift, {d: (m * c) % p for d, m in self.mats.items()}
        )

    def equals(self, other: "OperatorOnWindow") -> bool:
        """Equality on all shared degrees (the windowed notion)."""
        if self.shift != other.shift:
            return False
        shared = set(self.mats) & set(other.mats)
        if not shared:
            raise ValueError("no common window to compare on")
        return all(np.array_equal(self.mats[d], other.mats[d]) for d in shared)

    def is_zero(self) -> bool:
        return all(not m.any() for m in self.mats.values())


def _pol_diff_operator(window: PolWindow) -> OperatorOnWindow:
    return OperatorOnWindow.from_map(window, 2, lambda f: f.diff())


def nh_differential(t: OperatorOnWindow) -> OperatorOnWindow:
    """Commutator of t with the polynomial differential ∂(x_i) = x_i²."""
    d = _pol_diff_operator(t.window)
    return d.compose(t) - t.compose(d)


def nilhecke_relations_check(n: int, p: int, window: int):
    """Exact nilHecke relations on Pol_n, checked as windowed operators.

    Verifies δ_i² = 0, the braid relation, and both dot-slide identities
    x_i δ_i − δ_i x_{i+1} = 1 = δ_i x_i − x_{i+1} δ_i.  Returns
    (ok, first failing relation or None).
    """
    if n == 1:
        return True, None
    if window < 4 * n:
        raise ValueError("window too small to be conclusive")
    win = PolWindow(n, p, window)
    x = [
        OperatorOnWindow.from_map(win, 2, lambda f, i=i: monomial(n, p, tuple(
            1 if j == i else 0 for j in range(n))) * f)
        for i in range(n)
    ]
    dd = [
        OperatorOnWindow.from_map(win, -2, lambda f, i=i: demazure(i + 1, f))
        for i in range(n - 1)
    ]
    ident = OperatorOnWindow.from_map(win, 0, lambda f: f)
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


# --------------------------------------------------------------------------
# block modules and their endomorphism algebras
# --------------------------------------------------------------------------


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
    return _end_algebra_cached((1,) * p, p).scalar_complex()


def nh_acyclicity_check(p: int, cap=None):
    """Whether the windowed END realization of (NH_p, ∂) has H_/ = 0.

    NH_p = END_{Sym_p}(Pol_p·v) with the twisted module generator; in the
    staircase basis the module differential is scalar, so the matrix
    p-complex is Sym_p^{trunc} ⊗ (V ⊗ V^*) and its slash dims follow from
    string statistics.  Returns (ok, dims, valid_cap).
    """
    v = staircase_complex(p)
    if cap is None:
        span = v.max_degree() - v.min_degree()
        cap = 2 * span + 4 * p * p + 2 * p
    u_stats = tensor_stats(v.string_stats(), v.dual().string_stats(), p)
    r_stats = sym_pcomplex(p, p, cap).string_stats()
    dims = slash_dims_from_stats(tensor_stats(r_stats, u_stats, p), p)
    ok = all(not v for v in dims.values())
    valid_cap = min(r_stats.cap + u_stats.min_head(), cap) - 2 * (p - 1)
    return ok, dims, valid_cap


@functools.cache
def _box_labels(rows: int, cols: int):
    return pt.partitions_in_box(rows, cols)


class GrassModule:
    """S_{a,b} = Sym_a ⊗ Sym_b · v over Sym_{a+b}, ∂(v) = −a e_1(x') v.

    The ∂-stable basis {π_λ(x')·v : λ ∈ P(b, a)} carries the content
    differential with twist −a: λ ↦ λ+box with coefficient (content − a);
    the box escaping through column a+1 has content exactly a, hence
    coefficient 0.  The generator degree is −ab.
    """

    def __init__(self, a, b, p):
        self.a = a
        self.b = b
        self.p = p
        self.basis = list(_box_labels(b, a))
        self.degrees = [2 * sum(lam) - a * b for lam in self.basis]
        self.diff = _content_complex(p, self.basis, -a, INF, max_rows=b).diff

    def complex(self) -> PComplex:
        return PComplex(self.p, self.basis, self.degrees, self.diff, cap=INF)

    def graded_rank(self) -> LaurentPoly:
        out: dict[int, int] = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return LaurentPoly(out)


def grass_module(a: int, b: int, p: int) -> GrassModule:
    return GrassModule(a, b, p)


def grass_rank_ok(gm: GrassModule) -> bool:
    """Graded rank over Sym_{a+b} equals the Gaussian binomial [a+b, b]."""
    return gm.graded_rank() == qbinom(gm.a + gm.b, gm.b)


class BlockOp:
    """A Sym_N-linear operator on the block module, given by a local rule
    on block coordinates.

    Crossings, dots and the module differential all act block-locally, so
    arbitrary composites stay cheap: no free-basis expansion is involved.
    Two Sym_N-linear operators are equal iff they agree on the free basis,
    which `equals` checks exactly.
    """

    __slots__ = ("alg", "fn", "shift")

    def __init__(self, alg, fn, shift):
        self.alg = alg
        self.fn = fn
        self.shift = shift

    def __call__(self, elem: dict) -> dict:
        return self.fn(elem)

    def compose(self, other: "BlockOp") -> "BlockOp":
        if other.alg is not self.alg:
            raise ValueError("operators over different modules")
        return BlockOp(
            self.alg, lambda e: self.fn(other.fn(e)), self.shift + other.shift
        )

    def __add__(self, other):
        if self.shift != other.shift:
            raise ValueError("shift mismatch")
        p = self.alg.p

        def fn(e):
            out = dict(self.fn(e))
            for t, c in other.fn(e).items():
                val = (out.get(t, 0) + c) % p
                if val:
                    out[t] = val
                elif t in out:
                    del out[t]
            return out

        return BlockOp(self.alg, fn, self.shift)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        p = self.alg.p
        return BlockOp(
            self.alg,
            lambda e: {t: (v * c) % p for t, v in self.fn(e).items() if (v * c) % p},
            self.shift,
        )

    def images(self):
        return [self.fn({t: 1}) for t in self.alg.basis]

    def is_zero(self) -> bool:
        return all(not img for img in self.images())

    def equals(self, other: "BlockOp") -> bool:
        if self.shift != other.shift:
            return False
        return self.images() == other.images()

    def commutator_with_diff(self) -> "BlockOp":
        """[∂_M, T], the differential of T in the endomorphism p-complex."""
        d = self.alg.op_diff()
        return d.compose(self) - self.compose(d)


class EndAlgebra:
    """END_{Sym_N}(block module) with the ∂-stable free basis.

    `blocks` lists the tensor block sizes; the free basis over Sym_N is
    indexed by tuples (λ_1, ..., λ_r) with λ_i ∈ P(b_i, b_1+...+b_{i−1}),
    so λ_1 = () always.  Elements of END are the Sym_N-linear `BlockOp`s;
    D is the module differential on the free basis, whose structure
    constants are scalars.
    """

    SIZE_GUARD = 400

    def __init__(self, blocks, p):
        self.blocks = tuple(blocks)
        self.p = p
        self.nvars = sum(blocks)
        prefixes = [sum(blocks[:i]) for i in range(len(blocks))]
        per_block = [
            _box_labels(b, pre) for b, pre in zip(self.blocks, prefixes)
        ]
        size = math.prod(len(x) for x in per_block)
        if size > self.SIZE_GUARD:
            raise ValueError(f"module rank {size} exceeds the guard {self.SIZE_GUARD}")
        self.basis = sorted(
            itertools.product(*per_block),
            key=lambda t: (sum(sum(l) for l in t), t),
        )
        self.pos = {t: i for i, t in enumerate(self.basis)}
        shift = -sum(
            self.blocks[i] * self.blocks[j]
            for i in range(len(blocks))
            for j in range(i + 1, len(blocks))
        )
        self.degrees = [2 * sum(sum(l) for l in t) + shift for t in self.basis]
        self.gen_degree = shift
        # op_diff read off on the free basis, which it must preserve: a box
        # leaving an index rectangle carries coefficient exactly 0
        self.D: dict[int, dict[int, int]] = {}
        for j, img in enumerate(self.op_diff().images()):
            if any(t not in self.pos for t in img):
                raise AssertionError("escaping box with nonzero coefficient")
            if img:
                self.D[j] = {self.pos[t]: c for t, c in img.items()}
        self._expansion = _Coordinates(p, self._expansion_basis, "free module expansion")
        self._scalar_strings = None
        self._u_coords = _Coordinates(
            p, lambda d: _slot_basis(self._u_strings(), d), "V⊗V^* string slots"
        )
        self._r_string_cache: dict = {}

    # ---- expansion of module elements over the free basis ----

    def _poly_degree_tuples(self, pd):
        """All block-partition tuples of total size pd/2."""
        out = []
        sizes = pd // 2

        def rec(bi, left, prefix):
            if bi == len(self.blocks):
                if left == 0:
                    out.append(tuple(prefix))
                return
            for m in range(left + 1):
                for lam in pt.partitions_of(m, max_rows=self.blocks[bi]):
                    prefix.append(lam)
                    rec(bi + 1, left - m, prefix)
                    prefix.pop()

        rec(0, sizes, [])
        return sorted(out)

    def _expansion_basis(self, pd):
        """The products π_ν · basis_j of polynomial degree pd, labelled
        (j, ν), which must form a basis of the block coordinates of that
        degree."""
        cols = []
        col_vecs = []
        for j, t in enumerate(self.basis):
            rest = pd - 2 * sum(sum(l) for l in t)
            if rest < 0 or rest % 2:
                continue
            for nu in pt.partitions_of(rest // 2, max_rows=self.nvars):
                cols.append((j, nu))
                col_vecs.append(self._basis_times_sym(j, nu))
        return cols, col_vecs, len(self._poly_degree_tuples(pd))

    def _basis_times_sym(self, j, nu):
        """Block coordinates of π_ν(all variables) · basis_j."""
        p = self.p
        t = self.basis[j]
        out: dict[tuple, int] = {}
        for parts, c in split_blocks(nu, self.blocks, p).items():
            combos = [((), 1)]
            for bi in range(len(self.blocks)):
                prod = pt.lr_expand(parts[bi], t[bi])
                nxt = []
                for tup, cc in combos:
                    for kappa, k in prod.items():
                        if len(kappa) > self.blocks[bi] or not k % p:
                            continue
                        nxt.append((tup + (kappa,), (cc * k) % p))
                combos = nxt
            for tup, cc in combos:
                val = (out.get(tup, 0) + c * cc) % p
                if val:
                    out[tup] = val
                elif tup in out:
                    del out[tup]
        return out

    def expand(self, elem: dict) -> dict:
        """Free-basis coordinates of a module element in block coordinates.

        elem: {tuple of per-block partitions: coeff}; returns
        {basis index: SchurPoly over Sym_N}.
        """
        by_pd: dict[int, dict] = {}
        for t, c in elem.items():
            pd = 2 * sum(sum(l) for l in t)
            by_pd.setdefault(pd, {})[t] = c % self.p
        out: dict[int, dict] = {}
        for pd, part in by_pd.items():
            for (j, nu), c in self._expansion(pd, part).items():
                out.setdefault(j, {})[nu] = c
        return {
            j: SchurPoly(self.p, coeffs, self.nvars) for j, coeffs in out.items()
        }

    # ---- dots, crossings and the differential, as local operators ----

    def op_identity(self) -> BlockOp:
        return BlockOp(self, lambda e: dict(e), 0)

    def op_dot(self, k: int) -> BlockOp:
        """Multiplication by e_{b_k}^{b_k} on block k (1-based)."""
        bi = k - 1
        b = self.blocks[bi]
        dotpart = (b,) * b  # (x_1...x_b)^b = π_{(b^b)} in b variables
        p = self.p

        def fn(elem):
            out: dict[tuple, int] = {}
            for t, c0 in elem.items():
                for kappa, c in pt.lr_expand(t[bi], dotpart).items():
                    if len(kappa) > b:
                        continue
                    key = t[:bi] + (kappa,) + t[bi + 1 :]
                    val = (out.get(key, 0) + c0 * c) % p
                    if val:
                        out[key] = val
                    elif key in out:
                        del out[key]
            return out

        return BlockOp(self, fn, 2 * b * b)

    def op_crossing(self, k: int) -> BlockOp:
        """The Demazure composite interchanging blocks k and k+1 (equal
        sizes)."""
        bi = k - 1
        a, b = self.blocks[bi], self.blocks[bi + 1]
        if a != b:
            raise ValueError("crossing needs equal adjacent block sizes")
        p = self.p

        def fn(elem):
            out: dict[tuple, int] = {}
            for t, c0 in elem.items():
                for (al, be), c in _pair_crossing(t[bi], t[bi + 1], a, p).items():
                    key = t[:bi] + (al, be) + t[bi + 2 :]
                    val = (out.get(key, 0) + c0 * c) % p
                    if val:
                        out[key] = val
                    elif key in out:
                        del out[key]
            return out

        return BlockOp(self, fn, -2 * a * b)

    def op_diff(self) -> BlockOp:
        """The module differential on arbitrary block coordinates: in block
        i a box is added with coefficient (content − prefix size); no
        rectangle constraint applies off the free basis."""
        p = self.p
        twists = [-sum(self.blocks[:i]) for i in range(len(self.blocks))]

        def fn(elem):
            out: dict[tuple, int] = {}
            for t, c0 in elem.items():
                for bi, lam in enumerate(t):
                    for mu, coeff in pt.add_box(lam, twists[bi], max_rows=self.blocks[bi]):
                        c = (c0 * coeff) % p
                        if not c:
                            continue
                        key = t[:bi] + (mu,) + t[bi + 1 :]
                        val = (out.get(key, 0) + c) % p
                        if val:
                            out[key] = val
                        elif key in out:
                            del out[key]
            return out

        return BlockOp(self, fn, 2)

    # ---- the p-complex structure ----

    def scalar_complex(self) -> PComplex:
        """The finite complex V on the free basis with the scalar module
        differential."""
        return PComplex(self.p, list(self.basis), list(self.degrees), self.D, cap=INF)

    def end_stats_factors(self):
        v = self.scalar_complex()
        sv = v.string_stats()
        svd = v.dual().string_stats()
        return tensor_stats(sv, svd, self.p)

    def slash_hilbert(self, cap: int):
        """Graded dims of H_/(END) on the valid window, via string stats.

        Returns (dims: {k: {degree: dim}}, valid_cap).
        """
        u_stats = self.end_stats_factors()
        r_stats = sym_pcomplex(self.nvars, self.p, cap).string_stats()
        total = tensor_stats(r_stats, u_stats, self.p)
        dims = slash_dims_from_stats(total, self.p)
        return dims, total.cap - 2 * (self.p - 1)

    # ---- coboundary membership ----

    def _u_strings(self):
        if self._scalar_strings is None:
            v = self.scalar_complex()
            vs = v.string_decompose()
            vds = v.dual().string_decompose()
            self._scalar_strings = tensor_strings(
                vs, vds, self.p, lambda i, j: (i, j)
            )
        return self._scalar_strings

    def _r_strings(self, cap):
        """Sym_N truncated at cap, its strings, and coordinates over their
        slots."""
        if cap not in self._r_string_cache:
            r = sym_pcomplex(self.nvars, self.p, cap)
            strings = r.string_decompose()
            coords = _Coordinates(
                self.p, lambda d: _slot_basis(strings, d), "Sym_N string slots"
            )
            self._r_string_cache[cap] = (r, strings, coords)
        return self._r_string_cache[cap]

    def is_slash_coboundary(self, x: BlockOp) -> bool:
        """Membership of x in Im(∂^{p−1}) of the END p-complex.

        Expands the images of the free basis into entries over Sym_N, then
        decomposes END = Sym^{trunc} ⊗ (V⊗V^*) into string ⊗ string blocks
        and tests membership block by block; this is exact because the
        image of a direct sum is the direct sum of the images.  Raises
        ValueError unless every entry f at (i, j) has degree
        deg f + deg_i − deg_j = x.shift.
        """
        if x.alg is not self:
            raise ValueError("operator over a different module")
        p = self.p
        g = x.shift
        entries: dict[tuple, SchurPoly] = {}
        for j, img in enumerate(x.images()):
            for i, f in self.expand(img).items():
                if f.homogeneous_degree() + self.degrees[i] - self.degrees[j] != g:
                    raise ValueError(f"entry ({i}, {j}) is not of degree {g}")
                entries[(i, j)] = f
        if not entries:
            return True
        maxpoly = max(f.degree() for f in entries.values())
        cap = maxpoly + 2 * p
        r, rstrings, r_coords = self._r_strings(cap)
        r_index = {lam: i for i, lam in enumerate(r.labels)}
        blocks: dict[tuple, dict] = {}
        for (i, j), f in entries.items():
            du = self.degrees[i] - self.degrees[j]
            ucoords = self._u_coords(du, {(i, j): 1})
            rc = r_coords(g - du, {r_index[lam]: c for lam, c in f.terms.items()})
            for (rs, rslot), c1 in rc.items():
                for (us, uslot), c2 in ucoords.items():
                    vec = blocks.setdefault((rs, us), {})
                    slot = (rslot, uslot)
                    val = (vec.get(slot, 0) + c1 * c2) % p
                    if val:
                        vec[slot] = val
                    elif slot in vec:
                        del vec[slot]
        ustrings = self._u_strings()
        for (rs, us), vec in blocks.items():
            if not vec:
                continue
            rstr = rstrings[rs]
            # cut strings live entirely above the degrees x touches, by the
            # cap choice; a nonzero component there would be unsound
            if rstr.length < p and rstr.head_degree + 2 * (p - 1) > cap:
                raise AssertionError("component on a possibly cut string")
            if vec not in _jj_image(rstr.length, ustrings[us].length, p):
                return False
        return True


@functools.cache
def _jj_image(l1, l2, p):
    """Im(∂^{p−1}) in J_{l1}⊗J_{l2}, over (s,t) keys."""
    c = jj_complex(l1, l2, p)
    images = []
    for j in range(c.dim):
        vec = {j: 1}
        for _ in range(p - 1):
            vec = c.apply(vec)
        if vec:
            images.append({c.labels[i]: v for i, v in vec.items()})
    return linalg.SparseSpan(images, p)


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
    `linalg.SparseSpan` per degree, built on first use.

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
            span = linalg.SparseSpan(vectors, self.p)
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


@functools.cache
def _pair_crossing(alpha, beta, b, p):
    """Action of the block-swap Demazure composite on
    π_α(x-block) · π_β(x'-block), both blocks of size b, in pair-Schur
    coordinates: {(α', β'): coeff}."""
    f = _two_block_schur(alpha, b, beta, b, p)
    g = demazure_word(block_swap_word(b, b), f)
    return _pair_schur_coords(g, b)


def _two_block_schur(alpha, a, beta, b, p) -> PolElem:
    """π_α(x)·π_β(x′) in a + b variables: x the first a, x′ the last b."""
    terms: dict[tuple, int] = {}
    for e1, c1 in pt.schur_monomials(alpha, a).items():
        for e2, c2 in pt.schur_monomials(beta, b).items():
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
        for lam, c in pt.monomial_to_schur_coords(coords, b, modulus=p).items():
            mid[(lam, k2)] = c
    second: dict[tuple, dict] = {}
    for (lam, k2), c in mid.items():
        second.setdefault(lam, {})[tuple(x for x in k2 if x)] = c
    out: dict[tuple, int] = {}
    for lam, coords in second.items():
        for mu, c in pt.monomial_to_schur_coords(coords, b, modulus=p).items():
            out[(lam, mu)] = c
    return out


# --------------------------------------------------------------------------
# public construction surface
# --------------------------------------------------------------------------


@functools.cache
def _end_algebra_cached(blocks: tuple, p: int) -> EndAlgebra:
    return EndAlgebra(blocks, p)


def end_algebra(a: int, b: int, p: int) -> EndAlgebra:
    """END_{Sym_{a+b}}(S_{a,b}) as a p-DG algebra handle; handles are
    canonical per (blocks, p), so operators from separate calls compose."""
    return _end_algebra_cached((a, b), p)


def thick_crossing(a: int, b: int, p: int) -> BlockOp:
    """The block-swap Demazure composite as an element of END(S_{a,b});
    equal block sizes only."""
    if a != b:
        raise ValueError("the crossing endomorphism needs a = b")
    return _end_algebra_cached((a, b), p).op_crossing(1)


def theta_plus(kind: str, k: int, a: int, p: int) -> BlockOp:
    """Image of a nilHecke generator in END(S_{(p^a)}).

    kind "dot": the k-th dot ↦ multiplication by e_p^p(block k), degree 2p².
    kind "crossing": the k-th crossing ↦ the thick crossing on blocks
    (k, k+1), degree −2p².
    """
    alg = _end_algebra_cached((p,) * a, p)
    if kind == "dot":
        if not 1 <= k <= a:
            raise ValueError("dot index out of range")
        return alg.op_dot(k)
    if kind == "crossing":
        if not 1 <= k <= a - 1:
            raise ValueError("crossing index out of range")
        return alg.op_crossing(k)
    raise ValueError("kind must be 'dot' or 'crossing'")


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


def nh_graded_dims(a: int, p: int, lo: int, hi: int) -> dict:
    """Graded dims of NH_a with generators dilated to degrees ±2p², within
    [lo, hi]: the square of the length generating function of S_a times the
    Hilbert series of Sym_a, all in steps of 2p²."""
    step = 2 * p * p
    poincare: dict[int, int] = {0: 1}
    for i in range(2, a + 1):
        nxt: dict[int, int] = {}
        for l, c in poincare.items():
            for j in range(i):
                nxt[l + j] = nxt.get(l + j, 0) + c
        poincare = nxt
    shifts: dict[int, int] = {}
    for l1, c1 in poincare.items():
        for l2, c2 in poincare.items():
            d = step * (l1 - l2)
            shifts[d] = shifts.get(d, 0) + c1 * c2
    out: dict[int, int] = {}
    maxm = (hi - min(shifts)) // step + 1
    sym_dims = {0: 1}
    # partitions with parts ≤ a, graded by size, give Hilbert(Sym_a)
    for m in range(1, maxm + 1):
        sym_dims[m] = len(pt.partitions_of(m, max_part=a))
    for d0, c0 in shifts.items():
        for m, cm in sym_dims.items():
            d = d0 + step * m
            if lo <= d <= hi:
                out[d] = out.get(d, 0) + c0 * cm
    return {d: c for d, c in out.items() if c}


def thick_nilhecke_check(a: int, p: int, hilbert_extra: int = None) -> dict:
    """All four thick nilHecke verifications in END(S_{(p^a)}).

    (1) each crossing squares to zero exactly;
    (2) adjacent crossings satisfy the braid relation exactly (a ≥ 3);
    (3) both dot-slide identities hold modulo Im(∂^{p−1}), i.e. the defect
        against the identity is a slash coboundary;
    (4) the graded dims of H_/(END) match NH_a with degrees dilated by p²
        on the trusted window.

    Returns a report dict with one entry per sub-check plus the caps used.
    """
    if a * p > THICK_MAX_AP:
        raise ValueError(f"a*p > {THICK_MAX_AP} exceeds the size guard")
    alg = _end_algebra_cached((p,) * a, p)
    report: dict[str, object] = {"a": a, "p": p}
    crossings = {k: alg.op_crossing(k) for k in range(1, a)}
    dots = {k: alg.op_dot(k) for k in range(1, a + 1)}
    report["crossing_squared_zero"] = all(
        c.compose(c).is_zero() for c in crossings.values()
    )
    if a >= 3:
        braids = []
        for k in range(1, a - 1):
            lhs = crossings[k].compose(crossings[k + 1]).compose(crossings[k])
            rhs = crossings[k + 1].compose(crossings[k]).compose(crossings[k + 1])
            braids.append(lhs.equals(rhs))
        report["braid_exact"] = all(braids)
    else:
        report["braid_exact"] = True
    ident = alg.op_identity()
    slides = []
    for k in range(1, a):
        for xop in (
            dots[k].compose(crossings[k]) - crossings[k].compose(dots[k + 1]) - ident,
            crossings[k].compose(dots[k]) - dots[k + 1].compose(crossings[k]) - ident,
        ):
            if xop.is_zero():
                slides.append(True)
                continue
            if not xop.commutator_with_diff().is_zero():
                slides.append(False)
                continue
            slides.append(alg.is_slash_coboundary(xop))
    report["dot_slide_mod_coboundary"] = all(slides)
    span = max(alg.degrees) - min(alg.degrees)
    extra = hilbert_extra if hilbert_extra is not None else 4 * p * p + 2
    cap = span + 2 * (p - 1) + extra
    dims, valid_cap = alg.slash_hilbert(cap)
    total = {}
    for k in dims:
        for d, c in dims[k].items():
            total[d] = total.get(d, 0) + c
    lo = min(alg.degrees) - max(alg.degrees)
    expect = nh_graded_dims(a, p, lo, valid_cap)
    report["hilbert_cap"] = cap
    report["hilbert_valid_up_to"] = valid_cap
    report["hilbert_matches_nilhecke"] = total == expect
    report["ok"] = all(
        report[k]
        for k in (
            "crossing_squared_zero",
            "braid_exact",
            "dot_slide_mod_coboundary",
            "hilbert_matches_nilhecke",
        )
    )
    return report


def end_formality_check(p: int, extra: int = None) -> dict:
    """H_/(END(S_{p,p})) against the 2×2 matrix algebra over the polynomial
    ring on generators of degrees 2p² and 4p², with the two shifts ±2p²
    coming from the minimal nontrivial expanded-box class."""
    alg = _end_algebra_cached((p, p), p)
    span = max(alg.degrees) - min(alg.degrees)
    if extra is None:
        extra = 4 * p * p + 2
    cap = span + 2 * (p - 1) + extra
    dims, valid_cap = alg.slash_hilbert(cap)
    total: dict[int, int] = {}
    for k in dims:
        for d, c in dims[k].items():
            total[d] = total.get(d, 0) + c
    # target: shifts {−2p²: 1, 0: 2, 2p²: 1} over k[g_1, g_2] with
    # deg g_1 = 2p², deg g_2 = 4p²; that ring has floor(t/2)+1 monomials
    # in degree 2p²·t.
    step = 2 * p * p
    shifts = {-step: 1, 0: 2, step: 1}
    lo = min(alg.degrees) - max(alg.degrees)
    expect: dict[int, int] = {}
    for s, c in shifts.items():
        t = 0
        while s + step * t <= valid_cap:
            d = s + step * t
            if d >= lo:
                expect[d] = expect.get(d, 0) + c * (t // 2 + 1)
            t += 1
    return {
        "p": p,
        "cap": cap,
        "valid_up_to": valid_cap,
        "ok": total == expect,
        "dims": total,
        "expected": expect,
    }
