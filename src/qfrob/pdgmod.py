"""NilHecke operators, Grassmannian block modules and their endomorphism
p-DG algebras over characteristic-p symmetric polynomials.

The module has three layers.

1.  The nilHecke algebra NH_n = END_{Sym_n}(Pol_n), generated by
    multiplication by variables and the divided-difference (Demazure)
    operators δ_i(f) = (f − s_i f)/(x_i − x_{i+1}).  Pol_n is the block
    module of layer 2 with blocks (1, ..., 1): the block coordinate (c,) of
    block i is x_i^c, the dot rule of block i is x_i and the crossing rule
    of blocks i, i+1 is δ_i (`BlockRules`), so NH_n runs on the same rules
    as the thick crossings and dots of layer 3.  Relations are checked by
    evaluating both sides exactly on every monomial of degree ≤ cap; since
    the relations are equalities of homogeneous Sym_n-linear operators,
    windowed equality at sufficient width decides them.  Sufficient width
    is cap ≥ max(4n, n(n−1)) (`nilhecke_least_window`): with deg x_i = 2,
    n(n−1) is the top degree of the Sym_n-basis x^a (a_i ≤ n−i) of Pol_n,
    so the window holds a whole basis and a Sym_n-linear operator is
    determined by its values there.

2.  Block modules: for block sizes (b_1, ..., b_r), the free module
    Sym_{b_1} ⊗ ... ⊗ Sym_{b_r} · v over Sym_N, N = Σ b_i, with the
    generator twist ∂(v) = −Σ_{i≥2} (b_1+..+b_{i−1}) e_1(block i) · v.
    The free basis {Π_i π_{λ_i}(block i) · v : λ_i ∈ P(b_i, b_1+..+b_{i−1})}
    is ∂-stable with *scalar* structure constants: each basis vector maps to
    single-box neighbours with coefficient (content − prefix size), and
    boxes leaving the index rectangle carry coefficient exactly 0.  The
    blocks (a, b) give the Grassmannian module S_{a,b}, of graded rank
    [a+b, b] over Sym_{a+b} (`grass_rank_ok`).  The free basis is a tower
    of these: the labels P(b_i, A) of block i, A = b_1+..+b_{i−1}, are the
    Grassmannian basis of Sym_A ⊗ Sym_{b_i} over Sym_{A+b_i}.

3.  Endomorphism algebras END_{Sym_N}(module), whose elements are
    block-local operators (`BlockOp`): rules on block coordinates that are
    composed and compared on the free basis, with differential the
    commutator with the module differential.  Module elements are expanded
    over the free basis block by block, by Grassmannian duality
    (`EndAlgebra.expand`).  Expanded so, END is the tensor product
    Sym_N ⊗ V ⊗ V^* (V the free basis with the scalar module
    differential), which keeps slash cohomology and coboundary membership
    small: slash dims come from the string statistics of the factors, read
    off bead segments, with Sym_N truncated.  Coboundaries need no
    truncation: Sym_N is free summands plus one line per partition that
    fills its bead segments (`symfunc.fills_segments`), so a cocycle is a
    coboundary exactly when each line's component in V ⊗ V^* is one.  That
    is decided one string pair J ⊗ J at a time, where Im(∂^{p−1}) is one
    alternating vector per level; the coordinates of V's basis over the
    slots of its strings are read off the strings of V^*, and those of
    V^*'s basis off the strings of V, so nothing is solved.

Thick crossings are the Demazure composites ∂_w of the minimal-length
block-interchange permutation w.  On a product of Schur polynomials of the
two blocks, ∂_w straightens to one signed Schur polynomial in both blocks
(`partitions.swap_pushforward`), which the coproduct splits back into the
blocks; no monomial is formed.  Dots multiply a p-block by e_p^p.  Sending
nilHecke dots/crossings (with degrees dilated by p²) to these operators
defines the thickening of NH_a into END of the p-block module, whose
relation and slash-cohomology checks live here as well.
"""

from __future__ import annotations

import functools
import itertools
import math

from . import partitions as pt
from .cyclotomic import LaurentPoly, qbinom, qfact
from .pcomplex import INF, PComplex, SlashCohomology, StringStats, dual, tensor_stats
from .symfunc import SchurPoly, fills_segments, split_blocks, sym_hilbert, twist_stats

__all__ = [
    "nilhecke_least_window",
    "nilhecke_relations_check",
    "nh_acyclicity_check",
    "grass_rank_ok",
    "BlockRules",
    "EndAlgebra",
    "BlockOp",
    "end_algebra",
    "module_rank",
    "pairing_value",
    "thick_nilhecke_check",
    "end_formality_check",
    "nh_graded_dims",
    "THICK_MAX_AP",
]

# The largest a·p at which thick_nilhecke_check works on END(S_{(p^a)}).
THICK_MAX_AP = 6


# --------------------------------------------------------------------------
# the nilHecke algebra on a window of Pol_n
# --------------------------------------------------------------------------


def nilhecke_least_window(n: int) -> int:
    """The least window at which `nilhecke_relations_check` decides the
    relations on all of Pol_n: it must reach n(n−1), the top degree of the
    Sym_n-basis x^a (a_i ≤ n−i), and never falls below 4n."""
    return max(4 * n, n * (n - 1))


def nilhecke_relations_check(n: int, p: int, window: int):
    """Exact nilHecke relations on Pol_n, checked on a window.

    Verifies δ_i² = 0, the braid relation, and both dot-slide identities
    x_i δ_i − δ_i x_{i+1} = 1 = δ_i x_i − x_{i+1} δ_i, evaluating both
    sides exactly on every monomial of degree ≤ window.  Returns
    (ok, first failing relation or None).
    """
    if n == 1:
        return True, None
    if window < nilhecke_least_window(n):
        raise ValueError("window too small to be conclusive")
    # Pol_n is the block module with blocks (1, ..., 1): x^e has the block
    # coordinates ((e_1,) or (), ...), x_i is the dot on block i and δ_i the
    # crossing of blocks i, i+1
    rules = BlockRules((1,) * n, p)
    x = [rules.op_dot(i) for i in range(1, n + 1)]
    dd = [rules.op_crossing(i) for i in range(1, n)]
    ident = rules.op_identity()
    # x^e for e ∈ N^n with |e| ≤ m, read off n bars among m + n slots
    m = window // 2
    monomials = [
        tuple((b - a - 1,) if b - a - 1 else () for a, b in zip((-1,) + bars, bars))
        for bars in itertools.combinations(range(m + n), n)
    ]

    def agree(lhs, rhs):
        return all(lhs({t: 1}) == rhs({t: 1}) for t in monomials)

    for i in range(n - 1):
        if any(dd[i].compose(dd[i])({t: 1}) for t in monomials):
            return False, f"delta_{i+1}^2 != 0"
    for i in range(n - 2):
        lhs = dd[i].compose(dd[i + 1]).compose(dd[i])
        rhs = dd[i + 1].compose(dd[i]).compose(dd[i + 1])
        if not agree(lhs, rhs):
            return False, f"braid relation fails at {i+1}"
    for i in range(n - 1):
        if not agree(x[i].compose(dd[i]) - dd[i].compose(x[i + 1]), ident):
            return False, f"dot slide (left) fails at {i+1}"
        if not agree(dd[i].compose(x[i]) - x[i + 1].compose(dd[i]), ident):
            return False, f"dot slide (right) fails at {i+1}"
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            if not agree(dd[i].compose(dd[j]), dd[j].compose(dd[i])):
                return False, f"distant crossings {i+1},{j+1} do not commute"
    return True, None


# --------------------------------------------------------------------------
# block modules and their endomorphism algebras
# --------------------------------------------------------------------------


def nh_acyclicity_check(p: int):
    """Whether the windowed END realization of (NH_p, ∂) has H_/ = 0.

    NH_p = END_{Sym_p}(Pol_p·v) with the twisted module generator; in the
    staircase basis x_2^{c_2}...x_p^{c_p} v, 0 ≤ c_i ≤ i−1, of the blocks
    (1, ..., 1) the module differential is scalar, so the matrix p-complex
    is Sym_p^{trunc} ⊗ (V ⊗ V^*) and its slash dims follow from string
    statistics.  Returns (ok, dims, valid_cap).
    """
    alg = end_algebra((1,) * p, p)
    cap = 2 * (max(alg.degrees) - min(alg.degrees)) + 4 * p * p + 2 * p
    sl = alg.slash_hilbert(cap)
    return sl.is_zero(), sl.dims, sl.valid_window[1]


def grass_rank_ok(a: int, b: int, p: int) -> bool:
    """The graded rank of S_{a,b} = Sym_a ⊗ Sym_b · v over Sym_{a+b},
    ∂(v) = −a e_1(x') v, equals the Gaussian binomial [a+b, b].

    S_{a,b} is the block module with blocks (a, b): its free basis
    ((), λ), λ ∈ P(b, a), carries the content differential with twist −a
    on the second block, and the generator degree is −ab.
    """
    return end_algebra((a, b), p).graded_rank() == qbinom(a + b, b)


class BlockOp:
    """A Sym-linear operator given by a rule on the coordinates of a space.

    The space `alg` provides `p`; rules map {key: coeff} dicts to such
    dicts.  `BlockRules` gives the rules for crossings, dots and the module
    differential on block coordinates, tuples of block partitions, which
    act block-locally; operators over it are applied directly, as the
    nilHecke relations are on a window of monomials.  An `EndAlgebra` adds
    the free basis as `basis`: `equals` compares the images of `basis`
    exactly, which decides equality of Sym_N-linear operators.  Composites
    stay cheap: no expansion over a basis is involved.
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


class BlockRules:
    """Dots, crossings and the module differential of the block module with
    block sizes `blocks`, as `BlockOp` rules on block coordinates: tuples
    (λ_1, ..., λ_r) standing for Π_i π_{λ_i}(block i) · v, with no bound on
    the λ_i.  No free basis is listed, so the rules apply at any size.
    """

    def __init__(self, blocks, p):
        self.blocks = tuple(blocks)
        self.p = p

    def op_identity(self) -> BlockOp:
        return BlockOp(self, lambda e: dict(e), 0)

    def op_dot(self, k: int) -> BlockOp:
        """Multiplication by e_{b_k}^{b_k} on block k (1-based)."""
        if not 1 <= k <= len(self.blocks):
            raise ValueError(f"dot index {k} out of range")
        bi = k - 1
        b = self.blocks[bi]
        dotpart = (b,) * b  # (x_1...x_b)^b = π_{(b^b)} in b variables
        p = self.p

        def fn(elem):
            out: dict[tuple, int] = {}
            for t, c0 in elem.items():
                for kappa, c in pt.lr_expand(t[bi], dotpart, b).items():
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
        if not 1 <= k <= len(self.blocks) - 1:
            raise ValueError(f"crossing index {k} out of range")
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


class EndAlgebra(BlockRules):
    """END_{Sym_N}(block module) with the ∂-stable free basis.

    `blocks` lists the tensor block sizes; the free basis over Sym_N is
    indexed by tuples (λ_1, ..., λ_r) with λ_i ∈ P(b_i, b_1+...+b_{i−1}),
    so λ_1 = () always.  Elements of END are the Sym_N-linear `BlockOp`s
    built from the `BlockRules`; D is the module differential on the free
    basis, whose structure constants are scalars.
    """

    SIZE_GUARD = 400

    def __init__(self, blocks, p):
        super().__init__(blocks, p)
        self.nvars = sum(blocks)
        prefixes = [sum(blocks[:i]) for i in range(len(blocks))]
        size = module_rank(self.blocks)
        if size > self.SIZE_GUARD:
            raise ValueError(f"module rank {size} exceeds the guard {self.SIZE_GUARD}")
        per_block = [
            pt.partitions_in_box(b, pre) for b, pre in zip(self.blocks, prefixes)
        ]
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
        # op_diff read off on the free basis, which it must preserve: a box
        # leaving an index rectangle carries coefficient exactly 0
        self.D: dict[int, dict[int, int]] = {}
        for j, img in enumerate(self.op_diff().images()):
            if any(t not in self.pos for t in img):
                raise AssertionError("escaping box with nonzero coefficient")
            if img:
                self.D[j] = {self.pos[t]: c for t, c in img.items()}

    # ---- expansion of module elements over the free basis ----

    def expand(self, elem: dict) -> dict:
        """Free-basis coordinates of a module element in block coordinates.

        elem: {tuple of per-block partitions: coeff}; returns
        {basis index: SchurPoly over Sym_N}.  Blocks 2, 3, ... are merged
        in turn into the blocks before them (`_merge_term`).
        """
        p = self.p
        # (merged partition, blocks not yet merged, labels so far): coeff
        state = {(t[0], t[1:], ()): c % p for t, c in elem.items() if c % p}
        for a, b in zip(itertools.accumulate(self.blocks), self.blocks[1:]):
            nxt: dict[tuple, int] = {}
            for (nu, rest, labels), c0 in state.items():
                for (t, mu), c in _merge_term(nu, rest[0], a, b, p).items():
                    key = (mu, rest[1:], labels + (t,))
                    nxt[key] = (nxt.get(key, 0) + c0 * c) % p
            state = {key: c for key, c in nxt.items() if c}
        out: dict[int, dict] = {}
        for (nu, _, labels), c in state.items():
            out.setdefault(self.pos[((),) + labels], {})[nu] = c
        return {j: SchurPoly(p, coeffs, self.nvars) for j, coeffs in out.items()}

    # ---- the p-complex structure ----

    def scalar_complex(self) -> PComplex:
        """The finite complex V on the free basis with the scalar module
        differential."""
        return PComplex(self.p, list(self.basis), list(self.degrees), self.D, cap=INF)

    def graded_rank(self) -> LaurentPoly:
        """The graded rank over Sym_N: Σ v^{deg b} over the free basis."""
        out: dict[int, int] = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return LaurentPoly(out)

    def slash_hilbert(self, cap: int) -> SlashCohomology:
        """H_/(END) with Sym_N truncated at cap, from the string statistics
        of END = Sym_N^{trunc} ⊗ V ⊗ V^*; it has no representatives.

        V is the tensor of its blocks' box complexes, block k on
        P(b_k, A_k) with twist −A_k (A_k the size of the blocks before it),
        shifted by the generator degree; V^* turns each string (h, ℓ) into
        (−h − 2(ℓ−1), ℓ)."""
        p = self.p
        v = StringStats(counts={(min(self.degrees), 1): 1}, cap=INF, p=p)
        for b, pre in zip(self.blocks, itertools.accumulate((0,) + self.blocks)):
            v = tensor_stats(v, twist_stats(b, -pre, p, INF, cols=pre), p)
        v_dual = {(-h - 2 * (l - 1), l): m for (h, l), m in v.counts.items()}
        u_stats = tensor_stats(v, StringStats(counts=v_dual, cap=INF, p=p), p)
        r_stats = twist_stats(self.nvars, 0, p, cap)
        return tensor_stats(r_stats, u_stats, p).slash()

    @functools.cached_property
    def _slash_totals(self):
        """(cap, totals, valid_cap): the graded dims of H_/(END) summed over
        k, at cap = (degree span of the free basis) + 2(p−1) + 4p² + 2."""
        p = self.p
        cap = max(self.degrees) - min(self.degrees) + 2 * (p - 1) + 4 * p * p + 2
        sl = self.slash_hilbert(cap)
        return cap, sl.total_dims(), sl.valid_window[1]

    # ---- coboundary membership ----

    @functools.cached_property
    def _strings(self):
        """The coordinates of V's basis e_i and of V^*'s basis e_j^* over the
        slots of strings of V and of V^*, each with the lengths of those
        strings: ((lengths, {i: coords}), (lengths, {j: coords})).  Each is
        read off the strings of the other complex (`_dual_strings`)."""
        v = self.scalar_complex()
        return (
            _dual_strings(dual(v).string_decompose(), self.p),
            _dual_strings(v.string_decompose(), self.p),
        )

    def is_slash_coboundary(self, x: BlockOp) -> bool:
        """Membership of x in Im(∂^{p−1}) of the END p-complex.

        Expands the images of the free basis into entries over Sym_N: an
        entry f at (i, j) is f ⊗ e_i ⊗ e_j^* in END = Sym_N ⊗ V ⊗ V^*.  By
        the Lines paragraph of `symfunc.fills_segments`, Sym_N is the sum of
        free summands and of lines π_λ with ∂ = 0, each spanned by part of
        the partition basis, and a free summand stays free in a tensor
        (J_ℓ ⊗ J_p ≅ ℓ·J_p).  So x is a coboundary exactly when it is a
        cocycle and, for each λ that fills its segments,
        u_λ = Σ [π_λ]f_ij · e_i ⊗ e_j^* is a coboundary of V ⊗ V^*.  The
        strings of V and V^* split V ⊗ V^* into pairs J_{l1} ⊗ J_{l2}, and
        each pair component of u_λ is tested against the image of ∂^{p−1}
        in its abstract pair, one alternating vector per level
        (`_in_top_image`).  Raises ValueError unless every entry f at
        (i, j) has degree deg f + deg_i − deg_j = x.shift.
        """
        if x.alg is not self:
            raise ValueError("operator over a different module")
        p = self.p
        g = x.shift
        lines: dict[tuple, dict] = {}
        for j, img in enumerate(x.images()):
            for i, f in self.expand(img).items():
                if f.homogeneous_degree() + self.degrees[i] - self.degrees[j] != g:
                    raise ValueError(f"entry ({i}, {j}) is not of degree {g}")
                for lam, c in f.terms.items():
                    if fills_segments(lam, self.nvars, p):
                        lines.setdefault(lam, {})[(i, j)] = c
        if not x.commutator_with_diff().is_zero():
            return False
        (v_lengths, v_at), (w_lengths, w_at) = self._strings
        for u in lines.values():
            pairs: dict[tuple, dict] = {}
            for (i, j), c1 in u.items():
                for (vs, vslot), c2 in v_at[i].items():
                    for (ws, wslot), c3 in w_at[j].items():
                        vec = pairs.setdefault((vs, ws), {})
                        slot = (vslot, wslot)
                        val = (vec.get(slot, 0) + c1 * c2 * c3) % p
                        if val:
                            vec[slot] = val
                        elif slot in vec:
                            del vec[slot]
            for (vs, ws), vec in pairs.items():
                if not _in_top_image(vec, v_lengths[vs], w_lengths[ws], p):
                    return False
        return True


def _dual_strings(strings, p):
    """(lengths, coords) of the strings dual to the strings of a complete
    p-complex W, whose slots are b_{s,t} = ∂^t(head_s).

    With b^*_{s,t} the basis of W^* dual to the slots,
    ∂^*(b^*_{s,t}) = −b^*_{s,t−1} (∂^* = −∂^T).  So W-string s of length ℓ
    gives a W^*-string of length ℓ whose slot u is (−1)^u·b^*_{s,ℓ−1−u},
    and the basis dual to W's, e_j^* = Σ (b_{s,t})_j·b^*_{s,t}, has the
    coordinates {(s, u): (−1)^u·(b_{s,ℓ−1−u})_j} over those slots: the
    j-entries of W's slots, with no solve.  As W^** = W, the strings of V^*
    give V's basis the same way."""
    coords: dict[int, dict] = {}
    for s, string in enumerate(strings):
        for t, slot in enumerate(string.slots):
            u = string.length - 1 - t
            for j, c in slot.items():
                coords.setdefault(j, {})[(s, u)] = (-1) ** u * c % p
    return [string.length for string in strings], coords


def _in_top_image(vec, a, b, p):
    """Whether vec, over the slot keys (s, t) of J_a ⊗ J_b with a, b ≤ p,
    lies in Im(∂^{p−1}).

    ∂^{p−1}(s, t) = Σ_k C(p−1, k)·(s+k, t+p−1−k), and C(p−1, k) ≡ (−1)^k
    (mod p).  On the level L = s+t+p−1 the slots (i, L−i) have
    i ∈ [max(0, L−b+1), min(a−1, L)], a range inside [s, s+p−1] since
    t ≥ b−p and s ≥ a−p.  So ∂^{p−1}(s, t) = (−1)^s·w_L with
    w_L = Σ_i (−1)^i·(i, L−i), and Im(∂^{p−1}) is spanned by the w_L with
    p−1 ≤ L ≤ a+b−2, max(0, a+b−p) of them.  A vector lies in it exactly
    when it is 0 on every level below p−1 and its coefficients alternate in
    sign along i on every other level.
    """
    levels: dict[int, dict] = {}
    for (s, t), c in vec.items():
        levels.setdefault(s + t, {})[s] = c
    for level, row in levels.items():
        if level < p - 1:
            return False
        lo, hi = max(0, level - b + 1), min(a - 1, level)
        c0 = row.get(lo, 0)
        if any((row.get(i, 0) - (-1) ** (i - lo) * c0) % p for i in range(lo, hi + 1)):
            return False
    return True


@functools.cache
def _duals(a, b, p):
    """{t: (t̂, ε_t)} for t ∈ P(b, a): the pairing ∂_w(π_s(x)·π_t(x′)) of
    Sym_a ⊗ Sym_b over Sym_{a+b}, s ∈ P(a, b), is ε_t ≠ 0 at the complement
    s = t̂ and 0 at every other s; raises unless the table says so."""
    out = {}
    for t in pt.partitions_in_box(b, a):
        t_hat = pt.complement(t, b, a)
        dual = [s for s in pt.partitions_in_box(a, b) if sum(s) + sum(t) == a * b]
        row = {s: pairing_value(a, b, p, s, t) for s in dual}
        if {s for s, eps in row.items() if eps} != {t_hat}:
            raise AssertionError(f"pairing {a, b} against {t} is {row}: no dual basis")
        out[t] = (t_hat, row[t_hat])
    return out


@functools.cache
def _merge_term(nu, beta, a, b, p):
    """f = π_ν(x)·π_β(x′) (x the first a, x′ the last b variables) over the
    Grassmannian basis π_t(x′), t ∈ P(b, a), of Sym_a ⊗ Sym_b over
    Sym_{a+b}, as {(t, μ): c} for Σ c·π_μ(x, x′)·π_t(x′).  By `_duals` the
    coefficient of π_t(x′) is ε_t^{−1}·∂_w(f·π_{t̂}(x)), 0 for |t| > |f|:
    one Littlewood-Richardson product and one straightening per term."""
    out: dict[tuple, int] = {}
    for t, (t_hat, eps) in _duals(a, b, p).items():
        if sum(t) > sum(nu) + sum(beta):
            continue
        for kappa, k in pt.lr_expand(nu, t_hat, a).items():
            hit = pt.swap_pushforward(kappa, a, beta, b)
            if hit:
                key = (t, hit[1])
                out[key] = (out.get(key, 0) + pow(eps, -1, p) * k * hit[0]) % p
    return {key: c for key, c in out.items() if c}


@functools.cache
def _pair_crossing(alpha, beta, b, p):
    """Action of the block-swap Demazure composite on
    π_α(x-block) · π_β(x'-block), both blocks of size b, in pair-Schur
    coordinates: {(α', β'): coeff}.  The composite straightens to ε·π_λ
    over both blocks (`partitions.swap_pushforward`), which the coproduct
    splits back into the blocks."""
    hit = pt.swap_pushforward(alpha, b, beta, b)
    if hit is None:
        return {}
    sign, lam = hit
    return {key: sign * c % p for key, c in split_blocks(lam, (b, b), p).items()}


# --------------------------------------------------------------------------
# public construction surface
# --------------------------------------------------------------------------


def module_rank(blocks) -> int:
    """The rank over Sym_N of the block module with these block sizes: the
    labels of block i are P(b_i, b_1+..+b_{i−1}), C(b_1+..+b_i, b_i) of
    them, so no label is listed."""
    return math.prod(
        math.comb(top, b) for top, b in zip(itertools.accumulate(blocks), blocks)
    )


@functools.cache
def end_algebra(blocks: tuple, p: int) -> EndAlgebra:
    """END of the block module with these block sizes as a p-DG algebra
    handle; handles are canonical per (blocks, p), so operators from
    separate calls compose."""
    return EndAlgebra(blocks, p)


def pairing_value(a: int, b: int, p: int, lam, mu):
    """∂_w(π_λ(x)·π_μ(x')) for the block swap of sizes (a, b); a scalar
    when |λ| + |μ| = ab, else raises."""
    if sum(lam) + sum(mu) != a * b:
        raise ValueError("pairing needs complementary total size ab")
    hit = pt.swap_pushforward(tuple(lam), a, tuple(mu), b)
    if hit is None or hit[1]:
        return 0
    return hit[0] % p


def nh_graded_dims(a: int, p: int, lo: int, hi: int) -> dict:
    """Graded dims of NH_a with generators dilated to degrees ±2p², within
    [lo, hi]: the square of the length generating function of S_a times the
    Hilbert series of Sym_a, all in steps of 2p²."""
    step = 2 * p * p
    # [a]! = Σ_ℓ #{w ∈ S_a : ℓ(w) = ℓ}·v^{2ℓ − a(a−1)/2}
    half = a * (a - 1) // 2
    poincare = {(e + half) // 2: c for e, c in qfact(a).coeffs.items()}
    shifts: dict[int, int] = {}
    for l1, c1 in poincare.items():
        for l2, c2 in poincare.items():
            d = step * (l1 - l2)
            shifts[d] = shifts.get(d, 0) + c1 * c2
    return sym_hilbert(a, step, shifts, lo, hi)


def thick_nilhecke_check(a: int, p: int) -> dict:
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
    alg = end_algebra((p,) * a, p)
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
    report["dot_slide_mod_coboundary"] = all(
        alg.is_slash_coboundary(xop)
        for k in range(1, a)
        for xop in (
            dots[k].compose(crossings[k]) - crossings[k].compose(dots[k + 1]) - ident,
            crossings[k].compose(dots[k]) - dots[k + 1].compose(crossings[k]) - ident,
        )
    )
    cap, total, valid_cap = alg._slash_totals
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


def end_formality_check(p: int) -> dict:
    """H_/(END(S_{p,p})) against the 2×2 matrix algebra over the polynomial
    ring on generators of degrees 2p² and 4p², with the two shifts ±2p²
    coming from the minimal nontrivial expanded-box class."""
    alg = end_algebra((p, p), p)
    cap, total, valid_cap = alg._slash_totals
    # target: shifts {−2p²: 1, 0: 2, 2p²: 1} over Sym_2 dilated by 2p²,
    # the ring on generators of degrees 2p² and 4p²
    step = 2 * p * p
    lo = min(alg.degrees) - max(alg.degrees)
    expect = sym_hilbert(2, step, {-step: 1, 0: 2, step: 1}, lo, valid_cap)
    return {
        "p": p,
        "cap": cap,
        "valid_up_to": valid_cap,
        "ok": total == expect,
        "dims": total,
        "expected": expect,
    }
