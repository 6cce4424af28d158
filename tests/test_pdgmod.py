import itertools
import random

import pytest

import coboundary_oracle
import demazure_oracle
import expansion_oracle
from demazure_oracle import (
    PolElem,
    PolWindow,
    block_swap_word,
    demazure,
    demazure_word,
    monomial,
)
from library_extras import (
    SparseSpan,
    bar,
    partitions_of,
    slash_cohomology,
    staircase_complex,
    sym_pcomplex,
    tensor,
    twist_pcomplex,
    vab_pcomplex,
    vi_pcomplex,
)
from qfrob import linalg
from qfrob import partitions as pt
from qfrob import pdgmod
from qfrob.cyclotomic import qbinom
from qfrob.pcomplex import SlashCohomology, dual, tensor_stats
from qfrob.pdgmod import (
    BlockOp,
    BlockRules,
    EndAlgebra,
    end_algebra,
    end_formality_check,
    grass_rank_ok,
    module_rank,
    nh_acyclicity_check,
    nh_graded_dims,
    nilhecke_least_window,
    nilhecke_relations_check,
    pairing_value,
    thick_nilhecke_check,
)
from qfrob.symfunc import SchurPoly, twist_stats


class TestDemazure:
    def test_kills_constants_and_linears(self):
        assert demazure(1, monomial(2, 3, (1, 0))) == PolElem.one(2, 3)
        assert demazure(1, PolElem.one(2, 3)).is_zero()

    def test_kills_symmetric(self):
        g = monomial(3, 5, (1, 1, 1)) + 2 * (
            monomial(3, 5, (2, 1, 0))
            + monomial(3, 5, (2, 0, 1))
            + monomial(3, 5, (1, 2, 0))
            + monomial(3, 5, (0, 2, 1))
            + monomial(3, 5, (1, 0, 2))
            + monomial(3, 5, (0, 1, 2))
        )
        assert demazure(1, g).is_zero() and demazure(2, g).is_zero()

    def test_square_divided(self):
        out = demazure(1, monomial(2, 3, (2, 0)))
        assert out == monomial(2, 3, (1, 0)) + monomial(2, 3, (0, 1))

    def test_twisted_leibniz(self):
        # δ(fg) = δ(f)g + s(f)δ(g); checked on an asymmetric pair
        f = monomial(2, 5, (2, 0))
        g = monomial(2, 5, (0, 1))
        fs = monomial(2, 5, (0, 2))  # s_1(f)
        lhs = demazure(1, f * g)
        rhs = demazure(1, f) * g + fs * demazure(1, g)
        assert lhs == rhs


class TestNilHeckeRelations:
    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 5)])
    def test_relations_hold(self, n, p):
        ok, detail = nilhecke_relations_check(n, p, 4 * n)
        assert ok, detail

    def test_single_strand_vacuous(self):
        assert nilhecke_relations_check(1, 3, 8) == (True, None)

    def test_window_guard(self):
        with pytest.raises(ValueError):
            nilhecke_relations_check(2, 3, 6)
        # 24 = 4n lies below n(n-1) = 30, the top degree of the Sym_6-basis
        # of Pol_6
        with pytest.raises(ValueError):
            nilhecke_relations_check(6, 5, 24)

    def test_wrong_demazure_in_one_degree_fails(self, monkeypatch):
        _mutate_crossing(monkeypatch, _doubled_at_six)
        assert nilhecke_relations_check(3, 3, 12) == (
            False,
            "dot slide (left) fails at 1",
        )


# Mutants of the crossing δ_i, as maps (i, f, δ_i f, p) -> the image to use
# instead, with f and δ_i f as {exponents: coeff}; each is applied to the
# block-rule crossing and to the oracle's Demazure operator alike.
def _doubled_at_six(i, f, g, p):
    if max((2 * sum(e) for e in f), default=None) != 6:
        return g
    return {e: 2 * c % p for e, c in g.items() if 2 * c % p}


def _second_negated(i, f, g, p):
    return {e: -c % p for e, c in g.items()} if i == 2 else g


def _cubes_dropped(i, f, g, p):
    return {e: c for e, c in g.items() if e[i - 1] < 3}


def _one_fixed(i, f, g, p):
    one = {e: c for e, c in f.items() if not any(e)}
    return {**g, **one}


# −1 = 1 at p = 2, so negation is no mutant there
CROSSING_MUTANTS = [
    pytest.param(m, p, id=f"{m.__name__}-{p}")
    for m in (_doubled_at_six, _second_negated, _cubes_dropped, _one_fixed)
    for p in (2, 3, 5)
    if (m, p) != (_second_negated, 2)
]


def _mutate_crossing(monkeypatch, mutant):
    """Make `BlockRules.op_crossing` apply `mutant`, reading the block
    coordinates (c,) or () of one-variable blocks as exponents c."""
    real = pdgmod.BlockRules.op_crossing

    def exps(elem):
        return {tuple(lam[0] if lam else 0 for lam in t): c for t, c in elem.items()}

    def mutated(self, k):
        op = real(self, k)

        def fn(elem):
            img = mutant(k, exps(elem), exps(op(elem)), self.p)
            return {tuple((c,) if c else () for c in e): v for e, v in img.items()}

        return BlockOp(self, fn, op.shift)

    monkeypatch.setattr(pdgmod.BlockRules, "op_crossing", mutated)


class TestRelationRoutes:
    """The block rules against the oracle's monomial window."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_same_verdicts(self, n, p):
        least = nilhecke_least_window(n)
        for window in (least, least + 4):
            got = nilhecke_relations_check(n, p, window)
            assert got == demazure_oracle.relations_check(n, p, window) == (True, None)

    @pytest.mark.parametrize("mutant,p", CROSSING_MUTANTS)
    def test_same_verdicts_on_mutants(self, monkeypatch, mutant, p):
        def delta(i, f):
            return PolElem(f.n, p, mutant(i, f.terms, demazure(i, f).terms, p))

        verdicts = set()
        for n in (2, 3, 4):
            window = nilhecke_least_window(n)
            want = demazure_oracle.relations_check(n, p, window, delta)
            with monkeypatch.context() as m:
                _mutate_crossing(m, mutant)
                assert nilhecke_relations_check(n, p, window) == want
            verdicts.add(want)
        # every mutant breaks a relation somewhere
        assert any(not ok for ok, _ in verdicts)

    def test_lists_no_free_basis(self, monkeypatch):
        # Pol_n has rank n! over Sym_n, over EndAlgebra.SIZE_GUARD from n = 6
        # on; the check must never build the free basis the guard protects
        def refuse(*args):
            raise AssertionError("free basis listed")

        monkeypatch.setattr(pdgmod.EndAlgebra, "__init__", refuse)
        monkeypatch.setattr(pdgmod, "end_algebra", refuse)
        monkeypatch.setattr(pt, "partitions_in_box", refuse)
        assert nilhecke_relations_check(4, 3, 16) == (True, None)


class TestNhDifferential:
    def test_multiplication_operator(self):
        win = PolWindow(2, 3, 10)
        x1 = win.op(2, lambda f: monomial(2, 3, (1, 0)) * f)
        img = x1.commutator_with_diff()
        sq = win.op(4, lambda f: monomial(2, 3, (2, 0)) * f)
        # the commutator of a multiplication operator is multiplication by
        # the derivative
        assert img.shift == 4
        assert img.equals(sq)

    def test_identity_commutes(self):
        win = PolWindow(2, 3, 10)
        ident = win.op(0, lambda f: f)
        assert ident.commutator_with_diff().is_zero()

    def test_divided_difference_closed_form(self):
        # [∂, δ_1] = −e_1 δ_1 on two variables
        win = PolWindow(2, 5, 12)
        dd = win.op(-2, lambda f: demazure(1, f))
        e1 = monomial(2, 5, (1, 0)) + monomial(2, 5, (0, 1))
        target = win.op(0, lambda f: e1 * demazure(1, f)).scale(-1)
        assert dd.commutator_with_diff().equals(target)

    def test_pointwise_up_to_degree_ten(self):
        win = PolWindow(2, 3, 10)
        comm = win.op(-2, lambda f: demazure(1, f)).commutator_with_diff()
        assert max(2 * sum(e) for e in win.basis) == 10
        for e in win.basis:
            f = monomial(2, 3, e)
            # [∂, δ_1](f) = ∂(δ_1 f) − δ_1(∂ f), evaluated directly
            direct = demazure(1, f).diff() - demazure(1, f.diff())
            assert comm({e: 1}) == direct.terms


BUILT_V_SHAPES = [
    ((2, 2), 2),
    ((2, 2, 2), 2),
    ((3, 3), 3),
    ((1, 1, 1), 3),
    ((1,) * 5, 5),
    ((2, 1), 3),
    ((1, 2), 2),
    ((3, 1, 2), 5),
    ((1, 3), 2),
    ((2, 3), 3),
]


class TestNhAcyclicity:
    @pytest.mark.parametrize("p", [2, 3])
    def test_acyclic(self, p):
        ok, dims, cap = nh_acyclicity_check(p)
        assert ok, dims
        assert cap > 4 * p * p

    def test_staircase_is_contractible(self):
        for p in (2, 3, 5):
            strs = staircase_complex(p).string_decompose()
            assert all(s.length == p for s in strs)

    @pytest.mark.parametrize("blocks, p", [((1, 1), 2), ((1, 1, 1), 3), ((2, 1), 3)])
    def test_slash_hilbert_is_the_tensor_complex_slash(self, blocks, p):
        # END = Sym_N^{trunc} ⊗ V ⊗ V^*, built out and decided directly
        alg = EndAlgebra(blocks, p)
        v = alg.scalar_complex()
        for cap in (2 * (p - 1), 4 * p * p):
            sl = alg.slash_hilbert(cap)
            assert isinstance(sl, SlashCohomology)
            whole = tensor(sym_pcomplex(sum(blocks), p, cap), tensor(v, dual(v)))
            assert sl == slash_cohomology(whole)

    @pytest.mark.parametrize("blocks, p", BUILT_V_SHAPES)
    def test_slash_hilbert_matches_built_v(self, blocks, p):
        # V and V^* read off beads, against the statistics of the built V
        alg = end_algebra(blocks, p)
        v = alg.scalar_complex()
        cap = max(alg.degrees) - min(alg.degrees) + 4 * p * p
        u_stats = tensor_stats(v.string_stats(), dual(v).string_stats(), p)
        built = tensor_stats(twist_stats(alg.nvars, 0, p, cap), u_stats, p).slash()
        assert alg.slash_hilbert(cap) == built

    @pytest.mark.parametrize("blocks, p", BUILT_V_SHAPES)
    def test_dual_coordinates_rebuild_the_dual_basis(self, blocks, p):
        # each reading of `_strings` is over the basis b^*_{s,t} dual to the
        # slots of the other complex's strings: solved for here, it spans
        # strings of the built complex with slot u = (−1)^u b^*_{s,ℓ−1−u},
        # and over those slots the read coordinates rebuild its basis
        alg = end_algebra(blocks, p)
        v = alg.scalar_complex()
        vd = dual(v)
        for built, other, (lengths, coords) in zip((v, vd), (vd, v), alg._strings):
            strings = other.string_decompose()
            assert lengths == [string.length for string in strings]
            keys = [(s, t) for s, string in enumerate(strings) for t in range(string.length)]
            span = SparseSpan([strings[s].slots[t] for s, t in keys], p)
            # b^*_k(e_i) is the k-th coordinate of e_i over the slots
            b_star = {k: {} for k in range(len(keys))}
            for i in range(other.dim):
                for k, c in span.coords({i: 1}).items():
                    b_star[k][i] = c
            pos = {key: k for k, key in enumerate(keys)}
            slots = {}
            for s, string in enumerate(strings):
                vec = b_star[pos[(s, string.length - 1)]]
                for u in range(string.length):
                    expect = {i: (-1) ** u * c % p for i, c in b_star[pos[(s, string.length - 1 - u)]].items()}
                    assert vec == expect, (s, u)
                    slots[(s, u)] = vec
                    vec = built.apply(vec)
                assert not vec
            for j in range(built.dim):
                got = {}
                for key, c in coords[j].items():
                    for i, x in slots[key].items():
                        got[i] = (got.get(i, 0) + c * x) % p
                assert {i: c for i, c in got.items() if c} == {j: 1}, j

    @pytest.mark.parametrize("blocks, p", [((1, 1), 2), ((1, 1, 1), 3), ((3, 3), 3)])
    def test_empty_window_decides_nothing(self, blocks, p):
        alg = EndAlgebra(blocks, p)
        for cap in range(2 * (p - 1)):
            sl = alg.slash_hilbert(cap)
            assert sl.valid_window[1] < sl.valid_window[0]
            with pytest.raises(ValueError, match="empty valid window"):
                sl.is_zero()
        alg.slash_hilbert(2 * (p - 1)).is_zero()

    @pytest.mark.parametrize("p", [2, 3])
    def test_sym_subcomplex_not_acyclic(self, p):
        sl = slash_cohomology(sym_pcomplex(p, p, 4 * p * p))
        assert not sl.is_zero()

    def test_plain_commutator_is_not_acyclic(self):
        # without the generator twist the identity matrix survives in H_{/0}
        # of END(Pol_2) at p = 2: the only degree −2 elements are multiples
        # of E_12 and ∂(E_12) = e_1·E_12 ≠ Id
        p = 2
        # complex on E_11, E_22, E_12 coefficients at END-degree 0 and the
        # single coefficient at degree −2, with the plain commutator rule
        # ∂(E_11) = e_2 E_12, ∂(E_22) = e_2 E_12, ∂(E_12) = e_1 E_12
        labels = ["E12", "E11", "E22", "e1E12", "e2E12"]
        degrees = [-2, 0, 0, 0, 2]
        diff = {0: {3: 1}, 1: {4: 1}, 2: {4: 1}}
        from qfrob.pcomplex import PComplex

        c = PComplex(p, labels, degrees, diff, cap=2)
        sl = slash_cohomology(c)
        assert sl.dims[0].get(0, 0) >= 1  # the class of the identity


def _box_rule_diff(labels, twists, p):
    """The box-adding rule written out on labels that are tuples of block
    partitions: block k gains the box at row r, column c (0-based) with
    coefficient c − r + twists[k] mod p, when the grown label is a label."""
    pos = {t: i for i, t in enumerate(labels)}
    diff = {}
    for j, t in enumerate(labels):
        row = {}
        for k, lam in enumerate(t):
            for r in range(len(lam) + 1):
                c = lam[r] if r < len(lam) else 0
                if r and lam[r - 1] == c:
                    continue  # (r, c) is not an addable box
                target = t[:k] + (lam[:r] + (c + 1,) + lam[r + 1 :],) + t[k + 1 :]
                coeff = (c - r + twists[k]) % p
                if coeff and target in pos:
                    row[pos[target]] = coeff
        if row:
            diff[j] = row
    return diff


# name: (builder of the complex, twist of each block).  EndAlgebra.D is read
# through the complexes built on it; block k of a block module is twisted by
# minus the number of variables before it.
BOX_RULE_CASES = {
    "sym": (lambda: sym_pcomplex(4, 3, 30), (0,)),
    "twist": (lambda: twist_pcomplex(4, 2, 3, 30), (2,)),
    "vab": (lambda: vab_pcomplex(1, 2, 3), (0,)),
    "vi": (lambda: vi_pcomplex(2, 2, 3), (2,)),
    "grass_23_3": (lambda: end_algebra((2, 3), 3).scalar_complex(), (0, -2)),
    "grass_31_2": (lambda: end_algebra((3, 1), 2).scalar_complex(), (0, -3)),
    "end_212_3": (lambda: EndAlgebra((2, 1, 2), 3).scalar_complex(), (0, -2, -3)),
    "end_22_2": (lambda: EndAlgebra((2, 2), 2).scalar_complex(), (0, -2)),
    "staircase_3": (lambda: staircase_complex(3), (0, -1, -2)),
    "staircase_5": (lambda: staircase_complex(5), (0, -1, -2, -3, -4)),
}


@pytest.mark.parametrize("case", sorted(BOX_RULE_CASES))
def test_box_rule(case):
    build, twists = BOX_RULE_CASES[case]
    c = build()
    # one-block complexes are labelled by bare partitions
    labels = c.labels if len(twists) > 1 else [(lam,) for lam in c.labels]
    assert c.diff and c.diff == _box_rule_diff(labels, twists, c.p)


class TestGrassModule:
    """S_{a,b} is the block module with blocks (a, b)."""

    def test_basis_and_rank_11(self):
        alg = end_algebra((1, 1), 2)
        assert alg.basis == [((), ()), ((), (1,))]
        assert alg.degrees == [-1, 1]
        assert alg.graded_rank() == qbinom(2, 1)

    def test_diff_matrix_11_p2(self):
        alg = end_algebra((1, 1), 2)
        # ∂(v) = −e_1(x')·v = −π_(1)(x')·v ≡ π_(1)(x')·v mod 2
        assert alg.D == {0: {1: 1}}

    def test_generator_killed_for_p_blocks(self):
        for p in (2, 3):
            alg = end_algebra((p, p), p)
            assert alg.basis[0] == ((), ())
            # the empty partition maps only through contents ≢ 0; the twist
            # −p vanishes, so ∂(v) = Σ C(box)π_box with C(box) = content
            img = alg.D.get(0, {})
            # box at (0,0) has content 0: ∂(v) = 0
            assert img == {}

    @pytest.mark.parametrize("a,b,p", [(1, 1, 2), (2, 2, 3), (3, 1, 2), (1, 3, 3), (2, 1, 5)])
    def test_rank_identity(self, a, b, p):
        assert grass_rank_ok(a, b, p)

    @pytest.mark.parametrize("a,b,p", [(1, 2, 3), (2, 2, 2)])
    def test_diff_nilpotent_and_raising(self, a, b, p):
        alg = end_algebra((a, b), p)
        c = alg.scalar_complex()
        assert c.validation_error() is None
        for j, row in alg.D.items():
            for i in row:
                assert sum(map(sum, alg.basis[i])) == sum(map(sum, alg.basis[j])) + 1

    def test_dual_module_consistency(self):
        # dual twist is −b·e_1(x) on the P(a,b)-indexed basis: same scalar
        # construction with the roles swapped; rank is the bar image
        for a, b, p in [(1, 2, 3), (2, 1, 2)]:
            assert grass_rank_ok(b, a, p)
            assert end_algebra((b, a), p).graded_rank() == bar(qbinom(a + b, a))


class TestBlockSwap:
    def test_word_11(self):
        assert block_swap_word(1, 1) == [1]

    def test_two_words_same_operator(self):
        for a, b in [(1, 2), (2, 2)]:
            w1 = block_swap_word(a, b)
            w2 = block_swap_word(a, b, "last")
            f = monomial(a + b, 3, tuple(range(a + b, 0, -1)))
            assert demazure_word(w1, f) == demazure_word(w2, f)

    def test_pairing_sign_derivation(self):
        # (a, b) = (1, 1): ∂_1(x_1) = 1, ∂_1(x_2) = −1: the global sign is +1
        assert pairing_value(1, 1, 3, (1,), ()) == 1
        assert pairing_value(1, 1, 3, (), (1,)) % 3 == 3 - 1

    def test_pairing_22(self):
        p = 5
        a = b = 2
        for lam in pt.partitions_in_box(a, b):
            for mu in pt.partitions_in_box(b, a):
                if sum(lam) + sum(mu) != a * b:
                    continue
                val = pairing_value(a, b, p, lam, mu) % p
                hat = pt.complement(lam, a, b)
                expect = (-1) ** sum(mu) % p if mu == hat else 0
                assert val == expect, (lam, mu)


class TestCrossingRule:
    """The straightening rule against the monomial round trip."""

    def test_pair_crossing_matches_oracle(self):
        seen = nonzero = 0
        for b in (1, 2, 3):
            parts = [lam for m in range(7) for lam in partitions_of(m, max_rows=b)]
            for p in (2, 3, 5):
                for alpha in parts:
                    for beta in parts:
                        got = pdgmod._pair_crossing(alpha, beta, b, p)
                        assert got == demazure_oracle.pair_crossing(alpha, beta, b, p), (
                            alpha, beta, b, p,
                        )
                        seen += 1
                        nonzero += bool(got)
        assert (seen, nonzero) == (2502, 582)

    def test_pairing_matches_oracle(self):
        seen = 0
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                for p in (2, 3, 5):
                    for lam in pt.partitions_in_box(a, b):
                        for mu in pt.partitions_in_box(b, a):
                            if sum(lam) + sum(mu) != a * b:
                                continue
                            assert pairing_value(a, b, p, lam, mu) == (
                                demazure_oracle.pairing_value(a, b, p, lam, mu)
                            ), (a, b, p, lam, mu)
                            seen += 1
        assert seen == 312

    def test_too_many_rows_is_zero(self):
        assert pt.swap_pushforward((1, 1, 1), 2, (), 2) is None
        assert pt.swap_pushforward((), 2, (2, 1, 1), 2) is None
        assert pdgmod._pair_crossing((1, 1, 1), (), 2, 3) == {}


class TestEndAlgebra:
    def test_identity_is_cocycle_for_p_blocks(self):
        for p in (2, 3):
            alg = end_algebra((p, p), p)
            assert alg.op_identity().commutator_with_diff().is_zero()

    def test_size_guard(self):
        with pytest.raises(ValueError):
            EndAlgebra((10, 10), 2)

    def test_crossing_11_matrix(self):
        alg = end_algebra((1, 1), 2)
        c = alg.op_crossing(1)
        one = SchurPoly.one(2, 2)
        assert [alg.expand(img) for img in c.images()] == [{}, {0: one}]

    @pytest.mark.parametrize("p", [2, 3])
    def test_crossing_squares_to_zero(self, p):
        c = end_algebra((p, p), p).op_crossing(1)
        assert c.compose(c).is_zero()

    @staticmethod
    def _times_e1_block2(alg):
        """Multiplication by e_1 of the second block's variables."""
        b, p = alg.blocks[1], alg.p

        def fn(elem):
            out = {}
            for t, c0 in elem.items():
                for kappa, c in pt.lr_expand(t[1], (1,)).items():
                    if len(kappa) <= b:
                        key = (t[0], kappa) + t[2:]
                        out[key] = (out.get(key, 0) + c0 * c) % p
            return {key: c for key, c in out.items() if c}

        return BlockOp(alg, fn, 2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_is_slash_coboundary(self, p):
        alg = end_algebra((p, p), p)
        # the identity is a cocycle whose class is nonzero
        assert not alg.is_slash_coboundary(alg.op_identity())
        t = self._times_e1_block2(alg)
        x = t
        for _ in range(p - 1):
            x = x.commutator_with_diff()
        assert not x.is_zero()
        assert alg.is_slash_coboundary(x)
        # entries of degree 2 under a declared shift of 0
        with pytest.raises(ValueError):
            alg.is_slash_coboundary(BlockOp(alg, t.fn, 0))
        with pytest.raises(ValueError):
            alg.is_slash_coboundary(end_algebra((1, 1), p).op_identity())

    def test_expand_roundtrip(self):
        alg = end_algebra((2, 2), 2)
        # an element equal to e_1(all)·basis_0 expands with coefficient e_1
        coords = expansion_oracle.basis_times_sym(alg, 0, (1,))
        out = alg.expand(coords)
        assert list(out) == [0]
        assert out[0] == SchurPoly(2, {(1,): 1}, 4)


def _slide_defects(alg, a):
    """Both dot-slide defects at each crossing of the thick check."""
    ident = alg.op_identity()
    out = []
    for k in range(1, a):
        c, d1, d2 = alg.op_crossing(k), alg.op_dot(k), alg.op_dot(k + 1)
        out.append(d1.compose(c) - c.compose(d2) - ident)
        out.append(c.compose(d1) - d2.compose(c) - ident)
    return out


def _random_element(alg, rng):
    """A few block-coordinate terms, at most 3 boxes per block."""
    return {
        tuple(
            rng.choice(partitions_of(rng.randint(0, 3), max_rows=b))
            for b in alg.blocks
        ): rng.randrange(1, alg.p)
        for _ in range(rng.randint(1, 6))
    }


class TestExpansionTower:
    """`EndAlgebra.expand` merges one block at a time; the all-columns
    solve of `expansion_oracle` must give the same coordinates."""

    def test_slide_defects_match_oracle(self):
        seen = 0
        for a, p in ((2, 2), (3, 2), (2, 3)):
            alg = pdgmod.end_algebra((p,) * a, p)
            for x in _slide_defects(alg, a):
                for img in x.images():
                    assert alg.expand(img) == expansion_oracle.expand(alg, img)
                    seen += 1
        assert seen == 412

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize(
        "blocks",
        [(1, 1), (1, 2), (2, 1), (1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 1, 1),
         (2, 3), (3, 1, 1), (3, 3), (2, 2, 2)],
    )
    def test_random_elements_match_oracle(self, blocks, p):
        alg = pdgmod.end_algebra(blocks, p)
        rng = random.Random(str((blocks, p)))
        for _ in range(15):
            elem = _random_element(alg, rng)
            assert alg.expand(elem) == expansion_oracle.expand(alg, elem), elem

    def test_builds_few_columns(self, monkeypatch):
        # every slide defect at blocks (2, 2, 2), p = 2, expands without an
        # elimination
        reduced = []
        real = linalg._reduce

        def spy(pivots, vec, p):
            reduced.append(len(vec))
            return real(pivots, vec, p)

        monkeypatch.setattr(linalg, "_reduce", spy)
        alg = EndAlgebra((2, 2, 2), 2)
        for x in _slide_defects(alg, 3):
            for img in x.images():
                alg.expand(img)
        assert reduced == []


class TestInTopImage:
    """`pdgmod._in_top_image`, Im(∂^{p−1}) of J_a ⊗ J_b as one alternating
    vector per level, against the solve over the images of ∂^{p−1}
    (`coboundary_oracle.jj_image`)."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_vector_on_every_level(self, p):
        verdicts = {False: 0, True: 0}
        for a in range(1, p + 1):
            for b in range(1, p + 1):
                image = coboundary_oracle.jj_image(a, b, p)
                for level in range(a + b - 1):
                    slots = [(i, level - i) for i in range(a) if 0 <= level - i < b]
                    for coeffs in itertools.product(range(p), repeat=len(slots)):
                        vec = {st: c for st, c in zip(slots, coeffs) if c}
                        got = pdgmod._in_top_image(vec, a, b, p)
                        assert got == (vec in image), (a, b, vec)
                        verdicts[got] += 1
        assert min(verdicts.values()) > 0

    def test_random_vectors_p7(self):
        p = 7
        rng = random.Random(7)
        verdicts = {False: 0, True: 0}
        for a in range(1, p + 1):
            for b in range(1, p + 1):
                c = coboundary_oracle.jj_complex(a, b, p)
                image = coboundary_oracle.jj_image(a, b, p)
                for _ in range(80):
                    # ∂^{p−1} of a random vector, sometimes changed at a slot
                    vec = {k: rng.randrange(p) for k in range(c.dim)}
                    for _ in range(p - 1):
                        vec = c.apply(vec)
                    vec = {c.labels[k]: x for k, x in vec.items()}
                    if rng.random() < 0.5:
                        slot = c.labels[rng.randrange(c.dim)]
                        x = (vec.get(slot, 0) + rng.randrange(1, p)) % p
                        vec = {**vec, slot: x} if x else {k: y for k, y in vec.items() if k != slot}
                    got = pdgmod._in_top_image(vec, a, b, p)
                    assert got == (vec in image), (a, b, vec)
                    verdicts[got] += 1
        assert min(verdicts.values()) > 0


class TestCoboundaryOracle:
    """`EndAlgebra.is_slash_coboundary` reads Sym_N off bead segments (free
    summands plus one line per filled partition) and V ⊗ V^* one string
    pair at a time, with V^* read off V's strings; the route over a built
    truncated Sym_N and explicit strings of V ⊗ V^* in `coboundary_oracle`
    must give the same verdicts."""

    def test_closed_candidates_match_oracle(self):
        verdicts = []
        for a, p in ((2, 2), (3, 2), (2, 3)):
            alg = pdgmod.end_algebra((p,) * a, p)
            ident = alg.op_identity()
            candidates = [ident]
            for x in _slide_defects(alg, a):
                candidates += [x, x.scale(2), x - ident]
            for x in candidates:
                if x.is_zero():
                    continue  # the doubles at p = 2
                assert x.commutator_with_diff().is_zero()
                got = alg.is_slash_coboundary(x)
                assert got == coboundary_oracle.is_slash_coboundary(alg, x)
                verdicts.append(got)
        assert len(verdicts) == 21
        # the 3 identities and the 8 defects minus the identity
        assert verdicts.count(False) == 11


class TestDuals:
    """The pairing table behind `EndAlgebra.expand`."""

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_matches_oracle(self, a, b):
        # the monomial oracle takes 2-6 s per prime at (4, 4)
        for p in (2,) if a == b == 4 else (2, 3, 5):
            table = {}
            for t in pt.partitions_in_box(b, a):
                row = {
                    s: demazure_oracle.pairing_value(a, b, p, s, t)
                    for s in pt.partitions_in_box(a, b)
                    if sum(s) + sum(t) == a * b
                }
                (hit,) = [(s, eps) for s, eps in row.items() if eps]
                table[t] = hit
            assert pdgmod._duals(a, b, p) == table, (a, b, p)

    @pytest.mark.parametrize(
        "wrong",
        [lambda s, t, eps: eps or sum(s) == 2,  # s = (2), (1, 1) both pair
         lambda s, t, eps: eps if s != (1,) else 0],  # (1) pairs with nothing
        ids=["extra", "missing"],
    )
    def test_wrong_pairing_raises(self, wrong, monkeypatch):
        real = pdgmod.pairing_value
        monkeypatch.setattr(
            pdgmod, "pairing_value",
            lambda a, b, p, s, t: int(wrong(s, t, real(a, b, p, s, t))),
        )
        pdgmod._duals.cache_clear()
        try:
            with pytest.raises(AssertionError, match="no dual basis"):
                pdgmod._duals(2, 2, 3)
        finally:
            pdgmod._duals.cache_clear()


class TestThetaPlus:
    def test_images_are_cocycles(self):
        for kind, k in [("dot", 1), ("dot", 2), ("crossing", 1)]:
            alg = end_algebra((2, 2), 2)
            m = alg.op_dot(k) if kind == "dot" else alg.op_crossing(k)
            assert m.commutator_with_diff().is_zero()

    @staticmethod
    def _expanded_degrees(op):
        """deg f + deg_i − deg_j over the expanded entries f at (i, j)."""
        alg = op.alg
        return {
            f.homogeneous_degree() + alg.degrees[i] - alg.degrees[j]
            for j, img in enumerate(op.images())
            for i, f in alg.expand(img).items()
        }

    def test_degrees(self):
        assert self._expanded_degrees(end_algebra((2, 2), 2).op_dot(1)) == {8}
        assert self._expanded_degrees(end_algebra((2, 2), 2).op_crossing(1)) == {-8}
        assert self._expanded_degrees(end_algebra((3, 3), 3).op_dot(1)) == {18}

    def test_index_guards(self):
        with pytest.raises(ValueError):
            end_algebra((2, 2), 2).op_dot(3)
        with pytest.raises(ValueError):
            end_algebra((2, 2), 2).op_crossing(2)

    def test_dot_image_is_block_multiplication(self):
        # on S_{(p,p)} with p = 2 the first dot multiplies by e_2² in the
        # first block: its operator fixes the module basis up to expansion
        alg = end_algebra((2, 2), 2)
        op = alg.op_dot(1)
        img = op({((), ()): 1})
        assert img == {(((2, 2)), ()): 1} or img == {((2, 2), ()): 1}


class TestBlockIndices:
    """Block k of r blocks takes a dot for 1 ≤ k ≤ r and a crossing with
    block k + 1 for 1 ≤ k ≤ r − 1; any other k is refused, not wrapped
    around through a negative index."""

    @pytest.mark.parametrize("blocks", [(2, 2), (1, 1, 1), (3,)])
    def test_out_of_range_raises(self, blocks):
        rules = BlockRules(blocks, 2)
        r = len(blocks)
        for k in (0, r + 1):
            with pytest.raises(ValueError):
                rules.op_dot(k)
        for k in (0, r):
            with pytest.raises(ValueError):
                rules.op_crossing(k)

    def test_module_rank_counts_the_free_basis(self):
        for blocks in [(1, 1, 1), (2, 3), (3, 1), (2, 1, 2), (1,) * 5]:
            assert module_rank(blocks) == len(EndAlgebra(blocks, 2).basis)

    def test_in_range_builds(self):
        rules = BlockRules((1, 1, 1), 2)
        assert [rules.op_dot(k).shift for k in (1, 2, 3)] == [2, 2, 2]
        assert [rules.op_crossing(k).shift for k in (1, 2)] == [-2, -2]


class TestCrossingLinearity:
    @pytest.mark.parametrize("p", [2, 3])
    def test_commutes_with_symmetric_multiplication(self, p):
        # ∂_w(e_k(all 2p vars)·f) = e_k(all)·∂_w(f) for low-degree f
        m = 2 * p
        word = block_swap_word(p, p)
        import itertools

        for k in (1, 2):
            terms = {}
            for comb in itertools.combinations(range(m), k):
                e = [0] * m
                for i in comb:
                    e[i] = 1
                terms[tuple(e)] = 1
            ek = PolElem(m, p, terms)
            for exps in [(2,) + (0,) * (m - 1), (1, 1) + (0,) * (m - 2)]:
                f = monomial(m, p, exps)
                assert demazure_word(word, ek * f) == ek * demazure_word(word, f)


class TestThickNilHecke:
    def test_a2_p2_full_report(self):
        rep = thick_nilhecke_check(2, 2)
        assert rep["ok"], rep

    def test_a1_trivial(self):
        rep = thick_nilhecke_check(1, 2)
        assert rep["ok"], rep

    def test_a2_p3(self):
        rep = thick_nilhecke_check(2, 3)
        assert rep["ok"], rep

    def test_guard(self):
        with pytest.raises(ValueError):
            thick_nilhecke_check(4, 2)

    def test_nh_dims_a1(self):
        dims = nh_graded_dims(1, 2, -8, 24)
        assert dims == {0: 1, 8: 1, 16: 1, 24: 1}


class TestFormality:
    @pytest.mark.parametrize("p", [2, 3])
    def test_end_spp(self, p):
        rep = end_formality_check(p)
        assert rep["ok"], rep
        step = 2 * p * p
        # (t^{-s} + 2 + t^s) over k[g_1, g_2]: dims 1, 3, 5, 7 at −s, 0, s, 2s
        assert [rep["dims"].get(step * i) for i in (-1, 0, 1, 2)] == [1, 3, 5, 7]


class TestTextForms:
    def test_schurpoly_text(self):
        from qfrob.symfunc import SchurPoly

        f = SchurPoly(3, {(2, 1): 2, (1,): 1, (): 1})
        assert f.to_text() == "1*s[] + 1*s[1] + 2*s[2,1]"
        assert SchurPoly.zero(3).to_text() == "0"
