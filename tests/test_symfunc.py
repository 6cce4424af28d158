import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import demazure_oracle
import dense_oracle
import series_oracle
from library_extras import (
    _content_complex,
    complete,
    hilbert,
    independent_mod_coboundaries,
    omega,
    partitions_of,
    schur,
    slash_cohomology,
    slash_reps,
    sym_pcomplex,
    twist_pcomplex,
    vab_pcomplex,
    vi_pcomplex,
)
from qfrob import cli
from qfrob import partitions as pt
from qfrob.pcomplex import INF
from qfrob.pdgmod import nh_graded_dims
from qfrob.symfunc import (
    SchurPoly,
    _bead_distributions,
    _form_stats,
    elementary,
    fills_segments,
    lima_partitions,
    split_vars,
    sym_hilbert,
    theta0_gen,
    twist_stats,
)


def to_monomials(f: SchurPoly, nvars):
    out = {}
    for lam, c in f.terms.items():
        if len(lam) > nvars:
            continue
        for e, k in demazure_oracle.schur_monomials(lam, nvars).items():
            out[e] = (out.get(e, 0) + c * k) % f.p
    return {k: v for k, v in out.items() if v}


small_partition = st.lists(st.integers(1, 4), min_size=0, max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


class TestMult:
    def test_identity(self):
        f = schur(3, (2, 1)) + 2 * schur(3, (1, 1))
        assert SchurPoly.one(3) * f == f

    def test_box_squared(self):
        f = schur(5, (1,), n=2)
        assert f * f == schur(5, (2,), n=2) + schur(5, (1, 1), n=2)

    def test_box_squared_one_variable(self):
        f = schur(5, (1,), n=1)
        assert f * f == schur(5, (2,), n=1)

    @settings(max_examples=40, deadline=None)
    @given(small_partition, small_partition, st.sampled_from([2, 3]))
    def test_against_monomial_oracle(self, lam, mu, p):
        nvars = 3
        f = schur(p, lam, n=nvars) if len(lam) <= nvars else SchurPoly.zero(p, nvars)
        g = schur(p, mu, n=nvars) if len(mu) <= nvars else SchurPoly.zero(p, nvars)
        lhs = to_monomials(f * g, nvars)
        conv = {}
        for e1, c1 in to_monomials(f, nvars).items():
            for e2, c2 in to_monomials(g, nvars).items():
                key = tuple(a + b for a, b in zip(e1, e2))
                conv[key] = (conv.get(key, 0) + c1 * c2) % p
        assert lhs == {k: v for k, v in conv.items() if v}

    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        # f ** k: one product per set bit of k and one squaring per bit
        # below the top one, against repeated multiplication
        mul = SchurPoly.__mul__
        calls = []
        monkeypatch.setattr(
            SchurPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b)
        )
        f = schur(3, (1,), n=2) + schur(3, (1, 1), n=2)
        expect = SchurPoly.one(3, 2)
        for k in range(9):
            calls.clear()
            assert f ** k == expect
            assert len(calls) == max(k.bit_length() - 1, 0) + bin(k).count("1")
            expect = mul(expect, f)


class TestGenerators:
    def test_elementary_zero_index(self):
        assert elementary(0, 3) == SchurPoly.one(3)

    def test_elementary_truncates(self):
        assert elementary(3, 5, n=2).is_zero()

    def test_complete(self):
        assert complete(2, 3, n=4) == schur(3, (2,), n=4)


class TestDifferential:
    @pytest.mark.parametrize("p", [2, 3])
    def test_elementary_formula(self, p):
        for n in range(1, 7):
            e1 = elementary(1, p, n)
            for r in range(1, n + 1):
                er = elementary(r, p, n)
                if r < n:
                    rhs = e1 * er - (r + 1) * elementary(r + 1, p, n)
                else:
                    rhs = e1 * er
                assert er.diff() == rhs

    @pytest.mark.parametrize("p", [2, 3])
    def test_complete_formula(self, p):
        for r in range(1, 7):
            hr = complete(r, p)
            rhs = (r + 1) * complete(r + 1, p) - complete(1, p) * hr
            assert hr.diff() == rhs

    def test_single_box_p3(self):
        f = schur(3, (1,), n=2)
        assert f.diff() == schur(3, (2,), n=2) - schur(3, (1, 1), n=2)

    @settings(max_examples=30, deadline=None)
    @given(small_partition, small_partition, st.sampled_from([2, 3]))
    def test_derivation(self, lam, mu, p):
        f, g = schur(p, lam), schur(p, mu)
        assert (f * g).diff() == f.diff() * g + f * g.diff()

    @pytest.mark.parametrize("p", [2, 3])
    def test_diff_p_vanishes_on_window(self, p):
        cap = 16
        for n in range(1, 6):
            for m in range(0, 6):
                for lam in partitions_of(m, max_rows=n):
                    f = schur(p, lam, n=n)
                    for _ in range(p):
                        f = f.diff()
                    f = SchurPoly(
                        p,
                        {l: c for l, c in f.terms.items() if 2 * sum(l) <= cap},
                        n,
                    )
                    assert f.is_zero(), (n, lam)


class TestTwisted:
    def test_zero_twist(self):
        f = schur(3, (2,)) + schur(3, (1, 1))
        assert f.twisted_diff(0) == f.diff()

    def test_unit_image(self):
        for a in range(1, 5):
            assert SchurPoly.one(5).twisted_diff(a) == a * elementary(1, 5)

    @pytest.mark.parametrize("p,n", [(2, 2), (2, 4), (3, 3), (3, 4)])
    def test_nilpotency_on_unit(self, p, n):
        for a in range(p):
            f = SchurPoly.one(p, n)
            for _ in range(p):
                f = f.twisted_diff(a)
            f = SchurPoly(
                p, {l: c for l, c in f.terms.items() if 2 * sum(l) <= 2 * p + 2}, n
            )
            assert f.is_zero()


class TestOmega:
    def test_e_to_h(self):
        assert omega(elementary(2, 3)) == complete(2, 3)
        assert omega(elementary(3, 5)) == -complete(3, 5)

    def test_involution(self):
        rng = random.Random(0)
        for _ in range(10):
            lam = tuple(
                sorted((rng.randrange(1, 5) for _ in range(rng.randrange(4))),
                       reverse=True)
            )
            f = schur(3, lam)
            assert omega(omega(f)) == f

    @settings(max_examples=30, deadline=None)
    @given(small_partition, st.sampled_from([2, 3]))
    def test_intertwines_diff(self, lam, p):
        f = schur(p, lam)
        assert omega(f.diff()) == omega(f).diff()


class TestJacobiTrudi:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_dual_jacobi_trudi(self, p):
        # π_λ = det(e_{λᵗ_i − i + j}) expanded with Schur products
        all_small = [lam for m in range(1, 7) for lam in partitions_of(m)]
        for lam in all_small:
            lt = pt.transpose(lam)
            m = len(lt)
            total = SchurPoly.zero(p)
            import itertools

            for perm in itertools.permutations(range(m)):
                sign = 1
                seen = list(perm)
                for i in range(m):
                    for j in range(i + 1, m):
                        if seen[i] > seen[j]:
                            sign = -sign
                term = SchurPoly.one(p)
                for i in range(m):
                    idx = lt[i] - (i + 1) + (perm[i] + 1)
                    if idx < 0:
                        term = SchurPoly.zero(p)
                        break
                    term = term * elementary(idx, p)
                total = total + sign * term
            assert total == schur(p, lam)


class TestPieri:
    def test_single_box_up_to_size_eight(self):
        for m in range(9):
            for lam in partitions_of(m):
                f = schur(11, lam) * elementary(1, 11)
                expect = {}
                for r, _ in pt.addable_boxes(lam):
                    mu = pt.with_box(lam, r)
                    if len(mu) <= 11:
                        expect[mu] = 1
                assert f.terms == expect, lam


class TestLimaCocycles:
    @pytest.mark.parametrize("p", [2, 3])
    def test_expanded_classes_are_cocycles(self, p):
        for b in (1, 2):
            for lam in lima_partitions(b, 2, p):
                if sum(lam) <= 2 * p * p:
                    assert schur(p, lam).diff().is_zero()


class TestComplexes:
    def test_vab_11_p2(self):
        c = vab_pcomplex(1, 1, 2)
        assert c.dim == 6
        sl = slash_cohomology(c)
        assert sl.total_dims() == {0: 1, 8: 1}
        reps0 = slash_reps(c)[0]
        assert [c.labels[i] for i in reps0[0][0]] == [()]
        assert [c.labels[i] for i in reps0[8][0]] == [(2, 2)]

    def test_vi_contractible(self):
        c = vi_pcomplex(1, 1, 3)
        assert c.dim == 3
        assert all(s.length == 3 for s in c.string_decompose())

    def test_vi_at_i_equals_p(self):
        # i = p: the classes are the expanded-box partitions of P(p, (k−1)p)
        sl = slash_cohomology(vi_pcomplex(2, 2, 2))
        assert sl.total_dims() == {0: 1, 8: 1}

    def test_twist_hilbert_s3_p3(self):
        c = twist_pcomplex(3, 0, 3, 36)
        sl = slash_cohomology(c)
        h = hilbert(sl)
        for d in range(0, h.window[1] + 1, 2):
            assert h[d] == (1 if d % 18 == 0 else 0)


# the bead statistics against the built complex, 140 cases: every twist,
# even and odd caps, n up to 7 (up to 4 for p ≥ 5)
TWIST_STATS_CAPS = {2: (15, 32), 3: (33, 40), 5: (61,), 7: (57,)}
TWIST_STATS_GRID = [
    (p, n) for p in TWIST_STATS_CAPS for n in range(0, (4 if p >= 5 else 7) + 1)
]


class TestTwistStats:
    @pytest.mark.parametrize("p, n", TWIST_STATS_GRID)
    def test_matches_built_complex(self, p, n):
        for a in range(p):
            for cap in TWIST_STATS_CAPS[p]:
                got = twist_stats(n, a, p, cap)
                want = twist_pcomplex(n, a, p, cap).string_stats()
                assert got.counts == want.counts, (n, a, p, cap)
                assert (got.cap, got.p) == (want.cap, want.p)

    # the complexes of the slash-fp benchmark lines: verify-slash at p = 3,
    # n = 4..6, and the twists that verify-twist decides at n = 4 and 5
    @pytest.mark.parametrize("n, a", [(4, 0), (5, 0), (6, 0), (4, 1), (5, 1), (5, 2)])
    def test_slash_matches_built_complex(self, n, a):
        assert twist_stats(n, a, 3, 72).slash() == slash_cohomology(twist_pcomplex(n, a, 3, 72))

    @staticmethod
    def assert_box_matches(got, c):
        want = c.string_stats()
        assert list(got.counts.items()) == list(want.counts.items())
        assert (got.cap, got.p) == (want.cap, want.p)

    # V_{a,b} on P(bp, ap), twist 0
    @pytest.mark.parametrize(
        "a, b, p",
        [(a, b, p) for p in (2, 3) for a in range(3) for b in range(3)] + [(1, 1, 5), (1, 1, 7)],
    )
    def test_vab_matches_built_complex(self, a, b, p):
        self.assert_box_matches(twist_stats(b * p, 0, p, INF, cols=a * p), vab_pcomplex(a, b, p))

    # V_i on P(i, kp−i), twist i, for every i < p and k ≤ 3 but the two
    # largest at p = 7, P(5, 16) and P(6, 15), whose whole-complex ranks
    # take 8 and 54 s on a 2-core x86 host
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_vi_matches_built_complex(self, p):
        for i in range(1, p):
            for k in range(1, 4):
                if comb(k * p, i) <= 6000:
                    got = twist_stats(i, i, p, INF, cols=k * p - i)
                    self.assert_box_matches(got, vi_pcomplex(i, k, p))

    def test_top_of_the_box_not_a_wall(self):
        # P(2, 2) at p = 3: the box leaving the box from (2, c) has content
        # 2, so the top bead position 3 is not a wall
        with pytest.raises(AssertionError, match="not a wall"):
            twist_stats(2, 0, 3, INF, cols=2)
        labels = pt.partitions_in_box(2, 2)
        with pytest.raises(AssertionError, match="nonzero coefficient 2 on a box leaving"):
            _content_complex(3, labels, 0, INF, max_rows=2)


class TestFillsSegments:
    """The bead rule for coboundaries of the untwisted content complex (the
    Lines paragraph of `fills_segments`) against basis extension over the
    built complex (`independent_mod_coboundaries`).  The rule is
    `cli._factor_is_coboundary`: π_λ lies in Im ∂^{p−1} exactly when it is
    a cocycle that does not fill its segments.  The box P(bp, ap) has the
    cocycles and segments of Sym_{bp}, so the same rule decides V_{a,b}."""

    @staticmethod
    def assert_rule_matches(c, n, p):
        for d in c.support_degrees():
            local = c.indices_at(d)
            for i in local:
                expect = not independent_mod_coboundaries(c, d, [{i: 1}])
                assert cli._factor_is_coboundary(c.labels[i], n, p) == expect, c.labels[i]
            # distinct filled partitions span distinct lines: together they
            # stay independent modulo coboundaries, as verify-lima assumes
            filled = [{i: 1} for i in local if fills_segments(c.labels[i], n, p)]
            assert independent_mod_coboundaries(c, d, filled)

    # truncation at cap is exact on every degree up to cap: Im ∂^{p−1} in
    # degree d is spanned by images of degree d − 2(p−1)
    @pytest.mark.parametrize(
        "p, n, cap",
        [(p, n, cap) for p, nmax, cap in ((2, 6, 16), (3, 6, 24), (5, 4, 50)) for n in range(nmax + 1)],
    )
    def test_matches_built_sym(self, p, n, cap):
        self.assert_rule_matches(sym_pcomplex(n, p, cap), n, p)

    @pytest.mark.parametrize("a, b, p", [(a, b, p) for p in (2, 3) for a in range(3) for b in range(3)])
    def test_matches_built_vab(self, a, b, p):
        self.assert_rule_matches(vab_pcomplex(a, b, p), b * p, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_form_is_free_or_one_line(self, p):
        # every form of at most 9 beads: n full segments after the first
        # hold any distribution of n beads, packed low
        forms = set()
        for n in range(10):
            w = (n - 1) % p
            forms.update(form for form, _ in _bead_distributions(n, w, p, INF, w + 1 + n * p))
        lines = 0
        for form in forms:
            stats = _form_stats(form, p)
            if all(m == size for size, m in form):
                assert [(length, m) for (_, length), m in stats] == [(1, 1)], form
                lines += 1
            else:
                assert all(length == p for (_, length), _ in stats), form
        # one filled form per bead count n
        assert (len(forms), lines) == ({2: 45, 3: 88, 5: 199, 7: 190}[p], 10)


class TestSplitVars:
    def test_e1(self):
        f = elementary(1, 3, n=2)
        assert split_vars(f, 1, 1) == {((1,), ()): 1, ((), (1,)): 1}

    def test_split_of_elementary_matches_convolution(self):
        p = 3
        for i in range(1, 5):
            f = elementary(i, p, n=4)
            sv = split_vars(f, 2, 2)
            expect = {}
            for j in range(i + 1):
                l = elementary(j, p, n=2)
                r = elementary(i - j, p, n=2)
                for lm, cl in l.terms.items():
                    for rm, cr in r.terms.items():
                        expect[(lm, rm)] = (cl * cr) % p
            assert sv == {k: v for k, v in expect.items() if v}

    def test_frobenius_splitting_p2_exact(self):
        p = 2
        f = elementary(2 * p, p, n=2 * p) ** p
        assert split_vars(f, p, p) == {((2, 2), (2, 2)): 1}

    def test_frobenius_splitting_p3_exact(self):
        p = 3
        f = elementary(2 * p, p, n=2 * p) ** p
        # e_6^3 on 3+3 variables: only the balanced term survives
        sv = split_vars(f, p, p)
        assert sv == {((3, 3, 3), (3, 3, 3)): 1}

    @pytest.mark.parametrize("p", [2, 3])
    def test_unbalanced_split_dies(self, p):
        # over blocks (p−1, p+1) the image is a single term whose left
        # factor is a coboundary, so the class vanishes
        f = elementary(2 * p, p, n=2 * p) ** p
        sv = split_vars(f, p - 1, p + 1)
        assert len(sv) == 1
        ((mu, nu),) = sv.keys()
        c = sym_pcomplex(p - 1, p, 2 * sum(mu) + 2 * p)
        d = 2 * sum(mu)
        local = c.indices_at(d)
        v = np.zeros(len(local), dtype=np.int64)
        lpos = {c.labels[i]: r for r, i in enumerate(local)}
        v[lpos[mu]] = 1
        im = dense_oracle.power_matrix(c, d - 2 * (p - 1), p - 1)
        assert dense_oracle.in_span(im, v, p)


class TestTheta0:
    def test_first_generator_p2(self):
        t = theta0_gen(1, 2)
        assert t.terms == {(2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1}
        # oracle: square e_2 through monomials in 4 variables
        sq = elementary(2, 2, n=4) * elementary(2, 2, n=4)
        assert SchurPoly(2, t.terms, 4) == sq

    @pytest.mark.parametrize("p", [2, 3])
    def test_generators_are_cocycles_with_nonzero_class(self, p):
        g = theta0_gen(1, p)
        assert g.diff().is_zero()
        c = sym_pcomplex(p, p, 2 * p * p + 4 * p)
        d = 2 * p * p
        local = c.indices_at(d)
        lpos = {c.labels[i]: r for r, i in enumerate(local)}
        v = np.zeros(len(local), dtype=np.int64)
        for lam, cf in theta0_gen(1, p, n=p).terms.items():
            v[lpos[lam]] = cf
        im = dense_oracle.power_matrix(c, d - 2 * (p - 1), p - 1)
        assert not dense_oracle.in_span(im, v, p)


class TestSymHilbert:
    """`sym_hilbert` against the series the checks once wrote out by hand
    (`tests/series_oracle.py`)."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_slash_expected(self, p):
        for n in range(12):
            for hi in (-2, 0, 2 * p * p - 2, 8 * p * p - 2 * (p - 1), 12 * p * p + 6):
                assert sym_hilbert(
                    n // p, 2 * p * p, {0: 1}, 0, hi
                ) == series_oracle.slash_expected(p, n, hi)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_nh_graded_dims(self, p):
        step = 2 * p * p
        for a in range(1, 5):
            for lo in (-12 * step - 2, -3 * step, -step + 2, 0):
                for hi in (lo, 0, step - 2, 5 * step, 9 * step + 4):
                    assert nh_graded_dims(a, p, lo, hi) == series_oracle.nh_graded_dims(
                        a, p, lo, hi
                    )

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_formality_expected(self, p):
        step = 2 * p * p
        for lo in (-4 * step, -step, -step + 2, 0, step):
            for hi in (lo - 2, -step, 0, 3 * step - 2, 7 * step + 4):
                assert sym_hilbert(
                    2, step, {-step: 1, 0: 2, step: 1}, lo, hi
                ) == series_oracle.formality_expected(p, lo, hi)
