import random

import pytest
from hypothesis import given, settings, strategies as st

import frobenius_oracle
from library_extras import udot
from qfrob import qgroup
from qfrob.cyclotomic import CycElem, LaurentPoly, qbinom, qfact, qint, rho, to_op
from qfrob.qgroup import (
    CBWord,
    CoeffRing,
    UdotElem,
    canonical_words,
    commutation_formula_agrees,
    frobenius,
    frobenius_hom_check,
    frobenius_section,
    k0_symbol_check,
    kernel_check,
    oracle_product_agrees,
    udot_mult,
    _canonical,
)

G = CoeffRing("generic")


def _wrong_binomial_rejections(monkeypatch) -> int:
    """How many pairs of canonical_words(2, 2, −4, 4)² the product oracle
    rejects once the generic [2, 1] gains a v^5 term; each rejection must
    be a pair whose product that changes."""
    words = canonical_words(2, 2, -4, 4)
    mult = {
        (w1, w2): udot_mult(
            UdotElem(G, {w1: G.one()}), UdotElem(G, {w2: G.one()})
        )
        for w1 in words
        for w2 in words
    }
    real = qgroup._ring_binom

    def wrong(tag, p, m, k):
        c = real(tag, p, m, k)
        return c + LaurentPoly({5: 1}) if (tag, m, k) == ("generic", 2, 1) else c

    # nothing downstream caches ring binomials, so replacing the
    # function is all it takes
    monkeypatch.setattr(qgroup, "_ring_binom", wrong)
    assert not oracle_product_agrees(
        _canonical(1, 0, 0), _canonical(1, 0, -2)
    )
    rejected = 0
    for (w1, w2), right in mult.items():
        agrees = oracle_product_agrees(w1, w2)
        x, y = UdotElem(G, {w1: G.one()}), UdotElem(G, {w2: G.one()})
        assert agrees == (udot_mult(x, y) == right), (w1, w2)
        rejected += not agrees
    return rejected


def _wrong_op_binomial(monkeypatch):
    """[2, 1] over O_2 gains +1."""
    real = qgroup._ring_binom

    def wrong(tag, p, m, k):
        c = real(tag, p, m, k)
        return c + 1 if (tag, p, m, k) == ("op", 2, 2, 1) else c

    monkeypatch.setattr(qgroup, "_ring_binom", wrong)


def word(ring, a, b, n, coeff=None):
    shape = "EF" if n <= b - a else "FE"
    return udot(ring, shape, a, b, n, coeff)


class TestUdotMult:
    def test_idempotents(self):
        for n in (-3, 0, 2):
            e = word(G, 0, 0, n)
            m = word(G, 0, 0, n + 2)
            assert udot_mult(e, e) == e
            assert udot_mult(e, m).is_zero()

    def test_defining_commutator(self):
        for n in range(-6, 7):
            x = udot_mult(word(G, 1, 0, n - 2), word(G, 0, 1, n))
            y = udot_mult(word(G, 0, 1, n + 2), word(G, 1, 0, n))
            d = x - y
            expect = UdotElem(
                G, {CBWord("EF" if n <= 0 else "FE", 0, 0, n): qint(n)}
            )
            assert d == expect

    def test_weight_shift(self):
        # θ 1_n = 1_{n+2} θ: multiplying by the left idempotent is neutral
        x = word(G, 1, 0, 0)
        e = word(G, 0, 0, 2)
        assert udot_mult(e, x) == x

    def test_divided_power_merge(self):
        x = udot_mult(word(G, 1, 0, 0), word(G, 1, 0, -2))
        # n = −2 = b − a is the tie, stored in EF shape
        assert x == UdotElem(G, {CBWord("EF", 2, 0, -2): qbinom(2, 1)})

    def test_e2_f2_against_oracle(self):
        w1 = CBWord("EF" if -2 <= -2 else "FE", 2, 0, -2)
        w2 = CBWord("EF", 0, 2, 2)
        assert oracle_product_agrees(w1, w2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_ep_ep_reduction(self, p):
        R = CoeffRing("op", p)
        x = word(R, p, 0, 0)
        y = word(R, p, 0, -2 * p)
        prod = udot_mult(x, y)
        ((w, c),) = prod.terms.items()
        assert (w.a, w.b, w.n) == (2 * p, 0, -2 * p)
        assert c == to_op(qbinom(2 * p, p), p)


class TestCommutationOracle:
    def test_formula_validated(self):
        for A in range(5):
            for B in range(5):
                for n in range(-8, 9):
                    assert commutation_formula_agrees(A, B, n), (A, B, n)

    def test_products_small_box(self):
        words = canonical_words(2, 2, -4, 4)
        for w1 in words:
            for w2 in words:
                assert oracle_product_agrees(w1, w2), (w1, w2)

    def test_product_oracle_rejects_a_wrong_binomial(self, monkeypatch):
        assert _wrong_binomial_rejections(monkeypatch) == 206

    def test_hom_and_kernel_checks_reject_a_wrong_binomial(self, monkeypatch):
        # [2, 1] in O_2 is q + q^{−1} = 0; made 1, E·E·1_n no longer dies
        # and Fr is no longer multiplicative
        _wrong_op_binomial(monkeypatch)
        hom = frobenius_hom_check(2, 2, 4)
        ker = kernel_check(2, 2, 4)
        assert (hom["pairs"], hom["ok"]) == (585, False)
        assert (ker["triples"], ker["ok"]) == (1062, False)
        assert hom["failures"] and ker["failures"]

    def test_product_word_outside_the_denominator_raises(self, monkeypatch):
        # E·1_0 · E·1_{−2} has D = [2]!·[0]!; the denominator of a word
        # with b = 2 does not divide D, so no cofactor can be trusted
        monkeypatch.setattr(
            qgroup,
            "udot_mult",
            lambda x, y: UdotElem(G, {CBWord("EF", 1, 2, -2): G.one()}),
        )
        with pytest.raises(ValueError):
            oracle_product_agrees(_canonical(1, 0, 0), _canonical(1, 0, -2))

    def test_commutation_oracle_rejects_a_wrong_binomial(self, monkeypatch):
        # [1, 1] gains a v^5 term: exactly the formulas that use it fail
        real = qgroup.qbinom_int

        def wrong(m, k):
            c = real(m, k)
            return c + LaurentPoly({5: 1}) if (m, k) == (1, 1) else c

        monkeypatch.setattr(qgroup, "qbinom_int", wrong)
        for A in range(4):
            for B in range(4):
                for n in range(-4, 5):
                    uses_it = A - B + n == 1 and min(A, B) >= 1
                    assert commutation_formula_agrees(A, B, n) != uses_it, (A, B, n)


_COEF = st.one_of(
    st.integers(-300, 300), st.sampled_from([127, 128, 129, 255, 256, -128, -256])
)
_PACK_POLY = st.dictionaries(st.integers(-3, 3), _COEF, max_size=4).map(LaurentPoly)


def _widths_seen(monkeypatch) -> list:
    """Record every width at which `_packed_agree` builds its pairs."""
    seen = []
    real = qgroup._packed_agree

    def spy(sides):
        def recorded(K):
            seen.append(K)
            return sides(K)

        return real(recorded)

    monkeypatch.setattr(qgroup, "_packed_agree", spy)
    return seen


class TestPackedComparison:
    def test_aliased_values_widen(self, monkeypatch):
        # at K = 8 the constant 256 and v both pack to 2^8; the bound
        # 256 + 1 ≥ 2^7 refuses to call them equal, and at K = 16 they differ
        monkeypatch.setattr(qgroup, "_START_WIDTH", 8)
        c, v = LaurentPoly.from_int(256), LaurentPoly({1: 1})
        P, lo, _ = qgroup._pack(c, 8)
        Q, mo, _ = qgroup._pack(v, 8)
        assert P << (8 * lo) == Q << (8 * mo) == 256
        widths = []

        def sides(K):
            widths.append(K)
            yield qgroup._pack(c, K), qgroup._pack(v, K)

        assert not qgroup._packed_agree(sides)
        assert widths == [8, 16]

    @settings(max_examples=300, deadline=None)
    @given(
        _PACK_POLY,
        _PACK_POLY,
        _PACK_POLY,
        _PACK_POLY,
        st.sampled_from(["swap", "alias", "free"]),
        st.integers(-3, 3),
        st.integers(-2, 2),
    )
    def test_packed_decisions_match_laurent(self, f, g, h, k, mode, e, c):
        # f·g + h against a right side that is equal, equal at v = 2^8
        # only, or arbitrary; the packed path starts at K = 8, below the
        # coefficients, and must decide as LaurentPoly does
        if mode == "swap":
            right = (g, f, h)
        elif mode == "alias":
            right = (f, g, h + LaurentPoly({e: 256 * c, e + 1: -c}))
        else:
            right = (f, g, k)

        def packed(x, y, z, K):
            xy = qgroup._pmul(qgroup._pack(x, K), qgroup._pack(y, K))
            return qgroup._padd(xy, qgroup._pack(z, K), K)

        def sides(K):
            yield packed(f, g, h, K), packed(*right, K)

        # each pack is f(2^K) with an upper bound on ‖f‖₁
        for K in (8, 64):
            for terms in ((f, g, h), right):
                P, lo, bound = packed(*terms, K)
                exact = terms[0] * terms[1] + terms[2]
                base = min(lo, exact.min_exp())
                value = sum(x << (K * (e - base)) for e, x in exact.coeffs.items())
                assert P << (K * (lo - base)) == value
                assert bound >= sum(abs(x) for x in exact.coeffs.values())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qgroup, "_START_WIDTH", 8)
            decided = qgroup._packed_agree(sides)
        x, y, z = right
        assert decided == (f * g + h == x * y + z)

    def test_narrow_start_widens_the_oracle_box(self, monkeypatch):
        monkeypatch.setattr(qgroup, "_START_WIDTH", 8)
        widths = _widths_seen(monkeypatch)
        assert qgroup.oracle_box_check.__wrapped__(2, 4) == (585, True)
        assert max(widths) > 8

    def test_narrow_start_rejects_a_wrong_binomial(self, monkeypatch):
        monkeypatch.setattr(qgroup, "_START_WIDTH", 8)
        assert _wrong_binomial_rejections(monkeypatch) == 206


def _packed_image(x, f, K) -> bool:
    """Whether the packed x has the value f(2^K) and a bound ≥ ‖f‖₁."""
    Q, mo, norm = qgroup._pack(f, K)
    P, lo, bound = x
    base = min(lo, mo)
    return P << (K * (lo - base)) == Q << (K * (mo - base)) and bound >= norm


def _packed_zero_word(x, K) -> bool:
    """Whether x has value 0 with a bound that forbids calling it 0."""
    return x[0] == 0 and x[2] >= 1 << (K - 1)


class TestPackedRing:
    def test_one_is_the_unit_of_every_ring(self):
        rings = [CoeffRing("generic")] + [
            CoeffRing(tag, p) for tag in ("op", "rho") for p in (2, 3, 5)
        ]
        for ring in rings:
            assert ring.one() == ring.of(LaurentPoly.one()), ring

    @pytest.mark.parametrize("K", [64, 8])
    def test_products_are_packed_generic_products(self, K):
        # every generic word appears with its packed value and a true
        # bound; a word the packed run adds has value 0 and a bound that
        # keeps it from being called 0
        words = canonical_words(3, 3, -6, 6)
        ring = qgroup._PackedRing(K)
        pairs = 0
        for w1 in words:
            for w2 in words:
                if w1.n != w2.left_weight():
                    continue
                pairs += 1
                generic = udot_mult(
                    UdotElem(G, {w1: G.one()}), UdotElem(G, {w2: G.one()})
                )
                packed = udot_mult(
                    UdotElem(ring, {w1: ring.one()}), UdotElem(ring, {w2: ring.one()})
                )
                for w, c in generic.terms.items():
                    assert w in packed.terms, (w1, w2, w)
                    assert _packed_image(packed.terms[w], c, K), (w1, w2, w)
                for w, x in packed.terms.items():
                    if w not in generic.terms:
                        assert _packed_zero_word(x, K), (w1, w2, w)
        assert pairs == 2688

    def test_an_aliased_zero_is_not_zero(self):
        # v − 256 packs to P = 0 at K = 8, but its bound 257 ≥ 2^7 says
        # that the substitution may have aliased it, so it stays nonzero
        ring = qgroup._PackedRing(8)
        f = LaurentPoly({1: 1, 0: -256})
        v = ring.elem(qgroup._pack(LaurentPoly({1: 1}), 8))
        c = ring.elem(qgroup._pack(LaurentPoly.from_int(-256), 8))
        for x in (ring.elem(qgroup._pack(f, 8)), v + c):
            assert x[0] == 0 and x
        # a zero with a small bound is 0
        assert not v + ring.elem(qgroup._pack(LaurentPoly({1: -1}), 8))


@pytest.fixture(scope="class")
def box_reads():
    """Run the (4, 8) oracle box once, recording every width at which it
    compares and every (b, a, n) whose packed normal form it reads."""
    reads = set()
    real = qgroup._PackedRing.divided

    def divided(ring, b, a, n):
        reads.add((b, a, n))
        return real(ring, b, a, n)

    with pytest.MonkeyPatch.context() as mp:
        widths = _widths_seen(mp)
        mp.setattr(qgroup._PackedRing, "divided", divided)
        assert qgroup.oracle_box_check.__wrapped__(4, 8) == (8625, True)
    return set(widths), reads


class TestPackedOracleBox:
    def test_pinned_box_compares_at_the_start_width_only(self, box_reads):
        widths, _ = box_reads
        assert widths == {qgroup._START_WIDTH}

    def test_recursive_expansions_match_the_laurent_oracle(self, box_reads):
        # F^{(b)}E^{(a)}1_n = Σ c·E^{(i)}F^{(j)}1_n and ϑ^b θ^a 1_n =
        # Σ m·θ^i ϑ^j 1_n, so c·[a]!·[b]! = m·[i]!·[j]!
        _, reads = box_reads
        assert reads
        for K in (32, 8):
            ring = qgroup._PackedRing(K)
            for b, a, n in reads:
                want = frobenius_oracle.oracle_monomials(b, a, n)
                got = ring.divided(b, a, n)
                assert got.keys() == want.keys(), (b, a, n, K)
                scale = qgroup._pack(qfact(a) * qfact(b), K)
                for (i, j), f in want.items():
                    lhs = qgroup._pmul(got[i, j], scale)
                    rhs = f * qfact(i) * qfact(j)
                    assert _packed_image(lhs, rhs, K), (b, a, n, K, i, j)


class TestOracleSide:
    def test_reads_no_binomial_under_test(self, monkeypatch):
        # the left side and the normal forms come from the defining
        # relations and quantum factorials only
        def refuse(*args):
            raise AssertionError("the oracle side read a binomial under test")

        monkeypatch.setattr(qgroup, "_ring_binom", refuse)
        monkeypatch.setattr(qgroup, "qbinom_int", refuse)
        qgroup._packed_merge.cache_clear()
        ring = qgroup._PackedRing(32)
        words = canonical_words(2, 2, -4, 4)
        products = 0
        for w1 in words:
            for w2 in words:
                if w1.n == w2.left_weight():
                    products += bool(qgroup._divided_product(w1, w2, ring))
        assert products == 585


class TestAssociativity:
    def test_random_triples(self):
        rng = random.Random(3)
        words = canonical_words(4, 4, -8, 8)
        by_left = {}
        for w in words:
            by_left.setdefault(w.left_weight(), []).append(w)
        done = 0
        while done < 40:
            w2 = rng.choice(words)
            c1 = by_left.get(w2.n) and [w for w in words if w.n == w2.left_weight()]
            c3 = by_left.get(w2.n, [])
            if not c1 or not c3:
                continue
            w1, w3 = rng.choice(c1), rng.choice(c3)
            x, y, z = (UdotElem(G, {w: G.one()}) for w in (w1, w2, w3))
            assert udot_mult(udot_mult(x, y), z) == udot_mult(x, udot_mult(y, z))
            done += 1


class TestFrobenius:
    def test_surviving_word(self):
        for p in (2, 3):
            R = CoeffRing("op", p)
            x = word(R, p, 0, 2 * p)
            fx = frobenius(x)
            ((w, c),) = fx.terms.items()
            assert (w.a, w.b, w.n) == (1, 0, 2)
            assert c == CycElem.one(p)

    def test_indivisible_weight_dies(self):
        R = CoeffRing("op", 3)
        assert frobenius(word(R, 3, 0, 7)).is_zero()

    def test_indivisible_power_dies(self):
        R = CoeffRing("op", 3)
        assert frobenius(word(R, 1, 0, 3)).is_zero()

    def test_mixed_word_via_hom(self):
        # Fr(F^{(2p)}E^{(p)}1_{−3p}) = 𝖥^{(2)}𝖤^{(1)}1_{−3}, computed by
        # multiplying the one-sided canonical factors on both sides
        for p in (2, 3):
            R = CoeffRing("op", p)
            Rr = CoeffRing("rho", p)
            lhs = frobenius(
                udot_mult(word(R, 0, 2 * p, -p), word(R, p, 0, -3 * p))
            )
            rhs = udot_mult(word(Rr, 0, 2, -1), word(Rr, 1, 0, -3))
            assert lhs == rhs

    def test_hom_check_small(self):
        rep = frobenius_hom_check(2, 3, 6)
        assert rep["ok"], rep["failures"]

    def test_kernel_example(self):
        # z = E^{(p−1)}1_2, u = E1_0: the product is a multiple of E^{(p)},
        # and the composite with the weight test sends it to zero
        p = 3
        R = CoeffRing("op", p)
        z = word(R, p - 1, 0, 2)
        u = word(R, 1, 0, 0)
        prod = udot_mult(z, u)
        # the merge coefficient [p] already vanishes in O_p, so the product
        # is zero before Fr is even applied
        assert to_op(qbinom(p, 1), p).is_zero()
        assert prod.is_zero()
        assert frobenius(prod).is_zero()

    def test_kernel_check_small(self):
        rep = kernel_check(2, 2, 4)
        assert rep["ok"], rep["failures"]

    def test_kernel_check_vacuous_range(self):
        rep = kernel_check(2, 0, 0)
        assert rep["ok"] and rep["triples"] >= 0

    def test_kernel_of_idempotent_sandwich(self):
        # u = E·1_0 between weight idempotents maps to zero: p does not
        # divide the divided power 1
        p = 3
        R = CoeffRing("op", p)
        z1 = word(R, 0, 0, 2)
        u = word(R, 1, 0, 0)
        z2 = word(R, 0, 0, 0)
        img = frobenius(udot_mult(z1, udot_mult(u, z2)))
        assert img.is_zero()


class TestWeightRule:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("wrong", [False, True])
    def test_checks_match_exhaustive_loops(self, monkeypatch, p, wrong):
        if wrong:
            _wrong_op_binomial(monkeypatch)
        hom, ker = frobenius_hom_check(p, 3, 6), kernel_check(p, 3, 6)
        assert hom == frobenius_oracle.frobenius_hom_check(p, 3, 6)
        assert ker == frobenius_oracle.kernel_check(p, 3, 6)
        # the wrong binomial lives in O_2 only
        assert hom["ok"] == ker["ok"] == (not wrong or p != 2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_skipped_products_stay_at_the_weight(self, p):
        # every product that the checks skip (x·y and z·u·z' with the
        # weight n2 of y and z' not divisible by p) has all its words at n2
        R = CoeffRing("op", p)
        words = canonical_words(3, 3, -6, 6)
        skipped = [w for w in words if w.n % p]
        products = 0
        for w2 in skipped:
            y = UdotElem(R, {w2: R.one()})
            m = w2.left_weight()
            rights = [y, udot_mult(word(R, 1, 0, m), y), udot_mult(word(R, 0, 1, m), y)]
            for right, top in zip(rights, (m, m + 2, m - 2)):
                for w1 in words:
                    if w1.n != top:
                        continue
                    prod = udot_mult(UdotElem(R, {w1: R.one()}), right)
                    assert all(w.n == w2.n for w in prod.terms), (w1, w2)
                    products += 1
        assert products > 0

    @pytest.mark.parametrize("tag,p", [("generic", None), ("op", 2), ("op", 3), ("op", 5)])
    def test_products_add_a_minus_b(self, tag, p):
        # the a − b rule the checks trust: every word of w1·w2 has
        # a − b = (a1 − b1) + (a2 − b2), and every word of w1·(u·w2) that
        # sum plus 1 for u = E, minus 1 for u = F
        R = CoeffRing(tag, p)
        words = canonical_words(3, 3, -6, 6)
        by_n = {}
        for w in words:
            by_n.setdefault(w.n, []).append(w)
        seen = 0
        for w2 in words:
            y = UdotElem(R, {w2: R.one()})
            m, d2 = w2.left_weight(), w2.a - w2.b
            rights = [
                (y, m, d2),
                (udot_mult(word(R, 1, 0, m), y), m + 2, d2 + 1),
                (udot_mult(word(R, 0, 1, m), y), m - 2, d2 - 1),
            ]
            for right, top, d in rights:
                for w1 in by_n.get(top, []):
                    prod = udot_mult(UdotElem(R, {w1: R.one()}), right)
                    d12 = w1.a - w1.b + d
                    assert all(w.a - w.b == d12 for w in prod.terms), (w1, w2, d)
                    seen += len(prod.terms)
        assert seen > 0


@st.composite
def _op_factors(draw):
    """(x, y): multi-term O_p elements, p ∈ {2, 3, 5}, whose words meet at
    one weight m, x's words at n = m and y's with left weight m, their
    a − b mixed."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.one_of(st.integers(-3, 3).map(lambda k: k * p), st.integers(-8, 8)))
    coeff = st.builds(
        lambda e, c: CycElem.q_power(p, e, c), st.integers(0, 2 * p - 1), st.integers(-3, 3)
    )
    ab = st.tuples(st.integers(0, 2 * p), st.integers(0, 2 * p))
    R = CoeffRing("op", p)

    def elem(pairs, at):
        terms = {}
        for (a, b), c in pairs:
            w = _canonical(a, b, at(a, b))
            terms[w] = terms[w] + c if w in terms else c
        return UdotElem(R, terms)

    terms = st.lists(st.tuples(ab, coeff), min_size=1, max_size=4)
    x = elem(draw(terms), lambda a, b: m)
    y = elem(draw(terms), lambda a, b: m - 2 * (a - b))
    return x, y


class TestFrobeniusOfProduct:
    @settings(max_examples=200, deadline=None)
    @given(_op_factors(), st.booleans())
    def test_matches_the_full_product(self, factors, wrong):
        x, y = factors
        with pytest.MonkeyPatch.context() as mp:
            if wrong:
                _wrong_op_binomial(mp)
            assert qgroup._frobenius_of_product(x, y) == frobenius(udot_mult(x, y))


class TestSection:
    def test_basis_images(self):
        for p in (2, 3):
            Rr = CoeffRing("rho", p)
            x = word(Rr, 1, 0, 0)
            img = frobenius_section(x)
            ((w, c),) = img.terms.items()
            assert (w.a, w.b, w.n) == (p, 0, 0)

    def test_roundtrip(self):
        for p in (2, 3):
            Rr = CoeffRing("rho", p)
            for w in canonical_words(3, 3, -6, 6):
                e = UdotElem(Rr, {w: Rr.one()})
                assert frobenius(frobenius_section(e)) == e

    def test_zero(self):
        Rr = CoeffRing("rho", 2)
        assert frobenius_section(UdotElem.zero(Rr)).is_zero()


class TestK0Symbol:
    @pytest.mark.parametrize(
        "a,b,p",
        [(1, 1, 2), (0, 2, 3), (1, 2, 3), (2, 2, 2), (1, 1, 3), (2, 1, 3), (2, 2, 3)],
    )
    def test_identity(self, a, b, p):
        assert k0_symbol_check(a, b, p)


class TestBaseChangeCoherence:
    @pytest.mark.parametrize("p", [2, 3])
    def test_op_product_is_base_changed_generic_product(self, p):
        # evaluating structure constants in O_p commutes with multiplying
        R = CoeffRing("op", p)
        words = canonical_words(3, 3, -4, 4)
        rng = random.Random(p)
        done = 0
        while done < 25:
            w1, w2 = rng.choice(words), rng.choice(words)
            if w1.n != w2.left_weight():
                continue
            generic = udot_mult(
                UdotElem(G, {w1: G.one()}), UdotElem(G, {w2: G.one()})
            )
            mapped = UdotElem(
                R, {w: to_op(c, p) for w, c in generic.terms.items()}
            )
            direct = udot_mult(
                UdotElem(R, {w1: R.one()}), UdotElem(R, {w2: R.one()})
            )
            assert mapped == direct, (w1, w2)
            done += 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_every_pair_base_changes_with_zero_images_dropped(self, p):
        # the O_p and rho products drop zero terms early; on every
        # weight-matched pair they equal the generic product with each
        # coefficient base-changed and the zero images left out
        words = canonical_words(3, 3, -6, 6)
        pairs = 0
        for tag, base_change in (("op", to_op), ("rho", rho)):
            R = CoeffRing(tag, p)
            for w1 in words:
                x, gx = UdotElem(R, {w1: R.one()}), UdotElem(G, {w1: G.one()})
                for w2 in words:
                    if w1.n != w2.left_weight():
                        continue
                    generic = udot_mult(gx, UdotElem(G, {w2: G.one()}))
                    want = {}
                    for w, c in generic.terms.items():
                        img = base_change(c, p)
                        if any(img.coeffs):
                            want[w] = img
                    direct = udot_mult(x, UdotElem(R, {w2: R.one()}))
                    assert direct.terms == want, (tag, w1, w2)
                    pairs += 1
        assert pairs == 2 * 2688


class TestWordHygiene:
    def test_canonical_storage(self):
        w = udot(G, "FE", 1, 1, 0)  # the tie is stored as EF
        ((ww, _),) = w.terms.items()
        assert ww.shape == "EF"

    def test_noncanonical_rejected(self):
        with pytest.raises(ValueError):
            udot(G, "EF", 0, 1, 3)

    def test_text_form(self):
        assert str(CBWord("EF", 2, 1, -3)) == "E(2)F(1)1[-3]"
        assert str(CBWord("FE", 2, 1, 3)) == "F(1)E(2)1[3]"
