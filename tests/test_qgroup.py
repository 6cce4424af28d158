import random

import pytest

from qfrob import qgroup
from qfrob.cyclotomic import CycElem, LaurentPoly, qbinom, qint, rho, to_op
from qfrob.qgroup import (
    CBWord,
    CoeffRing,
    UdotElem,
    canonical_words,
    commutation_formula_agrees,
    frobenius,
    frobenius_hom_check,
    frobenius_section,
    half_comult,
    half_elem,
    half_frobenius,
    half_mult,
    k0_symbol_check,
    kernel_check,
    oracle_product_agrees,
    udot,
    udot_mult,
    _canonical,
)

G = CoeffRing("generic")


def word(ring, a, b, n, coeff=None):
    shape = "EF" if n <= b - a else "FE"
    return udot(ring, shape, a, b, n, coeff)


class TestHalf:
    def test_unit(self):
        x = half_elem(G, 3)
        assert half_mult(half_elem(G, 0), x) == x

    def test_theta_squared(self):
        lhs = half_mult(half_elem(G, 1), half_elem(G, 1))
        assert lhs.terms == {2: qbinom(2, 1)}

    def test_p_divided_powers_in_op(self):
        # E^{(p)}·E^{(p)} = q^{p²}·C(2,1)·E^{(2p)} for p = 3
        R = CoeffRing("op", 3)
        prod = half_mult(half_elem(R, 3), half_elem(R, 3))
        assert prod.terms == {6: CycElem.q_power(3, 3, 2)}

    def test_comult_unit_and_theta(self):
        assert half_comult(half_elem(G, 0)) == {(0, 0): LaurentPoly.one()}
        c = half_comult(half_elem(G, 1))
        assert c == {(1, 0): LaurentPoly.one(), (0, 1): LaurentPoly.one()}

    def test_comult_coassociative(self):
        for a in range(7):
            c = half_comult(half_elem(G, a))
            left, right = {}, {}
            for (i, j), cf in c.items():
                for (k, l), cf2 in half_comult(half_elem(G, i, cf)).items():
                    key = (k, l, j)
                    left[key] = left.get(key, LaurentPoly.zero()) + cf2
                for (k, l), cf2 in half_comult(half_elem(G, j, cf)).items():
                    key = (i, k, l)
                    right[key] = right.get(key, LaurentPoly.zero()) + cf2
            assert {k: v for k, v in left.items() if not v.is_zero()} == {
                k: v for k, v in right.items() if not v.is_zero()
            }

    def test_half_frobenius(self):
        for p in (2, 3):
            R = CoeffRing("op", p)
            assert half_frobenius(half_elem(R, p)).terms == {1: CycElem.one(p)}
            assert half_frobenius(half_elem(R, 1)).is_zero()
            assert half_frobenius(half_elem(R, 0)).terms == {0: CycElem.one(p)}


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
        # the generic [2, 1] gains a v^5 term; the oracle must reject
        # exactly the pairs whose product that changes (206 of the 2025)
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
            return c + LaurentPoly.v_power(5) if (tag, m, k) == ("generic", 2, 1) else c

        # nothing downstream caches ring binomials, so replacing the
        # function is all it takes
        monkeypatch.setattr(qgroup, "_ring_binom", wrong)
        assert not oracle_product_agrees(
            _canonical("EF", 1, 0, 0), _canonical("EF", 1, 0, -2)
        )
        rejected = 0
        for (w1, w2), right in mult.items():
            agrees = oracle_product_agrees(w1, w2)
            x, y = UdotElem(G, {w1: G.one()}), UdotElem(G, {w2: G.one()})
            assert agrees == (udot_mult(x, y) == right), (w1, w2)
            rejected += not agrees
        assert rejected == 206

    def test_product_word_outside_the_denominator_raises(self, monkeypatch):
        # E·1_0 · E·1_{−2} has D = [2]!·[0]!; the denominator of a word
        # with b = 2 does not divide D, so no cofactor can be trusted
        monkeypatch.setattr(
            qgroup,
            "udot_mult",
            lambda x, y: UdotElem(G, {CBWord("EF", 1, 2, -2): G.one()}),
        )
        with pytest.raises(ValueError):
            oracle_product_agrees(_canonical("EF", 1, 0, 0), _canonical("EF", 1, 0, -2))

    def test_commutation_oracle_rejects_a_wrong_binomial(self, monkeypatch):
        # [1, 1] gains a v^5 term: exactly the formulas that use it fail
        real = qgroup.qbinom_int

        def wrong(m, k):
            c = real(m, k)
            return c + LaurentPoly.v_power(5) if (m, k) == (1, 1) else c

        monkeypatch.setattr(qgroup, "qbinom_int", wrong)
        for A in range(4):
            for B in range(4):
                for n in range(-4, 5):
                    uses_it = A - B + n == 1 and min(A, B) >= 1
                    assert commutation_formula_agrees(A, B, n) != uses_it, (A, B, n)


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


class TestHalfCoherence:
    @pytest.mark.parametrize("p", [2, 3])
    def test_one_sided_words_match_half(self, p):
        R = CoeffRing("op", p)
        for a in range(4 * p + 1):
            for n in (-2 * p, 0, p, 2 * p):
                x = word(R, a, 0, n * p)
                fx = frobenius(x)
                hf = half_frobenius(half_elem(R, a))
                if a % p == 0:
                    ((w, _),) = fx.terms.items()
                    assert w.a == a // p and hf.terms.get(a // p) is not None
                else:
                    assert fx.is_zero() and hf.is_zero()


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
