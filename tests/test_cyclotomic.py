import pytest
from hypothesis import given, settings, strategies as st

from cyc_oracle import fold_mul
from laurent_oracle import schoolbook_mul
from library_extras import bar
from qfrob.cyclotomic import (
    CycElem,
    ExactDivisionError,
    LaurentPoly,
    binom_reduction_check,
    qbinom,
    qbinom_int,
    qfact,
    qint,
    rho,
    to_op,
    varrho,
)


def lp(d):
    return LaurentPoly(d)


class TestQint:
    def test_zero(self):
        assert qint(0).is_zero()

    def test_three(self):
        assert qint(3) == lp({2: 1, 0: 1, -2: 1})

    def test_negative(self):
        assert qint(-2) == -lp({1: 1, -1: 1})

    def test_eval_at_one(self):
        for n in range(-9, 10):
            assert qint(n).eval_at_one() == n


class TestQbinom:
    def test_k_zero(self):
        for m in range(6):
            assert qbinom(m, 0) == LaurentPoly.one()

    def test_two_one(self):
        assert qbinom(2, 1) == lp({1: 1, -1: 1})

    def test_four_two_by_division(self):
        # independent oracle: exact division of quantum factorials
        oracle = qfact(4).divexact(qfact(2) * qfact(2))
        assert qbinom(4, 2) == oracle
        assert oracle == lp({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})

    def test_bar_invariance(self):
        for m in range(10):
            for k in range(m + 1):
                b = qbinom(m, k)
                assert b == bar(b)

    def test_pascal_identity(self):
        for m in range(1, 21):
            for k in range(1, m):
                lhs = qbinom(m, k)
                rhs = qbinom(m - 1, k).shift(k) + qbinom(m - 1, k - 1).shift(k - m)
                assert lhs == rhs

    def test_division_error(self):
        with pytest.raises(ExactDivisionError):
            qint(3).divexact(qint(2))

    def test_qbinom_int_extends(self):
        for m in range(8):
            for k in range(m + 2):
                assert qbinom_int(m, k) == (
                    qbinom(m, k) if k <= m else LaurentPoly.zero()
                )

    def test_qbinom_int_negative(self):
        assert qbinom_int(-1, 1) == qint(-1)
        assert qbinom_int(-1, 2) == (qint(-1) * qint(-2)).divexact(qfact(2))
        assert qbinom_int(-3, 2) == (qint(-3) * qint(-4)).divexact(qfact(2))

    def test_qbinom_int_negative_matches_product_formula(self, monkeypatch):
        # [m, k] = [m][m−1]...[m−k+1] / [k]! for m ∈ [−12, −1], k ≤ 9,
        # while qbinom_int itself divides nothing
        expect = {}
        for m in range(-12, 0):
            for k in range(10):
                num = LaurentPoly.one()
                for i in range(k):
                    num = num * qint(m - i)
                expect[m, k] = num.divexact(qfact(k))

        def refuse(self, other):
            raise AssertionError("divexact called")

        qbinom_int.cache_clear()
        monkeypatch.setattr(LaurentPoly, "divexact", refuse)
        for (m, k), b in expect.items():
            assert qbinom_int(m, k) == b


_COEFF = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))
_POLY = st.dictionaries(st.integers(-15, 15), _COEFF, max_size=8).map(LaurentPoly)
# c·v^e, c ≠ 0: the operand that the product shifts and scales
_MONOMIAL = st.builds(
    lambda e, c: LaurentPoly({e: c}), st.integers(-15, 15), _COEFF.filter(bool)
)
_OPERAND = st.one_of(_POLY, _MONOMIAL)


class TestDenseProduct:
    @settings(max_examples=300, deadline=None)
    @given(_OPERAND, st.one_of(_OPERAND, st.integers(-(2**70), 2**70)))
    def test_matches_schoolbook(self, a, b):
        # same coeffs dict, key set included, in both operand orders
        assert (a * b).coeffs == schoolbook_mul(a, b).coeffs
        assert (b * a).coeffs == schoolbook_mul(a, b).coeffs

    @settings(max_examples=100, deadline=None)
    @given(_POLY, st.integers(1, 6), st.integers(1, 6))
    def test_cancellation(self, a, d, m):
        # (v^d − 1)(1 + v^d + ... + v^{(m−1)d}) = v^{md} − 1: every interior
        # coefficient cancels to zero and must not be stored
        g = LaurentPoly({d: 1, 0: -1})
        h = LaurentPoly({k * d: 1 for k in range(m)})
        assert (g * h).coeffs == {m * d: 1, 0: -1}
        assert (a * (g - g)).coeffs == {} == (a * 0).coeffs
        assert (a * g * h).coeffs == schoolbook_mul(a, g * h).coeffs

    @settings(max_examples=200, deadline=None)
    @given(_POLY, _POLY)
    def test_divexact_inverts(self, a, b):
        if not b.is_zero():
            assert (a * b).divexact(b) == a


class TestToOp:
    def test_q_power_reduction(self):
        for p in (2, 3, 5):
            assert to_op(LaurentPoly({2 * p: 1}), p) == CycElem.one(p)

    def test_zero(self):
        assert to_op(LaurentPoly.zero(), 3) == CycElem.zero(3)

    def test_qbinom42_at_p2(self):
        assert to_op(qbinom(4, 2), 2) == CycElem.from_int(2, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5),
        st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5),
        st.sampled_from([2, 3, 5]),
    )
    def test_ring_homomorphism(self, d1, d2, p):
        f, g = lp(d1), lp(d2)
        assert to_op(f * g, p) == to_op(f, p) * to_op(g, p)
        assert to_op(f + g, p) == to_op(f, p) + to_op(g, p)


class TestRho:
    def test_qint_evaluation(self):
        # rho([n]) = n q^{(1-n)p} for odd p
        for p in (3, 5):
            for n in range(9):
                assert rho(qint(n), p) == CycElem.q_power(p, (1 - n) * p, n)
        assert rho(qint(2), 3) == CycElem.q_power(3, 3, 2)

    def test_one(self):
        for p in (2, 3, 5):
            assert rho(LaurentPoly.one(), p) == CycElem.one(p)

    def test_p2_evaluates_at_one(self):
        assert rho(qint(5), 2) == CycElem.from_int(2, 5)
        assert rho(qbinom(4, 2), 2) == CycElem.from_int(2, 6)

    def test_binomial_identity_small(self):
        # rho([a+b, a]) = q^{pab} C(a+b, a), (a, b, p) = (1, 1, 3)
        assert rho(qbinom(2, 1), 3) == CycElem.q_power(3, 3, 2)


class TestBinomReduction:
    def test_trivial(self):
        assert binom_reduction_check(0, 1, 3)

    def test_p2(self):
        assert binom_reduction_check(1, 1, 2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_full_range(self, p):
        for a in range(5):
            for b in range(5):
                assert binom_reduction_check(a, b, p)


class TestVarrho:
    def test_qp_to_minus_one(self):
        for p in (2, 3, 5):
            img = varrho(CycElem.q_power(p, p), "2p")
            assert img[0] == -1 and not any(img[1:])

    def test_one(self):
        assert varrho(CycElem.one(3), "p") == (1, 0)

    def test_qp_to_one(self):
        for p in (3, 5):
            img = varrho(CycElem.q_power(p, p), "p")
            assert img[0] == 1 and not any(img[1:])

    def test_p2_has_no_odd_quotient(self):
        with pytest.raises(ValueError):
            varrho(CycElem.one(2), "p")

    def test_is_additive_multiplicative(self):
        x = CycElem.q_power(5, 3, 2) + CycElem.from_int(5, 1)
        y = CycElem.q_power(5, 7, -1)
        for target in ("2p", "p"):
            # the quotient map is a ring homomorphism; verify on a product
            def img(z):
                return varrho(z, target)

            prod = img(x * y)
            # multiply images in Z[v]/Psi by hand
            mod = [(-1) ** i for i in range(5)] if target == "2p" else [1] * 5
            deg = len(mod) - 1
            conv = [0] * (2 * deg + 1)
            for i, a in enumerate(img(x)):
                for j, b in enumerate(img(y)):
                    conv[i + j] += a * b
            for e in range(len(conv) - 1, deg - 1, -1):
                c = conv[e]
                if not c:
                    continue
                conv[e] = 0
                for i, m in enumerate(mod[:-1]):
                    conv[e - deg + i] -= c * m
            assert tuple(conv[:deg]) == prod


class TestCycElemCanonical:
    def test_reduction_idempotent(self):
        for p in (2, 3, 5):
            x = CycElem.from_exponents(p, {7: 3, -4: 2, 2 * p - 1: 1})
            again = CycElem.from_exponents(
                p, {e: c for e, c in enumerate(x.coeffs)}
            )
            assert x == again

    def test_q_inverse(self):
        for p in (2, 3, 5):
            q = CycElem.q_power(p, 1)
            qinv = CycElem.q_power(p, 2 * p - 1)
            assert q * qinv == CycElem.one(p)

    def test_basis_length(self):
        assert len(CycElem.one(5).coeffs) == 8


def _cyc_operand(p):
    """0, ±1, other integers c·1, single q-powers c·q^e, general vectors."""
    return st.one_of(
        st.sampled_from((0, 1, -1)).map(lambda c: CycElem.from_int(p, c)),
        _COEFF.map(lambda c: CycElem.from_int(p, c)),
        st.builds(
            lambda e, c: CycElem.q_power(p, e, c), st.integers(-30, 30), _COEFF
        ),
        st.lists(_COEFF, min_size=2 * (p - 1), max_size=2 * (p - 1)).map(
            lambda v: CycElem(p, v)
        ),
    )


_CYC_PAIR = st.sampled_from((2, 3, 5, 7)).flatmap(
    lambda p: st.tuples(_cyc_operand(p), _cyc_operand(p))
)


class TestCycProductFastPaths:
    @settings(max_examples=400, deadline=None)
    @given(_CYC_PAIR)
    def test_matches_fold(self, pair):
        # same coeffs in both operand orders, whichever operand is c·1
        x, y = pair
        want = fold_mul(x, y).coeffs
        assert (x * y).coeffs == want
        assert (y * x).coeffs == want

    @settings(max_examples=200, deadline=None)
    @given(_CYC_PAIR, _COEFF)
    def test_integer_operand(self, pair, c):
        x, _ = pair
        want = fold_mul(x, c).coeffs
        assert (x * c).coeffs == want == (c * x).coeffs

    @settings(max_examples=200, deadline=None)
    @given(_CYC_PAIR)
    def test_truthiness(self, pair):
        for x in pair:
            nonzero = any(c != 0 for c in x.coeffs)
            assert bool(x) == (not x.is_zero()) == nonzero
