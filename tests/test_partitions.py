import itertools
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import demazure_oracle
import lr_oracle
import partitions_oracle
from library_extras import partitions_of
from qfrob import partitions as pt
from qfrob import symfunc


def brute_product_via_monomials(mu, nu, nvars):
    """Independent oracle: multiply monomial expansions in nvars variables."""
    m1 = demazure_oracle.schur_monomials(mu, nvars)
    m2 = demazure_oracle.schur_monomials(nu, nvars)
    conv = {}
    for e1, c1 in m1.items():
        for e2, c2 in m2.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            conv[key] = conv.get(key, 0) + c1 * c2
    return {k: v for k, v in conv.items() if v}


def expand_to_monomials(coeffs, nvars):
    out = {}
    for lam, c in coeffs.items():
        if len(lam) > nvars:
            continue
        for e, k in demazure_oracle.schur_monomials(lam, nvars).items():
            out[e] = out.get(e, 0) + c * k
    return {k: v for k, v in out.items() if v}


class TestBasics:
    def test_transpose(self):
        assert pt.transpose((3, 1)) == (2, 1, 1)
        assert pt.transpose(()) == ()
        for lam in [(4, 2, 1), (5,), (2, 2, 2)]:
            assert pt.transpose(pt.transpose(lam)) == lam

    def test_box_count(self):
        for rows in range(5):
            for cols in range(5):
                assert len(pt.partitions_in_box(rows, cols)) == comb(
                    rows + cols, rows
                )

    def test_addable_contents(self):
        boxes = pt.addable_boxes((2, 1))
        assert boxes == [(0, 2), (1, 0), (2, -2)]
        assert pt.addable_boxes((2, 1), max_rows=2) == [(0, 2), (1, 0)]

    def test_complement(self):
        assert pt.complement((1,), 1, 1) == ()
        assert pt.complement((), 1, 1) == (1,)
        assert pt.complement((2, 1), 2, 2) == (1,)
        for lam in pt.partitions_in_box(2, 3):
            hat = pt.complement(lam, 2, 3)
            assert pt.fits_in(hat, 3, 2)
            assert pt.complement(hat, 3, 2) == lam

    def test_partitions_of_matches_unpruned(self):
        # dropping a prefix whose rows cannot hold the rest loses nothing
        for m in range(31):
            for max_rows in (None, *range(1, 10)):
                for max_part in (None, 2, 5):
                    assert partitions_of(m, max_rows, max_part) == (
                        partitions_oracle.partitions_of(m, max_rows, max_part)
                    )

    def test_bounded_partitions_brute_force(self):
        # every weakly decreasing vector between lo and hi, in decreasing
        # lexicographic order, trailing zeros dropped
        for hi in [(), (3,), (2, 2), (4, 1, 3), (3, 3, 3, 1)]:
            for lo in [lo for lo in [(), (1,), (2, 1)] if len(lo) <= len(hi)]:
                for size in (None, 0, 3, 5):
                    brute = [
                        tuple(x for x in v if x)
                        for v in sorted(
                            itertools.product(*(range(h + 1) for h in hi)), reverse=True
                        )
                        if all(v[i] >= v[i + 1] for i in range(len(v) - 1))
                        and all(x >= b for x, b in zip(v, lo))
                        and (size is None or sum(v) == size)
                    ]
                    got = list(pt.bounded_partitions(hi, size, lo))
                    assert got == brute, (hi, lo, size)

    def test_partitions_in_box_matches_recursion(self):
        for rows in range(7):
            for cols in range(7):
                assert pt.partitions_in_box(rows, cols) == (
                    partitions_oracle.partitions_in_box(rows, cols)
                )

    def test_lr_shapes_match_recursion(self):
        parts = [lam for m in range(9) for lam in partitions_of(m)]
        for mu in parts:
            for nu in parts:
                if sum(mu) + sum(nu) > 8:
                    continue
                for max_rows in (None, 1, 2, 3, 4):
                    assert list(pt._lr_shapes(mu, nu, max_rows)) == (
                        partitions_oracle._lr_shapes(mu, nu, max_rows)
                    ), (mu, nu, max_rows)

    def test_subpartitions_match_recursion(self):
        for m in range(10):
            for lam in partitions_of(m):
                for max_rows in (None, *range(1, len(lam) + 2)):
                    assert symfunc._subpartitions(lam, max_rows) == (
                        partitions_oracle._subpartitions(lam, max_rows)
                    ), (lam, max_rows)

    def test_expand_p(self):
        assert pt.expand_p((2, 1), 3) == (6, 6, 6, 3, 3, 3)
        assert pt.expand_p((), 5) == ()

    def test_lima(self):
        assert pt.lima_partitions(1, 0, 3) == ((),)
        assert pt.lima_partitions(1, 1, 2) == ((), (2, 2))
        assert (6, 6, 6, 3, 3, 3) in pt.lima_partitions(2, 2, 3)
        for b, a, p in [(2, 1, 2), (1, 2, 3), (2, 2, 2)]:
            assert len(pt.lima_partitions(b, a, p)) == comb(a + b, a)


@st.composite
def lr_pairs(draw):
    """(mu, nu) with |mu| + |nu| ≤ 12."""
    total = draw(st.integers(0, 12))
    m = draw(st.integers(0, total))
    mu = draw(st.sampled_from(partitions_of(m)))
    nu = draw(st.sampled_from(partitions_of(total - m)))
    return mu, nu


class TestLittlewoodRichardson:
    @settings(max_examples=300, deadline=None)
    @given(lr_pairs())
    def test_matches_strip_chain_oracle(self, pair):
        mu, nu = pair
        expect = lr_oracle.lr_expand(mu, nu)
        assert pt.lr_expand(mu, nu) == expect
        for lam, c in expect.items():
            assert pt.lr_restrict(lam, mu).get(nu, 0) == c

    def test_row_bound_matches_oracle(self):
        seen = 0
        for total in range(12):
            for m in range(total + 1):
                for mu in partitions_of(m):
                    for nu in partitions_of(total - m):
                        expect = lr_oracle.lr_expand(mu, nu)
                        for rows in range(1, 5):
                            bounded = {
                                lam: c for lam, c in expect.items() if len(lam) <= rows
                            }
                            assert pt.lr_expand(mu, nu, rows) == bounded, (mu, nu, rows)
                            seen += 1
        assert seen == 7868

    def test_square_of_box(self):
        assert pt.lr_expand((1,), (1,)) == {(2,): 1, (1, 1): 1}

    def test_s21_squared(self):
        assert pt.lr_expand((2, 1), (2, 1)) == {
            (4, 2): 1,
            (4, 1, 1): 1,
            (3, 3): 1,
            (3, 2, 1): 2,
            (3, 1, 1, 1): 1,
            (2, 2, 2): 1,
            (2, 2, 1, 1): 1,
        }

    @pytest.mark.parametrize(
        "mu,nu",
        [((2, 1), (2, 2)), ((3, 1), (2, 1)), ((2, 2), (2, 2)), ((3, 2, 1), (2, 1))],
    )
    def test_against_monomial_oracle(self, mu, nu):
        nvars = 3
        conv = brute_product_via_monomials(mu, nu, nvars)
        expect = expand_to_monomials(pt.lr_expand(mu, nu), nvars)
        assert conv == expect

    def test_restrict_matches_expand(self):
        for mu in [(2, 1), (2, 2), (3, 1)]:
            for nu in [(1,), (1, 1), (2, 1)]:
                for lam, c in pt.lr_expand(mu, nu).items():
                    assert pt.lr_restrict(lam, mu).get(nu, 0) == c

    def test_restrict_example(self):
        assert pt.lr_restrict((2, 1), (1,)) == {(1, 1): 1, (2,): 1}


class TestKostka:
    def test_roundtrip(self):
        for lam in [(2, 1), (3,), (2, 2), (3, 2, 1)]:
            nvars = 3
            if len(lam) > nvars:
                continue
            mono = demazure_oracle.schur_monomials(lam, nvars)
            mcoords = {}
            for exps, c in mono.items():
                key = tuple(sorted((e for e in exps if e), reverse=True))
                mcoords[key] = c
            assert demazure_oracle.monomial_to_schur_coords(mcoords, nvars) == {lam: 1}

    def test_modular_roundtrip(self):
        mono = demazure_oracle.schur_monomials((2, 2), 2)
        mcoords = {}
        for exps, c in mono.items():
            key = tuple(sorted((e for e in exps if e), reverse=True))
            mcoords[key] = c % 2
        assert demazure_oracle.monomial_to_schur_coords(mcoords, 2, modulus=2) == {(2, 2): 1}

    def test_rejects_too_many_rows(self):
        # m_(1,1,1) vanishes in two variables and has no Schur expansion there
        with pytest.raises(ValueError):
            demazure_oracle.monomial_to_schur_coords({(1, 1, 1): 1}, 2)
