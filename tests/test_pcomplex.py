import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
import stats_oracle
from coboundary_oracle import tensor_strings
from library_extras import (
    hilbert,
    independent_mod_coboundaries,
    slash_cohomology,
    slash_reps,
    staircase_complex,
    sym_pcomplex,
    tensor,
    twist_pcomplex,
    vab_pcomplex,
    vi_pcomplex,
)
from qfrob import pcomplex
from qfrob.pcomplex import (
    INF,
    PComplex,
    dual,
    j_tensor,
    tensor_stats,
)


def assert_matches_dense_oracle(c):
    """Slash dims, representatives and strings equal the dense oracle's,
    byte for byte (reprs compare key order too)."""
    dims, strings = dense_oracle.slash_dims_and_strings(c)
    assert slash_cohomology(c).dims == dims
    assert repr(slash_reps(c)) == repr(dense_oracle.slash_reps(c, strings))

    def flat(strings):
        return repr([(s.head_degree, s.length, s.slots) for s in strings])

    assert flat(c.string_decompose()) == flat(strings)


def assert_reps_form_basis(c):
    """reps[k][d] is a basis of H_{/k} at degree d: dims[k][d] cocycles of
    ∂^{k+1} that raise the dense rank of Im ∂^{p−k−1} + Ker ∂^k by
    dims[k][d]."""
    p = c.p
    sl = slash_cohomology(c)
    reps = slash_reps(c)
    for k in range(p - 1):
        assert {d: len(vecs) for d, vecs in reps[k].items()} == sl.dims[k]
        for d, vecs in reps[k].items():
            for v in vecs:
                for _ in range(k + 1):
                    v = c.apply(v)
                assert not v
            local = c.indices_at(d)
            cols = np.zeros((len(local), len(vecs)), dtype=np.int64)
            for col, v in enumerate(vecs):
                for i, x in v.items():
                    cols[local.index(i), col] = x
            j = p - 1 - k
            span = [dense_oracle._kernels(c, d)[k]]
            if c.indices_at(d - 2 * j):
                span.append(dense_oracle.power_matrix(c, d - 2 * j, j))
            span = np.concatenate(span, axis=1)
            gain = dense_oracle.rank(np.concatenate([span, cols], axis=1), p)
            assert gain - dense_oracle.rank(span, p) == sl.dims[k][d]


def string_complex(p, heads):
    """Complex assembled from given (head degree, length) strings."""
    labels, degrees, diff = [], [], {}
    for h, l in heads:
        start = len(labels)
        for s in range(l):
            labels.append((h, l, s, start))
            degrees.append(h + 2 * s)
        for s in range(l - 1):
            diff[start + s] = {start + s + 1: 1}
    return PComplex(p, labels, degrees, diff, cap=INF)


def capped(c: PComplex, cap) -> PComplex:
    """c with its degree cap replaced, the basis kept."""
    return PComplex(c.p, c.labels, c.degrees, c.diff, cap=cap)


def scramble(c: PComplex, seed=0):
    """Conjugate by a random graded automorphism to hide the strings."""
    rng = random.Random(seed)
    p = c.p
    new_diff = {}
    # build a random invertible per-degree change of basis and transport ∂
    transforms = {}
    for d in c.support_degrees():
        n = len(c.indices_at(d))
        while True:
            m = np.array(
                [[rng.randrange(p) for _ in range(n)] for _ in range(n)],
                dtype=np.int64,
            )
            if dense_oracle.rank(m, p) == n:
                break
        transforms[d] = m
    for d in c.support_degrees():
        src = c.indices_at(d)
        tgt = c.indices_at(d + 2)
        if not tgt:
            continue
        a = dense_oracle.matrix(c, d)
        minv = dense_oracle.solve(transforms[d], np.eye(len(src), dtype=np.int64), p)
        b = (((transforms[d + 2] @ a) % p) @ minv) % p
        for cix, j in enumerate(src):
            col = {tgt[r]: int(b[r, cix]) for r in range(len(tgt)) if b[r, cix]}
            if col:
                new_diff[j] = col
    return PComplex(c.p, c.labels, c.degrees, new_diff, cap=c.cap)


class TestValidate:
    def test_zero_differential(self):
        c = PComplex(3, ["a", "b"], [0, 4], {}, cap=INF)
        assert c.validation_error() is None

    def test_full_string(self):
        for p in (2, 3, 5):
            c = string_complex(p, [(0, p)])
            assert c.validation_error() is None

    def test_too_long_string(self):
        p = 3
        c = string_complex(p, [(0, p + 1)])
        assert c.validation_error() is not None
        assert "∂^3" in c.validation_error()

    def test_inhomogeneous_reported(self):
        c = PComplex(2, ["a", "b"], [0, 4], {0: {1: 1}}, cap=INF)
        assert c.validation_error() is not None
        assert "homogeneous" in c.validation_error()

    def test_first_violator_by_index(self):
        # both heads violate ∂^3 = 0; the head at degree 2 comes first by
        # index although the one at degree 0 comes first by degree
        c = string_complex(3, [(2, 4), (0, 4)])
        assert c.validation_error() == f"∂^3 does not vanish on {c.labels[0]!r}"

    @pytest.mark.parametrize(
        "compute",
        [slash_cohomology, PComplex.string_decompose, PComplex.string_stats],
        ids=["slash_cohomology", "string_decompose", "string_stats"],
    )
    @pytest.mark.parametrize(
        "c",
        [
            string_complex(3, [(2, 4), (0, 4)]),
            PComplex(2, ["a", "b", "c"], [0, 2, 4], {0: {1: 1}, 1: {0: 1}}, cap=INF),
            capped(string_complex(3, [(10, 4), (0, 4)]), 8),
        ],
        ids=["too_long_string", "inhomogeneous", "too_long_lower_copy"],
    )
    def test_computations_validate(self, compute, c):
        with pytest.raises(ValueError) as exc:
            compute(c)
        assert str(exc.value) == c.validation_error()

    def test_only_the_lower_copy_in_window(self):
        # two identical too-long strings; at cap 8 the ∂^3 = 0 window ends
        # at degree 2, which holds the head of the lower copy (index 4) only
        c = capped(string_complex(3, [(10, 4), (0, 4)]), 8)
        assert c.validation_error() == f"∂^3 does not vanish on {c.labels[4]!r}"
        # the upper copy alone lies above the window
        assert capped(string_complex(3, [(10, 4)]), 8).validation_error() is None


class TestSlashCohomology:
    def test_trivial_differential(self):
        c = PComplex(5, list("abc"), [0, 2, 2], {}, cap=INF)
        sl = slash_cohomology(c)
        assert sl.dims[0] == {0: 1, 2: 2}
        for k in range(1, 4):
            assert not sl.dims.get(k)

    def test_full_string_contractible(self):
        for p in (2, 3, 5):
            sl = slash_cohomology(string_complex(p, [(0, p)]))
            assert sl.is_zero()

    def test_length_two_string_p3(self):
        sl = slash_cohomology(string_complex(3, [(0, 2)]))
        assert sl.dims[0] == {2: 1}  # tail class
        assert sl.dims[1] == {0: 1}  # head class

    def test_empty_window_is_not_zero(self):
        # cap 2 at p = 3 leaves the valid window (0, −2): nothing is decided
        c = PComplex(3, ["a", "b"], [0, 2], {0: {1: 1}}, cap=2)
        sl = slash_cohomology(c)
        assert sl.valid_window == (0, -2)
        with pytest.raises(ValueError, match="empty valid window"):
            sl.is_zero()

    def test_representatives_are_cocycles(self):
        c = scramble(string_complex(3, [(0, 2), (2, 1), (0, 3)]), seed=5)
        for k, per_degree in slash_reps(c).items():
            for d, vecs in per_degree.items():
                for v in vecs:
                    w = dict(v)
                    for _ in range(k + 1):
                        w = c.apply(w)
                    assert not w


class TestStrings:
    def test_zero_differential(self):
        c = PComplex(3, list("ab"), [0, 2], {}, cap=INF)
        assert sorted(s.length for s in c.string_decompose()) == [1, 1]

    def test_single_jordan_block(self):
        c = PComplex(2, ["x", "y"], [0, 2], {0: {1: 1}}, cap=INF)
        strs = c.string_decompose()
        assert len(strs) == 1 and strs[0].length == 2

    def test_sym1_p3(self):
        c = sym_pcomplex(1, 3, 30)
        strs = c.string_decompose()
        heads = sorted((s.head_degree, s.length) for s in strs)
        assert heads == [(0, 1)] + [(2 + 6 * j, 3) for j in range(5)]

    def test_decomposition_spans(self):
        c = scramble(string_complex(3, [(0, 3), (0, 1), (2, 2), (4, 3)]), seed=9)
        strs = c.string_decompose()
        assert sorted(s.length for s in strs) == [1, 2, 3, 3]
        # slots must form a basis degreewise
        for d in c.support_degrees():
            local = c.indices_at(d)
            cols = []
            for s in strs:
                for t, vec in enumerate(s.slots):
                    if s.head_degree + 2 * t == d:
                        col = np.zeros(len(local), dtype=np.int64)
                        for i, v in vec.items():
                            col[local.index(i)] = v
                        cols.append(col)
            m = np.stack(cols, axis=1)
            assert dense_oracle.rank(m, 3) == len(local)

    def test_stats_rank_only_powers_below_p(self, monkeypatch):
        # once validate has passed, ∂^p and ∂^{p+1} are zero in every degree,
        # so string_stats builds no image ∂^j(e_i) with j ≥ p
        asked = []
        real = pcomplex._Powers.images

        def spy(self, d, j):
            asked.append((self.c.p, j))
            return real(self, d, j)

        monkeypatch.setattr(pcomplex._Powers, "images", spy)
        for c in (sym_pcomplex(2, 3, 16), twist_pcomplex(3, 1, 2, 12), vab_pcomplex(1, 2, 2)):
            c.string_stats()
        assert asked and all(j < p for p, j in asked)

    def test_bookkeeping_identity(self):
        c = scramble(string_complex(3, [(0, 3), (0, 2), (2, 1), (2, 3)]), seed=3)
        sl = slash_cohomology(c)
        strs = c.string_decompose()
        for d in c.support_degrees():
            through = sum(
                1
                for s in strs
                if s.length == 3 and s.head_degree <= d <= s.head_degree + 4
                and (d - s.head_degree) % 2 == 0
            )
            short = sum(sl.dims[k].get(d, 0) for k in range(2))
            assert short + through == len(c.indices_at(d))


class TestTensor:
    def test_unit(self):
        one = PComplex(3, ["1"], [0], {}, cap=INF)
        b = string_complex(3, [(0, 2), (2, 3)])
        t = tensor(one, b)
        assert {d: len(t.indices_at(d)) for d in t.support_degrees()} == {
            d: len(b.indices_at(d)) for d in b.support_degrees()
        }
        assert sorted(s.length for s in t.string_decompose()) == [2, 3]

    def test_string_times_unit(self):
        a = string_complex(5, [(0, 5)])
        one = PComplex(5, ["1"], [0], {}, cap=INF)
        t = tensor(a, one)
        assert [s.length for s in t.string_decompose()] == [5]

    def test_jp_tensor_jp(self):
        for p in (2, 3):
            t = j_tensor((p, p), p)
            assert sorted(s.length for s in t.string_decompose()) == [p] * p

    def test_tensor_with_contractible_is_contractible(self):
        rng = random.Random(11)
        for trial in range(6):
            p = rng.choice([2, 3])
            heads = [
                (2 * rng.randrange(3), rng.randrange(1, p + 1)) for _ in range(3)
            ]
            m = scramble(string_complex(p, heads), seed=trial)
            contractible = string_complex(p, [(0, p), (2, p)])
            t = tensor(m, contractible)
            assert slash_cohomology(t).is_zero()

    def test_stats_match_explicit(self):
        a = sym_pcomplex(2, 3, 16)
        b = string_complex(3, [(0, 2), (2, 1)])
        t = tensor(a, b)
        direct = {}
        for s in t.string_decompose():
            key = (s.head_degree, s.length)
            direct[key] = direct.get(key, 0) + 1
        via = tensor_stats(a.string_stats(), b.string_stats(), 3)
        trusted = {k: v for k, v in via.counts.items() if k[0] + 2 * (k[1] - 1) <= t.cap}
        direct = {k: v for k, v in direct.items() if k[0] + 2 * (k[1] - 1) <= t.cap}
        assert trusted == direct

    def test_tensor_strings_explicit(self):
        a = string_complex(3, [(0, 2), (4, 3)])
        b = string_complex(3, [(0, 3), (2, 1)])
        t = tensor(a, b)
        pos = {lab: i for i, lab in enumerate(t.labels)}
        mapped = tensor_strings(
            a.string_decompose(),
            b.string_decompose(),
            3,
            lambda i, j: pos[(a.labels[i], b.labels[j])],
        )
        assert sum(s.length for s in mapped) == t.dim
        # every mapped string is a genuine ∂-orbit in the product complex
        for s in mapped:
            for idx in range(s.length - 1):
                assert t.apply(s.slots[idx]) == s.slots[idx + 1]
            assert not t.apply(s.slots[-1])

    def test_slash_dims_from_stats(self):
        a = sym_pcomplex(1, 3, 30)
        m = string_complex(3, [(0, 2)])
        t = tensor(a, m)
        sl = slash_cohomology(t)
        dims = tensor_stats(a.string_stats(), m.string_stats(), 3).slash().dims
        for k in range(2):
            got = {d: v for d, v in dims[k].items() if d <= sl.valid_window[1]}
            expect = {d: v for d, v in sl.dims[k].items() if d <= t.cap - 4}
            assert got == expect


class TestHilbert:
    def test_empty(self):
        c = PComplex(3, [], [], {}, cap=20)
        assert c.support_degrees() == []
        assert hilbert(slash_cohomology(c)).dims == {}

    def test_sym2_window8(self):
        c = sym_pcomplex(2, 3, 8)
        assert [len(c.indices_at(d)) for d in (0, 2, 4, 6, 8)] == [1, 1, 2, 2, 3]

    def test_symp_slash_hilbert(self):
        for p in (2, 3):
            sl = slash_cohomology(sym_pcomplex(p, p, 6 * p * p))
            h = hilbert(sl)
            for d in range(0, h.window[1] + 1, 2):
                expect = 1 if d % (2 * p * p) == 0 else 0
                assert h[d] == expect

    def test_window_enforced(self):
        # the valid window of cap 8 at p = 3 ends at 8 − 2(p − 1) = 4
        h = hilbert(slash_cohomology(sym_pcomplex(2, 3, 8)))
        assert h.window == (0, 4)
        for d in (6, 10):
            with pytest.raises(KeyError):
                h[d]


class TestTruncationBoundary:
    def test_cut_string_stays_outside_valid_window(self):
        # Sym_1 at p = 3 truncated at 28: the string through degrees 26, 28
        # is cut by the cap, and its phantom classes sit above the valid
        # window, so the reported slash cohomology is still just the unit
        c = sym_pcomplex(1, 3, 28)
        strs = c.string_decompose()
        assert (26, 2) in {(s.head_degree, s.length) for s in strs}
        sl = slash_cohomology(c)
        assert sl.valid_window[1] == 24
        assert sl.dims[0] == {0: 1}
        assert not sl.dims[1]

    def test_golden_representatives(self):
        # fixed pivot order makes representatives reproducible
        c = vab_pcomplex(1, 2, 2)
        reps = {
            (k, d): [sorted(v.items()) for v in vecs]
            for k, per in slash_reps(c).items()
            for d, vecs in per.items()
        }
        labels = c.labels
        flat = {
            (k, d): [[(labels[i], cf) for i, cf in vec] for vec in vecs]
            for (k, d), vecs in reps.items()
        }
        assert flat == {
            (0, 0): [[((), 1)]],
            (0, 8): [[((2, 2), 1)]],
            (0, 16): [[((2, 2, 2, 2), 1)]],
        }


scrambled_string_complexes = given(
    st.sampled_from([2, 3]),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 3)),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 10_000),
)


@settings(max_examples=25, deadline=None)
@scrambled_string_complexes
def test_slash_agrees_with_strings_random(p, head_data, seed):
    heads = [(2 * h, min(l, p)) for h, l in head_data]
    c = scramble(string_complex(p, heads), seed=seed)
    sl = slash_cohomology(c)
    # predicted dims from the hidden string data
    expect = {k: {} for k in range(p - 1)}
    for h, l in heads:
        if l >= p:
            continue
        for k in range(l):
            d = h + 2 * (l - 1 - k)
            expect[k][d] = expect[k].get(d, 0) + 1
    for k in range(p - 1):
        assert sl.dims.get(k, {}) == expect[k]
    assert_matches_dense_oracle(c)


@settings(max_examples=25, deadline=None)
@scrambled_string_complexes
def test_reps_form_basis_random(p, head_data, seed):
    heads = [(2 * h, min(l, p)) for h, l in head_data]
    assert_reps_form_basis(scramble(string_complex(p, heads), seed=seed))


oracle_complexes = pytest.mark.parametrize(
    "make",
    [
        lambda: sym_pcomplex(4, 3, 72),
        lambda: twist_pcomplex(4, 1, 3, 72),
        # basis vectors above the cap, where the window ends
        lambda: tensor(sym_pcomplex(2, 3, 16), string_complex(3, [(0, 2), (2, 1)])),
    ],
    ids=["sym4", "twist4_1", "truncated_tensor"],
)


@oracle_complexes
def test_sparse_matches_dense_oracle(make):
    assert_matches_dense_oracle(make())


@oracle_complexes
def test_reps_form_basis(make):
    assert_reps_form_basis(make())


# ---------- string statistics against the whole-complex oracle ----------


def stats_outcome(compute, c):
    """The counts, in order, and the cap of compute(c), or the type and
    message of what it raises."""
    try:
        stats = compute(c)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)
    return list(stats.counts.items()), stats.cap


def assert_stats_match_oracle(c):
    """string_stats(c) equals the whole-complex oracle's; returns the outcome."""
    outcome = stats_outcome(PComplex.string_stats, c)
    assert outcome == stats_outcome(stats_oracle.string_stats, c)
    return outcome


def direct_sum(parts, cap, drop_above_cap, rng):
    """The direct sum of the (complex, shift) parts with the given cap.

    The parts' bases are interleaved at random, each keeping its own order,
    so equal parts stay equal components that are not contiguous.  With
    drop_above_cap, basis vectors of degree > cap and the entries of ∂
    into them are dropped, as the builders truncate.
    """
    queues = [
        [(k, i) for i in range(c.dim) if not drop_above_cap or c.degrees[i] + s <= cap]
        for k, (c, s) in enumerate(parts)
    ]
    cells = []
    while any(queues):
        cells.append(rng.choice([q for q in queues if q]).pop(0))
    pos = {cell: n for n, cell in enumerate(cells)}
    diff = {}
    for n, (k, i) in enumerate(cells):
        row = {
            pos[(k, t)]: x for t, x in parts[k][0].diff.get(i, {}).items() if (k, t) in pos
        }
        if row:
            diff[n] = row
    degrees = [parts[k][0].degrees[i] + parts[k][1] for k, i in cells]
    return PComplex(parts[0][0].p, cells, degrees, diff, cap=cap)


stats_complexes = pytest.mark.parametrize(
    "make",
    [
        lambda: sym_pcomplex(4, 2, 32),
        lambda: sym_pcomplex(4, 3, 72),
        lambda: sym_pcomplex(3, 5, 100),
        lambda: twist_pcomplex(4, 1, 2, 32),
        lambda: twist_pcomplex(4, 1, 3, 72),
        lambda: twist_pcomplex(3, 2, 5, 100),
        lambda: vab_pcomplex(1, 2, 2),
        lambda: vab_pcomplex(2, 1, 3),
        lambda: vab_pcomplex(1, 1, 5),
        lambda: j_tensor((2, 3), 3),
        lambda: j_tensor((2, 2, 3), 5),
        lambda: staircase_complex(3),
        lambda: dual(staircase_complex(3)),
        # basis vectors above the cap, where the window ends
        lambda: tensor(sym_pcomplex(2, 3, 16), string_complex(3, [(0, 2), (2, 1)])),
    ],
    ids=[
        "sym4_p2",
        "sym4_p3",
        "sym3_p5",
        "twist4_1_p2",
        "twist4_1_p3",
        "twist3_2_p5",
        "vab_1_2_p2",
        "vab_2_1_p3",
        "vab_1_1_p5",
        "j_2_3_p3",
        "j_2_2_3_p5",
        "staircase3",
        "staircase3_dual",
        "truncated_tensor",
    ],
)


class TestStatsByComponents:
    @stats_complexes
    def test_matches_whole_complex_oracle(self, make):
        assert_stats_match_oracle(make())

    def test_random_direct_sums_match_oracle(self):
        # repeated copies at several shifts, some cut by the cap, some too
        # long for ∂^p = 0 inside or outside the window
        outcomes = set()
        for seed in range(60):
            rng = random.Random(seed)
            p = rng.choice([2, 3, 5])
            parts = []
            for n in range(rng.randint(1, 3)):
                heads = [
                    (2 * rng.randrange(3), rng.randint(1, p + (rng.random() < 0.15)))
                    for _ in range(rng.randint(1, 3))
                ]
                part = scramble(string_complex(p, heads), seed=seed * 7 + n)
                parts += [(part, 2 * rng.randrange(8)) for _ in range(rng.randint(1, 4))]
            cap = rng.choice([INF, 2 * rng.randrange(4, 14)])
            c = direct_sum(parts, cap, rng.random() < 0.5, rng)
            raised = assert_stats_match_oracle(c)[0] in (ValueError, AssertionError)
            outcomes.add(raised)
        assert outcomes == {False, True}


class TestSlashFromStats:
    """Every slash result is `StringStats.slash`: its dims are those of the
    kernels and images of the powers of ∂ (`dense_oracle.slash_dims`), and
    the window starts at the lowest degree, where every basis vector is a
    string head."""

    def assert_same(self, c):
        sl = slash_cohomology(c)
        assert sl.dims == dense_oracle.slash_dims(c)
        assert sl.valid_window == (min(c.degrees, default=0), c.cap - 2 * (c.p - 1))

    @stats_complexes
    def test_builders(self, make):
        self.assert_same(make())

    @pytest.mark.parametrize("i, k, p", [(1, 2, 3), (2, 1, 3), (2, 2, 5)])
    def test_vi(self, i, k, p):
        self.assert_same(vi_pcomplex(i, k, p))

    def test_empty(self):
        self.assert_same(PComplex(3, [], [], {}, cap=20))
        self.assert_same(PComplex(2, [], [], {}))

    def test_random_direct_sums(self):
        checked = 0
        for seed in range(40):
            rng = random.Random(seed)
            p = rng.choice([2, 3, 5])
            parts = []
            for n in range(rng.randint(1, 3)):
                heads = [
                    (2 * rng.randrange(3), rng.randint(1, p))
                    for _ in range(rng.randint(1, 3))
                ]
                part = scramble(string_complex(p, heads), seed=seed * 7 + n)
                parts += [(part, 2 * rng.randrange(8)) for _ in range(rng.randint(1, 4))]
            cap = rng.choice([INF, 2 * rng.randrange(4, 14)])
            c = direct_sum(parts, cap, True, rng)
            if c.validation_error() is None:
                self.assert_same(c)
                checked += 1
        assert checked >= 30


class TestIndependentModCoboundaries:
    """`library_extras.independent_mod_coboundaries` against dense ranks:
    vectors of degree d are independent modulo Im ∂^{p−1} exactly when they
    raise the rank of the ∂^{p−1} images by their number."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: sym_pcomplex(3, 3, 40),
            lambda: sym_pcomplex(4, 2, 20),
            lambda: sym_pcomplex(2, 5, 60),
            lambda: vab_pcomplex(1, 2, 2),
            lambda: vab_pcomplex(2, 1, 3),
        ],
        ids=["sym3_p3", "sym4_p2", "sym2_p5", "vab_1_2_p2", "vab_2_1_p3"],
    )
    def test_matches_dense_oracle(self, make):
        c = make()
        p, j = c.p, c.p - 1
        rng = random.Random(5)
        seen = set()
        for d in c.support_degrees():
            if d > c.cap:
                continue
            local = c.indices_at(d)
            if c.indices_at(d - 2 * j):
                im = dense_oracle.power_matrix(c, d - 2 * j, j)
            else:
                im = np.zeros((len(local), 0), dtype=np.int64)
            images = [dense_oracle._vector(local, im[:, col]) for col in range(im.shape[1])]

            def rand():
                return {i: rng.randrange(p) for i in local if rng.random() < 0.6}

            def scaled(v, s):
                return {i: x * s % p for i, x in v.items() if x * s % p}

            def added(v, w):
                out = dict(v)
                for i, x in w.items():
                    out[i] = (out.get(i, 0) + x) % p
                return {i: x for i, x in out.items() if x}

            cases = [[{i: 1}] for i in local]
            cases += [[{i: 1} for i in local]]
            cases += [[rand() for _ in range(rng.randint(1, 3))] for _ in range(6)]
            v = {local[0]: 1}
            cases += [[v, scaled(v, p - 1)], [v, v], [{}]]
            if images:
                w = rng.choice(images)
                cases += [[w], [added(v, w)], [v, added(v, w)], [v, added(rand(), w)]]
            for vecs in cases:
                cols = np.zeros((len(local), len(vecs)), dtype=np.int64)
                for col, vec in enumerate(vecs):
                    for i, x in vec.items():
                        cols[local.index(i), col] = x
                base = dense_oracle.rank(im, p) if im.shape[1] else 0
                gain = dense_oracle.rank(np.concatenate([im, cols], axis=1), p) - base
                expect = gain == len(vecs)
                assert independent_mod_coboundaries(c, d, vecs) == expect, (d, vecs)
                seen.add(expect)
        assert seen == {False, True}
