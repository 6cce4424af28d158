import numpy as np
from hypothesis import example, given, settings, strategies as st

import dense_oracle
from library_extras import SparseSpan
from qfrob import linalg


@st.composite
def fp_matrices(draw):
    """(p, matrix, split): a small integer matrix, entries not yet reduced
    mod p, and a column split point for basis extension."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.integers(-p, 2 * p))
    flat = draw(st.lists(entry, min_size=nrows * ncols, max_size=nrows * ncols))
    m = np.array(flat, dtype=np.int64).reshape(nrows, ncols)
    return p, m, draw(st.integers(0, ncols))


def sparse_rows(m):
    return [{j: int(x) for j, x in enumerate(row) if x} for row in m]


def sparse_cols(m):
    return sparse_rows(m.T)


@settings(max_examples=300, deadline=None)
@given(fp_matrices())
@example((3, np.zeros((0, 4), dtype=np.int64), 2))
@example((5, np.zeros((4, 0), dtype=np.int64), 0))
@example((2, np.zeros((3, 5), dtype=np.int64), 1))
@example((7, np.zeros((0, 0), dtype=np.int64), 0))
def test_sparse_kernel_matches_dense(case):
    p, m, split = case
    assert linalg.sparse_rank(sparse_rows(m), p) == dense_oracle.rank(m, p)
    kernel = linalg.sparse_nullspace(sparse_rows(m), range(m.shape[1]), p)
    assert kernel == sparse_cols(dense_oracle.nullspace(m, p))
    span, cand = m[:, :split], m[:, split:]
    assert linalg.sparse_extend_basis(sparse_cols(span), sparse_cols(cand), p) == (
        dense_oracle.extend_basis(span, cand, p)
    )


# --------------------------------------------------------------------------
# SparseSpan against dense solve / in_span
# --------------------------------------------------------------------------

KEYS = [("k", i) for i in range(7)]  # hashable non-integer keys, as in pdgmod


@st.composite
def span_cases(draw):
    """(p, basis, queries): basis columns as a dense matrix over KEYS (rows)
    and query vectors, some drawn inside the span.  Keys on which every
    basis vector is zero are absent from the sparse basis, so queries also
    hit keys the span has never seen.

    Bases come in three shapes: a unitriangular matrix with its rows and
    columns permuted at random (peeling finds a singleton at every step), a
    general invertible matrix (peeling stalls), and, half of the time, an
    arbitrary, possibly singular or non-square matrix.
    """
    p = draw(st.sampled_from([2, 3, 5, 7]))
    kind = draw(st.sampled_from(["triangular", "invertible", "any", "any"]))
    entry = st.integers(0, p - 1)
    if kind == "any":
        n = draw(st.integers(0, 7))
        k = draw(st.integers(0, 7))
        flat = draw(st.lists(entry, min_size=n * k, max_size=n * k))
        basis = np.array(flat, dtype=np.int64).reshape(n, k)
    else:
        n = draw(st.integers(1, 7))
        flat = draw(st.lists(entry, min_size=n * n, max_size=n * n))
        m = np.array(flat, dtype=np.int64).reshape(n, n)
        if kind == "triangular":
            m = np.tril(m, -1) + np.diag(
                draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n))
            )
            rows = draw(st.permutations(range(n)))
            cols = draw(st.permutations(range(n)))
            basis = m[np.ix_(rows, cols)]
        else:
            basis = m
            if dense_oracle.rank(basis, p) < n:  # make it invertible
                basis = (basis + np.eye(n, dtype=np.int64)) % p
                if dense_oracle.rank(basis, p) < n:
                    basis = np.eye(n, dtype=np.int64)
    n, k = basis.shape
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        if k and draw(st.booleans()):  # a combination of the basis
            x = np.array(draw(st.lists(entry, min_size=k, max_size=k)), dtype=np.int64)
            queries.append((basis @ x) % p)
        else:  # entries not yet reduced mod p
            raw = st.integers(-p, 2 * p)
            queries.append(
                np.array(draw(st.lists(raw, min_size=n, max_size=n)), dtype=np.int64)
            )
    return p, basis, queries


def keyed(col):
    return {KEYS[i]: int(x) for i, x in enumerate(col) if x}


@settings(max_examples=300, deadline=None)
@given(span_cases())
@example((3, np.zeros((3, 0), dtype=np.int64), [np.array([0, 1, 0])]))
@example((5, np.zeros((2, 2), dtype=np.int64), [np.array([0, 0]), np.array([1, 0])]))
@example((2, np.eye(3, dtype=np.int64)[:, [2, 0]], [np.array([1, 0, 1])]))
def test_sparse_span_matches_dense(case):
    p, basis, queries = case
    n, k = basis.shape
    span = SparseSpan([keyed(basis[:, i]) for i in range(k)], p)
    assert span.rank == dense_oracle.rank(basis, p)
    for v in queries:
        got = span.coords(keyed(v))
        inside = dense_oracle.in_span(basis, v, p)
        assert (got is not None) == inside
        assert (keyed(v) in span) == inside
        if got is None:
            continue
        assert list(got) == sorted(got)
        assert all(0 < c < p for c in got.values())
        x = np.zeros(k, dtype=np.int64)
        for i, c in got.items():
            x[i] = c
        assert ((basis @ x - v) % p == 0).all()
        if span.rank == k:  # coordinates are unique
            assert np.array_equal(x, dense_oracle.solve(basis, v, p))

