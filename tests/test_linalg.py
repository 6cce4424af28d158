import numpy as np
from hypothesis import example, given, settings, strategies as st

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
    r, pivots = linalg.rref(m, p)
    got_rows, got_pivots = linalg.sparse_rref(sparse_rows(m), p)
    assert got_pivots == pivots
    assert got_rows == sparse_rows(r[: len(pivots)])
    assert linalg.sparse_rank(sparse_rows(m), p) == linalg.rank(m, p)
    kernel = linalg.sparse_nullspace(sparse_rows(m), range(m.shape[1]), p)
    assert kernel == sparse_cols(linalg.nullspace(m, p))
    span, cand = m[:, :split], m[:, split:]
    assert linalg.sparse_extend_basis(sparse_cols(span), sparse_cols(cand), p) == (
        linalg.extend_basis(span, cand, p)
    )
