"""Exact linear algebra over prime fields F_p.

Two eliminations live here.

* The sparse row kernel (`sparse_rref`, `sparse_rank`, `sparse_nullspace`,
  `sparse_extend_basis`) works on vectors stored as ``{column: value}``
  dicts.  Every p-complex computation in `pcomplex` runs on it: the
  matrices of ∂^j there are well under 1 % nonzero.
* The dense numpy routines (`rref`, `nullspace`, `solve`, ...) remain for
  the linear solves of `pdgmod`, the coboundary membership tests of the
  lima and theta0 checks, and as the oracle the tests compare the sparse
  kernel against.

Both take the first usable pivot scanning columns left to right (columns
in key order for the sparse kernel), so echelon forms, kernels and chosen
basis extensions are fully deterministic and agree between the two, which
the golden tests rely on.  p must be prime: inverses are taken by Fermat.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = [
    "as_fp",
    "rref",
    "rank",
    "nullspace",
    "solve",
    "in_span",
    "extend_basis",
    "matmul_mod",
    "sparse_rref",
    "sparse_rank",
    "sparse_nullspace",
    "sparse_extend_basis",
]


def matmul_mod(a, b, p: int) -> np.ndarray:
    """Exact (A @ B) mod p through float64 BLAS.

    Safe while the inner dimension times (p−1)² stays below 2^53, which
    covers everything this package builds by a wide margin.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[1] * (p - 1) ** 2 >= 2**53:
        return (a.astype(object) @ b.astype(object)) % p
    c = (a % p).astype(np.float64) @ (b % p).astype(np.float64)
    return np.mod(c, p).astype(np.int64)


def as_fp(a, p: int) -> np.ndarray:
    """Coerce to a 2-d int64 array with entries in [0, p)."""
    m = np.array(a, dtype=np.int64, copy=True)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    return np.mod(m, p)


def _rref2(r):
    """GF(2) reduced row echelon via XOR row updates on uint8."""
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        mask = r[:, col] == 1
        mask[row] = False
        if mask.any():
            r[mask] ^= r[row]
        pivots.append(col)
        row += 1
    return r, pivots


def rref(a, p: int):
    """Reduced row echelon form mod p.

    Returns (R, pivots) where pivots lists the pivot column of each
    nonzero row in order; pivoting always takes the first usable row, so
    the result is deterministic.
    """
    if p == 2:
        r2, pivots = _rref2((np.asarray(a, dtype=np.int64) % 2).astype(np.uint8))
        return r2.astype(np.int64), pivots
    # update products stay inside int16 for the primes used here
    dtype = np.int16 if p <= 179 else np.int64
    r = (np.asarray(a, dtype=np.int64) % p).astype(dtype)
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        inv = pow(int(r[row, col]), p - 2, p)
        if inv != 1:
            r[row] = (r[row] * inv) % p
        factors = r[:, col].copy()
        factors[row] = 0
        mask = factors != 0
        if mask.any():
            r[mask] = (r[mask] - np.outer(factors[mask], r[row])) % p
        pivots.append(col)
        row += 1
    return r.astype(np.int64), pivots


def rank(a, p: int) -> int:
    return len(rref(a, p)[1])


def nullspace(a, p: int) -> np.ndarray:
    """Columns form a deterministic basis of the right kernel."""
    m = as_fp(a, p)
    nrows, ncols = m.shape
    r, pivots = rref(m, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((ncols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-r[i, fc]) % p
    return basis


def solve(a, b, p: int):
    """One solution X of A X = B mod p, or None if inconsistent.

    B may be a vector or a matrix; free variables are set to zero, so the
    returned solution is deterministic.
    """
    a = as_fp(a, p)
    b = np.array(b, dtype=np.int64, copy=True) % p
    vector_input = b.ndim == 1
    if vector_input:
        b = b.reshape(-1, 1)
    if a.shape[0] != b.shape[0]:
        raise ValueError("shape mismatch")
    aug = np.concatenate([a, b], axis=1)
    r, pivots = rref(aug, p)
    n = a.shape[1]
    if any(c >= n for c in pivots):
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, n:]
    return x[:, 0] if vector_input else x


def in_span(basis_cols, v, p: int) -> bool:
    """Whether column vector v lies in the column span of basis_cols."""
    basis_cols = as_fp(basis_cols, p)
    if basis_cols.shape[1] == 0:
        return not np.any(np.mod(np.asarray(v), p))
    return solve(basis_cols, v, p) is not None


def extend_basis(span_cols, candidate_cols, p: int):
    """Indices of candidate columns extending span_cols to the joint span.

    One elimination of the stacked matrix [span | candidates]; RREF pivots
    prefer leftmost columns, so earlier candidates win deterministically.
    """
    span_cols = as_fp(span_cols, p)
    candidate_cols = as_fp(candidate_cols, p)
    ns = span_cols.shape[1]
    stacked = np.concatenate([span_cols, candidate_cols], axis=1)
    _, pivots = rref(stacked, p)
    return [c - ns for c in pivots if c >= ns]


# --------------------------------------------------------------------------
# sparse row kernel
# --------------------------------------------------------------------------
#
# `pivots` maps a leading column to its row, normalized so row[lead] == 1.
# Inserting a vector reduces it until its leading column is no pivot; what
# is left becomes a new pivot row.  The rows are then in echelon form but
# not reduced; `_back_substitute` makes them the reduced echelon form.


def _insert(pivots: dict, vec: dict, p: int) -> bool:
    """Add vec to the row space held in pivots; False if it was in it."""
    vec = {k: v % p for k, v in vec.items() if v % p}
    heap = list(vec)
    heapq.heapify(heap)
    get, pop, push = vec.get, heapq.heappop, heapq.heappush
    while heap:
        lead = pop(heap)
        x = get(lead)
        if x is None:  # cancelled, or a duplicate heap entry
            continue
        row = pivots.get(lead)
        if row is None:
            inv = pow(x, p - 2, p)
            if inv != 1:
                vec = {k: v * inv % p for k, v in vec.items()}
            pivots[lead] = vec
            return True
        for k, y in row.items():
            v = (get(k, 0) - x * y) % p
            if v:
                if k not in vec:
                    push(heap, k)
                vec[k] = v
            else:
                vec.pop(k, None)
    return False


def _back_substitute(pivots: dict, p: int) -> None:
    """Clear every pivot column outside its own row, in place.

    Rows are done by decreasing lead; a row only holds pivot columns to the
    right of its lead, whose rows are then already reduced and hold no
    pivot column but their own, so one pass per row suffices.
    """
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for c in [c for c in row if c != lead and c in pivots]:
            x = row.pop(c)
            for k, y in pivots[c].items():
                if k != c:
                    v = (row.get(k, 0) - x * y) % p
                    if v:
                        row[k] = v
                    else:
                        row.pop(k, None)


def _echelon(rows, p: int) -> dict:
    pivots: dict = {}
    for r in rows:
        _insert(pivots, r, p)
    return pivots


def sparse_rref(rows, p: int):
    """Reduced row echelon form of sparse rows mod p.

    Returns (R, pivots): the nonzero rows of the reduced form, ordered by
    their pivot column, each a {column: value} dict, and the sorted pivot
    columns.  Equal to the nonzero rows of `rref` with columns in key order.
    """
    pivots = _echelon(rows, p)
    _back_substitute(pivots, p)
    leads = sorted(pivots)
    return [dict(sorted(pivots[c].items())) for c in leads], leads


def sparse_rank(rows, p: int) -> int:
    return len(_echelon(rows, p))


def sparse_nullspace(rows, columns, p: int) -> list:
    """Basis of the right kernel of the sparse rows, over `columns`.

    `columns` lists every column key in increasing order.  One vector per
    non-pivot column c, in the order of `columns`: 1 at c, minus the
    reduced row entries at the pivots, exactly the columns of `nullspace`.
    """
    pivots = _echelon(rows, p)
    _back_substitute(pivots, p)
    basis = {c: {c: 1} for c in columns if c not in pivots}
    for lead, row in pivots.items():
        for k, y in row.items():
            if k != lead:
                basis[k][lead] = -y % p
    return list(basis.values())


def sparse_extend_basis(span, candidates, p: int) -> list:
    """Indices of the candidates that extend span to the joint span.

    Candidates are tried in order and kept when they do not reduce to zero,
    so earlier candidates win, as in `extend_basis`.
    """
    pivots = _echelon(span, p)
    return [i for i, v in enumerate(candidates) if _insert(pivots, v, p)]
