"""Dense reference versions of the p-complex computations.

Slash cohomology and string decomposition computed the slow way: dense
matrices of ∂^j from `PComplex.power_matrix`/`PComplex.matrix` and numpy
elimination from `linalg`.  `pcomplex` computes both on the sparse row
kernel; the tests require the two to agree byte for byte.
"""

import numpy as np

from qfrob import linalg
from qfrob.pcomplex import StringBasis


def _kernels(c, d):
    n = len(c.indices_at(d))
    kers = [np.zeros((n, 0), dtype=np.int64)]
    for j in range(1, c.p):
        kers.append(linalg.nullspace(c.power_matrix(d, j), c.p))
    kers.append(np.eye(n, dtype=np.int64))  # ∂^p = 0
    return kers


def _vector(local, col):
    return {local[r]: int(col[r]) for r in range(len(local)) if col[r]}


def slash_cohomology(c):
    """(dims, reps) as `PComplex.slash_cohomology` reports them."""
    p = c.p
    dims = {k: {} for k in range(p - 1)}
    reps = {k: {} for k in range(p - 1)}
    for d in c.valid_slash_degrees():
        local = c.indices_at(d)
        n = len(local)
        kers = _kernels(c, d)
        for k in range(p - 1):
            j = p - 1 - k
            src = d - 2 * j
            if c.indices_at(src):
                img = c.power_matrix(src, j)
            else:
                img = np.zeros((n, 0), dtype=np.int64)
            span = np.concatenate([img % p, kers[k]], axis=1)
            chosen = linalg.extend_basis(span, kers[k + 1], p)
            if chosen:
                dims[k][d] = len(chosen)
                reps[k][d] = [_vector(local, kers[k + 1][:, i]) for i in chosen]
    return dims, reps


def string_decompose(c):
    """The strings `PComplex.string_decompose` returns, in the same order."""
    p = c.p
    strings = []
    for d in c.support_degrees():
        local = c.indices_at(d)
        n = len(local)
        kers = _kernels(c, d)
        prev = c.indices_at(d - 2)
        for length in range(p, 0, -1):
            if prev:
                kprev = (
                    linalg.nullspace(c.power_matrix(d - 2, length + 1), p)
                    if length + 1 < p
                    else np.eye(len(prev), dtype=np.int64)
                )
                img = (c.matrix(d - 2) @ kprev) % p
            else:
                img = np.zeros((n, 0), dtype=np.int64)
            span = np.concatenate([kers[length - 1], img], axis=1)
            for i in linalg.extend_basis(span, kers[length], p):
                slots = [_vector(local, kers[length][:, i])]
                for _ in range(length - 1):
                    slots.append(c.apply(slots[-1]))
                strings.append(StringBasis(d, length, slots))
    return strings
