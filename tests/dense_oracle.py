"""Dense reference versions of the F_p elimination and the p-complex
computations.

Plain numpy Gaussian elimination mod p (`rref`, `rank`, `nullspace`,
`solve`, `in_span`, `extend_basis`), dense matrices of ∂ and ∂^j
(`matrix`, `power_matrix`), and slash cohomology and string decomposition
computed the slow way on them.  `qfrob` computes all of these on its
sparse row kernel; the tests require the two to agree.
"""

import numpy as np

from qfrob.pcomplex import StringBasis


def as_fp(a, p):
    """Coerce to a 2-d int64 array with entries in [0, p)."""
    m = np.array(a, dtype=np.int64, copy=True)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    return np.mod(m, p)


def rref(a, p):
    """(R, pivots): reduced row echelon form mod p and the pivot column of
    each nonzero row; pivoting takes the first usable row, column by
    column."""
    r = as_fp(a, p)
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
        r[[row, piv]] = r[[piv, row]]
        r[row] = (r[row] * pow(int(r[row, col]), p - 2, p)) % p
        rows = np.nonzero(r[:, col])[0]
        rows = rows[rows != row]
        r[rows] = (r[rows] - np.outer(r[rows, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, pivots


def rank(a, p):
    return len(rref(a, p)[1])


def nullspace(a, p):
    """Columns form a basis of the right kernel: one per free column."""
    m = as_fp(a, p)
    r, pivots = rref(m, p)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    basis = np.zeros((m.shape[1], len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-r[i, fc]) % p
    return basis


def solve(a, b, p):
    """One solution X of A X = B mod p (free variables zero), or None."""
    a = as_fp(a, p)
    b = np.array(b, dtype=np.int64, copy=True) % p
    vector_input = b.ndim == 1
    if vector_input:
        b = b.reshape(-1, 1)
    n = a.shape[1]
    r, pivots = rref(np.concatenate([a, b], axis=1), p)
    if any(c >= n for c in pivots):
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, n:]
    return x[:, 0] if vector_input else x


def in_span(basis_cols, v, p):
    """Whether column vector v lies in the column span of basis_cols."""
    return solve(basis_cols, v, p) is not None


def extend_basis(span_cols, candidate_cols, p):
    """Indices of the candidate columns that extend span_cols to the joint
    span, earlier candidates first."""
    span_cols = as_fp(span_cols, p)
    stacked = np.concatenate([span_cols, as_fp(candidate_cols, p)], axis=1)
    ns = span_cols.shape[1]
    return [c - ns for c in rref(stacked, p)[1] if c >= ns]


def matrix(c, d):
    """∂ of the p-complex c as a dense matrix from degree d to degree d+2."""
    src = c.indices_at(d)
    pos = {i: r for r, i in enumerate(c.indices_at(d + 2))}
    m = np.zeros((len(pos), len(src)), dtype=np.int64)
    for col, j in enumerate(src):
        for i, coeff in c.diff.get(j, {}).items():
            m[pos[i], col] = coeff % c.p
    return m


class _Powers:
    """The dense powers ∂^j of one complex and the kernels of ∂^j at each
    degree, each built once for one oracle call: ∂^j at d is ∂ at
    d+2(j−1) times ∂^{j−1} at d."""

    def __init__(self, c):
        self.c = c
        self._powers = {}
        self._kernels = {}

    def power(self, d, j):
        """∂^j as a dense matrix from degree d to degree d+2j."""
        key = (d, j)
        if key not in self._powers:
            c = self.c
            if j == 0:
                out = np.eye(len(c.indices_at(d)))
            else:
                m = matrix(c, d + 2 * (j - 1))
                # float64 products are exact while every dot product stays
                # below 2^53
                assert m.shape[1] * (c.p - 1) ** 2 < 2**53
                out = np.mod(m.astype(np.float64) @ self.power(d, j - 1), c.p)
            self._powers[key] = out
        return self._powers[key].astype(np.int64)

    def kernels(self, d):
        """[ker ∂^0, …, ker ∂^p] at degree d, as column bases."""
        if d not in self._kernels:
            c = self.c
            n = len(c.indices_at(d))
            kers = [np.zeros((n, 0), dtype=np.int64)]
            for j in range(1, c.p):
                kers.append(nullspace(self.power(d, j), c.p))
            kers.append(np.eye(n, dtype=np.int64))  # ∂^p = 0
            self._kernels[d] = kers
        return self._kernels[d]


def power_matrix(c, d, j):
    """∂^j as a dense matrix from degree d to degree d+2j."""
    return _Powers(c).power(d, j)


def _kernels(c, d):
    return _Powers(c).kernels(d)


def _vector(local, col):
    return {local[r]: int(col[r]) for r in range(len(local)) if col[r]}


def slash_dims(c):
    """{k: {degree: dim}} of H_{/k}, from kernels of ∂^j and
    `extend_basis`, degree by degree on the valid window."""
    p = c.p
    hi = c.cap - 2 * (p - 1)
    dims = {k: {} for k in range(p - 1)}
    powers = _Powers(c)
    for d in c.support_degrees():
        if d > hi:
            continue
        n = len(c.indices_at(d))
        kers = powers.kernels(d)
        for k in range(p - 1):
            j = p - 1 - k
            src = d - 2 * j
            if c.indices_at(src):
                img = powers.power(src, j)
            else:
                img = np.zeros((n, 0), dtype=np.int64)
            span = np.concatenate([img % p, kers[k]], axis=1)
            chosen = extend_basis(span, kers[k + 1], p)
            if chosen:
                dims[k][d] = len(chosen)
    return dims


def slash_cohomology(c):
    """(dims, reps) as `PComplex.slash_cohomology` reports them: dims from
    `slash_dims`, and reps read off the strings of `string_decompose`, the
    class of H_{/k} at degree h + 2(ℓ−1−k) being slot ℓ−1−k of a string of
    length ℓ < p with head degree h."""
    p = c.p
    hi = c.cap - 2 * (p - 1)
    reps = {k: {} for k in range(p - 1)}
    for s in string_decompose(c):
        if s.length >= p:
            continue
        for k in range(s.length):
            slot = s.length - 1 - k
            d = s.head_degree + 2 * slot
            if d <= hi:
                reps[k].setdefault(d, []).append(dict(sorted(s.slots[slot].items())))
    reps = {k: dict(sorted(per.items())) for k, per in reps.items()}
    return slash_dims(c), reps


def string_decompose(c):
    """The strings `PComplex.string_decompose` returns, in the same order."""
    p = c.p
    strings = []
    powers = _Powers(c)
    for d in c.support_degrees():
        local = c.indices_at(d)
        n = len(local)
        kers = powers.kernels(d)
        prev = c.indices_at(d - 2)
        for length in range(p, 0, -1):
            if prev and length + 1 < p:
                kprev = powers.kernels(d - 2)[length + 1]
                img = (powers.power(d - 2, 1) @ kprev) % p
            elif prev:
                # ker ∂^{length+1} is everything, and its image is ∂'s
                img = powers.power(d - 2, 1)
            else:
                img = np.zeros((n, 0), dtype=np.int64)
            span = np.concatenate([kers[length - 1], img], axis=1)
            for i in extend_basis(span, kers[length], p):
                slots = [_vector(local, kers[length][:, i])]
                for _ in range(length - 1):
                    slots.append(c.apply(slots[-1]))
                strings.append(StringBasis(d, length, slots))
    return strings
