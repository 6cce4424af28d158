"""Exact linear algebra over prime fields F_p.

One elimination lives here: a sparse row kernel on vectors stored as
``{key: value}`` dicts.  A vector is reduced against pivot rows keyed by
their leading key, and what is left becomes a new pivot row.  On it are
built

* `sparse_rank`, `sparse_nullspace` (through the reduced echelon form) and
  `sparse_extend_basis`, which run every p-complex computation in
  `pcomplex` (the matrices of ∂^j there are well under 1 % nonzero), and
* `SparseSpan`, the only solve: coordinates of a vector over a fixed list
  of vectors, or None when it is not in their span.  It serves the
  string-slot coordinates of `pdgmod` and the string-triple coboundary
  test of the thick check.

The row operations take the first usable pivot scanning keys in increasing
order, so kernels and chosen basis extensions are fully
deterministic, which the golden tests rely on.  p must be prime: inverses
are taken by Fermat.
"""

from __future__ import annotations

import heapq

__all__ = [
    "sparse_rank",
    "sparse_nullspace",
    "sparse_extend_basis",
    "SparseSpan",
]


# `pivots` maps a leading key to its row, normalized so row[lead] == 1.
# Inserting a vector reduces it until its leading key is no pivot; what is
# left becomes a new pivot row.  The rows are then in echelon form but not
# reduced; `_back_substitute` makes them the reduced echelon form.


def _reduce(pivots: dict, vec: dict, p: int):
    """Reduce vec, in place, by the pivot rows of its leading keys until a
    leading key has no pivot row; return that key, or None if vec became
    zero.  vec must hold nonzero entries in [0, p) only."""
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
            return lead
        for k, y in row.items():
            v = (get(k, 0) - x * y) % p
            if v:
                if k not in vec:
                    push(heap, k)
                vec[k] = v
            else:
                vec.pop(k, None)
    return None


def _insert(pivots: dict, vec: dict, p: int) -> bool:
    """Add vec to the row space held in pivots; False if it was in it."""
    vec = {k: v % p for k, v in vec.items() if v % p}
    lead = _reduce(pivots, vec, p)
    if lead is None:
        return False
    inv = pow(vec[lead], p - 2, p)
    if inv != 1:
        vec = {k: v * inv % p for k, v in vec.items()}
    pivots[lead] = vec
    return True


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


def sparse_rank(rows, p: int) -> int:
    return len(_echelon(rows, p))


def sparse_nullspace(rows, columns, p: int) -> list:
    """Basis of the right kernel of the sparse rows, over `columns`.

    `columns` lists every column key in increasing order.  One vector per
    non-pivot column c, in the order of `columns`: 1 at c, minus the
    reduced row entries at the pivots.
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
    so earlier candidates win.
    """
    pivots = _echelon(span, p)
    return [i for i, v in enumerate(candidates) if _insert(pivots, v, p)]


def _peel_order(vectors) -> dict:
    """Number the keys of the vectors by row-singleton peeling.

    A key held by exactly one remaining vector is numbered next, and that
    vector is removed.  When no such key is left, the key held by the
    fewest remaining vectors is numbered next and the shortest of those
    vectors removed.  If every step finds a singleton, each vector's
    lowest-numbered key is the key it was removed at, so the vectors are
    already in echelon form and eliminating them makes no fill.
    """
    holders: dict = {}  # key -> indices of the vectors holding it
    for i, v in enumerate(vectors):
        for k in v:
            holders.setdefault(k, []).append(i)
    count = {k: len(ix) for k, ix in holders.items()}
    alive = [True] * len(vectors)
    order: dict = {}
    singles = [k for k, n in count.items() if n == 1]
    while len(order) < len(holders):
        key = None
        while singles:
            k = singles.pop()
            if k not in order and count[k] == 1:
                key = k
                break
        if key is None:  # stalled
            key = min((k for k in holders if k not in order), key=count.__getitem__)
        order[key] = len(order)
        live = [i for i in holders[key] if alive[i]]
        if not live:
            continue
        i = min(live, key=lambda i: len(vectors[i]))
        alive[i] = False
        for k in vectors[i]:
            count[k] -= 1
            if count[k] == 1 and k not in order:
                singles.append(k)
    return order


class SparseSpan:
    """The span of a fixed list of sparse vectors mod p, for coordinates.

    The vectors are eliminated once, each tagged with its index: vector i
    is inserted as its own entries plus 1 at tag key i, tags numbered after
    every real key.  Reducing a vector of the span then clears its real
    keys, and what is left on the tags is minus its coordinates.  Keys are
    numbered by `_peel_order` first; any numbering gives the same span and
    coordinates, and this one eliminates inputs that are triangular up to a
    permutation without fill.
    """

    def __init__(self, vectors, p: int):
        self.p = p
        vectors = [{k: x % p for k, x in v.items() if x % p} for v in vectors]
        self._number = _peel_order(vectors)
        tag0 = len(self._number)
        self._pivots: dict = {}
        number = self._number
        for i, v in enumerate(vectors):
            row = {number[k]: x for k, x in v.items()}
            row[tag0 + i] = 1
            _insert(self._pivots, row, p)
        self._tag0 = tag0
        self.rank = sum(1 for lead in self._pivots if lead < tag0)

    def coords(self, vec: dict):
        """{index: coefficient} with vec = Σ coefficient · vectors[index],
        in increasing index order and without zeros, or None when vec is not
        in the span.  For dependent vectors one solution is returned."""
        p, number, tag0 = self.p, self._number, self._tag0
        row = {}
        for k, x in vec.items():
            x %= p
            if x:
                n = number.get(k)
                if n is None:
                    return None
                row[n] = x
        lead = _reduce(self._pivots, row, p)
        if lead is not None and lead < tag0:
            return None
        return {n - tag0: -row[n] % p for n in sorted(row)}

    def __contains__(self, vec: dict) -> bool:
        return self.coords(vec) is not None
