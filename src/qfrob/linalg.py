"""Exact linear algebra over prime fields F_p.

One elimination lives here: a sparse row kernel on vectors stored as
``{key: value}`` dicts.  A vector is reduced against pivot rows keyed by
their leading key, and what is left becomes a new pivot row.  It has three
entry points, `sparse_rank`, `sparse_nullspace` (through the reduced
echelon form) and `sparse_extend_basis`, which run every p-complex
computation in `pcomplex` (the matrices of ∂^j there are well under 1 %
nonzero).  Nothing in the package solves for coordinates: those of string
slots are read off dual strings (`pdgmod`).

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
