"""Reference free-basis expansion by one solve over all columns.

The route `qfrob.pdgmod.EndAlgebra.expand` took before it followed the
tower of Grassmannian bases: every column π_ν(all variables)·basis_j of a
polynomial degree is built, and the element is solved against all of them
at once.  Kept here unchanged, as functions of an `EndAlgebra`, as the
independent oracle for the tower; the tests require the two to agree.
"""

import functools

from library_extras import _Coordinates, partitions_of
from qfrob import partitions as pt
from qfrob.symfunc import SchurPoly, split_blocks


def poly_degree_tuples(alg, pd):
    """All block-partition tuples of total size pd/2."""
    out = []
    sizes = pd // 2

    def rec(bi, left, prefix):
        if bi == len(alg.blocks):
            if left == 0:
                out.append(tuple(prefix))
            return
        for m in range(left + 1):
            for lam in partitions_of(m, max_rows=alg.blocks[bi]):
                prefix.append(lam)
                rec(bi + 1, left - m, prefix)
                prefix.pop()

    rec(0, sizes, [])
    return sorted(out)


def expansion_basis(alg, pd):
    """The products π_ν · basis_j of polynomial degree pd, labelled
    (j, ν), which must form a basis of the block coordinates of that
    degree."""
    cols = []
    col_vecs = []
    for j, t in enumerate(alg.basis):
        rest = pd - 2 * sum(sum(l) for l in t)
        if rest < 0 or rest % 2:
            continue
        for nu in partitions_of(rest // 2, max_rows=alg.nvars):
            cols.append((j, nu))
            col_vecs.append(basis_times_sym(alg, j, nu))
    return cols, col_vecs, len(poly_degree_tuples(alg, pd))


def basis_times_sym(alg, j, nu):
    """Block coordinates of π_ν(all variables) · basis_j."""
    p = alg.p
    t = alg.basis[j]
    out: dict[tuple, int] = {}
    for parts, c in split_blocks(nu, alg.blocks, p).items():
        combos = [((), 1)]
        for bi in range(len(alg.blocks)):
            prod = pt.lr_expand(parts[bi], t[bi])
            nxt = []
            for tup, cc in combos:
                for kappa, k in prod.items():
                    if len(kappa) > alg.blocks[bi] or not k % p:
                        continue
                    nxt.append((tup + (kappa,), (cc * k) % p))
            combos = nxt
        for tup, cc in combos:
            val = (out.get(tup, 0) + c * cc) % p
            if val:
                out[tup] = val
            elif tup in out:
                del out[tup]
    return out


@functools.cache
def _expansion(alg):
    return _Coordinates(
        alg.p, lambda pd: expansion_basis(alg, pd), "free module expansion"
    )


def expand(alg, elem: dict) -> dict:
    """Free-basis coordinates of a module element in block coordinates.

    elem: {tuple of per-block partitions: coeff}; returns
    {basis index: SchurPoly over Sym_N}.
    """
    by_pd: dict[int, dict] = {}
    for t, c in elem.items():
        pd = 2 * sum(sum(l) for l in t)
        by_pd.setdefault(pd, {})[t] = c % alg.p
    out: dict[int, dict] = {}
    for pd, part in by_pd.items():
        for (j, nu), c in _expansion(alg)(pd, part).items():
            out.setdefault(j, {})[nu] = c
    return {
        j: SchurPoly(alg.p, coeffs, alg.nvars) for j, coeffs in out.items()
    }
