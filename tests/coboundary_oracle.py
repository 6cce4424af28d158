"""Reference coboundary test over explicit strings of a truncated Sym_N and
of V ⊗ V^*.

The route `qfrob.pdgmod.EndAlgebra.is_slash_coboundary` took before it read
V and V^* as separate tensor factors, and before it read Sym_N off bead
segments: Sym_N is built up to a cap above the entries of x and split into
strings, every string of V ⊗ V^* is built from the strings of V and of the
built dual V^* (`tensor_strings`), END = Sym_N^{trunc} ⊗ (V ⊗ V^*) splits
into pairs J_{l1} ⊗ J_{l2}, and each pair component of x is tested against
the image of ∂^{p−1} in its abstract pair.  Kept here, as functions of an
`EndAlgebra`, as the independent oracle for the bead route; the tests
require the two to agree.
"""

import functools

from library_extras import SparseSpan, _Coordinates, _slot_basis, sym_pcomplex
from qfrob.pcomplex import INF, PComplex, StringBasis, dual


def jj_complex(l1, l2, p):
    """The tensor of two abstract strings, heads in degree 0."""
    labels = [(s, t) for s in range(l1) for t in range(l2)]
    degrees = [2 * (s + t) for s, t in labels]
    pos = {st: k for k, st in enumerate(labels)}
    diff = {}
    for k, (s, t) in enumerate(labels):
        row = {}
        if s + 1 < l1:
            row[pos[(s + 1, t)]] = 1
        if t + 1 < l2:
            row[pos[(s, t + 1)]] = 1
        if row:
            diff[k] = row
    return PComplex(p, labels, degrees, diff, cap=INF)


@functools.cache
def _jj_strings(l1, l2, p):
    """Abstract strings of J_{l1}⊗J_{l2} with slot vectors over (s, t)."""
    c = jj_complex(l1, l2, p)
    out = []
    for s in c.string_decompose():
        slots = [
            {c.labels[i]: v for i, v in slot.items()} for slot in s.slots
        ]
        out.append((s.head_degree, s.length, slots))
    return tuple(out)


def tensor_strings(strings1, strings2, p, index_of):
    """Explicit strings of a tensor complex from explicit factor strings.

    index_of(i1, i2) must give the basis index of basis1_i1 ⊗ basis2_i2 in
    the product complex.  Works pair by pair through the memoized abstract
    decomposition of J_{l1} ⊗ J_{l2}, so no large elimination is needed.
    """
    out = []
    for s1 in strings1:
        for s2 in strings2:
            abstract = _jj_strings(s1.length, s2.length, p)
            for head_off, length, slots in abstract:
                mapped = []
                for slot in slots:
                    vec: dict[int, int] = {}
                    for (a, b), c in slot.items():
                        for i1, c1 in s1.slots[a].items():
                            for i2, c2 in s2.slots[b].items():
                                k = index_of(i1, i2)
                                val = (vec.get(k, 0) + c * c1 * c2) % p
                                if val:
                                    vec[k] = val
                                elif k in vec:
                                    del vec[k]
                    mapped.append(vec)
                out.append(
                    StringBasis(s1.head_degree + s2.head_degree + head_off, length, mapped)
                )
    return out


@functools.cache
def u_strings(alg):
    """The strings of V ⊗ V^*, basis keys (i, j) for e_i ⊗ e_j^*."""
    v = alg.scalar_complex()
    return tensor_strings(
        v.string_decompose(), dual(v).string_decompose(), alg.p, lambda i, j: (i, j)
    )


@functools.cache
def _u_coords(alg):
    return _Coordinates(
        alg.p, lambda d: _slot_basis(u_strings(alg), d), "V⊗V^* string slots"
    )


@functools.cache
def _r_strings(alg, cap):
    r = sym_pcomplex(alg.nvars, alg.p, cap)
    strings = r.string_decompose()
    coords = _Coordinates(
        alg.p, lambda d: _slot_basis(strings, d), "Sym_N string slots"
    )
    return r, strings, coords


@functools.cache
def jj_image(l1, l2, p):
    """Im(∂^{p−1}) in J_{l1}⊗J_{l2}, over (s,t) keys."""
    c = jj_complex(l1, l2, p)
    images = []
    for j in range(c.dim):
        vec = {j: 1}
        for _ in range(p - 1):
            vec = c.apply(vec)
        if vec:
            images.append({c.labels[i]: v for i, v in vec.items()})
    return SparseSpan(images, p)


def is_slash_coboundary(alg, x) -> bool:
    """Membership of x in Im(∂^{p−1}) of the END p-complex.

    Expands the images of the free basis into entries over Sym_N, then
    decomposes END = Sym^{trunc} ⊗ (V⊗V^*) into string ⊗ string blocks
    and tests membership block by block; this is exact because the
    image of a direct sum is the direct sum of the images.  Raises
    ValueError unless every entry f at (i, j) has degree
    deg f + deg_i − deg_j = x.shift.
    """
    if x.alg is not alg:
        raise ValueError("operator over a different module")
    p = alg.p
    g = x.shift
    entries = {}
    for j, img in enumerate(x.images()):
        for i, f in alg.expand(img).items():
            if f.homogeneous_degree() + alg.degrees[i] - alg.degrees[j] != g:
                raise ValueError(f"entry ({i}, {j}) is not of degree {g}")
            entries[(i, j)] = f
    if not entries:
        return True
    maxpoly = max(2 * sum(lam) for f in entries.values() for lam in f.terms)
    cap = maxpoly + 2 * p
    r, rstrings, r_coords = _r_strings(alg, cap)
    r_index = {lam: i for i, lam in enumerate(r.labels)}
    blocks = {}
    for (i, j), f in entries.items():
        du = alg.degrees[i] - alg.degrees[j]
        ucoords = _u_coords(alg)(du, {(i, j): 1})
        rc = r_coords(g - du, {r_index[lam]: c for lam, c in f.terms.items()})
        for (rs, rslot), c1 in rc.items():
            for (us, uslot), c2 in ucoords.items():
                vec = blocks.setdefault((rs, us), {})
                slot = (rslot, uslot)
                val = (vec.get(slot, 0) + c1 * c2) % p
                if val:
                    vec[slot] = val
                elif slot in vec:
                    del vec[slot]
    ustrings = u_strings(alg)
    for (rs, us), vec in blocks.items():
        if not vec:
            continue
        rstr = rstrings[rs]
        # cut strings live entirely above the degrees x touches, by the
        # cap choice; a nonzero component there would be unsound
        if rstr.length < p and rstr.head_degree + 2 * (p - 1) > cap:
            raise AssertionError("component on a possibly cut string")
        if vec not in jj_image(rstr.length, ustrings[us].length, p):
            return False
    return True
