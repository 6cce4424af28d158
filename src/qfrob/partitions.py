"""Partition combinatorics: boxes and the box-adding rule, transposes,
rectangle enumeration, Littlewood-Richardson expansion, and the
straightening rule behind thick crossings.

Partitions are tuples of weakly decreasing positive integers; () is the
empty partition.  `add_box` is the one box-adding rule: every differential
in qfrob adds a box with coefficient content + twist.  Littlewood-Richardson
coefficients come from one search, the ballot-pruned filling of LR skew
tableaux: `lr_restrict` counts the tableaux of shape lam/mu by content, and
`lr_expand` reads c^lam_{mu,nu} off the tableaux of shape lam/mu with
content nu for every candidate shape lam, or only those with at most a
given number of rows, the product in that many variables.  Both are exact
over Z and cached, so characteristic-p callers reduce mod p after lookup.
`swap_pushforward` straightens the block-swap Demazure composite on a
product of two Schur polynomials into one signed Schur polynomial.
"""

from __future__ import annotations

import functools

__all__ = [
    "transpose",
    "fits_in",
    "bounded_partitions",
    "partitions_in_box",
    "addable_boxes",
    "add_box",
    "expand_p",
    "lima_partitions",
    "complement",
    "lr_expand",
    "lr_restrict",
    "swap_pushforward",
    "sort_key",
]

Partition = tuple


def transpose(lam: Partition) -> Partition:
    if not lam:
        return ()
    out = [0] * lam[0]
    for part in lam:
        for i in range(part):
            out[i] += 1
    return tuple(out)


def fits_in(lam: Partition, rows: int, cols: int) -> bool:
    """Membership in P(rows, cols): at most `rows` parts, each ≤ `cols`."""
    return len(lam) <= rows and (not lam or lam[0] <= cols)


def sort_key(lam: Partition):
    """Graded, then lexicographic: the canonical iteration order."""
    return (sum(lam), lam)


def bounded_partitions(hi, size=None, lo=()):
    """The partitions λ with lo_i ≤ λ_i ≤ hi_i on the rows of hi (lo_i = 0
    past the end of lo), of the given size if one is given, in decreasing
    lexicographic order.  A prefix is dropped as soon as the rows after it
    cannot hold what is left of the size at their lower bounds."""
    rows = len(hi)
    lo = tuple(lo) + (0,) * (rows - len(lo))
    rest = [0] * (rows + 1)  # rest[i]: the least size rows i.. can hold
    for i in range(rows - 1, -1, -1):
        rest[i] = rest[i + 1] + lo[i]
    prefix = []

    def rec(i, left):
        if i == rows:
            if not left:
                yield tuple(x for x in prefix if x)
            return
        top = min(hi[i], prefix[-1]) if prefix else hi[i]
        if left is not None:
            top = min(top, left - rest[i + 1])
        for x in range(top, lo[i] - 1, -1):
            prefix.append(x)
            yield from rec(i + 1, None if left is None else left - x)
            prefix.pop()

    return rec(0, size)


@functools.cache
def partitions_in_box(rows: int, cols: int) -> tuple:
    """All partitions with ≤ rows parts and parts ≤ cols, graded-lex sorted."""
    return tuple(sorted(bounded_partitions((cols,) * rows), key=sort_key))


def addable_boxes(lam: Partition, max_rows=None):
    """Positions where a box may be added, as (row, content) pairs.

    Rows are 0-indexed; the content of the box at (r, c) is c − r with
    0-indexed column c.  If max_rows is given, a new row beyond it is not
    offered.
    """
    out = []
    for r in range(len(lam) + 1):
        if max_rows is not None and r >= max_rows:
            break
        here = lam[r] if r < len(lam) else 0
        above = lam[r - 1] if r > 0 else None
        if above is not None and here >= above:
            continue
        out.append((r, here - r))
    return out


def with_box(lam: Partition, row: int) -> Partition:
    parts = list(lam)
    if row == len(parts):
        parts.append(1)
    else:
        parts[row] += 1
    return tuple(parts)


def add_box(lam: Partition, twist: int, max_rows=None):
    """The box-adding rule behind every differential in qfrob: the pairs
    (mu, content + twist), one for each partition mu = lam plus one box,
    with the content of that box.  max_rows is as for `addable_boxes`."""
    return [
        (with_box(lam, r), content + twist)
        for r, content in addable_boxes(lam, max_rows=max_rows)
    ]


def expand_p(lam: Partition, p: int) -> Partition:
    """Blow each box up to a p×p square: every part is repeated p times and
    multiplied by p."""
    out = []
    for part in lam:
        out.extend([p * part] * p)
    return tuple(out)


def lima_partitions(b: int, a: int, p: int):
    """The p-expansions of the partitions in the b×a box, i.e. the Lima
    subset of P(bp, ap); one for each element of P(b, a)."""
    return tuple(sorted((expand_p(nu, p) for nu in partitions_in_box(b, a)), key=sort_key))


def complement(mu: Partition, rows: int, cols: int) -> Partition:
    """The complement of mu ∈ P(rows, cols): transpose of
    (cols − mu_rows, ..., cols − mu_1); lies in P(cols, rows)."""
    if not fits_in(mu, rows, cols):
        raise ValueError("partition does not fit the box")
    padded = list(mu) + [0] * (rows - len(mu))
    comp_t = tuple(cols - x for x in reversed(padded))
    return transpose(tuple(x for x in comp_t if x > 0))


def _lr_shapes(mu: Partition, nu: Partition, max_rows=None):
    """The shapes lam that can carry c^lam_{mu,nu} ≠ 0: lam ⊇ mu ∪ nu,
    |lam| = |mu| + |nu|, lam_i ≤ mu_i + nu_1 and at most len(mu) + len(nu)
    rows, or max_rows when that is fewer."""
    rows = len(mu) + len(nu)
    if max_rows is not None:
        if max(len(mu), len(nu)) > max_rows:
            return []  # lam ⊇ mu ∪ nu has more rows than that
        rows = min(rows, max_rows)
    mu_r = list(mu) + [0] * len(nu)
    nu_r = list(nu) + [0] * len(mu)
    lo = [max(m, n) for m, n in zip(mu_r, nu_r)][:rows]
    hi = [m + (nu[0] if nu else 0) for m in mu_r][:rows]
    return bounded_partitions(hi, sum(mu) + sum(nu), lo)


def _lr_tableaux(lam: Partition, mu: Partition, most) -> dict:
    """LR skew tableaux of shape lam/mu (mu ⊆ lam) with at most most[e−1]
    entries e, counted by content: {content: number of tableaux}."""
    # Fill cells row by row, right to left; this order is the reverse
    # reading word, so ballot prefixes prune the search directly.
    order = [
        (r, c)
        for r in range(len(lam))
        for c in range(lam[r] - 1, (mu[r] if r < len(mu) else 0) - 1, -1)
    ]
    top = len(most)
    out: dict[Partition, int] = {}
    entry_at: dict[tuple, int] = {}
    counts = [0] * (top + 1)

    def rec(idx):
        if idx == len(order):
            k = max(entry_at.values(), default=0)
            content = tuple(counts[1 : k + 1])
            out[content] = out.get(content, 0) + 1
            return
        r, c = order[idx]
        lo = 1
        up = entry_at.get((r - 1, c))
        if up is not None:
            lo = up + 1  # columns strictly increase
        right = entry_at.get((r, c + 1))
        hi = right if right is not None else top  # rows weakly increase
        for e in range(lo, hi + 1):
            if counts[e] == most[e - 1] or (e > 1 and counts[e] == counts[e - 1]):
                continue  # content bound or ballot prefix fails
            entry_at[(r, c)] = e
            counts[e] += 1
            rec(idx + 1)
            counts[e] -= 1
            del entry_at[(r, c)]

    rec(0)
    return out


@functools.cache
def lr_expand(mu: Partition, nu: Partition, max_rows=None) -> dict:
    """Littlewood-Richardson expansion of the product s_mu · s_nu over Z,
    keeping only the shapes with at most max_rows rows when it is given
    (the product in Sym_{max_rows}).

    Reads c^lam_{mu,nu} for every candidate shape lam from the LR skew
    tableaux of shape lam/mu with content nu (the smaller of the two
    partitions); the row bound applies before any tableau is counted.
    """
    if sum(mu) < sum(nu):
        mu, nu = nu, mu
    out: dict[Partition, int] = {}
    for lam in _lr_shapes(mu, nu, max_rows):
        c = _lr_tableaux(lam, mu, nu).get(nu)
        if c:
            out[lam] = c
    return out


@functools.cache
def lr_restrict(lam: Partition, mu: Partition) -> dict:
    """Contents kappa with LR coefficient c^lam_{mu,kappa}, i.e. counts of
    LR skew tableaux of shape lam/mu, as a dict kappa → multiplicity."""
    if not all((mu[i] if i < len(mu) else 0) <= lam[i] for i in range(len(lam))) or len(
        mu
    ) > len(lam):
        return {}
    ncells = sum(lam) - sum(mu)
    return _lr_tableaux(lam, mu, [ncells] * ncells)


def swap_pushforward(alpha: Partition, a: int, beta: Partition, b: int):
    """The block-swap Demazure composite ∂_w on π_α(x)·π_β(x′), x the first
    a and x′ the last b of a + b variables: ε·π_λ(x, x′) as (ε, λ), or None
    when it is 0.

    On Sym_a ⊗ Sym_b, ∂_w symmetrizes f / Π_{i≤a<j} (x_i − x_j) over the
    cosets of S_a × S_b, and π_α(x)·π_β(x′) over that product is
    a_E / a_δ with E = (α + δ_a, β + δ_b).  So ∂_w gives a_E / a_δ over
    all of S_{a+b}: 0 when E repeats an entry, and otherwise ε·π_λ with ε
    the sign that sorts E decreasingly and λ = sort(E) − δ_{a+b}
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3).
    """
    if len(alpha) > a or len(beta) > b:
        return None
    ex = [x + a - 1 - i for i, x in enumerate(alpha + (0,) * (a - len(alpha)))]
    ex += [x + b - 1 - j for j, x in enumerate(beta + (0,) * (b - len(beta)))]
    if len(set(ex)) < len(ex):
        return None
    inversions = sum(x < y for i, x in enumerate(ex) for y in ex[i + 1 :])
    top = len(ex) - 1
    lam = tuple(x - (top - i) for i, x in enumerate(sorted(ex, reverse=True)))
    return (-1) ** inversions, tuple(x for x in lam if x)
