"""Bounded-partition enumerations, each a recursion of its own: the
oracles of `qfrob.partitions`.

* `partitions_of` is the unpruned recursion, which stops a prefix only when
  its rows run out; `library_extras.partitions_of` drops a prefix as soon
  as its remaining rows cannot hold what is left of n.
* `partitions_in_box`, `_lr_shapes` and `_subpartitions` (of
  `qfrob.symfunc`) are the recursions each ran before
  `qfrob.partitions.bounded_partitions` became the one search behind them.
"""

import functools

from qfrob.partitions import sort_key


def partitions_of(n: int, max_rows=None, max_part=None):
    """Partitions of n, optionally bounded, graded-lex order within size n."""
    res = []

    def rec(remaining, maxp, prefix):
        if remaining == 0:
            res.append(tuple(prefix))
            return
        if max_rows is not None and len(prefix) >= max_rows:
            return
        for part in range(min(remaining, maxp), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    top = n if max_part is None else min(n, max_part)
    rec(n, top, [])
    return sorted(res, key=sort_key)


@functools.cache
def partitions_in_box(rows: int, cols: int) -> tuple:
    """All partitions with ≤ rows parts and parts ≤ cols, graded-lex sorted."""
    out = []

    def rec(prefix, maxpart, remaining_rows):
        out.append(tuple(prefix))
        if remaining_rows == 0:
            return
        for part in range(1, maxpart + 1):
            prefix.append(part)
            rec(prefix, part, remaining_rows - 1)
            prefix.pop()

    rec([], cols, rows)
    return tuple(sorted(out, key=sort_key))


def _lr_shapes(mu, nu, max_rows=None):
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
    lo = [max(m, n) for m, n in zip(mu_r, nu_r)]
    hi = [m + (nu[0] if nu else 0) for m in mu_r]
    rest = [0] * (rows + 1)  # rest[i]: the least size rows i.. can hold
    for i in range(rows - 1, -1, -1):
        rest[i] = rest[i + 1] + lo[i]
    out = []

    def rec(i, left, prefix):
        if i == rows:
            if left == 0:
                out.append(tuple(x for x in prefix if x))
            return
        top = min(hi[i], left - rest[i + 1], prefix[-1] if prefix else left)
        for x in range(top, lo[i] - 1, -1):
            prefix.append(x)
            rec(i + 1, left - x, prefix)
            prefix.pop()

    rec(0, sum(mu) + sum(nu), [])
    return out


def _subpartitions(lam, max_rows=None):
    """Partitions mu ⊆ lam (mu_i ≤ lam_i), optionally with ≤ max_rows rows."""
    rows = len(lam) if max_rows is None else min(len(lam), max_rows)
    out = []

    def rec(r, prefix):
        if r == rows:
            out.append(tuple(x for x in prefix if x))
            return
        hi = min(lam[r], prefix[r - 1] if r else lam[r])
        for x in range(hi, -1, -1):
            prefix.append(x)
            rec(r + 1, prefix)
            prefix.pop()

    rec(0, [])
    return sorted(set(out), key=sort_key)
