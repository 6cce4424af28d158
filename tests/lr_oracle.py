"""Reference Littlewood-Richardson product by horizontal-strip chains.

The strip-chain engine `qfrob.partitions` used before its products moved
to the ballot-pruned skew search: grow mu by horizontal strips labelled
1..len(nu) of sizes nu_i and keep the fillings whose reverse reading word
is a ballot sequence.  The tests require the two engines to agree.
"""

import functools

Partition = tuple


def _horizontal_strips(lam: Partition, size: int):
    """Partitions mu ⊇ lam with |mu/lam| = size and mu/lam a horizontal
    strip, i.e. lam and mu interlace: lam_r ≤ mu_r and mu_{r+1} ≤ lam_r."""
    rows = len(lam) + 1
    results = []

    def rec(r, remaining, prefix):
        if r == rows:
            if remaining == 0:
                results.append(tuple(x for x in prefix if x > 0))
            return
        lo = lam[r] if r < len(lam) else 0
        hi = lo + remaining if r == 0 else min(lo + remaining, lam[r - 1])
        for new in range(hi, lo - 1, -1):
            prefix.append(new)
            rec(r + 1, remaining - (new - lo), prefix)
            prefix.pop()

    rec(0, size, [])
    return results


def _ballot_ok(fillings) -> bool:
    """Reverse reading word (rows top→bottom, right→left) ballot check."""
    counts: dict[int, int] = {}
    for row in fillings:
        for entry in reversed(row):
            if entry == 0:
                continue
            counts[entry] = counts.get(entry, 0) + 1
            if entry > 1 and counts[entry] > counts.get(entry - 1, 0):
                return False
    return True


@functools.cache
def lr_expand(mu: Partition, nu: Partition) -> dict:
    """Littlewood-Richardson expansion of the product s_mu · s_nu over Z.

    Grows mu by horizontal strips labelled 1..len(nu) of sizes nu_i and
    keeps the fillings whose reverse reading word is a ballot sequence.
    """
    if sum(mu) < sum(nu):
        mu, nu = nu, mu
    out: dict[Partition, int] = {}
    state = [(mu, ())]  # (shape, tuple of previous shapes)
    for i, size in enumerate(nu):
        nxt = []
        for shape, history in state:
            for bigger in _horizontal_strips(shape, size):
                nxt.append((bigger, history + (shape,)))
        state = nxt
    for shape, history in state:
        chain = history + (shape,)
        nrows = len(shape)
        fill = [[0] * shape[r] for r in range(nrows)]
        for step in range(1, len(chain)):
            prev, cur = chain[step - 1], chain[step]
            for r in range(len(cur)):
                lo = prev[r] if r < len(prev) else 0
                for c in range(lo, cur[r]):
                    fill[r][c] = step
        if _ballot_ok(fill):
            out[shape] = out.get(shape, 0) + 1
    return out
