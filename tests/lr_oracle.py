"""Reference Littlewood-Richardson product by horizontal-strip chains.

The strip-chain engine `qfrob.partitions` used before its products moved
to the ballot-pruned skew search: grow mu by horizontal strips labelled
1..len(nu) of sizes nu_i and keep the fillings whose reverse reading word
is a ballot sequence.  The tests require the two engines to agree.
"""

import functools

from qfrob.partitions import _horizontal_strips

Partition = tuple


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
