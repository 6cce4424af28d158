"""Whole-complex string statistics: the oracle for `PComplex.string_stats`.

Every degree of the whole complex is validated and ranked in one pass.
"""

from qfrob import linalg
from qfrob.pcomplex import StringStats, _Powers


def string_stats(c) -> StringStats:
    """String multiplicities by (head degree, length), from ranks only.

    With r_j(d) = rank(∂^j: U_d → U_{d+2j}) and r_0(d) = dim U_d, the
    number of strings with head exactly at d and length exactly ℓ is
    (r_{ℓ−1}(d) − r_ℓ(d−2)) − (r_ℓ(d) − r_{ℓ+1}(d−2)); this avoids
    building explicit vectors.  Once `validate` has passed, r_p and
    r_{p+1} are 0 in every degree: ∂^p vanishes up to cap − 2p and lands
    past the cap above it.  So only ∂^1 … ∂^{p−1} are ranked.
    """
    powers = _Powers(c)
    powers.validate()
    p = c.p
    ranks: dict[int, list] = {}
    for d in c.support_degrees():
        ranks[d] = [len(c.indices_at(d))] + [
            linalg.sparse_rank(powers.images(d, j), p) for j in range(1, p)
        ]
        powers.release(d)

    def r(d, j):
        if d not in ranks:
            return 0
        return ranks[d][j] if j < len(ranks[d]) else 0

    counts: dict[tuple, int] = {}
    for d in c.support_degrees():
        for length in range(1, p + 1):
            m = (r(d, length - 1) - r(d - 2, length)) - (
                r(d, length) - r(d - 2, length + 1)
            )
            if m:
                counts[(d, length)] = m
    total = sum(l * m for (h, l), m in counts.items())
    if total != c.dim or any(m < 0 for m in counts.values()):
        raise AssertionError("rank bookkeeping failed")
    return StringStats(counts=counts, cap=c.cap, p=c.p)
