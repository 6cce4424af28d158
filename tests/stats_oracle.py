"""Whole-complex string statistics: the oracle for `PComplex.string_stats`.

The strings are built explicitly, by dense elimination over every degree
(`dense_oracle.string_decompose`), and counted by (head degree, length);
`PComplex.string_stats` gets the same counts from ranks alone.
"""

import dense_oracle
from qfrob.pcomplex import StringStats


def string_stats(c) -> StringStats:
    """String multiplicities by (head degree, length), counted off explicit
    strings, in (head, length) order.

    The complex is validated first, as `PComplex.string_stats` does.  Strings
    that do not fill the space, as when ∂^p does not vanish above the
    trusted window, raise the AssertionError that the rank route raises.
    """
    err = c.validation_error()
    if err:
        raise ValueError(err)
    counts: dict[tuple, int] = {}
    for s in dense_oracle.string_decompose(c):
        key = (s.head_degree, s.length)
        counts[key] = counts.get(key, 0) + 1
    if sum(l * m for (h, l), m in counts.items()) != c.dim:
        raise AssertionError("rank bookkeeping failed")
    return StringStats(counts=dict(sorted(counts.items())), cap=c.cap, p=c.p)
