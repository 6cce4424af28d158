"""Unpruned enumeration of bounded partitions: the oracle for
`qfrob.partitions.partitions_of`, which drops a prefix as soon as its
remaining rows cannot hold what is left of n.  This is the recursion it
had before, which stops a prefix only when its rows run out.
"""

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
