"""The dilated Hilbert series that the checks once wrote out by hand, kept
as test oracles for `symfunc.sym_hilbert`.

* `slash_expected`: the `expected` series of verify-slash, H_/(Sym_n) as
  the polynomial ring on generators of degrees 2jp², j = 1..⌊n/p⌋, grown
  one generator at a time;
* `nh_graded_dims`: NH_a with degrees dilated by p², Sym_a counted by
  listing partitions into parts ≤ a;
* `formality_expected`: 2×2 matrices over Sym_2 dilated by p², Sym_2 in
  the closed form ⌊t/2⌋ + 1.
"""

from library_extras import partitions_of


def slash_expected(p, n, hi):
    gens = [2 * j * p * p for j in range(1, n // p + 1)]
    expect: dict[int, int] = {0: 1}
    for g in gens:
        upd = dict(expect)
        for d, m in expect.items():
            e = d + g
            while e <= hi:
                upd[e] = upd.get(e, 0) + m
                e += g
        expect = upd
    expect = {d: m for d, m in expect.items() if d <= hi}
    return expect


def nh_graded_dims(a: int, p: int, lo: int, hi: int) -> dict:
    step = 2 * p * p
    poincare: dict[int, int] = {0: 1}
    for i in range(2, a + 1):
        nxt: dict[int, int] = {}
        for l, c in poincare.items():
            for j in range(i):
                nxt[l + j] = nxt.get(l + j, 0) + c
        poincare = nxt
    shifts: dict[int, int] = {}
    for l1, c1 in poincare.items():
        for l2, c2 in poincare.items():
            d = step * (l1 - l2)
            shifts[d] = shifts.get(d, 0) + c1 * c2
    out: dict[int, int] = {}
    maxm = (hi - min(shifts)) // step + 1
    sym_dims = {0: 1}
    # partitions with parts ≤ a, graded by size, give Hilbert(Sym_a)
    for m in range(1, maxm + 1):
        sym_dims[m] = len(partitions_of(m, max_part=a))
    for d0, c0 in shifts.items():
        for m, cm in sym_dims.items():
            d = d0 + step * m
            if lo <= d <= hi:
                out[d] = out.get(d, 0) + c0 * cm
    return {d: c for d, c in out.items() if c}


def formality_expected(p, lo, valid_cap):
    step = 2 * p * p
    shifts = {-step: 1, 0: 2, step: 1}
    expect: dict[int, int] = {}
    for s, c in shifts.items():
        t = 0
        while s + step * t <= valid_cap:
            d = s + step * t
            if d >= lo:
                expect[d] = expect.get(d, 0) + c * (t // 2 + 1)
            t += 1
    return expect
