"""Acceptance suite: every criterion at its pinned parameters, exact
arithmetic throughout (zero tolerance), one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import time
from math import comb

import pytest

from qfrob.cli import (
    check_verify_frobenius,
    check_verify_lima,
    check_verify_slash,
    check_verify_twist,
    check_verify_vi,
)
from qfrob.cyclotomic import binom_reduction_check
from qfrob.pdgmod import (
    end_formality_check,
    nh_acyclicity_check,
    thick_nilhecke_check,
)
from qfrob.qgroup import (
    CoeffRing,
    UdotElem,
    canonical_words,
    frobenius_section_check,
    k0_symbol_check,
    oracle_box_check,
    udot_mult,
)
from qfrob.symfunc import lima_partitions


def announce(num, name, ok, t0, detail=""):
    ms = (time.time() - t0) * 1000
    status = "PASS" if ok else "FAIL"
    print(f"criterion-{num:02d} {status} {name} ({ms:.0f} ms) {detail}")
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_01_sym_slash_formality():
    t0 = time.time()
    ok = True
    for p in (2, 3):
        for n in range(1, 7):
            status, values = check_verify_slash(p, n, 8 * p * p)
            if status != "pass" or values["H0_dims"] != values["expected"]:
                ok = False
            if values["higher_slash"]:
                ok = False
    announce(1, "slash formality of Sym_n (p in {2,3}, n <= 6, cap 8p^2)", ok, t0)


def test_criterion_02_twist_acyclicity():
    t0 = time.time()
    ok = True
    for p in (2, 3):
        cap = 8 * p * p
        for n in range(1, 7):
            status, values = check_verify_twist(p, n, cap)
            twists = values.get("acyclic_for_a", [])
            if status != "pass" or twists != list(range(1, n % p + 1)):
                ok = False
    announce(2, "acyclicity of twisted modules S_n(a), 1 <= a <= n mod p", ok, t0)


def test_criterion_03_lima_classes():
    t0 = time.time()
    ok = True
    cases = [(2, a, b) for a, b in ((1, 1), (1, 2), (2, 1), (2, 2))]
    cases += [(3, a, b) for a, b in ((1, 1), (1, 2), (2, 1))]
    for p, a, b in cases:
        status, values = check_verify_lima(p, a, b)
        if (
            status != "pass"
            or values["dim"] != comb(a + b, a)
            or values["classes"] != [list(l) for l in lima_partitions(b, a, p)]
        ):
            ok = False
    announce(3, "expanded-box classes span H_/(V_{a,b})", ok, t0)


def test_criterion_04_vi_contractible():
    t0 = time.time()
    ok = True
    for p in (2, 3, 5):
        status, values = check_verify_vi(p, 3)
        ranges = (values["i_range"], values["k_range"])
        if status != "pass" or ranges != (list(range(1, p)), [1, 2, 3]):
            ok = False
    announce(4, "contractibility of V_i (p in {2,3,5}, i < p, k <= 3)", ok, t0)


def test_criterion_05_binomial_reduction():
    t0 = time.time()
    ok = all(
        binom_reduction_check(a, b, p)
        for p in (2, 3, 5)
        for a in range(5)
        for b in range(5)
    )
    announce(5, "quantum binomial reduction in O_p (a,b <= 4, p in {2,3,5})", ok, t0)


def test_criterion_06_nh_acyclicity():
    t0 = time.time()
    ok = True
    detail = []
    for p in (2, 3):
        good, dims, cap = nh_acyclicity_check(p)
        detail.append(f"p={p} window<= {cap}")
        if not good:
            ok = False
    announce(6, "acyclicity of the END realization of NH_p", ok, t0, "; ".join(detail))


def test_criterion_07_thick_nilhecke():
    t0 = time.time()
    ok = True
    details = []
    for a in (2, 3):
        rep = thick_nilhecke_check(a, 2)
        details.append(f"a={a}: hilbert<= {rep['hilbert_valid_up_to']}")
        if not rep["ok"]:
            ok = False
    announce(7, "thick nilHecke relations and H_/ dims (p=2, a in {2,3})", ok, t0,
             "; ".join(details))


def test_criterion_08_end_formality():
    t0 = time.time()
    ok = True
    details = []
    for p in (2, 3):
        rep = end_formality_check(p)
        details.append(f"p={p}: window<= {rep['valid_up_to']}")
        if not rep["ok"]:
            ok = False
    announce(8, "formality of END(S_{p,p}) (p in {2,3})", ok, t0, "; ".join(details))


def test_criterion_09_frobenius_hom_and_kernel():
    t0 = time.time()
    ok = True
    details = []
    for p in (2, 3):
        status, values = check_verify_frobenius(p, 2 * p, 4 * p, 4, 8)
        pairs, triples = values["hom_pairs"], values["kernel_triples"]
        details.append(f"p={p}: {pairs} pairs, {triples} triples")
        if status != "pass" or not (values["hom_ok"] and values["kernel_ok"]):
            ok = False
    announce(9, "Fr is a homomorphism killing the small-part ideal", ok, t0,
             "; ".join(details))


def test_criterion_10_commutation_oracle():
    t0 = time.time()
    words = canonical_words(4, 4, -8, 8)
    G = CoeffRing("generic")
    pairs = 0
    nontrivial = 0
    ok = True
    elems = [UdotElem(G, {w: G.one()}) for w in words]
    for w1, x in zip(words, elems):
        for w2, y in zip(words, elems):
            pairs += 1
            if w1.n == w2.left_weight():
                nontrivial += 1
            elif not udot_mult(x, y).is_zero():
                ok = False
    # every weight-matched pair, decided once per process
    oracle_pairs, oracle_ok = oracle_box_check(4, 8)
    if not oracle_ok or oracle_pairs != nontrivial:
        ok = False
    announce(10, "product agrees with the rational-field oracle", ok, t0,
             f"{pairs} pairs ({nontrivial} with matching weights)")


def test_criterion_11_section_property():
    t0 = time.time()
    ok = True
    for p in (2, 3):
        if not frobenius_section_check(p):
            ok = False
    announce(11, "Fr composed with its section is the identity", ok, t0)


def test_criterion_12_k0_multiplication_shadow():
    t0 = time.time()
    ok = all(
        k0_symbol_check(a, b, p)
        for p in (2, 3)
        for a in range(3)
        for b in range(3)
    )
    announce(12, "K0 symbol identity for the block modules (a,b <= 2)", ok, t0)
