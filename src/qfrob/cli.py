"""Batch verification harness: one named check per verified statement.

Each subcommand maps to a deterministic check over explicit parameters and
produces a Report with status pass/fail, the computed values, the
parameters echoed back, and wall time.  `report-all` replays the pinned
default parameter set from the packaged config file (override with
--config or the QFROB_CONFIG environment variable) and writes a
machine-readable JSON report with --json.

Exit codes: 0 all pass, 1 any failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from math import comb, factorial, isqrt

from . import pdgmod, qgroup, symfunc
from .cyclotomic import binom_reduction_check, qbinom, to_op, varrho
from .linalg import SparseSpan

__all__ = ["main", "run_check", "Report", "CheckSpec"]


@dataclass(frozen=True)
class CheckSpec:
    """A registered check name with its parameter dict."""

    name: str
    params: dict


@dataclass
class Report:
    check: str
    params: dict
    status: str  # pass / fail
    values: dict = field(default_factory=dict)
    ms: float = 0.0

    def row(self):
        ptxt = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.status.upper():4s}  {self.check:17s} {ptxt:34s} {self.ms:9.1f} ms"

    def as_json(self):
        return {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "values": self.values,
            "ms": round(self.ms, 3),
        }


# --------------------------------------------------------------------------
# individual checks
# --------------------------------------------------------------------------


def _sym_formality(p: int, n: int, cap: int) -> tuple[str, dict]:
    c = symfunc.sym_pcomplex(n, p, cap)
    sl = c.slash_cohomology()
    hi = sl.valid_window[1]
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
    got0 = dict(sl.dims[0])
    higher = {k: v for k, v in sl.dims.items() if k >= 1 and v}
    ok = got0 == expect and not higher
    return (
        "pass" if ok else "fail",
        {
            "H0_dims": _fmt_dims(got0),
            "expected": _fmt_dims(expect),
            "higher_slash": _fmt_dims({k: sum(v.values()) for k, v in higher.items()}),
            "valid_up_to": hi,
        },
    )


def _fmt_dims(d):
    return {str(k): v for k, v in sorted(d.items())}


def check_verify_slash(p: int, n: int, cap: int) -> tuple[str, dict]:
    return _sym_formality(p, n, cap)


def check_verify_twist(p: int, n: int, cap: int) -> tuple[str, dict]:
    r = n % p
    values: dict = {"r": r}
    if r == 0:
        values["note"] = "no twists in range (p divides n)"
        return "pass", values
    bad = {}
    for a in range(1, r + 1):
        sl = symfunc.twist_pcomplex(n, a, p, cap).slash_cohomology()
        if not sl.is_zero():
            bad[a] = _fmt_dims(sl.total_dims())
    values["acyclic_for_a"] = list(range(1, r + 1))
    if bad:
        values["nonzero"] = bad
        return "fail", values
    return "pass", values


def check_verify_lima(p: int, a: int, b: int) -> tuple[str, dict]:
    c = symfunc.vab_pcomplex(a, b, p)
    sl = c.slash_cohomology()
    lima = symfunc.lima_partitions(b, a, p)
    total = sum(sum(v.values()) for v in sl.dims.values())
    values = {"dim": total, "expected_dim": comb(a + b, a)}
    if total != comb(a + b, a):
        return "fail", values
    # representatives must be exactly the expanded-box classes up to
    # coboundary: each is a cocycle, and they are independent in H_{/0}
    pos = {lam: i for i, lam in enumerate(c.labels)}
    for lam in lima:
        f = symfunc.schur(p, lam)
        img = f.diff()
        img = {m: cf for m, cf in img.terms.items() if m in pos}
        if img:
            values["non_cocycle"] = str(lam)
            return "fail", values
    by_degree: dict[int, list] = {}
    for lam in lima:
        by_degree.setdefault(2 * sum(lam), []).append(lam)
    for d, lams in by_degree.items():
        if sl.dims[0].get(d, 0) != len(lams):
            values["degree_mismatch"] = d
            return "fail", values
        # independent modulo Im ∂^{p−1}: adding them raises the rank by one each
        im = c.power_images(d - 2 * (p - 1), p - 1)
        cand = [{pos[lam]: 1} for lam in lams]
        if SparseSpan(im + cand, p).rank - SparseSpan(im, p).rank != len(lams):
            values["dependent_modulo_coboundary"] = d
            return "fail", values
    values["classes"] = [list(l) for l in lima]
    return "pass", values


def check_verify_vi(p: int, kmax: int) -> tuple[str, dict]:
    bad = []
    for i in range(1, p):
        for k in range(1, kmax + 1):
            c = symfunc.vi_pcomplex(i, k, p)
            lengths = sorted({s.length for s in c.string_decompose()})
            if lengths not in ([], [p]):
                bad.append((i, k, lengths))
    values = {"i_range": list(range(1, p)), "k_range": list(range(1, kmax + 1))}
    if bad:
        values["not_contractible"] = bad
        return "fail", values
    return "pass", values


def check_verify_binom(p: int, maxab: int) -> tuple[str, dict]:
    bad = [
        (a, b)
        for a in range(maxab + 1)
        for b in range(maxab + 1)
        if not binom_reduction_check(a, b, p)
    ]
    values: dict = {"max": maxab}
    # the two further base changes, recorded but not asserted
    sample = to_op(qbinom(2 * p, p), p)
    values["binom_2p_p_in_Op"] = str(sample)
    values["varrho_2p"] = list(varrho(sample, "2p"))
    if p != 2:
        values["varrho_p"] = list(varrho(sample, "p"))
    if bad:
        values["failures"] = bad
        return "fail", values
    return "pass", values


def check_verify_nilhecke(p: int, n: int, cap: int) -> tuple[str, dict]:
    ok_rel, detail = pdgmod.nilhecke_relations_check(n, p, cap)
    ok_acyclic, dims, valid_cap = pdgmod.nh_acyclicity_check(p)
    # contrast: the symmetric subalgebra alone is not acyclic
    sym_sl = symfunc.sym_pcomplex(p, p, 4 * p * p).slash_cohomology()
    values = {
        "relations_window": cap,
        "relations": ok_rel,
        "relation_detail": detail,
        "acyclic": ok_acyclic,
        "acyclic_valid_up_to": valid_cap,
        "sym_subalgebra_nonzero_H": not sym_sl.is_zero(),
    }
    ok = ok_rel and ok_acyclic and not sym_sl.is_zero()
    return ("pass" if ok else "fail"), values


def check_verify_thick(p: int, a: int) -> tuple[str, dict]:
    rep = pdgmod.thick_nilhecke_check(a, p)
    values = dict(rep)
    ok = rep["ok"]
    if a == 2:
        form = pdgmod.end_formality_check(p)
        values["formality"] = form["ok"]
        values["formality_valid_up_to"] = form["valid_up_to"]
        ok = ok and form["ok"]
    values.pop("ok", None)
    return ("pass" if ok else "fail"), values


def check_verify_grass(p: int, maxab: int) -> tuple[str, dict]:
    values: dict = {"max": maxab}
    for a in range(maxab + 1):
        for b in range(maxab + 1):
            gm = pdgmod.grass_module(a, b, p)
            if not pdgmod.grass_rank_ok(gm):
                values["rank_failure"] = (a, b)
                return "fail", values
            dual = pdgmod.grass_module(b, a, p)  # dual twist −b·e_1(x)
            if not pdgmod.grass_rank_ok(dual):
                values["dual_rank_failure"] = (a, b)
                return "fail", values
            if a and b and not qgroup.k0_symbol_check(a, b, p):
                values["k0_failure"] = (a, b)
                return "fail", values
    return "pass", values


def check_verify_frobenius(
    p: int, amax: int, nmax: int, oracle_amax: int, oracle_nmax: int
) -> tuple[str, dict]:
    hom = qgroup.frobenius_hom_check(p, amax, nmax)
    ker = qgroup.kernel_check(p, amax, nmax)
    ring = qgroup.CoeffRing("rho", p)
    section_ok = True
    for w in qgroup.canonical_words(3, 3, -6, 6):
        e = qgroup.UdotElem(ring, {w: ring.one()})
        if qgroup.frobenius(qgroup.frobenius_section(e)) != e:
            section_ok = False
            break
    oracle_pairs, oracle_ok = qgroup.oracle_box_check(oracle_amax, oracle_nmax)
    values = {
        "hom_pairs": hom["pairs"],
        "hom_ok": hom["ok"],
        "kernel_triples": ker["triples"],
        "kernel_ok": ker["ok"],
        "section_ok": section_ok,
        "oracle_pairs": oracle_pairs,
        "oracle_ok": oracle_ok,
    }
    if hom["failures"]:
        values["hom_failures"] = hom["failures"]
    if ker["failures"]:
        values["kernel_failures"] = ker["failures"]
    ok = hom["ok"] and ker["ok"] and section_ok and oracle_ok
    return ("pass" if ok else "fail"), values


def check_verify_theta0(p: int, kmax: int) -> tuple[str, dict]:
    values: dict = {"kmax": kmax}
    # images of the dilated generators are cocycles with nonzero class
    for k in range(1, kmax + 1):
        g = symfunc.theta0_gen(k, p)
        if not g.diff().is_zero():
            values["not_cocycle"] = k
            return "fail", values
    # class of the first generator is nonzero: not a (p−1)-fold boundary
    n = p
    cap = 2 * p * p + 4 * p
    c = symfunc.sym_pcomplex(n, p, cap)
    sl = c.slash_cohomology()
    if sl.dims[0].get(2 * p * p, 0) != 1:
        values["class_missing"] = True
        return "fail", values
    # coproduct compatibility modulo coboundaries on either side
    for k in range(1, kmax + 1):
        for a in range(0, k + 1):
            b = k - a
            if a == 0 or b == 0:
                continue
            f = symfunc.theta0_gen(k, p, n=(a + b) * p)
            sv = symfunc.split_vars(f, a * p, b * p)
            expect = {}
            for i in range(max(0, k - b), min(k, a) + 1):
                left = symfunc.theta0_gen(i, p, n=a * p) if i else None
                right = symfunc.theta0_gen(k - i, p, n=b * p) if k - i else None
                lterms = left.terms if left else {(): 1}
                rterms = right.terms if right else {(): 1}
                for lm, cl in lterms.items():
                    for rm, cr in rterms.items():
                        key = (lm, rm)
                        expect[key] = (expect.get(key, 0) + cl * cr) % p
            expect = {k2: v for k2, v in expect.items() if v}
            diffkeys = set(sv) ^ set(expect)
            for mu, nu in diffkeys:
                if sv.get((mu, nu)) == expect.get((mu, nu)):
                    continue
                # leftover terms must die in slash cohomology on one side
                side_ok = _factor_is_coboundary(mu, a * p, p) or _factor_is_coboundary(
                    nu, b * p, p
                )
                if not side_ok:
                    values["noncoboundary_term"] = (k, a, b, mu, nu)
                    return "fail", values
    return "pass", values


def _factor_is_coboundary(lam, nvars, p):
    """Whether the class of π_λ dies in H_{/0}(Sym_nvars) (windowed)."""
    d = 2 * sum(lam)
    c = symfunc.sym_pcomplex(nvars, p, d + 2 * p)
    index = {c.labels[i]: i for i in c.indices_at(d)}
    im = c.power_images(d - 2 * (p - 1), p - 1)
    return {index[tuple(lam)]: 1} in SparseSpan(im, p)


CHECKS = {
    "verify-slash": (check_verify_slash, ("p", "n", "cap")),
    "verify-twist": (check_verify_twist, ("p", "n", "cap")),
    "verify-lima": (check_verify_lima, ("p", "a", "b")),
    "verify-vi": (check_verify_vi, ("p", "kmax")),
    "verify-binom": (check_verify_binom, ("p", "max")),
    "verify-nilhecke": (check_verify_nilhecke, ("p", "n", "cap")),
    "verify-thick": (check_verify_thick, ("p", "a")),
    "verify-grass": (check_verify_grass, ("p", "max")),
    "verify-frobenius": (
        check_verify_frobenius,
        ("p", "amax", "nmax", "oracle_amax", "oracle_nmax"),
    ),
    "verify-theta0": (check_verify_theta0, ("p", "kmax")),
}


_ARG_ALIASES = {"max": "maxab"}  # avoid shadowing the builtin in check bodies


def run_check(spec: CheckSpec) -> Report:
    fn, argnames = CHECKS[spec.name]
    t0 = time.perf_counter()
    try:
        kwargs = {_ARG_ALIASES.get(k, k): spec.params[k] for k in argnames}
        status, values = fn(**kwargs)
    except Exception as exc:  # a crashed check is a failed check
        status, values = "fail", {"error": f"{type(exc).__name__}: {exc}"}
    ms = (time.perf_counter() - t0) * 1000.0
    return Report(spec.name, dict(spec.params), status, values, ms)


# --------------------------------------------------------------------------
# argument handling
# --------------------------------------------------------------------------

_FLAGS = ("p", "n", "a", "b", "cap", "kmax", "max", "amax", "nmax",
          "oracle_amax", "oracle_nmax")

_DEFAULTS = {"kmax": 3, "max": 4, "oracle_amax": 4, "oracle_nmax": 8}

# The least value of each range parameter for which a check decides
# anything; below it the check's domain is empty.
_LEAST = {
    "verify-slash": {"n": 0},
    "verify-twist": {"n": 0},
    "verify-lima": {"a": 0, "b": 0},
    "verify-vi": {"kmax": 1},
    "verify-binom": {"max": 0},
    "verify-nilhecke": {"n": 1},
    "verify-thick": {"a": 1},
    "verify-grass": {"max": 0},
    "verify-frobenius": {"amax": 0, "nmax": 0, "oracle_amax": 0, "oracle_nmax": 0},
    "verify-theta0": {"kmax": 1},
}


class UsageError(ValueError):
    """Parameters no check can decide on; the command exits 2."""


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


def _add_check_flags(parser):
    for flag in _FLAGS:
        parser.add_argument(f"--{flag}", type=int, default=None)


def _fill_defaults(name, params):
    p = params["p"]
    out = {k: v for k, v in _DEFAULTS.items() if k in CHECKS[name][1]}
    out.update(params)
    if name in ("verify-slash", "verify-twist"):
        out.setdefault("cap", 8 * p * p)
    if name == "verify-nilhecke":
        out.setdefault("n", p)
        out.setdefault("cap", pdgmod.nilhecke_least_window(out["n"]))
    if name == "verify-frobenius":
        out.setdefault("amax", 2 * p)
        out.setdefault("nmax", 4 * p)
    return out


def _make_spec(name, params) -> CheckSpec:
    """The CheckSpec of a check name and its flags (None: not given), with
    defaults filled in.

    The one path from flags to a check, for the command line and for config
    lines alike.  Raises UsageError on parameters no check can decide on:
    an unknown check, a missing or non-prime p (the F_p elimination inverts
    by Fermat), a range parameter below its `_LEAST` value, and a cap that
    leaves nothing to decide: below 2(p−1) for verify-slash/verify-twist,
    whose valid window then holds no degree, and below max(4n, n(n−1)) for
    verify-nilhecke, whose relation window then misses part of a Sym_n-basis
    of Pol_n; verify-nilhecke with p!, the module rank of its staircase
    complex, over `pdgmod.EndAlgebra.SIZE_GUARD`; verify-thick with a·p
    over the size guard `pdgmod.THICK_MAX_AP`, where the check does not run;
    and verify-frobenius with amax = nmax = 0, where the kernel check has
    no triple (z·u·z' needs a word z of weight ±2, outside the box).
    """
    if name not in CHECKS:
        raise UsageError(f"unknown check {name!r}")
    params = {k: v for k, v in params.items() if v is not None}
    if "p" not in params:
        raise UsageError("--p is required")
    p = params["p"]
    if not _is_prime(p):
        raise UsageError(f"--p {p} is not a prime")
    params = _fill_defaults(name, params)
    argnames = CHECKS[name][1]
    missing = [k for k in argnames if k not in params]
    if missing:
        raise UsageError(f"{name}: missing parameters {missing}")
    for k, least in _LEAST[name].items():
        if params[k] < least:
            raise UsageError(f"--{k} {params[k]} leaves nothing to decide (least {least})")
    if name in ("verify-slash", "verify-twist") and params["cap"] < 2 * (p - 1):
        raise UsageError(
            f"--cap {params['cap']} leaves an empty valid window "
            f"(the cap must be at least 2(p-1) = {2 * (p - 1)})"
        )
    if name == "verify-nilhecke":
        least = pdgmod.nilhecke_least_window(params["n"])
        if params["cap"] < least:
            raise UsageError(
                f"--cap {params['cap']} is below max(4n, n(n-1)) = {least}, "
                f"too small a window to be conclusive"
            )
    if name == "verify-frobenius" and params["amax"] == params["nmax"] == 0:
        raise UsageError(
            "--amax 0 --nmax 0 leaves the kernel check no triple to decide"
        )
    if name == "verify-nilhecke" and factorial(p) > pdgmod.EndAlgebra.SIZE_GUARD:
        raise UsageError(
            f"--p {p}: the staircase module rank p! = {factorial(p)} is over "
            f"the size guard {pdgmod.EndAlgebra.SIZE_GUARD}"
        )
    if name == "verify-thick" and params["a"] * p > pdgmod.THICK_MAX_AP:
        raise UsageError(
            f"--a {params['a']} --p {p}: a*p is over the size guard "
            f"{pdgmod.THICK_MAX_AP} of the thick check"
        )
    return CheckSpec(name, {k: params[k] for k in argnames})


def _parse_check_args(name, tokens):
    parser = argparse.ArgumentParser(prog=name)
    _add_check_flags(parser)
    return _make_spec(name, vars(parser.parse_args(tokens)))


def default_specs(config_path=None):
    """Parse the pinned parameter file into CheckSpecs.

    Raises UsageError naming the line of the first invalid check.
    """
    if config_path is None:
        config_path = os.environ.get("QFROB_CONFIG")
    if config_path:
        text = open(config_path).read()
    else:
        text = resources.files("qfrob").joinpath("defaults.cfg").read_text()
    specs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = shlex.split(line)
        try:
            specs.append(_parse_check_args(tokens[0], tokens[1:]))
        except UsageError as exc:
            raise UsageError(f"config line {lineno}: {exc}") from None
    return specs


def _emit(reports, json_path):
    for rep in reports:
        print(rep.row())
    npass = sum(r.status == "pass" for r in reports)
    print(f"-- {npass}/{len(reports)} checks passed")
    if json_path:
        payload = [r.as_json() for r in reports]
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"json report written to {json_path}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="qfrob",
        description="exact verification suite for characteristic-p slash "
        "cohomology, nilHecke thickening and the quantum Frobenius map",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in CHECKS:
        sp = sub.add_parser(name)
        _add_check_flags(sp)
        sp.add_argument("--json", type=str, default=None)
    allp = sub.add_parser("report-all")
    allp.add_argument("--config", type=str, default=None)
    allp.add_argument("--json", type=str, default=None)
    ns = parser.parse_args(argv)

    try:
        if ns.command == "report-all":
            specs = default_specs(ns.config)
        else:
            specs = [_make_spec(ns.command, {k: getattr(ns, k) for k in _FLAGS})]
    except UsageError as exc:
        parser.error(str(exc))
    reports = [run_check(s) for s in specs]
    _emit(reports, ns.json)
    return 0 if all(r.status == "pass" for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
