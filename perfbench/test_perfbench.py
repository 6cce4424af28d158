"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import copy
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from tracer import Tracer, _linalg_probe
from workloads import WORKLOADS, count_failed, line_params, load_golden, make_config, workload_lines

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    tr = Tracer(clock)
    rref = tr.span(lambda: clock.advance(2), "linalg", "linalg.rref")

    def rank_body():  # a linalg span nested in a linalg span
        clock.advance(1)
        rref()
        clock.advance(1)

    rank = tr.span(rank_body, "linalg", "linalg.rank")

    def slash_body():
        clock.advance(3)
        rank()
        clock.advance(0.5)
        rank()

    slash = tr.span(slash_body, "pcomplex", "pcomplex.slash")

    def main_body():
        clock.advance(1)
        slash()
        clock.advance(2)

    tr.span(main_body, "cli", "cli.main")()
    assert tr.self_s["linalg"] == 8  # two rank spans of 4, rref not counted twice
    assert tr.self_s["pcomplex"] == 3.5
    assert tr.self_s["cli"] == 3
    assert sum(tr.self_s.values()) == clock.t == 14.5
    assert tr.calls == Counter(
        {"linalg.rref": 2, "linalg.rank": 2, "pcomplex.slash": 1, "cli.main": 1}
    )
    assert tr.stack == []


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = Tracer(clock)

    def boom():
        clock.advance(2)
        raise ValueError

    inner = tr.span(boom, "linalg", "linalg.boom")

    def outer_body():
        clock.advance(1)
        with pytest.raises(ValueError):
            inner()

    tr.span(outer_body, "pdgmod", "pdgmod.outer")()
    assert tr.self_s["linalg"] == 2 and tr.self_s["pdgmod"] == 1
    assert tr.stack == []


def test_linalg_probe_counts_matrices_entering_the_layer_once():
    tr = Tracer(FakeClock())
    inner = tr.span(lambda m: None, "linalg", "linalg.rref", _linalg_probe)
    outer = tr.span(lambda m: inner(m), "linalg", "linalg.rank", _linalg_probe)
    outer(np.array([[1, 0, 0], [0, 2, 0]]))
    assert tr.counts["linalg.entries"] == 6
    assert tr.counts["linalg.nnz"] == 2


def test_install_wraps_every_binding():
    code = (
        "import tracer\n"
        "from qfrob import cli, cyclotomic, pdgmod, qgroup\n"
        "tr = tracer.Tracer()\n"
        "tracer.install(tr)\n"
        "assert cli.qbinom is cyclotomic.qbinom is pdgmod.qbinom is qgroup.qbinom\n"
        "cli.qbinom(4, 2)\n"
        "first = tr.calls['cyclotomic.qbinom']\n"
        "pdgmod.qbinom(4, 2)  # a cache hit: one more call\n"
        "assert tr.calls['cyclotomic.qbinom'] == first + 1, tr.calls\n"
        "assert tr.self_s['cyclotomic'] > 0 and tr.stack == []\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def _passing_reports(lines, golden):
    by_line = {e["line"]: e for e in golden}
    reports = []
    for line in lines:
        name, params = line_params(line)
        values = copy.deepcopy(by_line[line]["values"])
        reports.append({"check": name, "params": params, "status": "pass", "values": values})
    return reports


def test_golden_comparison_flags_a_one_value_change():
    golden = load_golden()
    _, lines = make_config("pinned-rest", 7, golden)
    reports = _passing_reports(lines, golden)
    assert count_failed(lines, reports, golden) == 0

    i = lines.index("verify-lima --p 3 --a 1 --b 2")
    reports[i]["values"]["dim"] += 1
    assert count_failed(lines, reports, golden) == 1

    reports = _passing_reports(lines, golden)
    reports[0]["status"] = "fail"
    assert count_failed(lines, reports, golden) == 1
    assert count_failed(lines, reports[:-3], golden) == 4  # lines never reported fail
    assert count_failed(lines, None, golden) == len(lines)  # a crash fails every line

    reports = _passing_reports(lines, golden)  # a complete report, then a bad exit
    assert count_failed(lines, reports, golden, returncode=-9) == len(lines)
    reports[0]["status"] = "fail"  # report-all's own exit 1 for a failed check
    assert count_failed(lines, reports, golden, returncode=1) == 1


def test_seed_sets_only_the_order():
    golden = load_golden()
    for workload in WORKLOADS:
        assert make_config(workload, 5, golden) == make_config(workload, 5, golden)
        orders = {tuple(make_config(workload, seed, golden)[1]) for seed in range(20)}
        lines = sorted(workload_lines(workload, golden))
        assert {tuple(sorted(o)) for o in orders} == {tuple(lines)}
        if workload != "frobenius":
            assert len(orders) > 10


def test_workloads_are_exactly_the_pinned_lines():
    text = (ROOT / "src" / "qfrob" / "defaults.cfg").read_text()
    pinned = [l.strip() for l in text.splitlines() if l.strip() and not l.strip().startswith("#")]
    golden = load_golden()
    assert len(pinned) == 48
    assert Counter(l for w in WORKLOADS for l in workload_lines(w, golden)) == Counter(pinned)
    frobenius = {l for l in pinned if l.startswith("verify-frobenius")}
    assert set(workload_lines("frobenius", golden)) == frobenius
    slash_fp = [f"verify-slash --p 3 --n {n} --cap 72" for n in (4, 5, 6)]
    slash_fp += [f"verify-twist --p 3 --n {n} --cap 72" for n in (4, 5)]
    assert set(workload_lines("slash-fp", golden)) == set(slash_fp)
    assert len(workload_lines("pinned-rest", golden)) == 41
