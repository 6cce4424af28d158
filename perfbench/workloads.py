"""The benchmark's workloads, their seeded configs and the golden values.

`golden.json` holds the 48 pinned lines of `src/qfrob/defaults.cfg`, each
with the workload it belongs to and the canonical JSON `values` its check
reported when the benchmark was defined.  Those values define "the same
result": a line fails when its report is missing, its status is not PASS,
or its `values` differ from the golden ones by a single byte.
"""

from __future__ import annotations

import json
import random
import shlex
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Together the three cover every pinned line exactly once; BENCHMARK.json
# says why each was chosen.
WORKLOADS = ("slash-fp", "frobenius", "pinned-rest")


def load_golden(path=GOLDEN_PATH):
    with open(path) as fh:
        return json.load(fh)


def canonical(values) -> str:
    return json.dumps(values, sort_keys=True, separators=(",", ":"))


def workload_lines(workload, golden):
    return [e["line"] for e in golden if e["workload"] == workload]


def make_config(workload, seed, golden):
    """The config text for one run, and its lines in the order written.

    The seed sets only the order of the workload's lines.
    """
    lines = workload_lines(workload, golden)
    random.Random(seed).shuffle(lines)
    text = f"# perfbench workload {workload}, seed {seed}\n" + "".join(l + "\n" for l in lines)
    return text, lines


def line_params(line):
    """(check name, {param: int}) of a config line."""
    tokens = shlex.split(line)
    return tokens[0], {k.lstrip("-"): int(v) for k, v in zip(tokens[1::2], tokens[2::2])}


def count_failed(lines, reports, golden, returncode=0):
    """How many of `lines` did not PASS with their golden values.

    `reports` is the list that `qfrob report-all --json` wrote for a config
    holding `lines` in that order, or None when the process wrote none; a
    line without a matching report fails.  `report-all` exits 1 only when a
    check did not pass, so a process that exits non-zero while reporting
    every line as passing (it crashed or was killed after writing its report)
    fails every line.
    """
    expected = {e["line"]: canonical(e["values"]) for e in golden}
    reports = reports or []
    failed = 0
    for i, line in enumerate(lines):
        rep = reports[i] if i < len(reports) else None
        name, params = line_params(line)
        ok = (
            rep is not None
            and rep.get("check") == name
            and rep.get("params") == params
            and rep.get("status") == "pass"
            and canonical(rep.get("values")) == expected[line]
        )
        failed += not ok
    if returncode != 0 and failed == 0:
        return len(lines)
    return failed
