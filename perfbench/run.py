"""Benchmark of `qfrob report-all` over the pinned checks of defaults.cfg.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

The program is run from the source tree this directory sits in, with
PYTHONPATH=<tree>/src; nothing is installed.  Without --workload every workload
runs in turn.  For each, the script prints every metric with its unit, then
a JSON record (seed, line order, pass timings, environment), then as its
last line a JSON result with the keys correct, attempted, failed, metrics.
It exits 0 when every line passed with its golden values, 1 when one did
not, and 2 when the tree holds no qfrob sources.

A run is a closed loop with one client: each pass is one fresh
`python -m qfrob.cli report-all --config <generated> --json <file>` process,
never with --jobs, and another pass starts while the elapsed time plus the
previous pass's wall time fits in --seconds; at least one pass runs.

--trace 0 reports the end-to-end metrics, medians over the passes:
  wall_s       spawn-to-exit wall time of a pass
  cpu_s        user + system CPU time of that process (BLAS threads included)
  peak_rss_mb  its ru_maxrss
  pass_frac    share of attempted lines that passed with their golden values
  setup_s      median time for a fresh interpreter to import qfrob.cli and
               parse the generated config, over SETUP_SAMPLES processes
               before the first pass and as many after the last one
--trace 1 runs the same untraced passes, then one traced pass
(perfbench/tracer.py) of the same config, and reports the per-layer metrics,
plus
  trace.overhead_frac  traced wall / median wall of this run's untraced
                       passes - 1
  trace.outside_s      traced wall minus the layers' summed self time, the
                       time spent outside any wrapped function
When the traced process ends without writing its per-layer figures, its
lines count as failed and no per-layer metric is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, count_failed, load_golden, make_config

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 165  # a run must end within 180 s, set-up samples after the passes included
# Set-up samples are taken in two groups, one on each side of the passes:
# the host's speed drifts over seconds, so one group alone would sample a
# single short stretch of it while wall_s averages over the whole run.
SETUP_SAMPLES = 4
SETUP_CODE = "import sys, qfrob.cli; qfrob.cli.default_specs(sys.argv[1])"
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
    "setup_s": "s",
}


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int


def program_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def environment():
    """What the run ran on; BLAS thread variables are recorded, never set."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            sha = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
    }


def run_pass(cmd, lines, golden, report, deadline):
    """Run one report-all process and check its report against the golden values."""
    report.unlink(missing_ok=True)
    with open(report.with_suffix(".stderr"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=program_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    try:
        with open(report) as fh:
            reports = json.load(fh)
    except (OSError, ValueError):
        reports = None
    return Pass(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        attempted=len(lines),
        failed=count_failed(lines, reports, golden, os.waitstatus_to_exitcode(status)),
    )


def setup_time(config):
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(config)],
        cwd=ROOT,
        env=program_env(),
        check=True,
        timeout=60,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def run_workload(workload, seed, seconds, trace, golden):
    """Run one workload; returns (record, result) as printed."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    text, lines = make_config(workload, seed, golden)
    config = WORK / f"{workload}.cfg"
    config.write_text(text)
    report = WORK / f"{workload}.report.json"

    # A traced run reports no setup_s, so it takes no set-up samples.
    setup = [] if trace else [setup_time(config) for _ in range(SETUP_SAMPLES)]
    cli = [sys.executable, "-m", "qfrob.cli", "report-all"]
    cli += ["--config", str(config), "--json", str(report)]
    first = time.perf_counter()
    passes = [run_pass(cli, lines, golden, report, deadline)]
    while time.perf_counter() - first + passes[-1].wall_s <= seconds:
        passes.append(run_pass(cli, lines, golden, report, deadline))
    if not trace:
        setup += [setup_time(config) for _ in range(SETUP_SAMPLES)]
    wall = statistics.median(p.wall_s for p in passes)

    if trace:
        stats = WORK / f"{workload}.trace.json"
        stats.unlink(missing_ok=True)
        tracer = [sys.executable, str(Path(__file__).with_name("tracer.py"))]
        tracer += [str(config), str(report), str(stats)]
        traced = run_pass(tracer, lines, golden, report, deadline)
        passes.append(traced)
        try:
            with open(stats) as fh:
                values = json.load(fh)
        except (OSError, ValueError):  # killed before it wrote them
            traced.failed = traced.attempted
            metrics = {}
        else:
            values["trace.overhead_frac"] = traced.wall_s / wall - 1
            self_s = sum(v for k, v in values.items() if k.endswith(".self_s"))
            values["trace.outside_s"] = traced.wall_s - self_s
            metrics = {
                k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())
            }
    else:
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
            "pass_frac": 1 - sum(p.failed for p in passes) / sum(p.attempted for p in passes),
            "setup_s": statistics.median(setup),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}

    failed = sum(p.failed for p in passes)
    record = {
        "workload": workload,
        "seed": seed,
        "order": lines,
        "passes": [
            asdict(p) | {"traced": bool(trace) and i == len(passes) - 1}
            for i, p in enumerate(passes)
        ],
        "setup_samples_s": setup,
        "environment": environment(),
    }
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def layer_unit(name):
    kind = name.rsplit(".", 1)[1]
    if kind.endswith("_s"):
        return "s"
    if kind.endswith(("_frac", "_ratio")):
        return "frac"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qfrob" / "cli.py").is_file():
        print(f"no qfrob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = load_golden()
    correct = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        record, result = run_workload(workload, args.seed, args.seconds, args.trace, golden)
        for name, m in result["metrics"].items():
            print(f"{workload:12s} {name:30s} {m['value']:.6g} {m['unit']}")
        print(json.dumps(record))
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
