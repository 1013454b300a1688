#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/driver (and the library under
src/) with CMake into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the workload, prints a human-readable summary,
and prints as its LAST line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer metrics. Exits 0 when every operation and output check passed, 1
on a failed check or any build/run error (no result line), 2 on a bad
command line. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

ROOT = HERE.parent
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()

    def run(cmd):  # build output goes to stderr: stdout ends with the result
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)

    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run(["cmake", "--build", str(out), "--parallel", jobs]).returncode != 0:
        fail("build failed")
    return out / "perfbench_driver"


def run_driver(driver, args, trace_path):
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=DRIVER_TIMEOUT_S, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    return json.loads(proc.stdout)


def summary_lines(workload, trace, raw, computed, problems):
    lines = [f"perfbench {workload} ({'traced' if trace else 'end-to-end'})"]
    for name, (value, unit) in computed.items():
        lines.append(f"  {name:40s} {value:14.6g} {unit}")
    if not trace:
        n = len(raw["series"]["request_s"])
        best = metrics.highest_supported_percentile(n)
        lines.append(
            f"  request latency samples: n={n}; "
            f"{metrics.samples_beyond(n, 90):.1f} beyond p90; highest "
            f"percentile with >={metrics.MIN_SAMPLES_BEYOND} beyond: "
            f"{'none' if best is None else 'p%g' % best}")
        if not metrics.supports(n, 90):
            lines.append("  WARNING: too few requests for request_ms_p90")
    for p in problems:
        lines.append("  FAILED: " + p)
    return lines


def main(argv):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])

    driver = build()
    trace_path = build_dir() / "traces" / f"{args.workload}-{args.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    raw = run_driver(driver, args, trace_path)

    if args.trace:
        events = json.loads(trace_path.read_text())["traceEvents"]
        trace_path.unlink()
        computed = metrics.per_layer(args.workload, raw, events)
        spec_metrics = spec["per_layer"]
    else:
        computed = metrics.end_to_end(args.workload, raw)
        spec_metrics = spec["end_to_end"]
    spec_problems = metrics.check_against_spec(computed, spec_metrics)
    if spec_problems:
        fail("; ".join(spec_problems))

    attempted = raw["attempted"] + raw["checks_run"]
    failed = raw["failed"] + len(raw["check_failures"])
    problems = list(raw["check_failures"])
    if raw["failed"]:
        problems.append(f"{raw['failed']} operation(s) failed their checks")
    correct = failed == 0
    for line in summary_lines(args.workload, args.trace, raw, computed,
                              problems):
        print(line)
    print(json.dumps(metrics.result_line(computed, attempted, failed,
                                         correct)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
