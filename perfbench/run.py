#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <ssd_overwrite|multivol_intake|failover>
                             --seed <n> --seconds <s> --trace <0|1>

Every run configures and builds an optimized binary from the library
sources (../src) into the build directory ($CARGO_TARGET_DIR, default
.bench_build); only the first run compiles, later ones find it up to
date.  Build output goes to stderr.  The benchmark binary's stdout is
passed through: one `metric <name> = <value> <unit>` line per metric and,
as the last line, a JSON object with "correct", "attempted", "failed" and
"metrics".  A traced run's binary also prints one `span_summary <json>`
line per span harvest (obs::span_summary_json); this script sums them
into the per-layer self times, checks the traced drain wall against the
driver's drain clock, and adds both to the closing JSON.  The exit code
is the binary's (0: every check passed), 1 when a check made here fails,
or another non-zero code with no result line when the build or the run
fails.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("ssd_overwrite", "multivol_intake", "failover")
RUN_TIMEOUT_S = 170
# Span kinds whose summed self time is reported per traced CP.
SELF_TIME_METRICS = {
    "cp.vol_slice": "cp.vol_slice_self_ms_per_cp",
    "cp.volumes": "cp.volumes_self_ms_per_cp",
    "cp.sort": "cp.sort_self_ms_per_cp",
    "cp.delayed_free": "cp.delayed_free_self_ms_per_cp",
    "rg.tetris_flush": "rg.tetris_flush_self_ms_per_cp",
}
# The cp.drain spans must cover the driver's own drain clock within this.
DRAIN_RECONCILE_TOLERANCE = 0.05


def build(src_dir: str, build_dir: str) -> str:
    subprocess.run(
        ["cmake", "-S", src_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "wafl_perfbench")


def trace_metrics(summaries, context):
    """Per-layer metrics from the span summaries, and whether the traced
    drain wall reconciles with the driver's drain clock."""
    self_ms = {kind: 0.0 for kind in SELF_TIME_METRICS}
    drain_wall_ms = 0.0
    for s in summaries:
        for p in s["phases"]:
            if p["kind"] in self_ms:
                self_ms[p["kind"]] += p["self_ms"]
            if p["kind"] == "cp.drain":
                drain_wall_ms += p["wall_ms"]
    cps = context["cps"]
    metrics = {name: (self_ms[kind] / cps if cps else 0.0, "ms")
               for kind, name in SELF_TIME_METRICS.items()}
    ratio = (drain_wall_ms / context["driver_drain_ms"]
             if context["driver_drain_ms"] else 0.0)
    metrics["trace.drain_reconcile_ratio"] = (ratio, "ratio")
    return metrics, abs(ratio - 1.0) < DRAIN_RECONCILE_TOLERANCE


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()
    if not 0 < a.seconds <= 120:
        p.error("--seconds must be in (0, 120]")

    here = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(here, os.path.join(build_dir, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"benchmark build failed: {e}", file=sys.stderr)
        return 3
    try:
        r = subprocess.run(
            [binary, "--workload", a.workload, "--seed", str(a.seed),
             "--seconds", repr(a.seconds), "--trace", a.trace],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 4
    if r.returncode < 0:
        print(f"benchmark process died of signal {-r.returncode}", file=sys.stderr)
        return 5

    lines = r.stdout.splitlines()
    summaries, context = [], None
    for line in lines[:-1]:
        if line.startswith("span_summary "):
            summaries.append(json.loads(line[len("span_summary "):]))
        elif line.startswith("trace_context "):
            context = json.loads(line[len("trace_context "):])
        else:
            print(line)
    if not lines or not lines[-1].startswith("{"):
        print("benchmark printed no result", file=sys.stderr)
        return r.returncode or 2
    result = json.loads(lines[-1])
    code = r.returncode
    if a.trace == "1":
        if context is None:
            print("traced run printed no trace_context", file=sys.stderr)
            return 2
        metrics, reconciled = trace_metrics(summaries, context)
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit}")
            result["metrics"][name] = {"value": value, "unit": unit}
        result["attempted"] += 1
        if not reconciled:
            print("CHECK FAILED: traced drain wall does not reconcile with the "
                  "driver's drain time")
            result["correct"] = False
            result["failed"] += 1
            code = code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
