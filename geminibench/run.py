#!/usr/bin/env python3
"""The repository's end-to-end benchmark: Gemini sessions over live daemons.

Run from the root of a source checkout:

    python3 geminibench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0

Builds geminid, geminicoordd and the load generator (geminibench/loadgen.cc)
into $CARGO_TARGET_DIR (default .bench_build), runs one workload against a
freshly spawned cluster, prints every metric with its unit, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list; with --trace 1 its per_layer
list. The full report and the traced run's spans are kept under .bench_out/.
See geminibench/NOTES.md for the workloads and what each metric is for.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read_hot", "write_mix", "failover")
TARGETS = ("gemini_loadgen", "geminid", "geminicoordd")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 160
SETTLE_S = 3


def fail(msg, code=1):
    print(f"geminibench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """git commit when available, else a digest of the sources built."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "geminibench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  *TARGETS])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=max(1, left))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def run_loadgen(cmd):
    """Runs the load generator in its own process group; kills the whole
    group (the daemons included) if it overruns."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("load generator timed out")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def print_metrics(title, metrics):
    print(f"  {title}")
    for name, m in metrics.items():
        if not isinstance(m, dict):
            continue  # per-window detail stays in the full report
        if "value" not in m:
            print_metrics(name, m)
            continue
        extra = []
        if "samples" in m:
            extra.append(f"n={int(m['samples'])}")
        if "base" in m:
            extra.append(m["base"])
        value = m["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"    {name:34s} {shown:>14s} {m['unit']:6s} "
              f"{'; '.join(extra)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/geminid.cc",
                   "tools/geminicoordd.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no Gemini source tree here ({needed} is missing)", 2)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}", 2)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(build_dir)

    out_dir = os.path.abspath(".bench_out")
    work_dir = os.path.abspath(
        os.path.join(".bench_run", f"{args.workload}-{os.getpid()}"))
    os.makedirs(out_dir, exist_ok=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = os.path.join(out_dir, f"report-{tag}.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [os.path.join(build_dir, "gemini_loadgen"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(build_dir, "gemini_tools"),
           "--workdir", work_dir, "--report", report_path,
           "--commit", source_id()]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, f"spans-{args.workload}.csv")]
    rc = run_loadgen(cmd)
    # The data dirs are freed now, and the file system discards their blocks
    # in the background; flush and let that settle so it lands in this run
    # and not in the next run's measured window.
    shutil.rmtree(work_dir, ignore_errors=True)
    os.sync()
    time.sleep(SETTLE_S)
    try:
        with open(report_path) as f:
            report = json.load(f)
    except (OSError, ValueError):
        fail(f"load generator exited {rc} without a report")

    meta = report["meta"]
    print(f"geminibench {args.workload}: seed={meta['seed']} "
          f"seconds={meta['seconds']} trace={meta['trace']} "
          f"nproc={meta['nproc']} kernel={meta['kernel']!r} "
          f"io_backend={meta['io_backend']} build={meta['build_type']} "
          f"commit={meta['commit']}")
    print_metrics("end to end (untraced)", report["end_to_end"])
    if "per_layer" in report:
        print_metrics("per layer (traced)", report["per_layer"])
    corr = report["correctness"]
    print(f"  correctness: {corr['reads_checked']:.0f} reads checked, "
          f"{corr['stale_reads']:.0f} stale, "
          f"{corr['superseded_reads']:.0f} superseded, "
          f"{corr['payload_mismatches']:.0f} payload mismatches"
          + (f"; {corr['first_violation']}" if corr["first_violation"] else "")
          + (f"; error: {corr['error']}" if corr["error"] else ""))
    live = report["liveness"]
    print(f"  liveness: {live['failures_detected']:.0f} failures detected for "
          f"{live['kills']:.0f} kills ({live['false_failovers']:.0f} healthy "
          f"geminids declared dead in the measured cluster); "
          f"{meta['setup_failures']:.0f} set-ups failed and were redone")
    if report["failed_by_code"]:
        print(f"  failed ops by code: {report['failed_by_code']}")
    print(f"  full report: {os.path.relpath(report_path)}")

    section = "per_layer" if args.trace else "end_to_end"
    source = report.get(section, {})
    metrics = {}
    for m in spec[section]:
        got = source.get(m["name"])
        if got is None or got.get("value") is None:
            fail(f"report lacks {section} metric {m['name']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(report["correct"]) and rc == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
