#!/usr/bin/env python3
"""End-to-end benchmark for CrossEM: build, run one workload, report.

Run from the repository root:

    python3 perfbench/run.py --workload tune --seed 1 --seconds 12 --trace 0

Builds perfbench/ (the crossem libraries from src/ plus the perfbench
binary) into .bench_build/perfbench, runs the workload in a fresh
process with the thread count pinned to the core count, and prints the
host stamp, the workload's metric and check lines, and as the last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. setup_s
is the median of three set-ups, two of them in set-up-only processes.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 runs the workload twice, untraced and then with CROSSEM_TRACE=1
and request tracing on, and reports the per-layer metrics plus
bench.trace_overhead (traced / untraced CPU cost: Fit CPU for tune,
CPU per request for the serve workloads). A per-layer metric
of a layer the workload does not exercise reads 0.

Exits non-zero when an output check fails or the build or run fails.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
TIME_LIMIT_S = 170.0
SETUP_REPS = 3


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no crossem sources under src/ in " + ROOT, 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path, 3)


def compiler_version():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    out = subprocess.run([cxx, "--version"], capture_output=True,
                                         text=True).stdout
                    return out.splitlines()[0] if out else cxx
    except OSError:
        pass
    return "unknown"


def source_revision():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT)
        if out.returncode == 0:
            return "git " + out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256 " + digest.hexdigest()[:16]


def host_stamp(threads):
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    isa = [n for n in ("avx2", "fma", "avx512f", "avx512_vnni", "avx_vnni")
           if n in flags]
    print("host   cpu %s | isa %s | nproc %d | threads %d | compiler %s | "
          "source %s" % (model, ",".join(isa) or "none", os.cpu_count() or 1,
                         threads, compiler_version(), source_revision()))


def run_child(args, trace, deadline, setup_only=False):
    scratch = os.path.join(ROOT, ".bench_build", "tmp",
                           "%s-%d-%d" % (args.workload, os.getpid(), trace))
    os.makedirs(scratch, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("CROSSEM_")}
    env["CROSSEM_NUM_THREADS"] = str(os.cpu_count() or 1)
    env["CROSSEM_TRACE"] = str(trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--scratch", scratch,
           "--expected", os.path.join(BENCH_DIR, "expected_tune.json"),
           "--setup-only", "1" if setup_only else "0"]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload, 5)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        fail("workload %s exited with %d" % (args.workload, proc.returncode), 4)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["tune", "serve_hot", "serve_scan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = time.time() + TIME_LIMIT_S

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, 2)
    build()
    host_stamp(os.cpu_count() or 1)

    # Extra set-ups run in processes of their own, so the measured run's
    # memory never includes an earlier set-up.
    setups = [] if args.trace else [
        run_child(args, 0, deadline, setup_only=True)["metrics"]["setup_s"]
        for _ in range(SETUP_REPS - 1)]
    results = [run_child(args, 0, deadline)]
    if args.trace:
        results.append(run_child(args, 1, deadline))
    child = results[-1]["metrics"]
    if setups:
        setups.append(child["setup_s"])
        child["setup_s"] = {"value": statistics.median(s["value"] for s in setups),
                            "unit": "s"}
        print("info   setup_s per process: %s s" %
              ", ".join("%.4f" % s["value"] for s in setups))

    metrics, missing = {}, []
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for m in wanted:
        if m["name"] in child:
            metrics[m["name"]] = child[m["name"]]
        elif args.trace and m["name"] in results[0]["metrics"]:
            # Memory high-water marks and wall-clock readings come from
            # the untraced run: tracing would inflate them.
            metrics[m["name"]] = results[0]["metrics"][m["name"]]
        elif m["name"] == "bench.trace_overhead":
            basis = "update_cpu_s" if args.workload == "tune" else "op_cpu_ms"
            base = results[0]["metrics"][basis]["value"]
            metrics[m["name"]] = {"value": child[basis]["value"] / base,
                                  "unit": m["unit"]}
        elif args.trace:
            # The workload does not exercise this layer.
            missing.append(m["name"])
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail("workload did not report %s" % m["name"], 4)
    if missing:
        print("note   not exercised by %s (reported as 0): %s" %
              (args.workload, ", ".join(missing)))

    result = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
