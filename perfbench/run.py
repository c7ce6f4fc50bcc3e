#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and runs one workload.

    python3 perfbench/run.py --workload rig16_cold --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first run configures and builds a
Release copy of the simulator libraries, the two daemons and the driver
into .bench_build/ (later runs rebuild incrementally).  The workload runs
in .bench_run/<workload>/, where the traced run also leaves its span file.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics -- the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  See perfbench/README.md.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
# Longest a driver run may take before it is stopped (the contract's
# per-run limit is 180 s).
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured for another checkout location is stale.
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_driver(args):
    work = os.path.join(RUNS, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(BUILD, "perfbench"), f"workload={args.workload}",
           f"seed={args.seed}", f"seconds={args.seconds}", f"trace={args.trace}",
           f"tiny={1 if args.tiny else 0}", f"bin={BUILD}", f"work={work}"]
    # Own process group, so a stopped driver takes its daemons with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        fail(f"driver exited with code {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    try:
        doc = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("driver printed no result line")
    return lines[:-1], doc


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny budgets (the self-test): every path runs in seconds")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    names = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    build()
    report, doc = run_driver(args)
    for line in report:
        print(line)

    metrics = {}
    for name, unit in names:
        m = doc.get("metrics", {}).get(name)
        if m is None or not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]) or m.get("unit") != unit:
            fail(f"metric {name} missing, not a finite number, or not in {unit}")
        metrics[name] = {"value": m["value"], "unit": unit}
    attempted, failed = int(doc["attempted"]), int(doc["failed"])
    print(json.dumps({"correct": bool(doc["correct"]) and failed == 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
