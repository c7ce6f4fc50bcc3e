#!/usr/bin/env python3
"""Benchmark self-test at a tiny size.

    python3 perfbench/tests/selftest.py

Run from the repository root.  Builds the benchmark if needed, then runs
every workload of BENCHMARK.json untraced and traced with tiny budgets, and
checks that:
  * BENCHMARK.json keeps the benchmark contract (names, units, bounds);
  * the last line is the result object with every metric BENCHMARK.json
    names for the mode, each with its declared unit;
  * every output check passes (error_rate is 0);
  * a second untraced run of one seed repeats the statistics digest and
    the simulated metrics exactly.
Exits 0 when all hold.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)


def run(workload, trace, seed=3):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    check(p.returncode == 0, f"{workload} trace={trace}: exit code {p.returncode}: "
                             f"{p.stderr[-500:]}")
    lines = p.stdout.rstrip("\n").split("\n")
    try:
        return lines[:-1], json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        check(False, f"{workload} trace={trace}: no result line")
        return lines, {}


def simulated(lines):
    """The digest and simulated-metric lines, which must repeat exactly."""
    return [l for l in lines if l.startswith(("statistics digest", "sim.system_ipc",
                                              "sim.min_lifetime", "sim.renuca_gain"))]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json keys")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    check(len(names) == len(set(names)), "metric and workload names are unique")
    for n in names:
        check(NAME.match(n) is not None, f"name {n!r}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(m["unit"]) is not None, f"unit of {m['name']}")
    for m in spec["end_to_end"]:
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s is declared")
    check(bool(setup) and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s has the largest bound")

    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, doc = run(w["name"], trace)
            if not doc:
                continue
            check(set(doc) == {"correct", "attempted", "failed", "metrics"},
                  f"{w['name']} trace={trace}: result keys")
            check(doc.get("correct") is True and doc.get("failed") == 0,
                  f"{w['name']} trace={trace}: error_rate is not 0")
            check(doc.get("attempted", 0) >= 1, f"{w['name']} trace={trace}: attempted")
            got = doc.get("metrics", {})
            check(set(got) == {m["name"] for m in spec[key]},
                  f"{w['name']} trace={trace}: metric set")
            for m in spec[key]:
                check(m["name"] in got and got[m["name"]]["unit"] == m["unit"],
                      f"{w['name']} trace={trace}: {m['name']} printed with unit {m['unit']}")
            check(any(l.startswith("error_rate 0 ") for l in lines),
                  f"{w['name']} trace={trace}: error_rate line")
            if trace == 0:
                again, _ = run(w["name"], 0)
                check(simulated(lines) and simulated(lines) == simulated(again),
                      f"{w['name']}: digest and simulated metrics repeat for one seed")

    print("selftest: " + ("PASS" if not failures else f"{len(failures)} failure(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
