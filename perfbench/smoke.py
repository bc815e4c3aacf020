#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size (a few minutes).

    python3 perfbench/smoke.py

Run from the repository root. For every workload (BENCHMARK.json's and
batch-small) it runs run.py at --size tiny with --trace 0 and --trace 1
and checks that each run is correct and prints exactly the metrics
BENCHMARK.json names, each with its unit. Then it gives run-large a
deliberately wrong expected bug set and checks that the run reports
failed operations (failed_ratio > 0) and exits non-zero. Exits 1 on
the first check that does not hold.
"""

import json
import subprocess
import sys

SEED = "1"


def run(workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", SEED, "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", *extra]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"FAIL {workload} trace={trace}: no output\n{r.stderr[-2000:]}")
    return r.returncode, json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    # batch-small is not in BENCHMARK.json but is kept working.
    for workload in [w["name"] for w in bench["workloads"]] + ["batch-small"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res = run(workload, trace)
            if code != 0 or not res["correct"] or res["failed"] != 0:
                sys.exit(f"FAIL {workload} trace={trace}: exit {code}, {res}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            if got != want:
                sys.exit(f"FAIL {workload} trace={trace}: metrics/units differ: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, "
                         f"units {[(n, got[n], want[n]) for n in want if n in got and got[n] != want[n]]}")
            print(f"ok   {workload} trace={trace}: {len(got)} metrics, "
                  f"{res['attempted']} operations")
    code, res = run("run-large", 0, "--expect", "fast-fair:1,2,99")
    ratio = res["failed"] / max(res["attempted"], 1)
    if code == 0 or res["correct"] or ratio <= 0:
        sys.exit(f"FAIL wrong expected bug set not caught: exit {code}, {res}")
    print(f"ok   wrong expected bug set: failed_ratio {ratio:g}, exit {code}")


if __name__ == "__main__":
    main()
