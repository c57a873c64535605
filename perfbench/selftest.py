#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json for a short window, once untraced
and once traced, and checks that each run is correct, fails nothing, and
emits every end-to-end (untraced) or per-layer (traced) metric named in
BENCHMARK.json, with its unit, as a finite number. Run from the
repository root:

    python3 perfbench/selftest.py [--seconds 2]

A run the benchmark declares invalid (exit 3: the load generator fell
behind, or a traced run's stages did not reconcile within the stated
tolerance) counts as a problem. Exits non-zero if there was any. The traced runs include the engine
comparison, so the whole test takes a few minutes.
"""

import json
import math
import subprocess
import sys


def main():
    seconds = "2"
    if len(sys.argv) == 3 and sys.argv[1] == "--seconds":
        seconds = sys.argv[2]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", "7", "--seconds", seconds, "--trace", trace,
            ]
            done = subprocess.run(cmd, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            tag = f"{workload} --trace {trace}"
            if done.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {done.returncode}\n{done.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{tag}: metrics differ: {sorted(set(got) ^ set(want))}")
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit or not math.isfinite(m.get("value", math.nan)):
                    problems.append(f"{tag}: {name} = {m}")
            print(f"{tag}: {len(got)} metrics, attempted {result['attempted']}", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
