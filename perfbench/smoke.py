#!/usr/bin/env python3
"""Smoke test: a one-second run of every workload, untraced and traced.

    python3 perfbench/smoke.py

Each run must exit 0 with "correct": true, no failed op, exactly the
metrics BENCHMARK.json declares for its mode, and leave no daemon or
state directory behind.
"""

import glob
import json
import os
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                                     "--seconds", "1", "--trace", trace]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            tag = f"{workload} trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: checks failed: {lines[-2]}")
            if set(result["metrics"]) != declared[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ declared[trace])}")
            print(f"ok   {tag}: {result['attempted']} ops")
    leftovers = glob.glob(os.path.join(".perfbench", "state-*")) + \
        glob.glob(os.path.join(".perfbench", "replay-*"))
    if leftovers:
        problems.append(f"state directories left behind: {leftovers}")
    daemons = subprocess.run(["pgrep", "-x", "cts_cli.exe"],
                             capture_output=True, text=True).stdout.split()
    if daemons:
        problems.append(f"daemons left running: {daemons}")
    for p in problems:
        print(f"FAIL {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
