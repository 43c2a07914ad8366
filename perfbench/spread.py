#!/usr/bin/env python3
"""Run the benchmark over several seeds and report medians and quartile spreads.

    python3 perfbench/spread.py --seeds 0-9 [--workloads a,b] [--trace 0|1] [--out FILE]

``--seeds`` takes ranges and commas (``0,0`` runs seed 0 twice).

Runs are sequential, one process at a time, with the command and run length
from BENCHMARK.json.  For each end-to-end metric the spread is the distance
between the first and third quartile of its values (``statistics.quantiles``
with n=4) as a share of their median, next to the metric's bound.  ``--out``
writes every run's metrics, the summary and a note of the machine as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    """'0-9' or '0,0,3-5' -> list of seeds, repeats kept."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def machine_note():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    probe = "import numpy, networkx; print(numpy.__version__, networkx.__version__)"
    versions = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout.split()
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions[0],
        "networkx": versions[1],
    }


def run_once(bench, workload, seed, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (cmd, out.returncode, out.stderr))
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    result["notes"] = lines[:-1]
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--workloads", default="")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    report = {"machine": machine_note(), "run_seconds": bench["run_seconds"],
              "trace": args.trace, "workloads": {}}
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            r = run_once(bench, name, seed, args.trace)
            runs.append({"seed": seed, **r})
            print("%s seed %d: %.1f s, correct=%s %s" % (
                name, seed, r["elapsed_s"], r["correct"],
                " ".join("%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items()
                         if args.trace == 0)), flush=True)
        summary = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            entry = {"values": values, "median": statistics.median(values)}
            if len(values) >= 2 and args.trace == 0:
                med, q1, q3, s = spread(values)
                entry.update(q1=q1, q3=q3, spread=s, bound=m["bound"],
                             within_third=s < m["bound"] / 3)
                print("  %-14s median %-12.6g spread %.4f (bound %.2f)%s" % (
                    m["name"], med, s, m["bound"],
                    "" if s < m["bound"] / 3 else "  <-- above a third of the bound"))
            summary[m["name"]] = entry
        report["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
