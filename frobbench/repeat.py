"""Run the benchmark over several seeds and summarise each metric.

    python3 frobbench/repeat.py --workload census --seeds 1-10 [--out FILE]

Runs the end-to-end measurement (--trace 0) once per seed.  For every metric
prints the median, the first and third quartiles (statistics.quantiles(values,
n=4)) and the spread (q3 - q1) / median, and for each run its wall-clock time.
With --out the runs and the summary are also written as JSON; the reference
figures in reference.json come from such files.  Runs go one after another,
never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

RUN = Path(__file__).with_name("run.py")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def repeat(workload, seeds, seconds):
    runs = []
    for seed in seeds:
        start = time.monotonic()
        done = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"],
                              capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        result["seed"], result["elapsed_s"] = seed, time.monotonic() - start
        runs.append(result)
        print(f"{workload} seed {seed}: {result['elapsed_s']:.1f} s, correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    names = list(runs[0]["metrics"])
    summary = {name: {**summarise([r["metrics"][name]["value"] for r in runs]),
                      "unit": runs[0]["metrics"][name]["unit"]} for name in names}
    return {"workload": workload, "seeds": seeds, "seconds": seconds,
            "runs": runs, "summary": summary}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    reports = []
    for workload in args.workload:
        report = repeat(workload, args.seeds, args.seconds)
        reports.append(report)
        for name, s in report["summary"].items():
            print(f"{workload:<10} {name:<48} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {s['unit']}")
    if args.out:
        args.out.write_text(json.dumps(reports, indent=1) + "\n")


if __name__ == "__main__":
    main()
