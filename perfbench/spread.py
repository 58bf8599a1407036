"""Run the benchmark on several seeds and report each metric's spread.

From the root of a checkout::

    python3 perfbench/spread.py --workload big_cell --seeds 11-20
    python3 perfbench/spread.py --all --seeds 11-20 --record <commit>

Each run is a fresh process.  For every end-to-end metric the script
prints the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  ``--record``
stores the figures as the measured baseline in ``expectations.json``,
with the commit they were measured at.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTATIONS = HERE / "expectations.json"


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def machine() -> str:
    with open("/proc/cpuinfo") as f:
        model = re.search(r"model name\s*:\s*(.*)", f.read())
    return f"{os.cpu_count()} CPUs, {model.group(1) if model else 'unknown model'}"


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("11-20"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--record", metavar="COMMIT")
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]] if args.all else args.workload
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    measured = {}
    for workload in names:
        runs, started = [], time.time()
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds))
        print(f"{workload}: {len(runs)} runs in {time.time() - started:.0f} s")
        measured[workload] = {}
        for metric in bounds:
            s = summarize([r[metric] for r in runs])
            measured[workload][metric] = s
            print(f"  {metric:22s} median {s['median']:12.4f}  "
                  f"q1 {s['q1']:12.4f}  q3 {s['q3']:12.4f}  "
                  f"spread {s['spread']:.3f} (bound {bounds[metric]})")
    if args.record:
        data = json.loads(EXPECTATIONS.read_text())
        data["baseline"] = {"commit": args.record, "machine": machine(),
                            "seeds": args.seeds,
                            "run_seconds": args.seconds,
                            "workloads": {**data.get("baseline", {}).get("workloads", {}),
                                          **measured}}
        EXPECTATIONS.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
