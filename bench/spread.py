#!/usr/bin/env python3
"""Run the timed benchmark over several seeds and summarise each metric's spread.

    python3 bench/spread.py --workloads lwe-gap cli-exact --seeds 1 2 3 4 5 \
        --seconds 20 --out bench/results/spread.json

For every workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the distance between
the quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json.  Each run's result and environment stamp are kept.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    began = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    return {
        "seed": seed,
        "run_wall_s": time.perf_counter() - began,
        "stamp": json.loads(lines[-2])["stamp"],
        "result": json.loads(lines[-1]),
    }


def summarise(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bounds.get(name),
        }
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds))
            result = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"({runs[-1]['run_wall_s']:.1f} s)", flush=True)
        summary = summarise(runs, bounds)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, row in summary.items():
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"  {name:<44} median {row['median']:.6g}  spread {spread}  bound {row['bound']}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
