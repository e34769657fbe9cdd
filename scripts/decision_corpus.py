#!/usr/bin/env python3
"""Run the end-to-end decision pipeline over a labeled random corpus.

Builds promise-valid statistical-difference instances, amplifies them to a
valid decision gap, decides each with the oracle-simulated pipeline, and
reports accuracy against the brute-force labels.
"""

import argparse
import time

from oilab.corpus import build_sd_corpus, polarize_corpus
from oilab.jsonio import write_json
from oilab.solver import SolverConfig, decide_sd


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=100)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--lambda", dest="lam", type=int, default=100)
    parser.add_argument("--shots", type=int, default=4096)
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--out", default=None, help="write the JSON report here")
    return parser.parse_args()


def main():
    args = parse_args()
    corpus = polarize_corpus(build_sd_corpus(args.instances, args.seed))
    cfg = SolverConfig(
        lam=args.lam, swap_shots=args.shots, trial_count=args.trials, seed=args.seed
    )
    started = time.time()
    rows = []
    for index, item in enumerate(corpus):
        decision = decide_sd(item.instance, cfg)
        rows.append(
            {
                "index": index,
                "raw_delta": float(item.delta),
                "label": item.label,
                "verdict": decision.verdict,
                "estimate": decision.estimate,
                "correct": decision.verdict == item.label,
            }
        )
    elapsed = time.time() - started
    accuracy = sum(r["correct"] for r in rows) / len(rows)
    report = {
        "seed": args.seed,
        "instances": len(rows),
        "accuracy": accuracy,
        "elapsed_seconds": elapsed,
        "rows": rows,
    }
    print(f"decided {len(rows)} instances in {elapsed:.1f}s, accuracy {accuracy:.3f}")
    if args.out:
        write_json(args.out, report)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
