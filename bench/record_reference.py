#!/usr/bin/env python3
"""Record the reference results for the benchmark's seed of record.

    python3 bench/record_reference.py

Runs the first ``REFERENCE_OPS`` operations of every workload, in the
timed loop's order, once at the seed of record and full scale, requires
each result to pass the workload's own checks, and writes
``bench/reference/seed<seed>.json``.  Timed and traced runs at that seed
then compare every operation it holds with it.  Re-record only
for a change that is meant to alter results, and say why in CHANGES.md.
"""

import json
import tempfile
from pathlib import Path

import run


def main() -> None:
    scratch = run.ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    reference = {"seed": run.SEED_OF_RECORD, "scale": "full", "workloads": {}}
    for name in run.WORKLOADS:
        workload = run.load_workload(name)
        with tempfile.TemporaryDirectory(dir=scratch) as workdir:
            inputs = workload.setup(run.SEED_OF_RECORD, "full", Path(workdir))
            records = {}
            for i in range(workload.REFERENCE_OPS):
                item = inputs.item_at(i)
                record = workload.run(inputs, item)
                problems = workload.check(inputs, item, record)
                if problems:
                    raise SystemExit(f"{name} item {item} fails its checks: {problems}")
                records[str(item)] = record
        reference["workloads"][name] = records
        print(f"{name}: {len(records)} results")
    run.REFERENCE.parent.mkdir(exist_ok=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
