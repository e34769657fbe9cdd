#!/usr/bin/env python3
"""Set one workload up in a fresh process and time it.

Prints one JSON object.  ``setup_s`` is the time from the first line of
this script until the inputs are ready, so it counts the import and the
input generation but not interpreter start-up.  With ``--pass`` the
process also runs the traced run's pass without probes and reports its
wall time as ``pass_s``.  ``run.py`` starts several of these for
``setup_s`` and one for ``trace.overhead_frac``, so both sides of that
comparison start cold.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--pass", dest="run_pass", action="store_true")
    args = parser.parse_args()
    workload = importlib.import_module("workloads." + args.workload.replace("-", "_"))
    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        inputs = workload.setup(args.seed, args.scale, Path(workdir))
        out = {"setup_s": time.perf_counter() - START}
        if args.run_pass:
            from tracing import import_site_modules

            import_site_modules()  # the traced side has them loaded by its probes
            run = getattr(workload, "run_traced", workload.run)
            began = time.perf_counter()
            for item in inputs.trace_pass:
                run(inputs, item)
            out["pass_s"] = time.perf_counter() - began
    print(json.dumps(out))


if __name__ == "__main__":
    main()
