#!/usr/bin/env python3
"""Benchmark for oilab, one workload per invocation.

    python3 bench/run.py --workload decide-corpus --seed 2026 --seconds 20 --trace 0

With ``--trace 0`` the workload is set up and its operations run one at a
time, a closed loop with one client, for ``--seconds`` seconds; the
end-to-end metrics are printed.  With ``--trace 1`` one fixed pass of
operations runs traced, and again untraced in a fresh process, and the
per-layer metrics are printed; the pass depends only on the seed, so its
counts repeat exactly.
Every operation's result is checked.  The last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it stamps the environment.  Metric names and units come from
BENCHMARK.json at the repository root.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
for _name in THREAD_VARS:  # before numpy loads, here and in every child process
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer  # noqa: E402
from workloads import SCALES  # noqa: E402

WORKLOADS = ("decide-corpus", "lwe-gap", "cli-exact")
SEED_OF_RECORD = 2026
HELD_OUT_SEED = 7
REFERENCE = BENCH / "reference" / f"seed{SEED_OF_RECORD}.json"
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
FLOAT_TOLERANCE = 1e-9  # relative, for float fields compared with the reference


def load_workload(name: str):
    return importlib.import_module("workloads." + name.replace("-", "_"))


def run_one(run, inputs, item) -> dict:
    try:
        return run(inputs, item)
    except Exception as exc:  # a failed operation is counted; the loop goes on
        return {"exception": f"{type(exc).__name__}: {exc}"}


def differences(actual, expected, path: str = "result") -> list[str]:
    """Where ``actual`` differs from the reference: floats to FLOAT_TOLERANCE,
    everything else exactly."""
    if isinstance(expected, float) and type(actual) in (int, float):
        if math.isclose(actual, expected, rel_tol=FLOAT_TOLERANCE, abs_tol=FLOAT_TOLERANCE):
            return []
    elif isinstance(expected, dict) and isinstance(actual, dict) and actual.keys() == expected.keys():
        return [d for key in expected for d in differences(actual[key], expected[key], f"{path}.{key}")]
    elif isinstance(expected, list) and isinstance(actual, list) and len(actual) == len(expected):
        return [
            d for i, pair in enumerate(zip(actual, expected)) for d in differences(*pair, f"{path}[{i}]")
        ]
    elif type(actual) is type(expected) and actual == expected:
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


def record_problems(workload, inputs, item, record: dict, reference: dict | None) -> list[str]:
    if "exception" in record:
        return [record["exception"]]
    try:
        found = workload.check(inputs, item, record)
    except Exception as exc:  # a malformed record fails its operation
        found = [f"check raised {type(exc).__name__}: {exc}"]
    expected = None if reference is None else reference.get(str(item))
    if expected is not None:  # the reference covers the first operations only
        found += differences(record, expected)
    return found


def count_failures(workload, inputs, results, reference) -> tuple[int, list[str]]:
    """Failed operations: an exception, a CLI exit code 2, or a result that
    fails the workload's checks or differs from the reference for the seed
    of record."""
    messages = []
    failed = 0
    for item, record in results:
        problems = record_problems(workload, inputs, item, record, reference)
        messages += [f"item {item}: {p}" for p in problems]
        failed += bool(problems)
    return failed, messages


def verdict_accuracy(workload, inputs, results) -> float:
    verdicts = [
        False if "exception" in record else workload.verdict_correct(inputs, item, record)
        for item, record in results
    ]
    judged = [v for v in verdicts if v is not None]
    return sum(judged) / len(judged) if judged else 0.0


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def probe(args, workdir: str, run_pass: bool = False) -> dict:
    """Run probe.py once: set-up time of a fresh process, and optionally the
    wall time of the traced run's pass without probes."""
    command = [
        sys.executable, str(BENCH / "probe.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--scale", args.scale, "--workdir", workdir,
    ]
    done = subprocess.run(
        command + ["--pass"] * run_pass, capture_output=True, text=True, check=True, timeout=170
    )
    return json.loads(done.stdout.splitlines()[-1])


def import_seconds() -> float:
    """Median wall time of importing oilab.cli in a fresh interpreter, less
    that of starting an empty one."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def wall(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
        return time.perf_counter() - start

    return statistics.median(wall("import oilab.cli") - wall("pass") for _ in range(IMPORT_SAMPLES))


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def timed_run(workload, args, workdir: str, reference):
    inputs = workload.setup(args.seed, args.scale, Path(workdir))
    results, times, seen = [], [], set()
    paused = 0.0  # spent making inputs past those of set-up; not measured
    start = time.perf_counter()
    while True:
        asked = time.perf_counter()
        item = inputs.item_at(len(results))
        began = time.perf_counter()
        paused += began - asked
        if item in seen:  # a cache would be credited with a repeat users do not make
            raise RuntimeError(f"{args.workload} repeated input {item} in the timed loop")
        seen.add(item)
        record = run_one(workload.run, inputs, item)
        ended = time.perf_counter()
        results.append((item, record))
        times.append(ended - began)
        if ended - start - paused >= args.seconds:
            break
    wall = time.perf_counter() - start - paused
    # read before the set-up probes run, which are child processes too
    peak = peak_rss_mb(getattr(workload, "RSS_FROM_CHILDREN", False))
    setups = [probe(args, workdir)["setup_s"] for _ in range(SETUP_SAMPLES)]
    failed, messages = count_failures(workload, inputs, results, reference)
    tail_s, percentile = tail(times)
    values = {
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ops_per_s": len(times) / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "verdict_accuracy": verdict_accuracy(workload, inputs, results),
        "failed_frac": failed / len(results),
    }
    details = {
        "op_tail_percentile": percentile,
        "op_samples": len(times),
        "setup_samples_s": setups,
    }
    return values, len(results), failed, messages, details


def traced_run(workload, args, workdir: str, reference):
    tracer = Tracer()
    results = []
    with tracer.installed():
        inputs = workload.setup(args.seed, args.scale, Path(workdir))
        run = getattr(workload, "run_traced", workload.run)
        start = time.perf_counter()
        for n, item in enumerate(inputs.trace_pass):
            with tracer.operation(f"op{n}"):
                results.append((item, run_one(run, inputs, item)))
        traced_s = time.perf_counter() - start
    # the same pass without probes, in a fresh process so both sides start cold
    untraced_s = probe(args, workdir, run_pass=True)["pass_s"]
    tracer.require_calls(workload.DECLARED_SITES)
    failed, messages = count_failures(workload, inputs, results, reference)
    values = tracer.layer_metrics()
    values["cli.import_s"] = import_seconds()
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    details = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s}
    return values, len(results), failed, messages, details


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    command = ["git", "--git-dir", str(ROOT / ".git"), "--work-tree", str(ROOT), *args]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy

    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else status != "",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ[name] for name in THREAD_VARS},
        "clients": 1,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full", help="smoke: minimal inputs")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> None:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = load_workload(args.workload)
    reference = None
    if args.seed == SEED_OF_RECORD and args.scale == "full":
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][args.workload]
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        measure = traced_run if args.trace else timed_run
        values, attempted, failed, messages, details = measure(workload, args, workdir, reference)
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if not args.trace:
        units["failed_frac"] = "ratio"  # printed, but 0 is not a usable bound base
    for name, unit in units.items():
        print(f"{name:<48} {values[name]:>16.6f} {unit}")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_of_record": SEED_OF_RECORD,
        "held_out_seed": HELD_OUT_SEED,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        **details,
        "environment": environment(),
    }
    print(json.dumps({"stamp": stamp}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
