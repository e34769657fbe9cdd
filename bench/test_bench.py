"""Smoke and self-checks for the benchmark, kept out of the tier-1 suite.

    python -m pytest bench/test_bench.py -q

Every workload runs at minimal size on the held-out seed, timed and
traced, and must print every declared metric with its unit.  The result
check must count a perturbed result as failed, traced counts must repeat
exactly, timed-loop inputs must never repeat, and without the program the
benchmark must fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_SUFFIXES = (".calls", ".distinct", ".rows", ".candidates", ".points", ".successes", ".shots")


def bench(workload: str, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(run.HELD_OUT_SEED),
        "--seconds", "1", "--trace", str(trace), "--scale", "smoke",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def outputs():
    return {}


def result_of(outputs, workload: str, trace: int) -> tuple[dict, str]:
    if (workload, trace) not in outputs:
        done = bench(workload, trace)
        assert done.returncode == 0, done.stderr
        outputs[workload, trace] = (json.loads(done.stdout.splitlines()[-1]), done.stdout)
    return outputs[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_prints_with_its_unit(outputs, workload, trace):
    result, stdout = result_of(outputs, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(result["metrics"][metric["name"]]["value"], (int, float))
        assert any(
            line.split()[:1] == [metric["name"]] and line.endswith(" " + metric["unit"])
            for line in stdout.splitlines()
        )
    if not trace:
        assert any(line.startswith("failed_frac ") for line in stdout.splitlines())
    stamp = json.loads(stdout.splitlines()[-2])["stamp"]
    assert {"python", "numpy", "cpu_model", "nproc", "threads", "git_sha"} <= set(stamp["environment"])


def test_traced_counts_repeat_exactly(outputs):
    first, _ = result_of(outputs, "decide-corpus", 1)
    done = bench("decide-corpus", 1)
    assert done.returncode == 0, done.stderr
    second = json.loads(done.stdout.splitlines()[-1])
    counts = [name for name in first["metrics"] if name.endswith(COUNT_SUFFIXES)]
    assert counts
    assert all(first["metrics"][n]["value"] == second["metrics"][n]["value"] for n in counts)


def test_traced_time_lands_on_the_expected_layers(outputs):
    decide, _ = result_of(outputs, "decide-corpus", 1)
    value = {name: metric["value"] for name, metric in decide["metrics"].items()}
    assert value["qsim.permutation_unitary_from_circuit.busy_s"] >= 0.85 * value["solver.decide_sd.busy_s"]
    gap, _ = result_of(outputs, "lwe-gap", 1)
    value = {name: metric["value"] for name, metric in gap["metrics"].items()}
    assert all(value[n] == 0 for n in value if n.startswith(("circuits.", "qsim.")) and n.endswith(".calls"))
    assert value["lwe.dist_to_lattice.busy_s"] >= 0.9 * value["op.busy_s"]


def _results(name: str, tmp_path: Path):
    workload = run.load_workload(name)
    inputs = workload.setup(run.HELD_OUT_SEED, "smoke", tmp_path)
    items = inputs.trace_pass[:2]
    return workload, inputs, [(item, workload.run(inputs, item)) for item in items]


def test_perturbed_lwe_distance_counts_as_failed(tmp_path):
    workload, inputs, results = _results("lwe-gap", tmp_path)
    assert run.count_failures(workload, inputs, results, None)[0] == 0
    item, record = results[0]
    wrong = {**record, "dist_sq": record["dist_sq"] + 1}
    failed, messages = run.count_failures(workload, inputs, [(item, wrong)], None)
    assert failed == 1 and any("brute force" in m for m in messages)


def test_perturbed_decision_counts_as_failed(tmp_path):
    workload, inputs, results = _results("decide-corpus", tmp_path)
    item, record = results[0]
    attempts = [list(log) for log in record["oracle_attempts"]]
    attempts[0][0] += 1
    reference = {str(item): record}
    assert run.count_failures(workload, inputs, [(item, record)], reference)[0] == 0
    perturbed = [
        {**record, "oracle_attempts": attempts},
        {**record, "verdict": "NO" if record["verdict"] == "YES" else "YES"},
        {**record, "exact_overlap": record["exact_overlap"] + 1e-6},
    ]
    for wrong in perturbed:
        assert run.count_failures(workload, inputs, [(item, wrong)], reference)[0] == 1


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_timed_loop_inputs_never_repeat(name, tmp_path):
    workload = run.load_workload(name)
    inputs = workload.setup(run.HELD_OUT_SEED, "smoke", tmp_path)
    items = [inputs.item_at(i) for i in range(60)]
    assert len(set(items)) == len(items)
    assert [inputs.item_at(i) for i in range(60)] == items


def test_reference_floats_compare_to_the_stated_tolerance():
    assert run.differences({"x": 1.0, "n": 3}, {"x": 1.0 + 1e-12, "n": 3}) == []
    assert run.differences({"x": 1.0}, {"x": 1.0 + 1e-6})
    assert run.differences({"n": 3}, {"n": 4})
    assert run.differences({"n": True}, {"n": 1})


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("lwe-gap", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
