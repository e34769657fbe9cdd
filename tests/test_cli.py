import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from helpers import constant_circuit, edited, identity_circuit
from hypothesis import given, settings
from hypothesis import strategies as st

from oilab import cli, config
from oilab.circuits import BoolCircuit, Gate, SdInstance, random_circuit
from oilab.cli import build_parser, main
from oilab.corpus import build_sd_corpus, polarize_corpus
from oilab.invseq import InvertibleSequence, InvPair, SisdInstance, reduce_sd_to_sisd
from oilab.jsonio import fraction_to_string, write_json
from oilab.solver import SolverConfig, decide_sd


@pytest.fixture
def sd_files(tmp_path):
    ident = identity_circuit(2)
    yes = SdInstance(ident, ident, "0.1", "0.9")
    no = SdInstance(constant_circuit(2, "0"), constant_circuit(2, "1"), "0.1", "0.9")
    yes_path = tmp_path / "yes.json"
    no_path = tmp_path / "no.json"
    write_json(str(yes_path), yes.to_json_dict())
    write_json(str(no_path), no.to_json_dict())
    return yes_path, no_path


def run(capsys, argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr()


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, as a strict JSON parser does."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def small_gapcvp() -> dict:
    """A one-dimensional GapCVP file: lattice {(s, 2s) mod 5}, target (1, 2)."""
    return {"n": 1, "q": 5, "m": 2, "A": [[1], [2]], "b": [1, 2], "d": 1.0, "gamma": 1.0}


def small_lwe() -> dict:
    """An LWE file with the lattice of small_gapcvp."""
    return {"n": 1, "q": 5, "m": 2, "alpha": 0.1, "A": [[1], [2]], "b": [1, 2], "origin": "lwe"}


def small_query() -> dict:
    """An oracle query file: a dense X and a permutation-table X on |0>."""
    return {
        "lambda": 10,
        "psi": [[1.0, 0.0], [0.0, 0.0]],
        "unitaries": [
            {"kind": "dense", "n": 1, "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
            {"kind": "permutation", "n": 1, "table": [1, 0]},
        ],
    }


class TestDecide:
    def test_yes_instance_exits_zero(self, sd_files, capsys):
        yes_path, _ = sd_files
        code, output = run(
            capsys,
            ["decide", "sd", "--instance", yes_path, "--seed", 3, "--trials", 5, "--shots", 256],
        )
        assert code == 0
        report = json.loads(output.out)
        assert report["verdict"] == "YES"
        assert report["seed"] == 3 and report["version"]
        assert "config_hash" in report

    def test_no_instance_exits_one(self, sd_files, capsys):
        _, no_path = sd_files
        code, output = run(
            capsys,
            ["decide", "sd", "--instance", no_path, "--seed", 3, "--trials", 5, "--shots", 256],
        )
        assert code == 1
        assert json.loads(output.out)["verdict"] == "NO"

    @pytest.mark.parametrize(
        "flag, field", [("--lambda", "lam"), ("--shots", "swap_shots"), ("--trials", "trial_count"),
                        ("--retry-budget", "retry_budget")],
    )
    @pytest.mark.parametrize("value", [0, -2])
    def test_each_count_names_its_field(self, flag, field, value, sd_files, capsys):
        yes_path, _ = sd_files
        code, output = run(capsys, ["decide", "sd", "--instance", yes_path, f"{flag}={value}"])
        assert code == 2 and output.out == ""
        assert output.err == f"error: {field} must be >= 1, got {value}\n"

    def test_gap_violation_without_polarize_flag(self, tmp_path, capsys):
        inst = SdInstance(identity_circuit(2), identity_circuit(2), "1/3", "2/3")
        path = tmp_path / "thirds.json"
        write_json(str(path), inst.to_json_dict())
        code, output = run(capsys, ["decide", "sd", "--instance", path])
        assert code == 2
        assert "polarize" in output.err

    def test_reports_reproduce_bytewise(self, sd_files, capsys):
        yes_path, _ = sd_files
        argv = ["decide", "sd", "--instance", yes_path, "--seed", 5, "--trials", 3, "--shots", 128]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first.out == second.out

    def test_decide_sisd_roundtrip(self, sd_files, tmp_path, capsys):
        yes_path, _ = sd_files
        sisd_path = tmp_path / "seq.json"
        code, _ = run(
            capsys, ["reduce", "sd-to-sisd", "--instance", yes_path, "--out", sisd_path]
        )
        assert code == 0
        code, output = run(
            capsys,
            ["decide", "sisd", "--instance", sisd_path, "--trials", 3, "--shots", 128],
        )
        assert code == 0
        assert json.loads(output.out)["verdict"] == "YES"

    def test_oracle_cap_on_a_sisd_file_is_an_error(self, tmp_path, capsys):
        # a step of four random bits is 16 unitaries, refused before any is built
        circuit = BoolCircuit(5, (Gate("XOR", (0, 1)),), (5,))
        seq = InvertibleSequence((InvPair(circuit, circuit),), 1)
        path = tmp_path / "wide.json"
        write_json(str(path), SisdInstance(seq, seq, 0, 1).to_json_dict())
        code, output = run(capsys, ["decide", "sisd", "--instance", path])
        assert code == 2 and output.out == ""
        assert output.err == "error: 16 unitaries means 16 choices; cap is 8\n"

    def test_cap_bits_flag_rejected(self, sd_files, tmp_path, capsys):
        # a flag a command never reads is an argparse error, not a silent no-op
        yes_path, _ = sd_files
        out = str(tmp_path / "out.json")
        for argv, flag in [
            (["decide", "sd", "--instance", str(yes_path), "--cap-bits", "20"], "--cap-bits"),
            (["decide", "sisd", "--instance", str(yes_path), "--tau", "0.5"], "--tau"),
            (["reduce", "sd-to-sisd", "--instance", str(yes_path), "--out", out, "--seed", "5"], "--seed"),
            (["polarize", "--instance", str(yes_path), "--out", out, "--k", "2", "--xor-reps", "2",
              "--product-reps", "2", "--seed", "5"], "--seed"),
            (["lwe", "to-gapcvp", "--instance", str(yes_path), "--gamma", "3", "--out", out,
              "--seed", "5"], "--seed"),
            # neither command draws randomness
            (["circuit", "stats", "--instance", str(yes_path), "--seed", "5"], "--seed"),
            (["lwe", "dist", "--instance", str(yes_path), "--seed", "5"], "--seed"),
            # lambda comes from the query file alone
            (["oracle", "oi", "--query", str(yes_path), "--lambda", "100"], "--lambda"),
            (["oracle", "ci", "--query", str(yes_path), "--lambda", "100"], "--lambda"),
        ]:
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestReduce:
    def test_writes_expected_shape(self, sd_files, tmp_path, capsys):
        yes_path, _ = sd_files
        out = tmp_path / "red.json"
        code, output = run(capsys, ["reduce", "sd-to-sisd", "--instance", yes_path, "--out", out])
        assert code == 0
        summary = json.loads(output.out)
        assert summary["length"] == 2 * 2 + 1
        assert summary["state_width"] == 4
        assert summary["max_randomness"] == 1
        blob = json.loads(out.read_text())
        assert len(blob["seq0"]["pairs"]) == 5

    def test_reduction_output_validates(self, sd_files, tmp_path, capsys):
        yes_path, _ = sd_files
        out = tmp_path / "red.json"
        run(capsys, ["reduce", "sd-to-sisd", "--instance", yes_path, "--out", out])
        code, output = run(capsys, ["validate", "--instance", out])
        assert code == 0
        assert json.loads(output.out)["ok"] is True

    def test_malformed_input_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"c0": {"k_in": 2}}')
        code, output = run(capsys, ["reduce", "sd-to-sisd", "--instance", bad, "--out", tmp_path / "x.json"])
        assert code == 2
        assert "k_out" in output.err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("in", [0, 0.5]),
            ("outputs", [2.0]),
            ("k_in", 2.0),
            ("in", [0, True]),
            ("outputs", [True]),
        ],
        ids=["float-gate-input", "float-output", "float-width", "bool-gate-input", "bool-output"],
    )
    def test_non_int_wire_or_width_is_a_parse_error(self, field, value, tmp_path, capsys):
        # a float crashed with a TypeError (exit 1 reads as NO); true read as wire 1
        circuit = BoolCircuit(2, (Gate("AND", (0, 1)),), (2,)).to_json_dict()
        if field == "in":
            circuit["gates"][0]["in"] = value
        else:
            circuit[field] = value
        stats_path, sd_path = tmp_path / "circuit.json", tmp_path / "sd.json"
        write_json(str(stats_path), circuit)
        write_json(str(sd_path), {"c0": circuit, "c1": circuit, "a": "0.1", "b": "0.9"})
        for argv in (
            ["circuit", "stats", "--instance", stats_path],
            ["reduce", "sd-to-sisd", "--instance", sd_path, "--out", tmp_path / "x.json"],
        ):
            code, output = run(capsys, argv)
            assert code == 2
            assert output.err.startswith("error:") and "must be an int" in output.err

    @pytest.mark.parametrize(
        "field, value",
        [("r", 1.0), ("k", 4.0), ("r", True)],
        ids=["float-r", "float-k", "bool-r"],
    )
    def test_non_int_sequence_field_is_a_parse_error(self, field, value, sd_files, tmp_path, capsys):
        # a float crashed validate with a TypeError (exit 1 reads as NO); true ran as r = 1
        yes_path, _ = sd_files
        sisd_path = tmp_path / "seq.json"
        run(capsys, ["reduce", "sd-to-sisd", "--instance", yes_path, "--out", sisd_path])
        sisd = json.loads(sisd_path.read_text())
        target = sisd["seq0"]["pairs"][0] if field == "r" else sisd["seq0"]
        target[field] = value
        write_json(str(sisd_path), sisd)
        for argv in (["validate", "--instance", sisd_path], ["decide", "sisd", "--instance", sisd_path]):
            code, output = run(capsys, argv)
            assert code == 2
            assert output.err.startswith("error: ill-typed field in sequence object")

    def test_invalid_json_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, output = run(capsys, ["reduce", "sd-to-sisd", "--instance", bad, "--out", tmp_path / "x.json"])
        assert code == 2
        assert "line" in output.err


class TestPolarize:
    def test_polarize_then_decide(self, tmp_path, capsys):
        c = random_circuit(2, 1, 4, seed=71)
        inst = SdInstance(c, c, "1/3", "2/3")
        raw = tmp_path / "raw.json"
        write_json(str(raw), inst.to_json_dict())
        out = tmp_path / "polarized.json"
        code, output = run(
            capsys,
            ["polarize", "--instance", raw, "--k", 2, "--xor-reps", 2, "--product-reps", 2, "--out", out],
        )
        assert code == 0
        summary = json.loads(output.out)
        assert (summary["a"], summary["b"]) == ("0.25", "0.75")
        code, output = run(
            capsys, ["decide", "sd", "--instance", out, "--trials", 3, "--shots", 256]
        )
        assert code == 0

    @pytest.mark.parametrize("missing", ["--k", "--xor-reps", "--product-reps"])
    def test_repetition_counts_are_required(self, missing, sd_files, tmp_path, capsys):
        # no default fits under the qubit cap, so the caller names all three
        yes_path, _ = sd_files
        flags = {"--k": "2", "--xor-reps": "2", "--product-reps": "2"}
        del flags[missing]
        argv = ["polarize", "--instance", str(yes_path), "--out", str(tmp_path / "out.json")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [part for item in flags.items() for part in item])
        assert exit_info.value.code == 2
        assert f"required: {missing}" in capsys.readouterr().err

    def test_product_reps_zero_is_an_error(self, sd_files, tmp_path, capsys):
        yes_path, _ = sd_files
        out = tmp_path / "out.json"
        code, output = run(
            capsys,
            ["polarize", "--instance", yes_path, "--out", out, "--k", 2, "--xor-reps", 2,
             "--product-reps", 0],
        )
        assert code == 2
        assert output.err.startswith("error:")
        assert not out.exists()


class TestCircuitStats:
    def test_stats_payload(self, tmp_path, capsys):
        path = tmp_path / "circ.json"
        write_json(str(path), random_circuit(3, 2, 6, seed=72).to_json_dict())
        code, output = run(capsys, ["circuit", "stats", "--instance", path])
        assert code == 0
        stats = json.loads(output.out)
        assert stats["k_in"] == 3 and stats["k_out"] == 2
        assert stats["gate_count"] == 6
        assert "distribution" in stats

    def test_cap_bits_flag_disables_enumeration(self, tmp_path, capsys):
        path = tmp_path / "circ.json"
        write_json(str(path), random_circuit(3, 2, 6, seed=72).to_json_dict())
        code, output = run(capsys, ["circuit", "stats", "--instance", path, "--cap-bits", 2])
        assert code == 0
        assert "distribution" not in json.loads(output.out)

    @pytest.mark.parametrize("k_out", [64, 65])
    def test_outputs_wider_than_63_bits_are_an_error(self, k_out, tmp_path, capsys):
        # output 0 is the input bit, the others a constant 0: two outcomes at 1/2
        # each, which a 64-bit packed value cannot tell apart
        wide = BoolCircuit(1, (Gate("CONST0", ()),), (0,) + (1,) * (k_out - 1))
        path = tmp_path / "wide.json"
        write_json(str(path), wide.to_json_dict())
        code, output = run(capsys, ["circuit", "stats", "--instance", path])
        assert code == 2
        assert output.err.startswith("error:") and "at most 63" in output.err

    @pytest.mark.parametrize("flag", ["0", "-3"], ids=["flag-zero", "flag-negative"])
    def test_bad_budget_is_an_error(self, flag, tmp_path, capsys):
        circuit, cvp = tmp_path / "circ.json", tmp_path / "cvp.json"
        write_json(str(circuit), random_circuit(3, 2, 6, seed=72).to_json_dict())
        write_json(str(cvp), small_gapcvp())
        for argv in (["circuit", "stats", "--instance", circuit], ["lwe", "dist", "--instance", cvp]):
            code, output = run(capsys, argv + ["--cap-bits", flag])
            assert code == 2
            assert output.err.startswith("error: --cap-bits must be positive")


class TestOracle:
    @pytest.fixture
    def query_file(self, tmp_path):
        path = tmp_path / "query.json"
        write_json(
            str(path),
            {
                "lambda": 10,
                "psi": [[1.0, 0.0], [0.0, 0.0]],
                "unitaries": [
                    {"kind": "dense", "n": 1, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
                    {"kind": "dense", "n": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]},
                ],
            },
        )
        return path

    def test_oi_zero_interference(self, query_file, capsys):
        code, output = run(capsys, ["oracle", "oi", "--query", query_file, "--seed", 1])
        assert code == 0
        report = json.loads(output.out)
        assert report["success"] is False
        assert report["diagnostics"]["success_probability"] == 0.0
        assert report["state"] is None

    def test_ci_reports_probability(self, query_file, capsys):
        code, output = run(capsys, ["oracle", "ci", "--query", query_file, "--seed", 1])
        assert code == 0
        report = json.loads(output.out)
        assert report["diagnostics"]["success_probability"] == pytest.approx(0.87610, abs=5e-6)

    @pytest.mark.parametrize("lam", [2.7, True, "10"], ids=["float", "bool", "string"])
    def test_non_integer_lambda_is_an_error(self, lam, query_file, capsys):
        query = json.loads(query_file.read_text())
        write_json(str(query_file), {**query, "lambda": lam})
        for kind in ("oi", "ci"):
            code, output = run(capsys, ["oracle", kind, "--query", query_file])
            assert code == 2
            assert output.err.startswith("error:")

    def test_bool_qubit_count_is_a_parse_error(self, query_file, capsys):
        # "n": true ran as a one-qubit unitary
        query = json.loads(query_file.read_text())
        query["unitaries"][0]["n"] = True
        write_json(str(query_file), query)
        for kind in ("oi", "ci"):
            code, output = run(capsys, ["oracle", kind, "--query", query_file])
            assert code == 2
            assert output.err.startswith("error: ill-typed field in unitary object")


LAB_OUTPUT_SHA256 = "609a9783faf1d47749a35de21db1a8c673ec00c3fab4701f369ce9df85e2d5f9"


class TestLwe:
    def test_gen_to_gapcvp_dist_chain(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        code, _ = run(
            capsys,
            ["lwe", "gen", "--n", 2, "--q", 101, "--m", 8, "--alpha", 0.0001, "--seed", 9, "--out", inst],
        )
        assert code == 0
        cvp = tmp_path / "cvp.json"
        code, _ = run(capsys, ["lwe", "to-gapcvp", "--instance", inst, "--gamma", 3, "--out", cvp])
        assert code == 0
        code, output = run(capsys, ["lwe", "dist", "--instance", cvp])
        assert code == 0
        report = json.loads(output.out)
        assert report["dist"] == 0.0
        assert report["within_d"] is True

    def test_gen_reproducible_files(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            run(
                capsys,
                ["lwe", "gen", "--n", 2, "--q", 101, "--m", 8, "--alpha", 0.02, "--seed", 4, "--out", path],
            )
        assert paths[0].read_text() == paths[1].read_text()

    def test_experiment_outputs(self, tmp_path, capsys):
        prefix = tmp_path / "exp"
        code, output = run(
            capsys,
            ["lwe", "experiment", "--n", 2, "--q", 101, "--m", 8, "--alpha", 0.02,
             "--trials", 5, "--seed", 4, "--out-prefix", prefix],
        )
        assert code == 0
        summary = json.loads(output.out)
        for key in ("yes_rate", "uniform_beyond_rate", "calibrated_factor", "asymptotic_gamma",
                    "lwe_median", "uniform_median", "seed", "config_hash"):
            assert key in summary
        csv_lines = (tmp_path / "exp.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "trial,origin,dist,d,verdict"
        assert len(csv_lines) == 11
        assert json.loads((tmp_path / "exp.json").read_text())["trials"] == 5

    def test_an_error_width_past_the_support_cap_is_an_error(self, tmp_path, capsys):
        # alpha * q = 2^39: ten widths each side would be 80 TiB of support
        argv = ["lwe", "gen", "--n", 1, "--q", 2 ** 40, "--m", 1, "--alpha", 0.5, "--out", tmp_path / "x.json"]
        code, output = run(capsys, argv)
        assert code == 2 and output.out == ""
        assert output.err.startswith("error: error width 5.49756e+11 needs 10995116277761 support points")

    @pytest.mark.parametrize("cap_bits", [10], ids=["flag"])
    def test_cap_bits_bounds_cvp_candidates(self, cap_bits, tmp_path, capsys):
        inst, cvp = tmp_path / "inst.json", tmp_path / "cvp.json"
        run(capsys, ["lwe", "gen", "--n", 2, "--q", 101, "--m", 8, "--alpha", 0.02, "--out", inst])
        run(capsys, ["lwe", "to-gapcvp", "--instance", inst, "--gamma", 3, "--out", cvp])
        argv = ["lwe", "dist", "--instance", cvp, "--cap-bits", cap_bits]
        code, output = run(capsys, argv)  # q^n = 10,201 candidates > 2^10
        assert code == 2
        assert f"exceeds cap {1 << cap_bits}" in output.err

    @pytest.mark.parametrize("q", ["101", 101.5, 0, 1, True], ids=["string", "float", "zero", "one", "bool"])
    def test_bad_modulus_is_an_error(self, q, tmp_path, capsys):
        cvp = tmp_path / "cvp.json"
        write_json(str(cvp), {**small_gapcvp(), "q": q})
        code, output = run(capsys, ["lwe", "dist", "--instance", cvp])
        assert code == 2
        assert output.err.startswith("error:")

    @pytest.mark.parametrize("field", ["d", "gamma"])
    def test_bool_distance_or_gamma_is_an_error(self, field, tmp_path, capsys):
        # a JSON true ran as 1 and was echoed back in the report
        cvp = tmp_path / "cvp.json"
        write_json(str(cvp), {**small_gapcvp(), field: True})
        code, output = run(capsys, ["lwe", "dist", "--instance", cvp])
        assert code == 2
        assert output.err.startswith(f"error: {field} must be a real number")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 2.0),
            ("m", 8.0),
            # A is 8x2 and b has 8 entries; each row spoils the first entry.
            # Past int64 exited 1 with an OverflowError; 1.5, true and "3"
            # ran as 1, 1 and 3.
            *[("A", [[bad, 0]] + [[0, 0]] * 7) for bad in (10 ** 30, 1.5, True, "3")],
            ("A", [[0, 0]] * 7 + [[0]]),
            *[("b", [bad] + [0] * 7) for bad in (10 ** 30, 1.5, True, "3")],
            ("b", [[0]] + [0] * 7),
        ],
        ids=["float-n", "float-m", "huge-A", "float-A", "bool-A", "string-A", "ragged-A",
             "huge-b", "float-b", "bool-b", "string-b", "ragged-b"],
    )
    def test_non_int_lwe_parameter_is_a_parse_error(self, field, value, tmp_path, capsys):
        # a float dimension was accepted and carried into the GapCVP file
        inst = tmp_path / "inst.json"
        run(capsys, ["lwe", "gen", "--n", 2, "--q", 101, "--m", 8, "--alpha", 0.02, "--out", inst])
        write_json(str(inst), {**json.loads(inst.read_text()), field: value})
        argv = ["lwe", "to-gapcvp", "--instance", inst, "--gamma", 3, "--out", tmp_path / "cvp.json"]
        code, output = run(capsys, argv)
        assert code == 2 and output.out == ""
        assert output.err.startswith("error: ill-typed field in lwe instance")

    def test_huge_integer_distance_compares_exactly(self, tmp_path, capsys):
        # gamma * d overflowed a float: exit 1, which reads as NO
        cvp = tmp_path / "cvp.json"
        write_json(str(cvp), {**small_gapcvp(), "b": [2, 2], "d": 10 ** 400, "gamma": 2.0})
        code, output = run(capsys, ["lwe", "dist", "--instance", cvp])
        assert code == 0
        report = strict_json(output.out)
        assert report["dist"] == 1.0 and report["d"] == 10 ** 400
        assert report["within_d"] is True and report["beyond_gamma_d"] is False

    def test_distance_comparisons_are_exact_at_the_boundary(self, tmp_path, capsys):
        # dist = 1, d = 1/2, gamma = 2: dist equals gamma * d, so not beyond it
        cvp = tmp_path / "cvp.json"
        write_json(str(cvp), {**small_gapcvp(), "b": [2, 2], "d": 0.5, "gamma": 2})
        code, output = run(capsys, ["lwe", "dist", "--instance", cvp])
        assert code == 0
        report = strict_json(output.out)
        assert report["within_d"] is False and report["beyond_gamma_d"] is False

    @pytest.mark.parametrize(
        "field, token",
        [("gamma", "Infinity"), ("gamma", "-Infinity"), ("d", "NaN"), ("d", "1e400")],
    )
    def test_non_finite_distance_or_gamma_is_a_parse_error(self, field, token, tmp_path, capsys):
        # "gamma": Infinity ran, and the report echoed the non-JSON token
        cvp = tmp_path / "cvp.json"
        cvp.write_text(json.dumps({**small_gapcvp(), field: "@"}).replace('"@"', token))
        code, output = run(capsys, ["lwe", "dist", "--instance", cvp])
        assert code == 2 and output.out == ""
        assert output.err.startswith(f"error: {cvp}: ")

    def test_one_dimensional_experiment_reports_null_gamma(self, capsys):
        # the asymptotic factor is undefined at n = 1 and was printed as NaN
        code, output = run(
            capsys,
            ["lwe", "experiment", "--n", 1, "--q", 11, "--m", 2, "--alpha", 0.02, "--trials", 2],
        )
        assert code == 0
        assert strict_json(output.out)["asymptotic_gamma"] is None

    def test_lab_output_bytes_are_pinned(self, tmp_path, monkeypatch, capsys):
        # one SHA-256 over every command's stdout and every file it writes;
        # paths are relative because the instance path enters config_hash
        monkeypatch.chdir(tmp_path)
        params = ["--n", 2, "--q", 101, "--m", 8, "--alpha", 0.02]
        steps = [
            (["lwe", "gen", *params, "--seed", 3, "--out", "lwe.json"], ["lwe.json"]),
            (["lwe", "gen", *params, "--seed", 3, "--uniform", "--out", "uni.json"], ["uni.json"]),
            (["lwe", "to-gapcvp", "--instance", "lwe.json", "--gamma", 3, "--out", "cvp.json"],
             ["cvp.json"]),
            (["lwe", "dist", "--instance", "cvp.json"], []),
            (["lwe", "experiment", *params, "--trials", 4, "--seed", 5, "--out-prefix", "exp2"],
             ["exp2.json", "exp2.csv"]),
            (["lwe", "experiment", "--n", 1, "--q", 11, "--m", 2, "--alpha", 0.02, "--trials", 3,
              "--out-prefix", "exp1"], ["exp1.json", "exp1.csv"]),
        ]
        digest = hashlib.sha256()
        for argv, written in steps:
            code, output = run(capsys, argv)
            assert code == 0, output.err
            digest.update(output.out.encode())
            for name in written:
                digest.update((tmp_path / name).read_bytes())
        assert digest.hexdigest() == LAB_OUTPUT_SHA256

    @pytest.mark.parametrize("trials", [0, -5])
    def test_experiment_needs_a_trial(self, trials, capsys):
        # 0 trials divided by zero; negative counts warned and printed NaN rates
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, output = run(
                capsys,
                ["lwe", "experiment", "--n", 2, "--q", 11, "--m", 4, "--alpha", 0.02,
                 "--trials", trials],
            )
        assert code == 2 and output.out == ""
        assert output.err == f"error: trials must be >= 1, got {trials}\n"

    @pytest.mark.parametrize("factor", ["-1", "0"])
    def test_experiment_needs_a_positive_factor(self, factor, capsys):
        # a factor <= 0 counted every uniform target as beyond it
        code, output = run(
            capsys,
            ["lwe", "experiment", "--n", 2, "--q", 11, "--m", 4, "--alpha", 0.02, "--trials", 3,
             "--factor", factor],
        )
        assert code == 2 and output.out == ""
        assert output.err == f"error: factor must be > 0, got {float(factor)}\n"

    @pytest.mark.parametrize(
        "flag, value",
        [("--gamma", "inf"), ("--factor", "nan"), ("--alpha", "-inf"), ("--gamma", "three")],
    )
    def test_non_finite_float_option_is_a_usage_error(self, flag, value, capsys):
        argv = ["lwe", "experiment", "--n", "2", "--q", "11", "--m", "4", "--alpha", "0.02",
                "--trials", "2", f"{flag}={value}"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        output = capsys.readouterr()
        assert output.out == "" and f"argument {flag}: must be a finite number" in output.err

    def test_missing_file_is_error(self, capsys):
        code, output = run(capsys, ["lwe", "dist", "--instance", "/nonexistent.json"])
        assert code == 2
        assert output.err.startswith("error:")


class TestDecideCorpus:
    def test_rows_are_the_library_decisions(self, tmp_path, capsys):
        out = tmp_path / "corpus.json"
        argv = ["decide", "corpus", "--instances", 4, "--seed", 2026, "--out", out]
        code, first = run(capsys, argv)
        assert code == 0
        _, second = run(capsys, argv)
        assert first.out == second.out == out.read_text()
        report = json.loads(first.out)
        assert report["command"] == "decide corpus" and report["seed"] == 2026
        cfg = SolverConfig(seed=2026)
        corpus = polarize_corpus(build_sd_corpus(4, 2026))
        assert report["rows"] == [
            {
                "index": index,
                "raw_delta": fraction_to_string(item.delta),
                "label": item.label,
                "verdict": decision.verdict,
                "estimate": decision.estimate,
            }
            for index, item in enumerate(corpus)
            for decision in [decide_sd(item.instance, cfg)]
        ]
        correct = sum(row["verdict"] == row["label"] for row in report["rows"])
        assert (report["instances"], report["correct"]) == (4, correct)
        assert report["accuracy"] == correct / 4

    def test_report_does_not_depend_on_out(self, tmp_path, capsys):
        argv = ["decide", "corpus", "--instances", 2, "--seed", 1]
        _, printed = run(capsys, argv)
        _, written = run(capsys, argv + ["--out", tmp_path / "x.json"])
        assert printed.out == written.out

    @pytest.mark.parametrize("count", [0, -3])
    def test_empty_corpus_is_an_error(self, count, capsys):
        code, output = run(capsys, ["decide", "corpus", "--instances", count])
        assert code == 2
        assert output.err.startswith("error:")


def test_out_flag_writes_report(sd_files, tmp_path, capsys):
    yes_path, _ = sd_files
    report_path = tmp_path / "report.json"
    code, output = run(
        capsys,
        ["decide", "sd", "--instance", yes_path, "--trials", 3, "--shots", 128, "--out", report_path],
    )
    assert code == 0
    assert report_path.read_text() == output.out


def test_parser_defaults_are_the_library_defaults():
    # the parsed values are hashed into config_hash, so a default that drifts
    # from the library's would move every report's hash silently
    parser = build_parser()
    for sub in ("sd", "sisd"):
        args = parser.parse_args(["decide", sub, "--instance", "x.json"])
        flags = SolverConfig(
            lam=args.lam, retry_budget=args.retry_budget, swap_shots=args.shots,
            trial_count=args.trials, seed=args.seed,
        )
        assert flags == SolverConfig()
    args = parser.parse_args(["lwe", "experiment", "--n", "2", "--q", "11", "--m", "4", "--alpha", "0.02"])
    assert args.factor == config.CALIBRATED_FACTOR


SRC = str(Path(cli.__file__).resolve().parent.parent)
DEFERRED_MODULES = {"oilab.invseq", "oilab.qsim", "oilab.solver", "oilab.corpus", "oilab.lwe"}


def fresh_run(*argv) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh interpreter, with this checkout's oilab."""
    env = {**os.environ, "PYTHONPATH": SRC}
    command = [sys.executable, *map(str, argv)]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)


class TestDeferredImports:
    """The CLI imports the modules only some commands run on first use."""

    LOADED = (
        "import json, sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('oilab.'))\n"
        "from oilab import cli\n"
        "at_import = loaded()\n"
        "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(json.dumps([code, at_import, loaded()]))\n"
    )

    @pytest.fixture
    def inputs(self, sd_files, tmp_path):
        yes_path, _ = sd_files
        paths = {
            "circuit": tmp_path / "circuit.json",
            "sisd": tmp_path / "sisd.json",
            "cvp": tmp_path / "cvp.json",
        }
        write_json(str(paths["circuit"]), random_circuit(3, 2, 6, seed=72).to_json_dict())
        yes = SdInstance.from_json_dict(json.loads(yes_path.read_text()))
        write_json(str(paths["sisd"]), reduce_sd_to_sisd(yes).to_json_dict())
        write_json(str(paths["cvp"]), small_gapcvp())
        return {**paths, "sd": yes_path}

    @pytest.mark.parametrize(
        "argv, added",
        [
            ([], set()),
            (["circuit", "stats", "--instance", "{circuit}"], set()),
            (["validate", "--instance", "{sisd}"], {"oilab.invseq"}),
            (["decide", "sd", "--instance", "{sd}", "--trials", "3", "--shots", "128"],
             {"oilab.invseq", "oilab.qsim", "oilab.solver"}),
            (["lwe", "dist", "--instance", "{cvp}"], {"oilab.lwe"}),
        ],
        ids=["import", "circuit-stats", "validate", "decide-sd", "lwe-dist"],
    )
    def test_a_command_loads_only_what_it_runs(self, argv, added, inputs):
        argv = [arg.format(**inputs) for arg in argv]
        done = fresh_run("-c", self.LOADED, *argv)
        assert done.returncode == 0, done.stderr
        code, at_import, after = json.loads(done.stdout.splitlines()[-1])
        assert code == 0
        assert not DEFERRED_MODULES & set(at_import)
        assert set(after) - set(at_import) == added

    def test_the_lwe_lab_loads_only_its_own_chain(self):
        # a fresh process importing oilab.lwe is the lwe-gap benchmark's setup:
        # a module added to this chain costs every such process its import
        code = "import sys, oilab.lwe\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'oilab'))\n"
        done = fresh_run("-c", code)
        assert done.returncode == 0, done.stderr
        chain = ["oilab", "oilab.config", "oilab.errors", "oilab.jsonio", "oilab.lwe", "oilab.seeding"]
        assert done.stdout == f"{chain}\n"

    def test_a_loaded_module_is_bound_at_import(self):
        # as `from .solver import decide_sd` did: a probe installed on the home
        # module after the import must not reach the CLI's name, or it would
        # wrap the probe again and be left behind when the probes are removed
        code = (
            "from oilab import solver\n"
            "real = solver.decide_sd\n"
            "from oilab import cli\n"
            "solver.decide_sd = None\n"
            "print(cli.decide_sd is real)\n"
        )
        done = fresh_run("-c", code)
        assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")

    def test_every_deferred_name_is_its_home_modules_object(self):
        for name, module in cli._DEFERRED.items():
            assert getattr(cli, name) is getattr(importlib.import_module(f"oilab.{module}"), name)
        with pytest.raises(AttributeError, match="no attribute 'nothing'"):
            cli.nothing

    def test_a_patched_name_sees_the_call(self, inputs, monkeypatch, capsys):
        calls = []

        def spy(name):
            real = getattr(cli, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("decide_sd", "validate_sequence"):
            monkeypatch.setattr(cli, name, spy(name))
        run(capsys, ["decide", "sd", "--instance", inputs["sd"], "--trials", 3, "--shots", 128])
        run(capsys, ["validate", "--instance", inputs["sisd"]])
        assert calls == ["decide_sd", "validate_sequence", "validate_sequence"]

    def test_run_as_a_module_prints_the_same_report(self, inputs, capsys):
        argv = ["validate", "--instance", inputs["sisd"], "--seed", 4]
        code, output = run(capsys, argv)
        done = fresh_run("-m", "oilab.cli", *argv)
        assert (done.returncode, done.stdout, done.stderr) == (code, output.out, "")


def test_readme_commands_parse():
    # every `oilab ...` line of README.md's bash blocks uses only options
    # the parser has, so the documented commands cannot drift from it
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```bash\n(.*?)^```", readme, flags=re.M | re.S)
    commands = [line for block in blocks for line in block.splitlines() if line.startswith("oilab ")]
    assert len(commands) >= 15  # every bash block was read
    for line in commands:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


DECIDE_SD = ("decide", "sd", "--instance")
LWE_DIST = ("lwe", "dist", "--instance")
ORACLE_CI = ("oracle", "ci", "--query")
LWE_TO_GAPCVP = ("lwe", "to-gapcvp", "--gamma", "3", "--out", "@out", "--instance")


@pytest.mark.parametrize(
    "command, content, field",
    [
        pytest.param(DECIDE_SD, "5", None, id="top-level-number"),
        pytest.param(
            DECIDE_SD,
            '{"c0": {"k_in": "2", "k_out": 1, "gates": [], "outputs": [0]}, '
            '"c1": {"k_in": 2, "k_out": 1, "gates": [], "outputs": [0]}, "a": "0.1", "b": "0.9"}', None,
            id="string-width",
        ),
        pytest.param(
            DECIDE_SD,
            '{"c0": {"k_in": 2, "k_out": 1, "gates": [{"kind": "NOT", "in": 5, "out": 2}], "outputs": [2]}, '
            '"c1": {"k_in": 2, "k_out": 1, "gates": [], "outputs": [0]}, "a": "0.1", "b": "0.9"}', None,
            id="gate-inputs-number",
        ),
        # a directory where the instance file belongs
        pytest.param(DECIDE_SD, None, None, id="directory"),
        # a JSON true was read as the probability 1 and decided
        pytest.param(
            DECIDE_SD,
            '{"c0": {"k_in": 2, "k_out": 1, "gates": [{"kind": "CONST0", "in": [], "out": 2}], "outputs": [2]}, '
            '"c1": {"k_in": 2, "k_out": 1, "gates": [{"kind": "CONST1", "in": [], "out": 2}], "outputs": [2]}, '
            '"a": "0.1", "b": true}', None,
            id="bool-bound",
        ),
        # A and b entries past int64 exited 1 with an OverflowError; 1.5, true
        # and "3" ran as 1, 1 and 3
        *[
            pytest.param(LWE_DIST, json.dumps(edited(small_gapcvp(), path, bad)), None, id=f"gapcvp-{name}-{field}")
            for field, path in (("A", ("A", 0, 0)), ("b", ("b", 0)))
            for name, bad in (("huge", 10 ** 30), ("float", 1.5), ("bool", True), ("string", "3"))
        ],
        pytest.param(LWE_DIST, json.dumps({**small_gapcvp(), "A": [[1, 1], [2]]}), None, id="gapcvp-ragged-A"),
        pytest.param(LWE_DIST, json.dumps({**small_gapcvp(), "b": [[1], 2]}), None, id="gapcvp-ragged-b"),
        # n and m were never read, so they could disagree with A
        *[
            pytest.param(LWE_DIST, json.dumps({**small_gapcvp(), **shape}), None, id=f"gapcvp-{name}")
            for name, shape in (("n-m", {"n": 7, "m": 9}), ("n", {"n": 2}), ("m", {"m": 3}))
        ],
        # tables of floats and bools ran as their int casts; past int64 exited 1
        *[
            pytest.param(ORACLE_CI, json.dumps(edited(small_query(), ("unitaries", 1, "table"), table)), None,
                         id=f"table-{name}")
            for name, table in (("float", [1.7, 0]), ("bool", [True, False]), ("huge", [10 ** 30, 0]))
        ],
        # an int too large for float or shift arithmetic raised OverflowError, exit 1
        pytest.param(ORACLE_CI, json.dumps({**small_query(), "lambda": 10 ** 400}), "lambda", id="lambda-huge"),
        pytest.param(ORACLE_CI, json.dumps(edited(small_query(), ("unitaries", 1, "n"), 10 ** 400)), "n",
                     id="qubits-huge"),
        # a true amplitude or matrix entry ran as 1
        *[
            pytest.param(ORACLE_CI, json.dumps(edited(small_query(), path, bad)), None, id=f"{where}-{name}")
            for where, path in (("amplitude", ("psi", 0, 0)), ("matrix", ("unitaries", 0, "matrix", 0, 1, 0)))
            for name, bad in (("bool", True), ("string", "1"))
        ],
        # an out-of-range value failed in arithmetic with an error naming no field
        pytest.param(ORACLE_CI, json.dumps({**small_query(), "psi": []}), "psi", id="psi-empty"),
        pytest.param(ORACLE_CI, json.dumps(edited(small_query(), ("unitaries", 1, "n"), -1)), "n",
                     id="qubits-negative"),
        pytest.param(LWE_TO_GAPCVP, json.dumps({**small_lwe(), "q": 10 ** 400}), "q", id="lwe-q-huge"),
    ],
)
def test_malformed_instance_is_an_error_not_a_no(command, content, field, tmp_path, capsys):
    path = tmp_path / "instance"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    argv = [tmp_path / "out.json" if a == "@out" else a for a in command]
    code, output = run(capsys, [*argv, path])
    assert code == 2 and output.out == ""
    assert output.err.startswith("error:")
    if field is not None:  # the error names the field as a word
        assert re.search(rf"\b{field}\b", output.err), output.err


def _sisd_files() -> dict:
    """name -> (a two-sequence instance file that breaks one check of
    SisdInstance, the check's message)."""
    narrow = reduce_sd_to_sisd(SdInstance(identity_circuit(1), identity_circuit(1), 0, 1)).to_json_dict()
    wide = reduce_sd_to_sisd(SdInstance(identity_circuit(2), identity_circuit(2), 0, 1)).to_json_dict()
    return {
        "unequal-widths": ({**narrow, "seq1": wide["seq1"]}, "sequences must share the state width"),
        "a-above-b": ({**narrow, "a": "0.9", "b": "0.1"}, "promise requires a <= b"),
    }


@pytest.mark.parametrize(
    "command, content, message",
    [
        *[
            pytest.param(("oracle", kind, "--query"), query, message, id=f"{kind}-{name}")
            for kind in ("oi", "ci")
            for name, query, message in (
                ("matrix-shape", edited(small_query(), ("unitaries", 0, "matrix"), [[[1, 0]] * 3] * 3),
                 "matrix must be 2x2"),
                ("no-unitaries", {**small_query(), "unitaries": []}, "need at least one unitary"),
                ("unitary-width", edited(small_query(), ("unitaries", 1), {"kind": "permutation", "n": 2,
                                                                           "table": [0, 1, 2, 3]}),
                 "all unitaries must act on the state's qubit count"),
                ("psi-norm", {**small_query(), "psi": [[1.0, 0.0], [1.0, 0.0]]}, "query state must be normalized"),
            )
        ],
        *[
            pytest.param(("decide", "sisd", "--instance"), sisd, message, id=f"sisd-{name}")
            for name, (sisd, message) in _sisd_files().items()
        ],
        # sequences with no pair to read a width from
        *[
            pytest.param(command, content, f"sequence k must be >= 1, got {k}", id=f"{name}-k{k}")
            for k in (-1, 0)
            for name, command, content in (
                ("sisd", ("decide", "sisd", "--instance"),
                 {"seq0": {"k": k, "pairs": []}, "seq1": {"k": k, "pairs": []}, "a": "0", "b": "1"}),
                ("sequence", ("validate", "--instance"), {"k": k, "pairs": []}),
            )
        ],
        pytest.param(LWE_DIST, {**small_gapcvp(), "d": 0.0}, "d must be positive, got 0.0", id="gapcvp-d"),
        pytest.param(LWE_DIST, {**small_gapcvp(), "gamma": 0.5}, "gamma must be >= 1, got 0.5", id="gapcvp-gamma"),
    ],
)
def test_file_that_breaks_an_input_check_names_it(command, content, message, tmp_path, capsys):
    path = tmp_path / "instance.json"
    write_json(str(path), content)
    code, output = run(capsys, [*command, path])
    assert (code, output.out, output.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flag, message", [("--k", "k must be >= 1"), ("--xor-reps", "reps must be >= 1")])
def test_polarize_count_of_zero_names_it(flag, message, tmp_path, capsys):
    inst = SdInstance(identity_circuit(2), constant_circuit(2, "00"), "1/3", "2/3")
    path, out = tmp_path / "sd.json", tmp_path / "out.json"
    write_json(str(path), inst.to_json_dict())
    counts = {"--k": 2, "--xor-reps": 2, "--product-reps": 2, flag: 0}
    code, output = run(capsys, ["polarize", "--instance", path, "--out", out, *itertools.chain(*counts.items())])
    assert (code, output.out, output.err) == (2, "", f"error: {message}\n")
    assert not out.exists()


def test_failed_write_leaves_no_temporary_file(sd_files, tmp_path, capsys):
    # --out names a directory: the rename onto it fails after the temporary file is written
    yes_path, _ = sd_files
    target = tmp_path / "taken"
    target.mkdir()
    code, output = run(capsys, ["reduce", "sd-to-sisd", "--instance", yes_path, "--out", target])
    assert code == 2 and output.err.startswith("error:") and "Is a directory" in output.err
    assert not list(tmp_path.glob(".oilab-*.tmp"))
    assert not any(target.iterdir())


# ---------------------------------------------------------------------------
# one valid file per kind the CLI reads, each mutated at one leaf

def _valid_files() -> dict:
    """kind -> (argv before the file path, a valid file); the reals are
    written as floats, so every int leaf is a field that must be an int."""
    and_circuit = BoolCircuit(2, (Gate("AND", (0, 1)),), (2,))
    circuit = and_circuit.to_json_dict()
    sd = SdInstance(and_circuit, constant_circuit(2, "0"), "0.1", "0.9")
    sisd = reduce_sd_to_sisd(sd).to_json_dict()
    lwe = small_lwe()
    decide = ["--trials", "2", "--shots", "64", "--instance"]
    return {
        "circuit": (["circuit", "stats", "--instance"], circuit),
        "sd": (["decide", "sd", *decide], sd.to_json_dict()),
        "sisd": (["decide", "sisd", *decide], sisd),
        "sequence": (["validate", "--instance"], sisd["seq0"]),
        "query": (["oracle", "ci", "--query"], small_query()),
        "lwe": (["lwe", "to-gapcvp", "--gamma", "3", "--out", "@out", "--instance"], lwe),
        "gapcvp": (["lwe", "dist", "--instance"], {**small_gapcvp(), "alpha": 0.1, "origin": "lwe"}),
    }


VALID_FILES = _valid_files()


def leaf_paths(obj, path=()):
    """The path of every scalar and every empty list or object in obj."""
    if isinstance(obj, (dict, list)) and obj:
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from leaf_paths(value, path + (key,))
    else:
        yield path


class Token(str):
    """JSON text written as is, such as NaN, which json.dumps cannot emit."""


class Drop:
    """Delete the leaf instead of replacing it."""

    def __repr__(self):
        return "Drop()"


REPLACEMENTS = st.one_of(
    st.builds(Drop),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=2),
    st.none(),
    st.just(10 ** 400),
    st.sampled_from([Token("NaN"), Token("Infinity"), Token("-Infinity")]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_file_is_an_error_or_a_report(data, tmp_path_factory):
    kind = data.draw(st.sampled_from(sorted(VALID_FILES)), label="kind")
    prefix, obj = VALID_FILES[kind]
    path = data.draw(st.sampled_from(list(leaf_paths(obj))), label="path")
    replacement = data.draw(REPLACEMENTS, label="replacement")
    mutated = json.loads(json.dumps(obj))
    *parents, last = path
    parent = mutated
    for key in parents:
        parent = parent[key]
    original = parent[last]
    if isinstance(replacement, Drop):
        del parent[last]
    else:
        parent[last] = "@token" if isinstance(replacement, Token) else replacement
    # a new directory per example: truncating and rewriting one file is slow on some file systems
    workdir = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    instance = workdir / "instance.json"
    instance.write_text(json.dumps(mutated).replace('"@token"', str(replacement)))
    argv = [str(workdir / "out.json") if a == "@out" else a for a in prefix] + [str(instance)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # anything raised here escapes main, and fails the test
    assert code in (0, 1, 2)
    if out.getvalue():
        strict_json(out.getvalue())
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
    if type(original) is int:
        assert code == 2, err.getvalue()
