"""Command-line front end.

Commands: ``circuit stats``, ``reduce sd-to-sisd``, ``polarize``,
``decide sd|sisd|corpus``, ``oracle oi|ci``, ``validate``,
``lwe gen|to-gapcvp|dist|experiment``.  Every setting has one source.
The three commands that enumerate or solve CVP (``circuit stats``, ``lwe
dist``, ``lwe experiment``) take ``--cap-bits``, the only brute-force
budget: at most 2^B enumerated inputs or CVP candidates, by default
``config.ENUM_BITS`` and ``config.CVP_BITS``.  Only the commands that draw
randomness (``decide sd|sisd|corpus``, ``oracle oi|ci``, ``validate``,
``lwe gen``, ``lwe experiment``) take ``--seed``.  An oracle call reads
lambda from its query file; the decide flags default to ``SolverConfig``'s
fields, whose values ``config`` holds.

A shell call pays for every module it imports, and compiling and running
all of them was about a fifth of a cold call.  So this module imports
only ``config``, ``errors``, ``jsonio`` and ``circuits`` (with what they
import); ``invseq``, ``qsim``, ``solver``, ``corpus`` and ``lwe`` are
imported by the first handler that needs one.  ``circuit stats`` loads
none of them, ``validate`` and ``reduce`` load ``invseq``, ``oracle``
loads ``qsim`` (and ``invseq``), ``decide`` loads ``solver`` (and what it
imports), ``decide corpus`` also ``corpus``, and the ``lwe`` commands load
``lwe``.  The deferred names are declared in one table, ``_DEFERRED``;
the module ``__getattr__`` (PEP 562) imports a name on first lookup and
keeps it in the module's globals, and a name whose module is loaded
already when this module is imported is bound then.  Handlers look them
up on the module at call time, so a probe or monkeypatch on
``oilab.cli.decide_sd`` sees the call.

Every report embeds the seed, a hash of the parsed configuration, and the
package version; re-running a command with the same inputs and seed
reproduces the report byte for byte.  Exit codes: 0 for YES or plain
success, 1 for NO, 2 for any error.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import math
import sys
from fractions import Fraction

from . import __version__
from .circuits import BoolCircuit, SdInstance, enumerate_distribution
from .config import CALIBRATED_FACTOR, CVP_BITS, ENUM_BITS, LAMBDA, RETRY_BUDGET, SWAP_SHOTS, TRIAL_COUNT
from .errors import OilabError
from .jsonio import (
    atomic_write_text,
    canonical_dumps,
    config_hash,
    fraction_to_string,
    load_json,
    require_field,
    require_int,
    require_real,
    typed_fields,
    write_json,
)
from .seeding import derive_rng

# deferred name -> the module that defines it, imported on first use
_DEFERRED = {
    name: module
    for module, names in (
        ("corpus", ("build_sd_corpus", "polarize_corpus")),
        ("invseq", ("InvertibleSequence", "SisdInstance", "polarize", "reduce_sd_to_sisd", "validate_sequence")),
        ("lwe", (
            "GapCvpInstance", "LweInstance", "LweParams", "gap_experiment", "lwe_to_gapcvp",
            "sample_lwe", "sample_uniform", "squared_distance_to_lattice",
        )),
        ("qsim", ("SimUnitary", "StateVector", "ci_oracle_query", "oi_oracle_query")),
        ("solver", ("SolverConfig", "decide_sd", "decide_sisd")),
    )
    for name in names
}


def __getattr__(name: str):
    """Import a deferred name's module and keep the name in this module's
    globals, where later lookups, probes and monkeypatches find it."""
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_DEFERRED[name]}", __package__), name)
    globals()[name] = value
    return value


# a name whose module is loaded already costs nothing to bind, so it is bound
# now, as an import statement would: a probe installed later on its home
# module then leaves this module's name as it was, as at any other call site
globals().update(
    (name, getattr(sys.modules[f"{__package__}.{module}"], name))
    for name, module in _DEFERRED.items()
    if f"{__package__}.{module}" in sys.modules
)

# handlers reach deferred names through this module, at call time
_cli = sys.modules[__name__]

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _report(args, command: str, payload: dict, path: str | None = None) -> None:
    """Print the payload under the provenance envelope; also write it to
    ``path`` when one is given.  Output destinations are left out of the
    hashed config, so where a report goes does not change it."""
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("handler", "out", "out_prefix") and not callable(value)
    }
    envelope = {
        "command": command,
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "config_hash": config_hash(config),
    }
    text = canonical_dumps({**envelope, **payload})
    sys.stdout.write(text)
    if path:
        atomic_write_text(path, text)


def _cap_bits(args, default: int) -> int:
    """``--cap-bits`` when given, else the command's default budget."""
    if args.cap_bits is None:
        return default
    if args.cap_bits <= 0:
        raise ValueError(f"--cap-bits must be positive, got {args.cap_bits}")
    return args.cap_bits


# ---------------------------------------------------------------------------
# handlers

def _cmd_circuit_stats(args) -> int:
    circuit = BoolCircuit.from_json_dict(load_json(args.instance))
    payload = {
        "k_in": circuit.k_in,
        "k_out": circuit.k_out,
        "gate_count": len(circuit.gates),
        "wire_count": circuit.n_wires,
    }
    cap_bits = _cap_bits(args, ENUM_BITS)
    if circuit.k_in <= cap_bits:
        dist = enumerate_distribution(circuit, cap_bits)
        payload["distribution"] = {
            "support_size": len(dist.probs),
            "max_prob": fraction_to_string(max(dist.probs.values())),
            "min_prob": fraction_to_string(min(dist.probs.values())),
        }
    _report(args, "circuit stats", payload, args.out)
    return EXIT_YES


def _cmd_reduce(args) -> int:
    inst = SdInstance.from_json_dict(load_json(args.instance))
    reduced = _cli.reduce_sd_to_sisd(inst)
    write_json(args.out, reduced.to_json_dict())
    payload = {
        "length": len(reduced.seq0),
        "state_width": reduced.seq0.k,
        "max_randomness": reduced.r,
        "written": args.out,
    }
    _report(args, "reduce sd-to-sisd", payload)
    return EXIT_YES


def _cmd_polarize(args) -> int:
    inst = SdInstance.from_json_dict(load_json(args.instance))
    out = _cli.polarize(inst, args.k, args.xor_reps, args.product_reps)
    write_json(args.out, out.to_json_dict())
    payload = {
        "a": fraction_to_string(out.a),
        "b": fraction_to_string(out.b),
        "k_in": out.c0.k_in,
        "k_out": out.c0.k_out,
        "written": args.out,
    }
    _report(args, "polarize", payload)
    return EXIT_YES


def _cmd_decide(args) -> int:
    if args.sub == "sd":
        instance_type, decide = SdInstance, _cli.decide_sd
    else:
        instance_type, decide = _cli.SisdInstance, _cli.decide_sisd
    cfg = _cli.SolverConfig(
        lam=args.lam,
        retry_budget=args.retry_budget,
        swap_shots=args.shots,
        trial_count=args.trials,
        seed=args.seed,
    )
    decision = decide(instance_type.from_json_dict(load_json(args.instance)), cfg)
    _report(args, f"decide {args.sub}", decision.to_json_dict(), args.out)
    return EXIT_YES if decision.verdict == "YES" else EXIT_NO


def _cmd_decide_corpus(args) -> int:
    cfg = _cli.SolverConfig(seed=args.seed)
    rows = []
    corpus = _cli.polarize_corpus(_cli.build_sd_corpus(args.instances, args.seed))
    for index, item in enumerate(corpus):
        decision = _cli.decide_sd(item.instance, cfg)
        rows.append({
            "index": index,
            "raw_delta": fraction_to_string(item.delta),
            "label": item.label,
            "verdict": decision.verdict,
            "estimate": decision.estimate,
        })
    correct = sum(row["verdict"] == row["label"] for row in rows)
    accuracy = correct / len(rows)
    payload = {"instances": len(rows), "correct": correct, "accuracy": accuracy, "rows": rows}
    _report(args, "decide corpus", payload, args.out)
    return EXIT_YES


def _load_oracle_query(path: str) -> tuple:
    """The query file's (unitaries, psi, lambda)."""
    obj = load_json(path)
    with typed_fields("oracle query"):
        unitaries = tuple(
            _cli.SimUnitary.from_json_dict(raw)
            for raw in require_field(obj, "unitaries", "oracle query")
        )
        psi = _cli.StateVector.from_json_list(require_field(obj, "psi", "oracle query"))
        lam = require_int(require_field(obj, "lambda", "oracle query"), "lambda")
    return unitaries, psi, lam


def _cmd_oracle(args) -> int:
    unitaries, psi, lam = _load_oracle_query(args.query)
    query = _cli.oi_oracle_query if args.sub == "oi" else _cli.ci_oracle_query
    outcome = query(unitaries, psi, lam, derive_rng(args.seed, "oracle", args.sub))
    payload = {
        "success": outcome.success,
        "diagnostics": outcome.diagnostics_dict(),
        "state": outcome.state.to_json_list() if outcome.state is not None else None,
    }
    _report(args, f"oracle {args.sub}", payload, args.out)
    return EXIT_YES


def _cmd_lwe_gen(args) -> int:
    params = _cli.LweParams(args.n, args.q, args.m, args.alpha)
    rng = derive_rng(args.seed, "lwe-gen", "uniform" if args.uniform else "lwe")
    inst = _cli.sample_uniform(params, rng) if args.uniform else _cli.sample_lwe(params, rng)
    write_json(args.out, inst.to_json_dict())
    payload = {"origin": inst.origin, "d": params.distance_threshold, "written": args.out}
    _report(args, "lwe gen", payload)
    return EXIT_YES


def _cmd_lwe_to_gapcvp(args) -> int:
    inst = _cli.LweInstance.from_json_dict(load_json(args.instance))
    cvp = _cli.lwe_to_gapcvp(inst, args.gamma)
    write_json(args.out, cvp.to_json_dict())
    _report(args, "lwe to-gapcvp", {"d": cvp.d, "gamma": cvp.gamma, "written": args.out})
    return EXIT_YES


def _cmd_lwe_dist(args) -> int:
    cvp = _cli.GapCvpInstance.from_json_dict(load_json(args.instance))
    dist_sq = _cli.squared_distance_to_lattice(cvp, _cap_bits(args, CVP_BITS))
    d_sq = Fraction(cvp.d) ** 2  # exact, so a d beyond the float range compares too
    payload = {
        "dist": math.sqrt(dist_sq),
        "d": cvp.d,
        "gamma": cvp.gamma,
        "within_d": dist_sq <= d_sq,
        "beyond_gamma_d": dist_sq > Fraction(cvp.gamma) ** 2 * d_sq,
    }
    _report(args, "lwe dist", payload, args.out)
    return EXIT_YES


def _cmd_lwe_experiment(args) -> int:
    params = _cli.LweParams(args.n, args.q, args.m, args.alpha)
    cap_bits = _cap_bits(args, CVP_BITS)
    report = _cli.gap_experiment(params, args.gamma, args.trials, args.seed, args.factor, cap_bits)
    prefix = args.out_prefix
    _report(args, "lwe experiment", report.to_json_dict(), prefix and prefix + ".json")
    if prefix:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["trial", "origin", "dist", "d", "verdict"])
        writer.writerows(report.csv_rows())
        atomic_write_text(prefix + ".csv", buffer.getvalue())
    return EXIT_YES


def _cmd_validate(args) -> int:
    obj = load_json(args.instance)
    if isinstance(obj, dict) and "seq0" in obj:  # a full two-sequence instance
        sequences = [
            _cli.InvertibleSequence.from_json_dict(require_field(obj, key, "sisd instance"))
            for key in ("seq0", "seq1")
        ]
    else:
        sequences = [_cli.InvertibleSequence.from_json_dict(obj)]
    reports = [_cli.validate_sequence(seq, seed=args.seed) for seq in sequences]
    payload = {
        "ok": all(r.ok for r in reports),
        "sequences": [
            [
                {
                    "index": c.index,
                    "exhaustive": c.exhaustive,
                    "points": c.points_checked,
                    "ok": c.ok,
                    "counterexample": list(c.counterexample) if c.counterexample else None,
                }
                for c in report.checks
            ]
            for report in reports
        ],
    }
    _report(args, "validate sequence", payload, args.out)
    return EXIT_YES if all(r.ok for r in reports) else EXIT_NO


# ---------------------------------------------------------------------------
# parser assembly

def _finite_float(text: str) -> float:
    try:
        return require_real(float(text), "option")
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}") from None


def _add_cap_bits(parser, default: int):
    help_text = f"brute-force budget in bits (default {default})"
    parser.add_argument("--cap-bits", type=int, default=None, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oilab", description="order-interference decision workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options shared by several commands; only the commands that draw
    # randomness take --seed
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--out", default=None, help="write the JSON report here")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--lambda", dest="lam", type=int, default=LAMBDA)
    solver.add_argument("--shots", type=int, default=SWAP_SHOTS)
    solver.add_argument("--trials", type=int, default=TRIAL_COUNT)
    solver.add_argument("--retry-budget", type=int, default=RETRY_BUDGET)
    lwe_params = argparse.ArgumentParser(add_help=False)
    for flag in ("--n", "--q", "--m"):
        lwe_params.add_argument(flag, type=int, required=True)
    lwe_params.add_argument("--alpha", type=_finite_float, required=True)

    circuit = sub.add_parser("circuit").add_subparsers(dest="sub", required=True)
    stats = circuit.add_parser(
        "stats", parents=[report], help="circuit shape and distribution summary"
    )
    stats.add_argument("--instance", required=True)
    _add_cap_bits(stats, ENUM_BITS)
    stats.set_defaults(handler=_cmd_circuit_stats)

    reduce_ = sub.add_parser("reduce").add_subparsers(dest="sub", required=True)
    sd2sisd = reduce_.add_parser("sd-to-sisd", help="compile an SD instance to sequences")
    sd2sisd.add_argument("--instance", required=True)
    sd2sisd.add_argument("--out", required=True)
    sd2sisd.set_defaults(handler=_cmd_reduce)

    pol = sub.add_parser("polarize", help="amplify the promise gap")
    pol.add_argument("--instance", required=True)
    pol.add_argument("--out", required=True)
    pol.add_argument("--k", type=int, required=True)
    pol.add_argument("--xor-reps", type=int, required=True)
    pol.add_argument("--product-reps", type=int, required=True)
    pol.set_defaults(handler=_cmd_polarize)

    decide = sub.add_parser("decide").add_subparsers(dest="sub", required=True)
    for name in ("sd", "sisd"):
        dec = decide.add_parser(name, parents=[seeded, report, solver])
        dec.add_argument("--instance", required=True)
        dec.set_defaults(handler=_cmd_decide)
    corpus = decide.add_parser(
        "corpus", parents=[seeded, report], help="decide the labeled corpus, report accuracy"
    )
    corpus.add_argument("--instances", type=int, default=100)
    corpus.set_defaults(handler=_cmd_decide_corpus)

    oracle = sub.add_parser("oracle").add_subparsers(dest="sub", required=True)
    for name in ("oi", "ci"):
        op = oracle.add_parser(name, parents=[seeded, report])
        op.add_argument("--query", required=True)
        op.set_defaults(handler=_cmd_oracle)

    val = sub.add_parser(
        "validate", parents=[seeded, report], help="check a sequence's inverse identities"
    )
    val.add_argument("--instance", required=True)
    val.set_defaults(handler=_cmd_validate)

    lwe = sub.add_parser("lwe").add_subparsers(dest="sub", required=True)
    gen = lwe.add_parser("gen", parents=[seeded, lwe_params])
    gen.add_argument("--uniform", action="store_true")
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=_cmd_lwe_gen)

    tocvp = lwe.add_parser("to-gapcvp")
    tocvp.add_argument("--instance", required=True)
    tocvp.add_argument("--gamma", type=_finite_float, required=True)
    tocvp.add_argument("--out", required=True)
    tocvp.set_defaults(handler=_cmd_lwe_to_gapcvp)

    dist = lwe.add_parser("dist", parents=[report])
    dist.add_argument("--instance", required=True)
    _add_cap_bits(dist, CVP_BITS)
    dist.set_defaults(handler=_cmd_lwe_dist)

    exp = lwe.add_parser("experiment", parents=[seeded, lwe_params])
    exp.add_argument("--gamma", type=_finite_float, default=1.0)
    exp.add_argument(
        "--factor", type=_finite_float, default=CALIBRATED_FACTOR, help="calibrated NO-side factor"
    )
    exp.add_argument("--trials", type=int, default=100)
    exp.add_argument("--out-prefix", default=None)
    _add_cap_bits(exp, CVP_BITS)
    exp.set_defaults(handler=_cmd_lwe_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OilabError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
