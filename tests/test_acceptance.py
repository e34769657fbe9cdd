"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    basis_state,
    exact_distribution,
    fidelity,
    final_counts,
    no_side_probability_bound,
    oi_vector,
    pauli_x,
    pauli_z,
    random_sd_instance,
    random_state,
    sd_distance,
    sisd_distance,
)

from oilab.corpus import build_sd_corpus, polarize_corpus
from oilab.distributions import tv_distance
from oilab.errors import GapViolationError
from oilab.invseq import reduce_sd_to_sisd, validate_sequence
from oilab.lwe import LweParams, centered_mod, gap_experiment
from oilab.qsim import SimUnitary, StateVector, ci_oracle_query, oi_oracle_query, swap_test
from oilab.seeding import derive_rng
from oilab.solver import SolverConfig, StageRecord, build_output_state, decide_sd, derive_threshold


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL — {title}")
        raise
    print(f"[criterion {number:02d}] PASS — {title}")


@pytest.fixture(scope="module")
def reduced_instances():
    pairs = []
    for index in range(200):
        inst = random_sd_instance(index)
        pairs.append((inst, reduce_sd_to_sisd(inst)))
    return pairs


@pytest.fixture(scope="module")
def built_states():
    """50 reduced sequences (state width <= 10) built through the oracle
    pipeline, with stage logs."""
    cfg = SolverConfig(seed=606)
    results = []
    for index in range(50):
        seq = reduce_sd_to_sisd(random_sd_instance(index, seed=909)).seq0
        assert seq.k <= 10
        log: list[StageRecord] = []
        state = build_output_state(seq, cfg, derive_rng(606, "accept", index), log)
        results.append((seq, state, log))
    return results


def test_criterion_01_reduction_exactness(reduced_instances):
    with criterion(1, "reduction preserves statistical difference exactly (200 instances)"):
        started = time.time()
        for inst, reduced in reduced_instances:
            assert sd_distance(inst) == sisd_distance(reduced)  # exact rational equality, zero tolerance
        elapsed = time.time() - started
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_02_invertibility(reduced_instances):
    with criterion(2, "every reduced sequence passes exhaustive inverse checks"):
        for inst, reduced in reduced_instances:
            assert reduced.seq0.k <= 10
            for seq in (reduced.seq0, reduced.seq1):
                report = validate_sequence(seq)
                assert report.ok
                assert all(check.exhaustive for check in report.checks)


def _diagonal_unitary(n: int, rng) -> SimUnitary:
    phases = np.exp(2j * np.pi * rng.random(1 << n))
    return SimUnitary(n, matrix=np.diag(phases))


def test_criterion_03_oi_correctness():
    with criterion(3, "order-interference vector laws (cancellation, commuting, m=2)"):
        # anticommuting pair cancels exactly on every state
        for index in range(20):
            psi = random_state(1, derive_rng(31, "xz", index))
            assert np.all(oi_vector((pauli_x(), pauli_z()), psi) == 0)

        # commuting families: every ordering equals the plain product
        for index in range(50):
            rng = derive_rng(32, "commute", index)
            n = int(rng.integers(1, 3))
            m = int(rng.integers(2, 5))
            if index % 2 == 0:
                us = tuple(_diagonal_unitary(n, rng) for _ in range(m))
            else:
                base = rng.permutation(1 << n)
                table = np.arange(1 << n)
                powers = []
                for _ in range(m):
                    table = base[table]
                    powers.append(SimUnitary(n, table=table.copy()))
                us = tuple(powers)
            psi = random_state(n, rng)
            vector = oi_vector(us, psi)
            product = psi.amps
            for u in us:
                product = u.apply(product)
            expected = math.factorial(m) * float(np.linalg.norm(product))
            assert abs(np.linalg.norm(vector) - expected) < 1e-9

        # m = 2 against the direct two-ordering formula
        rng = derive_rng(33, "m2")
        for _ in range(20):
            psi = random_state(2, rng)
            z0 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            z1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q0 = np.linalg.qr(z0)[0]
            q1 = np.linalg.qr(z1)[0]
            u0, u1 = SimUnitary(2, matrix=q0), SimUnitary(2, matrix=q1)
            direct = (q0 @ q1 + q1 @ q0) @ psi.amps
            assert np.abs(oi_vector((u0, u1), psi) - direct).max() < 1e-10


def test_criterion_04_oracle_probability_law():
    with criterion(4, "oracle success frequencies match the probability law (3 sigma)"):
        started = time.time()
        trials = 10 ** 4

        rng = derive_rng(41, "fixed")
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        dense = SimUnitary(1, matrix=np.linalg.qr(z)[0])
        psi = random_state(1, rng)

        query = ((dense, pauli_x()), psi, 7)
        p_oi = oi_oracle_query(*query, derive_rng(0, "probe")).success_probability
        assert 0.05 < p_oi < 0.95, "pick a query with informative probability"
        hits = sum(
            oi_oracle_query(*query, derive_rng(42, "oi", i)).success for i in range(trials)
        )
        sigma = math.sqrt(trials * p_oi * (1 - p_oi))
        assert abs(hits - trials * p_oi) <= 3 * sigma

        ci_args = ((pauli_x(), pauli_z()), basis_state(1, "0"), 10)
        p_ci = ci_oracle_query(*ci_args, derive_rng(0, "probe")).success_probability
        assert p_ci == pytest.approx(0.87610, abs=5e-6)
        hits = sum(
            ci_oracle_query(*ci_args, derive_rng(43, "ci", i)).success
            for i in range(trials)
        )
        sigma = math.sqrt(trials * p_ci * (1 - p_ci))
        assert abs(hits - trials * p_ci) <= 3 * sigma

        elapsed = time.time() - started
        assert elapsed < 120, f"took {elapsed:.1f}s"


def test_criterion_05_ci_norm_bound(built_states):
    with criterion(5, "choice-interference norm >= sqrt(m) on non-negative states"):
        for index in range(500):
            rng = derive_rng(51, "ci", index)
            n = int(rng.integers(1, 5))
            m = int(rng.integers(2, 7))
            us = tuple(SimUnitary(n, table=rng.permutation(1 << n)) for _ in range(m))
            amps = np.abs(rng.normal(size=1 << n))
            psi = StateVector(n, amps / np.linalg.norm(amps))
            norm = ci_oracle_query(us, psi, 1, rng).interference_norm
            assert norm >= math.sqrt(m) * (1 - 1e-12)
        # solver pipeline states stay in the non-negative real cone
        for _, state, log in built_states:
            assert float(state.amps.real.min()) >= -1e-12
            assert float(np.abs(state.amps.imag).max()) <= 1e-12
            assert all(record.min_real_amplitude >= -1e-12 for record in log)


def test_criterion_06_state_construction(built_states):
    with criterion(6, "oracle-built states match exact enumeration per amplitude"):
        assert len(built_states) >= 50
        for seq, state, _ in built_states:
            counts = final_counts(seq)
            expected = counts / np.linalg.norm(counts)
            assert np.abs(state.amps.real - expected).max() < 1e-9
            assert np.abs(state.amps.imag).max() < 1e-9


def test_criterion_07_end_to_end_decision():
    with criterion(7, "end-to-end decision accuracy >= 95% on 100 labeled instances"):
        started = time.time()
        corpus = polarize_corpus(build_sd_corpus(100, seed=2026))
        cfg = SolverConfig(lam=100, swap_shots=4096, trial_count=25, seed=99)
        correct = sum(
            decide_sd(item.instance, cfg).verdict == item.label for item in corpus
        )
        elapsed = time.time() - started
        assert correct >= 95, f"accuracy {correct}/100"
        assert elapsed < 300, f"took {elapsed:.1f}s"


def test_criterion_08_threshold_arithmetic():
    with criterion(8, "threshold arithmetic is exact"):
        with pytest.raises(GapViolationError) as err:
            derive_threshold(Fraction(1, 3), Fraction(2, 3))
        assert err.value.gap == Fraction(-1, 9)
        spec = derive_threshold(0.1, 0.9)
        assert spec.tau == Fraction(1, 2)
        assert spec.gap == Fraction(62, 100)


DESK = LweParams(n=2, q=101, m=8, alpha=0.02)


@pytest.fixture(scope="module")
def desk_experiment():
    return gap_experiment(DESK, gamma=3.0, trials=200, seed=0)


def test_criterion_09_lwe_yes_side(desk_experiment):
    with criterion(9, "LWE targets fall within sqrt(m)*alpha*q (>= 95% of 200)"):
        started = time.time()
        assert DESK.distance_threshold == pytest.approx(5.713, abs=1e-3)
        assert desk_experiment.yes_rate >= 0.95
        assert time.time() - started < 60


def test_criterion_10_lwe_no_side(desk_experiment):
    with criterion(10, "uniform targets separate beyond the calibrated factor"):
        assert desk_experiment.uniform_beyond_rate >= 0.95
        blob = desk_experiment.to_json_dict()
        assert blob["calibrated_factor"] == 3.0
        assert blob["asymptotic_gamma"] > 0  # reference factor reported alongside


def test_criterion_11_counting_bound_sanity():
    with criterion(11, "counting bound dominates exhaustive within-radius fractions"):
        checked = 0
        for q in (3, 5, 7):
            for n in (1, 2):
                for m in (2, 3, 4):
                    rng = derive_rng(111, "count", q, n, m)
                    A = rng.integers(0, q, size=(m, n))
                    lattice_points = (np.indices((q,) * n).reshape(n, -1).T @ A.T) % q
                    targets = np.indices((q,) * m).reshape(m, -1).T
                    diffs = centered_mod(
                        targets[:, None, :] - lattice_points[None, :, :], q
                    )
                    dists = np.sqrt((diffs.astype(float) ** 2).sum(axis=2).min(axis=1))
                    alpha = 0.02
                    d = math.sqrt(m) * alpha * q
                    for radius in (0.6, 1.2, 2.4):
                        params = LweParams(n, q, m, alpha)
                        bound = no_side_probability_bound(params, gamma=radius / d)
                        if bound > 1:
                            continue
                        fraction = float(np.count_nonzero(dists <= radius)) / q ** m
                        assert fraction <= bound + 1e-12
                        checked += 1
        assert checked >= 5, "too few non-vacuous cases exercised"


def test_criterion_12_metric_bounds_and_swap_convergence():
    with criterion(12, "fidelity/distance bounds and swap-test convergence"):
        rng = derive_rng(121, "pairs")
        for _ in range(1000):
            width = int(rng.integers(1, 5))
            size = 1 << width
            pair = []
            for _ in range(2):
                weights = rng.integers(0, 20, size)
                if weights.sum() == 0:
                    weights[0] = 1
                pair.append(exact_distribution(width, weights))
            delta = float(tv_distance(*pair))
            f = fidelity(*pair)
            assert 1 - f <= delta + 1e-9
            assert delta <= math.sqrt(max(0.0, 1 - f * f)) + 1e-9

        misses = 0
        runs = 500
        for index in range(runs):
            run_rng = derive_rng(122, "swap", index)
            theta = run_rng.uniform(0, math.pi / 2)
            phi = StateVector(1, np.array([1.0, 0.0]))
            psi = StateVector(1, np.array([math.cos(theta), math.sin(theta)]))
            (result,) = swap_test(phi, psi, 10 ** 4, [run_rng])
            if abs(result.estimate - result.exact_overlap) > 0.05:
                misses += 1
        assert misses <= runs * 0.01
