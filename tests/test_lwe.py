import itertools
import json
import math
import operator

import numpy as np
import pytest
from conftest import traced_peak_bytes
from helpers import no_side_probability_bound
from hypothesis import given, settings
from hypothesis import strategies as st

from oilab import lwe
from oilab.errors import ResourceError, WidthError
from oilab.jsonio import canonical_dumps
from oilab.lwe import (
    GapCvpInstance,
    LweInstance,
    LweParams,
    LweSecret,
    alpha_bound,
    centered_mod,
    dist_to_lattice,
    gap_experiment,
    lwe_to_gapcvp,
    no_side_log2_bound,
    sample_discrete_gaussian,
    sample_lwe,
    sample_uniform,
    squared_distance_to_lattice,
    szk_regime_gamma,
)
from oilab.seeding import derive_rng

DESK = LweParams(n=2, q=101, m=8, alpha=0.02)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LweParams(0, 5, 4, 0.1)
        with pytest.raises(ValueError):
            LweParams(2, 1, 4, 0.1)
        with pytest.raises(ValueError):
            LweParams(2, 5, 1, 0.1)
        with pytest.raises(ValueError):
            LweParams(2, 5, 4, 1.5)

    def test_distance_threshold_value(self):
        assert DESK.distance_threshold == pytest.approx(math.sqrt(8) * 2.02, abs=1e-12)
        assert DESK.distance_threshold == pytest.approx(5.713, abs=1e-3)


class TestDiscreteGaussian:
    def test_tiny_width_collapses_to_zero(self):
        rng = derive_rng(0, "gauss-tiny")
        draws = sample_discrete_gaussian(0.01, rng, size=1000)
        assert np.all(draws == 0)

    def test_symmetry(self):
        rng = derive_rng(1, "gauss-sym")
        draws = sample_discrete_gaussian(2.0, rng, size=10 ** 5)
        sigma_mean = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean()) <= 3 * sigma_mean

    def test_pmf_matches_gaussian_mass(self):
        # oracle: direct evaluation of exp(-x^2/s^2) over a wide support
        width = 2.0
        xs = np.arange(-40, 41)
        mass = np.exp(-(xs.astype(float) ** 2) / width ** 2)
        pmf = mass / mass.sum()
        expected = {int(x): p for x, p in zip(xs, pmf)}
        rng = derive_rng(2, "gauss-pmf")
        count = 10 ** 5
        draws = sample_discrete_gaussian(width, rng, size=count)
        for x in range(-3, 4):
            observed = int(np.count_nonzero(draws == x))
            p = expected[x]
            sigma = math.sqrt(count * p * (1 - p))
            assert abs(observed - count * p) <= 3 * sigma, f"x={x}"

    def test_deterministic(self):
        a = sample_discrete_gaussian(1.5, derive_rng(3, "g"), size=50)
        b = sample_discrete_gaussian(1.5, derive_rng(3, "g"), size=50)
        assert np.array_equal(a, b)

    def test_width_validated(self):
        with pytest.raises(ValueError):
            sample_discrete_gaussian(0.0, derive_rng(0, "g"), size=1)

    def test_support_is_capped_before_it_is_built(self, monkeypatch):
        # width 1 is cut at 10 each side: 21 points draw, 23 do not
        monkeypatch.setattr(lwe, "MAX_SUPPORT_POINTS", 21)
        assert len(sample_discrete_gaussian(1.0, derive_rng(5, "g"), size=3)) == 3
        with pytest.raises(ResourceError, match="^error width 1.01 needs 23 support points; cap is 21$"):
            sample_discrete_gaussian(1.01, derive_rng(5, "g"), size=3)


class TestSampling:
    def test_negligible_noise_gives_exact_equation(self):
        params = LweParams(2, 101, 8, alpha=0.0001)  # alpha*q ~ 0.01
        inst = sample_lwe(params, derive_rng(4, "lwe"))
        assert np.all(inst.secret.e == 0)
        assert np.array_equal(inst.b, (inst.A @ inst.secret.s) % params.q)

    def test_seed_reproducibility_bytes(self):
        one = sample_lwe(DESK, derive_rng(5, "lwe")).to_json_dict()
        two = sample_lwe(DESK, derive_rng(5, "lwe")).to_json_dict()
        assert canonical_dumps(one) == canonical_dumps(two)

    def test_error_norm_bound_rate(self):
        bound = DESK.distance_threshold
        good = 0
        for i in range(100):
            inst = sample_lwe(DESK, derive_rng(6, "rate", i))
            if np.linalg.norm(inst.secret.e) <= bound:
                good += 1
        assert good >= 95

    def test_secret_is_sealed(self):
        inst = sample_lwe(DESK, derive_rng(7, "seal"))
        blob = inst.to_json_dict()
        assert set(blob) == {"n", "q", "m", "alpha", "A", "b", "origin"}
        loaded = LweInstance.from_json_dict(blob)
        assert loaded.secret is None
        assert np.array_equal(loaded.A, inst.A) and np.array_equal(loaded.b, inst.b)

    def test_secret_must_reproduce_b(self):
        inst = sample_lwe(DESK, derive_rng(7, "seal"))
        shifted = LweSecret(inst.secret.s, inst.secret.e + 1)
        with pytest.raises(ValueError, match="^recorded secret does not reproduce b$"):
            LweInstance(inst.params, inst.A, inst.b, "lwe", shifted)

    def test_uniform_origin(self):
        inst = sample_uniform(DESK, derive_rng(8, "uni"))
        assert inst.origin == "uniform" and inst.secret is None


class TestCvp:
    def test_zero_error_distance_zero(self):
        params = LweParams(2, 101, 8, alpha=0.0001)
        inst = sample_lwe(params, derive_rng(9, "z"))
        cvp = lwe_to_gapcvp(inst, gamma=3.0)
        assert dist_to_lattice(cvp) == 0.0

    def test_small_worked_examples(self):
        A = np.array([[1], [2]])
        base = dict(q=5, d=1.0, gamma=1.0)
        assert dist_to_lattice(GapCvpInstance(A, target=np.array([1, 2]), **base)) == 0.0
        assert dist_to_lattice(GapCvpInstance(A, target=np.array([2, 2]), **base)) == 1.0

    @pytest.mark.parametrize(
        "field, value",
        [("d", True), ("gamma", False), ("d", "1.0"), ("gamma", [3]), ("d", math.nan),
         ("gamma", math.nan)],
    )
    def test_distance_and_gamma_must_be_real(self, field, value):
        params = dict(q=5, target=np.array([1, 2]), d=1.0, gamma=1.0)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            GapCvpInstance(np.array([[1], [2]]), **{**params, field: value})

    @pytest.mark.parametrize("shape", [(2, 0), (0, 2)])
    def test_empty_lattice_basis_is_a_width_error(self, shape):
        with pytest.raises(WidthError):
            GapCvpInstance(np.zeros(shape, dtype=np.int64), 5, np.zeros(shape[0]), 1.0, 1.0)

    def test_enumeration_cap(self):
        A = np.ones((13, 13), dtype=np.int64)
        cvp = GapCvpInstance(A, q=3, target=np.zeros(13, dtype=np.int64), d=1.0, gamma=1.0)
        with pytest.raises(ResourceError):
            dist_to_lattice(cvp, 20)

    def test_distance_invariant_under_lattice_shifts(self):
        rng = derive_rng(10, "shift")
        inst = sample_uniform(DESK, rng)
        cvp = lwe_to_gapcvp(inst, gamma=3.0)
        base = dist_to_lattice(cvp)
        for trial in range(5):
            s = rng.integers(0, DESK.q, size=DESK.n)
            k = rng.integers(-2, 3, size=DESK.m)
            shifted = (inst.b + inst.A @ s + DESK.q * k) % DESK.q
            moved = GapCvpInstance(inst.A, DESK.q, shifted, cvp.d, cvp.gamma)
            assert dist_to_lattice(moved) == base

    def test_distance_bounded_by_error_norm(self):
        for i in range(20):
            inst = sample_lwe(DESK, derive_rng(11, "err", i))
            dist = dist_to_lattice(lwe_to_gapcvp(inst, 3.0))
            assert dist <= np.linalg.norm(inst.secret.e) + 1e-9

    def test_distance_nondecreasing_under_modulus_lift(self):
        # q | q' makes the q'-lattice a sublattice, so distances cannot drop
        rng = derive_rng(12, "lift")
        A = rng.integers(0, 5, size=(4, 1))
        b = rng.integers(0, 5, size=4)
        dists = []
        for q in (5, 10, 20):
            cvp = GapCvpInstance(A, q=q, target=b, d=1.0, gamma=1.0)
            dists.append(dist_to_lattice(cvp))
        assert dists[0] <= dists[1] <= dists[2]


def brute_force_sq_distance(A: np.ndarray, target: np.ndarray, q: int) -> int:
    """min over all secrets s of sum_i ((t_i - (As)_i) centered mod q)^2, in
    plain Python ints."""
    rows = A.tolist()
    best = None
    for s in itertools.product(range(q), repeat=A.shape[1]):
        total = 0
        for row, t in zip(rows, target.tolist()):
            r = (t - sum(map(operator.mul, row, s))) % q
            total += min(r, q - r) ** 2
        best = total if best is None else min(best, total)
    return best


def random_cvp(seed: int, n: int, q: int, m: int, target: str) -> GapCvpInstance:
    rng = derive_rng(seed, "cvp-differential", n, q, m, target)
    A = rng.integers(0, q, size=(m, n))
    if target == "on-lattice":  # a lattice point, lifted by multiples of q
        b = A @ rng.integers(0, q, size=n) + q * rng.integers(-3, 4, size=m)
    elif target == "last-candidate":  # the only secret at distance 0 is the last one scanned
        A[:n] = np.eye(n, dtype=np.int64)
        b = A @ np.full(n, q - 1)
    else:  # negative and beyond q, never reduced
        b = rng.integers(-3 * q, 3 * q, size=m)
    return GapCvpInstance(A, q, b, 1.0, 1.0)


class TestSquaredDistanceDifferential:
    # (n, q, m): prime, composite and even moduli; m = n; n = 1 with q above
    # 2^15 (an int32 scan split over several blocks of the last coordinate);
    # q^(n-1) above 2^14 (the residue table split over several blocks)
    @pytest.mark.parametrize(
        "n, q, m",
        [(1, 2, 1), (1, 7, 3), (1, 40000, 3), (1, 65521, 2), (2, 12, 2), (2, 13, 5),
         (2, 127, 3), (2, 128, 3), (3, 8, 3), (3, 9, 4), (3, 11, 6), (10, 3, 10)],
    )
    @pytest.mark.parametrize("target", ["unreduced", "on-lattice", "last-candidate"])
    def test_matches_pure_python_scan(self, n, q, m, target):
        cvp = random_cvp(1, n, q, m, target)
        expected = brute_force_sq_distance(cvp.A, cvp.target, q)
        found = squared_distance_to_lattice(cvp)
        assert type(found) is int and found == expected
        assert dist_to_lattice(cvp) == math.sqrt(expected)
        if target != "unreduced":
            assert expected == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(2, 12), st.integers(n, n + 3))
        ),
        st.integers(0, 2 ** 32),
    )
    def test_random_small_instances(self, shape, seed):
        n, q, m = shape
        cvp = random_cvp(seed, n, q, m, "unreduced")
        assert squared_distance_to_lattice(cvp) == brute_force_sq_distance(cvp.A, cvp.target, q)


@pytest.mark.parametrize("n, q, m", [(1, 1048573, 8), (3, 53, 12)])
def test_one_scan_stays_under_four_megabytes(n, q, m):
    cvp = random_cvp(3, n, q, m, "unreduced")
    assert traced_peak_bytes(lambda: squared_distance_to_lattice(cvp)) < 4_000_000


@settings(max_examples=60, deadline=None)
@given(st.integers(-200, 200), st.integers(2, 30))
def test_centered_mod_properties(x, q):
    c = int(centered_mod(np.array([x]), q)[0])
    assert (c - x) % q == 0
    assert -q / 2 < c <= q / 2


class TestCountingBound:
    def test_vacuous_when_radius_covers_modulus(self):
        params = LweParams(3, 5, 3, alpha=0.5)  # alpha*q = 2.5, d ~ 4.33
        assert no_side_probability_bound(params, gamma=1.0) >= 1.0

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError, match="^gamma \\* d must be positive$"):
            no_side_log2_bound(LweParams(3, 5, 3, alpha=0.5), gamma=0.0)

    @pytest.mark.parametrize("n, m, q", [(1, 2, 2), (2, 1, 2), (2, 2, 1)])
    def test_alpha_bound_needs_two_of_each(self, n, m, q):
        with pytest.raises(ValueError, match="^need n, m, q >= 2$"):
            alpha_bound(n, m, q)

    def test_two_arithmetic_paths_agree(self):
        params = LweParams(4, 257, 32, alpha=1e-3)
        gamma = math.sqrt(4 / math.log2(4))
        log_path = no_side_log2_bound(params, gamma)
        radius = gamma * params.distance_threshold
        direct = (
            2.0 ** params.m
            * float(params.q) ** params.n
            * (2 * radius) ** params.m
            / float(params.q) ** params.m
        )
        assert math.log2(direct) == pytest.approx(log_path, abs=1e-9)

    def test_containment_regime_is_exponentially_small(self):
        # q = n^2, m = n log2 q, alpha at the admitted bound: the counting
        # bound must come out at 2^-n for the matched approximation factor
        n = 128
        q = n * n
        m = n * int(math.log2(q))
        alpha = alpha_bound(n, m, q)
        params = LweParams(n, q, m, alpha)
        gamma = szk_regime_gamma(n)
        assert gamma >= 1.0
        assert no_side_log2_bound(params, gamma) <= -n + 1e-6

    def test_alpha_bound_decreases_with_modulus(self):
        assert alpha_bound(4, 32, 514) < alpha_bound(4, 32, 257)

    def test_alpha_bound_large_m_scaling(self):
        n, q = 4, 257
        for m in (10 ** 4, 10 ** 6):
            expected = math.sqrt(math.log2(n)) / (math.sqrt(n) * math.sqrt(m))
            assert alpha_bound(n, m, q) == pytest.approx(expected, rel=1e-2)

    def test_alpha_bound_matches_numeric_inversion(self):
        # independently solve log2 p(alpha) = -n by bisection
        n, m, q = 4, 32, 257
        gamma = szk_regime_gamma(n)
        lo, hi = 1e-12, 0.5

        def log_p(alpha: float) -> float:
            return no_side_log2_bound(LweParams(n, q, m, alpha), gamma)

        for _ in range(200):
            mid = (lo + hi) / 2
            if log_p(mid) > -n:
                hi = mid
            else:
                lo = mid
        assert alpha_bound(n, m, q) == pytest.approx(lo, rel=1e-9)


class TestGapExperiment:
    def test_zero_noise_is_all_yes(self):
        params = LweParams(2, 101, 8, alpha=0.0001)
        report = gap_experiment(params, gamma=3.0, trials=10, seed=13)
        assert report.yes_rate == 1.0
        assert report.distances("lwe") == [0.0] * 10

    def test_reports_reproduce_bytewise(self):
        one = gap_experiment(DESK, 3.0, trials=5, seed=14).to_json_dict()
        two = gap_experiment(DESK, 3.0, trials=5, seed=14).to_json_dict()
        assert canonical_dumps(one) == canonical_dumps(two)

    def test_desk_scale_separation(self):
        report = gap_experiment(DESK, gamma=3.0, trials=30, seed=18)
        assert report.yes_rate >= 0.95
        assert report.uniform_beyond_rate >= 0.95
        blob = report.to_json_dict()
        assert blob["calibrated_factor"] == 3.0
        assert blob["asymptotic_gamma"] == pytest.approx(szk_regime_gamma(2), abs=1e-12)
        assert len(blob["lwe_distances"]) == 30

    @pytest.mark.parametrize("factor", [-1.0, 0.0, math.nan])
    def test_factor_must_be_positive(self, factor):
        with pytest.raises(ValueError, match="factor must be > 0"):
            gap_experiment(DESK, 3.0, trials=3, seed=16, calibrated_factor=factor)

    def test_csv_rows_shape(self):
        report = gap_experiment(DESK, 3.0, trials=3, seed=16)
        rows = report.csv_rows()
        assert len(rows) == 6
        assert {r[1] for r in rows} == {"lwe", "uniform"}
        assert all(r[4] in ("YES", "NO", "MID") for r in rows)


class TestSerialization:
    def test_gapcvp_round_trip(self):
        inst = sample_lwe(DESK, derive_rng(17, "ser"))
        cvp = lwe_to_gapcvp(inst, 3.0)
        blob = cvp.to_json_dict()
        assert blob["d"] == pytest.approx(DESK.distance_threshold)
        loaded = GapCvpInstance.from_json_dict(json.loads(json.dumps(blob)))
        assert np.array_equal(loaded.A, cvp.A)
        assert loaded.gamma == cvp.gamma and loaded.origin == "lwe"
