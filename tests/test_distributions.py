import math
import re
from fractions import Fraction

import pytest
from helpers import cosine_similarity, exact_distribution, fidelity, marginal, point_mass, uniform_distribution
from hypothesis import given, settings
from hypothesis import strategies as st

from oilab.distributions import Distribution, tv_distance
from oilab.errors import WidthError
from oilab.seeding import derive_rng


@st.composite
def exact_pairs(draw):
    width = draw(st.integers(1, 4))
    n = 1 << width
    w0 = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(lambda v: sum(v) > 0))
    w1 = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(lambda v: sum(v) > 0))
    return exact_distribution(width, w0), exact_distribution(width, w1)


class TestConstruction:
    def test_sum_must_be_one_exact(self):
        with pytest.raises(ValueError):
            Distribution(1, {0: Fraction(1, 2)})

    def test_float_probabilities_rejected(self):
        with pytest.raises(TypeError):
            Distribution(1, {0: 0.5, 1: 0.5})
        with pytest.raises(TypeError):
            Distribution(1, {0: Fraction(1, 2), 1: 0.5})

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=96) | st.integers(0, 2),
            max_size=16,
        ),
        st.booleans(),
    )
    def test_sum_check_matches_fraction_sum(self, probs, normalise):
        # the common-denominator sum accepts and rejects exactly as sum() of
        # the Fractions does, over mixed and non-dyadic denominators
        total = sum(probs)
        if normalise and total:
            probs = [Fraction(p) / total for p in probs]
            total = sum(probs)
        mapping = dict(enumerate(probs))
        if total == 1:
            assert Distribution(4, mapping).probs == {k: p for k, p in mapping.items() if p}
        else:
            with pytest.raises(ValueError, match=re.escape(f"probabilities sum to {total}, not 1")):
                Distribution(4, mapping)

    def test_negative_probability(self):
        with pytest.raises(ValueError):
            Distribution(1, {0: Fraction(3, 2), 1: Fraction(-1, 2)})

    def test_key_width_checked(self):
        with pytest.raises(WidthError):
            Distribution(2, {4: Fraction(1)})
        with pytest.raises(WidthError):
            Distribution(2, {-1: Fraction(1)})
        assert sorted(Distribution(2, {3: Fraction(1)}).probs) == [3]

    def test_width_must_be_non_negative(self):
        with pytest.raises(WidthError, match="^width must be non-negative$"):
            Distribution(-1, {0: Fraction(1)})

    def test_zero_entries_dropped(self):
        d = Distribution(1, {0: Fraction(1), 1: Fraction(0)})
        assert sorted(d.probs) == [0]

    def test_marginal(self):
        d = exact_distribution(2, [1, 2, 3, 2])
        assert marginal(d, 0, 1).probs == {0: Fraction(3, 8), 1: Fraction(5, 8)}
        assert marginal(d, 1, 2).probs == {0: Fraction(1, 2), 1: Fraction(1, 2)}


class TestTvDistance:
    def test_identical_is_zero(self):
        d = exact_distribution(2, [1, 0, 3, 0])
        assert tv_distance(d, d) == 0

    def test_disjoint_is_one(self):
        assert tv_distance(point_mass(1, 0), point_mass(1, 1)) == 1

    def test_uniform_vs_point_mass(self):
        # direct summation: (1/2)(|1/2 - 1| + |1/2 - 0|) = 1/2
        assert tv_distance(uniform_distribution(1), point_mass(1, 0)) == Fraction(1, 2)

    def test_width_mismatch(self):
        with pytest.raises(WidthError):
            tv_distance(uniform_distribution(1), uniform_distribution(2))


class TestFidelity:
    def test_identical_is_one(self):
        d = exact_distribution(2, [1, 2, 3, 10])
        assert fidelity(d, d) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_is_zero(self):
        assert fidelity(point_mass(1, 0), point_mass(1, 1)) == 0.0

    def test_uniform_vs_point_mass(self):
        expected = math.sqrt(0.5)  # sqrt((1/2)*1) summed over the single shared key
        assert fidelity(uniform_distribution(1), point_mass(1, 0)) == pytest.approx(
            expected, abs=1e-12
        )


class TestCosine:
    def test_identical_is_one(self):
        d = exact_distribution(3, [1, 5, 0, 2, 0, 0, 1, 4])
        assert cosine_similarity(d, d) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_is_zero(self):
        assert cosine_similarity(point_mass(1, 0), point_mass(1, 1)) == 0.0

    def test_uniform_two_points_vs_point_mass(self):
        # (1/2) / ((1/sqrt(2)) * 1)
        value = cosine_similarity(uniform_distribution(1), point_mass(1, 0))
        assert value == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_degenerate_rejected(self):
        # the constructor forbids zero mass, so forge one to hit the guard
        degenerate = object.__new__(Distribution)
        object.__setattr__(degenerate, "width", 1)
        object.__setattr__(degenerate, "probs", {})
        good = uniform_distribution(1)
        with pytest.raises(ValueError, match="nonzero mass"):
            cosine_similarity(good, degenerate)


@settings(max_examples=80, deadline=None)
@given(exact_pairs())
def test_metrics_symmetric(pair):
    d0, d1 = pair
    assert tv_distance(d0, d1) == tv_distance(d1, d0)
    assert fidelity(d0, d1) == fidelity(d1, d0)


@settings(max_examples=80, deadline=None)
@given(exact_pairs())
def test_fidelity_tv_bounds(pair):
    d0, d1 = pair
    delta = float(tv_distance(d0, d1))
    f = fidelity(d0, d1)
    assert 1 - f <= delta + 1e-9
    assert delta <= math.sqrt(max(0.0, 1 - f * f)) + 1e-9


def test_fidelity_tv_bounds_seeded_sweep():
    rng = derive_rng(11, "metric-bounds")
    for _ in range(300):
        width = int(rng.integers(1, 5))
        n = 1 << width
        pair = []
        for _ in range(2):
            weights = rng.integers(0, 20, n)
            if weights.sum() == 0:
                weights[0] = 1
            pair.append(exact_distribution(width, [int(w) for w in weights]))
        delta = float(tv_distance(*pair))
        f = fidelity(*pair)
        assert 1 - f <= delta + 1e-9
        assert delta <= math.sqrt(max(0.0, 1 - f * f)) + 1e-9
