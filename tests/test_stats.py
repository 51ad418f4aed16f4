import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frugal.stats import GammaInputs, _gamma_of_count, gamma_bound, min_samples_for_target
from support import (
    bisect_min_samples,
    expanded_gamma_bound,
    gamma_reference,
    massart_bound,
    mc_rademacher,
)


def make_inputs(**overrides):
    base = dict(round_index=3, sample_count=100_000, cap=8, f_value=3, confidence=0.05)
    base.update(overrides)
    return GammaInputs(**base)


class TestGammaBound:
    def test_unit_class_drops_complexity_term(self):
        inputs = make_inputs(f_value=1)
        b = inputs.sample_count
        expected = 2.0 * math.sqrt(
            (2.0 / b)
            * (math.log(8) + 2.0 * math.log(inputs.cap * b * inputs.round_index)
               - math.log(inputs.confidence))
        )
        assert gamma_bound(inputs) == pytest.approx(expected, rel=1e-12)

    def test_reference_point_value(self):
        # Frozen evaluation at (t=3, b=1e5, tau=8, f=3, zeta=0.05).
        inputs = make_inputs()
        value = gamma_bound(inputs)
        assert value > 0
        assert value == pytest.approx(
            gamma_reference(3, 100_000, 8, 3, 0.05), abs=1e-12
        )

    def test_decreasing_in_sample_count(self):
        small = gamma_bound(make_inputs(sample_count=10**3))
        large = gamma_bound(make_inputs(sample_count=10**6))
        assert large < small

    def test_agrees_with_reference_form(self):
        # 100 random inputs, two independently coded expressions, 1e-12.
        rng = np.random.default_rng(11)
        for _ in range(100):
            inputs = GammaInputs(
                round_index=int(rng.integers(1, 60)),
                sample_count=int(rng.integers(1, 10**7)),
                cap=int(rng.integers(1, 2**20)),
                f_value=int(rng.integers(1, 10**9)),
                confidence=float(rng.uniform(0.001, 0.999)),
            )
            expected = gamma_reference(
                inputs.round_index, inputs.sample_count, inputs.cap,
                inputs.f_value, inputs.confidence,
            )
            assert gamma_bound(inputs) == pytest.approx(expected, abs=1e-12, rel=1e-12)

    def test_monotone_in_each_argument(self):
        base = make_inputs()
        value = gamma_bound(base)
        assert gamma_bound(make_inputs(f_value=30)) >= value
        assert gamma_bound(make_inputs(cap=64)) >= value
        assert gamma_bound(make_inputs(round_index=9)) >= value
        assert gamma_bound(make_inputs(confidence=0.005)) >= value

    def test_vanishes_with_polynomial_class_growth(self):
        values = []
        for b in (10**3, 10**4, 10**5, 10**6):
            values.append(gamma_bound(make_inputs(sample_count=b, f_value=b)))
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.05

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            make_inputs(sample_count=0)
        with pytest.raises(ValueError):
            make_inputs(f_value=0)
        with pytest.raises(ValueError):
            make_inputs(confidence=1.0)

    @pytest.mark.parametrize("name", ["round_index", "sample_count", "cap", "f_value"])
    @pytest.mark.parametrize("value", [1.5, 3.0, True, "3"])
    def test_integer_fields_reject_non_integers(self, name, value):
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got {value!r}$"):
            make_inputs(**{name: value})

    @pytest.mark.parametrize("name", ["round_index", "sample_count", "cap", "f_value"])
    def test_integer_fields_accept_numpy_ints(self, name):
        inputs = make_inputs(**{name: np.int64(5)})
        assert gamma_bound(inputs) == gamma_bound(make_inputs(**{name: 5}))

    @pytest.mark.parametrize("confidence", [0.0, 1.0])
    def test_confidence_rejected_at_the_ends(self, confidence):
        with pytest.raises(ValueError, match=r"confidence must lie in \(0, 1\)"):
            make_inputs(confidence=confidence)
        inside = math.nextafter(confidence, 0.5)
        assert make_inputs(confidence=inside).confidence == inside


ROUNDS = st.integers(1, 40)
CAPS = st.integers(1, 2**60)
F_VALUES = st.integers(1, 2**62)
CONFIDENCES = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
COUNTS = st.integers(1, 2_000_000)


class TestSizingFunction:
    """The sizing function of the sample count is the bound itself, float for
    float, so bisecting it returns the counts the validated bound gives."""

    @given(ROUNDS, CAPS, F_VALUES, CONFIDENCES, COUNTS)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_bound_exactly(self, round_index, cap, f_value, confidence, b):
        inputs = GammaInputs(round_index, b, cap, f_value, confidence)
        value = _gamma_of_count(round_index, cap, f_value, confidence)(b)
        assert value == gamma_bound(inputs)
        assert value == expanded_gamma_bound(inputs)

    @given(ROUNDS, CAPS, F_VALUES, CONFIDENCES, COUNTS, st.integers(0, 2_000_000),
           st.integers(0, 2_000_000), st.sampled_from([-math.inf, 0.0, math.inf]))
    @settings(max_examples=200, deadline=None)
    def test_sizing_matches_the_validated_bisection(self, round_index, cap, f_value, zeta,
                                                    lower, pivot_offset, span, nudge):
        # The target sits on, or one float either side of, the bound at a
        # pivot count, so ties decide; a pivot past ``upper`` gives None.
        pivot, upper = lower + pivot_offset, lower + span
        exact = expanded_gamma_bound(GammaInputs(round_index, pivot, cap, f_value,
                                                 confidence=zeta))
        target = exact if nudge == 0.0 else math.nextafter(exact, nudge)
        expected = bisect_min_samples(round_index, cap, f_value, zeta, target, lower, upper)
        assert min_samples_for_target(
            round_index, cap, f_value, zeta, target, lower, upper
        ) == expected


class TestMassartBound:
    def test_single_vector_is_zero(self):
        assert massart_bound([(3.0, 1.0, 4.0)]) == 0.0

    def test_two_vector_example(self):
        # r = 2, bound = 2 sqrt(2 ln 2) / 4.
        bound = massart_bound([(1, 1, 1, 1), (0, 0, 0, 0)])
        assert bound == pytest.approx(2 * math.sqrt(2 * math.log(2)) / 4)
        assert bound == pytest.approx(0.5887, abs=5e-5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            massart_bound([(1, 2), (1, 2, 3)])

    @given(
        st.lists(
            st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        ),
        st.floats(0.1, 7.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_homogeneous_in_scale(self, vectors, scale):
        base = massart_bound(vectors)
        scaled = massart_bound([[scale * x for x in v] for v in vectors])
        assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-12)


class TestMcRademacher:
    def test_single_vector_exact_is_zero(self):
        assert mc_rademacher([(2.0, -1.0, 3.0)], trials=10) == pytest.approx(0.0)

    def test_zero_vector_floors_at_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            vectors = [tuple(rng.normal(size=4)), (0.0, 0.0, 0.0, 0.0)]
            assert mc_rademacher(vectors, trials=5) >= 0.0

    def test_hand_enumeration(self):
        # Patterns (+,+),(+,-),(-,+),(-,-) give 1,0,0,0; mean 0.25.
        value = mc_rademacher([(1.0, 1.0), (0.0, 0.0)], trials=5)
        assert value == pytest.approx(0.25)
        assert value <= massart_bound([(1.0, 1.0), (0.0, 0.0)])

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            mc_rademacher([(1.0,)], trials=0)

    def test_mc_mode_close_to_exact(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(4, 25))  # N=25 forces sampling mode
        est1 = mc_rademacher(vectors, trials=40_000, seed=1)
        est2 = mc_rademacher(vectors, trials=40_000, seed=2)
        assert est1 == pytest.approx(est2, abs=0.02)

    def test_dominated_by_massart_on_random_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            count = int(rng.integers(1, 6))
            length = int(rng.integers(2, 17))
            vectors = rng.uniform(-3, 3, size=(count, length))
            assert mc_rademacher(vectors, trials=1) <= massart_bound(vectors) + 1e-12
