"""Tests for prefix, interval and continuous-prefix set systems."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, EmptySampleError
from repro.setsystems import (
    ContinuousPrefixSystem,
    Interval,
    IntervalSystem,
    Prefix,
    PrefixSystem,
)


class TestPrefixRange:
    def test_contains_below_and_at_bound(self):
        prefix = Prefix(5)
        assert 1 in prefix
        assert 5 in prefix

    def test_excludes_above_bound(self):
        assert 6 not in Prefix(5)


class TestIntervalRange:
    def test_contains_endpoints_and_interior(self):
        interval = Interval(2, 7)
        assert 2 in interval and 7 in interval and 4 in interval

    def test_excludes_outside(self):
        interval = Interval(2, 7)
        assert 1 not in interval and 8 not in interval

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            Interval(5, 2)


class TestPrefixSystemStructure:
    def test_cardinality_equals_universe_size(self):
        assert PrefixSystem(17).cardinality() == 17

    def test_vc_dimension_is_one(self):
        assert PrefixSystem(100).vc_dimension() == 1

    def test_range_enumeration(self):
        bounds = [prefix.bound for prefix in PrefixSystem(4).ranges()]
        assert bounds == [1, 2, 3, 4]

    def test_invalid_universe_rejected(self):
        with pytest.raises(ConfigurationError):
            PrefixSystem(0)

    def test_contains_element(self):
        system = PrefixSystem(10)
        assert system.contains_element(1)
        assert system.contains_element(10)
        assert not system.contains_element(11)
        assert not system.contains_element(0)


class TestPrefixDiscrepancy:
    def test_identical_sequences_have_zero_error(self):
        system = PrefixSystem(10)
        data = [1, 3, 3, 7, 9]
        assert system.max_discrepancy(data, data).error == pytest.approx(0.0)

    def test_sample_of_smallest_elements_has_large_error(self):
        system = PrefixSystem(100)
        stream = list(range(1, 101))
        sample = [1, 2, 3, 4, 5]
        result = system.max_discrepancy(stream, sample)
        # d(sample) = 1 at prefix [1,5]; d(stream) = 0.05.
        assert result.error == pytest.approx(0.95)
        assert result.witness.bound == 5

    def test_uniform_subsample_has_small_error(self):
        system = PrefixSystem(100)
        stream = list(range(1, 101))
        sample = list(range(5, 101, 10))
        assert system.max_discrepancy(stream, sample).error <= 0.06

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySampleError):
            PrefixSystem(10).max_discrepancy([1, 2], [])

    def test_matches_brute_force_enumeration(self):
        system = PrefixSystem(12)
        stream = [1, 2, 2, 5, 7, 7, 7, 11, 12]
        sample = [2, 7, 12]
        fast = system.max_discrepancy(stream, sample).error
        brute = max(
            abs(system.density(range_, stream) - system.density(range_, sample))
            for range_ in system.ranges()
        )
        assert fast == pytest.approx(brute)

    def test_huge_integer_elements_handled_exactly(self):
        # Values far above 2^53 must not be merged by float conversion.
        system = PrefixSystem(2**200)
        base = 2**150
        stream = [base + i for i in range(100)]
        sample = stream[:5]
        assert system.max_discrepancy(stream, sample).error == pytest.approx(0.95)

    def test_is_epsilon_approximation_thresholds(self):
        system = PrefixSystem(100)
        stream = list(range(1, 101))
        sample = list(range(2, 101, 4))
        error = system.max_discrepancy(stream, sample).error
        assert system.is_epsilon_approximation(stream, sample, error + 0.01)
        assert not system.is_epsilon_approximation(stream, sample, error - 0.01)


class TestIntervalSystemStructure:
    def test_cardinality_formula(self):
        assert IntervalSystem(5).cardinality() == 15

    def test_vc_dimension_is_two(self):
        assert IntervalSystem(10).vc_dimension() == 2

    def test_vc_dimension_degenerate_universe(self):
        assert IntervalSystem(1).vc_dimension() == 1

    def test_range_enumeration_count(self):
        assert sum(1 for _ in IntervalSystem(6).ranges()) == 21


class TestIntervalDiscrepancy:
    def test_identical_sequences_have_zero_error(self):
        system = IntervalSystem(10)
        data = [2, 4, 4, 9]
        assert system.max_discrepancy(data, data).error == pytest.approx(0.0)

    def test_matches_brute_force_enumeration(self):
        system = IntervalSystem(10)
        stream = [1, 1, 3, 4, 6, 6, 8, 10]
        sample = [1, 4, 6]
        fast = system.max_discrepancy(stream, sample).error
        brute = max(
            abs(system.density(range_, stream) - system.density(range_, sample))
            for range_ in system.ranges()
        )
        assert fast == pytest.approx(brute)

    def test_middle_gap_detected(self):
        # The sample misses the middle cluster entirely; the worst interval is
        # the middle cluster itself, which prefixes alone under-estimate.
        system = IntervalSystem(30)
        stream = [1] * 10 + [15] * 10 + [30] * 10
        sample = [1] * 5 + [30] * 5
        result = system.max_discrepancy(stream, sample)
        assert result.error == pytest.approx(1.0 / 3.0)

    def test_witness_is_a_valid_range(self):
        system = IntervalSystem(30)
        stream = [1] * 10 + [15] * 10 + [30] * 10
        sample = [1] * 5 + [30] * 5
        witness = system.max_discrepancy(stream, sample).witness
        assert 15 in witness
        assert 1 not in witness or 30 not in witness

    def test_interval_error_at_least_prefix_error(self):
        intervals = IntervalSystem(50)
        prefixes = PrefixSystem(50)
        stream = [1, 5, 10, 20, 20, 35, 40, 50, 50, 50]
        sample = [5, 20, 50]
        assert (
            intervals.max_discrepancy(stream, sample).error
            >= prefixes.max_discrepancy(stream, sample).error - 1e-12
        )


class TestContinuousPrefixSystem:
    def test_cardinality_is_undefined(self):
        with pytest.raises(ConfigurationError):
            ContinuousPrefixSystem().cardinality()

    def test_log_cardinality_is_infinite(self):
        assert ContinuousPrefixSystem().log_cardinality() == float("inf")

    def test_range_enumeration_is_refused(self):
        with pytest.raises(ConfigurationError):
            list(ContinuousPrefixSystem().ranges())

    def test_discrepancy_on_real_data(self):
        system = ContinuousPrefixSystem()
        stream = [i / 100 for i in range(100)]
        sample = [i / 100 for i in range(0, 100, 10)]
        assert system.max_discrepancy(stream, sample).error <= 0.1

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            ContinuousPrefixSystem(1.0, 0.0)

    def test_contains_element(self):
        system = ContinuousPrefixSystem(0.0, 1.0)
        assert system.contains_element(0.5)
        assert not system.contains_element(1.5)


NAN = float("nan")


class TestNaNRejected:
    """NaN has no place in the order the prefix and interval judges sweep."""

    @pytest.mark.parametrize("system", [PrefixSystem(100), IntervalSystem(100)])
    def test_nan_in_stream_on_the_float_path(self, system):
        # This call used to report 0.75 for the prefix system.
        with pytest.raises(ConfigurationError):
            system.max_discrepancy([0, 500, NAN, 3], [3])

    @pytest.mark.parametrize("system", [PrefixSystem(100), IntervalSystem(100)])
    def test_nan_in_sample_on_the_float_path(self, system):
        with pytest.raises(ConfigurationError):
            system.max_discrepancy([1, 2, 3], [2, NAN])

    @pytest.mark.parametrize("system", [PrefixSystem(2**80), IntervalSystem(2**80)])
    def test_nan_in_stream_on_the_exact_path(self, system):
        # Integers above 2^53 route the sweep to exact order comparisons.
        with pytest.raises(ConfigurationError):
            system.max_discrepancy([2**60, NAN, 2**70], [2**60])

    @pytest.mark.parametrize("system", [PrefixSystem(2**80), IntervalSystem(2**80)])
    def test_nan_in_sample_on_the_exact_path(self, system):
        with pytest.raises(ConfigurationError):
            system.max_discrepancy([2**60, 2**61, 2**70], [NAN, 2**70])

    def test_infinity_is_still_ordered(self):
        result = PrefixSystem(100).max_discrepancy([1, float("inf"), 3], [3])
        assert result.error == pytest.approx(1 / 3)
