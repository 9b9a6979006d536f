"""Tests for the watermark-strength bound (Equation 8)."""

import numpy as np
import pytest

from repro.core.strength import (
    false_claim_probability,
    log10_watermark_strength,
    required_bits_for_strength,
    watermark_strength,
)


class TestFalseClaimProbability:
    def test_matching_zero_bits_is_certain(self):
        assert false_claim_probability(40, 0) == 1.0

    def test_small_exact_values(self):
        # P[X >= 2] for X ~ Binomial(2, 0.5) = 0.25; P[X >= 1] = 0.75.
        assert false_claim_probability(2, 2) == pytest.approx(0.25)
        assert false_claim_probability(2, 1) == pytest.approx(0.75)

    def test_paper_value_40_bits(self):
        """Full 40-bit match probability: the paper quotes 9.09e-13."""
        value = false_claim_probability(40, 40)
        assert value == pytest.approx(0.5 ** 40, rel=1e-9)
        assert value == pytest.approx(9.09e-13, rel=0.01)

    def test_paper_value_100_bits(self):
        """Full 100-bit match: the paper quotes 1.57e-30 (actually 0.5**100 ≈ 7.9e-31)."""
        value = false_claim_probability(100, 100)
        assert value == pytest.approx(0.5 ** 100, rel=1e-9)

    def test_monotone_in_matched_bits(self):
        values = [false_claim_probability(40, k) for k in range(0, 41, 5)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            false_claim_probability(0, 0)
        with pytest.raises(ValueError):
            false_claim_probability(10, 11)
        with pytest.raises(ValueError):
            false_claim_probability(10, -1)


class TestFalseClaimMemo:
    """Eq. 8 is memoized; the cache must be invisible to every caller."""

    @pytest.mark.parametrize("n", [1, 24, 100, 432])
    def test_memoized_values_are_bit_equal_to_the_computation(self, n):
        false_claim_probability.cache_clear()
        for k in range(n + 1):
            direct = np.float64(false_claim_probability.__wrapped__(n, k)).tobytes()
            first = false_claim_probability(n, k)  # computed and cached
            again = false_claim_probability(n, k)  # served from the cache
            assert type(first) is float
            assert np.float64(first).tobytes() == direct
            assert np.float64(again).tobytes() == direct

    def test_numpy_integers_give_the_same_float(self):
        false_claim_probability.cache_clear()
        for n, k in [(24, 13), (100, 100), (432, 250)]:
            python_first = false_claim_probability(n, k)
            assert false_claim_probability(np.int64(n), np.int64(k)) == python_first
            assert false_claim_probability(np.int32(n), k) == python_first
        false_claim_probability.cache_clear()
        numpy_first = false_claim_probability(np.int64(24), np.int64(13))
        assert numpy_first == false_claim_probability.__wrapped__(24, 13)
        assert type(numpy_first) is float

    def test_cache_is_bounded(self):
        assert false_claim_probability.cache_info().maxsize is not None

    def test_invalid_arguments_raise_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError):
                false_claim_probability(0, 0)
            with pytest.raises(ValueError):
                false_claim_probability(10, 11)
            with pytest.raises(ValueError):
                false_claim_probability(np.int64(10), np.int64(-1))


class TestWatermarkStrength:
    def test_single_layer_equals_false_claim(self):
        assert watermark_strength(20, 1) == pytest.approx(false_claim_probability(20, 20))

    def test_multiple_layers_compound(self):
        single = watermark_strength(10, 1)
        triple = watermark_strength(10, 3)
        assert triple == pytest.approx(single ** 3)

    def test_partial_match_fraction(self):
        full = watermark_strength(20, 1, matched_fraction=1.0)
        partial = watermark_strength(20, 1, matched_fraction=0.5)
        assert partial > full

    def test_underflow_returns_zero(self):
        assert watermark_strength(300, 192) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            watermark_strength(10, 0)
        with pytest.raises(ValueError):
            watermark_strength(10, 1, matched_fraction=0.0)


class TestLog10Strength:
    def test_matches_direct_computation_when_representable(self):
        direct = np.log10(watermark_strength(30, 2))
        assert log10_watermark_strength(30, 2) == pytest.approx(direct, rel=1e-9)

    def test_never_underflows(self):
        value = log10_watermark_strength(300, 192)
        assert np.isfinite(value)
        assert value < -10_000

    def test_paper_figure3_order_of_magnitude(self):
        """100 bits per layer -> ~1e-30 per layer; OPT-2.7B (192 layers) -> ~1e-5760."""
        per_layer = log10_watermark_strength(100, 1)
        assert -31 < per_layer < -29
        whole_model = log10_watermark_strength(100, 192)
        assert -5820 < whole_model < -5700


class TestRequiredBits:
    def test_round_trip(self):
        bits = required_bits_for_strength(1e-12, num_layers=1)
        assert false_claim_probability(bits, bits) <= 1e-12
        assert false_claim_probability(bits - 1, bits - 1) > 1e-12

    def test_more_layers_need_fewer_bits(self):
        single = required_bits_for_strength(1e-12, num_layers=1)
        many = required_bits_for_strength(1e-12, num_layers=24)
        assert many < single

    def test_validation(self):
        with pytest.raises(ValueError):
            required_bits_for_strength(1.5)
        with pytest.raises(ValueError):
            required_bits_for_strength(1e-3, num_layers=0)
