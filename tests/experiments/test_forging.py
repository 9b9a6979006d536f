"""Tests for the forging scenarios of the forging experiment (Section 5.3)."""

import pytest

from repro.core import EmMark, EmMarkConfig
from repro.experiments.forging import counterfeit_key_attack, forge_with_fake_locations
from repro.robustness import build_attack
from repro.utils.rng import new_rng


@pytest.fixture(scope="module")
def owner_setup(request):
    quantized = request.getfixturevalue("quantized_awq4")
    stats = request.getfixturevalue("activation_stats")
    emmark = EmMark(EmMarkConfig.scaled_for_model(quantized, bits_per_layer=8))
    watermarked, key, _ = emmark.insert_with_key(quantized, stats)
    return emmark, quantized, watermarked, key


class TestForging:
    def test_fake_locations_rejected(self, owner_setup):
        _, _, watermarked, _ = owner_setup
        outcome = forge_with_fake_locations(watermarked, bits_per_layer=8)
        assert not outcome.accepted
        assert not outcome.reproducible
        assert outcome.location_overlap_fraction < 0.5

    def test_counterfeit_key_dispute_resolves_for_owner(self, owner_setup, small_dataset):
        _, original, watermarked, owner_key = owner_setup
        # The judge checks the adversary's watermark through the ticket his
        # re-watermarking insertion built.
        outcome = build_attack(
            "rewatermark", calibration_corpus=small_dataset.calibration
        ).apply(watermarked, 8, new_rng(0))
        outcomes = counterfeit_key_attack(
            original, outcome.model, owner_key, outcome.attacker_key
        )
        assert outcomes["owner_on_attacked"].accepted
        assert not outcomes["attacker_on_original"].accepted

    def test_outcome_summary_strings(self, owner_setup):
        _, _, watermarked, _ = owner_setup
        outcome = forge_with_fake_locations(watermarked, bits_per_layer=4)
        assert "REJECTED" in outcome.summary()
