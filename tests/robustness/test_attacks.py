"""Tests for the attack registry and the LLM.int8() attack-effectiveness fix.

The regression class here is the one the gauntlet was built to close:
attacks that write into LLM.int8() outlier columns change integer values
that ``effective_weight()`` overrides with full precision, so the deployed
model — and the watermark, which never lives there — would see a weaker
attack than reported.
"""

import pickle

import numpy as np
import pytest

from repro.robustness import (
    ATTACK_REGISTRY,
    AttackOutcome,
    available_attacks,
    build_attack,
    corpus_free_attacks,
    register_attack,
)
from repro.robustness.attacks import AttackSpec
from repro.utils.rng import new_rng


class TestRegistry:
    def test_builtin_attacks_registered(self):
        assert {"none", "overwrite", "rewatermark", "pruning",
                "lora-finetune", "requantize", "gptq-requantize",
                "scale-tamper", "outlier-rewrite", "structured-prune",
                "adaptive-overwrite", "adaptive-oracle", "soup"} <= set(available_attacks())

    def test_registry_holds_eleven_plus_attacks(self):
        # The adversary-expansion acceptance bar.
        assert len(available_attacks()) >= 11

    def test_corpus_free_subset(self):
        free = set(corpus_free_attacks())
        for needs_resources in ("rewatermark", "lora-finetune", "gptq-requantize",
                                "adaptive-overwrite", "adaptive-oracle", "soup"):
            assert needs_resources not in free
        assert {"none", "overwrite", "pruning", "requantize",
                "scale-tamper", "outlier-rewrite", "structured-prune"} <= free

    def test_base_model_required_for_soup(self):
        # The true two-clone soup needs the virgin base, not a corpus.
        with pytest.raises(ValueError, match="virgin base model"):
            build_attack("soup")
        with pytest.raises(ValueError, match="virgin base model"):
            build_attack("soup", calibration_corpus=object())

    def test_unknown_attack_raises(self):
        with pytest.raises(KeyError, match="unknown attack"):
            build_attack("weight-exorcism")

    def test_corpus_required(self):
        with pytest.raises(ValueError, match="calibration corpus"):
            build_attack("rewatermark")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_attack
            class Duplicate(AttackSpec):
                name = "overwrite"

    def test_custom_attack_pluggable(self):
        @register_attack
        class NoiseAttack(AttackSpec):
            name = "test-noise"
            strength_unit = "levels"
            default_strengths = (1,)

            def apply(self, model, strength, rng):
                return AttackOutcome(model=model.clone())

        try:
            spec = build_attack("test-noise")
            assert spec.describe()["name"] == "test-noise"
        finally:
            del ATTACK_REGISTRY["test-noise"]

    def test_describe_is_jsonable(self):
        import json

        for name in available_attacks():
            cls = ATTACK_REGISTRY[name]
            spec = cls.__new__(cls)  # describe() only reads class attributes
            json.dumps(AttackSpec.describe(spec))


class TestSpecBehaviour:
    def test_identity_returns_equal_copy(self, quantized_awq4):
        outcome = build_attack("none").apply(quantized_awq4, 0, new_rng(0))
        assert outcome.model is not quantized_awq4
        for name in quantized_awq4.layer_names():
            np.testing.assert_array_equal(
                outcome.model.get_layer(name).weight_int,
                quantized_awq4.get_layer(name).weight_int,
            )

    def test_overwrite_spec_deterministic_per_rng(self, quantized_awq4):
        spec = build_attack("overwrite")
        a = spec.apply(quantized_awq4, 30, new_rng(5, "cell")).model
        b = spec.apply(quantized_awq4, 30, new_rng(5, "cell")).model
        c = spec.apply(quantized_awq4, 30, new_rng(6, "cell")).model
        name = quantized_awq4.layer_names()[0]
        np.testing.assert_array_equal(a.get_layer(name).weight_int,
                                      b.get_layer(name).weight_int)
        assert not np.array_equal(a.get_layer(name).weight_int,
                                  c.get_layer(name).weight_int)

    def test_requantize_preserves_layout(self, quantized_awq4):
        outcome = build_attack("requantize").apply(quantized_awq4, 8, new_rng(0))
        assert outcome.model.layer_names() == quantized_awq4.layer_names()
        assert outcome.model.bits == 8
        assert outcome.info["requantized_bits"] == 8

    def test_rewatermark_overrides_rejected_at_build_time(self, small_dataset):
        corpus = small_dataset.calibration
        with pytest.raises(ValueError, match="strength axis"):
            build_attack("rewatermark", calibration_corpus=corpus, bits_per_layer=5)
        with pytest.raises(TypeError, match="bogus"):
            build_attack("rewatermark", calibration_corpus=corpus, bogus=1)
        spec = build_attack("rewatermark", calibration_corpus=corpus, alpha=0.5)
        assert spec.config.alpha == 0.5

    def test_rewatermark_describe_reports_the_adversary(self, small_dataset):
        spec = build_attack("rewatermark", calibration_corpus=small_dataset.calibration)
        described = spec.describe()
        assert (described["alpha"], described["beta"], described["seed"]) == (1.0, 1.5, 22)
        assert described["signature_seed"] == 999
        overridden = build_attack(
            "rewatermark", calibration_corpus=small_dataset.calibration,
            seed=7, signature_seed=8,
        ).describe()
        assert (overridden["seed"], overridden["signature_seed"]) == (7, 8)

    def test_rewatermark_spec_zero_strength_is_identity(self, quantized_awq4, small_dataset):
        spec = build_attack("rewatermark", calibration_corpus=small_dataset.calibration)
        outcome = spec.apply(quantized_awq4, 0, new_rng(0))
        assert outcome.attacker_key is None
        for name in quantized_awq4.layer_names():
            np.testing.assert_array_equal(
                outcome.model.get_layer(name).weight_int,
                quantized_awq4.get_layer(name).weight_int,
            )


@pytest.fixture(scope="module")
def owner_setup(request):
    """An owner's (EmMark, original, watermarked, key) on the AWQ INT4 model."""
    from repro.core import EmMark, EmMarkConfig

    quantized = request.getfixturevalue("quantized_awq4")
    stats = request.getfixturevalue("activation_stats")
    emmark = EmMark(EmMarkConfig.scaled_for_model(quantized, bits_per_layer=8))
    watermarked, key, _ = emmark.insert_with_key(quantized, stats)
    return emmark, quantized, watermarked, key


class TestOverwriteAttack:
    def test_zero_strength_is_identity(self, quantized_awq4):
        attacked = build_attack("overwrite").apply(quantized_awq4, 0, new_rng(0)).model
        for name in quantized_awq4.layer_names():
            np.testing.assert_array_equal(
                attacked.get_layer(name).weight_int, quantized_awq4.get_layer(name).weight_int
            )

    def test_original_model_untouched(self, quantized_awq4):
        snapshot = quantized_awq4.integer_weight_snapshot()
        build_attack("overwrite").apply(quantized_awq4, 50, new_rng(0))
        for name, weights in snapshot.items():
            np.testing.assert_array_equal(weights, quantized_awq4.get_layer(name).weight_int)

    def test_resample_touches_at_most_requested_count(self, quantized_awq4):
        attacked = build_attack("overwrite", style="resample").apply(
            quantized_awq4, 30, new_rng(3)
        ).model
        diff = attacked.weight_difference(quantized_awq4)
        for delta in diff.values():
            assert np.count_nonzero(delta) <= 30

    def test_increment_changes_are_small(self, quantized_awq4):
        attacked = build_attack("overwrite", style="increment").apply(
            quantized_awq4, 30, new_rng(3)
        ).model
        diff = attacked.weight_difference(quantized_awq4)
        for delta in diff.values():
            assert np.max(np.abs(delta)) <= 1

    def test_grid_respected(self, quantized_awq4):
        attacked = build_attack("overwrite", style="resample").apply(
            quantized_awq4, 200, new_rng(1)
        ).model
        for layer in attacked.iter_layers():
            assert layer.weight_int.max() <= layer.grid.qmax
            assert layer.weight_int.min() >= layer.grid.qmin

    def test_strength_larger_than_layer_handled(self, quantized_awq4):
        biggest = max(layer.num_weights for layer in quantized_awq4.iter_layers())
        attacked = build_attack("overwrite", style="resample").apply(
            quantized_awq4, biggest + 1000, new_rng(0)
        ).model
        assert attacked.num_quantization_layers == quantized_awq4.num_quantization_layers

    def test_seed_controls_positions(self, quantized_awq4):
        spec = build_attack("overwrite")
        a = spec.apply(quantized_awq4, 40, new_rng(1)).model
        b = spec.apply(quantized_awq4, 40, new_rng(2)).model
        name = quantized_awq4.layer_names()[0]
        assert not np.array_equal(a.get_layer(name).weight_int, b.get_layer(name).weight_int)

    def test_config_validation(self, quantized_awq4):
        with pytest.raises(ValueError):
            build_attack("overwrite").apply(quantized_awq4, -1, new_rng(0))
        # A bad style is refused when the spec is built, not in the first cell.
        with pytest.raises(ValueError, match="style"):
            build_attack("overwrite", style="flip")

    def test_watermark_survives_moderate_attack(self, owner_setup):
        """The headline robustness claim: WER stays high under overwriting."""
        emmark, _, watermarked, key = owner_setup
        attacked = build_attack("overwrite").apply(watermarked, 60, new_rng(5)).model
        wer = emmark.extract_with_key(attacked, key).wer_percent
        # 60 random overwrites in layers of ~1k-4k weights leave the
        # watermark overwhelmingly intact.
        assert wer > 90.0


class TestRewatermarkAttack:
    def test_attack_perturbs_weights(self, owner_setup, small_dataset):
        _, _, watermarked, _ = owner_setup
        spec = build_attack("rewatermark", calibration_corpus=small_dataset.calibration)
        attacked = spec.apply(watermarked, 8, new_rng(0)).model
        diff = attacked.weight_difference(watermarked)
        assert sum(np.count_nonzero(d) for d in diff.values()) > 0

    def test_attacker_can_extract_own_signature(self, owner_setup, small_dataset):
        emmark, _, watermarked, _ = owner_setup
        spec = build_attack("rewatermark", calibration_corpus=small_dataset.calibration)
        outcome = spec.apply(watermarked, 8, new_rng(0))
        attacker_result = emmark.extract_with_key(outcome.model, outcome.attacker_key)
        assert attacker_result.wer_percent > 95.0

    def test_owner_watermark_survives(self, owner_setup, small_dataset):
        """The paper's claim: the owner's WER stays high under attack."""
        emmark, _, watermarked, owner_key = owner_setup
        spec = build_attack("rewatermark", calibration_corpus=small_dataset.calibration)
        attacked = spec.apply(watermarked, 24, new_rng(0)).model
        owner_result = emmark.extract_with_key(attacked, owner_key)
        assert owner_result.wer_percent > 90.0

    def test_attacker_key_does_not_extract_from_original(self, owner_setup, small_dataset):
        emmark, original, watermarked, _ = owner_setup
        spec = build_attack("rewatermark", calibration_corpus=small_dataset.calibration)
        attacker_ticket = spec.apply(watermarked, 8, new_rng(0)).attacker_key
        result = emmark.extract_with_key(original, attacker_ticket)
        assert result.wer_percent < 30.0

    def test_paper_attacker_hyperparameters(self, small_dataset):
        config = build_attack("rewatermark", calibration_corpus=small_dataset.calibration).config
        assert config.alpha == 1.0
        assert config.beta == 1.5
        assert config.seed == 22

    def test_bits_per_layer_validated(self, owner_setup, small_dataset):
        _, _, watermarked, _ = owner_setup
        spec = build_attack("rewatermark", calibration_corpus=small_dataset.calibration)
        with pytest.raises(ValueError, match="rewatermark strength"):
            spec.apply(watermarked, -1, new_rng(0))
        with pytest.raises(ValueError, match="whole number"):
            spec.apply(watermarked, 0.5, new_rng(0))


class TestPruningAttack:
    def test_zero_sparsity_identity(self, quantized_awq4):
        attacked = build_attack("pruning").apply(quantized_awq4, 0.0, new_rng(0)).model
        name = quantized_awq4.layer_names()[0]
        np.testing.assert_array_equal(
            attacked.get_layer(name).weight_int, quantized_awq4.get_layer(name).weight_int
        )

    def test_sparsity_achieved(self, quantized_awq4):
        attacked = build_attack("pruning").apply(quantized_awq4, 0.5, new_rng(0)).model
        for layer in attacked.iter_layers():
            zero_fraction = np.mean(layer.weight_int == 0)
            assert zero_fraction >= 0.45

    def test_smallest_magnitudes_pruned_first(self, quantized_awq4):
        attacked = build_attack("pruning").apply(quantized_awq4, 0.3, new_rng(0)).model
        name = quantized_awq4.layer_names()[0]
        original = quantized_awq4.get_layer(name).weight_int
        pruned = attacked.get_layer(name).weight_int
        newly_zeroed = (original != 0) & (pruned == 0)
        surviving = pruned != 0
        if newly_zeroed.any() and surviving.any():
            assert np.abs(original[newly_zeroed]).max() <= np.abs(original[surviving]).min() + 1

    def test_sparsity_validated(self, quantized_awq4):
        with pytest.raises(ValueError, match=r"pruning strength must be in \[0, 1\]"):
            build_attack("pruning").apply(quantized_awq4, 1.5, new_rng(0))

    def test_moderate_pruning_leaves_watermark_intact(self, owner_setup):
        """Pruning light enough to keep the model alive barely touches the WER."""
        emmark, _, watermarked, key = owner_setup
        attacked = build_attack("pruning").apply(watermarked, 0.4, new_rng(0)).model
        wer = emmark.extract_with_key(attacked, key).wer_percent
        assert wer > 80.0

    def test_heavy_pruning_destroys_quality(self, owner_setup, small_dataset):
        """The paper's argument: pruning strong enough to threaten the
        watermark has already broken the compressed model."""
        from repro.eval.perplexity import compute_perplexity

        _, quantized, watermarked, _ = owner_setup
        attacked = build_attack("pruning").apply(watermarked, 0.9, new_rng(0)).model
        base_ppl = compute_perplexity(quantized, small_dataset.validation, max_sequences=12)
        attacked_ppl = compute_perplexity(attacked, small_dataset.validation, max_sequences=12)
        assert attacked_ppl > base_ppl * 1.2


class TestLoRAFineTuneAttack:
    @staticmethod
    def _attack(watermarked, corpus, steps):
        spec = build_attack("lora-finetune", calibration_corpus=corpus, rank=2)
        return spec.apply(watermarked, steps, new_rng(0))

    def test_quantized_weights_unchanged(self, owner_setup, small_dataset):
        _, _, watermarked, _ = owner_setup
        outcome = self._attack(watermarked, small_dataset.train, 4)
        assert outcome.info["weights_unchanged"] is True
        assert outcome.model is not watermarked

    def test_watermark_fully_extractable_after_attack(self, owner_setup, small_dataset):
        emmark, _, watermarked, key = owner_setup
        outcome = self._attack(watermarked, small_dataset.train, 4)
        assert emmark.extract_with_key(outcome.model, key).wer_percent == 100.0

    def test_final_loss_reported(self, owner_setup, small_dataset):
        _, _, watermarked, _ = owner_setup
        outcome = self._attack(watermarked, small_dataset.train, 3)
        assert np.isfinite(outcome.info["final_loss"])


#: Strengths outside each built-in attack's domain, with the message part
#: naming it.
_OUT_OF_DOMAIN = [
    ("overwrite", -5, ">= 0"),
    ("overwrite", 2.5, "whole number"),
    ("rewatermark", -1, ">= 0"),
    ("pruning", 2.0, r"in \[0, 1\]"),
    ("lora-finetune", 1.5, "whole number"),
    ("requantize", 0, r"in \[2, 16\]"),
    ("requantize", 4.5, "whole number"),
    ("gptq-requantize", 32, r"in \[2, 16\]"),
    ("scale-tamper", -0.2, ">= 0"),
    ("outlier-rewrite", 1.5, r"in \[0, 1\]"),
    ("structured-prune", 1.0, r"in \[0, 1\)"),
    ("adaptive-overwrite", -1, ">= 0"),
    ("adaptive-oracle", 1.5, r"in \[0, 1\]"),
    ("soup", -0.5, r"in \[0, 1\]"),
    ("none", float("nan"), "finite"),
    ("overwrite", float("inf"), ">= 0"),
]


class TestStrengthDomain:
    """One domain check per spec: apply and grid construction both call it."""

    @pytest.mark.parametrize(
        "name, strength, message", _OUT_OF_DOMAIN,
        ids=[f"{name}@{strength}" for name, strength, _ in _OUT_OF_DOMAIN],
    )
    def test_out_of_domain_refused(self, name, strength, message):
        with pytest.raises(ValueError, match=f"{name} strength .*{message}"):
            ATTACK_REGISTRY[name].check_strength(strength)

    def test_default_sweeps_are_in_domain(self):
        for cls in ATTACK_REGISTRY.values():
            for strength in cls.default_strengths:
                cls.check_strength(strength)

    def test_boundaries_accepted(self):
        ATTACK_REGISTRY["overwrite"].check_strength(25.0)
        ATTACK_REGISTRY["pruning"].check_strength(1.0)
        ATTACK_REGISTRY["structured-prune"].check_strength(0.99)
        ATTACK_REGISTRY["requantize"].check_strength(2)
        ATTACK_REGISTRY["requantize"].check_strength(16)

    def test_gauntlet_refuses_the_grid_before_any_cell(self, awq_subject, gauntlet_engine):
        from repro.robustness import run_gauntlet

        applied = []

        class Spy(AttackSpec):
            name = "spy"

            def apply(self, model, strength, rng):
                applied.append(strength)
                return AttackOutcome(model=model.clone())

        with pytest.raises(ValueError, match="structured-prune strength"):
            run_gauntlet(
                {"m": awq_subject},
                [Spy(), build_attack("structured-prune")],
                {"spy": (0,), "structured-prune": (0.0, 1.0)},
                engine=gauntlet_engine, evaluate_quality=False,
            )
        assert applied == []


class TestLLMInt8AttackEffectiveness:
    """Attack strength must reflect *effective* weights on LLM.int8() models."""

    def test_overwrite_avoids_outlier_columns(self, quantized_llm_int8):
        attacked = build_attack("overwrite").apply(quantized_llm_int8, 50, new_rng(11)).model
        for name in quantized_llm_int8.layer_names():
            layer = quantized_llm_int8.get_layer(name)
            delta = attacked.get_layer(name).weight_int - layer.weight_int
            if layer.outlier_columns is not None:
                assert not np.any(delta[:, layer.outlier_columns]), (
                    f"attack wrote into full-precision outlier columns of {name}"
                )

    def test_every_integer_hit_lands_in_effective_weights(self, quantized_llm_int8):
        """No silent no-ops: integer changes == effective-weight changes."""
        attacked = build_attack("overwrite").apply(quantized_llm_int8, 60, new_rng(3)).model
        total_int_changes = 0
        for name in quantized_llm_int8.layer_names():
            before = quantized_llm_int8.get_layer(name)
            after = attacked.get_layer(name)
            int_changed = before.weight_int != after.weight_int
            effective_changed = before.effective_weight() != after.effective_weight()
            np.testing.assert_array_equal(int_changed, effective_changed)
            total_int_changes += int(np.count_nonzero(int_changed))
        assert total_int_changes > 0

    def test_full_strength_touches_every_quantized_position(self, quantized_llm_int8):
        """Saturating the attack rewrites the whole quantized mask — no more."""
        biggest = max(layer.num_weights for layer in quantized_llm_int8.iter_layers())
        attacked = build_attack("overwrite", style="increment").apply(
            quantized_llm_int8, biggest, new_rng(1)
        ).model
        for name in quantized_llm_int8.layer_names():
            before = quantized_llm_int8.get_layer(name)
            after = attacked.get_layer(name)
            delta = after.weight_int - before.weight_int
            mask = before.quantized_mask()
            assert not np.any(delta[~mask])
            # ±1 increments only miss where clipping pinned a saturated level.
            unchanged_quantized = np.count_nonzero((delta == 0) & mask)
            saturated = np.count_nonzero(before.saturated_mask() & mask)
            assert unchanged_quantized <= saturated

    def test_watermarked_int8_wer_drops_under_saturating_attack(
        self, int8_subject, gauntlet_engine
    ):
        """The headline regression: on INT8 models the attack must actually
        reach the watermark (pre-fix, hits in outlier columns were wasted)."""
        biggest = max(layer.num_weights for layer in int8_subject.model.iter_layers())
        attacked = build_attack("overwrite").apply(int8_subject.model, biggest, new_rng(2)).model
        wer = gauntlet_engine.extract(attacked, int8_subject.key, strict_layout=False).wer_percent
        # A full-strength resample leaves each bit only a chance match.
        assert wer < 50.0


class TestScaleTamperingAttack:
    """Float-domain tampering must never reach the integer-domain watermark."""

    def test_zero_strength_is_identity(self, quantized_awq4):
        outcome = build_attack("scale-tamper").apply(quantized_awq4, 0.0, new_rng(0))
        for name in quantized_awq4.layer_names():
            np.testing.assert_array_equal(
                outcome.model.get_layer(name).scale,
                quantized_awq4.get_layer(name).scale,
            )

    def test_perturbs_scales_and_smoothing_but_not_weights(self, quantized_awq4):
        outcome = build_attack("scale-tamper").apply(quantized_awq4, 0.2, new_rng(1))
        assert outcome.info["weight_int_untouched"] is True
        assert outcome.info["layers_with_smoothing"] > 0
        for name in quantized_awq4.layer_names():
            before = quantized_awq4.get_layer(name)
            after = outcome.model.get_layer(name)
            np.testing.assert_array_equal(before.weight_int, after.weight_int)
            assert not np.array_equal(before.scale, after.scale)
            assert np.all(after.scale > 0)
            if before.input_smoothing is not None:
                assert not np.array_equal(before.input_smoothing, after.input_smoothing)

    def test_wer_stays_perfect_under_heavy_tampering(self, awq_subject, gauntlet_engine):
        outcome = build_attack("scale-tamper").apply(awq_subject.model, 0.5, new_rng(7))
        result = gauntlet_engine.extract(outcome.model, awq_subject.key, strict_layout=False)
        assert result.wer_percent == 100.0

    def test_quality_actually_damaged(self, awq_subject):
        outcome = build_attack("scale-tamper").apply(awq_subject.model, 0.5, new_rng(7))
        baseline = awq_subject.harness.evaluate(awq_subject.model)
        tampered = awq_subject.harness.evaluate(outcome.model)
        assert tampered.perplexity > baseline.perplexity


class TestOutlierColumnAttack:
    """Rewriting LLM.int8() full-precision columns: quality-only damage."""

    def test_rewrites_outlier_entries_only(self, quantized_llm_int8):
        outcome = build_attack("outlier-rewrite").apply(quantized_llm_int8, 1.0, new_rng(2))
        assert outcome.info["entries_rewritten"] > 0
        for name in quantized_llm_int8.layer_names():
            before = quantized_llm_int8.get_layer(name)
            after = outcome.model.get_layer(name)
            np.testing.assert_array_equal(before.weight_int, after.weight_int)
            np.testing.assert_array_equal(before.scale, after.scale)
            if before.outlier_weight is not None and before.outlier_weight.size:
                assert not np.array_equal(before.outlier_weight, after.outlier_weight)
                # The damage lands exactly in the outlier columns of the
                # effective weights — nowhere else.
                changed = before.effective_weight() != after.effective_weight()
                outside = np.ones(before.in_features, dtype=bool)
                outside[before.outlier_columns] = False
                assert not np.any(changed[:, outside])

    def test_noop_on_backends_without_outliers(self, quantized_awq4):
        outcome = build_attack("outlier-rewrite").apply(quantized_awq4, 1.0, new_rng(2))
        assert outcome.info["entries_rewritten"] == 0
        assert outcome.info["layers_with_outliers"] == 0
        for name in quantized_awq4.layer_names():
            np.testing.assert_array_equal(
                outcome.model.get_layer(name).weight_int,
                quantized_awq4.get_layer(name).weight_int,
            )

    def test_watermark_untouched_at_full_strength(self, int8_subject, gauntlet_engine):
        outcome = build_attack("outlier-rewrite").apply(int8_subject.model, 1.0, new_rng(3))
        result = gauntlet_engine.extract(outcome.model, int8_subject.key, strict_layout=False)
        assert result.wer_percent == 100.0


class TestStructuredPruningAttack:
    """Head/row removal: real shape changes, tolerated by strict_layout=False."""

    def test_zero_strength_is_identity(self, quantized_awq4):
        outcome = build_attack("structured-prune").apply(quantized_awq4, 0.0, new_rng(0))
        assert outcome.model.layer_names() == quantized_awq4.layer_names()
        assert "pruned_rows" not in outcome.model.metadata

    def test_rows_removed_from_qkv_and_fc_in_only(self, quantized_awq4):
        outcome = build_attack("structured-prune").apply(quantized_awq4, 0.5, new_rng(4))
        pruned = outcome.model.metadata["pruned_rows"]
        for name in quantized_awq4.layer_names():
            before = quantized_awq4.get_layer(name)
            after = outcome.model.get_layer(name)
            if name.endswith((".attn.q_proj", ".attn.k_proj", ".attn.v_proj", ".mlp.fc_in")):
                assert after.out_features < before.out_features
                assert name in pruned
                assert pruned[name]["out_features"] == before.out_features
                kept = np.asarray(pruned[name]["kept_rows"])
                np.testing.assert_array_equal(after.weight_int, before.weight_int[kept])
            else:
                assert after.out_features == before.out_features
                np.testing.assert_array_equal(after.weight_int, before.weight_int)

    def test_same_heads_dropped_across_qkv_of_a_block(self, quantized_awq4):
        outcome = build_attack("structured-prune").apply(quantized_awq4, 0.5, new_rng(4))
        pruned = outcome.model.metadata["pruned_rows"]
        for block in range(quantized_awq4.config.n_layers):
            kept = {
                proj: tuple(pruned[f"blocks.{block}.attn.{proj}"]["kept_rows"])
                for proj in ("q_proj", "k_proj", "v_proj")
            }
            assert kept["q_proj"] == kept["k_proj"] == kept["v_proj"]

    def test_materialize_and_quality_eval_still_work(self, awq_subject):
        outcome = build_attack("structured-prune").apply(awq_subject.model, 0.5, new_rng(5))
        quality = awq_subject.harness.evaluate(outcome.model)
        baseline = awq_subject.harness.evaluate(awq_subject.model)
        # Deleting half of every block must hurt (the attack's cost story).
        assert quality.perplexity > baseline.perplexity

    def test_extraction_tolerates_reshaped_layers(self, awq_subject, gauntlet_engine):
        outcome = build_attack("structured-prune").apply(awq_subject.model, 0.25, new_rng(6))
        result = gauntlet_engine.extract(outcome.model, awq_subject.key, strict_layout=False)
        # Reshaped layers contribute 0; every untouched layer keeps its bits.
        assert 0.0 < result.wer_percent < 100.0
        reshaped = set(outcome.model.metadata["pruned_rows"])
        assert reshaped
        for name, wer in result.per_layer_wer.items():
            assert wer == (0.0 if name in reshaped else 100.0)


class TestAdaptiveOverwriteAttack:
    def test_zero_strength_is_identity(self, quantized_awq4, small_dataset):
        spec = build_attack("adaptive-overwrite", calibration_corpus=small_dataset.calibration)
        outcome = spec.apply(quantized_awq4, 0, new_rng(0))
        for name in quantized_awq4.layer_names():
            np.testing.assert_array_equal(
                outcome.model.get_layer(name).weight_int,
                quantized_awq4.get_layer(name).weight_int,
            )

    def test_deterministic_per_rng(self, quantized_awq4, small_dataset):
        spec = build_attack("adaptive-overwrite", calibration_corpus=small_dataset.calibration)
        a = spec.apply(quantized_awq4, 40, new_rng(5, "cell")).model
        b = spec.apply(quantized_awq4, 40, new_rng(5, "cell")).model
        for name in quantized_awq4.layer_names():
            np.testing.assert_array_equal(
                a.get_layer(name).weight_int, b.get_layer(name).weight_int
            )

    def test_overwrites_concentrate_inside_union_pool(self, quantized_awq4, small_dataset):
        spec = build_attack("adaptive-overwrite", calibration_corpus=small_dataset.calibration)
        outcome = spec.apply(quantized_awq4, 40, new_rng(8))
        assert 0.0 < outcome.info["mean_union_pool_fraction"] < 1.0
        assert outcome.info["positions_overwritten"] > 0
        for name in quantized_awq4.layer_names():
            changed = np.count_nonzero(
                outcome.model.get_layer(name).weight_int
                != quantized_awq4.get_layer(name).weight_int
            )
            # Resampling can land on the current value, so <= strength.
            assert changed <= 40

    def test_describe_reports_guesses(self, small_dataset):
        spec = build_attack("adaptive-overwrite", calibration_corpus=small_dataset.calibration)
        described = spec.describe()
        assert described["pool_fraction"] == 0.25
        assert [1.0, 1.5] in described["guesses"]


class TestCorpusBackedMemo:
    """Corpus-backed specs estimate the adversary's activations once per subject."""

    @pytest.mark.parametrize(
        "name, strengths",
        [
            ("adaptive-overwrite", (20, 40, 60)),
            ("adaptive-oracle", (0.25, 0.5, 1.0)),
            ("rewatermark", (6, 12, 18)),
        ],
        ids=["adaptive-overwrite", "adaptive-oracle", "rewatermark"],
    )
    def test_activations_estimated_once_per_subject(
        self, name, strengths, quantized_awq4, small_dataset, monkeypatch
    ):
        """A sweep over one subject estimates activations exactly once —
        the estimate is strength- and RNG-independent."""
        import repro.models.activations as activations_module

        spec = build_attack(name, calibration_corpus=small_dataset.calibration)
        calls = []
        real = activations_module.collect_activation_stats

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(activations_module, "collect_activation_stats", counting)
        first, second, third = strengths
        spec.apply(quantized_awq4, first, new_rng(1))
        spec.apply(quantized_awq4, second, new_rng(2))
        assert len(calls) == 1
        # A second subject gets its own entry without evicting the first:
        # interleaved multi-subject sweeps stay once-per-subject.
        other = quantized_awq4.clone()
        spec.apply(other, first, new_rng(3))
        spec.apply(quantized_awq4, third, new_rng(4))
        spec.apply(other, second, new_rng(5))
        assert len(calls) == 2

    def test_rewatermark_memo_matches_the_reference_path(
        self, awq_subject, gauntlet_engine, small_dataset, paper_rewatermark,
        assert_same_ticket,
    ):
        """The memoized spec inserts exactly what an uncached reference
        insertion with the paper's attacker parameters does."""
        model = awq_subject.model
        spec = build_attack("rewatermark", calibration_corpus=small_dataset.calibration)
        for strength in (6, 12):
            outcome = spec.apply(model, strength, new_rng(strength))
            attacked, attacker_ticket = paper_rewatermark(
                model, strength, small_dataset.calibration, gauntlet_engine
            )
            for name in model.layer_names():
                np.testing.assert_array_equal(
                    outcome.model.get_layer(name).weight_int,
                    attacked.get_layer(name).weight_int,
                )
            # The spec hands forward its insertion's ticket; it must equal
            # the one derived from the reference insertion's full key.
            assert_same_ticket(outcome.attacker_key, attacker_ticket)

    def test_pickled_spec_carries_an_empty_memo(self, quantized_awq4, small_dataset):
        spec = build_attack("rewatermark", calibration_corpus=small_dataset.calibration)
        spec.apply(quantized_awq4, 6, new_rng(0))
        assert spec._memo._by_model
        shipped = pickle.loads(pickle.dumps(spec))
        assert shipped._memo._by_model == {}
        assert shipped.config == spec.config


class TestOracleAdaptiveAttack:
    """The adversary holding the owner's exact (α, β) and pool size — not seed d."""

    def test_requires_corpus(self):
        with pytest.raises(ValueError, match="calibration corpus"):
            build_attack("adaptive-oracle")

    def test_zero_coverage_is_identity(self, quantized_awq4, small_dataset):
        spec = build_attack("adaptive-oracle", calibration_corpus=small_dataset.calibration)
        outcome = spec.apply(quantized_awq4, 0.0, new_rng(0))
        for name in quantized_awq4.layer_names():
            np.testing.assert_array_equal(
                outcome.model.get_layer(name).weight_int,
                quantized_awq4.get_layer(name).weight_int,
            )

    def test_coverage_out_of_range_raises(self, quantized_awq4, small_dataset):
        spec = build_attack("adaptive-oracle", calibration_corpus=small_dataset.calibration)
        with pytest.raises(ValueError, match="adaptive-oracle strength"):
            spec.apply(quantized_awq4, 1.5, new_rng(0))

    def test_full_coverage_overwrites_the_entire_estimated_pool(
        self, awq_subject, small_dataset
    ):
        spec = build_attack("adaptive-oracle", calibration_corpus=small_dataset.calibration)
        outcome = spec.apply(awq_subject.model, 1.0, new_rng(1))
        assert outcome.info["positions_overwritten"] == outcome.info["estimated_pool_size"]
        assert outcome.info["knows_exact_coefficients"] is True
        assert outcome.info["knows_seed"] is False
        assert outcome.info["pool_coverage"] == 1.0

    def test_owner_config_is_read_for_coefficients(self, quantized_awq4, small_dataset):
        from repro.core.config import EmMarkConfig

        config = EmMarkConfig.scaled_for_model(quantized_awq4, bits_per_layer=8)
        spec = build_attack(
            "adaptive-oracle",
            calibration_corpus=small_dataset.calibration,
            owner_config=config,
        )
        described = spec.describe()
        assert described["owner_config_supplied"] is True
        assert described["alpha"] == config.alpha
        assert described["beta"] == config.beta

    def test_pools_memoized_per_subject(self, quantized_awq4, small_dataset):
        spec = build_attack("adaptive-oracle", calibration_corpus=small_dataset.calibration)
        first = spec._exact_pools(quantized_awq4)
        assert spec._exact_pools(quantized_awq4) is first

    def test_sweeping_coverage_erodes_the_owner_wer(
        self, awq_subject, gauntlet_engine, small_dataset
    ):
        spec = build_attack(
            "adaptive-oracle",
            calibration_corpus=small_dataset.calibration,
            owner_config=awq_subject.key.config,
        )
        outcome = spec.apply(awq_subject.model, 1.0, new_rng(2))
        owner = gauntlet_engine.extract(outcome.model, awq_subject.key, strict_layout=False)
        # Full pool coverage with the exact coefficients must actually reach
        # watermark positions (the estimated pool overlaps the true one).
        assert owner.wer_percent < 100.0


class TestSoupAttack:
    """True two-clone souping: two independent custodies of one virgin base."""

    @pytest.fixture()
    def soup_spec(self, quantized_awq4, activation_stats):
        return build_attack(
            "soup", base_model=quantized_awq4, base_activations=activation_stats
        )

    def test_zero_ratio_is_identity_without_partner(self, soup_spec, quantized_awq4):
        outcome = soup_spec.apply(quantized_awq4, 0.0, new_rng(0))
        assert outcome.attacker_key is None
        for name in quantized_awq4.layer_names():
            np.testing.assert_array_equal(
                outcome.model.get_layer(name).weight_int,
                quantized_awq4.get_layer(name).weight_int,
            )

    def test_full_ratio_is_exactly_the_partner_clone(
        self, soup_spec, awq_subject, gauntlet_engine
    ):
        outcome = soup_spec.apply(awq_subject.model, 1.0, new_rng(1))
        assert outcome.attacker_key is not None
        assert outcome.info["true_two_clone"] is True
        partner = gauntlet_engine.extract(
            outcome.model, outcome.attacker_key, strict_layout=False
        )
        owner = gauntlet_engine.extract(outcome.model, awq_subject.key, strict_layout=False)
        # The soup *is* clone B: owner B extracts perfectly, owner A's bits
        # are gone (B's clone holds virgin values at A's locations).
        assert partner.wer_percent == 100.0
        assert owner.wer_percent < 30.0

    def test_half_ratio_degrades_both_owners_gracefully(
        self, soup_spec, awq_subject, gauntlet_engine
    ):
        outcome = soup_spec.apply(awq_subject.model, 0.5, new_rng(2))
        owner = gauntlet_engine.extract(outcome.model, awq_subject.key, strict_layout=False)
        partner = gauntlet_engine.extract(
            outcome.model, outcome.attacker_key, strict_layout=False
        )
        # Each owner's extraction tracks the share of the soup drawn from
        # their clone: ~50% each at t=0.5, neither vanishing.
        assert 25.0 < owner.wer_percent < 75.0
        assert 25.0 < partner.wer_percent < 75.0

    def test_partner_is_independent_of_the_subject_watermark(
        self, soup_spec, awq_subject, quantized_awq4, activation_stats, gauntlet_engine,
        assert_same_ticket,
    ):
        # The partner clone derives from the *base*, not the deployed model:
        # souping the virgin base and souping the watermarked deployment at
        # the same cell RNG hand forward the identical partner ticket — the
        # one derived from a partner key inserted here, outside the spec.
        from repro.core.config import EmMarkConfig
        from repro.engine import get_default_engine

        out_a = soup_spec.apply(awq_subject.model, 1.0, new_rng(7))
        out_b = soup_spec.apply(quantized_awq4, 1.0, new_rng(7))
        rng = new_rng(7)
        seed, signature_seed = (int(rng.integers(0, 2**31 - 1)) for _ in range(2))
        config = EmMarkConfig.scaled_for_model(
            quantized_awq4, seed=seed, signature_seed=signature_seed
        )
        _, partner_key, _ = get_default_engine().insert(
            quantized_awq4, activation_stats, config=config
        )
        expected = gauntlet_engine.ticket_for(partner_key)
        assert_same_ticket(out_a.attacker_key, expected)
        assert_same_ticket(out_b.attacker_key, expected)

    def test_info_counts_positions(self, soup_spec, quantized_awq4):
        outcome = soup_spec.apply(quantized_awq4, 0.5, new_rng(3))
        assert outcome.info["positions_differing"] > 0
        assert 0 < outcome.info["positions_taken_from_partner"] <= outcome.info["positions_differing"]


class TestGPTQRequantizeAttack:
    def test_requires_corpus(self):
        with pytest.raises(ValueError, match="calibration corpus"):
            build_attack("gptq-requantize")

    def test_preserves_layout_and_reports_method(self, quantized_awq4, small_dataset):
        spec = build_attack("gptq-requantize", calibration_corpus=small_dataset.calibration)
        outcome = spec.apply(quantized_awq4, 4, new_rng(0))
        assert outcome.model.layer_names() == quantized_awq4.layer_names()
        assert outcome.model.method == "gptq"
        assert outcome.model.bits == 4
        assert outcome.info == {"requantized_bits": 4, "method": "gptq"}

    def test_error_compensation_moves_levels_where_rtn_does_not(
        self, quantized_awq4, small_dataset
    ):
        """GPTQ's error feedback shifts integer levels relative to plain RTN
        at the same bit-width — the gap the GPTQ grids exist to measure."""
        gptq = build_attack(
            "gptq-requantize", calibration_corpus=small_dataset.calibration
        ).apply(quantized_awq4, 4, new_rng(1)).model
        rtn = build_attack("requantize").apply(quantized_awq4, 4, new_rng(1)).model
        differing = sum(
            np.count_nonzero(gptq.get_layer(n).weight_int != rtn.get_layer(n).weight_int)
            for n in quantized_awq4.layer_names()
        )
        assert differing > 0
