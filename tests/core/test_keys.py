"""WatermarkKey serialization, fingerprinting and error paths.

Covers the registry-facing contract: the directory save/load round trip must
preserve every field the verification pipeline consumes (config, activation
statistics, reference weights, outliers), fingerprints must be stable and
content-sensitive, and corrupted files must fail loudly with a clear error
instead of producing a subtly wrong key.
"""

import numpy as np
import pytest

from repro.core.config import EmMarkConfig
from repro.core.keys import WatermarkKey, layer_shapes_fingerprint, model_fingerprint
from repro.engine import WatermarkEngine
from tests.conftest import save_legacy_key


@pytest.fixture(scope="module")
def inserted(quantized_awq4, activation_stats):
    """One insertion shared by the module: (watermarked model, key)."""
    config = EmMarkConfig.scaled_for_model(quantized_awq4, bits_per_layer=8)
    engine = WatermarkEngine()
    watermarked, key, _ = engine.insert(quantized_awq4, activation_stats, config=config)
    return watermarked, key


class TestSaveLoadRoundTrip:
    def test_round_trip_preserves_signature_and_config(self, inserted, tmp_path):
        _, key = inserted
        key.save(tmp_path / "key")
        loaded = WatermarkKey.load(tmp_path / "key")
        np.testing.assert_array_equal(loaded.signature, key.signature)
        assert loaded.config == key.config
        assert loaded.layer_names == key.layer_names
        assert loaded.method == key.method
        assert loaded.bits == key.bits
        assert loaded.model_name == key.model_name

    def test_round_trip_preserves_reference_weights_and_outliers(self, inserted, tmp_path):
        _, key = inserted
        key.save(tmp_path / "key")
        loaded = WatermarkKey.load(tmp_path / "key")
        assert set(loaded.reference_weights) == set(key.reference_weights)
        for name in key.reference_weights:
            np.testing.assert_array_equal(
                loaded.reference_weights[name], key.reference_weights[name]
            )
        assert set(loaded.outlier_columns) == set(key.outlier_columns)
        for name in key.outlier_columns:
            np.testing.assert_array_equal(
                loaded.outlier_columns[name], key.outlier_columns[name]
            )

    def test_round_trip_preserves_activation_stats(self, inserted, tmp_path):
        """Activation fidelity is what makes reloaded keys reproduce locations."""
        _, key = inserted
        key.save(tmp_path / "key")
        loaded = WatermarkKey.load(tmp_path / "key")
        assert set(loaded.activations.layers()) == set(key.activations.layers())
        for name in key.activations.layers():
            np.testing.assert_allclose(
                loaded.activations.channel_saliency(name),
                key.activations.channel_saliency(name),
            )

    def test_loaded_key_extracts_at_full_wer(self, inserted, tmp_path):
        watermarked, key = inserted
        key.save(tmp_path / "key")
        loaded = WatermarkKey.load(tmp_path / "key")
        result = WatermarkEngine().extract(watermarked, loaded)
        assert result.wer_percent == 100.0

    def test_metadata_round_trip(self, inserted, tmp_path):
        _, key = inserted
        key.metadata["owner"] = "acme"
        try:
            key.save(tmp_path / "key")
        finally:
            key.metadata.pop("owner")
        loaded = WatermarkKey.load(tmp_path / "key")
        assert loaded.metadata == {"owner": "acme"}


class TestCorruptedFiles:
    def test_missing_directory_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            WatermarkKey.load(tmp_path / "nope")

    def test_missing_archive_raises_file_not_found(self, inserted, tmp_path):
        _, key = inserted
        key.save(tmp_path / "key")
        (tmp_path / "key" / "watermark_key.npz").unlink()
        with pytest.raises(FileNotFoundError):
            WatermarkKey.load(tmp_path / "key")

    def test_corrupted_json_raises_value_error(self, inserted, tmp_path):
        _, key = inserted
        key.save(tmp_path / "key")
        (tmp_path / "key" / "watermark_key.json").write_text("{not json")
        with pytest.raises(ValueError, match="corrupted watermark key metadata"):
            WatermarkKey.load(tmp_path / "key")

    def test_corrupted_archive_raises_value_error(self, inserted, tmp_path):
        _, key = inserted
        key.save(tmp_path / "key")
        (tmp_path / "key" / "watermark_key.npz").write_bytes(b"\x00garbage\xff" * 16)
        with pytest.raises(ValueError, match="corrupted watermark key archive"):
            WatermarkKey.load(tmp_path / "key")

    def test_inconsistent_meta_raises_value_error(self, inserted, tmp_path):
        """Metadata referencing layers absent from the archive must not load."""
        _, key = inserted
        meta, arrays = key.to_payload()
        meta = dict(meta)
        meta["layer_names"] = list(meta["layer_names"]) + ["blocks.99.attn.q_proj"]
        with pytest.raises(ValueError):
            WatermarkKey.from_payload(meta, arrays)


class TestFingerprints:
    def test_fingerprint_is_stable(self, inserted):
        _, key = inserted
        assert key.fingerprint() == key.fingerprint()
        assert key.fingerprint().startswith("wmk-")

    def test_fingerprint_survives_round_trip(self, inserted, tmp_path):
        _, key = inserted
        key.save(tmp_path / "key")
        assert WatermarkKey.load(tmp_path / "key").fingerprint() == key.fingerprint()

    def test_fingerprint_changes_with_signature(self, inserted):
        _, key = inserted
        flipped = WatermarkKey(
            signature=-key.signature,
            config=key.config,
            reference_weights=key.reference_weights,
            activations=key.activations,
            layer_names=key.layer_names,
            method=key.method,
            bits=key.bits,
            model_name=key.model_name,
            outlier_columns=key.outlier_columns,
        )
        assert flipped.fingerprint() != key.fingerprint()

    def test_fingerprint_changes_with_seed(self, inserted):
        _, key = inserted
        reseeded = WatermarkKey(
            signature=key.signature,
            config=key.config.with_overrides(seed=key.config.seed + 1),
            reference_weights=key.reference_weights,
            activations=key.activations,
            layer_names=key.layer_names,
            method=key.method,
            bits=key.bits,
            model_name=key.model_name,
        )
        assert reseeded.fingerprint() != key.fingerprint()

    def test_fingerprint_changes_with_reference_weights(self, inserted):
        """A retrained same-name model must not collide with the old key."""
        _, key = inserted
        retrained_weights = {
            name: weights.copy() for name, weights in key.reference_weights.items()
        }
        first = key.reference_weights[key.layer_names[0]]
        retrained_weights[key.layer_names[0]] = np.where(first < 0, first + 1, first - 1)
        retrained = WatermarkKey(
            signature=key.signature,
            config=key.config,
            reference_weights=retrained_weights,
            activations=key.activations,
            layer_names=key.layer_names,
            method=key.method,
            bits=key.bits,
            model_name=key.model_name,
        )
        assert retrained.fingerprint() != key.fingerprint()

    def test_fingerprint_changes_with_activations(self, inserted):
        """Re-collected calibration activations move locations → new key id."""
        _, key = inserted
        perturbed = {
            name: key.activations.channel_saliency(name) * 1.5
            for name in key.activations.layers()
        }
        from repro.models.activations import ActivationStats

        recalibrated = WatermarkKey(
            signature=key.signature,
            config=key.config,
            reference_weights=key.reference_weights,
            activations=ActivationStats(mean_abs=perturbed),
            layer_names=key.layer_names,
            method=key.method,
            bits=key.bits,
            model_name=key.model_name,
        )
        assert recalibrated.fingerprint() != key.fingerprint()

    def test_model_fingerprint_matches_suspects_of_same_model(self, inserted, quantized_awq4):
        """The key's index entry matches both clean and watermarked deployments."""
        watermarked, key = inserted
        assert key.model_fingerprint() == model_fingerprint(quantized_awq4)
        assert key.model_fingerprint() == model_fingerprint(watermarked)

    def test_model_fingerprint_distinguishes_precision(self, quantized_awq4, quantized_int8):
        assert model_fingerprint(quantized_awq4) != model_fingerprint(quantized_int8)

    def test_layer_shapes_fingerprint_sensitive_to_shape(self):
        base = {"a": (4, 8)}
        same = layer_shapes_fingerprint("m", "awq", 4, base)
        assert same == layer_shapes_fingerprint("m", "awq", 4, {"a": (4, 8)})
        assert same != layer_shapes_fingerprint("m", "awq", 4, {"a": (8, 4)})
        assert same != layer_shapes_fingerprint("m", "awq", 8, base)
        assert same != layer_shapes_fingerprint("other", "awq", 4, base)


class TestPayloadMembers:
    def test_payload_holds_exactly_what_extraction_reads(
        self, trained_model, activation_stats
    ):
        """Signature, weights, outliers and per-layer ``A_f`` — no other
        calibration statistic, though the insertion was handed all of them."""
        from repro.quant.api import quantize_model

        int8 = quantize_model(trained_model, "llm_int8", bits=8, activations=activation_stats)
        _, key, _ = WatermarkEngine().insert(int8, activation_stats)
        _, arrays = key.to_payload()
        families = {name.rsplit("/", 1)[0] for name in arrays}
        assert families == {"signature", "weights", "outliers", "activations/mean_abs"}
        assert {name for name in arrays if name.startswith("activations/")} == {
            f"activations/mean_abs/{name}" for name in key.layer_names
        }
        assert activation_stats.gram and activation_stats.maximum
        assert not (key.activations.rms or key.activations.maximum or key.activations.gram)


class TestLegacyArchive:
    """Archives written with every calibration statistic still load: the
    ``activations/{rms,max,gram}`` members are ignored, never rewritten."""

    def test_mmap_load_gives_the_same_id_locations_and_verdict(
        self, inserted, activation_stats, tmp_path
    ):
        watermarked, key = inserted
        entry = save_legacy_key(key, activation_stats, tmp_path / "legacy")
        archive = (entry / "watermark_key.npz").read_bytes()
        loaded = WatermarkKey.load(entry, mmap=True)
        assert (entry / "watermark_key.npz").read_bytes() == archive
        assert loaded.fingerprint() == key.fingerprint()
        assert set(loaded.activations.mean_abs) == set(key.layer_names)
        assert not (loaded.activations.rms or loaded.activations.maximum or loaded.activations.gram)
        engine = WatermarkEngine()
        expected = engine.ticket_for(key)
        ticket = engine.ticket_for(loaded)
        assert [layer.name for layer in ticket.layers] == key.layer_names
        for got, want in zip(ticket.layers, expected.layers):
            np.testing.assert_array_equal(got.locations, want.locations)
            np.testing.assert_array_equal(got.reference, want.reference)
        assert engine.verify(watermarked, loaded) is engine.verify(watermarked, key) is True
