"""KeyRegistry: content addressing, persistence, revocation, indexing."""

from dataclasses import replace

import pytest

from repro.core.keys import model_fingerprint
from repro.service.registry import KeyRegistry, RegistryError


@pytest.fixture()
def second_key(quantized_awq4, activation_stats, emmark_config):
    """A key for the same model with a different owner seed ``d``."""
    from repro.engine import WatermarkEngine

    config = emmark_config.with_overrides(seed=emmark_config.seed + 7)
    _, key, _ = WatermarkEngine().insert(quantized_awq4, activation_stats, config=config)
    return key


class TestInMemory:
    def test_register_and_lookup(self, watermarked_and_key):
        _, key = watermarked_and_key
        registry = KeyRegistry()
        record = registry.register(key, owner="acme", metadata={"ticket": "IP-1"})
        assert record.key_id == key.fingerprint()
        assert record.owner == "acme"
        assert record.model_fingerprint == key.model_fingerprint()
        assert registry.get_key(record.key_id) is key
        assert record.key_id in registry
        assert len(registry) == 1

    def test_register_is_idempotent_and_first_owner_wins(self, watermarked_and_key):
        _, key = watermarked_and_key
        registry = KeyRegistry()
        first = registry.register(key, owner="acme")
        second = registry.register(key, owner="mallory")
        assert second is first
        assert registry.get_record(first.key_id).owner == "acme"
        assert len(registry) == 1

    def test_distinct_keys_coexist(self, watermarked_and_key, second_key):
        _, key = watermarked_and_key
        registry = KeyRegistry()
        registry.register(key, owner="acme")
        registry.register(second_key, owner="bob")
        assert len(registry) == 2
        assert len(registry.active_keys()) == 2

    def test_unknown_key_raises(self):
        registry = KeyRegistry()
        with pytest.raises(RegistryError, match="unknown key id"):
            registry.get_key("wmk-missing")

    def test_revocation_hides_key_from_serving(self, watermarked_and_key):
        _, key = watermarked_and_key
        registry = KeyRegistry()
        record = registry.register(key, owner="acme")
        registry.revoke(record.key_id)
        assert registry.get_record(record.key_id).revoked
        assert registry.active_keys() == {}
        with pytest.raises(RegistryError, match="revoked"):
            registry.active_keys([record.key_id])
        # The record (audit trail) is still there.
        assert len(registry) == 1

    def test_selection_by_explicit_ids(self, watermarked_and_key, second_key):
        _, key = watermarked_and_key
        registry = KeyRegistry()
        record = registry.register(key)
        registry.register(second_key)
        selected = registry.active_keys([record.key_id])
        assert list(selected) == [record.key_id]

    def test_model_fingerprint_index(self, watermarked_and_key, second_key, quantized_awq4):
        _, key = watermarked_and_key
        registry = KeyRegistry()
        registry.register(key)
        registry.register(second_key)
        fingerprint = model_fingerprint(quantized_awq4)
        assert set(registry.keys_for_model(fingerprint)) == {
            key.fingerprint(),
            second_key.fingerprint(),
        }
        assert registry.keys_for_model("wmm-nonexistent") == {}

    def test_stats(self, watermarked_and_key):
        _, key = watermarked_and_key
        registry = KeyRegistry()
        record = registry.register(key)
        registry.revoke(record.key_id)
        stats = registry.stats()
        expected = {
            "keys": 1,
            "active": 0,
            "revoked": 1,
            "models": 1,
            "multi_owner_models": 0,
            "owners": 0,
            "persistent": False,
            "quarantined": 0,
            "key_loads": 0,
            # Revocation drops the ticket: revoked keys are never served.
            "tickets": 0,
        }
        assert stats == expected


class TestFingerprintIndexCollisions:
    """Several keys sharing one model-identity fingerprint (co-residency)."""

    def test_same_model_fingerprint_indexes_both_keys(
        self, watermarked_and_key, second_key, quantized_awq4
    ):
        _, key = watermarked_and_key
        assert key.model_fingerprint() == second_key.model_fingerprint()
        registry = KeyRegistry()
        registry.register(key, owner="acme")
        registry.register(second_key, owner="globex")
        fingerprint = model_fingerprint(quantized_awq4)
        assert set(registry.keys_for_model(fingerprint)) == {
            key.fingerprint(), second_key.fingerprint()
        }
        assert registry.owners_for_model(fingerprint) == {
            key.fingerprint(): "acme",
            second_key.fingerprint(): "globex",
        }
        assert registry.stats()["multi_owner_models"] == 1
        assert registry.stats()["owners"] == 2

    def test_revoking_one_leaves_the_other_verifiable(
        self, watermarked_and_key, second_key, quantized_awq4
    ):
        from repro.engine import WatermarkEngine

        watermarked, key = watermarked_and_key
        registry = KeyRegistry()
        registry.register(key, owner="acme")
        other = registry.register(second_key, owner="globex")
        registry.revoke(other.key_id)
        fingerprint = model_fingerprint(quantized_awq4)
        survivors = registry.keys_for_model(fingerprint)
        assert list(survivors) == [key.fingerprint()]
        assert registry.stats()["multi_owner_models"] == 0
        # The surviving key still proves ownership end to end.
        result = WatermarkEngine().extract(
            watermarked, survivors[key.fingerprint()], strict_layout=False
        )
        assert result.wer_percent == 100.0
        assert registry.owner_of(key.fingerprint()) == "acme"

    def test_co_resident_keys_collide_on_index_not_identity(
        self, quantized_awq4, activation_stats
    ):
        """Multi-owner keys of one model: same index entry, distinct ids."""
        from repro.engine import WatermarkEngine

        result = WatermarkEngine().insert_multi(quantized_awq4, activation_stats, 2)
        keys = result.keys()
        registry = KeyRegistry()
        for owner_id, key in keys.items():
            registry.register(key, owner=owner_id)
        ids = [key.fingerprint() for key in keys.values()]
        assert len(set(ids)) == 2
        fingerprint = model_fingerprint(quantized_awq4)
        assert set(registry.keys_for_model(fingerprint)) == set(ids)
        records = registry.records_for_model(fingerprint)
        assert [record.co_residents for record in records] == [["owner-1"], ["owner-0"]]

    def test_revoking_one_co_resident_keeps_the_other_extractable(
        self, quantized_awq4, activation_stats
    ):
        from repro.engine import WatermarkEngine

        engine = WatermarkEngine()
        result = engine.insert_multi(quantized_awq4, activation_stats, 2)
        registry = KeyRegistry()
        records = {
            owner_id: registry.register(key, owner=owner_id)
            for owner_id, key in result.keys().items()
        }
        registry.revoke(records["owner-0"].key_id)
        fingerprint = model_fingerprint(quantized_awq4)
        survivors = registry.keys_for_model(fingerprint)
        assert list(survivors) == [records["owner-1"].key_id]
        # Revocation of owner-0 must not disturb owner-1's evidence: the
        # occupancy owner-1 was planned under travels in its own key.
        extraction = engine.extract(
            result.model, survivors[records["owner-1"].key_id], strict_layout=False
        )
        assert extraction.wer_percent == 100.0


class TestPersistence:
    def test_round_trip_through_directory(self, watermarked_and_key, tmp_path):
        _, key = watermarked_and_key
        registry = KeyRegistry(tmp_path / "reg")
        record = registry.register(key, owner="acme", metadata={"ticket": "IP-1"})

        reloaded = KeyRegistry(tmp_path / "reg")
        assert len(reloaded) == 1
        loaded_record = reloaded.get_record(record.key_id)
        assert loaded_record.owner == "acme"
        assert loaded_record.metadata == {"ticket": "IP-1"}
        assert loaded_record.model_fingerprint == key.model_fingerprint()
        loaded_key = reloaded.get_key(record.key_id)
        assert loaded_key.fingerprint() == key.fingerprint()

    def test_revocation_persists(self, watermarked_and_key, tmp_path):
        _, key = watermarked_and_key
        registry = KeyRegistry(tmp_path / "reg")
        record = registry.register(key)
        registry.revoke(record.key_id)
        reloaded = KeyRegistry(tmp_path / "reg")
        assert reloaded.get_record(record.key_id).revoked
        assert reloaded.active_keys() == {}

    def test_corrupt_archive_quarantined_on_first_load(
        self, watermarked_and_key, tmp_path
    ):
        """Startup is record-only; a damaged NPZ surfaces (and quarantines)
        at first key-material access instead of bricking the registry."""
        _, key = watermarked_and_key
        registry = KeyRegistry(tmp_path / "reg")
        record = registry.register(key)
        archive = tmp_path / "reg" / record.key_id / "watermark_key.npz"
        archive.write_bytes(b"corrupted")

        reloaded = KeyRegistry(tmp_path / "reg")
        assert len(reloaded) == 1  # record indexed fine
        with pytest.raises(RegistryError, match="corrupt registry entry"):
            reloaded.get_key(record.key_id)
        # The entry is quarantined and dropped from the index.
        assert record.key_id not in reloaded
        assert reloaded.stats()["quarantined"] == 1
        assert (tmp_path / "reg" / f"{record.key_id}.corrupt").exists()

    def test_corrupt_record_quarantined_at_startup(
        self, watermarked_and_key, second_key, tmp_path
    ):
        """A bad record.json quarantines that entry; the rest still load."""
        _, key = watermarked_and_key
        registry = KeyRegistry(tmp_path / "reg")
        bad = registry.register(key, owner="acme")
        good = registry.register(second_key, owner="globex")
        (tmp_path / "reg" / bad.key_id / "record.json").write_text("{not json")

        reloaded = KeyRegistry(tmp_path / "reg")
        assert len(reloaded) == 1
        assert good.key_id in reloaded
        assert reloaded.stats()["quarantined"] == 1
        assert (tmp_path / "reg" / f"{bad.key_id}.corrupt").exists()
        # The survivor's material still loads.
        assert reloaded.get_key(good.key_id).fingerprint() == second_key.fingerprint()

    @pytest.mark.parametrize("persisted", [1, 64])
    def test_record_only_startup_defers_bulk_reads(
        self, watermarked_and_key, tmp_path, persisted
    ):
        # Residency is a count, not a timing, so it must not move with the
        # number of persisted keys: the extra keys are synthetic renames of
        # the real one (distinct ids and model fingerprints, same arrays).
        _, key = watermarked_and_key
        writer = KeyRegistry(tmp_path / "reg")
        writer.register(key, owner="acme")
        for i in range(1, persisted):
            writer.register(replace(key, model_name=f"synth-{i:04d}"), owner="acme")

        reloaded = KeyRegistry(tmp_path / "reg")
        kid = key.fingerprint()
        stats = reloaded.stats()
        assert stats["keys"] == persisted
        assert stats["key_loads"] == 0
        assert stats["tickets"] == 0
        assert not reloaded.tickets_resident()
        assert not reloaded.tickets_resident([kid])
        # First touch: one key load derives the ticket, which stays resident.
        reloaded.active_keys([kid])
        stats = reloaded.stats()
        assert stats["key_loads"] == 1
        assert stats["tickets"] == 1
        assert reloaded.tickets_resident([kid])
        # Every other persisted key stays cold until its own first touch.
        assert reloaded.tickets_resident() is (persisted == 1)
        reloaded.active_keys([kid])
        assert reloaded.stats()["key_loads"] == 1
        # Revocation drops the ticket (so with one key no active key is
        # cold), and the revoked id is left to active_keys to refuse.
        reloaded.revoke(kid)
        assert reloaded.tickets_resident() is (persisted == 1)
        assert not reloaded.tickets_resident([kid])
        assert not reloaded.tickets_resident(["no-such-key"])

    def test_tickets_stay_resident_and_keys_load_on_demand(
        self, watermarked_and_key, second_key, tmp_path
    ):
        """Registering leaves tickets, not keys, in memory: verification never
        reads the disk, while every full-key access does (and keeps nothing)."""
        _, key = watermarked_and_key
        registry = KeyRegistry(tmp_path / "reg")
        first = registry.register(key, owner="acme")
        registry.register(second_key, owner="globex")
        assert registry.stats()["tickets"] == 2

        tickets = registry.active_keys()
        assert set(tickets) == {first.key_id, second_key.fingerprint()}
        assert tickets[first.key_id].key_id == first.key_id
        assert registry.stats()["key_loads"] == 0

        assert registry.get_key(first.key_id).fingerprint() == key.fingerprint()
        assert registry.get_key(first.key_id).fingerprint() == key.fingerprint()
        assert registry.stats()["key_loads"] == 2
        assert registry.stats()["tickets"] == 2

    def test_ticket_verdicts_match_a_parent_layout_registry(
        self, watermarked_and_key, tmp_path
    ):
        """A registry read back from disk derives tickets whose verdicts
        equal the key's own (older archive layouts: the legacy test below)."""
        from repro.engine import WatermarkEngine

        watermarked, key = watermarked_and_key
        KeyRegistry(tmp_path / "reg").register(key, owner="acme")
        reloaded = KeyRegistry(tmp_path / "reg")
        tickets = reloaded.active_keys()
        engine = WatermarkEngine()
        from_tickets = engine.verify_fleet({"s": watermarked}, tickets)
        from_key = engine.verify_fleet({"s": watermarked}, {key.fingerprint(): key})
        got, want = from_tickets.pairs[0].to_dict(), from_key.pairs[0].to_dict()
        got.pop("seconds")
        want.pop("seconds")
        assert got == want
        assert got["wer_percent"] == 100.0

    def test_legacy_layout_entries_reopen_and_verify_identically(
        self, watermarked_and_key, second_key, activation_stats, tmp_path
    ):
        """Entries whose archives still carry ``activations/{rms,max,gram}``
        reopen under their ids, verify like the keys themselves, and are
        never rewritten."""
        from repro.engine import WatermarkEngine
        from tests.conftest import save_legacy_key

        watermarked, key = watermarked_and_key
        keys = {k.fingerprint(): k for k in (key, second_key)}
        writer = KeyRegistry(tmp_path / "reg")
        for k in keys.values():
            writer.register(k, owner="acme")
        archives = {}
        for kid, k in keys.items():
            entry = save_legacy_key(k, activation_stats, tmp_path / "reg" / kid)
            archives[kid] = (entry / "watermark_key.npz").read_bytes()

        reloaded = KeyRegistry(tmp_path / "reg")
        engine = WatermarkEngine()
        from_tickets = engine.verify_fleet({"s": watermarked}, reloaded.active_keys())
        from_keys = engine.verify_fleet({"s": watermarked}, keys)
        assert [dict(p.to_dict(), seconds=None) for p in from_tickets.pairs] == [
            dict(p.to_dict(), seconds=None) for p in from_keys.pairs
        ]
        for kid in keys:
            assert reloaded.get_key(kid).fingerprint() == kid
            archive = tmp_path / "reg" / kid / "watermark_key.npz"
            assert archive.read_bytes() == archives[kid]
        assert reloaded.stats()["quarantined"] == 0
