"""End-to-end tests of the HTTP verification server.

A module-scoped server (see ``conftest.py``) holds one registered key and the
``hit`` / ``miss`` suspect pair; tests talk to it through the stdlib client.
Mutating scenarios (revocation, rate limiting) spin up their own servers so
the shared one stays pristine.
"""

import http.client
import json
import socket
import threading

import numpy as np
import pytest

from repro.engine import EngineConfig, WatermarkEngine
from repro.service import (
    RateLimitedError,
    ServiceConfig,
    ServiceError,
    VerificationClient,
    VerificationServer,
    run_in_background,
)
from repro.service.codec import (
    WIRE_MEDIA_TYPE,
    key_to_wire,
    model_to_wire,
    pack_arrays,
    unpack_arrays,
)
from repro.utils.serialization import to_jsonable
from tests.conftest import (
    MALFORMED_FRAME_CASES,
    MALFORMED_KEY_CASES,
    MALFORMED_LAYOUT_CASES,
    legacy_key_payload,
    legacy_wire,
    malformed_frame,
    malformed_key_payload,
    malformed_layout_archive,
    one_shot_server,
)


class TestBasicEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0

    def test_keys_listing(self, client, watermarked_and_key):
        _, key = watermarked_and_key
        records = client.keys()
        assert [r["key_id"] for r in records] == [key.fingerprint()]
        assert records[0]["owner"] == "acme"
        assert records[0]["revoked"] is False

    def test_keys_filtered_by_model_fingerprint(self, client, watermarked_and_key):
        _, key = watermarked_and_key
        assert client.keys(model_fingerprint=key.model_fingerprint())
        assert client.keys(model_fingerprint="wmm-none") == []

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/verify")
        assert excinfo.value.status == 405

    def test_invalid_json_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/register", {"owner": "x"})
        assert excinfo.value.status == 400

    def test_deeply_nested_json_is_400(self, server_handle):
        """Nesting past the JSON parser's recursion limit is a bad body, not a 500."""
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server_handle.port, timeout=10)
        try:
            conn.request(
                "POST", "/v1/verify", body=b"[" * 100000,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert payload["error"]["message"].startswith("invalid JSON body")


def _post_raw(port, path, body, content_type=WIRE_MEDIA_TYPE):
    """POST ``body`` as it is over a fresh connection: (status, reply)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body=body, headers={"Content-Type": content_type})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _stored(client):
    """What a refused upload must leave untouched: the key records, the
    stored-suspect count, the verification counter and the jobs."""
    stats = client.stats()
    return (
        client.keys(),
        stats["suspects"]["count"],
        stats["server"]["verifications"],
        client.jobs(),
    )


#: Routes that take a binary frame, with the wire object each one carries.
_FRAMED_ROUTES = [
    ("/v1/verify", "model"),
    ("/v1/suspects", "model"),
    ("/v1/register", "key"),
    ("/v1/jobs/robustness", "model"),
]


class TestIntegerFieldsRejected:
    """An integer field sent with a float dtype is a 400, not a truncation."""

    @staticmethod
    def _with_float_field(wire, field):
        arrays = unpack_arrays(wire["arrays"])
        arrays[field] = arrays[field].astype(np.float64) + 0.7
        return {"meta": wire["meta"], "arrays": pack_arrays(arrays)}

    def _assert_rejected(self, client, path, body):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", path, body)
        assert excinfo.value.status == 400
        assert "must hold integers" in str(excinfo.value)

    def test_register(self, client, watermarked_and_key):
        _, key = watermarked_and_key
        wire = self._with_float_field(key_to_wire(key), f"weights/{key.layer_names[0]}")
        self._assert_rejected(client, "/v1/register", {"owner": "x", "key": wire})

    def test_upload_suspect(self, client, watermarked_and_key):
        watermarked, _ = watermarked_and_key
        wire = self._with_float_field(
            model_to_wire(watermarked), f"weight_int/{watermarked.layer_names()[0]}"
        )
        self._assert_rejected(client, "/v1/suspects", {"model": wire, "suspect_id": "float"})

    def test_verify_inline_model(self, client, watermarked_and_key):
        watermarked, _ = watermarked_and_key
        wire = self._with_float_field(
            model_to_wire(watermarked), f"weight_int/{watermarked.layer_names()[0]}"
        )
        self._assert_rejected(client, "/v1/verify", {"model": wire})


class TestMalformedFrameRejected:
    """A binary body whose framing is broken is a 400 on every route that
    takes one, answered before anything is decoded, admitted or stored."""

    @pytest.mark.parametrize("case", MALFORMED_FRAME_CASES)
    @pytest.mark.parametrize("path, slot", _FRAMED_ROUTES)
    def test_malformed_frame(self, client, server_handle, watermarked_and_key, case, path, slot):
        watermarked, key = watermarked_and_key
        wire = model_to_wire(watermarked) if slot == "model" else key_to_wire(key)
        body = malformed_frame({slot: wire, "suspect_id": "bad", "owner": "x"}, case)
        before = _stored(client)
        status, reply = _post_raw(server_handle.port, path, body)
        assert status == 400
        assert reply["error"]["message"].startswith("invalid wire frame")
        assert MALFORMED_FRAME_CASES[case] in reply["error"]["message"]
        assert _stored(client) == before

    def test_large_co_resident_head_registers(self, quantized_awq4, activation_stats):
        # A co-resident key's head lists the slots its earlier owners hold
        # and grows with them; registration metadata rides in the head too.
        # The head is bounded by the body alone, as a JSON request is.
        result = WatermarkEngine().insert_multi(quantized_awq4, activation_stats, 3)
        key = list(result.keys().values())[-1]
        assert key.occupied_slots
        metadata = {"note": "x" * (1024 * 1024)}
        server = VerificationServer(config=ServiceConfig(port=0))
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                record = c.register_key(key, owner="owner-2", metadata=metadata)
                assert record["key_id"] == key.fingerprint()
                assert record["metadata"] == metadata
                assert [r["key_id"] for r in c.keys()] == [key.fingerprint()]

    def test_media_type_parameters_are_ignored(self, client, server_handle, watermarked_and_key):
        watermarked, _ = watermarked_and_key
        body = malformed_frame({"model": model_to_wire(watermarked)}, "empty archive")
        status, reply = _post_raw(
            server_handle.port, "/v1/verify", body, f"{WIRE_MEDIA_TYPE.upper()}; v=1"
        )
        assert status == 400
        assert reply["error"]["message"].startswith("invalid wire frame")


class TestMalformedWireRejected:
    """A packed archive whose layout does not split its members exactly, or
    a model member no layer can hold, is a 400 that stores nothing."""

    def _assert_rejected(self, client, path, body, what):
        before = _stored(client)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", path, body)
        assert excinfo.value.status == 400
        assert f"invalid {what} payload" in str(excinfo.value)
        assert _stored(client) == before

    @pytest.mark.parametrize("case", MALFORMED_LAYOUT_CASES)
    @pytest.mark.parametrize("path", ["/v1/verify", "/v1/suspects", "/v1/jobs/robustness"])
    def test_model_layout(self, client, watermarked_and_key, case, path):
        watermarked, _ = watermarked_and_key
        wire = model_to_wire(watermarked)
        wire["arrays"] = malformed_layout_archive(wire["arrays"], case)
        self._assert_rejected(client, path, {"model": wire, "suspect_id": "bad"}, "model")

    @pytest.mark.parametrize("case", MALFORMED_LAYOUT_CASES)
    def test_key_layout(self, client, watermarked_and_key, case):
        _, key = watermarked_and_key
        wire = key_to_wire(key)
        wire["arrays"] = malformed_layout_archive(wire["arrays"], case)
        self._assert_rejected(client, "/v1/register", {"owner": "x", "key": wire}, "key")

    @pytest.mark.parametrize("path", ["/v1/verify", "/v1/suspects"])
    def test_layer_missing_from_layer_order(self, client, watermarked_and_key, path):
        watermarked, _ = watermarked_and_key
        wire = model_to_wire(watermarked)
        wire["meta"]["layer_order"] = wire["meta"]["layer_order"][1:]
        self._assert_rejected(client, path, {"model": wire, "suspect_id": "bad"}, "model")

    @pytest.mark.parametrize("path", ["/v1/verify", "/v1/suspects"])
    def test_unknown_model_member(self, client, watermarked_and_key, path):
        watermarked, _ = watermarked_and_key
        wire = model_to_wire(watermarked)
        arrays = unpack_arrays(wire["arrays"])
        arrays[f"gradient/{watermarked.layer_names()[0]}"] = np.ones(3)
        wire["arrays"] = pack_arrays(arrays)
        self._assert_rejected(client, path, {"model": wire, "suspect_id": "bad"}, "model")


class TestClientRefusesNonObjectReplies:
    """A success reply that is not a JSON object is a ServiceError, never a
    result for the caller to index into."""

    @pytest.mark.parametrize("body", [b"upstream says hi", b"[1, 2]", b""])
    def test_plain_text_200(self, body):
        reply = (
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body)
        ) + body
        with one_shot_server(reply) as port:
            with VerificationClient(port=port, timeout=10) as client:
                with pytest.raises(ServiceError, match="not a JSON object") as excinfo:
                    client.keys()
        assert excinfo.value.status == 200


@pytest.fixture()
def persistent_client(tmp_path):
    """(client, registry root) of a server persisting keys under ``tmp_path``."""
    from repro.service.registry import KeyRegistry

    engine = WatermarkEngine(EngineConfig())
    root = tmp_path / "reg"
    server = VerificationServer(
        engine=engine,
        registry=KeyRegistry(root, engine=engine),
        config=ServiceConfig(port=0),
    )
    with run_in_background(server) as handle:
        with VerificationClient(port=handle.port) as active:
            yield active, root


def _key_body(meta, arrays):
    return {"owner": "x", "key": {"meta": to_jsonable(meta), "arrays": pack_arrays(arrays)}}


class TestKeyMaterialValidated:
    """Key material whose plan could not reproduce its insertion is a 400
    that leaves the registry directory untouched."""

    @pytest.mark.parametrize("case", MALFORMED_KEY_CASES)
    def test_malformed_key_is_400(self, persistent_client, watermarked_and_key, case):
        client, root = persistent_client
        _, key = watermarked_and_key
        body = _key_body(*malformed_key_payload(key, case))
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/register", body)
        assert excinfo.value.status == 400
        assert "invalid key payload" in str(excinfo.value)
        assert list(root.iterdir()) == []
        assert client.keys() == []

    def test_legacy_wire_payload_registers_under_the_same_id(
        self, persistent_client, watermarked_and_key, activation_stats
    ):
        client, root = persistent_client
        _, key = watermarked_and_key
        meta, arrays = legacy_key_payload(key, activation_stats)
        assert any(name.startswith("activations/gram/") for name in arrays)
        record = client._request("POST", "/v1/register", _key_body(meta, arrays))["registered"]
        assert record["key_id"] == key.fingerprint()
        with np.load(root / record["key_id"] / "watermark_key.npz") as stored:
            members = set(stored.files)
        assert members == set(key.to_payload()[1])
        assert not any(name.startswith("activations/gram/") for name in members)


#: Register fields the registry cannot hold as they are.
_BAD_REGISTER_FIELDS = [
    pytest.param({"metadata": "abc"}, id="metadata-string"),
    pytest.param({"metadata": [1, 2]}, id="metadata-list"),
    pytest.param({"metadata": 5}, id="metadata-number"),
    pytest.param({"metadata": [["a", 1]]}, id="metadata-pairs"),
    pytest.param({"owner": {"x": 1}}, id="owner-object"),
    pytest.param({"owner": 5}, id="owner-number"),
    pytest.param({"owner": None}, id="owner-null"),
]


class TestRegisterFieldsValidated:
    """``owner`` must be a string and ``metadata`` a JSON object (or
    absent): anything else is a 400 before the key is decoded, and the
    registry stays empty."""

    @pytest.mark.parametrize("legacy", [False, True], ids=["framed", "json"])
    @pytest.mark.parametrize("fields", _BAD_REGISTER_FIELDS)
    def test_bad_field_is_400(self, persistent_client, watermarked_and_key, monkeypatch, fields, legacy):
        import repro.service.server as server_mod

        client, root = persistent_client
        _, key = watermarked_and_key
        decoded = []
        monkeypatch.setattr(server_mod, "key_from_wire", lambda wire: decoded.append(wire))
        wire = key_to_wire(key)
        body = {"owner": "x", "metadata": {}, "key": legacy_wire(wire) if legacy else wire, **fields}
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/register", body)
        assert excinfo.value.status == 400
        assert "must be a" in str(excinfo.value)
        assert decoded == []
        assert list(root.iterdir()) == []
        assert client.keys() == []

    @pytest.mark.parametrize(
        "fields, owner, metadata",
        [({}, "", {}), ({"metadata": None}, "", {}), ({"owner": "acme", "metadata": {"a": [1]}}, "acme", {"a": [1]})],
        ids=["absent", "null-metadata", "both"],
    )
    def test_accepted_fields(self, persistent_client, watermarked_and_key, fields, owner, metadata):
        client, _ = persistent_client
        _, key = watermarked_and_key
        record = client._request("POST", "/v1/register", {"key": key_to_wire(key), **fields})["registered"]
        assert (record["owner"], record["metadata"]) == (owner, metadata)


@pytest.fixture(scope="module")
def opt125m_int8():
    from repro.models.registry import get_pretrained_model
    from repro.quant import quantize_model

    return quantize_model(get_pretrained_model("opt-125m-sim", profile="smoke"), "rtn", bits=8)


class TestSuspectIdCheckedBeforeDecode:
    """A non-string ``suspect_id`` next to an uploaded model is a 400 that
    costs no model decode, on every route that takes an upload."""

    @pytest.mark.parametrize("path", ["/v1/suspects", "/v1/verify", "/v1/jobs/robustness"])
    def test_bad_suspect_id_is_400_without_decode(self, persistent_client, opt125m_int8, monkeypatch, path):
        import repro.service.server as server_mod

        client, _ = persistent_client
        decoded = []
        real = server_mod.model_from_wire
        monkeypatch.setattr(
            server_mod, "model_from_wire", lambda wire: decoded.append(wire) or real(wire)
        )
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", path, {"model": model_to_wire(opt125m_int8), "suspect_id": 5})
        assert excinfo.value.status == 400
        assert "'suspect_id' must be a string" in str(excinfo.value)
        assert decoded == []


class TestLegacyJsonBodies:
    """A JSON body with base64 ``arrays`` (the older wire form) behaves
    exactly like the binary frame the client sends."""

    def test_register_under_the_same_key_id(self, persistent_client, watermarked_and_key):
        client, _ = persistent_client
        _, key = watermarked_and_key
        body = {"owner": "x", "key": legacy_wire(key_to_wire(key))}
        legacy = client._request("POST", "/v1/register", body)["registered"]
        assert legacy["key_id"] == key.fingerprint()
        assert client.register_key(key, owner="x")["key_id"] == legacy["key_id"]
        assert [record["key_id"] for record in client.keys()] == [key.fingerprint()]

    def test_upload_under_the_same_suspect_id(self, client, watermarked_and_key):
        watermarked, _ = watermarked_and_key
        legacy = client._request(
            "POST", "/v1/suspects", {"model": legacy_wire(model_to_wire(watermarked))}
        )
        framed = client.upload_suspect(watermarked)
        assert legacy["suspect_id"].startswith("suspect-")
        for field in ("suspect_id", "model_fingerprint", "num_layers", "candidate_key_ids"):
            assert legacy[field] == framed[field]

    @pytest.mark.parametrize("suspect", ["watermarked", "clean"])
    def test_inline_verify_decides_identically(
        self, client, watermarked_and_key, quantized_awq4, suspect
    ):
        watermarked, _ = watermarked_and_key
        model = watermarked if suspect == "watermarked" else quantized_awq4
        legacy = client._request("POST", "/v1/verify", {"model": legacy_wire(model_to_wire(model))})
        framed = client.verify(model=model)
        fields = ("key_id", "matched_bits", "total_bits", "wer_percent", "owned")
        assert [[d[f] for f in fields] for d in legacy["decisions"]] == [
            [d[f] for f in fields] for d in framed["decisions"]
        ]
        assert framed["decisions"][0]["owned"] is (suspect == "watermarked")


def test_client_frames_only_requests_that_carry_bulk_state(
    persistent_client, watermarked_and_key, monkeypatch
):
    """The client sends keys and models as binary frames and every small
    control request as JSON."""
    client, _ = persistent_client
    watermarked, key = watermarked_and_key
    sent = []
    original = http.client.HTTPConnection.request

    def recording(conn, method, url, body=None, headers=None, **kwargs):
        sent.append((method, url.partition("?")[0], (headers or {}).get("Content-Type")))
        return original(conn, method, url, body=body, headers=headers or {}, **kwargs)

    monkeypatch.setattr(http.client.HTTPConnection, "request", recording)
    key_id = client.register_key(key, owner="acme")["key_id"]
    client.upload_suspect(watermarked, suspect_id="hit")
    client.verify(model=watermarked, key_ids=[key_id])
    client.verify(suspect_id="hit")
    client.submit_robustness_job(
        "hit", attacks=[{"name": "overwrite", "strengths": [0]}], executor="serial"
    ).wait(timeout=120)
    posts = [(url, content_type) for method, url, content_type in sent if method == "POST"]
    assert posts == [
        ("/v1/register", WIRE_MEDIA_TYPE),
        ("/v1/suspects", WIRE_MEDIA_TYPE),
        ("/v1/verify", WIRE_MEDIA_TYPE),
        ("/v1/verify", "application/json"),
        ("/v1/jobs/robustness", "application/json"),
    ]


class TestVerification:
    def test_hit_is_owned(self, client):
        response = client.verify(suspect_id="hit")
        assert len(response["decisions"]) == 1
        decision = response["decisions"][0]
        assert decision["owned"] is True
        assert decision["wer_percent"] == 100.0
        assert decision["matched_bits"] == decision["total_bits"]

    def test_miss_is_not_owned(self, client):
        decision = client.verify(suspect_id="miss")["decisions"][0]
        assert decision["owned"] is False

    def test_decisions_match_direct_engine_call(
        self, client, watermarked_and_key, quantized_awq4
    ):
        """The serving path must be bit-identical to the library path."""
        watermarked, key = watermarked_and_key
        direct = WatermarkEngine(EngineConfig()).verify_fleet(
            {"hit": watermarked, "miss": quantized_awq4}, {key.fingerprint(): key}
        )
        direct_by_pair = {(p.suspect_id, p.key_id): p for p in direct.pairs}
        for suspect_id in ("hit", "miss"):
            decision = client.verify(suspect_id=suspect_id)["decisions"][0]
            reference = direct_by_pair[(suspect_id, decision["key_id"])]
            assert decision["matched_bits"] == reference.matched_bits
            assert decision["total_bits"] == reference.total_bits
            assert decision["owned"] == reference.owned
            assert decision["wer_percent"] == reference.wer_percent

    def test_inline_model_verification(self, client, watermarked_and_key):
        watermarked, _ = watermarked_and_key
        response = client.verify(model=watermarked)
        assert response["decisions"][0]["owned"] is True

    def test_explicit_key_ids(self, client, watermarked_and_key):
        _, key = watermarked_and_key
        response = client.verify(suspect_id="hit", key_ids=[key.fingerprint()])
        assert response["decisions"][0]["key_id"] == key.fingerprint()

    def test_non_string_suspect_id_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/verify", {"suspect_id": ["hit"]})
        assert excinfo.value.status == 400

    def test_unknown_suspect_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.verify(suspect_id="ghost")
        assert excinfo.value.status == 404

    def test_unknown_key_id_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.verify(suspect_id="hit", key_ids=["wmk-ghost"])
        assert excinfo.value.status == 404

    def test_concurrent_requests_batch_and_agree(self, server_handle):
        """Parallel clients hammering hit/miss still get exact verdicts."""
        results = {}
        errors = []

        def worker(suspect_id, slot):
            try:
                with VerificationClient(port=server_handle.port) as c:
                    results[slot] = c.verify(suspect_id=suspect_id)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=("hit" if i % 2 == 0 else "miss", i))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for slot, response in results.items():
            expected = slot % 2 == 0
            assert response["decisions"][0]["owned"] is expected


class TestStatsAndAudit:
    def test_stats_exposes_all_sections(self, client):
        client.verify(suspect_id="hit")
        stats = client.stats()
        assert {"server", "dispatcher", "admission", "plan_cache", "registry",
                "suspects", "audit"} <= set(stats)
        assert stats["server"]["verifications"] >= 1
        assert stats["registry"]["keys"] == 1
        assert stats["suspects"]["count"] >= 2
        assert stats["audit"]["entries"] >= 1
        # Satellite: plan-cache hit/miss/eviction counters are observable.
        assert {"hits", "misses", "evictions", "hit_rate"} <= set(stats["plan_cache"])

    def test_warm_cache_serving(self, client):
        """Verification of a registered key reads its resident ticket: no
        rescoring, no plan lookups at all, no key loads."""
        client.verify(suspect_id="hit")
        before = client.stats()
        client.verify(suspect_id="hit")
        after = client.stats()
        assert after["plan_cache"]["misses"] == before["plan_cache"]["misses"]
        assert after["plan_cache"]["hits"] == before["plan_cache"]["hits"]
        assert after["registry"]["key_loads"] == before["registry"]["key_loads"]

    def test_restarted_server_derives_each_ticket_once(self, watermarked_and_key, tmp_path):
        """A server over a re-opened registry holds no tickets; the first
        verify (or ranked upload) of a key derives its ticket from exactly one
        disk load, and every later request reads the resident ticket."""
        from repro.service.registry import KeyRegistry

        watermarked, key = watermarked_and_key
        KeyRegistry(tmp_path / "reg").register(key, owner="acme")
        engine = WatermarkEngine(EngineConfig())
        server = VerificationServer(
            engine=engine,
            registry=KeyRegistry(tmp_path / "reg", engine=engine),
            config=ServiceConfig(port=0),
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                assert c.stats()["registry"]["tickets"] == 0
                ranked = c.upload_suspect(watermarked, suspect_id="hit", rank=True)
                assert ranked["ranking"][0]["owned"] is True
                for _ in range(2):
                    assert c.verify("hit")["decisions"][0]["owned"] is True
                registry = c.stats()["registry"]
        assert registry["tickets"] == 1
        assert registry["key_loads"] == 1


def _record_threads(monkeypatch, obj, attr, threads):
    """Wrap ``obj.attr`` so each call appends the calling thread's id."""
    original = getattr(obj, attr)

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(obj, attr, recorded)


class TestWhereVerifyRuns:
    def test_resident_lookup_and_match_run_on_the_loop(
        self, watermarked_and_key, monkeypatch
    ):
        """With every ticket resident, verify-by-id makes no thread hop: the
        registry lookup and the engine sweep both run on the loop's thread."""
        watermarked, key = watermarked_and_key
        server = VerificationServer(
            engine=WatermarkEngine(EngineConfig()), config=ServiceConfig(port=0)
        )
        lookups, sweeps = [], []
        _record_threads(monkeypatch, server.registry, "active_keys", lookups)
        _record_threads(monkeypatch, server.dispatcher.engine, "verify_fleet", sweeps)
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                record = c.register_key(key, owner="acme")
                c.upload_suspect(watermarked, suspect_id="hit")
                assert c.verify("hit")["decisions"][0]["owned"] is True
                assert c.verify("hit", key_ids=[record["key_id"]])["decisions"][0]["owned"]
            loop_thread = handle._thread.ident
        assert len(lookups) == len(sweeps) == 2
        assert set(lookups) == set(sweeps) == {loop_thread}

    def test_cold_ticket_is_derived_off_the_loop(
        self, watermarked_and_key, tmp_path, monkeypatch
    ):
        """On a registry reopened from disk the first verify loads the key and
        derives its ticket off the loop; the next one reads it on the loop."""
        from repro.service.registry import KeyRegistry

        watermarked, key = watermarked_and_key
        KeyRegistry(tmp_path / "reg").register(key, owner="acme")
        engine = WatermarkEngine(EngineConfig())
        registry = KeyRegistry(tmp_path / "reg", engine=engine)
        server = VerificationServer(
            engine=engine, registry=registry, config=ServiceConfig(port=0)
        )
        lookups, derivations = [], []
        _record_threads(monkeypatch, registry, "active_keys", lookups)
        _record_threads(monkeypatch, engine, "ticket_for", derivations)
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                c.upload_suspect(watermarked, suspect_id="hit")
                assert registry.stats()["key_loads"] == 0
                first = c.verify("hit")["decisions"]
                assert registry.stats()["key_loads"] == 1
                second = c.verify("hit")["decisions"]
                assert registry.stats()["key_loads"] == 1
            loop_thread = handle._thread.ident
        assert len(derivations) == 1 and derivations[0] != loop_thread
        assert lookups[0] != loop_thread and lookups[1] == loop_thread
        direct = WatermarkEngine(EngineConfig()).verify_fleet(
            {"hit": watermarked}, {first[0]["key_id"]: key}
        )
        expected = [pair.to_dict() for pair in direct.pairs]
        for decisions in (first, second):
            assert [dict(d, seconds=None) for d in decisions] == [
                dict(d, seconds=None) for d in expected
            ]


class TestHttpFraming:
    """Raw-socket checks of request framing and connection persistence."""

    @staticmethod
    def _exchange(port, request):
        """Send ``request`` and read until the server closes the connection."""
        received = []
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(request)
            while True:
                data = sock.recv(65536)
                if not data:
                    return b"".join(received)
                received.append(data)

    @staticmethod
    def _single_response(raw):
        """The one response in ``raw``: (status, headers, body); fails on extras."""
        head, _, body = raw.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in header_lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        assert len(body) == int(headers["content-length"]), "extra bytes after the response"
        return int(status_line.split()[1]), headers, json.loads(body)

    def test_chunked_request_body_is_one_400_then_close(self, server_handle):
        request = (
            b"POST /v1/verify HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"15\r\n{\"suspect_id\": \"hit\"}\r\n0\r\n\r\n"
        )
        status, headers, body = self._single_response(
            self._exchange(server_handle.port, request)
        )
        assert status == 400
        assert headers["connection"] == "close"
        assert body["error"]["code"] == "invalid_request"
        assert "Transfer-Encoding" in body["error"]["message"]

    def test_conflicting_content_lengths_are_one_400_then_close(self, server_handle):
        request = (
            b"POST /v1/verify HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 2\r\nContent-Length: 4\r\n\r\n{}{}"
        )
        status, headers, body = self._single_response(
            self._exchange(server_handle.port, request)
        )
        assert status == 400
        assert headers["connection"] == "close"
        assert "Content-Length" in body["error"]["message"]

    def test_http10_request_closes_by_default(self, server_handle):
        raw = self._exchange(server_handle.port, b"GET /v1/healthz HTTP/1.0\r\n\r\n")
        status, headers, body = self._single_response(raw)
        assert status == 200
        assert headers["connection"] == "close"
        assert body["status"] == "ok"

    def test_http10_keep_alive_is_honoured(self, server_handle):
        """An HTTP/1.0 client that asks for keep-alive gets a second request."""
        with socket.create_connection(
            ("127.0.0.1", server_handle.port), timeout=5
        ) as sock, sock.makefile("rb") as reader:
            for _ in range(2):
                sock.sendall(
                    b"GET /v1/healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                )
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    head += reader.read(1)
                assert b"Connection: keep-alive" in head
                length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
                assert json.loads(reader.read(length))["status"] == "ok"


class TestRevocationAndAdmission:
    def test_revoked_key_stops_serving(self, watermarked_and_key, quantized_awq4):
        watermarked, key = watermarked_and_key
        server = VerificationServer(config=ServiceConfig(port=0))
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                record = c.register_key(key, owner="acme")
                c.upload_suspect(watermarked, suspect_id="hit")
                assert c.verify(suspect_id="hit")["decisions"][0]["owned"] is True
                revoked = c.revoke_key(record["key_id"])
                assert revoked["revoked"] is True
                with pytest.raises(ServiceError) as excinfo:
                    c.verify(suspect_id="hit")
                assert excinfo.value.status == 400  # no active keys left

    def test_default_suspect_ids_are_content_addressed(
        self, watermarked_and_key, quantized_awq4
    ):
        """Same-architecture but different-weight uploads must not alias."""
        watermarked, key = watermarked_and_key
        server = VerificationServer(config=ServiceConfig(port=0))
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                c.register_key(key, owner="acme")
                id_wm = c.upload_suspect(watermarked)["suspect_id"]
                id_clean = c.upload_suspect(quantized_awq4)["suspect_id"]
                assert id_wm != id_clean
                assert c.upload_suspect(watermarked)["suspect_id"] == id_wm
                assert c.verify(suspect_id=id_wm)["decisions"][0]["owned"] is True
                assert c.verify(suspect_id=id_clean)["decisions"][0]["owned"] is False

    def test_burst_without_rate_is_rejected(self):
        with pytest.raises(ValueError, match="rate_limit_burst requires"):
            ServiceConfig(rate_limit_burst=50)

    def test_suspect_store_is_lru_bounded(self, watermarked_and_key, quantized_awq4):
        watermarked, key = watermarked_and_key
        server = VerificationServer(
            config=ServiceConfig(port=0, max_suspects=2)
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                c.register_key(key, owner="acme")
                for index in range(4):
                    c.upload_suspect(quantized_awq4, suspect_id=f"s-{index}")
                c.upload_suspect(watermarked, suspect_id="hit")
                stats = c.stats()["suspects"]
                assert stats["count"] == 2
                assert stats["evictions"] == 3
                # Newest entries survive, oldest were evicted.
                assert c.verify(suspect_id="hit")["decisions"][0]["owned"] is True
                with pytest.raises(ServiceError) as excinfo:
                    c.verify(suspect_id="s-0")
                assert excinfo.value.status == 404

    def test_oversized_header_returns_400(self, server_handle):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server_handle.port, timeout=5)
        try:
            conn.putrequest("GET", "/v1/healthz", skip_host=False)
            conn.putheader("X-Padding", "x" * (80 * 1024))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_rate_limit_returns_429(self, watermarked_and_key):
        watermarked, key = watermarked_and_key
        server = VerificationServer(
            config=ServiceConfig(
                port=0, rate_limit_per_sec=0.001, rate_limit_burst=2
            )
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                c.register_key(key, owner="acme")
                c.upload_suspect(watermarked, suspect_id="hit")
                assert c.verify(suspect_id="hit")["decisions"]
                assert c.verify(suspect_id="hit")["decisions"]
                with pytest.raises(RateLimitedError):
                    c.verify(suspect_id="hit")
                stats = c.stats()
                assert stats["admission"]["rejected"] >= 1
                assert stats["server"]["rejected_rate_limit"] >= 1


class TestMultiOwnerService:
    """Per-owner admission control and multi-owner /suspects ranking."""

    @pytest.fixture()
    def second_owner_key(self, quantized_awq4, activation_stats, emmark_config):
        """A second owner's key for the same model (different seed d)."""
        config = emmark_config.with_overrides(
            seed=emmark_config.seed + 13, signature_seed=emmark_config.signature_seed + 13
        )
        _, key, _ = WatermarkEngine().insert(
            quantized_awq4, activation_stats, config=config
        )
        return key

    def test_per_owner_rate_limit_is_keyed_by_registry_owner(
        self, watermarked_and_key, second_owner_key
    ):
        watermarked, key = watermarked_and_key
        server = VerificationServer(
            config=ServiceConfig(
                port=0,
                owner_rate_limit_per_sec=0.001,
                owner_rate_limit_burst=2,
            )
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                acme = c.register_key(key, owner="acme")["key_id"]
                globex = c.register_key(second_owner_key, owner="globex")["key_id"]
                c.upload_suspect(watermarked, suspect_id="hit")
                # acme's private bucket drains after its burst of 2...
                assert c.verify(suspect_id="hit", key_ids=[acme])["decisions"]
                assert c.verify(suspect_id="hit", key_ids=[acme])["decisions"]
                with pytest.raises(RateLimitedError):
                    c.verify(suspect_id="hit", key_ids=[acme])
                # ...while globex's bucket is untouched: one owner cannot
                # starve another (the global-bucket failure mode).
                assert c.verify(suspect_id="hit", key_ids=[globex])["decisions"]
                stats = c.stats()
                assert stats["owner_admission"]["enabled"] is True
                assert stats["owner_admission"]["rejected"] >= 1
                assert "acme" in stats["owner_admission"]["rejected_by_owner"]
                assert stats["server"]["rejected_owner_rate"] >= 1

    def test_mixed_owner_request_rejection_refunds_admitted_owners(
        self, watermarked_and_key, second_owner_key
    ):
        watermarked, key = watermarked_and_key
        server = VerificationServer(
            config=ServiceConfig(
                port=0,
                owner_rate_limit_per_sec=0.001,
                owner_rate_limit_burst=2,
            )
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                acme = c.register_key(key, owner="acme")["key_id"]
                globex = c.register_key(second_owner_key, owner="globex")["key_id"]
                c.upload_suspect(watermarked, suspect_id="hit")
                # Drain acme entirely.
                c.verify(suspect_id="hit", key_ids=[acme])
                c.verify(suspect_id="hit", key_ids=[acme])
                # A request touching both owners is rejected by acme's empty
                # bucket — and must not charge globex for the failed attempt.
                with pytest.raises(RateLimitedError):
                    c.verify(suspect_id="hit", key_ids=[acme, globex])
                with pytest.raises(RateLimitedError):
                    c.verify(suspect_id="hit", key_ids=[acme, globex])
                assert c.verify(suspect_id="hit", key_ids=[globex])["decisions"]
                assert c.verify(suspect_id="hit", key_ids=[globex])["decisions"]

    def test_owner_burst_without_rate_is_rejected(self):
        with pytest.raises(ValueError, match="owner_rate_limit_burst requires"):
            ServiceConfig(owner_rate_limit_burst=10)

    def test_suspects_ranking_across_co_resident_keys(
        self, watermarked_and_key, second_owner_key
    ):
        watermarked, key = watermarked_and_key
        server = VerificationServer(
            engine=WatermarkEngine(EngineConfig()),
            config=ServiceConfig(port=0),
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                acme = c.register_key(key, owner="acme")["key_id"]
                globex = c.register_key(second_owner_key, owner="globex")["key_id"]
                out = c.upload_suspect(watermarked, suspect_id="hit", rank=True)
                # Both claimants of the model family are listed with owners.
                assert {entry["key_id"] for entry in out["candidate_keys"]} == {acme, globex}
                assert {entry["owner"] for entry in out["candidate_keys"]} == {"acme", "globex"}
                # Ranking puts the true owner first with full evidence.
                ranking = out["ranking"]
                assert [entry["key_id"] for entry in ranking][0] == acme
                assert ranking[0]["owned"] is True
                assert ranking[0]["wer_percent"] == 100.0
                assert ranking[0]["owner"] == "acme"
                assert ranking[1]["key_id"] == globex
                assert ranking[1]["owned"] is False
                # Without the flag the upload stays cheap (no ranking field).
                plain = c.upload_suspect(watermarked, suspect_id="hit-2")
                assert "ranking" not in plain

    def test_rank_flag_must_be_boolean(self, watermarked_and_key):
        watermarked, key = watermarked_and_key
        server = VerificationServer(config=ServiceConfig(port=0))
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                from repro.service.codec import model_to_wire

                with pytest.raises(ServiceError, match="'rank' must be a boolean") as excinfo:
                    c._request(
                        "POST", "/v1/suspects",
                        {"model": model_to_wire(watermarked), "rank": "yes"},
                    )
                assert excinfo.value.status == 400

    def test_multi_owner_keys_register_with_co_residents(
        self, quantized_awq4, activation_stats
    ):
        engine = WatermarkEngine()
        result = engine.insert_multi(quantized_awq4, activation_stats, 2)
        server = VerificationServer(config=ServiceConfig(port=0))
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                for owner_id, key in result.keys().items():
                    c.register_key(key, owner=owner_id)
                c.upload_suspect(result.model, suspect_id="deploy")
                # Both co-resident owners verify independently at 100%.
                for record in c.keys():
                    decision = c.verify(
                        suspect_id="deploy", key_ids=[record["key_id"]]
                    )["decisions"][0]
                    assert decision["owned"] is True
                    assert decision["wer_percent"] == 100.0
                    assert record["co_residents"]  # denormalized onto the record
                assert c.stats()["registry"]["multi_owner_models"] == 1


class TestVersionedSurface:
    """The /v1 resource surface and the error envelope."""

    @pytest.mark.parametrize("method,path", [
        ("GET", "/healthz"),
        ("GET", "/stats"),
        ("GET", "/metrics"),
        ("GET", "/keys"),
        ("POST", "/register"),
        ("POST", "/revoke"),
        ("POST", "/suspects"),
        ("POST", "/verify"),
        ("POST", "/robustness"),
    ])
    def test_unversioned_paths_are_gone(self, client, method, path):
        with pytest.raises(ServiceError) as excinfo:
            client._request(method, path, {} if method == "POST" else None)
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"
        assert excinfo.value.payload["error"]["message"] == f"unknown endpoint {path}"
        assert "repro_server_legacy_requests_total" not in client.metrics()

    def test_error_envelope_shape(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.verify(suspect_id="ghost")
        error = excinfo.value.payload["error"]
        assert set(error) >= {"code", "message"}
        assert error["code"] == "not_found"
        assert excinfo.value.code == "not_found"
        assert "ghost" in error["message"]

    def test_envelope_codes_by_status(self, client):
        cases = [
            ("POST", "/v1/register", {"owner": "x"}, 400, "invalid_request"),
            ("GET", "/v1/nope", None, 404, "not_found"),
            ("GET", "/v1/verify", None, 405, "method_not_allowed"),
        ]
        for method, path, body, status, code in cases:
            with pytest.raises(ServiceError) as excinfo:
                client._request(method, path, body)
            assert excinfo.value.status == status
            assert excinfo.value.code == code

    def test_rate_limited_envelope_carries_retry_after(self, watermarked_and_key):
        watermarked, key = watermarked_and_key
        server = VerificationServer(
            config=ServiceConfig(
                port=0, rate_limit_per_sec=0.001, rate_limit_burst=1
            )
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                c.register_key(key, owner="acme")
                c.upload_suspect(watermarked, suspect_id="hit")
                c.verify(suspect_id="hit")
                with pytest.raises(RateLimitedError) as excinfo:
                    c.verify(suspect_id="hit")
                assert excinfo.value.code == "rate_limited"
                assert excinfo.value.retry_after is not None

    def test_reason_phrases_cover_all_emitted_statuses(self):
        # Regression: 202 (job submit) and 409 (job conflicts) once fell
        # through to the bare status number because _REASONS lacked them.
        from repro.service.server import _ERROR_CODES, _REASONS

        for status in (200, 202, 400, 404, 405, 409, 429, 500, 503):
            assert status in _REASONS
        assert _REASONS[202] == "Accepted"
        assert _REASONS[409] == "Conflict"
        # Every defaulted error status has an envelope code.
        for status in (400, 404, 405, 409, 429, 500, 503):
            assert status in _ERROR_CODES

    def test_delete_key_resource_route(self, watermarked_and_key):
        _, key = watermarked_and_key
        server = VerificationServer(config=ServiceConfig(port=0))
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                record = c.register_key(key, owner="acme")
                revoked = c._request("DELETE", f"/v1/keys/{record['key_id']}")
                assert revoked["revoked"]["revoked"] is True
                with pytest.raises(ServiceError) as excinfo:
                    c._request("DELETE", "/v1/keys/wmk-ghost")
                assert excinfo.value.status == 404

    def test_readiness_probe_flips_to_503_on_drain(self, watermarked_and_key):
        server = VerificationServer(config=ServiceConfig(port=0))
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                ready = c.healthz(ready=True)
                assert ready["status"] == "ok"
                assert ready["ready"] is True
                server.jobs.drain()
                from repro.service import ServiceUnavailableError

                with pytest.raises(ServiceUnavailableError) as excinfo:
                    c.healthz(ready=True)
                assert excinfo.value.code == "not_ready"
                assert excinfo.value.payload["ready"] is False
                # Liveness stays green while draining (the pod is alive).
                assert c.healthz()["status"] == "ok"
