"""Service-test fixtures: one insertion plus a running server per module.

The heavyweight substrate (trained model, quantization) comes from the
session fixtures in ``tests/conftest.py``; here we add the watermarked /
clean suspect pair and a background :class:`VerificationServer` with the key
registered and both suspects uploaded.
"""

from __future__ import annotations

import pytest

from repro.core.config import EmMarkConfig
from repro.engine import EngineConfig, WatermarkEngine
from repro.robustness.attacks import (
    ATTACK_REGISTRY,
    AttackOutcome,
    AttackSpec,
    register_attack,
)
from repro.service import (
    ServiceConfig,
    VerificationClient,
    VerificationServer,
    run_in_background,
)

# A deliberately slow corpus-free attack so job tests can observe sweeps
# *mid-run* (streaming, cancellation, kill-then-resume, admission overflow).
# The registry is process-global and the server runs in-process, so
# registering here makes it sweepable server-side across every test module;
# the guard keeps re-imports idempotent.
if "slowmo" not in ATTACK_REGISTRY:

    @register_attack
    class SlowIdentityAttack(AttackSpec):
        name = "slowmo"
        strength_unit = "-"
        default_strengths = (0,)

        def apply(self, model, strength, rng):
            import time

            time.sleep(0.25)
            return AttackOutcome(model=model.clone())


@pytest.fixture(scope="session")
def emmark_config(quantized_awq4):
    return EmMarkConfig.scaled_for_model(quantized_awq4, bits_per_layer=8)


@pytest.fixture(scope="session")
def watermarked_and_key(quantized_awq4, activation_stats, emmark_config):
    """(watermarked model, key) — the ``hit`` suspect and its key."""
    engine = WatermarkEngine()
    watermarked, key, _ = engine.insert(
        quantized_awq4, activation_stats, config=emmark_config
    )
    return watermarked, key


@pytest.fixture(scope="module")
def server_handle(watermarked_and_key, quantized_awq4):
    """A running server with the key registered and hit/miss suspects uploaded."""
    watermarked, key = watermarked_and_key
    server = VerificationServer(
        engine=WatermarkEngine(EngineConfig()),
        config=ServiceConfig(port=0),
    )
    with run_in_background(server) as handle:
        with VerificationClient(port=handle.port) as client:
            client.register_key(key, owner="acme", metadata={"suite": "tests"})
            client.upload_suspect(watermarked, suspect_id="hit")
            client.upload_suspect(quantized_awq4, suspect_id="miss")
        yield handle


@pytest.fixture()
def client(server_handle):
    """A fresh client per test against the module's server."""
    with VerificationClient(port=server_handle.port) as active:
        yield active
