"""Watermark verification service.

This package turns the library-level ownership checks into a serving system:

* :mod:`repro.service.registry` — :class:`KeyRegistry`, a persistent,
  content-addressed store of issued :class:`~repro.core.keys.WatermarkKey`s
  with owner metadata, model-fingerprint indexing and revocation.
* :mod:`repro.service.occupancy` — :func:`occupancy_audit`, which proves
  per model fingerprint that co-resident keys reproduce disjoint slot sets.
* :mod:`repro.service.dispatch` — :class:`MicroBatchDispatcher` (coalesces
  concurrent verification requests into single
  :meth:`~repro.engine.engine.WatermarkEngine.verify_fleet` sweeps) and
  :class:`TokenBucket` admission control.
* :mod:`repro.service.server` — :class:`VerificationServer`, an asyncio
  HTTP server (stdlib only; JSON, and binary frames for uploads) with a
  ``/v1`` surface —
  register, upload, verify, revoke, background robustness jobs, health,
  stats and metrics — plus a structured audit log of every ownership
  decision.
* :mod:`repro.service.client` — :class:`VerificationClient`, the synchronous
  client used by the examples, tests and load generator.
* :mod:`repro.service.loadgen` — an llm-load-test-style closed-loop load
  generator (:func:`run_load`) producing throughput and latency percentiles.
* :mod:`repro.service.codec` — NPZ wire / directory codecs for keys and
  quantized models, and the binary request frame that carries them.

Quickstart
----------
>>> from repro.service import VerificationServer, VerificationClient, run_in_background
>>> with run_in_background() as handle:
...     client = VerificationClient(port=handle.port)
...     client.register_key(key, owner="acme")
...     client.upload_suspect(deployed_model, suspect_id="prod-a")
...     client.verify(suspect_id="prod-a")["decisions"]
"""

from repro.service.audit import AuditLog
from repro.service.client import (
    JobHandle,
    RateLimitedError,
    ServiceError,
    ServiceUnavailableError,
    VerificationClient,
)
from repro.service.jobs import Job, JobLimitError, JobManager
from repro.service.codec import (
    key_from_wire,
    key_to_wire,
    load_model,
    model_from_wire,
    model_to_wire,
    save_model,
)
from repro.service.dispatch import (
    MicroBatchDispatcher,
    OwnerRateLimiter,
    QueueFullError,
    TokenBucket,
)
from repro.service.loadgen import (
    JobLoadConfig,
    JobLoadReport,
    LoadConfig,
    LoadReport,
    RequestTemplate,
    run_job_load,
    run_load,
)
from repro.service.occupancy import (
    ModelAuditVerdict,
    OccupancyAuditReport,
    occupancy_audit,
)
from repro.service.registry import KeyRecord, KeyRegistry, RegistryError
from repro.service.server import (
    ServerHandle,
    ServiceConfig,
    VerificationServer,
    run_in_background,
)

__all__ = [
    "AuditLog",
    "KeyRecord",
    "KeyRegistry",
    "RegistryError",
    "MicroBatchDispatcher",
    "TokenBucket",
    "OwnerRateLimiter",
    "QueueFullError",
    "ServiceConfig",
    "VerificationServer",
    "ServerHandle",
    "run_in_background",
    "VerificationClient",
    "ServiceError",
    "RateLimitedError",
    "ServiceUnavailableError",
    "JobHandle",
    "Job",
    "JobLimitError",
    "JobManager",
    "JobLoadConfig",
    "JobLoadReport",
    "run_job_load",
    "LoadConfig",
    "LoadReport",
    "RequestTemplate",
    "run_load",
    "key_to_wire",
    "key_from_wire",
    "model_to_wire",
    "model_from_wire",
    "save_model",
    "load_model",
    "ModelAuditVerdict",
    "OccupancyAuditReport",
    "occupancy_audit",
]
