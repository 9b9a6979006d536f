"""Synchronous client for the verification service (stdlib ``http.client``).

One :class:`VerificationClient` wraps one keep-alive HTTP connection, so a
closed-loop load-generator worker holds exactly one client and reuses the
socket across its whole request stream.  Instances are **not** thread-safe —
give each thread its own client.

A request that carries a key or a model (:meth:`~VerificationClient.register_key`,
:meth:`~VerificationClient.upload_suspect`, an inline
:meth:`~VerificationClient.verify`) goes out as one binary frame of media
type :data:`~repro.service.codec.WIRE_MEDIA_TYPE`: the request's scalars as
a small JSON head, then the packed archive as raw bytes, with no base64 and
no JSON string around it.  Every other request, and every reply, is JSON.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Iterator, List, Optional

from repro.core.keys import WatermarkKey
from repro.quant.base import QuantizedModel
from repro.service.codec import encode_body, key_to_wire, model_to_wire

__all__ = [
    "ServiceError",
    "RateLimitedError",
    "ServiceUnavailableError",
    "JobHandle",
    "VerificationClient",
]

#: How long :meth:`VerificationClient.robustness` waits for its job before
#: cancelling it.
_ROBUSTNESS_WAIT_S = 300.0


class ServiceError(RuntimeError):
    """Non-2xx response from the service.

    The server answers every error with the uniform envelope
    ``{"error": {"code", "message", "retry_after"?}}``; ``code`` and
    ``retry_after`` surface here as attributes, and the message is baked
    into ``str(exc)``.  Pre-envelope string bodies are still understood.
    """

    def __init__(self, status: int, payload: Dict[str, object]) -> None:
        error = payload.get("error") if isinstance(payload, dict) else None
        self.code: Optional[str] = None
        self.retry_after: Optional[float] = None
        if isinstance(error, dict):
            message = error.get("message", "")
            code = error.get("code")
            self.code = str(code) if code is not None else None
            retry_after = error.get("retry_after")
            self.retry_after = float(retry_after) if retry_after is not None else None
        elif error is not None:
            message = error
        else:
            message = payload
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class RateLimitedError(ServiceError):
    """HTTP 429 — admission control rejected the request."""


class ServiceUnavailableError(ServiceError):
    """HTTP 503 — the verification queue is full (or the batch timed out)."""


class VerificationClient:
    """Minimal client for :class:`~repro.service.server.VerificationServer`.

    Requests that carry a key or a model travel as binary frames, the rest
    and every reply as JSON (see the module docstring).

    Parameters
    ----------
    host, port:
        Server address.
    timeout:
        Socket timeout per request, in seconds.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8420, timeout: float = 60.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        return self._conn

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        payload = None
        headers = {"Connection": "keep-alive"}
        if body is not None:
            payload, headers["Content-Type"] = encode_body(body)
        conn = self._connection()
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except Exception:
            # Connection poisoned (timeout, reset) — drop it so the next call
            # reconnects instead of reading a stale response.
            self.close()
            raise
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            parsed = None
        if response.status >= 400:
            error = {429: RateLimitedError, 503: ServiceUnavailableError}.get(
                response.status, ServiceError
            )
            if parsed is None:
                parsed = {"error": raw.decode("utf-8", "replace")}
            raise error(response.status, parsed)
        if not isinstance(parsed, dict):
            # Callers index into results: a success reply that is not a JSON
            # object (say, a proxy's text page) fails here, not as a KeyError.
            raise ServiceError(
                response.status, {"error": f"reply is not a JSON object: {raw[:200]!r}"}
            )
        return parsed

    def _request_text(self, method: str, path: str) -> str:
        """Raw-text request for non-JSON endpoints (``/metrics``)."""
        conn = self._connection()
        try:
            conn.request(method, path, headers={"Connection": "keep-alive"})
            response = conn.getresponse()
            raw = response.read()
        except Exception:
            self.close()
            raise
        text = raw.decode("utf-8", "replace")
        if response.status >= 400:
            raise ServiceError(response.status, {"error": text})
        return text

    def close(self) -> None:
        """Close the underlying connection (a later call reconnects)."""
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "VerificationClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Endpoints (the client always speaks the versioned /v1 surface)
    # ------------------------------------------------------------------
    def healthz(self, ready: bool = False) -> Dict[str, object]:
        """Liveness probe; ``ready=True`` asks the readiness variant, which
        answers 503 (``ServiceUnavailableError``) while the server drains."""
        return self._request("GET", "/v1/healthz?ready" if ready else "/v1/healthz")

    def stats(self) -> Dict[str, object]:
        """Full server statistics (counters, dispatcher, jobs, plan cache, …)."""
        return self._request("GET", "/v1/stats")

    def metrics(self) -> str:
        """Prometheus text exposition from ``GET /v1/metrics`` (not JSON)."""
        return self._request_text("GET", "/v1/metrics")

    def keys(self, model_fingerprint: Optional[str] = None) -> List[Dict[str, object]]:
        """Registered key records, optionally filtered by model fingerprint."""
        path = "/v1/keys"
        if model_fingerprint:
            path += f"?model_fingerprint={model_fingerprint}"
        return self._request("GET", path)["keys"]

    def register_key(
        self,
        key: WatermarkKey,
        owner: str = "",
        metadata: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Register a watermark key; returns its registry record."""
        body = {"owner": owner, "metadata": metadata or {}, "key": key_to_wire(key)}
        return self._request("POST", "/v1/register", body)["registered"]

    def revoke_key(self, key_id: str) -> Dict[str, object]:
        """Revoke a registered key by id (``DELETE /v1/keys/{key_id}``)."""
        return self._request("DELETE", f"/v1/keys/{key_id}")["revoked"]

    def upload_suspect(
        self,
        model: QuantizedModel,
        suspect_id: Optional[str] = None,
        rank: bool = False,
    ) -> Dict[str, object]:
        """Upload a suspect deployment snapshot; returns id + fingerprint.

        With ``rank=True`` the response additionally carries ``ranking`` —
        the suspect verified against every candidate key registered for its
        model family (all co-resident owners), ordered by strength of
        ownership evidence.
        """
        body: Dict[str, object] = {"model": model_to_wire(model)}
        if suspect_id is not None:
            body["suspect_id"] = suspect_id
        if rank:
            body["rank"] = True
        return self._request("POST", "/v1/suspects", body)

    def verify(
        self,
        suspect_id: Optional[str] = None,
        model: Optional[QuantizedModel] = None,
        key_ids: Optional[List[str]] = None,
        wer_threshold: Optional[float] = None,
        max_false_claim_probability: object = "unset",
    ) -> Dict[str, object]:
        """Ownership check of a suspect against selected (or all active) keys.

        Pass either ``suspect_id`` of a previously uploaded snapshot or an
        inline ``model``.  ``max_false_claim_probability=None`` explicitly
        disables the Equation 8 bound; leaving it unset keeps the server
        default.
        """
        body: Dict[str, object] = {}
        if model is not None:
            body["model"] = model_to_wire(model)
            if suspect_id is not None:
                body["suspect_id"] = suspect_id
        elif suspect_id is not None:
            body["suspect_id"] = suspect_id
        else:
            raise ValueError("verify() needs a suspect_id or an inline model")
        if key_ids is not None:
            body["key_ids"] = list(key_ids)
        if wer_threshold is not None:
            body["wer_threshold"] = wer_threshold
        if max_false_claim_probability != "unset":
            body["max_false_claim_probability"] = max_false_claim_probability
        return self._request("POST", "/v1/verify", body)

    def robustness(
        self,
        suspect_id: str,
        key_id: Optional[str] = None,
        attacks: Optional[List[object]] = None,
        seed: int = 0,
        wer_threshold: Optional[float] = None,
        executor: Optional[str] = None,
    ) -> Dict[str, object]:
        """Run the server-side robustness gauntlet and wait for its report.

        Submit-and-wait over the job routes: :meth:`submit_robustness_job`,
        then :meth:`JobHandle.wait` for up to ``_ROBUSTNESS_WAIT_S``, then
        :meth:`JobHandle.report`.  When the wait times out the job is
        cancelled and :class:`TimeoutError` propagates, so an abandoned
        sweep stops burning server CPU.  A job that failed or was cancelled
        raises a 409 :class:`ServiceError` from the report fetch.  Returns
        the job id, the suspect id, the key id swept, and the gauntlet
        report (per-cell ownership evidence, min-WER per attack, decision
        digest).
        """
        handle = self.submit_robustness_job(
            suspect_id, key_id, attacks, seed, wer_threshold, executor
        )
        try:
            handle.wait(timeout=_ROBUSTNESS_WAIT_S)
        except TimeoutError:
            handle.cancel()
            raise
        return handle.report()

    # ------------------------------------------------------------------
    # Background jobs (/v1/jobs)
    # ------------------------------------------------------------------
    def submit_robustness_job(
        self,
        suspect_id: str,
        key_id: Optional[str] = None,
        attacks: Optional[List[object]] = None,
        seed: int = 0,
        wer_threshold: Optional[float] = None,
        executor: Optional[str] = None,
    ) -> "JobHandle":
        """Submit a server-side robustness gauntlet sweep; returns at once.

        One sweep targets one registered key (``key_id``; may be omitted
        when the registry holds exactly one active key).  ``attacks``
        entries are attack names or ``{"name": ..., "strengths": [...]}``
        objects; omitted, the server sweeps every corpus-free attack at its
        default strengths.  ``executor`` picks the cell executor
        (``"serial"``, ``"thread"``, ``"process"`` or ``"auto"``; omitted,
        the gauntlet's ``"thread"`` default).  The server answers 202 with
        a job id; the returned :class:`JobHandle` polls status, streams
        per-cell events, blocks on completion and fetches the final report.
        When the server runs with a checkpoint directory, resubmitting the
        identical request after a cancel/crash/restart resumes from the
        on-disk checkpoint.
        """
        body: Dict[str, object] = {"suspect_id": suspect_id, "seed": seed}
        if key_id is not None:
            body["key_id"] = key_id
        if attacks is not None:
            body["attacks"] = list(attacks)
        if wer_threshold is not None:
            body["wer_threshold"] = wer_threshold
        if executor is not None:
            body["executor"] = executor
        job = self._request("POST", "/v1/jobs/robustness", body)["job"]
        return JobHandle(self, str(job["job_id"]), job)

    def jobs(self) -> List[Dict[str, object]]:
        """Status snapshots of every retained job."""
        return self._request("GET", "/v1/jobs")["jobs"]

    def job_status(self, job_id: str) -> Dict[str, object]:
        """Status + progress of one job."""
        return self._request("GET", f"/v1/jobs/{job_id}")["job"]

    def job_report(self, job_id: str) -> Dict[str, object]:
        """Final report of a succeeded job.

        Raises :class:`ServiceError` with status 409 (code
        ``job_not_finished`` / ``job_failed`` / ``job_cancelled``) while the
        job is still running or did not succeed.
        """
        return self._request("GET", f"/v1/jobs/{job_id}/report")

    def cancel_job(self, job_id: str) -> Dict[str, object]:
        """Request cooperative cancellation of a running job."""
        return self._request("DELETE", f"/v1/jobs/{job_id}")["job"]

    def job_events(self, job_id: str, since: int = 0) -> Iterator[Dict[str, object]]:
        """Stream the job's NDJSON event log, one record at a time.

        Opens a **dedicated** connection (the stream stays open for the
        job's whole lifetime, which would otherwise head-of-line-block this
        client's keep-alive socket) and yields each event as it arrives —
        per-cell verdicts while the sweep is still running, then the final
        ``end`` record, after which the iterator stops.
        """
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events?since={int(since)}")
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    parsed = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    parsed = {"error": raw.decode("utf-8", "replace")}
                raise ServiceError(response.status, parsed)
            while True:
                # http.client strips the chunked framing; each line is one
                # complete JSON event (the server emits exactly one line per
                # transfer chunk).
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            conn.close()


class JobHandle:
    """Client-side view of one background job.

    Wraps a job id plus the client that created it::

        handle = client.submit_robustness_job("prod-a", attacks=["pruning"])
        for event in handle.events():          # live per-cell verdicts
            print(event)
        handle.wait(timeout=120)
        report = handle.report()["report"]
    """

    def __init__(
        self,
        client: VerificationClient,
        job_id: str,
        status: Optional[Dict[str, object]] = None,
    ) -> None:
        self._client = client
        self.job_id = job_id
        #: The most recent status snapshot (updated by :meth:`status`/:meth:`wait`).
        self.last_status: Dict[str, object] = dict(status or {})

    @property
    def state(self) -> str:
        """Last observed state (call :meth:`status` to refresh)."""
        return str(self.last_status.get("state", "pending"))

    def status(self) -> Dict[str, object]:
        """Fetch and cache the current status snapshot."""
        self.last_status = self._client.job_status(self.job_id)
        return self.last_status

    def events(self, since: int = 0) -> Iterator[Dict[str, object]]:
        """Stream the job's event log (see :meth:`VerificationClient.job_events`)."""
        return self._client.job_events(self.job_id, since=since)

    def wait(self, timeout: float = 300.0, poll_interval: float = 0.1) -> Dict[str, object]:
        """Poll until the job reaches a terminal state; returns the status.

        Raises :class:`TimeoutError` when the deadline passes first — the
        job keeps running server-side (use :meth:`cancel` to stop it).
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.status()
            if status.get("state") in ("succeeded", "failed", "cancelled"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {self.job_id} still {status.get('state')} after {timeout:.0f}s"
                )
            time.sleep(poll_interval)

    def cancel(self) -> Dict[str, object]:
        """Request cooperative cancellation."""
        self.last_status = self._client.cancel_job(self.job_id)
        return self.last_status

    def report(self) -> Dict[str, object]:
        """The final report payload (raises 409 ``ServiceError`` until done)."""
        return self._client.job_report(self.job_id)
