"""Asyncio HTTP/1.1 plumbing for the verification server.

Kept apart from :mod:`repro.service.server` so the server module holds only
routes and verification logic, not framing: framing limits, keep-alive
handling, the ``{param}`` routing table, the uniform JSON error envelope and
chunked streaming live here.  :class:`AsyncHttpServer` is the base: a
subclass provides a routing table (:meth:`AsyncHttpServer._build_routes`)
and may hook request counting and latency observation; everything below the
routes (parsing, limits, response writing, lifecycle) is in this module.

The HTTP layer is deliberately minimal — request line + headers +
``Content-Length`` body (a request with ``Transfer-Encoding`` is one 400
and a closed connection), keep-alive connections, no TLS, chunked
transfer-encoding only where a handler returns a :class:`StreamingResponse`
— the stdlib-only constraint rules out real frameworks, and the interesting
engineering lives behind the routes, not in header parsing.

Request bodies come in two forms, told apart by ``Content-Type`` in one
place, :meth:`AsyncHttpServer._route`: a binary frame
(:data:`~repro.service.codec.WIRE_MEDIA_TYPE`, a request carrying a key or a
model) is decoded there into the request object, with the archive bytes in
its wire object; any other body stays bytes until a handler asks
:meth:`AsyncHttpServer._payload` for it, which parses it as JSON.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import AsyncIterator, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.service.codec import WIRE_MEDIA_TYPE, decode_frame
from repro.utils.logging import get_logger

__all__ = [
    "AsyncHttpServer",
    "HttpError",
    "RequestBody",
    "Route",
    "StreamingResponse",
    "error_envelope",
]

logger = get_logger("service.http")

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 256 * 1024 * 1024

#: What a handler receives: raw body bytes, or the request object of a
#: binary frame that :meth:`AsyncHttpServer._route` already decoded.
RequestBody = Union[bytes, Dict[str, object]]

#: Reason phrases for every status the service can answer with.
REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Default machine-readable error codes per status — ``HttpError.code``
#: overrides these when a handler has something more specific to say.
ERROR_CODES = {
    400: "invalid_request",
    404: "not_found",
    405: "method_not_allowed",
    409: "conflict",
    429: "rate_limited",
    500: "internal",
    503: "unavailable",
}


class HttpError(Exception):
    """Internal: converts to the uniform JSON error envelope.

    ``counter`` names the server stat the error should increment; when left
    ``None`` the status code picks the default bucket.  ``code`` overrides
    the status-derived machine-readable code and ``retry_after`` (seconds)
    tells backoff-aware clients when trying again is worthwhile.
    """

    def __init__(
        self,
        status: int,
        message: str,
        counter: Optional[str] = None,
        code: Optional[str] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.counter = counter
        self.code = code
        self.retry_after = retry_after


def error_envelope(
    status: int,
    message: str,
    code: Optional[str] = None,
    retry_after: Optional[float] = None,
) -> Dict[str, object]:
    """The one error body every endpoint answers with."""
    error: Dict[str, object] = {
        "code": code or ERROR_CODES.get(status, "error"),
        "message": message,
    }
    if retry_after is not None:
        error["retry_after"] = float(retry_after)
    return {"error": error}


def _keep_alive(version: str, headers: Dict[str, str]) -> bool:
    """Whether the connection stays open after this request's response.

    HTTP/1.1 keeps it open unless the client sends ``Connection: close``;
    HTTP/1.0 closes it unless the client sends ``Connection: keep-alive``.
    """
    tokens = {t.strip() for t in headers.get("connection", "").lower().split(",")}
    if version.upper() == "HTTP/1.0":
        return "keep-alive" in tokens
    return "close" not in tokens


class StreamingResponse:
    """A chunked response whose body is an async byte-chunk generator.

    Handlers return one of these instead of ``(status, payload)`` when the
    body must be written incrementally (the job event stream); the
    connection loop switches to ``Transfer-Encoding: chunked`` framing.
    """

    def __init__(
        self,
        status: int,
        body: AsyncIterator[bytes],
        content_type: str = "application/x-ndjson",
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type


class Route:
    """One (method, path pattern) entry of the routing table.

    Patterns are literal segments with ``{param}`` placeholders
    (``/v1/jobs/{job_id}/events``); matching is segment-exact, captured
    parameters are handed to the handler.
    """

    def __init__(self, method: str, pattern: str, handler) -> None:
        self.method = method
        self.pattern = pattern
        self.handler = handler
        self._segments = [seg for seg in pattern.split("/") if seg]

    def match(self, segments: Sequence[str]) -> Optional[Dict[str, str]]:
        if len(segments) != len(self._segments):
            return None
        params: Dict[str, str] = {}
        for expected, actual in zip(self._segments, segments):
            if expected.startswith("{") and expected.endswith("}"):
                params[expected[1:-1]] = actual
            elif expected != actual:
                return None
        return params


class AsyncHttpServer:
    """Keep-alive asyncio HTTP server with a declarative routing table.

    Subclasses implement :meth:`_build_routes` and may override the two
    bookkeeping hooks (:meth:`_count`, :meth:`_observe_latency`) to feed
    their own instruments; :meth:`start`/:meth:`stop` are extended (call
    ``super()``) for subsystem lifecycle.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._host = host
        self._requested_port = int(port)
        self._routes = self._build_routes()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self.port: Optional[int] = None
        self.started_at: Optional[float] = None

    # -- subclass surface ------------------------------------------------
    def _build_routes(self) -> List[Route]:
        raise NotImplementedError

    def _count(self, stat: str) -> None:
        """Increment one request-accounting bucket (default: no bookkeeping)."""

    def _observe_latency(self, seconds: float) -> None:
        """Record one request's routing latency (default: no bookkeeping)."""

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self._host, port=self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()

    async def stop(self) -> None:
        """Stop accepting and close open connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Cancel in-flight handlers (idle keep-alive connections would
        # otherwise be destroyed mid-task when the loop shuts down).
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI entry point)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling ---------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(asyncio.current_task())
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except HttpError as exc:
                    # Unparseable framing (e.g. a bad Content-Length): answer
                    # once, then drop the connection — the stream position is
                    # no longer trustworthy.
                    self._count("requests_total")
                    self._count("errors")
                    await self._write_response(
                        writer, exc.status, error_envelope(exc.status, str(exc)), False
                    )
                    break
                if request is None:
                    break
                method, path, version, headers, body = request
                keep_alive = _keep_alive(version, headers)
                self._count("requests_total")
                started = time.perf_counter()
                response: Union[Tuple[int, object, Dict[str, str]], StreamingResponse]
                try:
                    response = await self._route(
                        method, path, body, headers.get("content-type", "")
                    )
                except HttpError as exc:
                    response = (
                        exc.status,
                        error_envelope(exc.status, str(exc), exc.code, exc.retry_after),
                        {},
                    )
                    if exc.counter is not None:
                        self._count(exc.counter)
                    elif exc.status == 429:
                        self._count("rejected_rate_limit")
                    elif exc.status == 503:
                        self._count("rejected_queue_full")
                    else:
                        self._count("errors")
                except Exception as exc:  # route bug — keep serving
                    logger.exception("unhandled error on %s %s", method, path)
                    response = (
                        500,
                        error_envelope(500, f"{type(exc).__name__}: {exc}"),
                        {},
                    )
                    self._count("errors")
                self._observe_latency(time.perf_counter() - started)
                if isinstance(response, StreamingResponse):
                    await self._write_stream(writer, response, keep_alive)
                else:
                    status, payload, extra_headers = response
                    await self._write_response(
                        writer, status, payload, keep_alive, extra_headers
                    )
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError, asyncio.LimitOverrunError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown
        finally:
            self._connections.discard(asyncio.current_task())
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, str, Dict[str, str], bytes]]:
        try:
            request_line = await reader.readline()
        except ValueError:
            # StreamReader wraps a line longer than its buffer limit into a
            # bare ValueError — answer 400 instead of crashing the task.
            raise HttpError(400, "request line too long") from None
        if not request_line:
            return None
        try:
            method, target, version = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            raise HttpError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                raise HttpError(400, "header line too long") from None
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES:
                raise HttpError(400, "header section too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise HttpError(400, "conflicting Content-Length headers")
            headers[name] = value
        if "transfer-encoding" in headers:
            # Only Content-Length bodies are read: the end of this one cannot
            # be found, so its bytes must not be parsed as the next request.
            raise HttpError(400, "Transfer-Encoding request bodies are not supported")
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise HttpError(400, "invalid Content-Length header") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise HttpError(400, f"body exceeds the {MAX_BODY_BYTES}-byte limit")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, version.strip(), headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[Dict[str, object], str],
        keep_alive: bool,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if isinstance(payload, str):
            # Prometheus text exposition (GET /metrics) — everything else
            # the service speaks is JSON.
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        lines = [
            f"HTTP/1.1 {status} {REASONS.get(status, 'Response')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _write_stream(
        self,
        writer: asyncio.StreamWriter,
        response: StreamingResponse,
        keep_alive: bool,
    ) -> None:
        """Write a chunked response, one transfer-chunk per generator yield.

        Each NDJSON line goes out as its own chunk, so a client tailing the
        job event stream sees cell verdicts as they complete, not when the
        sweep ends.  ``http.client`` (and every real HTTP client) strips the
        chunk framing transparently.
        """
        lines = [
            f"HTTP/1.1 {response.status} {REASONS.get(response.status, 'Response')}",
            f"Content-Type: {response.content_type}",
            "Transfer-Encoding: chunked",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await writer.drain()
        body = response.body
        try:
            async for chunk in body:
                if not chunk:
                    continue
                writer.write(f"{len(chunk):X}\r\n".encode("latin-1") + chunk + b"\r\n")
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            aclose = getattr(body, "aclose", None)
            if aclose is not None:
                await aclose()

    @staticmethod
    def _payload(body: RequestBody) -> Dict[str, object]:
        """The request object: a decoded frame as it is, a body parsed as JSON."""
        if isinstance(body, dict):
            return body
        if not body:
            raise HttpError(400, "request body must be JSON")
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the parser's stack allows.
            raise HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(parsed, dict):
            raise HttpError(400, "JSON body must be an object")
        return parsed

    # -- routing ----------------------------------------------------------
    async def _route(
        self, method: str, target: str, body: bytes, content_type: str
    ) -> Union[Tuple[int, object, Dict[str, str]], StreamingResponse]:
        parts = urlsplit(target)
        path = parts.path
        # keep_blank_values so the bare `?ready` readiness flag survives.
        query = parse_qs(parts.query, keep_blank_values=True)
        segments = [seg for seg in path.split("/") if seg]
        path_matched = False
        for route in self._routes:
            params = route.match(segments)
            if params is None:
                continue
            path_matched = True
            if route.method != method:
                continue
            request: RequestBody = body
            if content_type.partition(";")[0].strip().lower() == WIRE_MEDIA_TYPE:
                # Framing is checked here, before any handler decodes,
                # admits or stores anything.
                try:
                    request = decode_frame(body)
                except ValueError as exc:
                    raise HttpError(400, f"invalid wire frame: {exc}") from exc
            result = route.handler(request, params, query)
            if asyncio.iscoroutine(result):
                result = await result
            if isinstance(result, StreamingResponse):
                return result
            status, payload = result[0], result[1]
            return status, payload, (result[2] if len(result) > 2 else {})
        if path_matched:
            raise HttpError(405, f"method {method} not allowed on {path}")
        raise HttpError(404, f"unknown endpoint {path}")
