"""Async HTTP front-end: job submission, status, and SSE streaming.

A deliberately small stdlib-only server (``asyncio.start_server`` plus
a hand-rolled HTTP/1.1 layer — no new dependencies, per the repo's
ground rules).  The event loop owns *coordination*; the campaigns
themselves are CPU-bound synchronous code and run in worker threads
via :func:`asyncio.to_thread`, up to ``workers`` at a time.

Determinism note: all dispatch decisions are made by **one** dispatcher
task calling :meth:`CampaignService.next_job` — worker threads never
race for the queue, so the dispatch order is exactly the fair-share
scheduler's order no matter how many slots are configured.

Routes::

    GET  /healthz            -> {"status": "ok", ...}
    POST /jobs               <- JobSpec JSON; 200 {"job_id", "deduplicated", ...}
    GET  /jobs[?tenant=T]    -> {"jobs": [...]}
    GET  /jobs/<id>          -> job record
    GET  /jobs/<id>/result   -> the exact result.json bytes
    GET  /jobs/<id>/events   -> text/event-stream (history + live)
    POST /shutdown           -> drain nothing, stop accepting, exit
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from ..errors import JobNotFound, ServiceError, SpecError
from .core import CampaignService
from .schema import JobSpec

__all__ = ["ServiceServer"]

_MAX_BODY = 1 << 20  # 1 MiB: job specs are small; refuse anything huge
_MAX_HEADERS = 100   # header lines per request; more is answered with 431
#: Seconds a client has to send its whole request (line, headers and
#: body); a slower one is answered with 408 so it cannot hold a handler.
_READ_DEADLINE = 30.0


def _response(status: int, payload: object, *,
              content_type: str = "application/json") -> bytes:
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
               405: "Method Not Allowed", 408: "Request Timeout",
               409: "Conflict",
               413: "Payload Too Large",
               431: "Request Header Fields Too Large",
               500: "Internal Server Error"}
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    head = (f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode()
    return head + body


class _HeadTooLarge(Exception):
    """The request head breaks a size limit (answered with a 431)."""


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:      # over the reader's limit (64 KiB by default)
        raise _HeadTooLarge("request or header line too long") from None


async def _read_headers(reader: asyncio.StreamReader) -> list[bytes]:
    """The raw header lines up to the blank line; more than
    ``_MAX_HEADERS`` of them raise :class:`_HeadTooLarge`."""
    lines: list[bytes] = []
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            return lines
        if len(lines) == _MAX_HEADERS:
            raise _HeadTooLarge(f"more than {_MAX_HEADERS} header lines")
        lines.append(line)


async def _read_request(reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter
                        ) -> Optional[tuple[str, str, bytes]]:
    """Read one request as ``(method, target, body)``; a malformed
    one is answered here with a 400 or 413 and gives None; an
    oversized head raises :class:`_HeadTooLarge`."""
    request_line = await _read_line(reader)
    if not request_line:
        return None
    try:
        method, target, _ = request_line.decode().split(None, 2)
    except ValueError:
        writer.write(_response(400, {"error": "bad request line"}))
        return None
    header_lines = await _read_headers(reader)
    headers = {}
    for line in header_lines:
        try:
            name, _, value = line.decode().partition(":")
        except UnicodeDecodeError:
            writer.write(_response(400, {"error": "header is not UTF-8"}))
            return None
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        length = -1
    if length < 0:
        writer.write(_response(400, {
            "error": f"bad content-length {raw_length!r}"}))
        return None
    if length > _MAX_BODY:
        writer.write(_response(413, {"error": "body too large"}))
        return None
    body = await reader.readexactly(length) if length else b""
    return method, target, body


async def _discard_rest(reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
    """Flush the answer, then read and drop what the client still sends
    (at most ``_MAX_BODY`` bytes for one second), so that closing with
    unread input does not reset the connection before the client has
    read the answer."""
    async def drop() -> None:
        budget = _MAX_BODY
        while budget > 0 and (chunk := await reader.read(65536)):
            budget -= len(chunk)

    try:
        await writer.drain()
        if writer.can_write_eof():
            writer.write_eof()
        await asyncio.wait_for(drop(), 1.0)
    except (asyncio.TimeoutError, ConnectionError, OSError):
        pass


def _raw_response(status: int, body: bytes, content_type: str) -> bytes:
    head = (f"HTTP/1.1 {status} OK\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode()
    return head + body


class ServiceServer:
    """The asyncio wrapper around one :class:`CampaignService`."""

    def __init__(self, service: CampaignService, *, host: str = "127.0.0.1",
                 port: int = 0, workers: int = 1):
        if workers < 1:
            raise ServiceError("workers must be >= 1")
        self.service = service
        self.host = host
        self.port = port
        self.workers = workers
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop = None  # asyncio.Event, created on the loop
        self._wake = None  # asyncio.Event: new work for the dispatcher
        self._active = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._wake = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def serve_forever(self) -> None:
        """Run until ``POST /shutdown`` (or task cancellation)."""
        if self._server is None:
            await self.start()
        await self._stop.wait()
        self._server.close()
        await self._server.wait_closed()
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        self.service.close()

    def request_shutdown(self) -> None:
        if self._stop is not None:
            self._stop.set()

    # -- dispatcher ----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """The single source of dispatch decisions.

        Claims jobs (``next_job`` journals the ``started`` entry) only
        while a worker slot is free, then runs each campaign in a
        thread.  Because claiming is serialized here, dispatch *order*
        is the scheduler's deterministic order even with many slots;
        only completion order varies with timing.
        """
        while True:
            while self._active >= self.workers or not self._claim_one():
                self._wake.clear()
                # Poll as a fallback: job completion wakes us, but a
                # cheap timeout keeps the loop robust to lost wakeups.
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=0.2)
                except asyncio.TimeoutError:
                    pass

    def _claim_one(self) -> bool:
        rec = self.service.next_job()
        if rec is None:
            return False
        self._active += 1

        async def run() -> None:
            try:
                await asyncio.to_thread(self.service.execute, rec)
            finally:
                self._active -= 1
                self._wake.set()
        asyncio.create_task(run())
        return True

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    _read_request(reader, writer), _READ_DEADLINE)
            except asyncio.TimeoutError:
                writer.write(_response(408, {
                    "error": f"request not received within "
                             f"{_READ_DEADLINE:g}s"}))
                return
            except _HeadTooLarge as exc:
                writer.write(_response(431, {"error": str(exc)}))
                await _discard_rest(reader, writer)
                return
            if request is not None:
                await self._route(*request, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                if writer.can_write_eof():
                    writer.write_eof()
            except (OSError, RuntimeError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, method: str, target: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = parse_qs(parts.query)
        try:
            if path == "/healthz" and method == "GET":
                writer.write(_response(200, {
                    "status": "ok",
                    "queued": self.service.queue_depth(),
                    "active": self._active,
                    "workers": self.workers}))
            elif path == "/jobs" and method == "POST":
                try:
                    text = body.decode("utf-8")
                except UnicodeDecodeError:
                    raise SpecError("request body is not UTF-8") from None
                spec = JobSpec.from_json(text)
                rec, deduplicated = self.service.submit(spec)
                writer.write(_response(200, {
                    "job_id": rec.job_id, "seq": rec.seq,
                    "state": rec.state, "deduplicated": deduplicated}))
            elif path == "/jobs" and method == "GET":
                tenant = (query.get("tenant") or [None])[0]
                writer.write(_response(
                    200, {"jobs": self.service.jobs(tenant)}))
            elif path == "/shutdown" and method == "POST":
                writer.write(_response(200, {"status": "stopping"}))
                self.request_shutdown()
            elif path.startswith("/jobs/"):
                await self._route_job(method, path, writer)
            else:
                writer.write(_response(404, {"error": f"no route "
                                                      f"{method} {path}"}))
        except SpecError as exc:
            writer.write(_response(400, {"error": str(exc)}))
        except JobNotFound as exc:
            writer.write(_response(404, {"error": str(exc)}))
        except ServiceError as exc:
            writer.write(_response(409, {"error": str(exc)}))

    async def _route_job(self, method: str, path: str,
                         writer: asyncio.StreamWriter) -> None:
        segments = path.split("/")  # '', 'jobs', <id>[, verb]
        job_id = segments[2]
        verb = segments[3] if len(segments) > 3 else None
        if verb is None and method == "GET":
            writer.write(_response(200, self.service.job(job_id).public()))
        elif verb == "result" and method == "GET":
            text = self.service.result_text(job_id)
            writer.write(_raw_response(200, text.encode(),
                                       "application/json"))
        elif verb == "events" and method == "GET":
            await self._stream_events(job_id, writer)
        else:
            writer.write(_response(405, {"error": f"no route "
                                                  f"{method} {path}"}))

    # -- SSE -----------------------------------------------------------

    async def _stream_events(self, job_id: str,
                             writer: asyncio.StreamWriter) -> None:
        """``text/event-stream``: full history, then live events.

        The per-job forwarder pushes from worker threads; events hop
        onto the loop via ``call_soon_threadsafe`` into an asyncio
        queue.  The subscription snapshot inside
        :meth:`CampaignService.watch` is atomic, so the stream has no
        gap and no duplicates.  The stream ends with an ``event: done``
        frame once the job is terminal.
        """
        self.service.job(job_id)  # JobNotFound -> 404 before headers
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"Connection: close\r\n\r\n")
        queue: asyncio.Queue = asyncio.Queue()
        loop = asyncio.get_running_loop()

        def push(payload: dict) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, payload)

        unsubscribe = self.service.watch(job_id, push)
        try:
            while True:
                payload = await queue.get()
                frame = (f"event: {payload['event']}\n"
                         f"data: {json.dumps(payload['data'], sort_keys=True)}"
                         f"\n\n")
                writer.write(frame.encode())
                await writer.drain()
                if payload["event"] in ("JobFinished", "JobFailed"):
                    break
            writer.write(b"event: done\ndata: {}\n\n")
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            unsubscribe()

    # -- blocking entry point (CLI) ------------------------------------

    def run(self) -> None:
        """Start the loop and serve until shutdown (blocking)."""
        asyncio.run(self.serve_forever())
