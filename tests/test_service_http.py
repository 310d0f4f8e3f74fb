"""The HTTP/SSE layer: server + client over a real socket.

The sync core is proven in ``tests/test_service.py``; here the asyncio
front-end runs in a background thread on an ephemeral port and the
stdlib client drives it exactly the way the CLI does.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.core import CampaignConfig, run_campaign
from repro.errors import JobNotFound, ServiceError, SpecError
from repro.models import FunarcCase
from repro.service import (CampaignService, JobSpec, ServiceClient,
                           ServiceServer)
from repro.service import server as server_module

_CASE_KW = dict(n=150, error_threshold=4.5e-8)


def _funarc():
    return FunarcCase(**_CASE_KW)


def _factory(name):
    if name != "funarc":
        raise KeyError(f"unknown model {name!r}")
    return _funarc()


def _config(**kw) -> CampaignConfig:
    kw.setdefault("nodes", 20)
    kw.setdefault("wall_budget_seconds", 12 * 3600)
    return CampaignConfig(**kw)


def _spec(**kw) -> JobSpec:
    kw.setdefault("model", "funarc")
    kw.setdefault("config", _config())
    return JobSpec(**kw)


@pytest.fixture(scope="module")
def clean_json():
    return run_campaign(_funarc(), _config()).to_json()


@pytest.fixture
def endpoint(tmp_path):
    """A live server on an ephemeral port; yields a ServiceClient."""
    service = CampaignService(tmp_path / "state", model_factory=_factory)
    server = ServiceServer(service, port=0, workers=2)
    ready = threading.Event()

    def run():
        async def main():
            await server.start()
            ready.set()
            await server.serve_forever()
        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server failed to start"
    client = ServiceClient(port=server.port, timeout=60.0)
    yield client
    try:
        client.shutdown()
    except ServiceError:
        pass  # already stopped by the test
    thread.join(10)
    assert not thread.is_alive(), "server thread leaked"


def _raw_exchange(client: ServiceClient, payload: bytes) -> tuple[int, dict]:
    """Send *payload* verbatim; return the status and JSON body."""
    with socket.create_connection((client.host, client.port),
                                  timeout=30) as sock:
        sock.sendall(payload)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    assert data, "server closed the connection without a response"
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestMalformedRequests:
    """Every malformed request gets a typed 4xx, and the server keeps
    serving."""

    def _assert_status(self, endpoint, payload: bytes, expected: int,
                       match: str) -> None:
        status, body = _raw_exchange(endpoint, payload)
        assert status == expected
        assert match in body["error"]
        assert endpoint.health()["status"] == "ok"

    def _assert_400(self, endpoint, payload: bytes, match: str) -> None:
        self._assert_status(endpoint, payload, 400, match)

    def test_header_line_over_the_reader_limit(self, endpoint):
        self._assert_status(endpoint, b"GET /healthz HTTP/1.1\r\n"
                                      b"X-Big: " + b"a" * 70_000
                                      + b"\r\n\r\n",
                            431, "line too long")

    def test_request_line_over_the_reader_limit(self, endpoint):
        self._assert_status(endpoint, b"GET /" + b"a" * 70_000
                                      + b" HTTP/1.1\r\n\r\n",
                            431, "line too long")

    def test_too_many_header_lines(self, endpoint):
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(500))
        self._assert_status(endpoint, b"GET /healthz HTTP/1.1\r\n"
                                      + headers + b"\r\n",
                            431, "more than 100 header lines")

    def test_header_count_at_the_cap_is_served(self, endpoint):
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(100))
        status, body = _raw_exchange(endpoint, b"GET /healthz HTTP/1.1\r\n"
                                     + headers + b"\r\n")
        assert (status, body["status"]) == (200, "ok")

    def test_non_numeric_content_length(self, endpoint):
        self._assert_400(endpoint, b"POST /jobs HTTP/1.1\r\n"
                                   b"Content-Length: ten\r\n\r\n",
                         "bad content-length 'ten'")

    def test_negative_content_length(self, endpoint):
        self._assert_400(endpoint, b"POST /jobs HTTP/1.1\r\n"
                                   b"Content-Length: -5\r\n\r\n",
                         "bad content-length '-5'")

    def test_non_utf8_header(self, endpoint):
        self._assert_400(endpoint, b"GET /healthz HTTP/1.1\r\n"
                                   b"X-Name: caf\xe9\r\n\r\n",
                         "header is not UTF-8")

    def test_non_utf8_job_body(self, endpoint):
        body = b'{"model": "caf\xe9"}'
        self._assert_400(endpoint, b"POST /jobs HTTP/1.1\r\n"
                                   b"Content-Length: %d\r\n\r\n%s"
                                   % (len(body), body),
                         "request body is not UTF-8")


class TestReadDeadline:
    """A client that stops sending mid-request gets a 408 once the read
    deadline passes, and the server keeps serving."""

    _DEADLINE = 0.5

    def _assert_408(self, endpoint, monkeypatch, payload: bytes) -> None:
        monkeypatch.setattr(server_module, "_READ_DEADLINE", self._DEADLINE)
        start = time.monotonic()
        status, body = _raw_exchange(endpoint, payload)
        elapsed = time.monotonic() - start
        assert status == 408
        assert "not received within 0.5s" in body["error"]
        assert self._DEADLINE <= elapsed < self._DEADLINE + 10
        assert endpoint.health()["status"] == "ok"

    def test_stalled_head(self, endpoint, monkeypatch):
        self._assert_408(endpoint, monkeypatch,
                         b"GET /healthz HTTP/1.1\r\nX-Partial: a")

    def test_short_body(self, endpoint, monkeypatch):
        self._assert_408(endpoint, monkeypatch,
                         b"POST /jobs HTTP/1.1\r\nContent-Length: 100"
                         b"\r\n\r\n{\"model\": ")


class TestHttp:
    def test_health(self, endpoint):
        health = endpoint.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_submit_watch_result_roundtrip(self, endpoint, clean_json):
        resp = endpoint.submit(_spec())
        assert set(resp) == {"job_id", "seq", "state", "deduplicated"}
        assert not resp["deduplicated"]
        events = list(endpoint.watch(resp["job_id"]))
        names = [e["event"] for e in events]
        assert names[0] == "JobSubmitted"
        assert names[-1] == "JobFinished"
        assert "CampaignFinished" in names
        # The served bytes are exactly the direct-run bytes.
        assert endpoint.result_text(resp["job_id"]) == clean_json
        job = endpoint.job(resp["job_id"])
        assert job["state"] == "done"

    def test_duplicate_submission_attaches(self, endpoint):
        first = endpoint.submit(_spec())
        second = endpoint.submit(_spec())
        assert second["job_id"] == first["job_id"]
        assert second["deduplicated"]
        assert len(endpoint.jobs()) == 1

    def test_tenant_filter(self, endpoint):
        endpoint.submit(_spec(tenant="alice"))
        endpoint.submit(_spec(tenant="bob"))
        assert {j["tenant"] for j in endpoint.jobs()} == {"alice", "bob"}
        assert [j["tenant"] for j in endpoint.jobs("bob")] == ["bob"]

    def test_watch_after_completion_replays_history(self, endpoint):
        resp = endpoint.submit(_spec())
        live = [e["event"] for e in endpoint.watch(resp["job_id"])]
        replay = [e["event"] for e in endpoint.watch(resp["job_id"])]
        assert replay == live

    def test_bad_spec_is_400_with_server_text(self, endpoint):
        with pytest.raises(SpecError, match="unknown model"):
            endpoint.submit(_spec(model="nonesuch"))
        with pytest.raises(SpecError, match="algorithm"):
            endpoint._request("POST", "/jobs", body=json.dumps(
                {"model": "funarc", "algorithm": "quantum"}))

    def test_unknown_job_is_404(self, endpoint):
        with pytest.raises(JobNotFound):
            endpoint.job("feedfacecafebeef")
        with pytest.raises(JobNotFound):
            list(endpoint.watch("feedfacecafebeef"))

    def test_unknown_route_is_404(self, endpoint):
        with pytest.raises(JobNotFound):
            endpoint._request("GET", "/nope")

    def test_concurrent_jobs_both_finish_identically(self, endpoint,
                                                     clean_json):
        a = endpoint.submit(_spec(tenant="alice"))
        b = endpoint.submit(_spec(tenant="bob"))
        for resp in (a, b):
            events = list(endpoint.watch(resp["job_id"]))
            assert events[-1]["event"] == "JobFinished"
            assert endpoint.result_text(resp["job_id"]) == clean_json

    def test_shutdown_then_unreachable(self, endpoint):
        endpoint.shutdown()
        # Allow the loop a moment to tear the listener down.
        import time
        for _ in range(50):
            try:
                endpoint.health()
                time.sleep(0.1)
            except ServiceError:
                break
        else:
            pytest.fail("server still answering after shutdown")
