"""Tests of the HTTP layer's operational surface: RED metrics,
``/metrics``, ``/debug/prof``, request ids, edge cases and client
disconnects."""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlparse

import pytest

import repro.obs as obs
from repro.obs.metrics import MetricsRegistry
from repro.serve.http import (
    DISCONNECTS_TOTAL,
    MAX_BODY,
    REQUEST_SECONDS,
    REQUESTS_TOTAL,
    FleetRequestHandler,
    HttpMetrics,
    endpoint_label,
)

from tests.serve.test_http import _get, _post, _tick_json


@pytest.fixture()
def served_fleet(obs_served_fleet):
    return obs_served_fleet


def _hostport(base):
    url = urlparse(base)
    return url.hostname, url.port


def _await(predicate, timeout=10.0):
    """Wait out the reply-first/record-second window of ``_dispatch``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestEndpointLabel:
    def test_known_paths_are_themselves(self):
        for path in ("/health", "/contexts", "/metrics", "/ingest"):
            assert endpoint_label(path) == path

    def test_parameterised_paths_collapse(self):
        assert endpoint_label("/explain/wc@node-1") == "/explain"
        assert endpoint_label("/explain") == "/explain"
        assert endpoint_label("/debug/prof") == "/debug/prof"

    def test_unknown_paths_are_bounded(self):
        assert endpoint_label("/nope") == "(other)"
        assert endpoint_label("/explain-not-really") == "(other)"


class TestMetricsEndpoint:
    def test_exposition_counts_per_endpoint(self, served_fleet):
        fleet, contexts, base = served_fleet
        _get(f"{base}/health")
        requests = obs.metrics_registry().family(REQUESTS_TOTAL)
        assert _await(
            lambda: requests.value(
                endpoint="/health", method="GET", status="200"
            )
            == 1
        )
        status, body = _get(f"{base}/metrics")
        assert status == 200
        text = body.decode("utf-8")
        assert (
            'invarnetx_http_requests_total'
            '{endpoint="/health",method="GET",status="200"} 1'
        ) in text
        # recorded after the reply: a /metrics body never includes its
        # own request
        assert 'endpoint="/metrics"' not in text
        assert _await(
            lambda: requests.value(
                endpoint="/metrics", method="GET", status="200"
            )
            == 1
        )
        status, body = _get(f"{base}/metrics")
        assert (
            'invarnetx_http_requests_total'
            '{endpoint="/metrics",method="GET",status="200"} 1'
        ) in body.decode("utf-8")

    def test_requests_survive_a_registry_reset(self, served_fleet):
        fleet, contexts, base = served_fleet
        registry = obs.metrics_registry()

        def health_requests():
            family = registry.family(REQUESTS_TOTAL)
            if family is None:
                return 0
            return family.value(
                endpoint="/health", method="GET", status="200"
            )

        _get(f"{base}/health")
        assert _await(lambda: health_requests() == 1)
        obs.reset()
        _get(f"{base}/health")
        assert _await(lambda: health_requests() == 1)
        _, body = _get(f"{base}/metrics")
        assert (
            'invarnetx_http_requests_total'
            '{endpoint="/health",method="GET",status="200"} 1'
        ) in body.decode("utf-8")

    def test_latency_histogram_present(self, served_fleet):
        fleet, contexts, base = served_fleet
        _get(f"{base}/health")
        requests = obs.metrics_registry().family(REQUESTS_TOTAL)
        assert _await(
            lambda: requests.value(
                endpoint="/health", method="GET", status="200"
            )
            == 1
        )
        _, body = _get(f"{base}/metrics")
        text = body.decode("utf-8")
        assert "# TYPE invarnetx_http_request_seconds histogram" in text
        assert (
            'invarnetx_http_request_seconds_count{endpoint="/health"} 1'
        ) in text
        assert 'le="0.5"' in text  # the SLO-aligned bound

    def test_exposition_is_byte_stable(self, served_fleet):
        fleet, contexts, base = served_fleet
        _get(f"{base}/health")
        registry = obs.metrics_registry()
        assert (
            registry.render_prometheus() == registry.render_prometheus()
        )

    def test_errors_carry_their_status_label(self, served_fleet):
        fleet, contexts, base = served_fleet
        with pytest.raises(urllib.error.HTTPError):
            _get(f"{base}/nope")
        requests = obs.metrics_registry().family(REQUESTS_TOTAL)
        assert _await(
            lambda: requests.value(
                endpoint="(other)", method="GET", status="404"
            )
            == 1
        )


class TestRequestIds:
    def test_client_supplied_id_is_echoed(self, served_fleet):
        fleet, contexts, base = served_fleet
        req = urllib.request.Request(
            f"{base}/health", headers={"X-Request-Id": "abc-123"}
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.headers["X-Request-Id"] == "abc-123"

    def test_generated_ids_are_unique(self, served_fleet):
        fleet, contexts, base = served_fleet
        seen = set()
        for _ in range(3):
            with urllib.request.urlopen(
                f"{base}/health", timeout=10
            ) as resp:
                rid = resp.headers["X-Request-Id"]
            assert rid.startswith("req-")
            seen.add(rid)
        assert len(seen) == 3


class TestDebugProf:
    def test_speedscope_profile_of_live_ingest(self, served_fleet):
        fleet, contexts, base = served_fleet
        stop = threading.Event()

        def _pound():
            t = 0
            while not stop.is_set():
                _post(
                    f"{base}/ingest",
                    {"ticks": [_tick_json(contexts[0], 1.0, t)]},
                )
                t += 1

        pounder = threading.Thread(target=_pound, daemon=True)
        pounder.start()
        try:
            status, body = _get(f"{base}/debug/prof?seconds=0.3")
        finally:
            stop.set()
            pounder.join(timeout=10)
        assert status == 200
        doc = json.loads(body)
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert profile["endValue"] > 0
        assert len(doc["shared"]["frames"]) > 0

    def test_collapsed_format(self, served_fleet):
        fleet, contexts, base = served_fleet
        status, body = _get(
            f"{base}/debug/prof?seconds=0.1&hz=200&format=collapsed"
        )
        assert status == 200
        text = body.decode("utf-8")
        # the handler thread itself is parked in the capture wait
        assert any(
            line.rsplit(" ", 1)[1].isdigit()
            for line in text.splitlines()
        )

    def test_query_validation(self, served_fleet):
        fleet, contexts, base = served_fleet
        for query in (
            "seconds=0",
            "seconds=31",
            "seconds=abc",
            "seconds=0.1&hz=0.5",
            "seconds=0.1&format=pprof",
            "seconds=0.1&bogus=1",
            "seconds=0.1&seconds=0.2",
        ):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{base}/debug/prof?{query}")
            assert err.value.code == 400, query


class TestEdgeCases:
    def test_oversized_content_length_is_400(self, served_fleet):
        fleet, contexts, base = served_fleet
        host, port = _hostport(base)
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/ingest")
            conn.putheader("Content-Length", str(MAX_BODY + 1))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert b"Content-Length" in resp.read()
        finally:
            conn.close()

    def test_negative_content_length_is_400(self, served_fleet):
        fleet, contexts, base = served_fleet
        host, port = _hostport(base)
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/ingest")
            conn.putheader("Content-Length", "-5")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
        finally:
            conn.close()

    def test_non_dict_json_body_is_400(self, served_fleet):
        fleet, contexts, base = served_fleet
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base}/ingest", json.dumps([1, 2, 3]).encode())
        assert err.value.code == 400

    def test_explain_unknown_query_is_400(self, served_fleet):
        fleet, contexts, base = served_fleet
        for query in ("bogus=1", "format=xml", "format=json&format=json"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{base}/explain/wordcount@node-0?{query}")
            assert err.value.code == 400, query

    def test_concurrent_ingest_accounting_is_exact(self, served_fleet):
        fleet, contexts, base = served_fleet
        workers, each = 4, 5
        errors = []

        def _loop(worker):
            try:
                for t in range(each):
                    status, reply = _post(
                        f"{base}/ingest",
                        {"ticks": [_tick_json(contexts[worker % 3], 1.0, t)]},
                    )
                    assert status == 200
            except Exception as exc:  # surfaced below, not swallowed
                errors.append(exc)

        threads = [
            threading.Thread(target=_loop, args=(i,)) for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        registry = obs.metrics_registry()
        requests = registry.family(REQUESTS_TOTAL)
        _await(
            lambda: requests.value(
                endpoint="/ingest", method="POST", status="200"
            )
            >= workers * each
        )
        assert (
            requests.value(endpoint="/ingest", method="POST", status="200")
            == workers * each
        )
        ((labels, _sum, count, _buckets),) = [
            s
            for s in registry.family(REQUEST_SECONDS).samples()
            if s[0] == {"endpoint": "/ingest"}
        ]
        assert count == workers * each


class TestDisconnects:
    def test_broken_pipe_is_counted_not_raised(self):
        registry = MetricsRegistry(enabled=True)
        handler = object.__new__(FleetRequestHandler)
        handler.path = "/health"
        handler.headers = {}
        handler.metrics = HttpMetrics(registry)
        handler.close_connection = False

        def _explode():
            raise BrokenPipeError("client went away")

        handler._dispatch("GET", _explode)  # must not raise
        assert handler.close_connection
        metrics = handler.metrics
        assert metrics.disconnects.value(endpoint="/health") == 1
        assert (
            metrics.requests.value(
                endpoint="/health", method="GET", status="0"
            )
            == 1
        )

    def test_connection_reset_is_counted_too(self):
        registry = MetricsRegistry(enabled=True)
        handler = object.__new__(FleetRequestHandler)
        handler.path = "/contexts"
        handler.headers = {"X-Request-Id": "rst-1"}
        handler.metrics = HttpMetrics(registry)
        handler.close_connection = False

        def _explode():
            raise ConnectionResetError

        handler._dispatch("GET", _explode)
        assert handler.metrics.disconnects.value(endpoint="/contexts") == 1

    def test_early_closing_socket_leaves_server_alive(self, served_fleet):
        fleet, contexts, base = served_fleet
        host, port = _hostport(base)
        sock = socket.create_connection((host, port), timeout=10)
        # a slow endpoint guarantees the reply lands after our RST
        sock.sendall(
            b"GET /debug/prof?seconds=0.4&hz=50 HTTP/1.1\r\n"
            b"Host: test\r\n\r\n"
        )
        sock.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_LINGER,
            struct.pack("ii", 1, 0),  # close() sends RST immediately
        )
        sock.close()
        disconnects = obs.metrics_registry().family(DISCONNECTS_TOTAL)
        _await(lambda: disconnects.value(endpoint="/debug/prof") >= 1)
        assert disconnects.value(endpoint="/debug/prof") == 1
        # the handler thread absorbed the error; the server still serves
        status, _ = _get(f"{base}/health")
        assert status == 200
