"""End-to-end tests of the stdlib HTTP/JSON serving surface."""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import OperationContext
from repro.serve import FleetMonitor, build_server

from tests.serve.conftest import build_pipeline

MONITOR_KW = dict(window_ticks=8, warmup_ticks=12, cooldown_ticks=4)


@pytest.fixture()
def served():
    contexts = [OperationContext("wordcount", f"node-{i}") for i in range(3)]
    fleet = FleetMonitor(build_pipeline(contexts), shards=2, **MONITOR_KW)
    server = build_server(fleet)  # ephemeral port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield fleet, contexts, server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def served_fleet(served):
    fleet, contexts, server = served
    host, port = server.server_address[:2]
    return fleet, contexts, f"http://{host}:{port}"


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.read()


def _post(url, payload):
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def _tick_json(context, cpi, tick):
    return {
        "workload": context.workload,
        "node": context.node_id,
        "metrics": [float(tick)] * 4,
        "cpi": cpi,
    }


def _drive_incident(base, context, contexts):
    """Warm up all contexts, then ramp ``context`` into a diagnosis."""
    events = []
    for t in range(12):
        _post(
            f"{base}/ingest",
            {"ticks": [_tick_json(c, 1.0, t) for c in contexts]},
        )
    value = 1.0
    for t in range(12, 12 + 3 + 3):  # 3-tick ramp, then window fill
        value += 1.0
        status, reply = _post(
            f"{base}/ingest",
            {"ticks": [_tick_json(context, value, t)]},
        )
        assert status == 200
        events.extend(reply["events"])
    return events


class TestEndpoints:
    def test_health(self, served_fleet):
        fleet, contexts, base = served_fleet
        status, body = _get(f"{base}/health")
        reply = json.loads(body)
        assert status == 200
        assert reply["status"] == "ok"
        assert reply["shards"] == 2
        assert reply["contexts"] == 0  # nothing ingested yet

    def test_ingest_and_contexts(self, served_fleet):
        fleet, contexts, base = served_fleet
        status, reply = _post(
            f"{base}/ingest",
            {"ticks": [_tick_json(c, 1.0, 0) for c in contexts]},
        )
        assert status == 200
        assert reply == {
            "accepted": 3, "rejected": 0, "malformed": 0, "events": [],
        }
        status, body = _get(f"{base}/contexts")
        listed = json.loads(body)["contexts"]
        assert listed == {
            "wordcount@node-0": "warmup",
            "wordcount@node-1": "warmup",
            "wordcount@node-2": "warmup",
        }

    def test_incident_events_and_explain(self, served_fleet):
        fleet, contexts, base = served_fleet
        target = contexts[0]
        events = _drive_incident(base, target, contexts)
        kinds = [e["type"] for e in events]
        assert kinds == ["alarm", "diagnosis"]
        assert all(e["context"] == str(target) for e in events)
        diagnosis = events[-1]
        assert diagnosis["alarm_tick"] < diagnosis["tick"]
        # text report
        status, body = _get(f"{base}/explain/{target}")
        assert status == 200
        assert str(target) in body.decode()
        # JSON report
        status, body = _get(f"{base}/explain/{target}?format=json")
        report = json.loads(body)
        assert report["context"]["workload"] == target.workload

    def test_malformed_ticks_counted_not_fatal(self, served_fleet):
        fleet, contexts, base = served_fleet
        status, reply = _post(
            f"{base}/ingest",
            {
                "ticks": [
                    _tick_json(contexts[0], 1.0, 0),
                    {"workload": "wordcount"},  # missing fields
                    "not even a dict",
                    {"workload": "wc", "node": "n", "metrics": "x", "cpi": 1},
                ]
            },
        )
        assert status == 200
        assert reply["accepted"] == 1
        assert reply["malformed"] == 3

    def test_bad_envelope_is_400(self, served_fleet):
        _, _, base = served_fleet
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base}/ingest", b"this is not json")
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base}/ingest", {"not_ticks": []})
        assert err.value.code == 400

    def test_unknown_paths_are_404(self, served_fleet):
        _, _, base = served_fleet
        for url in (f"{base}/nope", f"{base}/explain"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(url)
            assert err.value.code == 404

    def test_explain_errors(self, served_fleet):
        _, contexts, base = served_fleet
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{base}/explain/no-separator")
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{base}/explain/wordcount@node-0")  # no incident yet
        assert err.value.code == 404


class _WriteLog:
    """A handler's ``wfile`` that logs the request id of every write.

    The id is logged *before* the bytes leave, so once a client has read
    a whole reply every write of that reply is in the log.
    """

    def __init__(self, handler, raw, log):
        self._handler = handler
        self._raw = raw
        self._log = log

    def write(self, data):
        self._log.append(getattr(self._handler, "request_id", None))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


@pytest.fixture()
def write_logged_fleet(served):
    """A served fleet whose handlers log each socket write by request id."""
    _, contexts, server = served
    log = []

    class Logged(server.RequestHandlerClass):
        def setup(self):
            super().setup()
            self.wfile = _WriteLog(self, self.wfile, log)

    # read per connection, so swapping it before the first request is safe
    server.RequestHandlerClass = Logged
    host, port = server.server_address[:2]
    return contexts, host, port, log


#: The reply headers, in the order the server has always sent them.
REPLY_HEADERS = [
    "Server", "Date", "Content-Type", "Content-Length", "X-Request-Id",
]


def _request(conn, method, path, rid, body=None):
    headers = {"X-Request-Id": rid}
    if body is not None:
        headers["Content-Type"] = "application/json"
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    return resp, resp.read()


class TestOneWritePerReply:
    """Each reply leaves in one socket write.  Headers and body written
    separately make a keep-alive client's next request wait out its
    delayed ACK (Nagle holds the body back until the headers are
    acknowledged); the count is asserted, not the timing."""

    def test_every_reply_kind_is_one_write(self, write_logged_fleet):
        contexts, host, port, log = write_logged_fleet
        base = f"http://{host}:{port}"
        target = contexts[0]
        assert _drive_incident(base, target, contexts)[-1]["type"] == (
            "diagnosis"
        )
        tick = json.dumps({"ticks": [_tick_json(target, 1.0, 99)]})
        cases = [
            ("POST", "/ingest", tick, 200),
            ("POST", "/ingest", "this is not json", 400),
            ("POST", "/ingest", json.dumps({"not_ticks": []}), 400),
            ("GET", "/nope", None, 404),
            ("GET", f"/explain/{target}", None, 200),
            ("GET", f"/explain/{target}?format=json", None, 200),
            ("GET", "/metrics", None, 200),
            ("GET", "/health", None, 200),
        ]
        writes = {}
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for i, (method, path, body, status) in enumerate(cases):
                rid = f"write-{i}"
                resp, _ = _request(conn, method, path, rid, body)
                assert resp.status == status, (method, path)
                writes[i, method, path] = log.count(rid)
        finally:
            conn.close()
        assert writes == {key: 1 for key in writes}

    def test_back_to_back_keepalive_replies(self, write_logged_fleet):
        contexts, host, port, log = write_logged_fleet
        tick = json.dumps({"ticks": [_tick_json(contexts[0], 1.0, 0)]})
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for i in range(3):
                rid = f"keepalive-{i}"
                resp, body = _request(conn, "POST", "/ingest", rid, tick)
                assert resp.status == 200
                assert [k for k, _ in resp.getheaders()] == REPLY_HEADERS
                assert int(resp.getheader("Content-Length")) == len(body)
                assert resp.getheader("X-Request-Id") == rid
                assert not resp.will_close
                assert conn.sock is not None  # the connection stayed open
                assert log.count(rid) == 1
        finally:
            conn.close()

    def test_http09_request_gets_the_bare_body(self, write_logged_fleet):
        _, host, port, log = write_logged_fleet
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"GET /health\r\n\r\n")
            data = b""
            while chunk := sock.recv(4096):
                data += chunk
        assert json.loads(data)["status"] == "ok"  # no status line
        assert len(log) == 1


class TestRefusedPostKeepsConnectionInStep:
    """A refused POST must not leave its body on a keep-alive connection:
    the server would parse the body as the next request line."""

    def test_unknown_path_body_is_consumed(self, served_fleet):
        _, _, base = served_fleet
        host, port = base[len("http://"):].rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            resp, _ = _request(conn, "POST", "/nope", "refused-0", "{}")
            assert resp.status == 404
            assert not resp.will_close
            resp, body = _request(conn, "GET", "/health", "refused-1")
            assert resp.status == 200
            assert json.loads(body)["status"] == "ok"
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["nope", "-1", str(2**40)])
    def test_unreadable_length_closes_the_connection(
        self, served_fleet, length
    ):
        _, _, base = served_fleet
        host, port = base[len("http://"):].rsplit(":", 1)
        smuggled = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                b"POST /ingest HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {length}\r\n\r\n".encode()
                + smuggled
            )
            data = b""
            while chunk := sock.recv(4096):
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["error"].startswith("invalid or oversized")
        assert b"HTTP/1.1 200" not in data  # the body was never a request


class TestMalformedTickEntries:
    """Every entry the parse cannot turn into a tick is counted as
    malformed in a 200 reply; none of them may end the connection."""

    def _keepalive_ingest(self, base, entries):
        """POST ``entries`` and then GET /health on one connection."""
        host, port = base[len("http://"):].rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            body = json.dumps({"ticks": entries})
            resp, data = _request(conn, "POST", "/ingest", "bad-0", body)
            assert resp.status == 200
            assert not resp.will_close
            health_resp, health = _request(conn, "GET", "/health", "bad-1")
            assert health_resp.status == 200
            return json.loads(data), json.loads(health)
        finally:
            conn.close()

    def test_empty_workload_or_node_is_malformed(self, served_fleet):
        fleet, contexts, base = served_fleet
        good = _tick_json(contexts[0], 1.0, 0)
        entries = [
            {**good, "workload": ""},
            {**good, "node": ""},
            good,
            {**good, "workload": ""},  # a repeated empty context
        ]
        reply, health = self._keepalive_ingest(base, entries)
        assert reply == {
            "accepted": 1, "rejected": 0, "malformed": 3, "events": [],
        }
        assert health["contexts"] == 1

    def test_non_numbers_are_malformed(self, served_fleet):
        fleet, contexts, base = served_fleet
        good = _tick_json(contexts[0], 1.0, 0)
        entries = [
            {**good, "cpi": True},
            {**good, "cpi": "1.0"},
            {**good, "cpi": 10**400},  # an integer no float holds
            {**good, "metrics": ["1.5", 1.0, 1.0, 1.0]},
            {**good, "metrics": [True, True, False, True]},
            {**good, "metrics": [1.0, None, 1.0, 1.0]},
            {**good, "metrics": [[1.0, 1.0], [1.0]]},
            {**good, "metrics": [[1.0, 1.0], [1.0, 1.0]]},
            {**good, "metrics": [1, 2, 3, 4]},  # integers are numbers
            good,
        ]
        reply, _ = self._keepalive_ingest(base, entries)
        assert reply["malformed"] == 8
        assert reply["accepted"] == 2
        lane = fleet.lane(contexts[0])
        assert lane is not None and lane.tick == 1
