"""End-to-end tests of the stdlib HTTP/JSON serving surface."""

import json
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
def served_fleet():
    contexts = [OperationContext("wordcount", f"node-{i}") for i in range(3)]
    fleet = FleetMonitor(build_pipeline(contexts), shards=2, **MONITOR_KW)
    server = build_server(fleet)  # ephemeral port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield fleet, contexts, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


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
