"""Tests of the ``invarnetx top`` dashboard (repro.serve.top)."""

from __future__ import annotations

import time

import pytest

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.serve.top import (
    CLEAR,
    HttpSource,
    RegistrySource,
    TopApp,
    histogram_quantile,
    parse_prometheus,
)

from tests.serve.test_http import _get, _post, _tick_json


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry(enabled=True)
    requests = registry.counter(
        "invarnetx_http_requests_total",
        "requests",
        ("endpoint", "method", "status"),
    )
    requests.inc(10, endpoint="/ingest", method="POST", status="200")
    requests.inc(2, endpoint="/ingest", method="POST", status="500")
    requests.inc(3, endpoint="/health", method="GET", status="200")
    seconds = registry.histogram(
        "invarnetx_http_request_seconds",
        "latency",
        ("endpoint",),
        buckets=(0.1, 0.5, 1.0),
    )
    for _ in range(8):
        seconds.observe(0.05, endpoint="/ingest")
    for _ in range(4):
        seconds.observe(0.3, endpoint="/ingest")
    registry.counter(
        "invarnetx_fleet_ticks_total", "ticks", ("shard",)
    ).inc(40, shard="0")
    registry.counter(
        "invarnetx_fleet_ticks_total", "ticks", ("shard",)
    ).inc(20, shard="1")
    return registry


class TestParsePrometheus:
    def test_round_trips_the_registry_exposition(self):
        registry = _populated_registry()
        families = parse_prometheus(registry.render_prometheus())
        assert (
            {"endpoint": "/ingest", "method": "POST", "status": "200"},
            10.0,
        ) in families["invarnetx_http_requests_total"]
        buckets = {
            labels["le"]: value
            for labels, value in families[
                "invarnetx_http_request_seconds_bucket"
            ]
            if labels["endpoint"] == "/ingest"
        }
        assert buckets == {"0.1": 8.0, "0.5": 12.0, "1": 12.0, "+Inf": 12.0}

    def test_escaped_label_values(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("weird_total", "w", ("tag",)).inc(
            1, tag='say "hi"\nback\\slash'
        )
        families = parse_prometheus(registry.render_prometheus())
        ((labels, value),) = families["weird_total"]
        assert labels["tag"] == 'say "hi"\nback\\slash'
        assert value == 1.0

    def test_unlabelled_samples(self):
        families = parse_prometheus("# TYPE x counter\nx_total 7\n")
        assert families["x_total"] == [({}, 7.0)]


class TestHistogramQuantile:
    BUCKETS = [(0.1, 8.0), (0.5, 12.0), (1.0, 12.0), (float("inf"), 12.0)]

    def test_median_interpolates_inside_a_bucket(self):
        # rank 6 of 12 lands inside the first bucket: 6/8 of [0, 0.1]
        assert histogram_quantile(0.5, self.BUCKETS) == pytest.approx(0.075)

    def test_p99_lands_in_the_slow_bucket(self):
        p99 = histogram_quantile(0.99, self.BUCKETS)
        assert 0.1 < p99 <= 0.5

    def test_inf_bucket_clamps_to_last_finite_bound(self):
        assert histogram_quantile(
            1.0, [(0.1, 0.0), (float("inf"), 5.0)]
        ) == pytest.approx(0.1)

    def test_empty_histogram_is_none(self):
        assert histogram_quantile(0.5, []) is None
        assert histogram_quantile(0.5, [(0.1, 0.0)]) is None

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            histogram_quantile(1.5, self.BUCKETS)

    def test_all_zero_histogram_is_none(self):
        # a scraped-but-never-observed histogram: every cumulative
        # count 0, including +Inf — must degrade to None, not divide
        # by a zero span
        assert (
            histogram_quantile(
                0.99, [(0.1, 0.0), (1.0, 0.0), (float("inf"), 0.0)]
            )
            is None
        )

    def test_poisoned_counts_are_none(self):
        nan = float("nan")
        assert histogram_quantile(0.5, [(0.1, nan), (1.0, 5.0)]) is None
        assert histogram_quantile(0.5, [(0.1, -3.0), (1.0, 5.0)]) is None
        assert (
            histogram_quantile(0.5, [(0.1, float("inf"))]) is None
        )

    def test_poisoned_bounds_are_none(self):
        nan = float("nan")
        assert histogram_quantile(0.5, [(nan, 5.0), (1.0, 9.0)]) is None
        assert (
            histogram_quantile(0.5, [(-float("inf"), 5.0), (1.0, 9.0)])
            is None
        )

    def test_latency_cell_renders_dash_for_degraded_quantile(self):
        from repro.serve.top import _ms

        assert _ms(None) == "-"
        assert _ms(float("nan")) == "-"
        assert _ms(float("inf")) == "-"
        assert _ms(0.0753) == "75.3ms"


class TestRegistrySourceAndRender:
    def test_one_deterministic_frame(self):
        registry = _populated_registry()
        source = RegistrySource(registry, clock=lambda: 100.0)
        app = TopApp(source, clock=lambda: 100.0)
        frame = app.frame()
        assert frame == app.render(source.snapshot())  # pure rendering
        assert "lanes -" in frame
        assert "ticks 60" in frame
        assert "s0:40  s1:20" in frame
        assert "/ingest" in frame and "/health" in frame
        # first frame has no rate baseline
        assert "-" in frame.splitlines()[2]

    def test_rates_come_from_snapshot_deltas(self):
        registry = _populated_registry()
        clock_box = [100.0]
        source = RegistrySource(registry, clock=lambda: clock_box[0])
        app = TopApp(source, clock=lambda: clock_box[0])
        app.frame()
        clock_box[0] = 110.0
        registry.counter(
            "invarnetx_fleet_ticks_total", "ticks", ("shard",)
        ).inc(50, shard="0")
        registry.counter(
            "invarnetx_http_requests_total",
            "requests",
            ("endpoint", "method", "status"),
        ).inc(20, endpoint="/ingest", method="POST", status="200")
        frame = app.frame()
        assert "(5.0/s)" in frame  # 50 ticks over 10 injected seconds
        ingest_line = next(
            line for line in frame.splitlines() if line.startswith("/ingest")
        )
        assert "2.0/s" in ingest_line

    def test_error_and_latency_columns(self):
        registry = _populated_registry()
        app = TopApp(RegistrySource(registry, clock=lambda: 1.0))
        frame = app.frame()
        ingest_line = next(
            line for line in frame.splitlines() if line.startswith("/ingest")
        )
        assert " 2 " in ingest_line  # the two 500s
        assert "75.0ms" in ingest_line  # p50 of 8×0.05 + 4×0.3
        # /health has requests but no histogram series
        health_line = next(
            line for line in frame.splitlines() if line.startswith("/health")
        )
        assert health_line.rstrip().endswith("-")

    def test_incidents_header_cell(self):
        # no fleet attached: the incidents counter is unknowable -> "-"
        registry = _populated_registry()
        app = TopApp(RegistrySource(registry, clock=lambda: 1.0))
        header = app.frame().splitlines()[2]
        assert header.endswith("incidents -")

        class FakeFleet:
            bundles_committed = 7

            def contexts(self):
                return {}

        app = TopApp(
            RegistrySource(registry, fleet=FakeFleet(), clock=lambda: 1.0)
        )
        header = app.frame().splitlines()[2]
        assert header.endswith("incidents 7")

    def test_empty_registry_renders_placeholder(self):
        app = TopApp(
            RegistrySource(MetricsRegistry(enabled=True), clock=lambda: 0.0)
        )
        assert "(no requests yet)" in app.frame()

    def test_interval_validation(self):
        source = RegistrySource(MetricsRegistry(), clock=lambda: 0.0)
        with pytest.raises(ValueError):
            TopApp(source, interval=0.0)


class TestRunLoop:
    def test_once_mode_emits_no_escape_codes(self):
        registry = _populated_registry()
        app = TopApp(RegistrySource(registry, clock=lambda: 0.0))
        frames = []
        app.run(frames.append, once=True)
        assert len(frames) == 1
        assert CLEAR not in frames[0]

    def test_iterations_repaint_and_sleep(self):
        registry = _populated_registry()
        clock_box = [0.0]
        slept = []

        def _sleep(seconds):
            slept.append(seconds)
            clock_box[0] += seconds

        app = TopApp(
            RegistrySource(registry, clock=lambda: clock_box[0]),
            interval=2.0,
            sleep=_sleep,
        )
        frames = []
        app.run(frames.append, iterations=3)
        assert len(frames) == 3
        assert all(frame.startswith(CLEAR) for frame in frames)
        assert slept == [2.0, 2.0]  # no sleep after the last frame


class TestHttpSource:
    def test_snapshot_over_live_server(self, obs_served_fleet):
        fleet, contexts, base = obs_served_fleet
        for t in range(3):
            _post(
                f"{base}/ingest",
                {"ticks": [_tick_json(c, 1.0, t) for c in contexts]},
            )
        source = HttpSource(base, clock=lambda: 5.0)
        # The server records an /ingest after writing its reply, so the
        # last one may land a moment after the client has its answer.
        deadline = time.monotonic() + 10.0
        while True:
            snapshot = source.snapshot()
            ingest = next(
                (e for e in snapshot.endpoints if e.endpoint == "/ingest"),
                None,
            )
            done = ingest is not None and ingest.requests >= 3.0
            if done or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert snapshot.taken_at == 5.0
        assert snapshot.contexts == 3  # resident lanes via /health
        assert snapshot.ticks == 9.0
        assert ingest is not None and ingest.requests == 3.0
        assert ingest.p50 is not None

    def test_cli_top_once(self, obs_served_fleet, capsys):
        fleet, contexts, base = obs_served_fleet
        _get(f"{base}/health")
        assert main(["top", "--once", "--url", base]) == 0
        out = capsys.readouterr().out
        assert "invarnetx top" in out
        assert CLEAR not in out

    def test_cli_top_unreachable_is_exit_2(self, capsys):
        assert (
            main(["top", "--once", "--url", "http://127.0.0.1:9"]) == 2
        )
        assert "cannot reach" in capsys.readouterr().err
