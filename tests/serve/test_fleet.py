"""FleetMonitor behaviour: parity, sharding, eviction, threads, sink.

The ground truth for every parity test is N standalone
:class:`OnlineMonitor` instances fed the identical per-context streams —
the fleet is pure multiplexing machinery and must never change *what*
is detected, only *where* it runs.
"""

import threading

import numpy as np
import pytest

import repro.obs as obs
from repro.core import InvarNetX, OperationContext
from repro.core.anomaly import (
    AnomalyDetector,
    DriftThreshold,
    ThresholdRule,
)
from repro.core.online import AlarmEvent, DiagnosisEvent, OnlineMonitor
from repro.serve import FleetMonitor, Tick, shard_index
from repro.stats.arima import ARIMAModel, ARIMAOrder, fit_arima
from repro.store import DirectoryStore, LockedStore

from tests.serve.conftest import (
    CATALOG,
    adopt_context,
    build_pipeline,
    stub_infer,
)

MONITOR_KW = dict(window_ticks=8, warmup_ticks=12, cooldown_ticks=4)


def _contexts(n, workload="wordcount"):
    return [OperationContext(workload, f"node-{i}") for i in range(n)]


def _staggered_cpi(tick, i):
    """Context ``i`` ramps +1/tick from tick ``15 + i`` (staggered
    faults); healthy level 1.0 before that."""
    onset = 15 + i
    return 1.0 if tick < onset else 1.0 + (tick - onset + 1)


def _standalone_events(contexts, ticks, cpi_of, detector=None):
    """Reference: one OnlineMonitor per context, fed sequentially."""
    events = {c.key(): [] for c in contexts}
    monitors = {
        c.key(): OnlineMonitor(
            build_pipeline([c], detector), c, **MONITOR_KW
        )
        for c in contexts
    }
    for t in range(ticks):
        for i, c in enumerate(contexts):
            ev = monitors[c.key()].observe(
                np.full(4, float(t)), cpi_of(t, i)
            )
            if ev is not None:
                events[c.key()].append((type(ev).__name__, ev.tick))
    return events


def _fleet_events(fleet, contexts, ticks, cpi_of):
    events = {c.key(): [] for c in contexts}
    for t in range(ticks):
        batch = [
            Tick(c, np.full(4, float(t)), cpi_of(t, i))
            for i, c in enumerate(contexts)
        ]
        for fe in fleet.ingest(batch).events:
            events[fe.context.key()].append(
                (type(fe.event).__name__, fe.event.tick)
            )
    return events


class TestFleetParity:
    def test_matches_standalone_monitors(self):
        contexts = _contexts(12)
        fleet = FleetMonitor(
            build_pipeline(contexts), shards=4, workers=0, **MONITOR_KW
        )
        with fleet:
            got = _fleet_events(fleet, contexts, 45, _staggered_cpi)
        want = _standalone_events(contexts, 45, _staggered_cpi)
        assert got == want
        # the staggered ramps really produced incidents to compare
        assert sum(len(v) for v in want.values()) >= 2 * len(contexts)

    def test_matches_standalone_with_ma_fallback(self, rng):
        """A q=1 detector forces the slow path; parity must still hold
        (the fast lane declines instead of approximating)."""
        model = fit_arima(
            np.cumsum(rng.normal(0.0, 0.1, size=150)) + 4.0, (1, 0, 1)
        )
        detector = AnomalyDetector.from_artifacts(
            model, DriftThreshold(ThresholdRule.BETA_MAX, upper=0.3)
        )

        def cpi_of(t, i):
            onset = 15 + i
            return 4.0 if t < onset else 4.0 + 2.0 * (t - onset + 1)

        contexts = _contexts(4)
        fleet = FleetMonitor(
            build_pipeline(contexts, detector),
            shards=2,
            workers=0,
            **MONITOR_KW,
        )
        with fleet:
            got = _fleet_events(fleet, contexts, 40, cpi_of)
        want = _standalone_events(contexts, 40, cpi_of, detector)
        assert got == want
        assert sum(len(v) for v in want.values()) > 0

    def test_threaded_ingest_matches_inline(self):
        contexts = _contexts(16)
        inline = FleetMonitor(
            build_pipeline(contexts), shards=8, workers=0, **MONITOR_KW
        )
        threaded = FleetMonitor(
            build_pipeline(contexts), shards=8, workers=8, **MONITOR_KW
        )
        with inline, threaded:
            got_inline = _fleet_events(inline, contexts, 45, _staggered_cpi)
            got_threaded = _fleet_events(
                threaded, contexts, 45, _staggered_cpi
            )
        assert got_threaded == got_inline


class TestFleetRegistry:
    def test_lazy_construction(self):
        contexts = _contexts(6)
        fleet = FleetMonitor(
            build_pipeline(contexts), shards=2, workers=0, **MONITOR_KW
        )
        with fleet:
            assert fleet.contexts() == []
            fleet.ingest([Tick(contexts[0], np.zeros(4), 1.0)])
            assert fleet.contexts() == [contexts[0].key()]
            fleet.ingest(
                [Tick(c, np.zeros(4), 1.0) for c in contexts[1:3]]
            )
            assert fleet.contexts() == sorted(
                c.key() for c in contexts[:3]
            )

    def test_untrained_context_rejected_not_fatal(self):
        trained = _contexts(2)
        stranger = OperationContext("terasort", "node-x")
        fleet = FleetMonitor(
            build_pipeline(trained), shards=2, workers=0, **MONITOR_KW
        )
        with fleet:
            batch = [Tick(c, np.zeros(4), 1.0) for c in trained]
            batch.insert(1, Tick(stranger, np.zeros(4), 1.0))
            with pytest.warns(RuntimeWarning, match="untrained context"):
                result = fleet.ingest(batch)
            assert result.accepted == 2
            assert result.rejected == 1
            assert fleet.rejected_total == 1
            assert stranger.key() not in fleet.contexts()

    def test_shard_assignment_is_stable_and_total(self):
        keys = [c.key() for c in _contexts(64)]
        for key in keys:
            idx = shard_index(key, 8)
            assert 0 <= idx < 8
            assert idx == shard_index(key, 8)
        assert len({shard_index(k, 8) for k in keys}) > 1

    def test_lru_eviction_and_warm_restart(self):
        contexts = _contexts(3)
        fleet = FleetMonitor(
            build_pipeline(contexts),
            shards=1,
            workers=0,
            max_lanes_per_shard=2,
            **MONITOR_KW,
        )
        with fleet:
            for c in contexts[:2]:
                fleet.ingest([Tick(c, np.zeros(4), 1.0)])
            # touch 0 so 1 is the LRU lane, then force an eviction
            fleet.ingest([Tick(contexts[0], np.zeros(4), 1.0)])
            fleet.ingest([Tick(contexts[2], np.zeros(4), 1.0)])
            resident = fleet.contexts()
            assert len(resident) == 2
            assert contexts[1].key() not in resident
            # the evicted context is rebuilt from the store on return
            result = fleet.ingest([Tick(contexts[1], np.zeros(4), 1.0)])
            assert result.accepted == 1
            lane = fleet.lane(contexts[1])
            assert lane is not None and lane.cpi_len == 1  # fresh monitor

    def test_store_is_wrapped_in_locked_store(self):
        pipe = build_pipeline(_contexts(1))
        fleet = FleetMonitor(pipe, workers=0, **MONITOR_KW)
        with fleet:
            assert isinstance(pipe.store, LockedStore)
            # idempotent: building a second fleet must not double-wrap
            fleet2 = FleetMonitor(pipe, workers=0, **MONITOR_KW)
            with fleet2:
                assert pipe.store.inner is not None
                assert not isinstance(pipe.store.inner, LockedStore)


class TestFleetStress:
    N_THREADS = 8

    def _drive(self, seed_contexts, ticks=45):
        """One complete staggered-fault run with 8 ingest threads; the
        ingest calls themselves also come from multiple threads."""
        fleet = FleetMonitor(
            build_pipeline(seed_contexts),
            shards=8,
            workers=self.N_THREADS,
            **MONITOR_KW,
        )
        collected: dict = {c.key(): [] for c in seed_contexts}
        lock = threading.Lock()
        # split the contexts over caller threads; each thread streams its
        # slice tick by tick (per-context order is what parity needs)
        slices = [seed_contexts[i :: self.N_THREADS] for i in range(self.N_THREADS)]

        def worker(slice_contexts):
            for t in range(ticks):
                batch = [
                    Tick(
                        c,
                        np.full(4, float(t)),
                        _staggered_cpi(t, seed_contexts.index(c)),
                    )
                    for c in slice_contexts
                ]
                result = fleet.ingest(batch)
                with lock:
                    for fe in result.events:
                        collected[fe.context.key()].append(
                            (type(fe.event).__name__, fe.event.tick)
                        )

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in slices if s
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        fleet.close()
        return collected

    def test_no_lost_events_under_concurrency(self):
        contexts = _contexts(24)
        collected = self._drive(contexts)
        want = _standalone_events(contexts, 45, _staggered_cpi)
        # per-context event streams survive the thread fan-out intact
        assert {k: sorted(v) for k, v in collected.items()} == {
            k: sorted(v) for k, v in want.items()
        }

    def test_prometheus_snapshot_is_byte_stable(self):
        contexts = _contexts(24)

        def run_once():
            obs.reset()
            obs.configure(enabled=True)
            self._drive(contexts)
            return obs.metrics_registry().render_prometheus()

        first = run_once()
        second = run_once()
        assert first == second
        assert "invarnetx_fleet_ticks_total" in first
        assert "invarnetx_monitor_checks_total" in first


class TestIncidentSink:
    def _incident_fleet(self, tmp_path=None):
        contexts = _contexts(2)
        if tmp_path is not None:
            store = DirectoryStore(tmp_path / "registry")
            pipe = InvarNetX(catalog=CATALOG, store=store)
            for c in contexts:
                adopt_context(pipe, c)
                pipe.store.persist(c.key())
            stub_infer(pipe)
        else:
            pipe = build_pipeline(contexts)
        fleet = FleetMonitor(pipe, shards=2, workers=0, **MONITOR_KW)
        _fleet_events(fleet, contexts, 30, _staggered_cpi)
        return fleet, contexts

    def test_last_incident_retained_with_window(self):
        fleet, contexts = self._incident_fleet()
        with fleet:
            event = fleet.last_incident(contexts[0])
            assert isinstance(event, DiagnosisEvent)
            assert event.window is not None
            assert event.window.shape == (8, 4)

    def test_explain_unknown_context_raises(self):
        fleet, _ = self._incident_fleet()
        with fleet:
            with pytest.raises(KeyError):
                fleet.explain(OperationContext("wordcount", "node-99"))

    def test_ledger_records_fleet_diagnoses(self, tmp_path):
        fleet, contexts = self._incident_fleet(tmp_path)
        with fleet:
            assert fleet.pipeline.ledger is not None
            entries = fleet.pipeline.ledger.entries(kind="fleet-diagnose")
            assert len(entries) >= 2  # every context diagnosed at least once
            recorded = {tuple(e["context"]) for e in entries}
            assert recorded == {c.key() for c in contexts}
            for entry in entries:
                assert entry["alarm_tick"] < entry["tick"]

    def test_warm_start_from_directory_store(self, tmp_path):
        """A fresh pipeline attached to the populated registry serves the
        fleet without any in-process training."""
        contexts = _contexts(2)
        store = DirectoryStore(tmp_path / "registry")
        seed_pipe = InvarNetX(catalog=CATALOG, store=store)
        for c in contexts:
            adopt_context(seed_pipe, c)
            seed_pipe.store.persist(c.key())
        # new process simulation: attach a fresh pipeline to the registry
        cold = InvarNetX.attached_to(DirectoryStore(tmp_path / "registry"))
        stub_infer(cold)
        fleet = FleetMonitor(cold, shards=2, workers=0, **MONITOR_KW)
        with fleet:
            got = _fleet_events(fleet, contexts, 30, _staggered_cpi)
        assert all(len(v) >= 2 for v in got.values())

    def test_warm_start_diagnoses_with_the_stored_catalog(self, tmp_path):
        """A pipeline attached to a registry keeps its default 26-metric
        catalog, but diagnosis and its explanation must score the window
        against the context's own 4-metric invariants."""
        context = OperationContext("wordcount", "node-0")
        seed_pipe = InvarNetX(
            catalog=CATALOG, store=DirectoryStore(tmp_path / "registry")
        )
        adopt_context(seed_pipe, context)
        seed_pipe.store.persist(context.key())
        cold = InvarNetX.attached_to(DirectoryStore(tmp_path / "registry"))
        assert len(cold.catalog) != len(CATALOG)
        diagnoses = []
        with FleetMonitor(cold, shards=1, workers=0, **MONITOR_KW) as fleet:
            for t in range(60):
                # a step fault: +1/tick for 5 ticks, then flat
                cpi = 1.0 + min(max(t - 14, 0), 5)
                result = fleet.ingest(
                    [Tick(context, np.full(4, float(t)), cpi)]
                )
                diagnoses += [
                    fe.event for fe in result.events
                    if isinstance(fe.event, DiagnosisEvent)
                ]
            report = fleet.explain(context)
        assert len(diagnoses) == 1
        assert diagnoses[0].window.shape == (8, 4)
        assert len(report.pairs) == 1  # the stored (m0, m1) invariant


def _ma1_detector() -> AnomalyDetector:
    """ARIMA(0, 1, 1): a q>0 lane, served by the full recursion."""
    model = ARIMAModel(
        order=ARIMAOrder(0, 1, 1),
        ar=np.empty(0),
        ma=np.array([0.3]),
        intercept=0.0,
        sigma2=1.0,
    )
    return AnomalyDetector.from_artifacts(
        model, DriftThreshold(ThresholdRule.BETA_MAX, upper=0.5)
    )


class TestMalformedTicks:
    """A tick a lane cannot use is rejected at the fleet boundary; it
    never reaches ARIMA history or the MIC window."""

    def test_nan_cpi_does_not_silence_a_q_gt0_lane(self):
        context = OperationContext("wordcount", "node-0")
        fleet = FleetMonitor(
            build_pipeline([context], _ma1_detector()),
            shards=1,
            workers=0,
            **MONITOR_KW,
        )
        alarms, rejected = [], 0
        with fleet:
            for t in range(130):
                if t == 50:
                    cpi = float("nan")
                elif t >= 100:
                    cpi = 1.0 + (3.0 if t % 2 else -3.0)
                else:
                    cpi = 1.0
                result = fleet.ingest([Tick(context, np.full(4, 1.0), cpi)])
                rejected += result.rejected
                alarms += [
                    t for fe in result.events
                    if isinstance(fe.event, AlarmEvent)
                ]
        assert alarms and 100 <= alarms[0] <= 103
        assert rejected == 1

    @pytest.mark.parametrize(
        "bad_metrics, bad_cpi",
        [
            (np.full(3, 1.0), 1.0),  # wrong width
            (np.full(5, 1.0), 1.0),
            (np.array([1.0, np.inf, 1.0, 1.0]), 1.0),
            (np.array([1.0, np.nan, 1.0, 1.0]), 1.0),
            (np.full(4, 1.0), float("inf")),
        ],
    )
    def test_bad_tick_in_lead_in_does_not_wedge_the_lane(
        self, bad_metrics, bad_cpi
    ):
        contexts = _contexts(2)
        fleet = FleetMonitor(
            build_pipeline(contexts), shards=2, workers=0, **MONITOR_KW
        )
        diagnosed, rejected = set(), []
        with fleet:
            for t in range(40):
                batch = [
                    Tick(c, np.full(4, float(t)), _staggered_cpi(t, 0))
                    for c in contexts
                ]
                if t == 14:  # inside the lead-in, before the alarm
                    batch.insert(0, Tick(contexts[0], bad_metrics, bad_cpi))
                result = fleet.ingest(batch)
                rejected.append(result.rejected)
                diagnosed.update(
                    fe.context.key() for fe in result.events
                    if isinstance(fe.event, DiagnosisEvent)
                )
            assert diagnosed == {c.key() for c in contexts}
            assert rejected == [1 if t == 14 else 0 for t in range(40)]
            assert fleet.rejected_total == 1

    @pytest.mark.filterwarnings("ignore:fleet. dropping ticks")
    def test_rejections_are_counted_by_reason(self):
        """``invarnetx_fleet_rejected_total`` splits drops into untrained
        contexts and malformed ticks; ``invarnetx top`` shows the sum."""
        from repro.serve.top import RegistrySource, parse_prometheus

        obs.configure(enabled=True)
        trained = _contexts(2)
        stranger = OperationContext("terasort", "node-x")
        fleet = FleetMonitor(
            build_pipeline(trained), shards=2, workers=0, **MONITOR_KW
        )
        with fleet:
            batch = [
                Tick(trained[0], np.zeros(4), 1.0),
                Tick(stranger, np.zeros(4), 1.0),
                Tick(trained[0], np.zeros(3), 1.0),
                Tick(trained[1], np.zeros(4), float("nan")),
                Tick(trained[1], np.zeros(4), 1.0),
            ]
            result = fleet.ingest(batch)
        assert (result.accepted, result.rejected) == (2, 3)
        families = parse_prometheus(
            obs.metrics_registry().render_prometheus()
        )
        by_reason: dict[str, float] = {}
        for labels, value in families["invarnetx_fleet_rejected_total"]:
            by_reason[labels["reason"]] = (
                by_reason.get(labels["reason"], 0.0) + value
            )
        assert by_reason == {"untrained": 1.0, "malformed": 2.0}
        snapshot = RegistrySource(obs.metrics_registry()).snapshot()
        assert snapshot.rejected == 3.0
