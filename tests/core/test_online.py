"""Tests for the streaming monitor and the incremental invariant tracker."""

import numpy as np
import pytest

from repro.core import InvarNetX, OperationContext
from repro.core.anomaly import (
    AnomalyDetector,
    DriftThreshold,
    ThresholdRule,
)
from repro.core.inference import InferenceResult
from repro.core.invariants import InvariantSet, InvariantTracker, select_invariants
from repro.core.online import (
    AlarmEvent,
    DiagnosisEvent,
    MalformedTick,
    MonitorState,
    OnlineMonitor,
)
from repro.faults.spec import FaultSpec, build_fault
from repro.obs.blackbox import FlightRecorder
from repro.stats.arima import ARIMAModel, ARIMAOrder
from repro.store import ContextModels
from repro.telemetry.metrics import MetricCatalog


@pytest.fixture()
def monitor(trained_pipeline, wordcount_context):
    return OnlineMonitor(trained_pipeline, wordcount_context)


class TestOnlineMonitor:
    def test_requires_trained_pipeline(self, wordcount_context):
        with pytest.raises(RuntimeError, match="not trained"):
            OnlineMonitor(InvarNetX(), wordcount_context)

    def test_healthy_stream_emits_nothing(self, monitor, cluster):
        run = cluster.run("wordcount", seed=6500)
        node = run.node("slave-1")
        events = monitor.run_stream(node.metrics, node.cpi)
        assert events == []
        assert monitor.state is MonitorState.MONITORING

    def test_incident_produces_alarm_then_diagnosis(self, monitor, cluster):
        fault = build_fault("CPU-hog", FaultSpec("slave-1", 40, 30))
        run = cluster.run("wordcount", faults=[fault], seed=6501)
        node = run.node("slave-1")
        events = monitor.run_stream(node.metrics, node.cpi)
        assert len(events) >= 2
        alarm, diagnosis = events[0], events[1]
        assert isinstance(alarm, AlarmEvent)
        assert isinstance(diagnosis, DiagnosisEvent)
        # alarm inside the injection window (onset latency depends on how
        # fast contention builds under the run's demand fluctuation)
        assert 40 <= alarm.tick < 70
        assert diagnosis.alarm_tick == alarm.tick
        assert diagnosis.root_cause == "CPU-hog"
        # the window is collected after the alarm
        assert diagnosis.tick > alarm.tick

    def test_single_incident_single_report(self, monitor, cluster):
        """The cool-down keeps one incident from flooding reports."""
        fault = build_fault("Mem-hog", FaultSpec("slave-1", 40, 30))
        run = cluster.run("wordcount", faults=[fault], seed=6502)
        node = run.node("slave-1")
        events = monitor.run_stream(node.metrics, node.cpi)
        diagnoses = [e for e in events if isinstance(e, DiagnosisEvent)]
        assert len(diagnoses) == 1

    def test_streaming_matches_batch_verdict(
        self, trained_pipeline, wordcount_context, cluster
    ):
        fault = build_fault("Disk-hog", FaultSpec("slave-1", 40, 30))
        run = cluster.run("wordcount", faults=[fault], seed=6503)
        node = run.node("slave-1")
        monitor = OnlineMonitor(trained_pipeline, wordcount_context)
        events = monitor.run_stream(node.metrics, node.cpi)
        diagnoses = [e for e in events if isinstance(e, DiagnosisEvent)]
        batch = trained_pipeline.diagnose_run(wordcount_context, run)
        assert diagnoses
        assert diagnoses[0].root_cause == batch.root_cause

    def test_length_mismatch_rejected(self, monitor):
        with pytest.raises(ValueError):
            monitor.run_stream(np.zeros((5, 26)), np.zeros(6))

    def test_window_validation(self, trained_pipeline, wordcount_context):
        with pytest.raises(ValueError):
            OnlineMonitor(
                trained_pipeline, wordcount_context, window_ticks=4
            )


class TestMonitorStateMachine:
    """Deterministic state-machine coverage with a synthetic detector.

    ARIMA(0, 1, 0) with intercept 0 predicts "same as last tick", so with
    threshold 0.5 a sample is anomalous exactly when it moves more than
    0.5 from its predecessor — every transition below is hand-checkable.
    """

    WARMUP = 12
    WINDOW = 8  # the monitor's minimum
    COOLDOWN = 4
    LEAD_IN = OnlineMonitor.CONSECUTIVE + 2  # ring-buffered pre-alarm rows

    def _pipeline(self, context):
        model = ARIMAModel(
            order=ARIMAOrder(0, 1, 0),
            ar=np.empty(0),
            ma=np.empty(0),
            intercept=0.0,
            sigma2=1.0,
        )
        detector = AnomalyDetector.from_artifacts(
            model, DriftThreshold(ThresholdRule.BETA_MAX, upper=0.5)
        )
        catalog = MetricCatalog(names=("m0", "m1", "m2", "m3"))
        invariants = InvariantSet(
            pairs=[(0, 1)], baseline=np.array([0.9]), catalog=catalog
        )
        pipe = InvarNetX(catalog=catalog)
        pipe.store.adopt(
            context.key(),
            ContextModels(
                context=context, detector=detector, invariants=invariants
            ),
        )
        return pipe

    def _monitor(self, captured=None):
        context = OperationContext("wordcount", "slave-1")
        pipe = self._pipeline(context)
        if captured is not None:
            def fake_infer(ctx, window, top_k=3):
                captured.append(np.asarray(window))
                return InferenceResult(
                    causes=[], violations=np.zeros(1, dtype=bool)
                )

            pipe.infer = fake_infer
        return OnlineMonitor(
            pipe,
            context,
            window_ticks=self.WINDOW,
            warmup_ticks=self.WARMUP,
            cooldown_ticks=self.COOLDOWN,
        )

    @staticmethod
    def _feed_flat(monitor, value, ticks):
        """Feed ``ticks`` constant CPI samples (a constant series never
        alarms); each metrics row encodes its tick for window checks."""
        events = []
        for _ in range(ticks):
            row = np.full(4, float(monitor._tick + 1))
            event = monitor.observe(row, value)
            if event is not None:
                events.append(event)
        return events

    def _incident(self, monitor, start_value, captured_tick=None):
        """Feed a +1/tick ramp until the alarm fires; returns the event."""
        value = start_value
        for _ in range(OnlineMonitor.CONSECUTIVE):
            value += 1.0
            row = np.full(4, float(monitor._tick + 1))
            event = monitor.observe(row, value)
        assert isinstance(event, AlarmEvent)
        return event, value

    # -- warmup boundary ------------------------------------------------
    def test_warmup_completes_at_exact_tick(self):
        monitor = self._monitor()
        self._feed_flat(monitor, 1.0, self.WARMUP - 1)
        assert monitor.state is MonitorState.WARMUP
        self._feed_flat(monitor, 1.0, 1)
        assert monitor.state is MonitorState.MONITORING

    def test_anomalies_inside_warmup_are_not_checked(self):
        monitor = self._monitor()
        # a wild jump at tick 6 — far beyond the 0.5 threshold, but the
        # drift check is not armed yet
        self._feed_flat(monitor, 1.0, 6)
        assert monitor.observe(np.zeros(4), 11.0) is None
        events = self._feed_flat(monitor, 11.0, self.WARMUP)
        assert events == []
        assert monitor.state is MonitorState.MONITORING

    def test_streak_resets_below_three_consecutive(self):
        monitor = self._monitor()
        self._feed_flat(monitor, 1.0, self.WARMUP)
        # two anomalous moves, then a calm tick, then two more: no alarm
        for value in (2.0, 3.0, 3.0, 4.0, 5.0):
            assert monitor.observe(np.zeros(4), value) is None
        assert monitor.state is MonitorState.MONITORING

    # -- alarm + ring-buffer lead-in ------------------------------------
    def test_alarm_on_third_consecutive_anomaly(self):
        monitor = self._monitor()
        self._feed_flat(monitor, 1.0, self.WARMUP)
        alarm, _ = self._incident(monitor, 1.0)
        assert alarm.tick == self.WARMUP + OnlineMonitor.CONSECUTIVE - 1

    def test_window_includes_ring_buffered_lead_in(self):
        captured: list[np.ndarray] = []
        monitor = self._monitor(captured)
        self._feed_flat(monitor, 1.0, self.WARMUP)
        alarm, value = self._incident(monitor, 1.0)
        # collect the remainder of the abnormal window
        remaining = self.WINDOW - self.LEAD_IN
        events = self._feed_flat(monitor, value, remaining)
        assert len(events) == 1 and isinstance(events[0], DiagnosisEvent)
        assert events[0].tick == alarm.tick + remaining
        (window,) = captured
        assert window.shape == (self.WINDOW, 4)
        # rows encode their tick: the window must start CONSECUTIVE + 2
        # ticks before the alarm (the lead-in the ring buffer preserved)
        expected_ticks = np.arange(
            alarm.tick - self.LEAD_IN + 1, alarm.tick + remaining + 1
        )
        assert np.array_equal(window[:, 0], expected_ticks)

    # -- cooldown -------------------------------------------------------
    def _diagnosed_monitor(self):
        monitor = self._monitor(captured=[])
        self._feed_flat(monitor, 1.0, self.WARMUP)
        _, value = self._incident(monitor, 1.0)
        self._feed_flat(monitor, value, self.WINDOW - self.LEAD_IN)
        assert monitor.state is MonitorState.COOLDOWN
        return monitor, value

    def test_cooldown_suppresses_new_alarms(self):
        monitor, value = self._diagnosed_monitor()
        # a fresh ramp during the cool-down is swallowed silently
        for _ in range(self.COOLDOWN):
            value += 1.0
            assert monitor.observe(np.zeros(4), value) is None

    def test_cooldown_rearms_after_exact_ticks(self):
        monitor, value = self._diagnosed_monitor()
        self._feed_flat(monitor, value, self.COOLDOWN - 1)
        assert monitor.state is MonitorState.COOLDOWN
        self._feed_flat(monitor, value, 1)
        assert monitor.state is MonitorState.MONITORING

    def test_second_incident_after_rearm_is_reported(self):
        monitor, value = self._diagnosed_monitor()
        self._feed_flat(monitor, value, self.COOLDOWN)
        alarm, value = self._incident(monitor, value)
        events = self._feed_flat(monitor, value, self.WINDOW - self.LEAD_IN)
        assert len(events) == 1 and isinstance(events[0], DiagnosisEvent)
        assert events[0].alarm_tick == alarm.tick


def _count_checks(monitor):
    """Wrap the monitor's drift check; the returned list grows by one
    verdict each time the check actually runs (returns non-None)."""
    verdicts = []
    check = monitor.check

    def spy(cpi):
        verdict = check(cpi)
        if verdict is not None:
            verdicts.append(verdict)
        return verdict

    monitor.check = spy
    return verdicts


class TestStateMachineBugfixes:
    """Regressions for the three COLLECTING/COOLDOWN-era bugs.

    Borrows the hand-checkable ARIMA(0, 1, 0) harness; the back-to-back
    test swaps in a pure AR(8) detector ("predict the value of 8 ticks
    ago") because a last-value predictor cannot see its own history
    contamination.
    """

    WARMUP = TestMonitorStateMachine.WARMUP
    WINDOW = TestMonitorStateMachine.WINDOW
    COOLDOWN = TestMonitorStateMachine.COOLDOWN
    LEAD_IN = TestMonitorStateMachine.LEAD_IN
    _pipeline = TestMonitorStateMachine._pipeline
    _monitor = TestMonitorStateMachine._monitor
    _feed_flat = staticmethod(TestMonitorStateMachine._feed_flat)
    _incident = TestMonitorStateMachine._incident

    def _ar8_monitor(self, captured, cooldown_ticks):
        """Monitor whose prediction looks exactly 8 ticks back."""
        context = OperationContext("wordcount", "slave-1")
        model = ARIMAModel(
            order=ARIMAOrder(8, 0, 0),
            ar=np.array([0.0] * 7 + [1.0]),
            ma=np.empty(0),
            intercept=0.0,
            sigma2=1.0,
        )
        detector = AnomalyDetector.from_artifacts(
            model, DriftThreshold(ThresholdRule.BETA_MAX, upper=0.5)
        )
        catalog = MetricCatalog(names=("m0", "m1", "m2", "m3"))
        invariants = InvariantSet(
            pairs=[(0, 1)], baseline=np.array([0.9]), catalog=catalog
        )
        pipe = InvarNetX(catalog=catalog)
        pipe.store.adopt(
            context.key(),
            ContextModels(
                context=context, detector=detector, invariants=invariants
            ),
        )

        def fake_infer(ctx, window, top_k=3):
            captured.append(np.asarray(window))
            return InferenceResult(
                causes=[], violations=np.zeros(1, dtype=bool)
            )

        pipe.infer = fake_infer
        return OnlineMonitor(
            pipe,
            context,
            window_ticks=self.WINDOW,
            warmup_ticks=self.WARMUP,
            cooldown_ticks=cooldown_ticks,
        )

    # -- bugfix 1: fault-window CPI must not poison ARIMA history -------
    def test_back_to_back_identical_faults_both_alarm(self):
        """Two identical faults in quick succession must both alarm.

        The AR(8) predictor's lookback spans the previous incident: if
        the COLLECTING-phase CPI (level 3.0) had been folded into the
        history, fault B's onset predictions would hit those contaminated
        samples, every residual would be 0, and B would never alarm.
        """
        captured: list[np.ndarray] = []
        monitor = self._ar8_monitor(captured, cooldown_ticks=2)
        events = []

        def feed(value, ticks):
            for _ in range(ticks):
                event = monitor.observe(np.zeros(4), value)
                if event is not None:
                    events.append(event)

        feed(1.0, self.WARMUP)  # healthy baseline
        feed(3.0, 3)  # fault A: alarm on the third elevated tick
        feed(3.0, self.WINDOW - self.LEAD_IN)  # window fills -> diagnosis
        feed(1.0, 2)  # recovered; drains the 2-tick cool-down
        feed(3.0, 15)  # fault B, identical to A
        kinds = [type(e).__name__ for e in events]
        assert kinds[:2] == ["AlarmEvent", "DiagnosisEvent"]
        assert "AlarmEvent" in kinds[2:], (
            "second identical fault never alarmed: ARIMA history was "
            f"contaminated by the first fault's window (events={kinds})"
        )
        alarm_b = next(e for e in events[2:] if isinstance(e, AlarmEvent))
        # B's onset predictions (1.0, from the quarantined history) make
        # each elevated tick anomalous: alarm on B's third tick exactly
        # ticks: 12 warm-up, 3 ramp A, 3 collecting, 2 cool-down
        fault_b_start = (
            self.WARMUP
            + OnlineMonitor.CONSECUTIVE
            + (self.WINDOW - self.LEAD_IN)
            + 2
        )
        assert alarm_b.tick == fault_b_start + 2

    def test_collection_cpi_quarantined(self):
        """COLLECTING CPI stays out of the detector history; the
        cool-down's CPI goes back into it."""
        monitor = self._monitor(captured=[])
        self._feed_flat(monitor, 1.0, self.WARMUP)
        _, value = self._incident(monitor, 1.0)
        assert monitor.cpi_len == self.WARMUP + OnlineMonitor.CONSECUTIVE
        self._feed_flat(monitor, value, self.WINDOW - self.LEAD_IN)
        # the three collection ticks were quarantined
        assert monitor.cpi_len == self.WARMUP + OnlineMonitor.CONSECUTIVE
        self._feed_flat(monitor, value, self.COOLDOWN)
        assert monitor.state is MonitorState.MONITORING
        assert monitor.cpi_len == (
            self.WARMUP + OnlineMonitor.CONSECUTIVE + self.COOLDOWN
        )

    # -- bugfix 2: lead-in ring stays fresh across a prompt re-arm ------
    def test_short_cooldown_second_window_has_no_stale_rows(self):
        """With a 1-tick cool-down the second alarm fires only 4 appends
        after the first (pre-fix: COLLECTING skipped the ring), so the
        old code seeded window B with a row from incident A's ramp.  The
        rows encode their tick: window B must be contiguous."""
        captured: list[np.ndarray] = []
        monitor = self._monitor(captured)
        # rebuild with a 1-tick cooldown (the harness default is 4)
        monitor.cooldown_ticks = 1
        self._feed_flat(monitor, 1.0, self.WARMUP)
        _, value = self._incident(monitor, 1.0)
        self._feed_flat(monitor, value, self.WINDOW - self.LEAD_IN)
        self._feed_flat(monitor, value, 1)  # the whole cool-down
        assert monitor.state is MonitorState.MONITORING
        alarm_b, value = self._incident(monitor, value)
        remaining = self.WINDOW - self.LEAD_IN
        events = self._feed_flat(monitor, value, remaining)
        assert len(events) == 1 and isinstance(events[0], DiagnosisEvent)
        assert len(captured) == 2
        window_b = captured[1]
        expected_ticks = np.arange(
            alarm_b.tick - self.LEAD_IN + 1, alarm_b.tick + remaining + 1
        )
        assert np.array_equal(window_b[:, 0], expected_ticks), (
            "second abnormal window contains stale pre-incident rows: "
            f"{window_b[:, 0].tolist()} != {expected_ticks.tolist()}"
        )

    # -- bugfix 3: the detector only runs on MONITORING ticks -----------
    def test_detector_runs_only_while_monitoring(self):
        monitor = self._monitor(captured=[])
        checks = _count_checks(monitor)
        self._feed_flat(monitor, 1.0, self.WARMUP)
        assert len(checks) == 0  # warm-up never checks
        _, value = self._incident(monitor, 1.0)
        assert len(checks) == OnlineMonitor.CONSECUTIVE
        self._feed_flat(monitor, value, self.WINDOW - self.LEAD_IN)
        assert len(checks) == OnlineMonitor.CONSECUTIVE  # collecting: none
        self._feed_flat(monitor, value, self.COOLDOWN)
        assert len(checks) == OnlineMonitor.CONSECUTIVE  # cool-down: none
        self._feed_flat(monitor, value, 1)
        assert len(checks) == OnlineMonitor.CONSECUTIVE + 1  # re-armed

    def test_precomputed_verdict_skips_detector(self):
        """The fleet hands ``observe`` the verdict it already computed
        (and recorded); the monitor must not check the tick again."""
        monitor = self._monitor(captured=[])
        checks = _count_checks(monitor)
        self._feed_flat(monitor, 1.0, self.WARMUP)
        for _ in range(OnlineMonitor.CONSECUTIVE):
            event = monitor.observe(np.zeros(4), 1.0, anomalous=True)
        assert isinstance(event, AlarmEvent)
        assert len(checks) == 0

    def test_diagnosis_event_carries_window(self):
        captured: list[np.ndarray] = []
        monitor = self._monitor(captured)
        self._feed_flat(monitor, 1.0, self.WARMUP)
        _, value = self._incident(monitor, 1.0)
        events = self._feed_flat(monitor, value, self.WINDOW - self.LEAD_IN)
        (diagnosis,) = events
        assert isinstance(diagnosis, DiagnosisEvent)
        assert diagnosis.window is not None
        assert np.array_equal(diagnosis.window, captured[0])


class TestWindowIsTheRing:
    """The abnormal window is a copy of the monitor's last
    ``window_ticks`` accepted rows, whatever the ring's capacity, however
    early the alarm and however soon after a cool-down it fires."""

    WINDOW = TestMonitorStateMachine.WINDOW

    def _drive(self, warmup_ticks, cooldown_ticks, ticks, recorder=False):
        """Every tick gets an anomalous verdict (so each alarm fires as
        early as the state machine allows); every 7th tick is preceded
        by a refused short row.  Returns ``(alarm_tick, tick)`` of each
        diagnosis, after checking its window against the accepted
        rows."""
        context = OperationContext("wordcount", "slave-1")
        pipe = TestMonitorStateMachine()._pipeline(context)
        pipe.infer = lambda ctx, window, top_k=3: InferenceResult(
            causes=[], violations=np.zeros(1, dtype=bool)
        )
        monitor = OnlineMonitor(
            pipe,
            context,
            window_ticks=self.WINDOW,
            warmup_ticks=warmup_ticks,
            cooldown_ticks=cooldown_ticks,
        )
        if recorder:
            monitor.attach(FlightRecorder(context))  # a 64-row ring
        accepted: list[np.ndarray] = []
        diagnoses = []
        for t in range(ticks):
            if t % 7 == 6:
                with pytest.raises(MalformedTick):
                    monitor.observe(np.zeros(3), 1.0, anomalous=True)
            row = np.arange(4.0) + 10.0 * t
            event = monitor.observe(row, 1.0, anomalous=True)
            accepted.append(row)
            if isinstance(event, DiagnosisEvent):
                assert np.array_equal(
                    event.window, np.array(accepted[-self.WINDOW :])
                )
                diagnoses.append((event.alarm_tick, event.tick))
        return diagnoses

    @pytest.mark.parametrize("recorder", [False, True])
    def test_second_alarm_right_after_cooldown(self, recorder):
        # warm-up ends at tick 11, the alarm fires at 14 and the window
        # fills at 17; the 1-tick cool-down re-arms at 18, so the next
        # alarm's lead-in holds the diagnosing and cool-down rows
        diagnoses = self._drive(12, 1, 120, recorder)
        assert diagnoses[:2] == [(14, 17), (21, 24)]
        assert len(diagnoses) == 15

    @pytest.mark.parametrize("warmup_ticks", [0, 1, 2])
    def test_alarm_before_a_full_lead_in(self, warmup_ticks):
        # tick 0 is always a warm-up tick, so monitoring starts at tick
        # max(warmup_ticks, 1) and the alarm fires CONSECUTIVE - 1 ticks
        # later with at most CONSECUTIVE + 2 rows behind it (fewer for
        # warm-ups 0 and 1): the window is every row up to WINDOW - 1
        assert warmup_ticks < OnlineMonitor.CONSECUTIVE + 2
        diagnoses = self._drive(warmup_ticks, 0, 40)
        first_alarm = max(warmup_ticks, 1) + OnlineMonitor.CONSECUTIVE - 1
        assert diagnoses[0] == (first_alarm, self.WINDOW - 1)


class TestNonFiniteCpi:
    """A standalone monitor refuses a NaN CPI instead of carrying it in
    its history, where it would break every later ARIMA(0, 1, 1) drift
    check: the NaN would enter the carried innovations for good."""

    def _ma1_monitor(self):
        context = OperationContext("wordcount", "slave-1")
        pipe = TestMonitorStateMachine()._pipeline(context)
        pipe.store.slot(context.key(), context).detector = (
            AnomalyDetector.from_artifacts(
                ARIMAModel(
                    order=ARIMAOrder(0, 1, 1),
                    ar=np.empty(0),
                    ma=np.array([0.3]),
                    intercept=0.0,
                    sigma2=1.0,
                ),
                DriftThreshold(ThresholdRule.BETA_MAX, upper=0.5),
            )
        )
        pipe.infer = lambda ctx, window, top_k=3: InferenceResult(
            causes=[], violations=np.zeros(1, dtype=bool)
        )
        return OnlineMonitor(
            pipe, context, window_ticks=8, warmup_ticks=12, cooldown_ticks=4
        )

    def test_nan_refused_and_later_fault_still_alarms(self):
        monitor = self._ma1_monitor()
        alarms = []
        for t in range(130):
            if t == 50:
                with pytest.raises(ValueError, match="finite"):
                    monitor.observe(np.full(4, 1.0), float("nan"))
                assert monitor.tick == 49
                assert monitor.cpi_len == 50
                continue
            cpi = 1.0 + (3.0 if t % 2 else -3.0) if t >= 100 else 1.0
            if isinstance(monitor.observe(np.full(4, 1.0), cpi), AlarmEvent):
                alarms.append(t)
        assert alarms and 100 <= alarms[0] <= 103


class TestMalformedRows:
    """A wrong-width or non-finite metric row is refused by ``observe``
    before anything is recorded.  Accepted into an abnormal window it
    made the window unstackable: every later tick's ``np.asarray`` of
    the collected rows raised, and the lane stayed in COLLECTING."""

    _monitor = TestMonitorStateMachine._monitor
    _pipeline = TestMonitorStateMachine._pipeline
    WARMUP = TestMonitorStateMachine.WARMUP
    WINDOW = TestMonitorStateMachine.WINDOW
    COOLDOWN = TestMonitorStateMachine.COOLDOWN

    @pytest.mark.parametrize(
        "bad_row",
        [np.zeros(3), np.zeros(5), np.array([1.0, np.nan, 1.0, 1.0])],
    )
    def test_bad_row_while_collecting_does_not_wedge(self, bad_row):
        monitor = self._monitor(captured=[])
        for _ in range(14):
            monitor.observe(np.full(4, 1.0), 1.0)
        for step in (2.0, 3.0, 4.0):  # a 3-tick CPI step: the alarm
            event = monitor.observe(np.full(4, 1.0), step)
        assert isinstance(event, AlarmEvent)
        assert monitor.state is MonitorState.COLLECTING
        tick = monitor.tick
        with pytest.raises(ValueError, match="metric row"):
            monitor.observe(bad_row, 4.0)
        assert monitor.tick == tick  # refused before anything recorded
        events = [
            monitor.observe(np.full(4, 1.0), 4.0) for _ in range(20)
        ]
        assert any(isinstance(e, DiagnosisEvent) for e in events)
        assert monitor.state is MonitorState.MONITORING

    def test_accepts_is_the_observe_rule(self):
        monitor = self._monitor()
        assert monitor.accepts(np.zeros(4), 1.0)
        assert not monitor.accepts(np.zeros(3), 1.0)
        assert not monitor.accepts(np.full(4, np.inf), 1.0)
        assert not monitor.accepts(np.zeros(4), float("nan"))
        assert not monitor.accepts(np.zeros((1, 4)), 1.0)


class TestInvariantTracker:
    def _matrices(self, rng, n=5):
        from repro.telemetry.metrics import MetricCatalog

        cat = MetricCatalog(names=("a", "b", "c", "d"))
        mats = []
        for _ in range(n):
            m = rng.uniform(0, 1, (4, 4))
            m = (m + m.T) / 2
            np.fill_diagonal(m, 1.0)
            mats.append(m)
        return cat, mats

    def test_matches_batch_algorithm(self, rng):
        cat, mats = self._matrices(rng)
        tracker = InvariantTracker(catalog=cat)
        for m in mats:
            tracker.add_run(m)
        incremental = tracker.current()
        batch = select_invariants(mats, catalog=cat)
        assert incremental.pairs == batch.pairs
        assert np.allclose(incremental.baseline, batch.baseline)

    def test_invariants_only_shrink_with_more_runs(self, rng):
        cat, mats = self._matrices(rng, n=8)
        tracker = InvariantTracker(catalog=cat)
        sizes = []
        for m in mats:
            tracker.add_run(m)
            sizes.append(len(tracker.current()))
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_empty_tracker_rejected(self):
        with pytest.raises(RuntimeError):
            InvariantTracker().current()

    def test_shape_validated(self, rng):
        tracker = InvariantTracker()
        with pytest.raises(ValueError):
            tracker.add_run(np.eye(4))

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            InvariantTracker(tau=0.0)

    def test_run_count(self, rng):
        cat, mats = self._matrices(rng, n=3)
        tracker = InvariantTracker(catalog=cat)
        for m in mats:
            tracker.add_run(m)
        assert tracker.n_runs == 3
