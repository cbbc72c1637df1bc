"""Parity of the monitor's streaming drift check with the full recursion.

:meth:`OnlineMonitor.check` predicts from a
:class:`~repro.stats.arima.OneStepPredictor` the lane carries: seeded by
the model's own recursion at the first check, then advanced one ARMA
step per sample.  The reference is :meth:`AnomalyDetector.check_next` /
:meth:`ARIMAModel.predict_next` over the full, un-truncated,
quarantine-filtered history, which reruns the recursion from scratch.

- For pure-AR orders (``q == 0``) every prediction and verdict must
  equal the reference bit for bit: ``==``, not ``pytest.approx``.
- For ``q > 0`` the carried innovations differ from the recomputed ones
  by a term that decays after seeding: verdicts must still agree on
  every tick, and predictions within 1e-9 relative from 30 ticks after
  the first check.

Models are fitted on builtin campaign CPI (Wordcount, slave-1), and the
streams run through warm-up, alarms, collection (quarantine), cool-down
and past 600 ticks.
"""

import numpy as np
import pytest

from repro.core import InvarNetX, OperationContext
from repro.core.anomaly import (
    AnomalyDetector,
    DriftThreshold,
    ThresholdRule,
)
from repro.core.inference import InferenceResult
from repro.core.invariants import InvariantSet
from repro.core.online import MonitorState, OnlineMonitor
from repro.faults.spec import FaultSpec, build_fault
from repro.serve.fleet import fast_check
from repro.stats.arima import ARIMAModel, ARIMAOrder, OneStepPredictor
from repro.store import ContextModels
from repro.telemetry.metrics import MetricCatalog

PURE_AR_ORDERS = [(0, 1, 0), (1, 0, 0), (2, 1, 0), (3, 0, 0), (1, 2, 0)]
MA_ORDERS = [(1, 0, 1), (0, 1, 1), (2, 0, 2), (1, 0, 2)]
FAULTS = ("CPU-hog", "Mem-hog", "Disk-hog", "Suspend")
CATALOG = MetricCatalog(names=("m0", "m1", "m2", "m3"))
RUNS = 7  # ~100 ticks each: every stream passes 600 ticks
SETTLE = 30  # q > 0: ticks after the first check before the 1e-9 bound


@pytest.fixture(scope="module")
def training_cpi(cluster):
    return [
        cluster.run("wordcount", seed=1000 + i).node("slave-1").cpi
        for i in range(6)
    ]


@pytest.fixture(scope="module")
def streams(cluster):
    """A normal and a faulty Wordcount slave-1 CPI stream, each a
    concatenation of whole runs."""
    normal = [
        cluster.run("wordcount", seed=7000 + i).node("slave-1").cpi
        for i in range(RUNS)
    ]
    faulty = [
        cluster.run(
            "wordcount",
            faults=[build_fault(FAULTS[i % 4], FaultSpec("slave-1", 40, 30))],
            seed=7100 + i,
        ).node("slave-1").cpi
        for i in range(RUNS)
    ]
    return {"normal": np.concatenate(normal), "fault": np.concatenate(faulty)}


def _monitor(detector: AnomalyDetector, **kwargs) -> OnlineMonitor:
    """A monitor on ``detector``; inference is stubbed (the drift check
    is under test, not Cause-I)."""
    context = OperationContext("wordcount", "slave-1")
    pipe = InvarNetX(catalog=CATALOG)
    pipe.store.adopt(
        context.key(),
        ContextModels(
            context=context,
            detector=detector,
            invariants=InvariantSet(
                pairs=[(0, 1)], baseline=np.array([0.9]), catalog=CATALOG
            ),
        ),
    )
    pipe.infer = lambda ctx, window, top_k=3: InferenceResult(
        causes=[], violations=np.zeros(1, dtype=bool)
    )
    return OnlineMonitor(pipe, context, **kwargs)


def _drive(
    monitor: OnlineMonitor, cpi: np.ndarray
) -> tuple[list[tuple], set[MonitorState]]:
    """Feed ``cpi`` through ``observe``.

    Returns ``(tick, prediction, verdict, reference prediction,
    reference verdict)`` for every drift check the monitor ran, and the
    states the stream visited.  Asserts the stream passed 600 ticks.
    """
    detector = monitor.detector
    p, d, q = detector.model.order
    history: list[float] = []  # un-truncated, quarantine-filtered
    checks: list[tuple] = []
    states = set()
    check = monitor.check

    def spy(value):
        verdict = check(value)
        if verdict is not None:
            predictor = monitor._predictor
            if len(history) > d + max(p, q):
                ref_prediction = detector.model.predict_next(history)
                ref_verdict = detector.check_next(np.asarray(history), value)
            else:
                ref_prediction, ref_verdict = None, False
            checks.append((
                monitor.tick + 1,
                predictor.prediction if predictor is not None else None,
                verdict,
                ref_prediction,
                ref_verdict,
            ))
        return verdict

    monitor.check = spy
    for value in cpi:
        state = monitor.state
        states.add(state)
        monitor.observe(np.zeros(4), float(value))
        if state is not MonitorState.COLLECTING:
            history.append(float(value))
    assert monitor.tick >= 600
    assert len(history) == monitor.cpi_len
    return checks, states


def _trained(order, training_cpi) -> AnomalyDetector:
    return AnomalyDetector(order=order).train(training_cpi)


class TestPureAR:
    @pytest.mark.parametrize("order", PURE_AR_ORDERS)
    def test_every_prediction_and_verdict_equals_reference(
        self, order, training_cpi, streams
    ):
        detector = _trained(order, training_cpi)
        for name, cpi in streams.items():
            checks, states = _drive(_monitor(detector), cpi)
            assert checks
            for tick, pred, verdict, ref_pred, ref_verdict in checks:
                assert pred == ref_pred, (name, tick)  # exact
                assert verdict == ref_verdict, (name, tick)
        # the fault stream ran the whole state machine
        assert states == set(MonitorState)

    @pytest.mark.parametrize("order", PURE_AR_ORDERS)
    def test_seed_on_any_suffix_changes_nothing(
        self, order, training_cpi, streams
    ):
        """For q == 0 the prediction only reads a short tail: seeding on
        any long-enough suffix of the history, then streaming the rest,
        gives the full-history predictions bit for bit."""
        model = _trained(order, training_cpi).model
        cpi = streams["normal"][:120]
        p, d, _ = model.order
        for seed_len in (p + d + 1, p + d + 2, 40):
            predictor = OneStepPredictor(model, cpi[60 - seed_len : 60])
            for k in range(60, cpi.size):
                assert predictor.prediction == model.predict_next(cpi[:k])
                predictor.push(cpi[k])


class TestMovingAverage:
    @pytest.mark.parametrize("order", MA_ORDERS)
    def test_verdicts_equal_and_predictions_converge(
        self, order, training_cpi, streams
    ):
        detector = _trained(order, training_cpi)
        assert detector.model.order.q > 0
        for name, cpi in streams.items():
            checks, _ = _drive(_monitor(detector), cpi)
            first = checks[0][0]
            for tick, pred, verdict, ref_pred, ref_verdict in checks:
                assert verdict == ref_verdict, (name, tick)
                if tick >= first + SETTLE:
                    assert pred == pytest.approx(ref_pred, rel=1e-9, abs=0)

    def test_first_check_is_the_full_recursion(self, training_cpi, streams):
        """Seeding runs the model's own recursion: the first prediction
        is the reference one bit for bit, for q > 0 too."""
        detector = _trained((1, 0, 1), training_cpi)
        checks, _ = _drive(_monitor(detector), streams["fault"])
        _, pred, _, ref_pred, _ = checks[0]
        assert pred == ref_pred

    def test_ma_lanes_are_served_by_the_fleet_check(self, training_cpi):
        """The fleet's drain loop calls ``fast_check``: it is the
        monitor's own check, and it serves q > 0 lanes."""
        assert fast_check is OnlineMonitor.check
        monitor = _monitor(_trained((0, 1, 1), training_cpi))
        for _ in range(12):
            monitor.observe(np.zeros(4), 1.0)
        assert monitor.state is MonitorState.MONITORING
        assert fast_check(monitor, 1.0) in (True, False)


class TestCheckGates:
    def _model(self, order):
        p, _, q = order
        return ARIMAModel(
            order=ARIMAOrder(*order),
            ar=np.full(p, 0.2),
            ma=np.full(q, 0.1),
            intercept=0.0,
            sigma2=1.0,
        )

    def _detector(self, order):
        return AnomalyDetector.from_artifacts(
            self._model(order),
            DriftThreshold(ThresholdRule.BETA_MAX, upper=0.5),
        )

    def test_none_outside_monitoring(self):
        monitor = _monitor(
            self._detector((0, 1, 0)),
            window_ticks=8, warmup_ticks=12, cooldown_ticks=4,
        )
        seen = {}
        for value in [1.0] * 12 + [2.0, 3.0, 4.0] + [4.0] * 7:
            seen.setdefault(monitor.state, monitor.check(value))
            monitor.observe(np.zeros(4), value)
        assert seen[MonitorState.WARMUP] is None
        assert seen[MonitorState.COLLECTING] is None
        assert seen[MonitorState.COOLDOWN] is None
        assert seen[MonitorState.MONITORING] is True  # the 1.0 -> 2.0 step

    def test_short_history_gate(self):
        """A warm-up shorter than the order needs: MONITORING checks
        answer False until the history can seed the predictor, then
        match the reference."""
        detector = self._detector((3, 0, 0))
        monitor = _monitor(
            detector, window_ticks=8, warmup_ticks=2, cooldown_ticks=4
        )
        history = [1.0, 1.0]
        for value in history:
            monitor.observe(np.zeros(4), value)
        assert monitor.state is MonitorState.MONITORING
        for value in (1.0, 1.0):
            assert monitor.check(value) is False
            assert monitor._predictor is None
            monitor.observe(np.zeros(4), value)
            history.append(value)
        assert monitor._predictor is not None
        for value in (1.0, 1.3, 0.9):
            assert monitor.check(value) == detector.check_next(
                np.asarray(history), value
            )
            monitor.observe(np.zeros(4), value)
            history.append(value)

    def test_short_history_rejected(self):
        model = self._model((3, 1, 0))
        with pytest.raises(ValueError, match="history too short"):
            OneStepPredictor(model, np.ones(4))
        assert OneStepPredictor(model, np.ones(5)).prediction == 1.0

    def test_matches_reference_tick_for_tick(self, rng):
        """Two monitors through noise and a fault ramp: one runs its own
        check, the other is handed the reference verdict; the event
        streams must be identical."""
        detector = self._detector((2, 1, 0))
        own = _monitor(detector, window_ticks=8, cooldown_ticks=4)
        handed = _monitor(detector, window_ticks=8, cooldown_ticks=4)
        cpi = list(4.0 + rng.normal(0.0, 0.05, size=40)) + [
            5.0, 6.0, 7.0, 8.0, 9.0, 10.0,
        ] + [10.0] * 20
        history: list[float] = []
        own_events, handed_events = [], []
        for value in cpi:
            state = handed.state
            verdict = (
                detector.check_next(np.asarray(history), value)
                if state is MonitorState.MONITORING
                else None
            )
            ev = handed.observe(np.zeros(4), value, anomalous=verdict)
            if ev is not None:
                handed_events.append((type(ev).__name__, ev.tick))
            ev = own.observe(np.zeros(4), value)
            if ev is not None:
                own_events.append((type(ev).__name__, ev.tick))
            if state is not MonitorState.COLLECTING:
                history.append(value)
        assert own_events == handed_events
        assert [kind for kind, _ in own_events][:2] == [
            "AlarmEvent", "DiagnosisEvent",
        ]
