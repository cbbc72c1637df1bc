"""Serve-test isolation: same obs hygiene as tests/obs (the fleet emits
process-global metrics), plus shared hand-built fleet fixtures."""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.core import InvarNetX, OperationContext
from repro.core.anomaly import (
    AnomalyDetector,
    DriftThreshold,
    ThresholdRule,
)
from repro.core.inference import InferenceResult
from repro.core.invariants import InvariantSet
from repro.stats.arima import ARIMAModel, ARIMAOrder
from repro.store import ContextModels
from repro.telemetry.metrics import MetricCatalog

CATALOG = MetricCatalog(names=("m0", "m1", "m2", "m3"))


@pytest.fixture(autouse=True)
def clean_obs():
    saved_clock = obs.tracer().clock
    obs.configure(enabled=False)
    obs.reset()
    yield
    obs.configure(enabled=False)
    obs.tracer().clock = saved_clock
    obs.remove_handler()
    obs.reset()


def last_value_detector() -> AnomalyDetector:
    """ARIMA(0, 1, 0): anomalous when CPI moves > 0.5 from its
    predecessor — the hand-checkable harness of tests/core."""
    model = ARIMAModel(
        order=ARIMAOrder(0, 1, 0),
        ar=np.empty(0),
        ma=np.empty(0),
        intercept=0.0,
        sigma2=1.0,
    )
    return AnomalyDetector.from_artifacts(
        model, DriftThreshold(ThresholdRule.BETA_MAX, upper=0.5)
    )


def adopt_context(
    pipe: InvarNetX,
    context: OperationContext,
    detector: AnomalyDetector | None = None,
) -> None:
    invariants = InvariantSet(
        pairs=[(0, 1)], baseline=np.array([0.9]), catalog=CATALOG
    )
    pipe.store.adopt(
        context.key(),
        ContextModels(
            context=context,
            detector=detector or last_value_detector(),
            invariants=invariants,
        ),
    )


def stub_infer(pipe: InvarNetX) -> None:
    """Replace MIC inference with a deterministic stub (inference is
    covered elsewhere; these tests exercise the fleet machinery)."""
    pipe.infer = lambda ctx, window, top_k=3: InferenceResult(
        causes=[], violations=np.zeros(1, dtype=bool)
    )


def build_pipeline(
    contexts: list[OperationContext],
    detector: AnomalyDetector | None = None,
) -> InvarNetX:
    pipe = InvarNetX(catalog=CATALOG)
    for context in contexts:
        adopt_context(pipe, context, detector)
    stub_infer(pipe)
    return pipe


@pytest.fixture()
def obs_served_fleet():
    """A live ephemeral-port server with observability collection on."""
    import threading

    from repro.serve import FleetMonitor, build_server

    contexts = [OperationContext("wordcount", f"node-{i}") for i in range(3)]
    fleet = FleetMonitor(
        build_pipeline(contexts),
        shards=2,
        window_ticks=8,
        warmup_ticks=12,
        cooldown_ticks=4,
    )
    obs.configure(enabled=True)
    server = build_server(fleet)  # ephemeral port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield fleet, contexts, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
