"""One diagnose_run (or explain_run) is one detection, as the detector
metrics count it.

Both cut the abnormal window from the report they already hold; running
detection a second time for the cut would double every detection counter
and histogram for each diagnosed incident.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.faults import FaultSpec, build_fault
from repro.obs.explain import explain_run


def _incident(cluster):
    fault = build_fault("CPU-hog", FaultSpec("slave-1", 30, 30))
    return cluster.run("wordcount", faults=[fault], seed=4242)


def _summary(result):
    inference = result.inference
    assert inference is not None
    return (
        result.detected,
        result.anomaly.first_problem_tick(),
        result.anomaly.anomalous.tobytes(),
        [(c.problem, c.score) for c in inference.causes],
        inference.violations.tobytes(),
        inference.matched,
    )


class TestDiagnoseRunDetectsOnce:
    def test_counters_count_one_detection(
        self, cluster, trained_pipeline, wordcount_context
    ):
        run = _incident(cluster)
        baseline = trained_pipeline.diagnose_run(wordcount_context, run)
        assert baseline.detected

        obs.configure(enabled=True)
        result = trained_pipeline.diagnose_run(wordcount_context, run)
        registry = obs.metrics_registry()

        def total(name):
            family = registry.counter(name, labelnames=("context",))
            return sum(value for _, value in family.samples())

        assert total("invarnetx_problems_detected_total") == 1
        assert total("invarnetx_anomaly_ticks_total") == int(
            np.sum(result.anomaly.anomalous)
        )
        detect_seconds = registry.histogram(
            "invarnetx_detect_seconds", labelnames=("context",)
        )
        assert [count for _, _, count, _ in detect_seconds.samples()] == [1]
        assert _summary(result) == _summary(baseline)

    def test_extract_abnormal_window_matches_diagnosis_window(
        self, cluster, trained_pipeline, wordcount_context, monkeypatch
    ):
        run = _incident(cluster)
        seen = []
        infer = trained_pipeline.infer

        def spy(context, window, top_k=3):
            seen.append(np.array(window))
            return infer(context, window, top_k=top_k)

        monkeypatch.setattr(trained_pipeline, "infer", spy)
        trained_pipeline.diagnose_run(wordcount_context, run)
        window = trained_pipeline.extract_abnormal_window(
            wordcount_context, run
        )
        assert len(seen) == 1
        assert np.array_equal(seen[0], window)


class TestExplainRunDetectsOnce:
    def test_counters_count_one_detection(
        self, cluster, trained_pipeline, wordcount_context
    ):
        run = _incident(cluster)
        obs.configure(enabled=True)
        explanation = explain_run(trained_pipeline, wordcount_context, run)
        assert explanation is not None
        registry = obs.metrics_registry()
        problems = registry.counter(
            "invarnetx_problems_detected_total", labelnames=("context",)
        )
        assert sum(value for _, value in problems.samples()) == 1
        detect_seconds = registry.histogram(
            "invarnetx_detect_seconds", labelnames=("context",)
        )
        assert [count for _, _, count, _ in detect_seconds.samples()] == [1]
