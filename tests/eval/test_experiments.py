"""Smoke/shape tests for the experiment runners (small repetitions)."""

import numpy as np
import pytest

from repro.core import InvarNetX, OperationContext
from repro.datagen.campaigns import CampaignConfig, FaultCampaign
from repro.eval.experiments import (
    BATCH_FAULT_NAMES,
    INTERACTIVE_FAULT_NAMES,
    run_diagnosis_experiment,
    run_fig2_cpi_disturbance,
    run_fig4_cpi_kpi,
    run_fig5_residuals,
    run_fig6_threshold_rules,
    run_table1_overhead,
)
from repro.stats.micfast import association_cache
from repro.store import DirectoryStore


class TestFaultLists:
    def test_fifteen_interactive_faults(self):
        assert len(INTERACTIVE_FAULT_NAMES) == 15

    def test_batch_drops_overload_only(self):
        assert set(INTERACTIVE_FAULT_NAMES) - set(BATCH_FAULT_NAMES) == {
            "Overload"
        }


class TestFig2:
    def test_disturbance_is_benign_and_hog_is_not(self, cluster):
        r = run_fig2_cpi_disturbance(cluster)
        lo, hi = r.disturb_window
        base = float(np.mean(r.baseline_cpi[lo:hi]))
        disturbed = float(np.mean(r.disturbed_cpi[lo:hi]))
        hogged = float(
            np.mean(r.hogged_cpi[lo : min(hi, r.hogged_cpi.size)])
        )
        # paper: disturbance changes neither time nor CPI
        assert disturbed == pytest.approx(base, rel=0.03)
        assert abs(r.disturbed_ticks - r.baseline_ticks) <= 2
        # ...but genuine contention moves both
        assert hogged > base * 1.15
        assert r.hogged_ticks > r.baseline_ticks


class TestFig4:
    def test_cpi_tracks_execution_time(self, cluster):
        series = run_fig4_cpi_kpi(cluster, reps=10)
        for s in series.values():
            assert s.correlation > 0.9  # paper: 0.97 / 0.95
            assert s.exec_norm.min() == pytest.approx(1.0)
            assert s.kpi_norm.min() == pytest.approx(1.0)

    def test_fit_is_monotone_over_observed_range(self, cluster):
        series = run_fig4_cpi_kpi(cluster, reps=10)
        for s in series.values():
            grid = np.linspace(s.exec_norm.min(), s.exec_norm.max(), 50)
            fitted = np.polyval(s.poly_coeffs, grid)
            assert np.all(np.diff(fitted) > -0.02)


class TestFig5:
    def test_fault_residuals_exceed_threshold(self, cluster):
        series = run_fig5_residuals(cluster)
        assert set(series) == {"wordcount", "tpcds"}
        for s in series.values():
            lo, hi = s.fault_window
            resid = np.abs(s.residuals)
            inside = resid[lo:hi]
            inside = inside[~np.isnan(inside)]
            outside = resid[:lo]
            outside = outside[~np.isnan(outside)]
            assert np.mean(inside) > np.mean(outside) * 2
            assert np.max(inside) > s.threshold_upper


class TestFig6:
    def test_pct95_is_noisiest_rule(self, cluster):
        scores = run_fig6_threshold_rules(cluster)
        for rows in scores.values():
            by_rule = {r.rule: r for r in rows}
            assert (
                by_rule["95-percentile"].false_positive_rate
                >= by_rule["beta-max"].false_positive_rate
            )

    def test_all_rules_detect_the_problem(self, cluster):
        scores = run_fig6_threshold_rules(cluster)
        for rows in scores.values():
            for r in rows:
                assert r.problem_detected


class TestExperimentLedger:
    def test_experiment_appends_a_summary_entry(self, cluster, tmp_path):
        """A system over a DirectoryStore leaves one ``experiment`` ledger
        entry per campaign, carrying the scored averages."""
        config = CampaignConfig(
            workload="grep", n_normal=3, train_reps=1, test_reps=2,
            base_seed=77,
        )
        campaign = FaultCampaign(cluster, config, ("CPU-hog",))
        system = InvarNetX(store=DirectoryStore(tmp_path))
        ctx = OperationContext("grep", "slave-1", cluster.ip_of("slave-1"))
        result = run_diagnosis_experiment(system, campaign, ctx, "InvarNet-X")
        entry = system.ledger.last(kind="experiment")
        assert entry is not None
        assert entry["system"] == "InvarNet-X"
        assert entry["context"] == ["grep", "slave-1"]
        assert entry["runs"] == len(result.outcomes)
        assert entry["detected"] == sum(
            1 for o in result.outcomes if o.detected
        )
        average = result.scores["average"]
        assert entry["precision"] == pytest.approx(average.precision)
        assert entry["recall"] == pytest.approx(average.recall)
        assert entry["fingerprint"] == system.fingerprint

    def test_memory_store_system_records_nothing(self, cluster):
        config = CampaignConfig(
            workload="grep", n_normal=2, train_reps=1, test_reps=1,
            base_seed=78,
        )
        campaign = FaultCampaign(cluster, config, ("CPU-hog",))
        system = InvarNetX()
        ctx = OperationContext("grep", "slave-1", cluster.ip_of("slave-1"))
        run_diagnosis_experiment(system, campaign, ctx, "InvarNet-X")
        assert system.ledger is None


class TestTable1:
    def test_cause_infer_span_scores_a_cold_matrix(self, cluster, monkeypatch):
        """The signature is trained on the very run Cause-I diagnoses;
        the timed inference must still score its window, not hit the
        association cache the signature training filled."""
        after_infer = []
        infer = InvarNetX.infer

        def recording_infer(self, *args, **kwargs):
            result = infer(self, *args, **kwargs)
            after_infer.append(association_cache().stats())
            return result

        monkeypatch.setattr(InvarNetX, "infer", recording_infer)
        rows = run_table1_overhead(cluster, workloads=("grep",), n_normal=3)
        assert len(rows) == 1
        assert after_infer[-1]["hits"] == 0
        assert after_infer[-1]["misses"] == 1
