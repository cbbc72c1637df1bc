"""Tests for the fault-severity (intensity) scaling."""

import numpy as np
import pytest

from repro.core.signatures import ensemble_similarity
from repro.faults.spec import FaultSpec, build_fault


def _mods(name, intensity, rng, tick=5):
    fault = build_fault(
        name, FaultSpec("slave-1", 0, 30, intensity=intensity)
    )
    fault.begin_run(rng)
    return fault.modifiers(tick, rng)


class TestIntensityScaling:
    def test_unit_intensity_is_identity(self, rng):
        a = _mods("CPU-hog", 1.0, np.random.default_rng(3))
        b = build_fault("CPU-hog", FaultSpec("slave-1", 0, 30))
        b.begin_run(np.random.default_rng(3))
        raw = b._modifiers(5, np.random.default_rng(3))
        reproduced = _mods("CPU-hog", 1.0, np.random.default_rng(3))
        assert reproduced.external.cpu == pytest.approx(raw.external.cpu)
        assert a.cpi_factor == pytest.approx(raw.cpi_factor)

    def test_external_demand_scales_linearly(self):
        weak = _mods("Mem-hog", 0.5, np.random.default_rng(1))
        strong = _mods("Mem-hog", 2.0, np.random.default_rng(1))
        assert strong.external.mem_mb == pytest.approx(
            weak.external.mem_mb * 4.0
        )

    def test_cpi_factor_scales_geometrically(self):
        base = _mods("Misconf", 1.0, np.random.default_rng(2))
        doubled = _mods("Misconf", 2.0, np.random.default_rng(2))
        assert doubled.cpi_factor == pytest.approx(base.cpi_factor**2)

    def test_capacity_factor_softens_at_low_intensity(self):
        base = _mods("Net-drop", 1.0, np.random.default_rng(4))
        gentle = _mods("Net-drop", 0.5, np.random.default_rng(4))
        assert gentle.net_capacity_factor > base.net_capacity_factor
        assert gentle.net_capacity_factor < 1.0

    def test_hard_zero_progress_fades_in(self):
        full = _mods("Suspend", 1.0, np.random.default_rng(5))
        half = _mods("Suspend", 0.5, np.random.default_rng(5))
        assert full.progress_factor == 0.0
        assert half.progress_factor == pytest.approx(0.5)

    def test_metric_adds_scale_linearly(self):
        weak = build_fault(
            "Misconf", FaultSpec("slave-1", 0, 30, intensity=0.5)
        )
        strong = build_fault(
            "Misconf", FaultSpec("slave-1", 0, 30, intensity=1.5)
        )
        for f in (weak, strong):
            f.begin_run(np.random.default_rng(6))
        fx_weak = weak.metric_effects(5, np.random.default_rng(7))
        fx_strong = strong.metric_effects(5, np.random.default_rng(7))
        assert fx_strong.add["ctxt_per_sec"] == pytest.approx(
            fx_weak.add["ctxt_per_sec"] * 3.0
        )

    def test_invalid_intensity_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("slave-1", 0, 30, intensity=0.0)

    def test_weaker_fault_moves_cpi_less(self, cluster):
        base_run = cluster.run("wordcount", seed=42)
        runs = {}
        for intensity in (0.5, 1.5):
            fault = build_fault(
                "CPU-hog", FaultSpec("slave-1", 30, 30, intensity=intensity)
            )
            runs[intensity] = cluster.run(
                "wordcount", faults=[fault], seed=42
            )
        base = base_run.node("slave-1").cpi[30:60].mean()
        weak = runs[0.5].node("slave-1").cpi[30:60].mean()
        strong = runs[1.5].node("slave-1").cpi[30:60].mean()
        assert base < weak < strong


class TestEnsembleSimilarity:
    def test_between_the_two_components(self):
        from repro.core.signatures import (
            jaccard_similarity,
            matching_similarity,
        )

        a = np.array([True, True, False, False])
        b = np.array([True, False, False, False])
        lo, hi = sorted(
            [jaccard_similarity(a, b), matching_similarity(a, b)]
        )
        assert lo <= ensemble_similarity(a, b) <= hi

    def test_identity(self):
        a = np.array([True, False, True])
        assert ensemble_similarity(a, a) == 1.0

    def test_registered_in_rank(self):
        from repro.core.signatures import SignatureDatabase

        db = SignatureDatabase()
        db.add(np.array([True, False]), "A")
        ranking = db.best_per_problem(
            np.array([True, False]), measure="ensemble"
        )
        assert ranking[0][:2] == ("A", 1.0)
