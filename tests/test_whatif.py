"""Tests for the What-if Engine on synthetic telemetry with known relations."""

import cProfile
import os
import pstats

import pytest

import repro
from repro.core.whatif import WhatIfEngine
from repro.ml import LinearRegression
from repro.ml.model import RaggedBlock
from repro.telemetry.monitor import PerformanceMonitor
from repro.utils.errors import ModelNotCalibratedError, TelemetryError
from tests.conftest import frame_of, synthetic_group_records, synthetic_group_rows
from tests.test_analysis_golden import scenario_frame


@pytest.fixture()
def calibrated_engine():
    rows = synthetic_group_rows(
        "Gen 1.1", "SC1", g_slope=0.03, g_intercept=0.02,
        f_slope=800.0, f_intercept=50.0, containers_center=17.0, seed=1,
    )
    rows += synthetic_group_rows(
        "Gen 4.1", "SC2", g_slope=0.012, g_intercept=0.01,
        f_slope=150.0, f_intercept=40.0, containers_center=35.0, seed=2,
    )
    engine = WhatIfEngine(model_factory=LinearRegression)
    engine.calibrate(PerformanceMonitor(frame_of(rows)))
    return engine


class TestCalibration:
    def test_recovers_known_g_slopes(self, calibrated_engine):
        slope, _ = calibrated_engine.utilization_affine_in_containers("SC1_Gen 1.1")
        assert slope == pytest.approx(0.03, rel=0.1)
        slope, _ = calibrated_engine.utilization_affine_in_containers("SC2_Gen 4.1")
        assert slope == pytest.approx(0.012, rel=0.1)

    def test_latency_composition_is_affine(self, calibrated_engine):
        """w(m) = f(g(m)): slope should be f_slope x g_slope."""
        slope, intercept = calibrated_engine.latency_affine_in_containers("SC1_Gen 1.1")
        assert slope == pytest.approx(800.0 * 0.03, rel=0.12)
        prediction = calibrated_engine.predict("SC1_Gen 1.1", 20.0)
        assert prediction.task_latency == pytest.approx(
            intercept + slope * 20.0, rel=1e-6
        )

    def test_operating_points_near_centers(self, calibrated_engine):
        point = calibrated_engine.operating_point("SC1_Gen 1.1")
        assert point.containers == pytest.approx(17.0, abs=1.5)
        assert point.n_observations > 0

    def test_groups_listed(self, calibrated_engine):
        assert calibrated_engine.groups() == ["SC1_Gen 1.1", "SC2_Gen 4.1"]

    def test_prediction_clips_utilization(self, calibrated_engine):
        prediction = calibrated_engine.predict("SC1_Gen 1.1", 1000.0)
        assert prediction.utilization == 1.0

    def test_uncalibrated_group_raises(self, calibrated_engine):
        with pytest.raises(ModelNotCalibratedError):
            calibrated_engine.operating_point("SC1_Gen 9.9")
        with pytest.raises(ModelNotCalibratedError):
            calibrated_engine.predict("SC1_Gen 9.9", 10.0)

    def test_empty_monitor_rejected(self):
        with pytest.raises(TelemetryError):
            WhatIfEngine().calibrate(PerformanceMonitor())

    def test_small_groups_skipped_with_reason(self):
        frame = synthetic_group_records("Gen 2.2", "SC1", n_machines=1, n_days=1)
        # 1 machine x 1 day = 1 observation < min_observations.
        engine = WhatIfEngine(min_observations=6)
        report = engine.calibrate(PerformanceMonitor(frame))
        assert "SC1_Gen 2.2" in report.skipped_groups
        assert engine.groups() == []

    def test_calibration_report_quality(self, calibrated_engine):
        # Recalibrate to get the report.
        frame = synthetic_group_records("Gen 3.1", "SC1", noise=0.002, seed=3)
        engine = WhatIfEngine(model_factory=LinearRegression)
        report = engine.calibrate(PerformanceMonitor(frame))
        # g and f are near-exact; h carries integer-truncation noise from the
        # synthetic task counts, so the floor is looser.
        assert report.min_r_squared() > 0.7
        assert len(report.calibrated) == 3  # g, h, f for one group


class TestCallBudget:
    """Calibration has a fixed Python call budget (ROADMAP aim 1's work
    counter for the analysis layer).

    The counter is the calls that ``repro`` frames make under
    :mod:`cProfile`: to package functions, builtins and numpy's public
    functions (a numpy function with Python-level dispatch counts its
    dispatcher too). It leaves out what varies between numpy releases and
    interpreters: numpy's calls to its own internals, and calls to
    list/dict/set comprehension frames, which Python 3.12 inlines into their
    function. The plain cProfile total is no budget: it read 7,889 or 7,899
    for the same per-row code on one interpreter (see
    :func:`calls_made_by_package`). On the ``sc-migration`` golden frame
    (5 groups, 15 Huber fits of 6 or 12 machine-days), one ``calibrate`` made
    4,519 counted calls when each fit ran its own IRLS loop, 1,393 with one
    IRLS block per sample length and 1,115 with one ragged block for all 15
    fits (Python 3.11, numpy 2.4); the budget leaves 20% headroom.
    """

    BUDGET = 1340

    def test_calls_per_calibrate_within_budget(self):
        frame = scenario_frame("sc-migration")
        WhatIfEngine().calibrate(PerformanceMonitor(frame))  # warm column caches
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            report = WhatIfEngine().calibrate(PerformanceMonitor(frame))
        finally:
            profiler.disable()
        assert len(report.calibrated) == 15
        assert calls_made_by_package(profiler) <= self.BUDGET

    def test_one_irls_block_per_calibrate(self, monkeypatch):
        """All 15 fits share one ragged block: weighted least squares runs
        once for the warm start and once per pass of the slowest fit."""
        blocks = []
        weighted_rows = RaggedBlock.weighted_rows

        def counted(block, weights):
            blocks.append(block.oxy.shape[1])
            return weighted_rows(block, weights)

        monkeypatch.setattr(RaggedBlock, "weighted_rows", counted)
        report = WhatIfEngine().calibrate(PerformanceMonitor(scenario_frame("sc-migration")))
        passes = max(c.model.n_iterations_ for c in report.calibrated)
        assert blocks == [15] * (1 + passes)


def calls_made_by_package(profiler: cProfile.Profile) -> int:
    """Calls whose caller is a ``repro`` frame, comprehension frames aside.
    Calls to code built by ``exec`` (dataclass ``__init__``) are left out too:
    cProfile files all of it under one ``<string>`` label, so their counts
    overwrite one another in an order that varies from run to run."""
    package = os.path.dirname(repro.__file__)
    return sum(
        calls
        for (file, _, callee), (*_, callers) in pstats.Stats(profiler).stats.items()
        if file != "<string>" and callee not in ("<listcomp>", "<dictcomp>", "<setcomp>")
        for (caller_file, _, _), (calls, *_) in callers.items()
        if caller_file.startswith(package)
    )
