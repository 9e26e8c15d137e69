"""Tests for the What-if Engine on synthetic telemetry with known relations."""

import pytest

from repro.core.whatif import WhatIfEngine
from repro.ml import LinearRegression
from repro.telemetry.monitor import PerformanceMonitor
from repro.utils.errors import ModelNotCalibratedError, TelemetryError
from tests.conftest import frame_of, synthetic_group_records, synthetic_group_rows


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
