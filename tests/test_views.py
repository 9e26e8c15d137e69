"""Tests for dashboard views: ECDF, percentile bands, scatter series."""

import numpy as np
import pytest

from repro.telemetry.monitor import PerformanceMonitor
from repro.telemetry.views import ecdf, scatter_view, utilization_bands
from tests.conftest import frame_of, make_row


class TestEcdf:
    def test_sorted_and_ends_at_one(self):
        x, y = ecdf(np.array([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(x, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(y, [1 / 3, 2 / 3, 1.0])

    def test_empty_input(self):
        x, y = ecdf(np.array([]))
        assert x.size == 0 and y.size == 0

    def test_median_of_symmetric_sample(self):
        values = np.linspace(0, 10, 101)
        x, y = ecdf(values)
        median_index = np.searchsorted(y, 0.5)
        assert x[median_index] == pytest.approx(5.0, abs=0.1)


class TestUtilizationBands:
    def _monitor(self):
        rng = np.random.default_rng(0)
        rows = []
        for hour in range(24):
            center = 0.5 + 0.2 * np.sin(hour / 24 * 2 * np.pi)
            for machine in range(50):
                rows.append(
                    make_row(machine_id=machine, hour=hour,
                             cpu_utilization=float(np.clip(
                                 center + rng.normal(0, 0.05), 0, 1)))
                )
        return PerformanceMonitor(frame_of(rows))

    def test_band_ordering(self):
        bands = utilization_bands(self._monitor())
        assert np.all(bands.p5 <= bands.p25)
        assert np.all(bands.p25 <= bands.p50)
        assert np.all(bands.p50 <= bands.p75)
        assert np.all(bands.p75 <= bands.p95)

    def test_hours_axis(self):
        bands = utilization_bands(self._monitor())
        np.testing.assert_array_equal(bands.hours, np.arange(24))

    def test_overall_mean(self):
        bands = utilization_bands(self._monitor())
        assert 0.4 < bands.overall_mean < 0.6


class TestScatterView:
    def _monitor(self):
        rng = np.random.default_rng(1)
        rows = []
        for sku, slope in [("Gen 1.1", 1e11), ("Gen 4.1", 3e11)]:
            for i in range(100):
                util = rng.uniform(0.2, 0.9)
                rows.append(
                    make_row(
                        machine_id=i, sku=sku, software="SC1",
                        cpu_utilization=util,
                        total_data_read_bytes=slope * util + rng.normal(0, 1e9),
                    )
                )
        return PerformanceMonitor(frame_of(rows))

    def test_one_series_per_group(self):
        series = scatter_view(self._monitor())
        assert {s.group for s in series} == {"SC1_Gen 1.1", "SC1_Gen 4.1"}

    def test_linear_trend_recovers_slope(self):
        series = {s.group: s for s in scatter_view(self._monitor())}
        slope, _ = series["SC1_Gen 4.1"].linear_trend()
        assert slope == pytest.approx(3e11, rel=0.05)

    def test_positive_correlation(self):
        for series in scatter_view(self._monitor()):
            assert series.correlation() > 0.9

    def test_degenerate_correlation_zero(self):
        rows = [make_row(cpu_utilization=0.5, total_data_read_bytes=1e9)] * 5
        series = scatter_view(PerformanceMonitor(frame_of(rows)))[0]
        assert series.correlation() == 0.0
