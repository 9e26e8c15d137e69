"""Cross-cutting consistency checks on the What-if Engine and LP results.

These verify algebraic identities the rest of the system relies on —
predictions consistent with affine compositions, LP results consistent with
their own reported aggregates — on synthetic engines with known parameters.
"""

import numpy as np
import pytest

from repro.cluster import build_cluster, small_fleet_spec
from repro.core.applications.yarn_config import YarnConfigTuner
from repro.core.whatif import WhatIfEngine
from repro.ml import LinearRegression
from repro.telemetry.monitor import PerformanceMonitor
from tests.conftest import frame_of, synthetic_group_rows


@pytest.fixture(scope="module")
def engine():
    rows = []
    rows += synthetic_group_rows(
        "Gen 1.1", "SC1", g_slope=0.035, f_slope=900.0, f_intercept=120.0,
        containers_center=18.0, seed=21,
    )
    rows += synthetic_group_rows(
        "Gen 2.2", "SC1", g_slope=0.025, f_slope=450.0, f_intercept=90.0,
        containers_center=24.0, seed=22,
    )
    rows += synthetic_group_rows(
        "Gen 2.2", "SC2", g_slope=0.025, f_slope=400.0, f_intercept=85.0,
        containers_center=24.0, seed=23,
    )
    rows += synthetic_group_rows(
        "Gen 4.1", "SC2", g_slope=0.016, f_slope=120.0, f_intercept=60.0,
        containers_center=30.0, seed=24,
    )
    eng = WhatIfEngine(model_factory=LinearRegression)
    eng.calibrate(PerformanceMonitor(frame_of(rows)))
    return eng


class TestPredictionConsistency:
    def test_prediction_matches_affine_composition(self, engine):
        """predict().task_latency must equal the affine w(m) used by the LP."""
        for group in engine.groups():
            slope, intercept = engine.latency_affine_in_containers(group)
            for containers in (10.0, 20.0, 28.0):
                prediction = engine.predict(group, containers)
                if 0.0 < prediction.utilization < 1.0:  # not clipped
                    assert prediction.task_latency == pytest.approx(
                        intercept + slope * containers, rel=1e-9
                    )

    def test_latency_monotone_in_containers(self, engine):
        """More containers → more utilization → more latency, everywhere."""
        for group in engine.groups():
            latencies = [
                engine.predict(group, m).task_latency for m in (8.0, 16.0, 24.0)
            ]
            assert latencies == sorted(latencies)

    def test_operating_point_self_consistent(self, engine):
        """Predicting at m' must land near the observed (x', w')."""
        for group in engine.groups():
            point = engine.operating_point(group)
            prediction = engine.predict(group, point.containers)
            assert prediction.utilization == pytest.approx(
                point.utilization, abs=0.05
            )
            assert prediction.task_latency == pytest.approx(
                point.task_latency, rel=0.1
            )


class TestLpResultConsistency:
    @pytest.fixture(scope="class")
    def tuned(self, engine):
        cluster = build_cluster(small_fleet_spec())
        return cluster, YarnConfigTuner(engine, delta_range=3.0).tune(cluster)

    def test_reported_capacity_matches_solution(self, tuned, engine):
        cluster, result = tuned
        sizes = {k.label: n for k, n in cluster.group_sizes().items()}
        recomputed = sum(
            sizes[g] * result.optimal_containers[g]
            for g in result.optimal_containers
        )
        assert result.optimal_capacity == pytest.approx(recomputed, rel=1e-9)

    def test_reported_latency_matches_predictions(self, tuned, engine):
        cluster, result = tuned
        sizes = {k.label: n for k, n in cluster.group_sizes().items()}
        weights = {
            g: engine.operating_point(g).tasks_per_hour * sizes[g]
            for g in result.predictions
        }
        total = sum(weights.values())
        recomputed = (
            sum(
                weights[g] * result.predictions[g].task_latency
                for g in result.predictions
            )
            / total
        )
        assert result.predicted_cluster_latency == pytest.approx(
            recomputed, rel=1e-9
        )

    def test_shift_equals_optimal_minus_current(self, tuned):
        _, result = tuned
        for group, shift in result.suggested_shift.items():
            assert shift == pytest.approx(
                result.optimal_containers[group]
                - result.current_containers[group]
            )

    def test_binding_latency_constraint(self, tuned):
        """The LP should spend the whole latency budget (maximizing capacity)."""
        _, result = tuned
        assert result.predicted_cluster_latency == pytest.approx(
            result.baseline_cluster_latency, rel=1e-6
        )

    def test_deltas_directionally_match_shifts(self, tuned):
        _, result = tuned
        for key, delta in result.config_deltas.items():
            assert np.sign(delta) == np.sign(result.suggested_shift[key.label])
