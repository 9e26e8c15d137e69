"""Tests for the YARN configuration tuner (the Eq. 7-10 LP application)."""

import numpy as np
import pytest

from repro.cluster import build_cluster, small_fleet_spec
from repro.core.applications.yarn_config import YarnConfigTuner
from repro.core.whatif import WhatIfEngine
from repro.ml import LinearRegression
from repro.optim import grid_search
from repro.telemetry.monitor import PerformanceMonitor
from repro.utils.errors import OptimizationError
from tests.conftest import frame_of, synthetic_group_rows


def build_engine(slow_latency_slope=900.0, fast_latency_slope=120.0):
    """Engine with a slow contention-sensitive group and a fast insensitive one.

    The small fleet has Gen 1.1 (SC1), Gen 2.2 (SC1+SC2), Gen 4.1 (SC2).
    """
    rows = []
    rows += synthetic_group_rows(
        "Gen 1.1", "SC1", g_slope=0.035, f_slope=slow_latency_slope,
        f_intercept=120.0, containers_center=18.0, seed=10,
    )
    rows += synthetic_group_rows(
        "Gen 2.2", "SC1", g_slope=0.025, f_slope=450.0,
        f_intercept=90.0, containers_center=24.0, seed=11,
    )
    rows += synthetic_group_rows(
        "Gen 2.2", "SC2", g_slope=0.025, f_slope=400.0,
        f_intercept=85.0, containers_center=24.0, seed=12,
    )
    rows += synthetic_group_rows(
        "Gen 4.1", "SC2", g_slope=0.016, f_slope=fast_latency_slope,
        f_intercept=60.0, containers_center=30.0, seed=13,
    )
    engine = WhatIfEngine(model_factory=LinearRegression)
    engine.calibrate(PerformanceMonitor(frame_of(rows)))
    return engine


@pytest.fixture()
def cluster():
    return build_cluster(small_fleet_spec())


class TestLpDirection:
    def test_shifts_from_slow_to_fast(self, cluster):
        """Figure 10's shape: slow groups lose containers, fast groups gain."""
        engine = build_engine()
        result = YarnConfigTuner(engine, delta_range=4.0).tune(cluster)
        assert result.suggested_shift["SC1_Gen 1.1"] < 0
        assert result.suggested_shift["SC2_Gen 4.1"] > 0

    def test_config_deltas_conservative(self, cluster):
        engine = build_engine()
        result = YarnConfigTuner(engine, max_config_step=1).tune(cluster)
        assert all(abs(d) <= 1 for d in result.config_deltas.values())

    def test_latency_constraint_holds_at_optimum(self, cluster):
        engine = build_engine()
        result = YarnConfigTuner(engine).tune(cluster)
        assert result.predicted_cluster_latency <= result.baseline_cluster_latency * (
            1 + 1e-6
        )

    def test_capacity_never_decreases(self, cluster):
        """The current point is feasible, so the optimum is at least as good."""
        engine = build_engine()
        result = YarnConfigTuner(engine).tune(cluster)
        assert result.optimal_capacity >= result.baseline_capacity - 1e-6
        assert result.capacity_gain >= -1e-9

    def test_heavy_load_percentile_same_direction(self, cluster):
        """Section 5.2.1: tuning at a higher utilization percentile suggests
        the same change direction."""
        from repro.ml import QuantileRegressor

        rows = []
        rows += synthetic_group_rows(
            "Gen 1.1", "SC1", g_slope=0.035, f_slope=900.0,
            f_intercept=120.0, containers_center=18.0, seed=10,
        )
        rows += synthetic_group_rows(
            "Gen 4.1", "SC2", g_slope=0.016, f_slope=120.0,
            f_intercept=60.0, containers_center=30.0, seed=13,
        )
        monitor = PerformanceMonitor(frame_of(rows))
        mean_engine = WhatIfEngine(model_factory=LinearRegression)
        mean_engine.calibrate(monitor)
        q_engine = WhatIfEngine(model_factory=lambda: QuantileRegressor(tau=0.85))
        q_engine.calibrate(monitor)
        mean_result = YarnConfigTuner(mean_engine).tune(cluster)
        q_result = YarnConfigTuner(q_engine).tune(cluster)
        for group in mean_result.suggested_shift:
            assert np.sign(mean_result.suggested_shift[group]) == np.sign(
                q_result.suggested_shift[group]
            )


class TestLpDetails:
    def test_delta_range_bounds_solution(self, cluster):
        engine = build_engine()
        result = YarnConfigTuner(engine, delta_range=2.0).tune(cluster)
        for _group, shift in result.suggested_shift.items():
            assert abs(shift) <= 2.0 + 1e-9

    def test_utilization_cap_respected(self, cluster):
        engine = build_engine()
        result = YarnConfigTuner(engine, utilization_cap=0.7,
                                 delta_range=50.0).tune(cluster)
        for _group, prediction in result.predictions.items():
            assert prediction.utilization <= 0.7 + 1e-6

    def test_proposed_config_applies_deltas(self, cluster):
        engine = build_engine()
        result = YarnConfigTuner(engine).tune(cluster)
        for key, delta in result.config_deltas.items():
            before = cluster.yarn_config.for_group(key).max_running_containers
            after = result.proposed_config.for_group(key).max_running_containers
            assert after == before + delta

    def test_lp_matches_grid_search(self, cluster):
        """The linearized LP's optimum should match brute force over the same
        bounds (fixed-weight objective), validating the linearization."""
        engine = build_engine()
        tuner = YarnConfigTuner(engine, delta_range=2.0)
        result = tuner.tune(cluster)
        groups = sorted(result.current_containers)
        sizes = {k.label: n for k, n in cluster.group_sizes().items()}
        weights = {
            g: engine.operating_point(g).tasks_per_hour * sizes[g] for g in groups
        }
        rhs = sum(
            weights[g] * engine.operating_point(g).task_latency for g in groups
        )

        def objective(point):
            # Invalid (constraint-violating) points get -inf.
            latency = sum(
                weights[g]
                * (
                    engine.latency_affine_in_containers(g)[1]
                    + engine.latency_affine_in_containers(g)[0] * point[g]
                )
                for g in groups
            )
            if latency > rhs + 1e-6:
                return -np.inf
            return sum(sizes[g] * point[g] for g in groups)

        axes = {
            g: list(
                np.linspace(
                    result.current_containers[g] - 2.0,
                    result.current_containers[g] + 2.0,
                    21,
                )
            )
            for g in groups
        }
        brute = grid_search(objective, axes, minimize=False)
        lp_objective = sum(
            sizes[g] * result.optimal_containers[g] for g in groups
        )
        assert lp_objective >= brute.best.value - 1e-3

    def test_no_calibrated_groups_raises(self, cluster):
        engine = WhatIfEngine()
        with pytest.raises(OptimizationError):
            YarnConfigTuner(engine).tune(cluster)

    def test_parameter_validation(self):
        engine = build_engine()
        with pytest.raises(OptimizationError):
            YarnConfigTuner(engine, delta_range=0.0)
        with pytest.raises(OptimizationError):
            YarnConfigTuner(engine, max_config_step=0)
        with pytest.raises(OptimizationError):
            YarnConfigTuner(engine, utilization_cap=1.5)

    def test_summary_renders(self, cluster):
        engine = build_engine()
        result = YarnConfigTuner(engine).tune(cluster)
        text = result.summary()
        assert "SC1_Gen 1.1" in text
        assert "capacity gain" in text
