"""YARN configuration tuning: the paper's headline application (Section 5.2).

Formulates Eq. 7–10 over the calibrated What-if models:

    maximize    Σ_k n_k · m_k                      (sellable capacity)
    subject to  W̄(m) ≤ W̄'                         (no cluster latency regression)
                |m_k − m'_k| ≤ delta_range          (conservative changes)
                g_k(m_k) ≤ utilization_cap          (physical capacity)

W̄ is the task-weighted cluster average latency. As in the paper's closed
form, the task-count weights are held at their current levels l'_k·n_k, which
makes the constraint affine in m_k (w_k = f_k(g_k(m_k)) is affine); the grid
ablation bench verifies this linearization does not move the optimum.

The LP's solution is a *workload shift* (Figure 10): more containers on fast
groups, fewer on slow groups. The config change then moves each group's
``max_num_running_containers`` one step (±``max_config_step``) in the
suggested direction — the paper's conservative production rollout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.config import YarnConfig
from repro.cluster.software import MachineGroupKey
from repro.core.application import (
    ParameterSpec,
    TuningApplication,
    TuningOutcome,
    TuningProposal,
    register_application,
)
from repro.core.whatif import GroupPrediction, WhatIfEngine
from repro.optim.lp import LinearProgram, LpSolution
from repro.utils.errors import OptimizationError
from repro.utils.tables import TextTable, format_float
from repro.utils.units import left_sum

__all__ = ["YarnTuningResult", "YarnConfigTuner", "YarnConfigApplication"]


@dataclass
class YarnTuningResult:
    """Everything the YARN tuning run produced."""

    solution: LpSolution
    optimal_containers: dict[str, float]  # m*_k per group label
    current_containers: dict[str, float]  # m'_k per group label
    suggested_shift: dict[str, float]  # m*_k − m'_k (Figure 10)
    config_deltas: dict[MachineGroupKey, int]  # conservative ±step per group
    proposed_config: YarnConfig
    predictions: dict[str, GroupPrediction]  # at m*_k
    baseline_cluster_latency: float  # W̄'
    predicted_cluster_latency: float  # W̄ at the optimum
    baseline_capacity: float  # Σ n_k m'_k
    optimal_capacity: float  # Σ n_k m*_k

    @property
    def capacity_gain(self) -> float:
        """Relative sellable-capacity gain at the LP optimum."""
        if self.baseline_capacity <= 0:
            return 0.0
        return (self.optimal_capacity - self.baseline_capacity) / self.baseline_capacity

    def summary(self) -> str:
        """Paper-style table of the suggested per-group shifts (Figure 10)."""
        table = TextTable(
            ["group", "m' (current)", "m* (optimal)", "shift", "config delta"],
            title="Suggested workload shift per machine group",
        )
        label_by_key = {key.label: key for key in self.config_deltas}
        for group in sorted(self.suggested_shift):
            delta = self.config_deltas.get(label_by_key.get(group), 0)
            table.add_row(
                [
                    group,
                    format_float(self.current_containers[group], 2),
                    format_float(self.optimal_containers[group], 2),
                    f"{self.suggested_shift[group]:+.2f}",
                    f"{delta:+d}",
                ]
            )
        footer = (
            f"\npredicted cluster latency: {self.predicted_cluster_latency:.1f}s "
            f"(baseline {self.baseline_cluster_latency:.1f}s); "
            f"capacity gain at optimum: {self.capacity_gain:+.1%}"
        )
        return table.render() + footer


class YarnConfigTuner:
    """Solves the Eq. 7–10 LP over a calibrated What-if Engine."""

    def __init__(
        self,
        engine: WhatIfEngine,
        delta_range: float = 4.0,
        max_config_step: int = 1,
        utilization_cap: float = 0.95,
    ):
        """``delta_range`` bounds the LP's per-group container change;
        ``max_config_step`` bounds the *deployed* config change (the paper's
        ±1-container rollout)."""
        if delta_range <= 0:
            raise OptimizationError("delta_range must be positive")
        if max_config_step < 1:
            raise OptimizationError("max_config_step must be >= 1")
        if not 0.0 < utilization_cap <= 1.0:
            raise OptimizationError("utilization_cap must be in (0, 1]")
        self.engine = engine
        self.delta_range = delta_range
        self.max_config_step = max_config_step
        self.utilization_cap = utilization_cap

    def tune(self, cluster: Cluster) -> YarnTuningResult:
        """Run the optimization for all calibrated groups present in the cluster."""
        sizes_by_label = {key.label: n for key, n in cluster.group_sizes().items()}
        groups = [g for g in self.engine.groups() if g in sizes_by_label]
        if not groups:
            raise OptimizationError(
                "no calibrated machine group matches the cluster; calibrate first"
            )

        lp = LinearProgram("yarn-max-containers")
        weights: dict[str, float] = {}
        latency_terms: dict[str, tuple[float, float]] = {}
        rhs = 0.0
        for group in groups:
            point = self.engine.operating_point(group)
            n_k = sizes_by_label[group]
            w_slope, w_intercept = self.engine.latency_affine_in_containers(group)
            u_slope, u_intercept = self.engine.utilization_affine_in_containers(group)
            weight = point.tasks_per_hour * n_k  # l'_k · n_k (fixed weights)
            weights[group] = weight
            latency_terms[group] = (w_slope, w_intercept)

            lower = max(1.0, point.containers - self.delta_range)
            upper = point.containers + self.delta_range
            # Physical capacity: g_k(m_k) <= utilization_cap.
            if u_slope > 1e-12:
                upper = min(upper, (self.utilization_cap - u_intercept) / u_slope)
            if upper < lower:
                upper = lower  # group pinned at its lower bound
            lp.add_variable(group, lower=lower, upper=upper, objective=float(n_k))

        # Σ_k weight_k · (w_slope_k · m_k + w_intercept_k) <= Σ_k weight_k · w'_k
        coeffs = {
            group: weights[group] * latency_terms[group][0] for group in groups
        }
        for group in groups:
            point = self.engine.operating_point(group)
            rhs += weights[group] * (point.task_latency - latency_terms[group][1])
        lp.add_constraint("cluster-average-latency", coeffs, "<=", rhs)

        solution = lp.solve()
        if not solution.is_optimal:
            raise OptimizationError(
                f"YARN tuning LP did not solve to optimality: {solution.status}"
            )
        return self._assemble(cluster, groups, sizes_by_label, weights, solution)

    def _assemble(
        self,
        cluster: Cluster,
        groups: list[str],
        sizes_by_label: dict[str, int],
        weights: dict[str, float],
        solution: LpSolution,
    ) -> YarnTuningResult:
        optimal = {g: solution[g] for g in groups}
        current = {g: self.engine.operating_point(g).containers for g in groups}
        shift = {g: optimal[g] - current[g] for g in groups}
        predictions = {g: self.engine.predict(g, optimal[g]) for g in groups}

        # Conservative config deltas: one step in the suggested direction,
        # only for groups whose shift is material (>= half a container).
        deltas: dict[MachineGroupKey, int] = {}
        for group in groups:
            key = MachineGroupKey.from_label(group)
            magnitude = min(self.max_config_step, int(round(abs(shift[group]))))
            if abs(shift[group]) < 0.5 or magnitude == 0:
                continue
            deltas[key] = magnitude if shift[group] > 0 else -magnitude
        proposed = cluster.yarn_config.with_container_delta(deltas)

        total_weight = left_sum(weights.values())
        baseline_latency = (
            left_sum(
                weights[g] * self.engine.operating_point(g).task_latency
                for g in groups
            )
            / total_weight
        )
        predicted_latency = (
            left_sum(weights[g] * predictions[g].task_latency for g in groups)
            / total_weight
        )
        baseline_capacity = left_sum(sizes_by_label[g] * current[g] for g in groups)
        optimal_capacity = left_sum(sizes_by_label[g] * optimal[g] for g in groups)

        return YarnTuningResult(
            solution=solution,
            optimal_containers=optimal,
            current_containers=current,
            suggested_shift=shift,
            config_deltas=deltas,
            proposed_config=proposed,
            predictions=predictions,
            baseline_cluster_latency=baseline_latency,
            predicted_cluster_latency=predicted_latency,
            baseline_capacity=baseline_capacity,
            optimal_capacity=optimal_capacity,
        )


@register_application
class YarnConfigApplication(TuningApplication):
    """The headline application behind the unified lifecycle (Section 5.2).

    ``propose`` solves the Eq. 7–10 LP over the supplied calibrated engine;
    the full :class:`YarnTuningResult` rides along as
    ``TuningProposal.details`` and the conservative per-group deltas become
    the flight plan (the inherited default: one
    :class:`~repro.flighting.build.ContainerDeltaBuild` pilot per group,
    validated on observed running containers).
    """

    name = "yarn-config"
    mode = "observational"
    requires_engine = True
    primary_metric = "TotalDataRead"
    higher_is_better = True

    #: Maximum tolerated relative latency increase at evaluation time (the
    #: Level II implicit-SLO surrogate used across the deployment machinery).
    latency_allowance = 0.02

    def __init__(self, **tuner_kwargs):
        self.tuner_kwargs = tuner_kwargs

    def parameter_space(self) -> tuple[ParameterSpec, ...]:
        return (
            ParameterSpec(
                name="max_num_running_containers",
                description="per-group YARN cap on concurrently running "
                "containers (Eq. 7-10 decision variable)",
                kind="int",
                lower=1,
                per_group=True,
                unit="containers",
            ),
        )

    def propose(self, observation, engine=None) -> TuningProposal:
        engine = self.require_engine(engine)
        result = YarnConfigTuner(engine, **self.tuner_kwargs).tune(
            observation.cluster
        )
        return TuningProposal(
            application=self.name,
            summary=(
                f"{len(result.config_deltas)} group delta(s), predicted "
                f"capacity {result.capacity_gain:+.1%} at the optimum"
            ),
            proposed_config=result.proposed_config,
            config_deltas=dict(result.config_deltas),
            baseline_config=observation.cluster.yarn_config.copy(),
            metrics={
                "predicted_capacity_gain": result.capacity_gain,
                "predicted_cluster_latency_s": result.predicted_cluster_latency,
                "baseline_cluster_latency_s": result.baseline_cluster_latency,
            },
            details=result,
        )

    def evaluate(self, before, after) -> TuningOutcome:
        """Throughput must rise without a material latency regression."""
        base = super().evaluate(before, after)
        latency_before = float(before.monitor.metric("AverageTaskSeconds").mean())
        latency_after = float(after.monitor.metric("AverageTaskSeconds").mean())
        latency_change = (
            (latency_after - latency_before) / abs(latency_before)
            if latency_before
            else 0.0
        )
        improved = base.improved and latency_change <= self.latency_allowance
        return TuningOutcome(
            application=self.name,
            metric=self.primary_metric,
            before=base.before,
            after=base.after,
            improved=improved,
            detail=(
                f"{base.detail}; task latency {latency_change:+.1%} "
                f"(allowance {self.latency_allowance:+.1%})"
            ),
        )
