"""Safety gates: the pre-deployment checks guarding a rollout.

Flighting exists as "a safety check before performing the full cluster
deployment" (Section 4.1). A gate inspects recent telemetry mid-simulation
and decides whether the rollout may proceed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.simulator import ClusterSimulator
from repro.telemetry.monitor import PerformanceMonitor

__all__ = [
    "GateVerdict",
    "SafetyGate",
    "LatencyRegressionGate",
    "DeploymentGuardrail",
]


@dataclass(frozen=True, slots=True)
class GateVerdict:
    """Outcome of a safety-gate evaluation."""

    passed: bool
    reason: str


class SafetyGate:
    """Interface: judge whether the system is healthy enough to continue."""

    def evaluate(self, simulator: ClusterSimulator) -> GateVerdict:
        """Inspect the simulator's telemetry so far and return a verdict."""
        raise NotImplementedError


class LatencyRegressionGate(SafetyGate):
    """Fail when recent cluster task latency regresses past an allowance.

    Compares mean task latency in the last ``window_hours`` against the first
    ``window_hours`` of the run (the pre-change baseline). This encodes the
    paper's job-level constraint surrogate: new config must not be worse than
    the old one on task latency (Section 3.2, Level II/III).
    """

    def __init__(self, window_hours: int = 6, allowance: float = 0.05):
        if window_hours < 1:
            raise ValueError("window_hours must be >= 1")
        if allowance < 0:
            raise ValueError("allowance must be non-negative")
        self.window_hours = window_hours
        self.allowance = allowance

    def evaluate(self, simulator: ClusterSimulator) -> GateVerdict:
        monitor = PerformanceMonitor(simulator.result.frame)
        if not len(monitor):
            return GateVerdict(passed=True, reason="no telemetry yet")
        hours_seen = np.unique(monitor.frame.column("hour")).tolist()
        if len(hours_seen) < 2 * self.window_hours:
            return GateVerdict(passed=True, reason="insufficient history for gate")
        baseline = monitor.filter(hour_range=(hours_seen[0], hours_seen[0] + self.window_hours))
        recent = monitor.filter(
            hour_range=(hours_seen[-1] - self.window_hours + 1, hours_seen[-1] + 1)
        )
        base_latency = baseline.cluster_average_task_latency()
        recent_latency = recent.cluster_average_task_latency()
        if base_latency <= 0:
            return GateVerdict(passed=True, reason="baseline latency unavailable")
        regression = (recent_latency - base_latency) / base_latency
        if regression > self.allowance:
            return GateVerdict(
                passed=False,
                reason=(
                    f"task latency regressed {regression:+.1%} "
                    f"(allowance {self.allowance:+.1%})"
                ),
            )
        return GateVerdict(
            passed=True, reason=f"latency change {regression:+.1%} within allowance"
        )


class DeploymentGuardrail:
    """Judge a measured rollout by its treatment effects (Section 5.2.2).

    The paper's deployments are evaluated with significance-tested treatment
    effects; this gate encodes the rollback policy a continuous tuning
    campaign applies to them. A rollout fails — and must be rolled back —
    when either

    * task latency regresses beyond ``latency_allowance`` *and* that
      regression is statistically significant at ``alpha``; or
    * throughput drops beyond ``throughput_allowance`` *and* that drop is
      significant at ``alpha``.

    Insignificant wobble within the allowances is deliberately tolerated:
    the paper deploys on "no significant regression", not "certain win".
    """

    def __init__(
        self,
        latency_allowance: float = 0.02,
        throughput_allowance: float = 0.02,
        alpha: float = 0.05,
        dollars_per_point: float | None = None,
    ):
        if alpha <= 0 or alpha > 1:
            raise ValueError("alpha must be in (0, 1]")
        if dollars_per_point is not None and dollars_per_point < 0:
            raise ValueError("dollars_per_point must be non-negative")
        self.latency_allowance = latency_allowance
        self.throughput_allowance = throughput_allowance
        self.alpha = alpha
        self.dollars_per_point = dollars_per_point

    def judge_wave_impact(self, effect) -> GateVerdict:
        """Verdict for one rollout wave's measured treatment effect.

        ``effect`` is a :class:`~repro.stats.treatment.TreatmentEffect` on
        throughput (higher is better) — the per-wave contrast a staged
        rollout records on :class:`~repro.flighting.deployment.RolloutWaveRecord.impact`.
        The wave fails when throughput dropped beyond
        ``throughput_allowance`` *and* the drop is significant at ``alpha``
        — the same deploy-on-"no significant regression" policy the
        full-rollout :meth:`judge` applies, at wave granularity.
        """
        if (
            effect.relative_effect < -self.throughput_allowance
            and effect.significant(self.alpha)
        ):
            return GateVerdict(
                passed=False,
                reason=(
                    f"wave throughput dropped {effect.relative_effect:+.1%} "
                    f"(allowance {-self.throughput_allowance:+.1%}, "
                    f"p={effect.test.p_value:.3f})"
                ),
            )
        return GateVerdict(
            passed=True,
            reason=(
                f"wave throughput {effect.relative_effect:+.1%}: "
                "no significant regression"
            ),
        )

    def judge_wave_cost(self, effect, dollars: float) -> GateVerdict:
        """Verdict on whether a wave's measured win is worth its dollar cost.

        Opt-in: when ``dollars_per_point`` is None (the default) every wave
        passes. Otherwise the wave's throughput gain — in percentage points,
        negative gains floor at zero — buys a budget of
        ``dollars_per_point × points``; a wave whose priced machine-hour
        spend (``dollars``) exceeds that budget is vetoed. This is the
        cost-aware rollback policy the per-tenant ledger enables: a config
        change that moves nothing does not get to burn fleet dollars.
        """
        if self.dollars_per_point is None:
            return GateVerdict(passed=True, reason="cost gate disabled")
        points = max(effect.relative_effect, 0.0) * 100.0
        budget = self.dollars_per_point * points
        if dollars > budget:
            return GateVerdict(
                passed=False,
                reason=(
                    f"wave cost ${dollars:,.2f} exceeds value budget "
                    f"${budget:,.2f} ({points:.2f} points of throughput "
                    f"at ${self.dollars_per_point:,.2f}/point)"
                ),
            )
        return GateVerdict(
            passed=True,
            reason=(
                f"wave cost ${dollars:,.2f} within value budget "
                f"${budget:,.2f}"
            ),
        )

    def judge(self, impact) -> GateVerdict:
        """Verdict for a :class:`~repro.core.kea.DeploymentImpact`."""
        latency = impact.latency
        if (
            latency.relative_effect > self.latency_allowance
            and latency.significant(self.alpha)
        ):
            return GateVerdict(
                passed=False,
                reason=(
                    f"task latency regressed {latency.relative_effect:+.1%} "
                    f"(allowance {self.latency_allowance:+.1%}, "
                    f"p={latency.test.p_value:.3f})"
                ),
            )
        throughput = impact.throughput
        if (
            throughput.relative_effect < -self.throughput_allowance
            and throughput.significant(self.alpha)
        ):
            return GateVerdict(
                passed=False,
                reason=(
                    f"throughput dropped {throughput.relative_effect:+.1%} "
                    f"(allowance {-self.throughput_allowance:+.1%}, "
                    f"p={throughput.test.p_value:.3f})"
                ),
            )
        return GateVerdict(
            passed=True,
            reason=(
                f"latency {latency.relative_effect:+.1%}, "
                f"throughput {throughput.relative_effect:+.1%}: "
                "no significant regression"
            ),
        )
