"""Tests for capacity valuation, conceptualization, methodology, queue tuning."""

import numpy as np
import pytest

from repro.cluster.software import MachineGroupKey
from repro.core.capacity import CapacityValuation, capacity_gain_fraction
from repro.core.conceptualization import (
    ABSTRACTION_LADDER,
    conceptualize,
    validate_critical_path_bias,
    validate_implicit_slos,
    validate_uniform_task_spread,
)
from repro.core.applications.queue_tuning import QueueTuner
from repro.core.methodology import KeaProject, Phase, ProjectCharter
from repro.telemetry.monitor import PerformanceMonitor
from repro.telemetry.records import JobRecord, TaskLog
from repro.utils.errors import ConfigurationError
from tests.conftest import frame_of, make_row


class TestCapacity:
    def test_gain_fraction(self):
        assert capacity_gain_fraction(1000, 1020) == pytest.approx(0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            capacity_gain_fraction(0, 10)

    def test_two_percent_is_tens_of_millions(self):
        """The paper's arithmetic: 2% capacity ~ tens of $M yearly."""
        valuation = CapacityValuation()
        value = valuation.yearly_value_usd(0.02)
        assert 5e6 < value < 5e7

    def test_describe_mentions_dollars(self):
        text = CapacityValuation().describe(0.02)
        assert "$" in text and "+2.0%" in text


class TestConceptualization:
    def test_ladder_has_five_levels(self):
        assert [level.level for level in ABSTRACTION_LADDER] == [1, 2, 3, 4, 5]

    def _jobs(self, cv=0.1):
        rng = np.random.default_rng(0)
        jobs = []
        for template in ("a", "b"):
            for i in range(20):
                runtime = rng.normal(1000, 1000 * cv)
                jobs.append(
                    JobRecord(job_id=i, template=template, submit_time=0.0,
                              finish_time=max(runtime, 1.0), n_tasks=10,
                              total_task_seconds=500.0)
                )
        return jobs

    def test_implicit_slos_pass_for_stable_templates(self):
        outcome = validate_implicit_slos(self._jobs(cv=0.1))
        assert outcome.passed

    def test_implicit_slos_fail_for_chaotic_templates(self):
        outcome = validate_implicit_slos(self._jobs(cv=0.9))
        assert not outcome.passed

    def _task_log(self, biased=True, uniform_ops=True):
        log = TaskLog(sample_rate=1.0)
        rng = np.random.default_rng(1)
        ops = ["Extract", "Process", "Aggregate"]
        for sku, duration, critical_rate in [
            ("Gen 1.1", 500.0, 0.3 if biased else 0.1),
            ("Gen 4.1", 150.0, 0.02 if biased else 0.1),
        ]:
            for i in range(300):
                if uniform_ops:
                    op = ops[i % 3]
                else:
                    op = ops[0] if sku == "Gen 1.1" else ops[1]
                row = log.append(sku, "SC1", rack=0 if sku == "Gen 1.1" else 1,
                                 op=op, duration=duration, data_bytes=1e9,
                                 cpu_seconds=duration * 0.8, start=0.0,
                                 queue_wait=0.0, job_template="t")
                if rng.random() < critical_rate:
                    log.mark_critical(row)
        return log

    def test_critical_bias_detected(self):
        outcome = validate_critical_path_bias(self._task_log(biased=True))
        assert outcome.passed

    def test_no_critical_bias_fails_validation(self):
        outcome = validate_critical_path_bias(self._task_log(biased=False))
        assert not outcome.passed

    def test_uniform_spread_passes(self):
        outcome = validate_uniform_task_spread(self._task_log(), key="sku")
        assert outcome.passed

    def test_skewed_spread_fails(self):
        log = self._task_log(uniform_ops=False)
        outcome = validate_uniform_task_spread(log, key="sku")
        assert not outcome.passed

    def test_full_report(self):
        report = conceptualize(self._jobs(), self._task_log())
        assert len(report.outcomes) == 4
        assert "Level 2" in report.summary()


class TestMethodology:
    def _charter(self, approach="observational"):
        return ProjectCharter(
            name="yarn-tuning",
            objective="maximize sellable capacity at constant latency",
            controllable_configurations=("max_num_running_containers",),
            constraints=("cluster average task latency",),
            tuning_approach=approach,
        )

    def test_phases_progress_in_order(self):
        from repro.core.conceptualization import ConceptualizationReport
        from repro.core.whatif import CalibrationReport

        project = KeaProject(charter=self._charter())
        assert project.phase == Phase.FACT_FINDING
        project.complete_fact_finding(ConceptualizationReport(outcomes=[]))
        assert project.phase == Phase.MODELING
        project.complete_modeling(
            CalibrationReport(calibrated=[], skipped_groups={}), "opt summary"
        )
        assert project.phase == Phase.DEPLOYMENT
        project.record_flight("pilot ok")
        project.complete_deployment("rolled out")
        assert project.phase == Phase.COMPLETE

    def test_hypothetical_skips_deployment(self):
        from repro.core.conceptualization import ConceptualizationReport
        from repro.core.whatif import CalibrationReport

        project = KeaProject(charter=self._charter("hypothetical"))
        project.complete_fact_finding(ConceptualizationReport(outcomes=[]))
        project.complete_modeling(
            CalibrationReport(calibrated=[], skipped_groups={}), "design"
        )
        assert project.phase == Phase.COMPLETE

    def test_out_of_order_step_rejected(self):
        project = KeaProject(charter=self._charter())
        with pytest.raises(ConfigurationError):
            project.record_flight("too early")

    def test_invalid_charter_rejected(self):
        with pytest.raises(ConfigurationError):
            ProjectCharter(
                name="x", objective="y", controllable_configurations=(),
                constraints=(), tuning_approach="observational",
            )
        with pytest.raises(ConfigurationError):
            self._charter("experimental_maybe")

    def test_markdown_rendering(self):
        project = KeaProject(charter=self._charter())
        text = project.to_markdown()
        assert "# KEA project: yarn-tuning" in text
        assert "observational" in text


class TestQueueTuner:
    def _monitor(self):
        rows = []
        for sku, sc, drain, wait in [
            ("Gen 1.1", "SC1", 40, 900.0),
            ("Gen 4.1", "SC2", 160, 200.0),
        ]:
            for machine in range(4):
                for hour in range(6):
                    rows.append(
                        make_row(
                            machine_id=machine + (100 if sku == "Gen 4.1" else 0),
                            sku=sku, software=sc, hour=hour,
                            tasks_finished=drain,
                            queue_avg_length=2.0, queue_enqueued=10,
                            queue_dequeued=10, queue_waits=[wait] * 10,
                        )
                    )
        return PerformanceMonitor(frame_of(rows))

    def test_faster_groups_get_longer_queues(self):
        result = QueueTuner(target_wait_seconds=300.0).tune(self._monitor())
        limits = {k.label: v for k, v in result.recommended_limits.items()}
        assert limits["SC2_Gen 4.1"] > limits["SC1_Gen 1.1"]

    def test_limits_respect_bounds(self):
        tuner = QueueTuner(target_wait_seconds=10_000.0, max_limit=16)
        result = tuner.tune(self._monitor())
        assert all(1 <= v <= 16 for v in result.recommended_limits.values())

    def test_measure_reports_p99(self):
        stats = QueueTuner().measure(self._monitor())
        by_group = {s.group: s for s in stats}
        assert by_group["SC1_Gen 1.1"].p99_wait_seconds == pytest.approx(900.0)

    def test_apply_to_config(self):
        from repro.cluster.config import YarnConfig

        tuner = QueueTuner()
        result = tuner.tune(self._monitor())
        config = tuner.apply_to_config(YarnConfig(), result)
        key = MachineGroupKey("SC2", "Gen 4.1")
        assert config.for_group(key).max_queued_containers == (
            result.recommended_limits[key]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            QueueTuner(target_wait_seconds=0.0)
        with pytest.raises(ValueError):
            QueueTuner(min_limit=5, max_limit=2)

    def test_summary_renders(self):
        result = QueueTuner().tune(self._monitor())
        assert "SC1_Gen 1.1" in result.summary()
