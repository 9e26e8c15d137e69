"""Tests for operators, templates, seasonality, and the workload generator."""

from dataclasses import replace

import numpy as np
import pytest

from repro.utils.rng import RngStreams
from repro.workload import (
    FLAT_PROFILE,
    OPERATORS,
    JobRuntime,
    JobTemplate,
    SeasonalityProfile,
    StageSpec,
    Task,
    WorkloadGenerator,
    benchmark_templates,
    default_templates,
    estimate_jobs_per_hour,
    operator_by_name,
)
from repro.workload.operators import sample_task_params


class TestOperators:
    def test_nine_task_types_from_figure_6(self):
        names = {op.name for op in OPERATORS}
        assert names == {
            "Extract", "Split", "Process", "Aggregate", "Partition",
            "IndexedPartition", "Cross", "Combine", "PodAggregate",
        }

    def test_lookup_and_unknown(self):
        assert operator_by_name("Extract").name == "Extract"
        with pytest.raises(KeyError):
            operator_by_name("Shuffle")

    def test_sampling_mean_matches_spec(self):
        op = operator_by_name("Process")
        rng = np.random.default_rng(0)
        work, data, ram, ssd = sample_task_params(op, 20000, rng)
        assert work.mean() == pytest.approx(op.work_mean_s, rel=0.05)
        assert data.mean() == pytest.approx(op.data_mean_bytes, rel=0.05)
        assert (ram > 0).all() and (ssd > 0).all()

    def test_work_scale_multiplies(self):
        op = operator_by_name("Process")
        rng = np.random.default_rng(0)
        work, *_ = sample_task_params(op, 20000, rng, work_scale=2.0)
        assert work.mean() == pytest.approx(2.0 * op.work_mean_s, rel=0.05)

    def test_zero_tasks_rejected(self):
        with pytest.raises(ValueError):
            sample_task_params(operator_by_name("Split"), 0, np.random.default_rng(0))


class TestTask:
    """Task parameters are validated once per stage, when it materializes."""

    @staticmethod
    def _job():
        template = default_templates()[0]
        return JobRuntime(0, template, 0.0, np.random.default_rng(0))

    def test_validation(self, monkeypatch):
        import repro.workload.job as job_module

        def sampler(bad_work, bad_data):
            def sample(op, n_tasks, rng, work_scale=1.0, data_scale=1.0):
                work = np.full(n_tasks, 10.0)
                data = np.full(n_tasks, 1e9)
                work[-1], data[-1] = bad_work, bad_data
                return work, data, np.ones(n_tasks), np.ones(n_tasks)
            return sample

        for bad_work, bad_data in ((-1.0, 1e9), (np.nan, 1e9), (10.0, -1.0)):
            monkeypatch.setattr(
                job_module, "sample_task_params", sampler(bad_work, bad_data)
            )
            with pytest.raises(ValueError):
                self._job().start_next_stage(np.random.default_rng(1))
        with pytest.raises(ValueError):
            replace(operator_by_name("Process"), cpu_fraction=1.5)

    def test_stage_tasks_carry_their_job_and_plain_floats(self):
        job = self._job()
        tasks = job.start_next_stage(np.random.default_rng(1))
        assert job.remaining_in_stage == len(tasks) > 0
        assert all(task.job is job for task in tasks)
        assert all(type(task.work_seconds) is float for task in tasks)
        assert all(task.carried_wait == 0.0 for task in tasks)
        assert not hasattr(tasks[0], "__dict__")  # plain slotted class


class TestTemplates:
    def test_default_mix_is_nonempty_weighted(self):
        templates = default_templates()
        assert len(templates) >= 5
        assert all(t.weight > 0 for t in templates)

    def test_benchmark_templates_flagged_and_stable(self):
        for template in benchmark_templates():
            assert template.is_benchmark
            assert template.weight == 0.0
            assert template.size_sigma <= 0.1
            for stage in template.stages:
                assert stage.n_tasks_sigma == 0.0

    def test_stage_task_count_sampling(self):
        stage = StageSpec("Process", n_tasks_mean=10, n_tasks_sigma=0.0)
        rng = np.random.default_rng(0)
        assert stage.sample_n_tasks(rng) == 10
        assert stage.sample_n_tasks(rng, size_mult=2.0) == 20

    def test_stochastic_count_at_least_one(self):
        stage = StageSpec("Process", n_tasks_mean=1.2, n_tasks_sigma=0.8)
        rng = np.random.default_rng(0)
        counts = [stage.sample_n_tasks(rng) for _ in range(200)]
        assert min(counts) >= 1

    def test_template_needs_stages(self):
        with pytest.raises(ValueError):
            JobTemplate(name="empty", stages=())

    def test_expected_work_positive(self):
        for template in default_templates():
            assert template.expected_work_seconds() > 0

    def test_unknown_operator_in_stage_rejected_eagerly(self):
        with pytest.raises(KeyError):
            StageSpec("NotAnOp", n_tasks_mean=5)


class TestSeasonality:
    def test_flat_profile_is_constant_one(self):
        for t in np.linspace(0, 7 * 86400, 50):
            assert FLAT_PROFILE.multiplier(t) == pytest.approx(1.0)

    def test_peak_at_peak_hour(self):
        profile = SeasonalityProfile(diurnal_amplitude=0.3, peak_hour=14.0,
                                     weekend_dip=0.0)
        peak = profile.multiplier(14 * 3600.0)
        trough = profile.multiplier(2 * 3600.0)
        assert peak == pytest.approx(1.3)
        assert trough < peak

    def test_weekend_dip(self):
        profile = SeasonalityProfile(diurnal_amplitude=0.0, weekend_dip=0.25)
        monday = profile.multiplier(12 * 3600.0)
        saturday = profile.multiplier(5 * 86400.0 + 12 * 3600.0)
        assert saturday == pytest.approx(0.75 * monday)

    def test_max_multiplier_bounds_profile(self):
        profile = SeasonalityProfile(diurnal_amplitude=0.25, weekend_dip=0.2)
        times = np.linspace(0, 7 * 86400, 500)
        values = [profile.multiplier(t) for t in times]
        assert max(values) <= profile.max_multiplier + 1e-9

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SeasonalityProfile(diurnal_amplitude=1.5)
        with pytest.raises(ValueError):
            SeasonalityProfile(weekend_dip=-0.1)


class TestGenerator:
    def test_rate_approximately_realized(self):
        generator = WorkloadGenerator(
            default_templates(), jobs_per_hour=500.0, streams=RngStreams(0)
        )
        workload = generator.generate(24.0)
        assert workload.jobs_per_hour == pytest.approx(500.0, rel=0.1)

    def test_arrivals_sorted_and_in_range(self):
        generator = WorkloadGenerator(
            default_templates(), jobs_per_hour=200.0, streams=RngStreams(1)
        )
        workload = generator.generate(6.0)
        times = [a.time for a in workload]
        assert times == sorted(times)
        assert all(0 <= t < 6 * 3600 for t in times)

    def test_benchmark_injection_cadence(self):
        generator = WorkloadGenerator(
            default_templates(), jobs_per_hour=50.0, streams=RngStreams(2),
            benchmark_period_hours=6.0,
        )
        workload = generator.generate(24.0)
        benchmarks = [a for a in workload if a.template.is_benchmark]
        # 3 benchmark templates x 4 periods.
        assert len(benchmarks) == 12

    def test_deterministic_for_seed(self):
        def gen(seed):
            return WorkloadGenerator(
                default_templates(), jobs_per_hour=100.0, streams=RngStreams(seed)
            ).generate(4.0)

        a, b = gen(7), gen(7)
        assert [x.time for x in a] == [x.time for x in b]
        assert [x.template.name for x in a] == [x.template.name for x in b]

    @pytest.mark.parametrize("seed", [0, 7, 2021])
    def test_template_draw_matches_numpy_choice(self, seed):
        """``generate`` inverts the template CDF itself; it must pick exactly
        what ``rng.choice(n, p=probs)`` picks from the same stream."""
        templates = default_templates()
        profile = SeasonalityProfile()
        workload = WorkloadGenerator(
            templates, jobs_per_hour=500.0, seasonality=profile, streams=RngStreams(seed)
        ).generate(6.0)

        # Reference: the thinning loop drawing templates with numpy's choice.
        rng = RngStreams(seed).get("arrivals")
        weights = np.array([t.weight for t in templates])
        probs = weights / weights.sum()
        max_rate = 500.0 * profile.max_multiplier / 3600.0
        expected, t = [], 0.0
        while True:
            t += rng.exponential(1.0 / max_rate)
            if t >= 6.0 * 3600.0:
                break
            if rng.random() < 500.0 * profile.multiplier(t) / 3600.0 / max_rate:
                expected.append((t, templates[int(rng.choice(len(templates), p=probs))].name))
        assert [(a.time, a.template.name) for a in workload] == expected

    def test_seasonal_rate_modulation(self):
        profile = SeasonalityProfile(diurnal_amplitude=0.5, weekend_dip=0.0,
                                     peak_hour=12.0)
        generator = WorkloadGenerator(
            default_templates(), jobs_per_hour=2000.0, seasonality=profile,
            streams=RngStreams(3),
        )
        workload = generator.generate(24.0)
        hours = np.array([a.time // 3600 for a in workload])
        peak_count = np.sum((hours >= 10) & (hours < 14))
        trough_count = np.sum(hours < 4)
        assert peak_count > trough_count * 1.5

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(default_templates(), jobs_per_hour=0.0)
        with pytest.raises(ValueError):
            WorkloadGenerator(benchmark_templates(), jobs_per_hour=10.0)  # all weight 0
        generator = WorkloadGenerator(default_templates(), jobs_per_hour=10.0)
        with pytest.raises(ValueError):
            generator.generate(0.0)


class TestRateEstimation:
    def test_estimate_scales_with_slots(self):
        rate_small = estimate_jobs_per_hour(1000, 0.6, default_templates(), 300.0)
        rate_large = estimate_jobs_per_hour(2000, 0.6, default_templates(), 300.0)
        assert rate_large == pytest.approx(2 * rate_small)

    def test_estimate_validates_occupancy(self):
        with pytest.raises(ValueError):
            estimate_jobs_per_hour(1000, 0.0, default_templates(), 300.0)
