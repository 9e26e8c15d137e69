"""Tests for operators, templates, seasonality, and the workload generator."""

import math
from dataclasses import replace
from itertools import islice

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
    WorkloadGenerator,
    benchmark_templates,
    default_templates,
    estimate_jobs_per_hour,
    normal_stream,
    operator_by_name,
)
from repro.workload.job import BLOCK


# Reference samplers: the per-stage numpy calls stage materialization made
# before it drew from normal_stream. The stream must reproduce them bit for
# bit from a generator seeded the same way.
def reference_size_multiplier(template, rng):
    if template.size_sigma <= 0:
        return 1.0
    mu = -template.size_sigma**2 / 2.0
    return float(rng.lognormal(mu, template.size_sigma))


def reference_n_tasks(stage, rng, size_mult=1.0):
    mean = stage.n_tasks_mean * size_mult
    if stage.n_tasks_sigma <= 0:
        return max(1, int(round(mean)))
    mu = np.log(mean) - stage.n_tasks_sigma**2 / 2.0
    return max(1, int(round(rng.lognormal(mu, stage.n_tasks_sigma))))


def reference_task_params(op, n_tasks, rng, work_scale=1.0, data_scale=1.0):
    work_mu = np.log(op.work_mean_s * work_scale) - op.work_sigma**2 / 2.0
    data_mu = np.log(op.data_mean_bytes * data_scale) - op.data_sigma**2 / 2.0
    work = rng.lognormal(mean=work_mu, sigma=op.work_sigma, size=n_tasks)
    data = rng.lognormal(mean=data_mu, sigma=op.data_sigma, size=n_tasks)
    ram = np.maximum(
        0.25, rng.normal(op.ram_gb_per_container, op.ram_gb_per_container * 0.2, n_tasks)
    )
    ssd = np.maximum(
        0.5, rng.normal(op.ssd_gb_per_container, op.ssd_gb_per_container * 0.2, n_tasks)
    )
    return work, data, ram, ssd


def one_stage_job(stage):
    """A job of one ``stage`` with no size variance (so it draws nothing)."""
    template = JobTemplate(name="one-stage", stages=(stage,), size_sigma=0.0)
    return JobRuntime(0, template, 0.0, normal_stream(np.random.default_rng(0)))


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

    @staticmethod
    def _stage(op_name, **scales):
        job = one_stage_job(StageSpec(op_name, n_tasks_mean=20000, n_tasks_sigma=0.0, **scales))
        return job.start_next_stage(normal_stream(np.random.default_rng(0)))

    def test_sampling_mean_matches_spec(self):
        op = operator_by_name("Process")
        tasks = self._stage("Process")
        work = np.array([t.work_seconds for t in tasks])
        data = np.array([t.data_bytes for t in tasks])
        assert work.mean() == pytest.approx(op.work_mean_s, rel=0.05)
        assert data.mean() == pytest.approx(op.data_mean_bytes, rel=0.05)
        assert all(t.ram_gb > 0 and t.ssd_gb > 0 for t in tasks)

    def test_work_scale_multiplies(self):
        op = operator_by_name("Process")
        work = np.array([t.work_seconds for t in self._stage("Process", work_scale=2.0)])
        assert work.mean() == pytest.approx(2.0 * op.work_mean_s, rel=0.05)

    def test_zero_tasks_rejected(self):
        with pytest.raises(ValueError):
            StageSpec("Split", n_tasks_mean=0)
        # A size multiplier that shrinks the mean below one still yields a task.
        job = one_stage_job(StageSpec("Split", n_tasks_mean=1, n_tasks_sigma=0.0))
        job.size_multiplier = 0.1
        assert len(job.start_next_stage(normal_stream(np.random.default_rng(0)))) == 1


class TestNormalStream:
    """Stages built from normal_stream equal the per-stage numpy reference."""

    TEMPLATES = default_templates() + benchmark_templates() + (
        # size_sigma=0 draws no multiplier; 6,000 normals span two refills.
        JobTemplate(
            name="wide",
            stages=(StageSpec("Cross", n_tasks_mean=1500, n_tasks_sigma=0.0,
                              work_scale=1.1, data_scale=0.7),),
            size_sigma=0.0,
        ),
    )

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("seed", [0, 5, 2021])
    def test_stages_match_numpy_reference(self, seed):
        stream = normal_stream(np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        # Three normals short of the first refill, so the first stage's
        # draws straddle a block boundary.
        assert list(islice(stream, BLOCK - 3)) == rng.standard_normal(BLOCK - 3).tolist()
        stages = 0
        for _ in range(4):
            for template in self.TEMPLATES:
                job = JobRuntime(0, template, 0.0, stream)
                size = reference_size_multiplier(template, rng)
                assert job.size_multiplier == size
                for spec in template.stages:
                    tasks = job.start_next_stage(stream)
                    n = reference_n_tasks(spec, rng, size)
                    work, data, ram, ssd = reference_task_params(
                        operator_by_name(spec.operator), n, rng,
                        work_scale=spec.work_scale, data_scale=spec.data_scale,
                    )
                    assert len(tasks) == n
                    assert self._bits([t.work_seconds for t in tasks]) == self._bits(work)
                    assert self._bits([t.data_bytes for t in tasks]) == self._bits(data)
                    assert self._bits([t.ram_gb for t in tasks]) == self._bits(ram)
                    assert self._bits([t.ssd_gb for t in tasks]) == self._bits(ssd)
                    for _ in tasks:
                        job.on_task_finish(0.0, 1.0, -1)
                    stages += 1
        assert stages == 4 * sum(len(t.stages) for t in self.TEMPLATES)
        # Both sides consumed the same number of normals.
        assert next(stream) == rng.standard_normal()

    def test_libm_exp_matches_numpy_lognormal(self):
        """numpy's lognormal is libm ``exp(mu + sigma * z)``; normal is
        ``loc + scale * z``. A platform where either differs fails here."""
        (_, _, mu, sigma, _, _, loc, scale, _, _) = StageSpec("Process", n_tasks_mean=1).draw
        z = np.random.default_rng(3).standard_normal(BLOCK).tolist()
        lognormal = np.random.default_rng(3).lognormal(mu, sigma, BLOCK)
        normal = np.random.default_rng(3).normal(loc, scale, BLOCK)
        assert self._bits([math.exp(mu + sigma * x) for x in z]) == self._bits(lognormal)
        assert self._bits([loc + scale * x for x in z]) == self._bits(normal)


class TestTask:
    """Task parameters are validated once per stage, when it materializes."""

    @staticmethod
    def _job():
        template = default_templates()[0]
        return JobRuntime(0, template, 0.0, normal_stream(np.random.default_rng(0)))

    def test_validation(self, monkeypatch):
        import repro.workload.job as job_module

        n = 4
        for bad_work, bad_data in ((-1.0, 1e9), (np.nan, 1e9), (10.0, -1.0)):
            job = one_stage_job(StageSpec("Extract", n_tasks_mean=n, n_tasks_sigma=0.0))
            # The stage's log-normal values come out of ``exp``: its n work
            # values first, then its n data values.
            values = iter([10.0] * (n - 1) + [bad_work] + [1e9] * (n - 1) + [bad_data])
            monkeypatch.setattr(job_module, "exp", lambda _x, values=values: next(values))
            with pytest.raises(ValueError):
                job.start_next_stage(normal_stream(np.random.default_rng(1)))
        with pytest.raises(ValueError):
            replace(operator_by_name("Process"), cpu_fraction=1.5)

    def test_stage_tasks_carry_their_job_and_plain_floats(self):
        job = self._job()
        tasks = job.start_next_stage(normal_stream(np.random.default_rng(1)))
        assert job.remaining_in_stage == len(tasks) > 0
        assert all(task.job is job for task in tasks)
        assert all(type(task.work_seconds) is float for task in tasks)
        assert all(type(task.ram_gb) is float for task in tasks)
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
        stream = normal_stream(np.random.default_rng(0))
        assert len(one_stage_job(stage).start_next_stage(stream)) == 10
        job = one_stage_job(stage)
        job.size_multiplier = 2.0
        assert len(job.start_next_stage(stream)) == 20

    def test_stochastic_count_at_least_one(self):
        stage = StageSpec("Process", n_tasks_mean=1.2, n_tasks_sigma=0.8)
        stream = normal_stream(np.random.default_rng(0))
        counts = [len(one_stage_job(stage).start_next_stage(stream)) for _ in range(200)]
        assert min(counts) >= 1 and len(set(counts)) > 1

    def test_template_needs_stages(self):
        with pytest.raises(ValueError):
            JobTemplate(name="empty", stages=())

    def test_expected_work_positive(self):
        for template in default_templates():
            assert template.expected_work_seconds() > 0

    def test_unknown_operator_in_stage_rejected_eagerly(self):
        with pytest.raises(KeyError):
            StageSpec("NotAnOp", n_tasks_mean=5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_tasks_sigma", math.nan),
            ("n_tasks_sigma", -0.1),
            ("n_tasks_sigma", math.inf),
            ("n_tasks_mean", math.nan),
            ("n_tasks_mean", math.inf),
            ("n_tasks_mean", 0.5),
            ("work_scale", math.nan),
            ("work_scale", -1.0),
            ("work_scale", 0.0),
            ("data_scale", math.nan),
            ("data_scale", -1.0),
            ("data_scale", math.inf),
        ],
    )
    def test_stage_rejects_values_that_break_draws(self, field, value):
        """A NaN sigma used to crash the first arrival, a negative one was
        silently read as 0, and a bad scale gave a NaN draw mu."""
        with pytest.raises(ValueError, match=field):
            StageSpec("Process", **{"n_tasks_mean": 5, field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("size_sigma", math.nan),
            ("size_sigma", -0.25),
            ("size_sigma", math.inf),
            ("weight", math.nan),
            ("weight", math.inf),
            ("weight", -1.0),
        ],
    )
    def test_template_rejects_values_that_break_draws(self, field, value):
        stage = StageSpec("Process", n_tasks_mean=5)
        with pytest.raises(ValueError, match=field):
            JobTemplate(name="bad", stages=(stage,), **{field: value})

    def test_zero_sigmas_stay_the_deterministic_case(self):
        stage = StageSpec("Process", n_tasks_mean=5, n_tasks_sigma=0.0)
        template = JobTemplate(name="fixed", stages=(stage,), size_sigma=0.0, weight=0.0)
        assert template.size_sigma == 0.0 and stage.n_tasks_sigma == 0.0


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
