"""Tests for the cost-accounting plane (:mod:`repro.cost`).

Covers the :class:`PriceBook` value (rates, defaults, validation, pickle),
the vectorized :func:`frame_cost` pass (exact dollar math, fault-hour
billing, empty frames), the estimated :func:`window_cost` fallback, the
dollars column on :class:`TuningCostLedger`, the campaign wiring (every
outcome carries a :class:`CostReport`, the ledger accrues real dollars,
``ops_report`` shows the per-tenant spend), and the opt-in
``DeploymentGuardrail`` cost veto at unit and campaign level.
"""

import pickle

import pytest

from repro.cluster import small_fleet_spec
from repro.cluster.sku import DEFAULT_SKUS
from repro.core.application import TuningProposal
from repro.cost import (
    PriceBook,
    default_price_book,
    frame_cost,
    window_cost,
)
from repro.flighting.build import FlightPlan
from repro.flighting.deployment import RolloutWaveRecord
from repro.flighting.safety import DeploymentGuardrail, GateVerdict
from repro.obs.ledger import TuningCostLedger
from repro.service import (
    Campaign,
    CampaignGuardrails,
    CampaignPhase,
    ContinuousTuningService,
    FleetRegistry,
    ProcessPoolBackend,
    SimulationOutcome,
    TenantSpec,
    default_catalog,
)
from repro.stats.treatment import TreatmentEffect
from repro.stats.ttest import TTestResult
from repro.telemetry.frame import MachineHourFrame

from tests.conftest import frame_of, make_row


def effect(relative: float, p: float = 0.5) -> TreatmentEffect:
    return TreatmentEffect(
        effect=100.0 * relative,
        relative_effect=relative,
        test=TTestResult(
            t_value=3.0 if p < 0.05 else 0.3,
            df=30.0,
            p_value=p,
            mean_a=100.0,
            mean_b=100.0 * (1 + relative),
        ),
    )


# ----------------------------------------------------------------------
# PriceBook
# ----------------------------------------------------------------------
class TestPriceBook:
    def test_rates_and_default_fallback(self):
        book = PriceBook(rates=(("Gen 1.1", 0.10), ("Gen 4.1", 0.50)))
        assert book.rate_for("Gen 1.1") == 0.10
        assert book.rate_for("Gen 4.1") == 0.50
        assert book.rate_for("Gen 99.9") == book.default_rate

    def test_validation_rejects_negative_prices(self):
        with pytest.raises(ValueError):
            PriceBook(rates=(("Gen 1.1", -0.10),))
        with pytest.raises(ValueError):
            PriceBook(rates=(), default_rate=-1.0)
        with pytest.raises(ValueError):
            PriceBook(rates=(), power_dollars_per_kwh=-0.01)

    def test_default_book_covers_every_stock_sku(self):
        book = default_price_book()
        rates = {sku.name: book.rate_for(sku.name) for sku in DEFAULT_SKUS}
        assert all(rate > 0.0 for rate in rates.values())
        # Newer compute costs more per hour than the oldest generation.
        assert rates["Gen 4.1"] > rates["Gen 1.1"]

    def test_rate_vector_aligns_to_categories(self):
        book = PriceBook(rates=(("A", 1.0), ("B", 2.0)))
        vector = book.rate_vector(["B", "A", "C"])
        assert vector.tolist() == [2.0, 1.0, book.default_rate]

    def test_fleet_dollars_per_hour(self):
        spec = small_fleet_spec()
        book = default_price_book()
        expected = sum(
            population.count * book.rate_for(population.sku.name)
            for population in spec.populations
        )
        assert book.fleet_dollars_per_hour(spec) == pytest.approx(expected)

    def test_pickles_by_value(self):
        book = default_price_book()
        clone = pickle.loads(pickle.dumps(book))
        assert clone == book


# ----------------------------------------------------------------------
# frame_cost / window_cost
# ----------------------------------------------------------------------
class TestFrameCost:
    def _frame(self) -> MachineHourFrame:
        return frame_of([
            make_row(machine_id=0, sku="Gen 1.1", hour=0, avg_power_watts=200.0),
            make_row(machine_id=0, sku="Gen 1.1", hour=1, avg_power_watts=200.0),
            make_row(machine_id=1, sku="Gen 4.1", hour=0, avg_power_watts=400.0),
        ])

    def test_exact_dollar_math(self):
        book = PriceBook(
            rates=(("Gen 1.1", 0.10), ("Gen 4.1", 0.50)),
            power_dollars_per_kwh=0.20,
        )
        report = frame_cost(self._frame(), book)
        assert report.machine_hours == pytest.approx(3.0)
        assert report.faulted_machine_hours == 0.0
        assert report.machine_dollars == pytest.approx(2 * 0.10 + 1 * 0.50)
        assert report.power_kwh == pytest.approx(0.8)  # 800 W·h
        assert report.power_dollars == pytest.approx(0.16)
        assert report.total_dollars == pytest.approx(0.70 + 0.16)
        assert dict(
            (sku, (hours, dollars)) for sku, hours, dollars in report.by_sku
        ) == {
            "Gen 1.1": (2.0, pytest.approx(0.20)),
            "Gen 4.1": (1.0, pytest.approx(0.50)),
        }
        assert not report.estimated

    def test_faulted_hours_are_billed_fractionally(self):
        rows = [
            make_row(machine_id=0, sku="Gen 1.1", hour=0),
            make_row(machine_id=1, sku="Gen 1.1", hour=0,
                     available_fraction=0.25, faulted=True),
        ]
        book = PriceBook(rates=(("Gen 1.1", 1.0),), power_dollars_per_kwh=0.0)
        report = frame_cost(frame_of(rows), book)
        assert report.machine_hours == pytest.approx(1.25)
        assert report.faulted_machine_hours == pytest.approx(0.75)
        assert report.machine_dollars == pytest.approx(1.25)
        assert "faulted (unbilled)" in report.summary()

    def test_empty_frame_costs_nothing(self):
        report = frame_cost(MachineHourFrame(), default_price_book())
        assert report.machine_hours == 0.0
        assert report.total_dollars == 0.0
        assert report.by_sku == ()

    def test_window_cost_estimates_from_provisioned_rates(self):
        spec = small_fleet_spec()
        book = default_price_book()
        report = window_cost(spec, book, window_hours=12.0)
        assert report.estimated
        assert report.machine_hours == spec.total_machines * 12.0
        assert report.power_dollars == 0.0
        assert report.machine_dollars == pytest.approx(
            book.fleet_dollars_per_hour(spec) * 12.0
        )
        assert "estimated" in report.summary()


# ----------------------------------------------------------------------
# Ledger dollars
# ----------------------------------------------------------------------
class TestLedgerDollars:
    def test_charges_accrue_and_merge_dollars(self):
        ledger = TuningCostLedger(tenant="east")
        ledger.charge("observe", 100.0, 1.0, dollars=25.0)
        ledger.charge("observe", 100.0, 1.0, dollars=25.0)
        ledger.charge("rollout", 50.0, 0.5, dollars=10.0)
        assert ledger.total_dollars == pytest.approx(60.0)
        rows = {phase: dollars for phase, _, _, _, dollars in ledger.rows()}
        assert rows == {"observe": pytest.approx(50.0),
                        "rollout": pytest.approx(10.0)}
        other = TuningCostLedger(tenant="west")
        other.charge("observe", 10.0, 0.1, dollars=5.0)
        ledger.merge(other)
        assert ledger.total_dollars == pytest.approx(65.0)
        summary = ledger.summary()
        assert "$ spend" in summary and "TOTAL" in summary

    def test_dollars_default_to_zero(self):
        ledger = TuningCostLedger()
        ledger.charge("observe", 1.0, 1.0)
        assert ledger.total_dollars == 0.0


# ----------------------------------------------------------------------
# Campaign wiring: outcomes carry costs, ops_report shows spend
# ----------------------------------------------------------------------
class TestCampaignCostWiring:
    @pytest.fixture(scope="class")
    def fleet_report(self):
        registry = FleetRegistry()
        registry.add(
            TenantSpec(name="east", fleet_spec=small_fleet_spec(), seed=11)
        )
        with ContinuousTuningService(
            registry, backend=ProcessPoolBackend(max_workers=1)
        ) as service:
            report = service.run_campaigns(
                scenario="diurnal-baseline",
                observe_days=0.5, impact_days=0.5, flight_hours=4.0,
            )
        return report

    def test_simulated_phases_accrue_dollars(self, fleet_report):
        ledger = fleet_report.reports["east"].cost_ledger
        assert ledger.total_dollars > 0.0
        rows = list(ledger.rows())
        simulated = [row for row in rows if row[2] > 0.0]  # machine-hours
        assert simulated  # the campaign simulated at least one window
        for _phase, _charges, _hours, _wall, dollars in simulated:
            assert dollars > 0.0

    def test_observe_dollars_match_the_frame_price(self, fleet_report):
        """The OBSERVE charge is real frame pricing, not the estimate: the
        default book prices the small fleet's 0.5-day window."""
        ledger = fleet_report.reports["east"].cost_ledger
        observe = ledger.phases["observe"]
        spec = small_fleet_spec()
        machine_rate_ceiling = (
            default_price_book().fleet_dollars_per_hour(spec) * 12.0
        )
        # Machine dollars ≤ full-availability price; power surcharge rides
        # on top but stays small at a few hundred watts per machine.
        assert 0.0 < observe.dollars < machine_rate_ceiling * 1.5

    def test_ops_report_shows_per_tenant_spend(self, fleet_report):
        ops = fleet_report.ops_report()
        assert "$ spend" in ops
        ledger = fleet_report.reports["east"].cost_ledger
        assert f"{ledger.total_dollars:,.2f}" in ops

    def test_custom_price_book_flows_through_launch(self):
        registry = FleetRegistry()
        registry.add(
            TenantSpec(name="east", fleet_spec=small_fleet_spec(), seed=11)
        )
        free = PriceBook(rates=(), default_rate=0.0, power_dollars_per_kwh=0.0)
        with ContinuousTuningService(
            registry, backend=ProcessPoolBackend(max_workers=1)
        ) as service:
            report = service.run_campaigns(
                scenario="diurnal-baseline",
                observe_days=0.25, impact_days=0.25, flight_hours=4.0,
                price_book=free,
            )
        assert report.reports["east"].cost_ledger.total_dollars == 0.0


# ----------------------------------------------------------------------
# The cost veto
# ----------------------------------------------------------------------
class TestCostVeto:
    def test_disabled_gate_always_passes(self):
        rail = DeploymentGuardrail()
        verdict = rail.judge_wave_cost(effect(-0.50), dollars=1e9)
        assert verdict.passed and "disabled" in verdict.reason

    def test_wave_must_buy_its_budget(self):
        rail = DeploymentGuardrail(dollars_per_point=10.0)
        # +5 points of throughput buys $50.
        assert rail.judge_wave_cost(effect(+0.05), dollars=49.0).passed
        assert not rail.judge_wave_cost(effect(+0.05), dollars=51.0).passed
        # A wave that moved nothing (or regressed) gets a $0 budget.
        assert not rail.judge_wave_cost(effect(0.0), dollars=0.01).passed
        assert not rail.judge_wave_cost(effect(-0.10), dollars=0.01).passed
        assert rail.judge_wave_cost(effect(-0.10), dollars=0.0).passed

    def test_negative_budget_rate_rejected(self):
        with pytest.raises(ValueError):
            DeploymentGuardrail(dollars_per_point=-1.0)

    def _campaign_at_deploy(self, dollars_per_point: float) -> Campaign:
        spec = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)
        campaign = Campaign(
            spec,
            default_catalog().get("diurnal-baseline"),
            guardrails=CampaignGuardrails(
                deployment=DeploymentGuardrail(
                    dollars_per_point=dollars_per_point
                )
            ),
        )
        group = next(iter(campaign.config.limits))
        campaign.tuning = TuningProposal(
            application="yarn-config",
            summary="fabricated",
            proposed_config=campaign.config.with_container_delta({group: 1}),
            config_deltas={group: 1},
        )
        campaign._flight_plan = FlightPlan.from_container_deltas({group: 1})
        campaign.phase = CampaignPhase.DEPLOY
        return campaign

    def _outcome(self, wave_effect: TreatmentEffect):
        from repro.core.kea import DeploymentImpact

        impact = DeploymentImpact(
            throughput=effect(0.01, 0.5),
            latency=effect(0.0, 0.9),
            capacity_before=1000,
            capacity_after=1010,
            benchmark_runtime_change={},
        )
        waves = [
            RolloutWaveRecord(
                wave="fleet", fraction=1.0, start_hour=0.0, machines=8,
                gate=GateVerdict(True, "ok"), applied=True, reverted=False,
                impact=wave_effect,
            ),
        ]
        return SimulationOutcome(
            tenant="probe", kind="rollout", workload_tag="t",
            impact=impact, rollout_waves=waves,
        )

    @staticmethod
    def _window_estimate(campaign: Campaign) -> float:
        """What ``advance`` will price the frame-less rollout window at."""
        return window_cost(
            campaign.spec.fleet_spec,
            campaign.price_book,
            campaign.impact_days * 24.0 * 2,
        ).total_dollars

    def test_campaign_vetoes_a_wave_not_worth_its_spend(self):
        campaign = self._campaign_at_deploy(dollars_per_point=1.0)
        # +0.1 points of throughput buys $0.10 — far below the window price.
        assert self._window_estimate(campaign) > 1.0
        campaign.advance(self._outcome(effect(+0.001)))
        assert campaign.phase is CampaignPhase.ROLLED_BACK
        assert campaign.rollbacks == 1
        assert any(
            "not worth its spend" in e.detail for e in campaign.history
        )

    def test_campaign_ships_a_wave_that_earns_its_spend(self):
        campaign = self._campaign_at_deploy(dollars_per_point=1.0)
        # +10 points at a generous rate buys more than the window costs.
        rate = self._window_estimate(campaign) / 10.0 * 1.5
        campaign.guardrails.deployment.dollars_per_point = rate
        campaign.advance(self._outcome(effect(+0.10)))
        assert campaign.phase is CampaignPhase.DEPLOYED
        assert campaign.deployments == 1

    def test_default_guardrail_never_vetoes_on_cost(self):
        campaign = self._campaign_at_deploy(dollars_per_point=None)
        campaign.advance(self._outcome(effect(+0.001)))
        assert campaign.phase is CampaignPhase.DEPLOYED
