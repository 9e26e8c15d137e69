"""repro — a reproduction of "KEA: Tuning an Exabyte-Scale Data Infrastructure"
(Zhu et al., SIGMOD 2021).

The package is layered:

* substrates — :mod:`repro.cluster` (simulated fleet), :mod:`repro.workload`
  (SCOPE-like jobs), :mod:`repro.telemetry` (Performance Monitor),
  :mod:`repro.ml` / :mod:`repro.stats` / :mod:`repro.optim` (modeling tools),
  :mod:`repro.flighting` and :mod:`repro.experiment` (deployment machinery);
* the paper's contribution — :mod:`repro.core` (KEA itself: the What-if
  Engine, the Optimizer, and the three tuning modes with their applications).

Quickstart::

    from repro.core import Kea
    kea = Kea.default(seed=7)
    baseline = kea.observe(days=3)
    proposal = kea.tune("yarn-config", observation=baseline)
    print(proposal.details.summary())

Any of Table 3's applications runs through the same unified API::

    run = kea.run_application("queue-tuning")
    print(run.summary())

Continuous tuning over many tenants (:mod:`repro.service`)::

    from repro import ContinuousTuningService, FleetRegistry, TenantSpec
    from repro.cluster import small_fleet_spec

    registry = FleetRegistry()
    registry.add(TenantSpec(name="east", fleet_spec=small_fleet_spec(), seed=1))
    registry.add(TenantSpec(name="west", fleet_spec=small_fleet_spec(), seed=2))
    with ContinuousTuningService(registry) as service:
        print(service.run_campaigns(scenario="diurnal-baseline").summary())
"""

from repro.cost import (
    CostReport,
    PriceBook,
    default_price_book,
    frame_cost,
    window_cost,
)
from repro.core import (
    APPLICATIONS,
    ApplicationRegistry,
    ApplicationRun,
    DeploymentImpact,
    FlightValidation,
    Kea,
    Observation,
    ParameterSpec,
    StagedRollout,
    TuningApplication,
    TuningOutcome,
    TuningProposal,
    register_application,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    MachineSelector,
    OutageSpec,
    StragglerSpec,
)
from repro.flighting import (
    RolloutCheckpoint,
    RolloutPlan,
    RolloutPolicy,
    RolloutWave,
    RolloutWaveRecord,
)
from repro.obs import (
    OPS_METRICS,
    MetricsRegistry,
    SimulatorProfile,
    SpanRecord,
    Tracer,
    TuningCostLedger,
    read_trace_jsonl,
)
from repro.service import (
    Campaign,
    CampaignGuardrails,
    CampaignPhase,
    CampaignReport,
    CampaignStore,
    ContinuousTuningService,
    ExecutionBackend,
    FleetCampaignReport,
    FleetRegistry,
    LocalQueueBackend,
    ProcessPoolBackend,
    Scenario,
    ScenarioCatalog,
    SimulationCache,
    TenantSpec,
    default_catalog,
)

__version__ = "1.4.0"

__all__ = [
    "APPLICATIONS",
    "ApplicationRegistry",
    "ApplicationRun",
    "ParameterSpec",
    "TuningApplication",
    "TuningOutcome",
    "TuningProposal",
    "register_application",
    "DeploymentImpact",
    "FlightValidation",
    "Kea",
    "Observation",
    "StagedRollout",
    "FaultInjector",
    "FaultPlan",
    "MachineSelector",
    "OutageSpec",
    "StragglerSpec",
    "CostReport",
    "PriceBook",
    "default_price_book",
    "frame_cost",
    "window_cost",
    "RolloutCheckpoint",
    "RolloutPlan",
    "RolloutPolicy",
    "RolloutWave",
    "RolloutWaveRecord",
    "OPS_METRICS",
    "MetricsRegistry",
    "SimulatorProfile",
    "SpanRecord",
    "Tracer",
    "TuningCostLedger",
    "read_trace_jsonl",
    "Campaign",
    "CampaignGuardrails",
    "CampaignPhase",
    "CampaignReport",
    "CampaignStore",
    "ContinuousTuningService",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "LocalQueueBackend",
    "FleetCampaignReport",
    "FleetRegistry",
    "Scenario",
    "ScenarioCatalog",
    "SimulationCache",
    "TenantSpec",
    "default_catalog",
]
