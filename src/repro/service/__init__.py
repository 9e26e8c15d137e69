"""The continuous tuning service (multi-cluster campaign orchestration).

KEA's value comes from running observe → calibrate → tune → flight → deploy
*continuously* across a huge fleet. This subsystem turns the single-instance
:class:`~repro.core.kea.Kea` loop into a service:

* :class:`FleetRegistry` / :class:`TenantSpec` — named tenants, each a
  reproducible recipe for one simulated production environment;
* :class:`ScenarioCatalog` / :class:`Scenario` — named workload scenarios
  (diurnal baseline, demand spike, sustained overload, machine-group
  decommission, benchmark-heavy) campaigns are launched against;
* :class:`Campaign` — the per-tenant state machine with significance-gated
  transitions and rollback on regressing deployments, driving any
  registered :class:`~repro.core.application.TuningApplication` (the
  tenant's/scenario's choice; YARN config tuning by default);
* :class:`ExecutionBackend` — where batches run: inline or over a process
  pool (:class:`ProcessPoolBackend`; ``max_workers=1``, the inline serial
  reference, is the default), or through a durable file-spooled queue
  drained by restartable workers (:class:`LocalQueueBackend`) — all
  bit-identical;
* :class:`SimulationCache` — memoizes outcomes by (tenant, config hash,
  workload tag) so repeated what-if questions never re-simulate, holding
  at most a byte budget of pickled outcomes;
* :class:`CampaignStore` — versioned, atomically-written campaign records,
  so a restarted service reconstructs every tenant mid-round and resumes
  bit-identically;
* :class:`ContinuousTuningService` — the orchestrator tying them together,
  with a non-blocking tenant-sharded front-end (submit / poll / drain).
"""

from repro.service.backend import (
    ExecutionBackend,
    LocalQueueBackend,
    ProcessPoolBackend,
    queue_task_id,
)
from repro.service.cache import CacheStats, SimulationCache
from repro.service.campaign import (
    Campaign,
    CampaignEvent,
    CampaignGuardrails,
    CampaignPhase,
    CampaignReport,
)
from repro.service.pool import (
    OutcomeTiming,
    SimulationBatchError,
    SimulationOutcome,
    SimulationRequest,
    config_fingerprint,
    execute_request,
)
from repro.service.registry import FleetRegistry, TenantSpec
from repro.service.scenarios import (
    DEFAULT_CATALOG,
    Scenario,
    ScenarioCatalog,
    default_catalog,
)
from repro.service.service import ContinuousTuningService, FleetCampaignReport
from repro.service.store import (
    CAMPAIGN_STATE_VERSION,
    CampaignStore,
    restore_campaign,
    snapshot_campaign,
)

__all__ = [
    "ExecutionBackend",
    "ProcessPoolBackend",
    "LocalQueueBackend",
    "queue_task_id",
    "CacheStats",
    "SimulationCache",
    "CAMPAIGN_STATE_VERSION",
    "CampaignStore",
    "snapshot_campaign",
    "restore_campaign",
    "Campaign",
    "CampaignEvent",
    "CampaignGuardrails",
    "CampaignPhase",
    "CampaignReport",
    "OutcomeTiming",
    "SimulationBatchError",
    "SimulationOutcome",
    "SimulationRequest",
    "config_fingerprint",
    "execute_request",
    "FleetRegistry",
    "TenantSpec",
    "DEFAULT_CATALOG",
    "Scenario",
    "ScenarioCatalog",
    "default_catalog",
    "ContinuousTuningService",
    "FleetCampaignReport",
]
