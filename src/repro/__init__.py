"""repro — a reproduction of "KEA: Tuning an Exabyte-Scale Data Infrastructure"
(Zhu et al., SIGMOD 2021).

The layers live in subpackages — :mod:`repro.cluster`, :mod:`repro.workload`,
:mod:`repro.telemetry`, :mod:`repro.core` (KEA itself), :mod:`repro.flighting`,
:mod:`repro.service` and the rest — and are imported from there. This
module names only the entry points the README and the examples use, and
imports each on first access (PEP 562), so ``import repro.cluster`` loads
the cluster layer alone::

    from repro import ContinuousTuningService, FleetRegistry, TenantSpec
"""

from importlib import import_module

__version__ = "1.4.0"

#: The subpackage each public name is imported from.
_HOMES = {
    "Kea": "repro.core",
    "RolloutPolicy": "repro.flighting",
    "ContinuousTuningService": "repro.service",
    "FleetRegistry": "repro.service",
    "TenantSpec": "repro.service",
    "ProcessPoolBackend": "repro.service",
    "LocalQueueBackend": "repro.service",
    "CampaignStore": "repro.service",
    "Tracer": "repro.obs",
    "read_trace_jsonl": "repro.obs",
    "OPS_METRICS": "repro.obs",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(_HOMES[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value
