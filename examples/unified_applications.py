"""Every Table 3 application through the one unified lifecycle.

The paper's claim is that a single Performance Monitor → What-if Engine →
Optimizer → Flighting/Deployment pipeline serves all of KEA's tuning
applications. This walkthrough drives each registered
:class:`~repro.core.application.TuningApplication` through the same two
entry points — ``Kea.run_application(name)`` and a campaign whose tenant
selects a non-default application.

Run:  python examples/unified_applications.py
"""

from repro.cluster import small_application_fleet_spec, small_fleet_spec
from repro.core import APPLICATIONS, Kea
from repro.service import (
    ContinuousTuningService,
    FleetRegistry,
    ProcessPoolBackend,
    TenantSpec,
)

APP_KWARGS = {
    "yarn-config": {},
    "queue-tuning": {},
    "power-capping": dict(capping_levels=(0.10,), group_size=4, hours_per_round=2.0),
    "sku-design": dict(
        ram_candidates_gb=[64.0, 128.0, 256.0],
        ssd_candidates_gb=[600.0, 1200.0, 2400.0],
        n_draws=200,
    ),
    "sc-selection": dict(sku="Gen 1.1", n_racks=2, days=0.25),
}


def main() -> None:
    kea = Kea(fleet_spec=small_application_fleet_spec(), seed=7)
    print(f"registered applications: {', '.join(APPLICATIONS.names())}\n")
    for name in APPLICATIONS.names():
        app = kea.application(name, **APP_KWARGS.get(name, {}))
        knobs = ", ".join(spec.name for spec in app.parameter_space())
        print(f"running {name!r} ({app.mode}; tunes: {knobs})...")
        run = kea.run_application(name, observe_days=0.25, **APP_KWARGS.get(name, {}))
        print(f"  {run.proposal.summary}\n")

    # The continuous tuning service is application-agnostic too: this tenant
    # tunes per-group queue lengths instead of container limits.
    registry = FleetRegistry()
    registry.add(
        TenantSpec(
            name="queues",
            fleet_spec=small_fleet_spec(),
            seed=23,
            application="queue-tuning",
        )
    )
    with ContinuousTuningService(
        registry, backend=ProcessPoolBackend(max_workers=1)
    ) as service:
        result = service.run_campaigns(
            scenario="diurnal-baseline",
            observe_days=0.5,
            impact_days=0.5,
            flight_hours=4.0,
        )
    print(result.summary())


if __name__ == "__main__":
    main()
